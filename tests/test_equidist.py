import functools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotsums import equidist
from cotsums.core import ReducedFraction, c0, cot_table, direct_sums, q_sum, vasyunin
from cotsums.equidist import (
    ExpSumParams,
    ScanReport,
    ScanWindow,
    euler_phi,
    inverse_localization_count,
    kloosterman,
    ks_distance,
    q_approx,
    ramanujan,
    scan,
)
from cotsums.gseries import EmpiricalCDF


class TestEulerPhi:
    def test_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(10) == 4
        assert euler_phi(757) == 756
        assert euler_phi(946) == 420

    def test_domain(self):
        with pytest.raises(ValueError):
            euler_phi(0)


class TestScanWindow:
    @pytest.mark.parametrize(
        "b,a0,a1", [(100, 0.5, 0.8), (100, 0.6, 1.0), (100, 0.8, 0.6), (1, 0.6, 0.8)]
    )
    def test_rejects_bad_bounds(self, b, a0, a1):
        with pytest.raises(ValueError):
            ScanWindow(b, a0, a1)

    def test_rejects_modulus_past_int64_products(self):
        # checked before any residue array or cot table is allocated
        misses = cot_table.cache_info().misses
        with pytest.raises(ValueError, match="int64"):
            ScanWindow(equidist._B_MAX + 1, 0.6, 0.8)
        assert cot_table.cache_info().misses == misses

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            ScanWindow(7, 0.55, 0.56)

    def test_residues(self):
        w = ScanWindow(12, 0.55, 0.95)
        assert equidist.window_residues(w).tolist() == [7, 11]


@functools.lru_cache(maxsize=None)
def _mp_cot(p):
    # cot(pi k / p) for k = 0..p-1 in 30 digits; cospi is exactly 0 at k/p = 1/2
    with mpmath.workdps(30):
        half = [mpmath.cospi(mpmath.mpf(k) / p) / mpmath.sinpi(mpmath.mpf(k) / p)
                for k in range(1, p // 2 + 1)]
    return [mpmath.mpf(0)] + half + [-x for x in reversed(half[: (p - 1) // 2])]


def _mp_c0(r, p):
    with mpmath.workdps(30):
        cot = _mp_cot(p)
        return float(-mpmath.fdot((m, cot[m * r % p]) for m in range(1, p)) / p)


class TestBatchC0:
    def _assert_fft_within_bound(self, p, r):
        rs, c0v = equidist.batch_c0(p)
        assert rs[r - 1] == r
        bound = c0(ReducedFraction(r, p)).err_bound
        assert abs(c0v[r - 1] - _mp_c0(r, p)) <= bound

    @given(st.sampled_from((2, 3, 5, 7, 11, 13, 101, 1009)), st.data())
    def test_fft_route_within_err_bound(self, p, data):
        # p = 2 and 3 are the length-1 and length-2 transforms
        self._assert_fft_within_bound(p, data.draw(st.integers(1, p - 1)))

    @settings(max_examples=4)
    @given(st.integers(1, 99990))
    def test_fft_route_within_err_bound_near_1e5(self, r):
        self._assert_fft_within_bound(99991, r)

    def test_v_column_matches_scalar_vasyunin(self):
        for r, b in ((3, 7), (5, 97), (7, 100), (45, 101), (700, 1009)):
            rs, _, vv, _ = equidist.batch_c0_vq(b)
            want = vasyunin(ReducedFraction(r, b))
            assert abs(vv[list(rs).index(r)] - want.value) <= 2.0 * want.err_bound

    @pytest.mark.parametrize("b", [105, 3003])
    def test_direct_rows_equal_scalar_sums(self, b):
        # one direct kernel serves the V and Q columns, a batch c0 and the scalar calls
        rs, _, vv, qv = equidist.batch_c0_vq(b)
        [c0d], _ = direct_sums(rs, b, ("c0",))
        for i, r in enumerate(rs.tolist()):
            f = ReducedFraction(r, b)
            assert c0d[i] == c0(f).value
            assert qv[i] == q_sum(f).value
            assert vv[i] == vasyunin(f).value

    @pytest.mark.parametrize("oracle", [False, True])
    def test_direct_sums_thread_invariant(self, oracle):
        # each thread takes a slice of the residues; no value may move
        b = 3003
        rs = [r for r in range(1, b) if math.gcd(r, b) == 1]
        one = direct_sums(rs, b, ("c0", "q", "v"), 1, oracle)
        for threads in (2, 3, 7):
            many = direct_sums(rs, b, ("c0", "q", "v"), threads, oracle)
            assert all(np.array_equal(x, y) for x, y in zip(one, many))

    @pytest.mark.parametrize("oracle", [False, True])
    def test_scalar_sums_across_chunks_within_err_bound(self, oracle):
        # b - 1 exceeds one chunk of the direct kernel, so partials are joined
        p = 262147
        by_r = equidist._c0_fft(p)
        for r in (1, 2, 65537, 131073, 262146):
            want = c0(ReducedFraction(r, p), oracle=oracle)
            assert abs(want.value - by_r[r]) <= want.err_bound

    def test_rejects_modulus_past_int64_products(self):
        misses = cot_table.cache_info().misses
        for fn in (equidist.batch_c0, equidist.batch_c0_vq):
            with pytest.raises(ValueError, match="int64"):
                fn(equidist._B_MAX + 1)
        assert cot_table.cache_info().misses == misses


class TestUnitGroupFFT:
    """`_c0_fft` at composite b: a divisor split, one unit-group correlation each."""

    # One modulus per shape of the unit group: b = 2 mod 4 (the factor 2 has
    # no axis), 4*odd (the axis -1), 2^k and 8*odd (-1 and 5), odd prime
    # powers (one lifted generator).
    @pytest.mark.parametrize("b", [486, 30030, 420, 4096, 360, 2187, 1331])
    def test_composite_within_err_bound(self, b):
        by_r = equidist._c0_fft(b)
        rs = equidist._coprime(1, b - 1, b)
        if len(rs) > 200:
            rs = rs[np.linspace(0, len(rs) - 1, 8).astype(int)]
        for r in rs.tolist():
            bound = c0(ReducedFraction(r, b)).err_bound
            assert abs(by_r[r] - _mp_c0(r, b)) <= bound, r

    def test_matches_direct_kernel_every_composite_b_to_64(self):
        for b in range(4, 65):
            if equidist._factorize(b) == {b: 1}:
                continue
            rs, c0v = equidist.batch_c0(b)
            [direct], [biggest] = direct_sums(rs, b, ("c0",))
            assert np.all(np.abs(c0v - direct) <= (b - 1) * np.finfo(float).eps * biggest), b

    def test_index_map_covers_every_unit_once(self):
        for e in range(2, 400):
            units, _ = equidist._c0_star(e)
            assert np.array_equal(np.sort(units), equidist._coprime(1, e, e)), e

    def test_generator_lift(self):
        # 5 is the least primitive root mod p = 40487 and 5^(p-1) = 1 mod p^2,
        # so 5 has order p - 1 mod p^2 and the generator there must be 5 + p
        p = 40487
        assert equidist._primitive_root(p) == 5
        assert pow(5, p - 1, p * p) == 1
        g = equidist._prime_power_root(p, 2)
        assert g == 5 + p
        n = p * (p - 1)
        assert all(pow(g, n // q, p * p) != 1 for q in equidist._factorize(n))
        assert equidist._prime_power_root(p, 1) == 5
        assert equidist._unit_axes(p * p) == [(g, n)]

    @pytest.mark.parametrize("b", [99991, 100000, 90090])
    def test_identities_near_1e5(self, b):
        rs, c0v = equidist.batch_c0(b)
        by_r = equidist._c0_fft(b)
        # Oddness at every unit.  Each c0 sum has a term of size about
        # cot(pi/b)/2 or more (where m r = +-1), so the bounds of a pair add up
        # to at least the bound at r = 1, whose largest term is about cot(pi/b).
        assert np.max(np.abs(by_r[b - rs] + c0v)) <= c0(ReducedFraction(1, b)).err_bound
        picks = rs[np.random.default_rng(b).choice(len(rs), 16, replace=False)]
        rbar = np.array([pow(int(r), -1, b) for r in picks.tolist()])
        [q, v], qv_big = direct_sums(picks, b, ("q", "v"))
        _, [c0_big] = direct_sums(np.concatenate([[1], picks, rbar]), b, ("c0",))
        q_err, v_err = (b - 1) * np.finfo(float).eps * qv_big
        one_err, r_err, rbar_err = np.split((b - 1) * np.finfo(float).eps * c0_big, [1, 17])
        assert np.all(np.abs(v + by_r[rbar]) <= v_err + rbar_err)
        decomposition = by_r[1] - picks * by_r[picks]
        assert np.all(np.abs(q - decomposition) <= q_err + one_err + picks * r_err)


class TestScan:
    @pytest.mark.parametrize("b", [101, 105])
    def test_matches_scalar_route(self, b):
        # a slice of the whole-modulus table, prime or composite
        w = ScanWindow(b, 0.6, 0.8)
        rs, c0v, qv = equidist.scan_arrays(w)
        for i, r in enumerate(rs.tolist()):
            f = ReducedFraction(r, b)
            assert c0v[i] == pytest.approx(c0(f).value, abs=1e-10)
            assert qv[i] == pytest.approx(q_sum(f).value, rel=1e-10)

    def test_composite_decomposition_q_within_err_bound(self):
        # The scan takes Q = c0(1/b) - r c0(r/b), which cancels when |Q| is
        # large; hold it to q_sum's own formula and bound.
        b = 30030
        rs, _, qv = equidist.scan_arrays(ScanWindow(b, 0.6, 0.8))
        picks = {0, len(rs) // 2, len(rs) - 1, int(np.argmax(np.abs(qv)))}
        picks.add(int(np.searchsorted(rs, 23929)))
        for i in sorted(picks):
            s = q_sum(ReducedFraction(int(rs[i]), b))
            assert abs(qv[i] - s.value) <= s.err_bound

    def test_report_shape(self, scan_reports):
        rep = scan_reports[1009]
        assert rep.count == 202 and rep.phi == 1008
        assert set(rep.moments_c0) == set(range(1, 7))
        assert rep.moments_c0[2] >= 0.0 and rep.moments_c0[4] >= 0.0
        assert rep.moments_q[2] >= 0.0
        assert rep.wall_ms == 0.0
        assert rep.cdf.count == rep.count

    def test_second_moment_values(self, scan_reports):
        assert scan_reports[1009].moments_c0[2] == pytest.approx(0.025710, abs=2e-6)
        assert scan_reports[10007].moments_c0[2] == pytest.approx(0.029074, abs=2e-6)
        assert scan_reports[10007].moments_q[2] == pytest.approx(0.014196, abs=2e-6)

    def test_thread_invariance(self):
        # threads is accepted and has no effect, at prime and composite b
        for modulus in (2003, 3003):
            w = ScanWindow(modulus, 0.6, 0.8)
            a = scan(w, 2, deterministic=True, threads=1)
            b = scan(w, 2, deterministic=True, threads=4)
            assert a.moments_c0 == b.moments_c0
            assert a.moments_q == b.moments_q
            assert np.array_equal(a.cdf.values, b.cdf.values)
            assert np.array_equal(a.c0_values, b.c0_values)

    def test_moment_bridge(self):
        # sum c0^2 vs sum (Q/r)^2: equal up to the O(log^2 b / b) cross terms
        w = ScanWindow(2003, 0.6, 0.8)
        rs, c0v, qv = equidist.scan_arrays(w)
        s_c0 = float(np.sum(c0v**2))
        s_qr = float(np.sum((qv / rs) ** 2))
        assert abs(s_c0 - s_qr) / s_c0 < math.log(2003) ** 2 / 2003

    def test_h1_consistent_between_routes(self, scan_reports):
        for rep in scan_reports.values():
            h1_c0 = rep.moments_c0[2] / 0.2
            h1_q = 3.0 * rep.moments_q[2] / (0.8**3 - 0.6**3)
            assert abs(h1_c0 - h1_q) / h1_c0 < 0.05

    def test_kmax_validated(self):
        with pytest.raises(ValueError):
            scan(ScanWindow(101, 0.6, 0.8), 0)

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            ScanReport(
                b=10, a0=0.6, a1=0.8, phi=4, count=5, moments_c0={}, moments_q={}
            )
        with pytest.raises(ValueError):
            ScanReport(
                b=10,
                a0=0.6,
                a1=0.8,
                phi=4,
                count=2,
                moments_c0={2: -0.5},
                moments_q={},
            )


class TestQApprox:
    def test_domain(self):
        with pytest.raises(ValueError):
            q_approx(1, 7, 8)
        with pytest.raises(ValueError):
            q_approx(4, 6, 8)

    def test_half_point_vanishes(self):
        assert q_approx(2, 9, 10) == 0.0
        assert q_approx(2, 101, 12) == 0.0

    def test_scaling_depends_only_on_inverse_fraction(self):
        # b = 7 and b = 17 share b* = 3 mod 5
        a = q_approx(5, 7, 8) / (7 * 5)
        b = q_approx(5, 17, 8) / (17 * 5)
        assert a == b

    def test_tracks_q_sum(self):
        w = ScanWindow(5003, 0.6, 0.8)
        rs, _, qv = equidist.scan_arrays(w)
        approx = np.array([q_approx(int(r), 5003, 10) for r in rs.tolist()])
        corr = float(np.corrcoef(qv, approx)[0, 1])
        assert corr > 0.95


class TestKloosterman:
    def test_trivial_frequencies(self):
        for b in range(2, 51):
            re, im = kloosterman(ExpSumParams(0, 0, b))
            assert re == float(euler_phi(b))
            assert im == 0.0

    def test_ramanujan_specialization(self):
        for b in (6, 10, 30, 210):
            re, im = kloosterman(ExpSumParams(1, 0, b))
            assert re == pytest.approx(equidist.mobius(b), abs=1e-9)
            assert abs(im) < 1e-9

    def test_weil_bound(self):
        for p in (3, 5, 7, 11, 31, 61, 101):
            re, im = kloosterman(ExpSumParams(1, 1, p))
            assert math.hypot(re, im) <= 2.0 * math.sqrt(p) + 1e-9

    def test_symmetry_bit_identical(self):
        for n, m, b in ((1, 2, 97), (3, 7, 144), (5, 11, 199)):
            assert kloosterman(ExpSumParams(n, m, b)) == kloosterman(
                ExpSumParams(m, n, b)
            )

    def test_modulus_validated(self):
        with pytest.raises(ValueError):
            ExpSumParams(1, 1, 1)


class TestRamanujan:
    def test_known_values(self):
        assert ramanujan(6, 1) == 1
        assert ramanujan(4, 2) == -2
        assert ramanujan(1, 5) == 1

    def test_zero_frequency_gives_phi(self):
        for q in range(1, 31):
            assert ramanujan(q, 0) == euler_phi(q)

    def test_against_exponential_sum(self):
        for q in range(1, 41):
            units = [r for r in range(1, q + 1) if math.gcd(r, q) == 1]
            for n in (-7, -1, 0, 2, 9, 40):
                brute = math.fsum(
                    math.cos(2.0 * math.pi * ((r * n) % q) / q) for r in units
                )
                assert ramanujan(q, n) == round(brute)


class TestInverseLocalization:
    def test_frozen_window(self):
        count, expected = inverse_localization_count(
            ScanWindow(10007, 0.6, 0.8), 0.3, 0.1
        )
        assert count == 204
        assert expected == pytest.approx(0.1 * 0.2 * 10006, rel=1e-12)
        assert 0.85 <= count / expected <= 1.15

    def test_full_range_recovers_population(self):
        w = ScanWindow(2003, 0.6, 0.8)
        population = len(equidist.window_residues(w))
        count, _ = inverse_localization_count(w, 1e-12, 1.0)
        assert count == population

    def test_partition_is_exact(self):
        w = ScanWindow(1009, 0.6, 0.8)
        population = len(equidist.window_residues(w))
        total = sum(
            inverse_localization_count(w, max(i / 10.0, 1e-12), 0.1)[0]
            for i in range(10)
        )
        assert total == population

    def test_domain(self):
        w = ScanWindow(101, 0.6, 0.8)
        with pytest.raises(ValueError):
            inverse_localization_count(w, 0.0, 0.1)
        with pytest.raises(ValueError):
            inverse_localization_count(w, 0.5, 0.0)


class TestKSDistance:
    def test_identical_is_zero(self):
        a = EmpiricalCDF.from_samples(np.arange(10.0))
        assert ks_distance(a, a) == 0.0

    def test_one_sample_shift(self):
        a = EmpiricalCDF.from_samples(np.arange(1.0, 11.0))
        b = EmpiricalCDF.from_samples(np.arange(2.0, 12.0))
        assert ks_distance(a, b) == pytest.approx(0.1, abs=1e-12)

    def test_scan_cdf_approaches_reference(self, scan_reports):
        ks = [scan_reports[b].ks_distance for b in (1009, 2003, 5003, 10007)]
        assert all(y < x for x, y in zip(ks, ks[1:]))
        assert ks[-1] < 0.05
