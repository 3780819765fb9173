import itertools
import json
import math
from fractions import Fraction

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
    mobius,
    q_approx,
    ramanujan,
    scan,
)
from cotsums.gseries import EmpiricalCDF
from conftest import exact_sums


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


class TestBatchC0:
    def _assert_fft_within_bound(self, p, r):
        rs, c0v = equidist.batch_c0(p)
        assert rs[r - 1] == r
        bound = c0(ReducedFraction(r, p)).err_bound
        [want] = exact_sums(r, p, ("c0",))
        assert abs(Fraction(c0v[r - 1]) - want) <= bound

    @given(st.sampled_from((2, 3, 5, 7, 11, 13, 101, 1009)), st.data())
    def test_fft_route_within_err_bound(self, p, data):
        # p = 2 and 3 are the length-1 and length-2 transforms
        self._assert_fft_within_bound(p, data.draw(st.integers(1, p - 1)))

    @settings(max_examples=4)
    @given(st.integers(1, 99990))
    def test_fft_route_within_err_bound_near_1e5(self, r):
        self._assert_fft_within_bound(99991, r)

    def test_units_ascend_and_match_gcd_listing(self):
        # taken from the FFT's index map; b = 2 has c0(1/2) = 0 at the unit 1
        for b in [*range(2, 130), 4096, 30030]:
            rs, c0v = equidist.batch_c0(b)
            assert rs.dtype == np.int64, b
            assert np.array_equal(rs, equidist._coprime(1, b - 1, b)), b
            assert len(c0v) == len(rs), b

    def test_v_column_matches_scalar_vasyunin(self):
        for r, b in ((3, 7), (5, 97), (7, 100), (45, 101), (700, 1009)):
            rs, _, vv, _, _ = equidist.batch_c0_vq(b)
            want = vasyunin(ReducedFraction(r, b))
            assert abs(vv[list(rs).index(r)] - want.value) <= 2.0 * want.err_bound

    @pytest.mark.parametrize("b", [105, 3003])
    def test_direct_rows_equal_scalar_sums(self, b):
        # one direct kernel serves the V and Q columns, a batch c0 and the scalar calls
        rs, _, vv, qv, _ = equidist.batch_c0_vq(b)
        [c0d], _ = direct_sums(rs, b, ("c0",))
        for i, r in enumerate(rs.tolist()):
            f = ReducedFraction(r, b)
            assert c0d[i] == c0(f).value
            assert qv[i] == q_sum(f).value
            assert vv[i] == vasyunin(f).value

    @pytest.mark.parametrize("oracle", [False, True])
    def test_scalar_sums_across_chunks_within_err_bound(self, oracle):
        # (b - 1)/2 exceeds one chunk of the direct kernel, so partials are joined;
        # a batch value must not depend on the other residues of the batch
        p = 524309  # (p - 1)/2 = 262154 paired terms, more than one chunk of 2^18
        by_r, _ = equidist._c0_fft(p)
        rs = (1, 2, 131077, 262154, 393231, 524308)
        batch, _ = direct_sums(rs, p, ("c0", "q", "v"), oracle=oracle)
        for i, r in enumerate(rs):
            f = ReducedFraction(r, p)
            want = c0(f, oracle=oracle)
            assert abs(want.value - by_r[r]) <= want.err_bound
            assert batch[0, i] == want.value
            assert batch[1, i] == q_sum(f, oracle=oracle).value
            assert batch[2, i] == vasyunin(f, oracle=oracle).value

    def test_one_unit_group_gives_plus_zero(self):
        # c0(1/2) = -cot(pi/2)/2 is +0.0, as the scalar route gives it
        assert math.copysign(1.0, equidist.batch_c0(2)[1][0]) == 1.0

    def test_every_b_to_129_within_err_bound_of_scalar_sums(self):
        # groups of order 1 and 2, e = 4, the cyclic 2 p^k and the several-axis
        # composites, each value against the direct kernel's scalar sum
        for b in range(2, 130):
            rs, c0v = equidist.batch_c0(b)
            for r, v in zip(rs.tolist(), c0v.tolist()):
                want = c0(ReducedFraction(r, b))
                assert abs(v - want.value) <= want.err_bound, (r, b)

    @pytest.mark.parametrize("b", [1009, 99991, 2187, 4374, 6250])
    def test_oddness_is_exact_for_cyclic_groups(self, b):
        # p, 3^7, 2*3^7 and 2*5^5: every divisor table holds c0*(e - u) = -c0*(u)
        # bit for bit, and the divisor sums add the same terms in the same order
        rs, c0v = equidist.batch_c0(b)
        by_r, _ = equidist._c0_fft(b)
        assert np.array_equal(by_r[b - rs].view(np.uint64), (-c0v).view(np.uint64))

    def test_memory_per_b_is_bounded(self, fresh_child):
        # one prime table in a fresh interpreter, whose ru_maxrss is in KiB on
        # Linux: the half-length correlation grows it by about 53 bytes per b;
        # the wrapped cyclic correlation at a power of two took 107
        b = 1999993
        script = (
            "import resource\n"
            "from cotsums import equidist\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            f"equidist.batch_c0({b})\n"
            "print(peak() - before)\n"
        )
        assert int(fresh_child(script)) * 1024 <= 80 * b

    def test_rejects_modulus_past_int64_products(self):
        misses = cot_table.cache_info().misses
        for fn in (equidist.batch_c0, equidist.batch_c0_vq):
            with pytest.raises(ValueError, match="int64"):
                fn(equidist._B_MAX + 1)
        assert cot_table.cache_info().misses == misses

    def test_leaves_the_cot_table_cache_alone(self):
        # the FFT builds one cot table per divisor e > 2 (62 at 30030) and
        # drops it; through the 64-entry LRU they evicted one another
        before = cot_table.cache_info()
        equidist.batch_c0(30030)
        assert cot_table.cache_info() == before


def _smooth(m: np.ndarray) -> np.ndarray:
    # True where m has no prime factor above 5
    for p in (2, 3, 5):
        for _ in range(int(m.max()).bit_length()):
            m = np.where(m % p == 0, m // p, m)
    return m == 1


class TestSmoothSize:
    def test_least_5_smooth_at_or_above_n(self):
        m = np.arange(1, 20_481)
        # the least smooth m >= n for n = 1..20000: a running minimum from the top
        least = np.minimum.accumulate(np.where(_smooth(m), m, m[-1])[::-1])[::-1]
        assert [equidist._smooth_size(n) for n in range(1, 20_001)] == least[:20_000].tolist()

    @pytest.mark.parametrize("n", [2000001, 4999997, 9999989])
    def test_large_sizes(self, n):
        m = np.arange(n, n + (1 << 18))
        assert equidist._smooth_size(n) == m[np.argmax(_smooth(m))]


class TestUnitGroupFFT:
    """`_c0_fft` at composite b: a divisor split, one unit-group correlation each."""

    # One modulus per shape of the unit group: b = 2 mod 4 (the factor 2 has
    # no axis), 4*odd (the axis -1), 2^k and 8*odd (-1 and 5), odd prime
    # powers (one lifted generator).
    @pytest.mark.parametrize("b", [486, 30030, 420, 4096, 360, 2187, 1331])
    def test_composite_within_err_bound(self, b):
        by_r, _ = equidist._c0_fft(b)
        rs = equidist._coprime(1, b - 1, b)
        if len(rs) > 200:
            rs = rs[np.linspace(0, len(rs) - 1, 8).astype(int)]
        for r in rs.tolist():
            bound = c0(ReducedFraction(r, b)).err_bound
            [want] = exact_sums(r, b, ("c0",))
            assert abs(Fraction(by_r[r]) - want) <= bound, r

    def test_oddness_is_bitwise_exact(self):
        # c0((b-r)/b) = -c0(r/b) bit for bit at every b, whatever the shape of
        # its unit group: each divisor's correlation gives its second half as
        # the negated first.  (b = 2 has one unit, c0(1/2) = +0.0.)
        for b in [*range(3, 2001), 30030, 90090, 100000, 720720]:
            _, c0v = equidist.batch_c0(b)
            assert np.array_equal(c0v[::-1].view(np.uint64), (-c0v).view(np.uint64)), b

    def test_matches_direct_kernel_every_composite_b_to_64(self):
        for b in range(4, 65):
            if equidist._factorize(b) == {b: 1}:
                continue
            rs, c0v = equidist.batch_c0(b)
            [direct], [biggest] = direct_sums(rs, b, ("c0",))
            assert np.all(np.abs(c0v - direct) <= (b - 1) * np.finfo(float).eps * biggest), b

    def test_index_map_covers_every_unit_once(self):
        for e in range(2, 400):
            units = equidist._index_map(e).reshape(-1)
            assert np.array_equal(np.sort(units), equidist._coprime(1, e, e)), e

    def test_index_map_equals_outer_products_from_one(self):
        # the map starts from its first axis's powers; folding every axis into
        # a 0-d one, the construction it replaced, gives the same array
        for b in [*range(2, 2001), 720720, 1 << 20, 4999999]:
            ref = np.ones((), dtype=np.int64)
            for g, n in equidist._unit_axes(b):
                ref = np.multiply.outer(ref, equidist._powers(g, b, n)) % b
            units = equidist._index_map(b)
            assert units.dtype == ref.dtype and units.shape == ref.shape, b
            assert np.array_equal(units, ref), b

    def test_index_map_inverses_equal_pow(self):
        # the inverse of the unit at exponent vector i sits at -i; 8, 16, 48 and
        # 720 have a 2^k factor with its two axes, -1 and 5
        for b in [*range(2, 2001), 30030]:
            units = equidist._index_map(b)
            u, v = units.reshape(-1), np.reshape(equidist._inverses(units), -1)
            assert np.all(u * v % b == 1 % b), b
            assert v.tolist() == [pow(x, -1, b) for x in u.tolist()], b
        for b in (2, 8, 16, 48, 720):
            rs, _, _, _, rbar = equidist.batch_c0_vq(b)
            assert rbar.tolist() == [pow(r, -1, b) for r in rs.tolist()], b

    def test_divisor_maps_are_corners_of_b_map(self):
        # e's index map is the corner i < n(e) of b's, read mod e, with the
        # length-1 axes dropped; the corner's lengths are e's orders
        for b in [*range(3, 2001), 720720]:
            units, factors = equidist._index_map(b), equidist._factorize(b)
            for js in itertools.product(*(range(k + 1) for k in factors.values())):
                e = math.prod(p**j for p, j in zip(factors, js))
                if e == 1:
                    continue
                shape = [n for (p, k), j in zip(factors.items(), js) for n in equidist._axis_lengths(p, k, j)]
                assert [n for n in shape if n > 1] == [n for _, n in equidist._unit_axes(e)], (b, e)
                corner = units[tuple(slice(n) for n in shape)] % e
                assert np.array_equal(corner.reshape(equidist._index_map(e).shape), equidist._index_map(e)), (b, e)

    def test_generators_reduce_to_divisor_generators(self):
        # at b = 2 p^2 with p = 40487, p's generator is 5 + p mod p^2 but 5 mod
        # p (`test_generator_lift`); b's lifted generator reduces to e's
        p = 40487
        b = 2 * p * p
        [(g, n)] = equidist._unit_axes(b)
        assert (g % (p * p), n) == (5 + p, p * (p - 1))
        for e in (p, 2 * p):
            assert equidist._unit_axes(e) == [(g % e, *equidist._axis_lengths(p, 2, 1))] == [(5, p - 1)]

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
        by_r, _ = equidist._c0_fft(b)
        # oddness at every unit, bit for bit
        assert np.array_equal(by_r[b - rs].view(np.uint64), (-c0v).view(np.uint64))
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
        # Q's normalizer b^102 phi(b) overflows at b = 1009 and the power sum
        # of Q^34 at 30011: rejected with the largest k_max that stays finite
        for b, k_max in [(1009, 26), (30011, 17)]:
            with pytest.raises(ValueError, match=f"k_max <= {k_max - 1} "):
                scan(ScanWindow(b, 0.6, 0.8), k_max)

    def test_huge_kmax_names_the_same_limit(self):
        # no power past the first overflowing normalizer is formed, so a
        # k_max far past the float range is rejected as k_max = 26 is
        with pytest.raises(ValueError, match="k_max <= 25 "):
            scan(ScanWindow(1009, 0.6, 0.8), 10**9)

    @pytest.mark.parametrize("b", [1009, 30030])
    def test_moments_within_bound_of_exact(self, b):
        # each moment within (k+1) u sum|v|^k / (b^(pk) phi) of the exact
        # rational moment of the same table values v, u = 2^-53; p = 1 for c0
        # and 2 for Q
        rep = scan(ScanWindow(b, 0.6, 0.8), 3)
        for values, moments, p in ((rep.c0_values, rep.moments_c0, 1), (rep.q_values, rep.moments_q, 2)):
            xs = [Fraction(v) for v in values.tolist()]
            powers = xs
            for k in range(1, 7):
                norm = Fraction(b) ** (p * k) * rep.phi
                bound = (k + 1) * sum(map(abs, powers)) / norm / 2**53
                assert abs(Fraction(moments[k]) - sum(powers) / norm) <= bound, (p, k)
                powers = [y * x for y, x in zip(powers, xs)]

    def test_window_without_units_builds_no_table(self, monkeypatch):
        # r = 18 is the window's one integer and shares 6 with b = 30: the scan
        # is rejected before the whole-modulus table is built
        calls = []
        monkeypatch.setattr(equidist, "_c0_fft", calls.append)
        with pytest.raises(ValueError, match="no admissible residue"):
            scan(ScanWindow(30, 0.6, 0.61), 1)
        assert calls == []

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
        # r >= b, a huge r >= b, and an odd modulus past the int64 guard
        for r, b in ((9, 7), (2**55, 3), (2, (equidist._B_MAX + 1) | 1)):
            with pytest.raises(ValueError):
                q_approx(r, b, 8)

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

    def test_equals_moebius_divisor_sum(self):
        mu = [0] + [mobius(k) for k in range(1, 201)]
        for q in range(1, 201):
            for n in range(-300, 301):
                g = math.gcd(q, n)
                want = sum(mu[q // d] * d for d in range(1, g + 1) if g % d == 0)
                assert ramanujan(q, n) == want, (q, n)


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
