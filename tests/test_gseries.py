import hashlib
import math
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cotsums import gseries
from cotsums.gseries import (
    FOURIER_CONSTANT,
    ContinuedFraction,
    TruncatedGSeries,
    cf_expand,
    cf_from_quotients,
    convergence_classifier,
    empirical_F,
    f_eval,
    fourier_coeffs_f,
    g_fourier_eval,
    hk_growth_check,
    hk_table,
)


class TestFEval:
    def test_quarter_with_single_term(self):
        assert f_eval(0.25, TruncatedGSeries(1)) == 0.5

    def test_zero_by_integer_convention(self):
        assert f_eval(0.0, TruncatedGSeries(8)) == 0.0
        assert f_eval(0.5, TruncatedGSeries(8)) == pytest.approx(
            f_eval(0.5, TruncatedGSeries(12)), abs=1e-12
        )

    @given(st.integers(min_value=1, max_value=(1 << 20) - 1))
    def test_dyadic_antisymmetry_is_exact(self, k):
        t = TruncatedGSeries(12)
        x = k / float(1 << 20)
        assert f_eval(x, t) + f_eval(1.0 - x, t) == 0.0

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            TruncatedGSeries(0)
        with pytest.raises(ValueError):
            TruncatedGSeries(41)

    def test_offset_grid_matches_scalar_route(self):
        # forces the residue-binned path (2^14 terms on a 200-point grid)
        n, m1 = 200, 14
        c = 0.5 + (200 * 0.6180339887498949) % 1.0
        fast = gseries._f_offset_grid(n, c, m1)
        direct = np.array(
            [f_eval(((j + c) / n) % 1.0, TruncatedGSeries(m1)) for j in range(n)]
        )
        assert np.max(np.abs(fast - direct)) < 1e-9


def _dense_grid(n, c, m1):
    return gseries._f_points(((np.arange(n) + c) / n) % 1.0, m1)


def _no_dense_sweep(alphas, m1, prefix=None):
    raise AssertionError("dense sweep ran")


def _binned_golden():
    # (n, m1, sha256) lines of tests/data/binned_golden.txt
    path = Path(__file__).parent / "data" / "binned_golden.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    return [(int(n), int(m1), digest) for n, m1, digest in (s.split() for s in lines if not s.startswith("#"))]


def _fourier_golden(route):
    # (size..., sha256) lines of tests/data/fourier_golden.txt for "eval" or "grid"
    path = Path(__file__).parent / "data" / "fourier_golden.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = (s.split() for s in lines if not s.startswith("#"))
    return [(*map(int, row[1:-1]), row[-1]) for row in rows if row[0] == route]


def _fourier_points():
    # dyadic k/64 (0, 1/2 and 1 among them), golden multiples and their mirrors
    # above 1/2, and two arguments outside [0, 1)
    golden = (np.arange(1, 33) * gseries._GOLDEN) % 1.0
    return np.concatenate([np.arange(65) / 64, golden, 1.0 - golden, [-gseries._GOLDEN, 1.0 + gseries._GOLDEN]])


# ru_maxrss growth (KiB on Linux) of one binned grid at (n, m1) = argv[1:3]
_GRID_MEMORY = """
import math, resource, sys
from cotsums import gseries
n, m1 = int(sys.argv[1]), int(sys.argv[2])
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
before = peak()
gseries._f_offset_grid(n, 0.5 + math.modf(n * gseries._GOLDEN)[0], m1)
print(peak() - before)
"""


class TestBinnedKernel:
    # n = 2 and 4 pair the class n/2 with itself, n = 1 has no pair at all;
    # at n = 997 and 1000 the 2^16 // n = 65 pairs per block leave a partial
    # last block (498 and 500 pairs), at n = 210 one block holds all 105
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 210, 997, 1000])
    def test_matches_dense_sweep(self, n, monkeypatch):
        m1 = (4 * n).bit_length()  # smallest L = 2^m1 above the 4n switch
        c = 0.5 + math.modf(n * gseries._GOLDEN)[0]
        dense = _dense_grid(n, c, m1)
        monkeypatch.setattr(gseries, "_f_points", _no_dense_sweep)
        binned = gseries._f_offset_grid(n, c, m1)
        assert np.max(np.abs(binned - dense)) < 1e-9

    def test_negative_offset(self):
        # (l*c) mod n for c < 0 may round up to n; the kernel reduces c first
        n, m1 = 1000, 12
        assert np.max(np.abs(gseries._f_offset_grid(n, -0.3, m1) - _dense_grid(n, -0.3, m1))) < 1e-9
        assert np.isfinite(gseries._f_offset_grid(n, -1e-20, m1)).all()

    def test_route_switch_at_four_terms_per_point(self, monkeypatch):
        monkeypatch.setattr(gseries, "_f_points", _no_dense_sweep)
        assert gseries._f_offset_grid(1023, 0.37, 12).shape == (1023,)
        with pytest.raises(AssertionError, match="dense sweep ran"):
            gseries._f_offset_grid(1024, 0.37, 12)

    def test_moment_row_matches_dense_sweep(self):
        # hk_table's full row at grid 1201, m1 = 13 is binned (8192 > 4 * 1201)
        grid, m1 = 1201, 13
        table = hk_table(6, TruncatedGSeries(m1), grid)
        y = _dense_grid(grid, 0.5 + math.modf(grid * gseries._GOLDEN)[0], m1) / math.pi
        for k in range(1, 7):
            want = float(np.mean(y ** (2 * k)))
            assert abs(table.hk[k] - want) <= 1e-12 * want

    @pytest.mark.parametrize("n,m1,digest", _binned_golden())
    def test_bytes_match_golden(self, n, m1, digest):
        c = 0.5 + math.modf(n * gseries._GOLDEN)[0]
        assert hashlib.sha256(gseries._f_offset_grid(n, c, m1).tobytes()).hexdigest() == digest

    def test_reduction_is_numpys_remainder(self):
        # h_l = (l (c mod n)) mod n at random l up to 2^52 / n and c mod n up to
        # n itself, and at x one ulp below a multiple of n, where x/n rounds
        # closest to the next quotient
        rng = np.random.default_rng(2026)
        for n in (1, 3, 997, 1000, 4001, 65537, 10**6):
            l = np.concatenate([np.arange(1.0, 5000.0), rng.integers(1, 2**52 // n, 100_000).astype(float)])
            below = np.nextafter(rng.integers(1, 2**53 // n, 100_000).astype(float) * n, 0)
            for x in (l * (rng.random() * n), l * float(n), below):
                assert np.array_equal(gseries._mod(x.copy(), n).view(np.uint64), np.remainder(x, n).view(np.uint64))

    def test_golden_grids_match_exact_sum(self):
        # anchors the recorded hashes: at three nodes of two golden grids, the
        # kernel's own float h_l = (l*(c mod n)) mod n and 1/l summed exactly,
        # n f_j = sum_l (n - 2r - 2h_l + 2n [r >= n - floor(h_l)]) / l, r = l j mod n
        for n, m1 in [(997, 12), (1000, 13)]:
            c = 0.5 + math.modf(n * gseries._GOLDEN)[0]
            l = np.arange(1, (1 << m1) + 1)
            h, inv = np.remainder(l * (c % n), n), 1.0 / l
            got = gseries._f_offset_grid(n, c, m1)
            for j in (0, n // 3, n - 1):
                r = l * j % n
                coef = n - 2 * r + 2 * n * (r >= n - np.floor(h))
                total = sum(Fraction(w) * (int(k) - 2 * Fraction(x)) for w, k, x in zip(inv.tolist(), coef, h.tolist()))
                assert abs(Fraction(got[j]) - total / n) <= 1e-13

    def test_memory_is_bounded_by_a_block(self, fresh_child):
        # the gmachinery grid in a fresh interpreter: the kernel builds every
        # block's l, h_l and 1/l in chunks of about 2^16 cells; grid-wide h and
        # 1/l arrays (8 MB each at L = 2^20) grew ru_maxrss (KiB on Linux) by 24 MB
        assert int(fresh_child(_GRID_MEMORY, "2000", "20")) * 1024 < 16 * 2**20

    def test_memory_does_not_grow_with_terms(self, fresh_child):
        # L = 2^22 at n = 997 chunks each block's 4208 rows t; grid-wide h and
        # 1/l arrays grew ru_maxrss by 96 MB
        assert int(fresh_child(_GRID_MEMORY, "997", "22")) * 1024 < 16 * 2**20


class TestSeriesKernel:
    @pytest.mark.parametrize("m1", [12, 14, 16])
    def test_prefix_equals_its_own_sweep(self, m1):
        # 2^(m1-2) is a column prefix of the first chunk at m1 = 12, the
        # first chunk at 14 and the first four chunks at 16; 300 points span
        # 19 tiles of 16 rows
        alphas = (np.arange(1, 301, dtype=float) * gseries._GOLDEN) % 1.0
        full, head = gseries._f_points(alphas, m1, prefix=m1 - 2)
        assert np.array_equal(full, gseries._f_points(alphas, m1))
        assert np.array_equal(head, gseries._f_points(alphas, m1 - 2))

    def test_dense_moment_table_sweeps_two_grids(self, monkeypatch):
        # the full grid's sweep yields the m1 - 2 row; the half grid is the other
        calls, sweep = [], gseries._f_points

        def spy(alphas, m1, prefix=None):
            calls.append((len(alphas), m1, prefix))
            return sweep(alphas, m1, prefix)

        monkeypatch.setattr(gseries, "_f_points", spy)
        hk_table(2, TruncatedGSeries(11), 2001)
        assert calls == [(2001, 11, 9), (1001, 11, None)]

    def test_point_alone_equals_batch(self):
        # 40 points at m1 = 14 span three tiles and four term chunks; at m1 = 6
        # one tile of 40 rows holds them all, each row a single 64-wide chunk
        alphas = (np.arange(1, 41, dtype=float) * gseries._GOLDEN) % 1.0
        for m1 in (14, 6):
            batch = gseries._f_points(alphas, m1)
            alone = [gseries._f_points(alphas[i : i + 1], m1)[0] for i in range(40)]
            assert np.array_equal(batch, alone)

    def test_scalar_route_is_the_kernel(self):
        t = TruncatedGSeries(14)
        for x in (0.1, 0.375, gseries._GOLDEN):
            assert f_eval(x, t) == gseries._f_points(np.array([x]), 14)[0]

    def test_against_exact_sum(self):
        # x = N / 2^k exactly, so {l x} = (l N mod 2^k) / 2^k and
        # f = sum_l (2^k - 2 (l N mod 2^k)) / (2^k l), zero terms at integers
        # points far from low-denominator rationals: near l*x = integer the
        # rounded float phase fl(l*x) may land on the other side of the jump;
        # m1 = 13 adds its second 2^12-term chunk to the first one's row dot
        for m1 in (12, 13):
            terms = 1 << m1
            lcm = math.lcm(*range(1, terms + 1))
            for x in (math.sqrt(2.0) - 1.0, gseries._GOLDEN, math.pi - 3.0, math.e - 2.0, 0.7071):
                num, den = Fraction(x).as_integer_ratio()
                total = 0
                for l in range(1, terms + 1):
                    r = l * num % den
                    if r:
                        total += (den - 2 * r) * (lcm // l)
                exact = Fraction(total, den * lcm)
                assert abs(Fraction(f_eval(x, TruncatedGSeries(m1))) - exact) <= 1e-13

    @pytest.mark.parametrize("prefix", [0, -1, 11, 12])
    def test_prefix_outside_one_to_m1_is_rejected(self, prefix):
        # 11 and 12 lie past m1 = 10, and 0 names the row of m1 = 0, which
        # TruncatedGSeries rejects; the grid checks on both of its routes
        with pytest.raises(ValueError, match="prefix"):
            gseries._f_points(np.array([0.3]), 10, prefix=prefix)
        with pytest.raises(ValueError, match="prefix"):
            gseries._f_offset_grid(1001, 0.37, 10, prefix=prefix)  # dense: L <= 4n
        with pytest.raises(ValueError, match="prefix"):
            gseries._f_offset_grid(101, 0.37, 10, prefix=prefix)  # binned: L > 4n


def _golden_points(n):
    return (np.arange(1, n + 1, dtype=float) * gseries._GOLDEN) % 1.0


def _under_cpus(monkeypatch, cpus, fn):
    monkeypatch.setattr(gseries, "_cpus", lambda: cpus)
    return fn()


# m1 -> (a prefix inside the first chunk, a prefix where a chunk ends): the
# chunk is 64 terms wide at m1 = 6 and 4096 wide at m1 >= 12
_PREFIXES = {6: (3, 6), 12: (6, 12), 13: (6, 12), 14: (6, 13), 16: (6, 14)}
_SLAB_CASES = [
    (n, m1, prefix)
    for n in (1, 15, 16, 17, 300)
    for m1, inside_and_edge in _PREFIXES.items()
    for prefix in (None, *inside_and_edge)
] + [(10_001, 6, None), (10_001, 6, 3), (10_001, 6, 6), (10_001, 12, 6), (10_001, 14, 13)]


class TestSlabThreads:
    # `_f_points` claims slabs of `_SLAB_TILES` tiles on one thread per CPU
    @pytest.mark.parametrize("n, m1, prefix", _SLAB_CASES)
    def test_bytes_equal_across_cpu_counts(self, monkeypatch, n, m1, prefix):
        # 16 points are one tile at m1 >= 12, 17 two; 10 001 points are two
        # slabs at m1 = 6 and 79 at m1 = 12 and 14
        alphas = _golden_points(n)

        def rows():
            result = gseries._f_points(alphas, m1, prefix)
            return b"".join(row.tobytes() for row in (result if prefix else (result,)))

        out = [_under_cpus(monkeypatch, cpus, rows) for cpus in (1, 2, 3, 7)]
        assert out[1:] == out[:1] * 3

    def test_distribution_and_dense_table_equal_across_cpu_counts(self, monkeypatch):
        # 2000 points at m1 = 10 are four slabs; the table's three grids
        # (2001, 1001 and the m1 - 2 prefix row) take the dense route
        def both():
            cdf = empirical_F(TruncatedGSeries(10), 2000)
            tbl = hk_table(4, TruncatedGSeries(12), 2001)
            fields = [tbl.hk, tbl.d2k, tbl.errors, tbl.odd]
            return cdf.values.tobytes() + np.array([v for d in fields for v in d.values()]).tobytes()

        out = [_under_cpus(monkeypatch, cpus, both) for cpus in (1, 2, 3, 7)]
        assert out[1:] == out[:1] * 3

    def test_threads_start_only_for_several_slabs(self, monkeypatch):
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spy)
        monkeypatch.setattr(gseries, "_cpus", lambda: 7)
        one_slab = gseries._SLAB_TILES * 16  # tiles of 16 rows at m1 = 14
        counts = []
        for call in (
            lambda: f_eval(0.3, TruncatedGSeries(14)),
            lambda: gseries._f_points(_golden_points(one_slab), 14),
            lambda: gseries._f_points(_golden_points(one_slab + 1), 14),
            lambda: gseries._f_points(_golden_points(3 * one_slab), 14),
        ):
            before = len(started)
            call()
            counts.append(len(started) - before)
        # two slabs start one helper, three start two: one thread per slab at most
        assert counts == [0, 0, 1, 2]
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_error_in_a_slab_reaches_the_caller(self, monkeypatch, failing):
        caller, vecdot = threading.current_thread(), np.vecdot

        def flaky(x, y):
            if (threading.current_thread() is caller) == (failing == "caller"):
                raise RuntimeError("slab failed")
            time.sleep(1e-4)  # lets the other threads claim slabs
            return vecdot(x, y)

        monkeypatch.setattr(gseries, "_cpus", lambda: 3)
        monkeypatch.setattr(np, "vecdot", flaky)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="slab failed"):
            gseries._f_points(_golden_points(3000), 12)
        assert threading.active_count() == before

    def test_more_threads_than_cpus_lose_no_slab(self, monkeypatch):
        # seven threads on a short switch interval: a slab swept twice or
        # skipped would change its points' values
        alphas = _golden_points(3000)  # 24 slabs of 128 points at m1 = 12
        serial = _under_cpus(monkeypatch, 1, lambda: gseries._f_points(alphas, 12))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                spread = _under_cpus(monkeypatch, 7, lambda: gseries._f_points(alphas, 12))
                assert spread.tobytes() == serial.tobytes()
        finally:
            sys.setswitchinterval(interval)


_BLAS_PROBE = """
import math, sys
import numpy as np
from cotsums import core, equidist, gseries
alphas = (np.arange(1, 3001, dtype=float) * gseries._GOLDEN) % 1.0
c = 0.5 + math.modf(4001 * gseries._GOLDEN)[0]
values = [
    gseries._f_points(alphas, 14),
    [gseries.g_fourier_eval(x, 1 << 18) for x in (0.1, 0.3, gseries._GOLDEN)],
    gseries._f_offset_grid(4001, c, 18),
    [equidist.q_approx(4123, 10007, 18)],
    [core.fractional_identity_check(3, 7, core.ReducedFraction(4123, 100003))],
]
sys.stdout.write("\\n".join(np.asarray(v, dtype=float).tobytes().hex() for v in values))
"""


def test_values_independent_of_blas_thread_count(child_env):
    # each case runs in a fresh interpreter, which reads OPENBLAS_NUM_THREADS
    # when numpy loads; a BLAS dot longer than OpenBLAS's threading cutoff
    # (10 000 elements) sums in a thread-count-dependent order
    one, two = (
        subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            env={**child_env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, check=True, text=True,
        ).stdout.splitlines()
        for threads in ("1", "2")
    )
    names = [
        "_f_points m1=14", "g_fourier_eval M=2^18", "_f_offset_grid m1=18", "q_approx m1=18",
        "fractional_identity_check b=100003",
    ]
    assert len(one) == len(two) == len(names)
    assert [n for n, a, b in zip(names, one, two) if a != b] == []


class TestDivisorSieve:
    @pytest.mark.parametrize("limit", [1, 2, 3, 48, 49, 50, 1000])
    def test_matches_brute_force(self, limit):
        for cap in (None, 1, 7, math.isqrt(limit), limit):
            top = limit if cap is None else cap
            brute = [sum(k % l == 0 for l in range(1, min(k, top) + 1)) for k in range(1, limit + 1)]
            assert np.array_equal(gseries._tau(limit, cap)[1:], brute)

    def test_peak_count_at_highly_composite_limit(self):
        # tau(720720) = 240 is the largest count up to that limit; counts by
        # divisor pairs at the top of the range and at highly composite k
        limit = 720720
        ks = list(range(limit - 200, limit + 1)) + [5040, 55440, 332640, 498960, 554400, 665280]
        for cap in (None, 1000, math.isqrt(limit), limit):
            top = limit if cap is None else cap
            d = gseries._tau(limit, cap)
            for k in ks:
                pairs = [(l, k // l) for l in range(1, math.isqrt(k) + 1) if k % l == 0]
                divisors = {x for pair in pairs for x in pair}
                assert d[k] == sum(x <= top for x in divisors)
            if cap is None:
                assert d[limit] == d.max() == 240


class TestFourierEvaluator:
    @given(st.integers(min_value=1, max_value=(1 << 53) - 1))
    def test_antisymmetry_is_exact(self, j):
        # uniform-RNG granularity: x and 1-x are then exact mirror floats
        x = j / float(1 << 53)
        assert g_fourier_eval(x, 4096) + g_fourier_eval(1.0 - x, 4096) == 0.0

    def test_integer_argument(self):
        assert g_fourier_eval(0.0, 1 << 20) == 0.0
        assert g_fourier_eval(3.0, 128) == 0.0

    def test_bad_truncation(self):
        with pytest.raises(ValueError):
            g_fourier_eval(0.3, 0)

    def test_rotated_grid_agreement(self, l2_pair):
        fs, gs = l2_pair
        l2 = math.sqrt(float(np.mean((fs - gs) ** 2)))
        assert l2 < 0.01

    def test_iid_random_grid_agreement(self):
        # iid points estimate the full difference norm (heavy-tailed near the
        # jump), so the gate is looser than on the rotated grid; a wrong
        # Fourier constant would read ~1.7 here
        rng = np.random.default_rng(61803)
        alphas = rng.random(800)
        fs = gseries._f_points(alphas, 18)
        gs = np.array([g_fourier_eval(float(a), 1 << 18) for a in alphas])
        assert math.sqrt(float(np.mean((fs - gs) ** 2))) < 0.04

    def test_weights_cached_read_only(self):
        weights = gseries._fourier_weights(96)
        assert gseries._fourier_weights(96) is weights
        assert not weights.flags.writeable
        assert np.array_equal(weights, FOURIER_CONSTANT * gseries._tau(96)[1:] / np.arange(1, 97))

    @pytest.mark.parametrize("M,digest", _fourier_golden("eval"))
    def test_point_bytes_match_golden(self, M, digest):
        values = np.array([g_fourier_eval(float(a), M) for a in _fourier_points()])
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n,M,digest", _fourier_golden("grid"))
    def test_grid_bytes_match_golden(self, n, M, digest):
        c = 0.5 + math.modf(n * gseries._GOLDEN)[0]
        assert hashlib.sha256(gseries._fourier_offset_grid(n, c, M).tobytes()).hexdigest() == digest

    def test_grid_memory(self, fresh_child):
        # the gmachinery grid in a fresh interpreter: the cached weights and the
        # (M // n + 1) x n fold with one real product at a time, 8 MB each at
        # M = 2^20; caching l and forming the complex product grew ru_maxrss
        # (KiB on Linux) by 41 MB
        script = (
            "import resource\n"
            "from cotsums import gseries\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "gseries._fourier_offset_grid(2000, 0.3, 2**20)\n"
            "print(peak() - before)\n"
        )
        assert int(fresh_child(script)) * 1024 < 33 * 2**20

    def test_grid_memory_is_weights_plus_a_block(self, fresh_child):
        # the gmachinery grid in a fresh interpreter: the cached weights (8 MB at
        # M = 2^20) and their 2-byte divisor counts, then blocks of about 2^16
        # cells; a padded copy of the weights and the (M // n + 1) x n products
        # grew ru_maxrss (KiB on Linux) by 25-34 MB
        script = (
            "import math, resource\n"
            "from cotsums import gseries\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "gseries._fourier_offset_grid(2000, 0.5 + math.modf(2000 * gseries._GOLDEN)[0], 2**20)\n"
            "print(peak() - before)\n"
        )
        assert int(fresh_child(script)) * 1024 < 16 * 2**20

    @pytest.mark.parametrize("n,M", [(2000, 1 << 20), (997, 100_000)])
    def test_folded_twist_matches_per_k_twist(self, n, M):
        # reference: the twist e(k c / n) evaluated at every k, then binned
        c = 0.5 + math.modf(n * gseries._GOLDEN)[0]
        k = np.arange(1, M + 1)
        coeff = gseries._fourier_weights(M) * np.exp(2j * np.pi * (k * (c / n) % 1.0))
        bins = k % n
        folded = np.bincount(bins, coeff.real, n) + 1j * np.bincount(bins, coeff.imag, n)
        want = np.fft.ifft(folded).imag * n
        assert np.max(np.abs(gseries._fourier_offset_grid(n, c, M) - want)) <= 1e-13

    def test_grid_helper_matches_scalar(self):
        n, c = 997, 0.371
        grid = gseries._fourier_offset_grid(n, c, 1 << 14)
        for j in (0, 101, 500, 996):
            want = g_fourier_eval(((j + c) / n) % 1.0, 1 << 14)
            assert grid[j] == pytest.approx(want, abs=1e-12)


class TestFourierCoeffs:
    @pytest.mark.parametrize("m1,M", [(6, 64), (7, 100), (12, 4096)])
    def test_g_weights_are_uncapped_f_coefficients(self, m1, M):
        # 2^m1 >= M: no divisor of k <= M exceeds the cap
        assert np.array_equal(gseries._fourier_weights(M), fourier_coeffs_f(TruncatedGSeries(m1), M))

    @pytest.mark.parametrize("m1", [10, None])
    def test_coefficients_equal_one_piece_formula(self, m1):
        # K = 200003 spans four 2^16 slices; cap 2^10 < K for f, cap = K for g
        K = 200_003
        cap = K if m1 is None else 1 << m1
        got = gseries._fourier_weights(K) if m1 is None else fourier_coeffs_f(TruncatedGSeries(m1), K)
        want = FOURIER_CONSTANT * gseries._tau(K, cap)[1:] / np.arange(1, K + 1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_leading_coefficient(self):
        s = fourier_coeffs_f(TruncatedGSeries(6), 10)
        assert s[0] == 2.0 / math.pi
        assert s[5] == pytest.approx((2.0 / math.pi) * 4.0 / 6.0, abs=1e-15)

    def test_stable_in_truncation(self):
        a = fourier_coeffs_f(TruncatedGSeries(6), 64)
        b = fourier_coeffs_f(TruncatedGSeries(12), 64)
        assert np.array_equal(a, b)

    def test_parseval_against_grid_integral(self):
        s = fourier_coeffs_f(TruncatedGSeries(6), 1 << 18)
        mass = 0.5 * float(s @ s)
        grid = gseries._f_offset_grid(100_000, 0.5 + (100_000 * 0.6180339887498949) % 1.0, 6)
        grid_mass = float(np.mean(grid**2))
        assert abs(mass - grid_mass) / grid_mass < 1e-3


class TestContinuedFraction:
    def test_one_third_terminates(self):
        cf = cf_expand(1.0 / 3.0, 10)
        assert cf.partial_quotients == [3]
        assert cf.convergents == [(1, 3)]
        assert cf.terminated

    def test_three_eighths(self):
        assert cf_expand(0.375, 10).partial_quotients == [2, 1, 2]

    def test_huge_quotient_run_snaps(self):
        # the float of [0; 2, 1, 10^10]: the run 2, 1, 10^10 folds into 3
        x = float(1 / (2 + 1 / (1 + Fraction(1, 10**10))))
        cf = cf_expand(x, 10)
        assert cf.partial_quotients == [3]
        assert cf.terminated
        assert cf_from_quotients([2, 1, 10**10]).convergents[-1] == (10**10 + 1, 3 * 10**10 + 2)

    def test_golden_quotients(self):
        cf = cf_expand((math.sqrt(5.0) - 1.0) / 2.0, 20)
        assert cf.partial_quotients == [1] * 20
        assert not cf.terminated

    @given(st.floats(min_value=1e-4, max_value=1.0 - 1e-4))
    def test_determinant_alternates(self, alpha):
        cf = cf_expand(alpha, 12)
        dets = [
            p1 * q0 - p0 * q1
            for (p0, q0), (p1, q1) in zip(cf.convergents, cf.convergents[1:])
        ]
        assert all(abs(d) == 1 for d in dets)
        assert all(x == -y for x, y in zip(dets, dets[1:]))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            cf_expand(1.5, 5)
        with pytest.raises(ValueError):
            cf_expand(0.5, 0)

    def test_invariant_enforced_on_construction(self):
        with pytest.raises(ValueError):
            ContinuedFraction(0.4, [2, 2], [(1, 2), (2, 2)])

    def test_from_quotients_exact_big_integers(self):
        cf = cf_from_quotients([2, 4, 512, 1 << 4610])
        assert [q for _, q in cf.convergents][:3] == [2, 9, 4610]
        assert not cf.terminated
        with pytest.raises(ValueError):
            cf_from_quotients([])
        with pytest.raises(ValueError):
            cf_from_quotients([1, 0, 2])


class TestClassifier:
    def test_golden_converges(self):
        cf = cf_expand((math.sqrt(5.0) - 1.0) / 2.0, 20)
        assert convergence_classifier(cf).verdict == "converges"

    def test_sqrt2_converges(self):
        cf = cf_expand(math.sqrt(2.0) - 1.0, 14)
        assert convergence_classifier(cf).verdict == "converges"

    def test_rational_converges(self):
        assert convergence_classifier(cf_expand(0.375, 10)).verdict == "converges"

    def test_liouville_prefix_diverges(self):
        res = convergence_classifier(cf_from_quotients([2, 4, 512, 1 << 4610]))
        assert res.verdict == "diverges"
        assert res.alternating_sum == pytest.approx(-0.856257940939475, abs=1e-9)
        assert res.brjuno_sum == pytest.approx(2.730920860048518, abs=1e-9)

    def test_shallow_prefix_undecided(self):
        assert convergence_classifier(cf_from_quotients([2, 30])).verdict == "undecided"

    def test_needs_two_convergents(self):
        with pytest.raises(ValueError):
            convergence_classifier(cf_expand(1.0 / 3.0, 10))


class TestMomentTable:
    def test_trivial_row(self, hk14):
        assert hk14.hk[0] == 1.0
        assert hk14.d2k[0] == 1.0
        assert hk14.errors[0] == 0.0

    def test_h1(self, hk14):
        assert hk14.hk[1] == pytest.approx(0.1389, abs=2e-3)

    def test_h1_stable_in_truncation(self):
        vals = [
            hk_table(1, TruncatedGSeries(m1), 4001).hk[1] for m1 in (12, 14, 16)
        ]
        assert all(v == pytest.approx(0.1389, abs=2e-3) for v in vals)

    def test_pi_scaling_identity(self, hk14):
        for k in range(1, 7):
            rel = abs(hk14.hk[k] * math.pi ** (2 * k) - hk14.d2k[k]) / hk14.d2k[k]
            assert rel < 1e-12

    def test_even_moments_positive(self, hk14):
        assert all(hk14.d2k[k] > 0.0 for k in range(1, 7))

    def test_odd_moments_within_quadrature_error(self, hk14):
        for k in range(1, 7):
            assert abs(hk14.odd[k]) <= hk14.errors[k]

    def test_growth_sequence(self, hk14):
        roots = hk_growth_check(hk14)
        want = [0.1387, 0.3805, 0.7436, 1.1948, 1.6929, 2.2011]
        assert roots == pytest.approx(want, abs=2e-3)
        assert all(b > a for a, b in zip(roots, roots[1:]))
        ratios = [hk14.hk[k + 1] / hk14.hk[k] for k in range(1, 6)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            hk_table(0, TruncatedGSeries(10), 2000)
        with pytest.raises(ValueError):
            hk_table(2, TruncatedGSeries(10), 999)
        with pytest.raises(ValueError):
            hk_growth_check(hk_table(1, TruncatedGSeries(10), 1001))


class TestEmpiricalF:
    def test_symmetry_and_median(self, emp_f14):
        n = emp_f14.count
        assert n == 100_000
        assert abs(emp_f14.median()) < 1e-3
        z = np.linspace(-1.5, 1.5, 61)
        sym = np.max(np.abs((1.0 - emp_f14.cdf(-z + 1e-12)) - emp_f14.cdf(z)))
        assert sym < 2.0 / math.sqrt(n)

    def test_max_jump_vanishes(self, emp_f14):
        assert emp_f14.max_jump() <= 4.0 / math.sqrt(emp_f14.count)
        small = empirical_F(TruncatedGSeries(10), 2000)
        assert small.max_jump() >= emp_f14.max_jump()

    def test_cdf_monotone(self, emp_f14):
        z = np.linspace(emp_f14.lo - 0.1, emp_f14.hi + 0.1, 500)
        vals = emp_f14.cdf(z)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0 and vals[-1] == 1.0

    def test_deterministic(self):
        a = empirical_F(TruncatedGSeries(10), 2000)
        b = empirical_F(TruncatedGSeries(10), 2000)
        assert np.array_equal(a.values, b.values)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            empirical_F(TruncatedGSeries(10), 999)
