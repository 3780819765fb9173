import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cotsums import core
from cotsums.core import ReducedFraction, c0, q_sum, vasyunin
from conftest import exact_sums, mp_cot

SQRT3 = math.sqrt(3.0)


def coprime_pairs(max_b):
    return (
        st.integers(min_value=2, max_value=max_b)
        .flatmap(lambda b: st.tuples(st.integers(1, b - 1), st.just(b)))
        .filter(lambda rb: math.gcd(rb[0], rb[1]) == 1)
    )


def _exact_sums(r, b):
    # c0, Q and V at r/b from 30-digit cotangents, rounded once to float
    with mpmath.workdps(30):
        cot = mp_cot(b)
        c = -mpmath.fdot((m, cot[m * r % b]) for m in range(1, b)) / b
        q = mpmath.fdot((m * r // b, cot[m * r % b]) for m in range(1, b))
        v = mpmath.fdot((mpmath.mpf(m * r % b) / b, cot[m]) for m in range(1, b))
    return {c0: float(c), q_sum: float(q), vasyunin: float(v)}


class TestErrBound:
    @settings(max_examples=30)
    @example((1, 2))  # c0(1/2) = 0 with err_bound 0
    @example((1, 2999))  # Q(1/b) = 0 with err_bound 0: every floor(m/b) is 0
    @given(coprime_pairs(3000))
    def test_within_err_bound_of_30_digit_value(self, rb):
        # a bound of 0 demands the exact value
        r, b = rb
        f = ReducedFraction(r, b)
        for fn, exact in _exact_sums(r, b).items():
            for oracle in (False, True):
                got = fn(f, oracle=oracle)
                assert abs(got.value - exact) <= got.err_bound, (fn.__name__, oracle)


def test_fixed_point_reference_matches_mpmath():
    # the 200-bit sums of conftest against the defining sums in 300-bit mpmath
    b = 101
    with mpmath.workprec(300):
        cot = [0] + [mpmath.cot(mpmath.pi * k / b) for k in range(1, b)]
        for r in (1, 2, 37, 100):
            c = -mpmath.fsum(mpmath.mpf(m) / b * cot[m * r % b] for m in range(1, b))
            q = mpmath.fsum((m * r // b) * cot[m * r % b] for m in range(1, b))
            v = mpmath.fsum(mpmath.mpf(m * r % b) / b * cot[m] for m in range(1, b))
            for want, got in zip((c, q, v), exact_sums(r, b)):
                assert abs(want - mpmath.mpf(got.numerator) / got.denominator) < mpmath.mpf(2) ** -170


def _indexed_cot_table(b):
    # reference: the fancy-indexed construction on a fresh array
    t = np.zeros(b)
    j = np.arange(1, (b + 1) // 2)
    t[j] = 1.0 / np.tan(np.pi * j / b)
    if b % 2 == 0:
        t[b // 2] = 0.0
    t[b - j] = -t[j]
    return t


class TestCotTable:
    def test_bit_identical_to_indexed_construction(self):
        for b in [*range(2, 301), 1_000_003, 1_000_004]:
            got, want = core.cot_table(b), _indexed_cot_table(b)
            assert np.array_equal(got, want), b
            assert np.array_equal(np.signbit(got), np.signbit(want)), b


class TestDirectSums:
    @pytest.mark.parametrize("r,b", [(2, 4), (0, 7), (21, 105), (3003, 3003)])
    def test_rejects_non_units(self, r, b):
        with pytest.raises(ValueError, match=f"r={r} is not a unit mod b={b}"):
            core.direct_sums([1, r], b, ("c0",))

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("b", [2, 3, 4, 7, 105, 3003, 524309])
    def test_pairing_identities_hold_exactly(self, b, oracle):
        # c0(r/b) = -V(rbar/b) and c0((b-r)/b) = -c0(r/b), bit for bit: both
        # sides sum the same products of exactly negated weights in one order
        if b == 524309:  # two chunks of k
            rs = np.array([1, 2, 3, 131077, 262154, 400000])
        else:
            rs = np.array([r for r in range(1, b) if math.gcd(r, b) == 1])
        rbar = np.array([pow(int(r), -1, b) for r in rs])
        [c0v], _ = core.direct_sums(rs, b, ("c0",), oracle=oracle)
        [v], _ = core.direct_sums(rbar, b, ("v",), oracle=oracle)
        [mirror], _ = core.direct_sums(b - rs, b, ("c0",), oracle=oracle)
        assert np.array_equal(c0v, -v)
        assert np.array_equal(c0v, -mirror)


    def test_rejects_r_whose_products_overflow_int64(self):
        b = 1_000_003
        r_max = (2**63 - 1) // b
        for r in (r_max + 1, -(r_max + 1), 10**13 + 7):
            with pytest.raises(ValueError, match=f"r| <= {r_max} required"):
                core.direct_sums([1, r], b, ("q",))

    def test_r_near_the_int64_bound_keeps_the_decomposition(self):
        # Q(r/b) = c0(1/b) - r c0(r/b) at the largest unit r that passes the bound
        b = 1_000_003
        r = (2**63 - 1) // b
        while math.gcd(r, b) != 1:
            r -= 1
        [[q, _], [c_r, c_1]], [[q_big, _], [c_r_big, c_1_big]] = core.direct_sums([r, 1], b, ("q", "c0"))
        scale = (b - 1) * core._EPS
        tol = scale * (q_big + r * c_r_big + c_1_big) + 2 * core._EPS * abs(q)
        assert abs(q - (c_1 - r * c_r)) <= tol

    @pytest.mark.parametrize("rows", [("c0", "c0"), ("q", "x"), ("w",)])
    def test_rejects_bad_rows(self, rows):
        with pytest.raises(ValueError, match="distinct names"):
            core.direct_sums([1], 7, rows)


class TestFusedSweep:
    """One sweep of `direct_sums` serves every row, from cotangents it computes per tile."""

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize(
        "b,rs",
        [
            (3001, list(range(1, 3001))),  # 3000 residues in groups of 174
            (30030, [1, 17, 4097, 15013, 30029]),  # composite
            (524309, [1, 2, 131077, 400000]),  # two chunks
            (1500007, [3, 750004]),  # three
            (2097143, [987654]),  # four
        ],
    )
    def test_rows_equal_one_row_calls_bit_for_bit(self, b, rs, oracle):
        fused, fused_big = core.direct_sums(rs, b, ("c0", "q", "v"), oracle=oracle)
        for i, row in enumerate(("c0", "q", "v")):
            [one], [one_big] = core.direct_sums(rs, b, (row,), oracle=oracle)
            assert np.array_equal(fused[i], one), row
            assert np.array_equal(np.signbit(fused[i]), np.signbit(one)), row
            assert np.array_equal(fused_big[i], one_big), row
        pair, _ = core.direct_sums(rs, b, ("v", "c0"), oracle=oracle)
        assert np.array_equal(pair, fused[[2, 0]])

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("b", [46337, 46349])  # int32 up to b = 46340, int64 above
    def test_every_row_subset_and_order_equals_one_row_calls(self, b, oracle):
        rs = [1, 2, 28640, b - 1]
        one = {row: core.direct_sums(rs, b, (row,), oracle=oracle) for row in core._ROWS}
        for size in (1, 2, 3):
            for rows in itertools.permutations(core._ROWS, size):
                values, biggest = core.direct_sums(rs, b, rows, oracle=oracle)
                for i, row in enumerate(rows):
                    assert np.array_equal(values[i], one[row][0][0]), rows
                    assert np.array_equal(np.signbit(values[i]), np.signbit(one[row][0][0])), rows
                    assert np.array_equal(biggest[i], one[row][1][0]), rows

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize(
        "b,n",
        [
            # half = (b-1)//2 = _TILE_K: one tile at one residue, one group of
            # _CELLS // half residues, and a lone residue in a second group
            *((2 * core._TILE_K + 1, n) for n in (1, core._CELLS // core._TILE_K, core._CELLS // core._TILE_K + 1)),
            # half = _TILE_K + 1: two tiles of one chunk, for groups of 1, 2 and
            # 15 + 2 residues (the oracle extracts non-contiguous blocks)
            *((2 * core._TILE_K + 3, n) for n in (1, 2, 17)),
            # half = 1024: one group of len(rs) * half = _CELLS, and a second group
            (2049, core._CELLS // 1024),
            (2049, core._CELLS // 1024 + 1),
        ],
    )
    def test_one_tile_edges_equal_scalar_sums(self, b, n, oracle):
        # r = 1 makes Q(1/b) = +0.0, whose sign must survive in a group
        rs = [r for r in range(1, b) if math.gcd(r, b) == 1][:n]
        values, biggest = core.direct_sums(rs, b, core._ROWS, oracle=oracle)
        for i in sorted({0, 1, n // 2, n - 1} & set(range(n))):
            f = ReducedFraction(rs[i], b)
            for row, fn in enumerate((c0, q_sum, vasyunin)):
                got = fn(f, oracle=oracle)
                assert np.float64(got.value).tobytes() == values[row, i].tobytes(), (rs[i], row)
                assert got.err_bound == (b - 1) * core._EPS * biggest[row, i], (rs[i], row)
        assert np.float64(q_sum(ReducedFraction(1, b), oracle=oracle).value).tobytes() == bytes(8)

    @pytest.mark.parametrize("oracle", [False, True])
    def test_cotangents_once_per_tile_per_group(self, monkeypatch, oracle):
        # every unit of 3001 is one tile of half = 1500; a group of
        # _CELLS // half = 174 residues shares that tile's k and cotangents
        b, calls = 3001, []
        cot = core._cot
        monkeypatch.setattr(core, "_cot", lambda *args: calls.append(args[0][0]) or cot(*args))
        core.direct_sums(range(1, b), b, core._ROWS, oracle=oracle)
        assert 0 < len(calls) <= math.ceil((b - 1) / (core._CELLS // ((b - 1) // 2))) == 18

    @pytest.mark.parametrize("oracle", [False, True])
    def test_int64_batch_equals_int32_batch(self, oracle):
        # one residue with b * r >= 2^31 puts the whole batch in int64
        b, rs = 46337, [2, 28640, 46336]
        narrow = core.direct_sums(rs, b, core._ROWS, oracle=oracle)
        wide = core.direct_sums([*rs, 50_000 * b + 3], b, core._ROWS, oracle=oracle)
        for x, y in zip(narrow, wide):
            assert np.array_equal(x, y[:, :3])
            assert np.array_equal(np.signbit(x), np.signbit(y[:, :3]))

    @pytest.mark.parametrize("oracle", [False, True])
    def test_c0_q_v_equals_the_one_row_entries(self, oracle):
        for r, b in ((1, 2), (2, 3), (1, 105), (26, 105), (412650, 1000003)):
            f = ReducedFraction(r, b)
            want = tuple(fn(f, oracle=oracle) for fn in (c0, q_sum, vasyunin))
            assert core.c0_q_v(f, oracle=oracle) == want

    def test_tile_cotangents_equal_the_table(self):
        # the kernel's tiles start at 1 + 2^14 j within chunks of 2^18 k
        b = 1_000_003
        table = core.cot_table(b)
        for a, w in ((1, 1 << 14), (1 + (1 << 14), 1 << 14), (1 + (1 << 18), 1 << 14),
                     (491521, 8481), (1, 7), (12345, 3)):
            got = core._cot(np.arange(a, a + w), b, np.empty(w))
            assert np.array_equal(got, table[a : a + w]), a

    def test_builds_and_reads_no_cot_table(self):
        before = core.cot_table.cache_info()
        f = ReducedFraction(5, 1009)
        for fn in (c0, q_sum, vasyunin):
            fn(f)
        core.direct_sums([1, 5, 7], 1009, ("c0", "q", "v"), oracle=True)
        assert core.cot_table.cache_info() == before
        core.c0_q_v(f)
        assert core.cot_table.cache_info() == before

    def test_memory_of_a_point_value_is_bounded_by_a_chunk(self):
        # a cot table at this b alone would take 16 MB; a chunk of terms is 2 MB.
        # The oracle extracts a tile of each row at a time; extraction over the
        # whole (rows, k) block would add a block-sized copy per pass.
        calls = (lambda: c0(ReducedFraction(1, 2_000_003)),
                 lambda: core.c0_q_v(ReducedFraction(412345, 1_000_003), oracle=True))
        tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                call()
                _, peak = tracemalloc.get_traced_memory()
                assert peak < 12 << 20, call
        finally:
            tracemalloc.stop()


def _paired_terms(r, b):
    # the kernel's c0, Q and V terms at r/b, k = 1..(b-1)//2, rebuilt from the
    # tile cotangents and the integer weights
    k = np.arange(1, (b - 1) // 2 + 1, dtype=np.int64)
    cot, m = core._cot(k, b, np.empty(len(k))), k * pow(r, -1, b) % b
    return {"c0": (b - 2 * m) / b * cot, "q": (2 * (m * r // b) - r + 1) * cot,
            "v": (2 * (k * r % b) - b) / b * cot}


class TestFsumOfPieces:
    """Each direct sum is math.fsum of its pieces: of its float terms with
    `oracle`, else of its chunks' pairwise sums."""

    @pytest.mark.parametrize(
        "r,b",
        # one chunk of k up to b = 524289, then 2 and 4 chunks
        [(4, 11), (3001, 10007), (15013, 30030), (41234, 100003), (123457, 524309), (987654, 2097143)],
    )
    def test_oracle_is_fsum_of_terms_default_of_chunk_sums(self, r, b):
        oracle, _ = core.direct_sums([r], b, core._ROWS, oracle=True)
        default, _ = core.direct_sums([r], b, core._ROWS)
        for i, (row, t) in enumerate(_paired_terms(r, b).items()):
            assert float(oracle[i, 0]).hex() == math.fsum(t.tolist()).hex(), row
            chunks = [np.add.reduce(t[j : j + core._CELLS]) for j in range(0, len(t), core._CELLS)]
            assert float(default[i, 0]).hex() == math.fsum(chunks).hex(), row


def _fsum_of_product_powers(x, k_max):
    # math.fsum of each running-product power row p_k = p_(k-1) x; inf where
    # a power is not finite or fsum overflows
    p, sums = np.asarray(x, dtype=float), []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_max):
            row = p if k == 0 else row * p
            try:
                sums.append(math.fsum(row.tolist()) if np.all(np.isfinite(row)) else math.inf)
            except OverflowError:
                sums.append(math.inf)
    return sums


_RNG = np.random.default_rng(26)
_POWER_ROWS = {
    "cancellation": [1e16, 1.0, -1e16],
    "zeros": [0.0, 3.5, 0.0, -0.0, -2.25, 0.0],
    "all_zero": [0.0, -0.0, 0.0],
    "subnormals": [5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -3e-320],
    "n1": [-7.123456789],
    "near_2^1023": [2.0**1020, -0.75 * 2.0**1020, 3.0, 1e-300],
    "sum_overflows": [1.5e308, 1.25e308],
    "power_overflows": [2.0**600, -1.0, 0.5],
    # several blocks of columns, across 120 binades and both signs
    "blocks": (_RNG.standard_normal(40_000) * 2.0 ** _RNG.integers(-60, 60, 40_000)).tolist(),
    "blocks_near_2^1023": (_RNG.uniform(-1.0, 1.0, 40_000) * 2.0**1010).tolist(),
}


class TestPowerSums:
    """`core._power_sums` carries the bits of math.fsum of its running products."""

    @pytest.mark.parametrize("k_max", [1, 2, 6, 13])
    @pytest.mark.parametrize("name", _POWER_ROWS)
    def test_bits_equal_fsum(self, name, k_max):
        x = np.array(_POWER_ROWS[name])
        got = core._power_sums(x, k_max)
        assert [v.hex() for v in got] == [v.hex() for v in _fsum_of_product_powers(x, k_max)]

    def test_adversarial_rows_take_their_routes(self):
        # the rows near 2^1023 are past sigma's range, max |x| >= 2^(1022 -
        # bitlen n), and go to math.fsum; the overflowing rows give inf
        for name in ("near_2^1023", "blocks_near_2^1023", "sum_overflows"):
            x = np.array(_POWER_ROWS[name])
            n = min(len(x), core._POWER_BLOCK)
            assert np.abs(x).max() >= 2.0 ** (1022 - n.bit_length()), name
        assert core._power_sums(np.array(_POWER_ROWS["sum_overflows"]), 1) == [math.inf]
        assert core._power_sums(np.array(_POWER_ROWS["power_overflows"]), 2) == [2.0**600, math.inf]
        assert core._power_sums(np.array([math.nan, 1.0]), 1) == [math.inf]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           st.integers(1, 8))
    def test_bits_equal_fsum_on_any_row(self, xs, k_max):
        got = core._power_sums(np.array(xs), k_max)
        assert [v.hex() for v in got] == [v.hex() for v in _fsum_of_product_powers(xs, k_max)]


class TestReducedFraction:
    def test_inverse(self):
        assert ReducedFraction(3, 7).inverse == 5
        assert ReducedFraction(1, 2).inverse == 1

    @pytest.mark.parametrize("r,b", [(2, 4), (0, 3), (3, 3), (5, 3), (1, 1)])
    def test_rejects_bad_input(self, r, b):
        with pytest.raises(ValueError):
            ReducedFraction(r, b)


class TestModInverse:
    def test_values(self):
        assert core.mod_inverse(3, 7) == 5
        assert core.mod_inverse(1, 2) == 1

    def test_not_invertible(self):
        with pytest.raises(ValueError):
            core.mod_inverse(2, 4)
        with pytest.raises(ValueError):
            core.mod_inverse(3, 1)


class TestC0:
    def test_half_is_exactly_zero(self):
        for oracle in (False, True):
            v = c0(ReducedFraction(1, 2), oracle=oracle).value
            assert v == 0.0 and math.copysign(1.0, v) == 1.0

    def test_third(self):
        assert abs(c0(ReducedFraction(1, 3)).value - SQRT3 / 9) < 1e-15

    def test_b_100(self):
        assert c0(ReducedFraction(1, 100)).value == pytest.approx(
            106.77820359792869, abs=1e-10
        )

    def test_rejects_modulus_past_int64_products(self):
        # checked before the cot table (8 bytes per residue) is built
        misses = core.cot_table.cache_info().misses
        with pytest.raises(ValueError, match="int64"):
            c0(ReducedFraction(1, core._B_MAX + 1))
        assert core.cot_table.cache_info().misses == misses

    def test_err_bound_fields(self):
        v = c0(ReducedFraction(3, 101))
        assert v.terms == 100
        assert v.err_bound >= 0.0
        assert math.isfinite(v.value)

    @given(coprime_pairs(2000))
    def test_oddness(self, rb):
        r, b = rb
        a = c0(ReducedFraction(r, b)).value
        o = c0(ReducedFraction(b - r, b)).value
        assert abs(a + o) < 1e-9 * b

    def test_oracle_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            b = int(rng.integers(10, 10_000))
            r = int(rng.integers(1, b))
            if math.gcd(r, b) != 1:
                continue
            frac = ReducedFraction(r, b)
            assert abs(c0(frac).value - c0(frac, oracle=True).value) < 1e-9

    def test_window_sum_vanishes(self):
        # oddness pairs r with b-r, so the full coprime sum cancels
        for b in (7, 12, 100):
            total = math.fsum(
                c0(ReducedFraction(r, b)).value
                for r in range(1, b)
                if math.gcd(r, b) == 1
            )
            assert abs(total) < 1e-8


class TestVasyunin:
    def test_relates_to_inverse_argument(self):
        f = ReducedFraction(3, 7)
        lhs = vasyunin(f).value
        rhs = -c0(ReducedFraction(f.inverse, 7)).value
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(coprime_pairs(500))
    def test_inverse_relation(self, rb):
        r, b = rb
        lhs = vasyunin(ReducedFraction(r, b)).value
        rhs = -c0(ReducedFraction(pow(r, -1, b), b)).value
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


class TestQSum:
    def test_unit_numerator_is_exactly_zero(self):
        # b = 2 _TILE_K + 3 sums two tiles and 524309 two chunks of k
        for b, oracle in itertools.product([*range(2, 1001), 2 * core._TILE_K + 3, 524309], (False, True)):
            v = q_sum(ReducedFraction(1, b), oracle=oracle)
            assert v.value == 0.0 and math.copysign(1.0, v.value) == 1.0, (b, oracle)
            assert math.copysign(1.0, v.err_bound) == 1.0, (b, oracle)

    def test_two_thirds(self):
        assert abs(q_sum(ReducedFraction(2, 3)).value - 1.0 / SQRT3) < 1e-14

    @given(coprime_pairs(800))
    def test_decomposition(self, rb):
        r, b = rb
        lhs = c0(ReducedFraction(r, b)).value
        rhs = (
            c0(ReducedFraction(1, b)).value - q_sum(ReducedFraction(r, b)).value
        ) / r
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


class TestEstermann:
    def test_pair(self):
        f = ReducedFraction(2, 3)
        re, im = core.estermann_at_zero(f)
        assert re == 0.25
        assert im == 0.5 * c0(f).value
        assert im == pytest.approx(-SQRT3 / 18, abs=1e-15)


class TestFractionalIdentity:
    def test_thousand_random_moduli(self):
        rng = np.random.default_rng(20260819)
        checked = 0
        while checked < 1000:
            b = int(rng.integers(2, 201))
            a = int(rng.integers(1, 1000))
            n = int(rng.integers(1, 50))
            if (n * a) % b == 0:
                continue
            r = int(rng.integers(1, b))
            if math.gcd(r, b) != 1:
                continue
            residual = core.fractional_identity_check(a, n, ReducedFraction(r, b))
            assert residual < 1e-10
            checked += 1

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            core.fractional_identity_check(2, 2, ReducedFraction(1, 4))

    def test_rejects_modulus_past_int64_products(self, monkeypatch):
        # checked before a cot table of 8 * b bytes is asked for
        def no_table(b):
            raise AssertionError(f"cot table of {b} entries requested")

        monkeypatch.setattr(core, "cot_table", no_table)
        with pytest.raises(ValueError, match="int64"):
            core.fractional_identity_check(1, 1, ReducedFraction(1, core._B_MAX + 1))


class TestReciprocityDefect:
    def test_two_thirds(self):
        want = -SQRT3 / 9 - 1.0 / (2.0 * math.pi)
        assert core.reciprocity_defect(ReducedFraction(2, 3)) == pytest.approx(
            want, abs=1e-12
        )

    def test_two_fifths(self):
        assert core.reciprocity_defect(ReducedFraction(2, 5)) == pytest.approx(
            -0.23947950944638613, abs=1e-12
        )

    def test_unit_numerator_rejected(self):
        with pytest.raises(ValueError):
            core.reciprocity_defect(ReducedFraction(1, 5))

    def test_cauchy_along_sqrt2_convergents(self):
        # convergents of sqrt(2) - 1 = [2, 2, 2, ...]
        p0, q0, p1, q1 = 1, 0, 0, 1
        pairs = []
        for _ in range(10):
            p0, p1 = p1, 2 * p1 + p0
            q0, q1 = q1, 2 * q1 + q0
            pairs.append((p1, q1))
        defects = [
            core.reciprocity_defect(ReducedFraction(p, q))
            for p, q in pairs
            if p >= 2
        ]
        steps = [abs(y - x) for x, y in zip(defects, defects[1:])]
        assert all(b < a for a, b in zip(steps, steps[1:]))
        assert steps[-1] < 1e-6
        assert defects[-1] == pytest.approx(-0.2557047, abs=1e-5)


def test_package_exports_each_imported_name_once():
    # `__all__` is derived from the package's imports: 46 public names, then the version
    import cotsums

    assert len(cotsums.__all__) == len(set(cotsums.__all__)) == 47
    assert cotsums.__all__[-1] == "__version__"
    assert all(hasattr(cotsums, name) for name in cotsums.__all__)
    assert not {"asymptotics", "core", "equidist", "gseries"} & set(cotsums.__all__)
