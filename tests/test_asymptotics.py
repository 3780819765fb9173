import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cotsums import asymptotics as asy, core
from cotsums.core import ReducedFraction, c0
from conftest import exact_sums

GAMMA = 0.5772156649015328606


class TestBernoulli:
    def test_signed_values(self):
        assert asy.bernoulli(1) == -0.5
        assert asy.bernoulli(2) == float(Fraction(1, 6))
        assert asy.bernoulli(3) == 0.0
        assert asy.bernoulli(4) == float(Fraction(-1, 30))
        assert asy.bernoulli(12) == float(Fraction(-691, 2730))

    @pytest.mark.parametrize("n", [0, -1, 61])
    def test_range(self, n):
        with pytest.raises(ValueError):
            asy.bernoulli(n)


class TestZetaReal:
    @pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 7.0, 13.7, 31.0, 40.0])
    def test_against_mpmath(self, s):
        want = float(mpmath.zeta(s))
        assert abs(asy.zeta_real(s) - want) <= 1e-13 * abs(want)

    def test_pole_side_rejected(self):
        with pytest.raises(ValueError):
            asy.zeta_real(1.0)
        with pytest.raises(ValueError):
            asy.zeta_real(0.5)


class TestPartialSums:
    def test_s_sum_values(self):
        assert asy.s_sum(10, 3) == pytest.approx(96.0 / 7.0, abs=1e-12)
        assert asy.s_sum(2, 3) == 0.0

    def test_g_partial_approaches_pi_c0(self):
        diff = asy.g_partial(1_000_000, 5) - math.pi * c0(ReducedFraction(1, 5)).value
        assert abs(diff) <= 1e-4

    def test_term_at_multiple_of_b_vanishes(self):
        assert asy.g_partial(100, 5) == asy.g_partial(99, 5)

    def test_fitted_constant_tracks_gamma(self):
        # residual of G_L(b) against -log(L/b) + b(log L + gamma) - 2L + S(L;b)
        # is the constant -gamma up to O(b/L); fitting at L = 100 b recovers it
        cs = []
        for b in (10, 50, 100):
            big_l = 100 * b
            law = (
                -math.log(big_l / b)
                + b * (math.log(big_l) + GAMMA)
                - 2.0 * big_l
                + asy.s_sum(big_l, b)
            )
            resid = asy.g_partial(big_l, b) - law
            cs.append(abs(resid) * big_l / b)
        assert max(cs) - min(cs) < 1e-3
        assert all(57.0 < v < 58.5 for v in cs)
        assert cs[0] / 100.0 == pytest.approx(GAMMA, rel=1e-4)


class TestExpansion:
    def test_residual_coefficients(self):
        exp = asy.AsymptoticExpansion.build(5)
        e1, e2, e3, e4, e5 = exp.coeffs_E
        assert e1 == pytest.approx(asy.zeta_real(2.0) / (6.0 * math.pi), abs=1e-15)
        assert e2 == 0.0
        assert e3 == pytest.approx(-0.005741903088944411, abs=1e-15)
        assert e4 == 0.0
        assert e5 == pytest.approx(0.002570082176747136, abs=1e-15)

    def test_order_zero(self):
        val, last = asy.c0_asymptotic(100, 0)
        assert val == pytest.approx(106.77733093904438, abs=1e-9)
        assert last == 0.0

    def test_order_one_closes_most_of_the_gap(self):
        exact = c0(ReducedFraction(1, 100)).value
        val, last = asy.c0_asymptotic(100, 1)
        assert abs(exact - val) < 1e-8
        assert last == pytest.approx(0.08726646259971648 / 100.0, rel=1e-12)

    def test_scaled_residual_at_1600(self):
        exact = c0(ReducedFraction(1, 1600)).value
        val, _ = asy.c0_asymptotic(1600, 0)
        assert (exact - val) * 1600.0 == pytest.approx(0.08726646, abs=1e-5)

    @pytest.mark.parametrize("b,n", [(5, 1), (11, 4), (17, 5)])
    def test_below_threshold_rejected(self, b, n):
        with pytest.raises(ValueError):
            asy.c0_asymptotic(b, n)

    def test_threshold_boundary_accepted(self):
        asy.c0_asymptotic(18, 4)

    @pytest.mark.parametrize("n", [-1, 61])
    def test_order_outside_limit_names_the_limit(self, n):
        with pytest.raises(ValueError, match=r"order must be in 0\.\.60"):
            asy.AsymptoticExpansion.build(n)
        with pytest.raises(ValueError, match=r"order must be in 0\.\.60"):
            asy.c0_asymptotic(1000, n)


class TestGStar:
    def test_quarter_point(self):
        assert asy.gstar(0.25) == pytest.approx(math.pi - 8.0 / 3.0, abs=1e-14)

    def test_midpoint(self):
        assert abs(asy.gstar(0.5)) < 1e-14

    def test_reflection_exact_through_fold(self):
        # z dyadic makes 1-z exact, so 2-(1-z) = 1+z and the psi pair just swaps
        for k in (1, 77, 131072, 262143):
            z = k / float(1 << 20)
            assert asy.gstar(1.0 - z) == -asy.gstar(z)

    def test_reflection_midrange(self):
        for z in (0.3, 0.111, 0.49):
            assert asy.gstar(1.0 - z) + asy.gstar(z) == pytest.approx(0.0, abs=5e-14)

    def test_branch_seam_continuity(self):
        assert abs(asy.gstar(0.2499999) - asy.gstar(0.2500001)) < 1e-6

    def test_against_digamma_telescope(self):
        z = np.linspace(1e-3, 1.0 - 1e-3, 10_001)
        oracle = np.array(
            [float(mpmath.digamma(2.0 - x) - mpmath.digamma(1.0 + x)) for x in z.tolist()]
        )
        mine = np.array([asy.gstar(float(x)) for x in z])
        assert np.max(np.abs(mine - oracle)) < 1e-8

    def test_integral_is_numerically_zero(self):
        assert abs(asy.gstar_integral()) < 1e-12


class TestStirlingRemainder:
    def test_against_30_digit_digamma(self):
        # R(z) = psi(z) - ln z + 1/(2z) and psi at every z = s/r with s, r <= 50
        with mpmath.workdps(30):
            for r in range(1, 51):
                for s in range(1, 51):
                    z = mpmath.mpf(s) / r
                    psi = mpmath.digamma(z)
                    rem = psi - mpmath.log(z) + 1 / (2 * z)
                    assert abs(asy._stirling_remainder(s / r) - rem) <= 3e-14 * abs(rem)
                    assert abs(asy._digamma(s / r) - psi) <= 1e-15 * max(1, abs(psi))


class TestP1Integral:
    def test_anchors(self):
        assert asy.p1_integral(1, 2) == pytest.approx(-0.06759071136536286, abs=1e-12)
        assert asy.p1_integral(2, 2) == pytest.approx(-0.019303916225376572, abs=1e-12)
        assert asy.p1_integral(3, 7) == pytest.approx(-0.007180698576342566, abs=1e-12)

    def test_monotone_in_s(self):
        vals = [asy.p1_integral(s, 5) for s in range(1, 6)]
        assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))


class TestC1Direct:
    def test_anchors(self):
        cases = {
            # the psi sum at 30 digits; the g* integral is 0 analytically
            (2, 1): -0.1103178000763258,
            (3, 1): -0.180716414098645,
            (3, 2): -0.05241635427872818,
            (5, 1): -0.2806226180512123,
            (5, 2): -0.08639508647445705,
        }
        for (r, b0), want in cases.items():
            assert asy.c1_direct(asy.C1Input(r, b0)) == pytest.approx(want, abs=1e-14)

    def test_r_one_is_zero(self):
        assert asy.c1_direct(asy.C1Input(1, 1)) == 0.0

    def test_two_one_term_by_term(self):
        want = (
            math.log(0.5) / (4.0 * math.pi)
            - 1.0 / (8.0 * math.pi)
            + (asy.p1_integral(1, 2) - asy.p1_integral(2, 2)) / math.pi
            - 0.25 * asy.gstar_integral()
        )
        assert asy.c1_direct(asy.C1Input(2, 1)) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize(
        "r,b0", [(r, b0) for r in range(2, 13) for b0 in range(1, r) if math.gcd(r, b0) == 1]
    )
    def test_four_term_form(self, r, b0):
        # the paper's log, reciprocal, P1 and g* terms against the collapsed psi sum
        inp = asy.C1Input(r, b0)
        s, t, js = inp.s, inp.t, range(r)
        four = (
            sum(j * math.log(s[j] / t[j]) for j in js) / (math.pi * r * r)
            - sum(j * (1.0 / s[j] - 1.0 / t[j]) for j in js) / (2.0 * math.pi * r)
            + sum(j * (asy.p1_integral(s[j], r) - asy.p1_integral(t[j], r)) for j in js) / math.pi
            - (r * (r - 1) // 2) / (r * r) * asy.gstar_integral()
        )
        assert asy.c1_direct(inp) == pytest.approx(four, abs=1e-15)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            asy.C1Input(4, 2)


class TestC1Empirical:
    def test_default_b_list(self):
        assert asy.default_b_list(2, 1, 21) == [5, 7, 9, 11, 13, 15, 17, 19, 21]
        assert asy.default_b_list(3, 2, 20) == [8, 11, 14, 17, 20]
        assert asy.default_b_list(1, 1, 9) == [3, 5, 7, 9]

    def test_fit_matches_direct_for_two_one(self):
        bs = asy.default_b_list(2, 1, 5001)
        slope, conf = asy.c1_empirical(2, 1, bs)
        assert slope == pytest.approx(-0.1103180149, abs=1e-6)
        assert conf < 1e-4
        assert abs(slope - asy.c1_direct(asy.C1Input(2, 1))) <= conf

    def test_flat_when_r_is_one(self):
        slope, _ = asy.c1_empirical(1, 1, asy.default_b_list(1, 1, 3001))
        assert abs(slope) < 1e-3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            asy.c1_empirical(2, 1, [3, 5])
        with pytest.raises(ValueError):
            asy.c1_empirical(2, 1, [4, 6, 8])
        with pytest.raises(ValueError):
            asy.c1_empirical(2, 1, [7, 5, 9])

    @pytest.mark.parametrize("r", [0, -1])
    def test_nonpositive_r_is_rejected(self, r):
        # `default_b_list`'s b += r loop would not advance, and r = 0 divides by zero
        with pytest.raises(ValueError, match=r"r >= 1 required"):
            asy.default_b_list(r, 1, 10)
        with pytest.raises(ValueError, match=r"r >= 1 required"):
            asy.c1_empirical(r, 1, [3, 5, 7])


def _units(b, count, seed):
    # 1, 2, b - 1 and `count` - 3 random units of b
    rng = random.Random(seed)
    units = {1, 2, b - 1}
    while len(units) < count:
        r = rng.randrange(3, b - 1)
        if math.gcd(r, b) == 1:
            units.add(r)
    return sorted(units)


def _fit_region(ks):
    # the h/k in lowest terms with k in ks and 1/5 <= h/k <= 1/2
    return [(h, k) for k in ks for h in range(-(-k // 5), k // 2 + 1) if math.gcd(h, k) == 1]


def _oracle_c0(kmax):
    # c0(h/k) in oracle precision at every unit h of each k <= kmax, one
    # `direct_sums` call per k
    table = {}
    for k in range(2, kmax + 1):
        units = [h for h in range(1, k) if math.gcd(h, k) == 1]
        [values], _ = core.direct_sums(units, k, ("c0",), oracle=True)
        table[k] = dict(zip(units, values.tolist()))
    return table


def _oracle_defect(table, h, k):
    # `core.reciprocity_defect` from oracle c0 values; c0(0/1) = 0 at h = 1
    inner = table[h][k % h] if h > 1 else 0.0
    return table[k][h] + (k / h) * inner - 1.0 / (math.pi * h)


def _exact_psi0_error(value, h, k):
    # |value - psi0(h/k)|, psi0 from 200-bit sums and a 60-digit 1/(pi h)
    outer = exact_sums(h, k, ("c0",))[0]
    inner = exact_sums(k % h, h, ("c0",))[0] if h > 1 else 0
    d = Fraction(value) - outer - Fraction(k, h) * inner
    with mpmath.workdps(60):
        return float(abs(mpmath.mpf(d.numerator) / d.denominator + 1 / (mpmath.pi * h)))


class TestPsi0:
    """psi0, the period function behind `reciprocity_values`."""

    def test_expansion_coefficients_are_those_of_c0_asymptotic(self):
        assert asy._PSI0_E == tuple(asy._true_coeff(l) for l in range(1, 20, 2))
        assert all(asy._true_coeff(l) == 0.0 for l in range(2, 21, 2))
        assert asy._PSI0_E21 == abs(asy._true_coeff(21))

    def test_refit_reproduces_the_checked_in_coefficients(self):
        # the fit of `_PSI0_CHEB`, from the oracle values of D it names
        table = _oracle_c0(160)
        points = _fit_region(range(2, 161))
        assert len(points) == 2343
        t = [(20 * h - 7 * k) / (3 * k) for h, k in points]
        y = [_oracle_defect(table, h, k) for h, k in points]
        coeffs = np.polynomial.chebyshev.chebfit(t, y, 24)
        # a tenth of the fit's bound, whatever rounding another LAPACK build makes
        assert np.sum(np.abs(coeffs - np.array(asy._PSI0_CHEB))) <= 1e-14

    def test_matches_oracle_defect_outside_the_fit_set(self):
        table = _oracle_c0(250)
        points = _fit_region(range(161, 251))
        assert len(points) >= 500
        for h, k in points:
            value, err = asy._psi0(h, k)
            assert abs(value - _oracle_defect(table, h, k)) <= err, (h, k)

    def test_held_out_error_is_a_tenth_of_the_fit_bound(self):
        worst = max(_exact_psi0_error(asy._psi0(h, k)[0], h, k) for h, k in _fit_region(range(161, 251)))
        assert worst <= asy._PSI0_FIT_ERR / 10

    def test_expansion_within_its_bound(self):
        # every h/k < 1/5 with k <= 160, the seam's neighbours included
        points = [(h, k) for k in range(6, 161) for h in range(1, -(-k // 5)) if math.gcd(h, k) == 1]
        assert len(points) >= 1000
        for h, k in points:
            value, err = asy._psi0(h, k)
            assert _exact_psi0_error(value, h, k) <= err, (h, k)


class TestReciprocityValues:
    """`reciprocity_values`, the route of `cotsums c0` past one direct tile."""

    @pytest.mark.parametrize("b,count", [(32771, 50), (100003, 50), (1000003, 5)])
    def test_within_err_bound_and_below_the_direct_bound(self, b, count):
        for r in _units(b, count, b):
            f = ReducedFraction(r, b)
            got, direct = asy.reciprocity_values(f), core.c0_q_v(f)
            for name, g, want, d in zip("cqv", got, exact_sums(r, b), direct):
                assert abs(Fraction(g.value) - want) <= g.err_bound, (r, name)
                assert g.err_bound <= d.err_bound, (r, name)

    def test_q_at_one_is_exactly_zero(self):
        q = asy.reciprocity_values(ReducedFraction(1, 1000003))[1]
        assert (q.value.hex(), q.err_bound) == ((0.0).hex(), 0.0)

    @pytest.mark.parametrize("b", [32771, 100003, 1000003, 9999991])
    def test_reflection_and_inverse_bit_for_bit(self, b):
        for r in _units(b, 40, b + 1):
            c, _, v = asy.reciprocity_values(ReducedFraction(r, b))
            mirror = asy.reciprocity_values(ReducedFraction(b - r, b))[0]
            inverse = asy.reciprocity_values(ReducedFraction(pow(r, -1, b), b))[0]
            assert ((-c.value).hex(), c.err_bound) == (mirror.value.hex(), mirror.err_bound)
            assert v.value.hex() == (-inverse.value).hex()

    def test_levels_are_counted_as_terms(self):
        # 3/11 -> 2/3 reflects to 1/3, which ends the chain: two levels
        c, q, v = asy.reciprocity_values(ReducedFraction(3, 11))
        assert c.terms == 2 and v.terms == asy.reciprocity_values(ReducedFraction(4, 11))[0].terms
        assert q.terms == c.terms + 1

    def test_rejects_modulus_past_int64_products(self):
        with pytest.raises(ValueError, match="int64"):
            asy.reciprocity_values(ReducedFraction(1, core._B_MAX + 2))
