"""Asymptotics of c0(1/b) and the secondary coefficient C1(r, b0).

The expansion implemented by `c0_asymptotic` is

    c0(1/b) = (b/pi) log b - (b/pi)(log 2pi - gamma) + 1/pi
              + sum_{l<=n} E_l b^{-l} + O(b^{-(n+1)}),

with E_l = (B_{2j}/j) zeta(2j) / pi for odd l = 2j-1 and E_l = 0 for even l.
The constant term is +1/pi and the E_l above are the coefficients the data
actually follows (fitting residuals at the 1e-19 level).

`reciprocity_values` gives c0, Q and V at one r/b in O(log b) levels of the
reciprocity c0(h/k) + (k/h) c0(k/h) - 1/(pi h) = psi0(h/k); below h/k = 1/5,
psi0 is this expansion at b = k/h less 1/pi.

Also here: Bernoulli numbers, a real-argument zeta, the partial sums S(L;b)
and G_L(b) converging to pi*c0(1/b), and the closed-form C1 with its
empirical cross-check.  The closed form rests on one kernel,
Stirling's remainder R(z) = psi(z) - ln z + 1/(2z): the P1 integrals are
R(s/r)/r^2, C1 is a digamma sum over the residues, and the partial-fraction
function g*(z) is psi(2-z) - psi(1+z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import _EPS, ReducedFraction, SumValue, _check_modulus, c0

__all__ = [
    "AsymptoticExpansion",
    "C1Input",
    "bernoulli",
    "zeta_real",
    "s_sum",
    "g_partial",
    "c0_asymptotic",
    "reciprocity_values",
    "gstar",
    "gstar_integral",
    "p1_integral",
    "c1_direct",
    "c1_empirical",
]

GAMMA = 0.5772156649015328606
_LOG2PI = math.log(2.0 * math.pi)
_MAX_ORDER = 60  # of the expansion; E_l needs B_(l+1) at odd l, so also `bernoulli`'s limit


@lru_cache(maxsize=None)
def _bernoulli_fraction(n: int) -> Fraction:
    # sum_{k=0}^{n} C(n+1, k) B_k = 0, exact rationals.
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * _bernoulli_fraction(k)
    return -acc / (n + 1)


def bernoulli(n: int) -> float:
    """Signed Bernoulli number B_n (B_1 = -1/2, B_2 = 1/6, B_4 = -1/30).

    Odd n > 1 returns exactly 0.  Even n is limited to n <= 60; beyond that
    the magnitudes are outside what this library ever needs.
    """
    if n < 1 or n > _MAX_ORDER:
        raise ValueError(f"Bernoulli index out of supported range: {n}")
    if n % 2 == 1:
        return -0.5 if n == 1 else 0.0
    return float(_bernoulli_fraction(n))


def zeta_real(s: float) -> float:
    """zeta(s) for real s > 1, to ~1e-13 relative or better.

    Direct summation to K = 256 plus the Euler-Maclaurin tail with 8
    Bernoulli corrections.
    """
    if s <= 1.0:
        raise ValueError(f"zeta_real needs s > 1, got {s}")
    k_cut = 256
    total = math.fsum(k ** (-s) for k in range(1, k_cut))
    total += 0.5 * k_cut ** (-s) + k_cut ** (1.0 - s) / (s - 1.0)
    poch = s
    kpow = k_cut ** (-s - 1.0)
    for j in range(1, 9):
        total += bernoulli(2 * j) / math.factorial(2 * j) * poch * kpow
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        kpow /= k_cut * k_cut
    return total


def s_sum(L: int, b: int) -> float:
    """S(L; b) = 2b sum_{1<=a<=L} (1/a) floor(a/b)."""
    if L < 1 or b < 2:
        raise ValueError("need L >= 1 and b >= 2")
    a = np.arange(1, L + 1, dtype=np.int64)
    terms = (a // b) / a
    return 2.0 * b * math.fsum(terms.tolist())


def g_partial(L: int, b: int) -> float:
    """Partial sum G_L(b) over a <= L with b not dividing a.

    pi * c0(1/b) is the L -> infinity limit; convergence is O(b/L).
    """
    if L < 1 or b < 2:
        raise ValueError("need L >= 1 and b >= 2")
    total = 0.0
    chunk = 1 << 20
    for lo in range(1, L + 1, chunk):
        a = np.arange(lo, min(lo + chunk, L + 1), dtype=np.int64)
        term = (b / a) * (1.0 + 2.0 * (a // b)) - 2.0
        term[a % b == 0] = 0.0
        total += math.fsum(term.tolist())
    return total


@lru_cache(maxsize=None)
def _true_coeff(l: int) -> float:
    # E_l of the fitted expansion: (B_{2j}/j) zeta(2j)/pi at odd l = 2j-1, else 0.
    if l % 2 == 0:
        return 0.0
    j = (l + 1) // 2
    return bernoulli(2 * j) / j * zeta_real(2.0 * j) / math.pi


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Coefficient bundle for c0(1/b): main term plus E_1..E_n."""

    order_n: int
    coeffs_E: tuple[float, ...] = field(default=())

    @staticmethod
    def main(b: float) -> float:
        return (b / math.pi) * math.log(b) - (b / math.pi) * (_LOG2PI - GAMMA) + 1.0 / math.pi

    @classmethod
    def build(cls, n: int) -> "AsymptoticExpansion":
        if not 0 <= n <= _MAX_ORDER:
            raise ValueError(f"order must be in 0..{_MAX_ORDER}, got {n}")
        return cls(order_n=n, coeffs_E=tuple(_true_coeff(l) for l in range(1, n + 1)))


def c0_asymptotic(b: int, n: int) -> tuple[float, float]:
    """Expansion value for c0(1/b) through order n, plus |E_n| b^{-n}.

    Valid for b >= 6 (floor(n/2) + 1); smaller b raises.  The second return
    value is the magnitude of the last included term, a cheap convergence
    diagnostic (0.0 when n = 0).
    """
    threshold = 6 * (n // 2 + 1)
    if b < threshold:
        raise ValueError(f"b={b} below validity threshold {threshold} for n={n}")
    exp = AsymptoticExpansion.build(n)
    value = exp.main(float(b))
    for l, e in enumerate(exp.coeffs_E, start=1):
        value += e * float(b) ** (-l)
    last = abs(exp.coeffs_E[-1]) * float(b) ** (-n) if n >= 1 else 0.0
    return value, last


# psi0 of the reciprocity c0(h/k) + (k/h) c0(k/h) - 1/(pi h) = psi0(h/k)
# (Bettin and Conrey, Algebra & Number Theory 7, 2013), analytic on (0, inf).
# Below z = 1/5 it is the expansion of c0(1/b) - 1/pi at b = 1/z,
#     psi0(z) = (gamma - ln 2 pi z)/(pi z) + sum_{l<=20} E_l z^l,
# with the E_l of `_true_coeff` (0 at even l).  Its error stays below the
# first omitted term |E_21| z^21 (at 1/5 that term is 3.8e-13 and the error
# 2.5e-13), and its bound takes twice the term.
_PSI0_E = (  # E_1, E_3, ..., E_19
    0.08726646259971647, -0.005741903088944411, 0.0025700821767471356,
    -0.002663397908092409, 0.0048276737769625405, -0.013431395519834965,
    0.05305489701178171, -0.28219226794178526, 1.9442151321685524,
    -16.842563805465602,
)
_PSI0_E21 = 179.18313612061326  # |E_21|
_GAMMA_LOG2PI = GAMMA - _LOG2PI
# On [1/5, 1/2] it is sum_j c_j T_j(t), t = (20 z - 7)/3: the degree-24
# least-squares fit to the 2343 oracle values of D(h/k) =
# `core.reciprocity_defect` with k <= 160 and 1/5 <= h/k <= 1/2, which
# tests/test_asymptotics.py repeats.  Against 200-bit values of D at the 3364
# held-out h/k with 160 < k <= 250 it is off by at most 2.6e-15; the 1e-13 of
# _PSI0_FIT_ERR is 39 times that, and above the 7.7e-14 by which the oracle
# values of D themselves stray there.
_PSI0_CHEB = (
    -0.02747305719394053, -0.40279121532492174, 0.1436506702381295,
    -0.03991733072367466, 0.010266498366094223, -0.002542355561127119,
    0.0006157832449683524, -0.00014702145961036122, 3.475351601603329e-05,
    -8.155481961799862e-06, 1.9032533944875214e-06, -4.422456945432068e-07,
    1.0240579517434492e-07, -2.3645842021382355e-08, 5.447065289223809e-09,
    -1.2523016446351725e-09, 2.874220497100762e-10, -6.587160656128537e-11,
    1.507742838215392e-11, -3.4474154050285635e-12, 7.871862808193895e-13,
    -1.79216493576313e-13, 4.0816095153611475e-14, -9.156421495125488e-15,
    2.14701173634997e-15,
)
# the fit's error plus Clenshaw's rounding, 4 (n + 1) eps sum |c_j|, and that
# of t, eps max |d psi0 / dt|
_PSI0_FIT_ERR = 1e-13 + 4 * len(_PSI0_CHEB) * _EPS * sum(map(abs, _PSI0_CHEB)) + 2 * _EPS


def _psi0(h: int, k: int) -> tuple[float, float]:
    """psi0(h/k) for integers 0 < h <= k/2, and a bound on its error."""
    if 5 * h < k:
        z, x = h / k, k / h
        w, s = z * z, 0.0
        for e in reversed(_PSI0_E):
            s = s * w + e
        s *= z
        log = math.log(x)
        scale = x / math.pi
        value = (_GAMMA_LOG2PI + log) * scale + s
        # truncation, then the rounding of the main term, of s and of the sum
        err = 2.0 * _PSI0_E21 * z**21 + _EPS * (4.0 * scale * (2.0 + log) + 16.0 * z + abs(value))
        return value, err
    t = (20 * h - 7 * k) / (3 * k)
    b1 = b2 = 0.0
    for c in reversed(_PSI0_CHEB[1:]):
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    return _PSI0_CHEB[0] + t * b1 - b2, _PSI0_FIT_ERR


def _c0_reciprocity(r: int, b: int) -> tuple[float, float, int]:
    """c0(r/b), a bound on its error and the number of levels, by reciprocity.

    Each level reflects h/k into (0, 1/2] (c0(1 - x) = -c0(x)), adds
    +-(b/k) (psi0(h/k) + 1/(pi h)) and moves to (k mod h)/h; h = 1 ends it,
    as c0(1/k) = psi0(1/k) + 1/pi.  The multiplier b/k telescopes from the
    factors k/h, so it is one division.  Each level's bound is b/k times
    psi0's bound plus the rounding of its term, and each sum adds eps |acc|.
    """
    h, k, sign = r, b, 1.0
    acc = err = 0.0
    levels = 0
    while True:
        if 2 * h > k:
            h, sign = k - h, -sign
        psi, dpsi = _psi0(h, k)
        inv = 1.0 / (math.pi * h)
        v = psi + inv
        q = b / k
        term = q * v
        acc += sign * term
        err += q * (dpsi + 2.0 * _EPS * (inv + abs(v))) + 2.0 * _EPS * abs(term) + _EPS * abs(acc)
        levels += 1
        if h == 1:
            return acc, err, levels
        h, k, sign = k % h, h, -sign


def reciprocity_values(f: ReducedFraction) -> tuple[SumValue, SumValue, SumValue]:
    """(c0, Q, V) at r/b in O(log b) steps by the reciprocity of psi0.

    c0(r/b) and V(r/b) = -c0(rbar/b) are Euclid chains of `_psi0`, and
    Q(r/b) = c0(1/b) - r c0(r/b), exactly +0.0 with bound 0 at r = 1.  Each
    err_bound bounds the error against the exact sum; `terms` counts the
    levels of the chains behind the value.  c0((b - r)/b) = -c0(r/b) and
    V(r/b) = -c0(rbar/b) hold bit for bit.  The domain is that of the direct
    kernel, b <= 3037000499.
    """
    r, b = f.r, f.b
    _check_modulus(b)
    c, dc, nc = _c0_reciprocity(r, b)
    one, done, n1 = _c0_reciprocity(1, b)
    v, dv, nv = _c0_reciprocity(f.inverse, b)
    qv = one - r * c  # +0.0 at r = 1, where both chains are the same
    dq = 0.0 if r == 1 else done + r * dc + _EPS * (r * abs(c) + abs(qv))
    return (SumValue(c, err_bound=dc, terms=nc), SumValue(qv, err_bound=dq, terms=n1 + nc),
            SumValue(-v, err_bound=dv, terms=nv))


_STIRLING_COEFFS = tuple(bernoulli(2 * k) / (2 * k) for k in range(1, 9))


def _stirling_remainder(z: float) -> float:
    """R(z) = psi(z) - ln z + 1/(2z) for z > 0, to ~1e-14 relative.

    Below 10 the argument steps up by psi(z+1) = psi(z) + 1/z, i.e.
    R(z) = R(z+1) + log1p(1/z) - 1/(2z) - 1/(2(z+1)); from 10 on the
    asymptotic series R(z) ~ -sum_{k<=8} B_{2k}/(2k z^{2k}) (DLMF 5.11.2)
    takes over, its first omitted term below 4e-18.
    """
    acc = 0.0
    while z < 10.0:
        acc += math.log1p(1.0 / z) - 0.5 / z - 0.5 / (z + 1.0)
        z += 1.0
    w = 1.0 / (z * z)
    return acc - sum(c * w**k for k, c in enumerate(_STIRLING_COEFFS, start=1))


def _digamma(z: float) -> float:
    """psi(z) = R(z) + ln z - 1/(2z) for z > 0."""
    return _stirling_remainder(z) + math.log(z) - 0.5 / z


def gstar(z: float) -> float:
    """g*(z) = pi cot(pi z) - 1/z - 1/(z-1) on (0, 1), as psi(2-z) - psi(1+z).

    The form follows from psi(1-z) - psi(z) = pi cot(pi z) and psi(w+1) =
    psi(w) + 1/w.  It has no removable singularity to cancel, so values near
    0 and 1 stay accurate (limits +1 and -1), and g*(1-z) = -g*(z) is exact
    whenever 1-z is.
    """
    if not 0.0 < z < 1.0:
        raise ValueError(f"gstar needs z in (0,1), got {z}")
    return _digamma(2.0 - z) - _digamma(1.0 + z)


def gstar_integral() -> float:
    """int_0^1 g*(w) dw by 128-node Gauss-Legendre; equals 0 analytically."""
    x, w = np.polynomial.legendre.leggauss(128)
    x = 0.5 * (x + 1.0)
    return 0.5 * float(sum(wi * gstar(float(xi)) for xi, wi in zip(x, w)))


@lru_cache(maxsize=4096)
def p1_integral(s: int, r: int) -> float:
    """int_0^infty P1(u) / (s + u r)^2 du = R(s/r) / r^2, with P1(x) = {x} - 1/2.

    Writing s + u r = r (u + z) with z = s/r turns it into r^-2 int_0^infty
    P1(u)/(u + z)^2 du, and differentiating Stirling's formula
    ln Gamma(z) = (z - 1/2) ln z - z + ln(2pi)/2 - int_0^infty P1(u)/(u + z) du
    shows that integral is the remainder R(z) = psi(z) - ln z + 1/(2z).
    """
    if s < 1 or r < 1:
        raise ValueError("need s >= 1 and r >= 1")
    return _stirling_remainder(s / r) / (r * r)


@dataclass
class C1Input:
    """Residue data (s_j, t_j) behind the closed form of C1(r, b0).

    s_j = -b0*j mod r and t_j = b0*(j+1) mod r, representatives in [1, r]
    with residue 0 mapped to r so logs and reciprocals stay finite.
    """

    r: int
    b0: int
    s: list[int] = field(init=False)
    t: list[int] = field(init=False)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r >= 1 required")
        if math.gcd(self.b0, self.r) != 1:
            raise ValueError(f"gcd(b0, r) must be 1, got ({self.b0}, {self.r})")
        self.s = [((-self.b0 * j) % self.r) or self.r for j in range(self.r)]
        self.t = [((self.b0 * (j + 1)) % self.r) or self.r for j in range(self.r)]


def c1_direct(inp: C1Input) -> float:
    """Closed form of the linear coefficient C1(r, b0); C1(1, .) = 0.

    The paper's four terms are sum_j j log(s_j/t_j)/(pi r^2), minus
    sum_j j (1/s_j - 1/t_j)/(2 pi r), plus sum_j j (I(s_j) - I(t_j))/pi with
    I(s) = `p1_integral(s, r)` = R(s/r)/r^2, minus g_term = (sum_j j)/r^2
    int_0^1 g*.  As R(z) = psi(z) - ln z + 1/(2z) and 1/(2z) = r/(2s), the log
    and reciprocal sums cancel exactly against R, which leaves
    C1 = sum_j j (psi(s_j/r) - psi(t_j/r))/(pi r^2) - g_term.  The g*
    integral is ~1e-17 but is computed, not assumed away.
    """
    r = inp.r
    if r == 1:
        return 0.0
    psi_term = sum(
        j * (_digamma(inp.s[j] / r) - _digamma(inp.t[j] / r)) for j in range(r)
    ) / (math.pi * r * r)
    g_term = (r * (r - 1) // 2) / (r * r) * gstar_integral()
    return psi_term - g_term


def default_b_list(r: int, b0: int, bmax: int) -> list[int]:
    """Moduli b == b0 (mod r), coprime to r, with b > 2r, up to bmax.

    For r = 1 every residue class coincides; odd b only, which keeps the
    sampling pattern of the fits uniform across the r = 1 and r = 2 cases.
    """
    if r < 1:
        raise ValueError("r >= 1 required")
    if r == 1:
        return list(range(3, bmax + 1, 2))
    out = []
    b = b0 if b0 > 0 else b0 + r
    while b <= bmax:
        if b > 2 * r and math.gcd(b, r) == 1:
            out.append(b)
        b += r
    return out


def c1_empirical(r: int, b0: int, b_list: Sequence[int]) -> tuple[float, float]:
    """Least-squares slope of y(b) = c0(r/b) - leading terms, with confidence.

    y(b) = c0(r/b) - (1/(pi r)) b log b + (b/(pi r)) (log 2pi - gamma) behaves
    like C1(r,b0) * b + O(log b) along b == b0 (mod r).  The fit is
    unweighted; confidence is the worst deviation of y from the slope term
    alone over the top half of the b range, divided by the range, i.e. how
    well the slope explains the signal per unit b with the O(1) part treated
    as nuisance.
    """
    if r < 1:
        raise ValueError("r >= 1 required")
    if len(b_list) < 3:
        raise ValueError("b_list must contain at least 3 values")
    prev = 0
    for b in b_list:
        if b % r != b0 % r or math.gcd(b, r) != 1:
            raise ValueError(f"b={b} incompatible with (r={r}, b0={b0})")
        if b <= prev:
            raise ValueError("b_list must be strictly increasing")
        prev = b
    bf = np.asarray(b_list, dtype=float)
    ys = np.array(
        [
            c0(ReducedFraction(r, b)).value
            - bv * math.log(bv) / (math.pi * r)
            + bv * (_LOG2PI - GAMMA) / (math.pi * r)
            for b, bv in zip(b_list, bf)
        ]
    )
    n = len(bf)
    sx, sy = bf.sum(), ys.sum()
    sxx, sxy = float(bf @ bf), float(bf @ ys)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    top = bf >= 0.5 * (bf[0] + bf[-1])
    confidence = float(np.max(np.abs(ys[top] - slope * bf[top]))) / (bf[-1] - bf[0])
    return slope, confidence
