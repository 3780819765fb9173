"""Asymptotics of c0(1/b) and the secondary coefficient C1(r, b0).

The expansion implemented by `c0_asymptotic` is

    c0(1/b) = (b/pi) log b - (b/pi)(log 2pi - gamma) + 1/pi
              + sum_{l<=n} E_l b^{-l} + O(b^{-(n+1)}),

with E_l = (B_{2j}/j) zeta(2j) / pi for odd l = 2j-1 and E_l = 0 for even l.
The constant term is +1/pi and the E_l above are the coefficients the data
actually follows (fitting residuals at the 1e-19 level).

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

from .core import ReducedFraction, c0

__all__ = [
    "AsymptoticExpansion",
    "C1Input",
    "bernoulli",
    "zeta_real",
    "s_sum",
    "g_partial",
    "c0_asymptotic",
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
