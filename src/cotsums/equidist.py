"""Window scans over coprime residues and exponential-sum utilities.

A scan walks every r coprime to b with A0*b <= r <= A1*b, evaluates the
cotangent sum c0(r/b) and the floor-weighted sum Q(r/b), and accumulates
normalized moments:

    moments_c0[k] = sum c0(r/b)^k / (b^k  * phi(b)),
    moments_q[k]  = sum  Q(r/b)^k / (b^2k * phi(b)),   k = 1 .. 2*k_max.

The even c0-moments approach H_k*(A1-A0) and the even Q-moments approach
E_k*(A1^{2k+1}-A0^{2k+1}), which is what the moment tests consume.  The
module also carries the inverse-value approximation q_approx, Kloosterman
and Ramanujan sums, the inverse-localization count, and the two-sample
Kolmogorov-Smirnov distance.

Whole-modulus values come from one kernel for every b, `_c0_fft`, and
scans and `batch_c0` slice its table.  Grouping the terms m by e = b/gcd(m, b)
splits c0(r/b) into one sum per divisor e > 1 of b, each over the unit group
(Z/e)^*.  Indexing the units by exponents of one generator per cyclic factor
(the prime-factor index map of Good, 1958) turns that sum, for all r at
once, into one correlation computed by FFT.  At prime p the group is cyclic,
generated by a primitive root g; with m = g^i and r = g^j,

    c0(g^j/p) = -(1/p) sum_i (g^i mod p) cot(pi g^(i+j) / p),

a cyclic correlation of length p-1 (Rader, Proc. IEEE 56, 1968),
O(p log p) for all p-1 values together.  `core.direct_sums` gives V and Q
by their own formulas (`batch_c0_vq`), so identity checks compare
independent routes.  The `threads` arguments are accepted and have no effect.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import _B_MAX, _check_modulus, cot_table, direct_sums
from .gseries import EmpiricalCDF, TruncatedGSeries

__all__ = [
    "ScanWindow",
    "ScanReport",
    "ExpSumParams",
    "euler_phi",
    "mobius",
    "scan",
    "scan_arrays",
    "batch_c0",
    "batch_c0_vq",
    "window_residues",
    "q_approx",
    "kloosterman",
    "ramanujan",
    "inverse_localization_count",
    "ks_distance",
]


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(b: int) -> int:
    """Euler totient by trial-division factorization."""
    if b < 1:
        raise ValueError("b >= 1 required")
    out = b
    for p in _factorize(b):
        out -= out // p
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n >= 1 required")
    f = _factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


@dataclass(frozen=True)
class ScanWindow:
    """Residue window r/b in (A0, A1) with 1/2 < A0 < A1 < 1."""

    b: int
    a0: float
    a1: float

    def __post_init__(self):
        _check_modulus(self.b)
        if not 0.5 < self.a0 < self.a1 < 1.0:
            raise ValueError(f"need 1/2 < A0 < A1 < 1, got ({self.a0}, {self.a1})")
        if math.floor(self.a1 * self.b) < math.ceil(self.a0 * self.b):
            raise ValueError("window contains no integer")

    @property
    def r_lo(self) -> int:
        return math.ceil(self.a0 * self.b)

    @property
    def r_hi(self) -> int:
        return math.floor(self.a1 * self.b)


def _coprime(lo: int, hi: int, b: int) -> np.ndarray:
    r = np.arange(lo, hi + 1, dtype=np.int64)
    return r[np.gcd(r, b) == 1]


def window_residues(window: ScanWindow) -> np.ndarray:
    """All r coprime to b in [ceil(A0 b), floor(A1 b)], ascending."""
    return _coprime(window.r_lo, window.r_hi, window.b)


def _primitive_root(p: int) -> int:
    """The least primitive root mod the odd prime p."""
    n = p - 1
    qs = list(_factorize(n))
    g = 2
    while any(pow(g, n // q, p) == 1 for q in qs):
        g += 1
    return g


def _prime_power_root(p: int, k: int) -> int:
    """A generator of (Z/p^k)^* for odd p: the least primitive root g mod p,
    or g + p when k >= 2 and g^(p-1) = 1 mod p^2 (then g has order only p-1
    mod p^2, while g + p has order p(p-1) and so generates every p^k)."""
    g = _primitive_root(p)
    return g + p if k >= 2 and pow(g, p - 1, p * p) == 1 else g


def _unit_axes(e: int) -> list[tuple[int, int]]:
    """(generator, order) of each cyclic factor of the unit group (Z/e)^*.

    Per prime power q = p^k of e: one axis for odd p; none for 2; the element
    -1 for 4; -1 and 5 for 2^k, k >= 3.  Each generator is lifted by CRT to
    be 1 mod e/q, so a product of generator powers runs over every unit once
    (the prime-factor index map of Good, J. R. Stat. Soc. B 20, 1958).
    """
    axes = []
    for p, k in _factorize(e).items():
        q = p**k
        if p > 2:
            gens = [(_prime_power_root(p, k), q - q // p)]
        else:
            gens = ([(q - 1, 2)] if k >= 2 else []) + ([(5, q // 4)] if k >= 3 else [])
        rest = e // q
        axes += [(1 + rest * ((g - 1) * pow(rest, -1, q) % q), n) for g, n in gens]
    return axes


def _powers(g: int, e: int, n: int) -> np.ndarray:
    """g^i mod e for i = 0..n-1, doubling the filled prefix each step."""
    pw = np.ones(n, dtype=np.int64)
    k = 1
    while k < n:
        step = min(k, n - k)
        pw[k : k + step] = pw[:step] * pow(g, k, e) % e
        k += step
    return pw


def _c0_star(e: int) -> tuple[np.ndarray, np.ndarray]:
    """Every unit u mod e, and c0*(u; e) = -(1/e) sum_m m cot(pi m u / e) at each.

    m runs over the units in 1..e-1.  With units indexed by their exponent
    vectors (`_unit_axes`), the sum is a correlation on the unit group of
    the weights m with the cot table read in index order.  For a cyclic
    group of order n the cot sequence is wrapped once and both are
    zero-padded to a power of two >= 2n - 1, where the linear correlation
    equals the cyclic one: n = p - 1 often has a large prime factor, which
    is slow to transform directly.  A group with several axes is transformed
    at its exact shape; padding every axis costs more than it saves.
    """
    units = np.ones((), dtype=np.int64)
    for g, n in _unit_axes(e):
        units = np.multiply.outer(units, _powers(g, e, n)) % e
    if units.ndim <= 1:
        pw = units.reshape(-1)
        n = len(pw)
        cots = cot_table(e)[pw]
        size = 1 << (2 * n - 2).bit_length()
        spectrum = np.conj(np.fft.rfft(pw.astype(float), size))
        spectrum *= np.fft.rfft(np.concatenate([cots, cots[: n - 1]]), size)
        corr = np.fft.irfft(spectrum, size)[:n]
    else:
        axes = tuple(range(units.ndim))
        spectrum = np.conj(np.fft.rfftn(units.astype(float), axes=axes))
        spectrum *= np.fft.rfftn(cot_table(e)[units], axes=axes)
        corr = np.fft.irfftn(spectrum, units.shape, axes=axes).reshape(-1)
    return units.reshape(-1), -corr / e


def _part(e: int) -> np.ndarray:
    """c0*(u; e) at index u of a length-e array (0 at the non-units)."""
    part = np.zeros(e)
    units, values = _c0_star(e)
    part[units] = values
    return part


# Divisor tables up to this size are kept, read-only, about 66 kB in all: a
# run over many moduli (the identity suites) meets them at every multiple.
_SMALL_PART = 128


@lru_cache(maxsize=None)
def _small_part(e: int) -> np.ndarray:
    part = _part(e)
    part.flags.writeable = False
    return part


def _c0_fft(b: int) -> np.ndarray:
    """c0(r/b) at index r of a length-b array, for every b >= 2 (0 where gcd(r, b) > 1).

    Write d = gcd(m, b) and e = b/d: the term of m is -(1/e) m' cot(pi m' r/e)
    with m = d m' and m' a unit mod e, so

        c0(r/b) = sum over divisors e > 1 of b of c0*(r mod e; e),

    one unit-group correlation per divisor (`_c0_star`).  At prime b the
    group is cyclic and the sum has one term: the Rader correlation.
    """
    units, acc = _c0_star(b)
    divisors = [1]
    for p, k in _factorize(b).items():
        divisors = [d * p**j for d in divisors for j in range(k + 1)]
    # e = 2 adds c0*(1; 2) = -cot(pi/2)/2 = 0
    for e in sorted(divisors)[:-1]:
        if e > 2:
            part = _small_part(e) if e <= _SMALL_PART else _part(e)
            acc += part[units % e]
    out = np.zeros(b)
    out[units] = acc
    return out


def batch_c0(b: int, threads: int = 1):
    """(r, c0(r/b)) for every r in 1..b-1 coprime to b: a slice of `_c0_fft(b)`.

    `threads` is accepted for compatibility and has no effect.
    """
    _check_modulus(b)
    rs = _coprime(1, b - 1, b)
    return rs, _c0_fft(b)[rs]


def scan_arrays(window: ScanWindow, threads: int = 1):
    """Per-residue raw values: (r, c0(r/b), Q(r/b)) over the window.

    c0 is a slice of the whole-modulus table `_c0_fft(b)`, and
    Q = c0(1/b) - r c0(r/b) comes from the same table.  `threads` is
    accepted for compatibility and has no effect.
    """
    rs = window_residues(window)
    by_r = _c0_fft(window.b)
    c0 = by_r[rs]
    return rs, c0, by_r[1] - rs * c0


def batch_c0_vq(b: int):
    """(r, c0, V, Q) for every r in 1..b-1 coprime to b.

    c0 is the table of `batch_c0`.  V(r/b) = sum_m {m r / b} cot(pi m / b)
    and Q come from the direct kernel by their own formulas, so at every b
    the identity suites compare independent routes: V against -c0(r*/b),
    Q against the decomposition.
    """
    rs, c0 = batch_c0(b)
    q, v = direct_sums(rs, b, ("q", "v"))[0]
    return rs, c0, v, q


@dataclass
class ScanReport:
    """Normalized window moments plus the empirical CDF of c0(r/b)/b.

    `residues`, `c0_values` and `q_values` keep the window's raw values in
    residue order.
    """

    b: int
    a0: float
    a1: float
    phi: int
    count: int
    moments_c0: dict[int, float]
    moments_q: dict[int, float]
    cdf: EmpiricalCDF | None = None
    ks_distance: float | None = None
    wall_ms: float = 0.0
    residues: np.ndarray | None = field(default=None, repr=False)
    c0_values: np.ndarray | None = field(default=None, repr=False)
    q_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.count > self.phi:
            raise ValueError("window count exceeds phi(b)")
        for k, v in [*self.moments_c0.items(), *self.moments_q.items()]:
            if k % 2 == 0 and v < 0.0:
                raise ValueError("even normalized moment must be nonnegative")


def scan(
    window: ScanWindow,
    k_max: int,
    *,
    threads: int = 1,
    reference: EmpiricalCDF | None = None,
    deterministic: bool = False,
) -> ScanReport:
    """Moment scan over the window; powers 1..2*k_max of both sums.

    Accumulation is an exactly-rounded sum over the position-ordered value
    array, so reports are bit-identical across reruns and thread counts.
    With `deterministic` the wall-clock field is zeroed as well.  A
    `reference` CDF turns on the Kolmogorov-Smirnov comparison.
    """
    if k_max < 1:
        raise ValueError("k_max >= 1 required")
    tic = time.perf_counter()
    b = window.b
    rs, c0, q = scan_arrays(window, threads=threads)
    if len(rs) == 0:
        raise ValueError("window contains no admissible residue")
    phi = euler_phi(b)
    moments_c0: dict[int, float] = {}
    moments_q: dict[int, float] = {}
    for k in range(1, 2 * k_max + 1):
        moments_c0[k] = math.fsum((c0**k).tolist()) / (float(b) ** k * phi)
        moments_q[k] = math.fsum((q**k).tolist()) / (float(b) ** (2 * k) * phi)
    cdf = EmpiricalCDF.from_samples(c0 / b)
    ks = ks_distance(cdf, reference) if reference is not None else None
    wall = 0.0 if deterministic else (time.perf_counter() - tic) * 1e3
    return ScanReport(
        b=b,
        a0=window.a0,
        a1=window.a1,
        phi=phi,
        count=len(rs),
        moments_c0=moments_c0,
        moments_q=moments_q,
        cdf=cdf,
        ks_distance=ks,
        wall_ms=wall,
        residues=rs,
        c0_values=c0,
        q_values=q,
    )


def q_approx(r: int, b: int, m1: int) -> float:
    """(b r / pi) * f(b*/r; m1) with b b* = 1 (mod r): the series model of Q.

    The sawtooth arguments l*b*/r are reduced exactly in integers, so the
    value is free of phase rounding.
    """
    if r < 2:
        raise ValueError("r >= 2 required (Q(1/b) = 0 is exact upstream)")
    if math.gcd(r, b) != 1:
        raise ValueError(f"gcd(r, b) = {math.gcd(r, b)} != 1")
    bstar = pow(b, -1, r)
    t = TruncatedGSeries(m1)
    if t.terms * bstar < (1 << 62):
        l = np.arange(1, t.terms + 1, dtype=np.int64)
        res = (l * bstar) % r
        saw = 1.0 - 2.0 * (res / r)
        saw[res == 0] = 0.0
        total = float(saw @ (1.0 / l))
    else:
        total = math.fsum(
            (1.0 - 2.0 * ((l * bstar) % r) / r) / l if (l * bstar) % r else 0.0
            for l in range(1, t.terms + 1)
        )
    return b * r / math.pi * total


@dataclass(frozen=True)
class ExpSumParams:
    """Frequencies (n, m) and modulus b of a complete exponential sum."""

    n: int
    m: int
    b: int

    def __post_init__(self):
        if self.b < 2:
            raise ValueError("b >= 2 required")


def kloosterman(p: ExpSumParams) -> tuple[float, float]:
    """K(n, m, b) = sum over units r mod b of e((n r + m r*)/b).

    The integer phases (n r + m r*) mod b are sorted before the trig pass, so
    swapping n and m (a bijection r <-> r*) yields the bit-identical result.
    """
    b = p.b
    phases = sorted(
        (p.n * r + p.m * pow(r, -1, b)) % b for r in range(1, b) if math.gcd(r, b) == 1
    )
    angles = 2.0 * np.pi * (np.array(phases, dtype=float) / b)
    re = math.fsum(np.cos(angles).tolist())
    im = math.fsum(np.sin(angles).tolist())
    return re, im


def ramanujan(q: int, n: int) -> int:
    """c_q(n) by the Moebius-divisor formula sum_{d | (q, n)} mu(q/d) d."""
    if q < 1:
        raise ValueError("q >= 1 required")
    g = math.gcd(q, abs(n))
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += mobius(q // d) * d
    return total


def inverse_localization_count(
    window: ScanWindow, alpha: float, delta: float
) -> tuple[int, float]:
    """How many r in the window put b*/r in [alpha, alpha+delta), b b* = 1 (mod r).

    The interval is clipped to (0, 1); expected count is
    (hi - alpha) * (A1 - A0) * phi(b) from the equidistribution of inverses.
    Half-open pieces make disjoint partitions add up exactly.
    """
    if not 0.0 < alpha < 1.0 or delta <= 0.0:
        raise ValueError("need 0 < alpha < 1 and delta > 0")
    hi = min(alpha + delta, 1.0)
    b = window.b
    count = 0
    for r in window_residues(window).tolist():
        x = pow(b, -1, r) / r if r > 1 else 0.0
        if alpha <= x < hi:
            count += 1
    expected = (hi - alpha) * (window.a1 - window.a0) * euler_phi(b)
    return count, expected


def ks_distance(a: EmpiricalCDF, b_cdf: EmpiricalCDF) -> float:
    """Two-sample sup distance, checked on both sides of every jump."""
    xs = np.concatenate([a.values, b_cdf.values])
    gaps = (
        np.searchsorted(a.values, xs, side) / a.count - np.searchsorted(b_cdf.values, xs, side) / b_cdf.count
        for side in ("right", "left")
    )
    return float(max(np.abs(g).max() for g in gaps))
