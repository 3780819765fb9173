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

Whole-modulus values come from one of two kernels, chosen by the primality
of b.  At prime p the units are the cyclic group generated by a primitive
root g; with m = g^i and r = g^j,

    c0(g^j/p) = -(1/p) sum_i (g^i mod p) cot(pi g^(i+j) / p),

a cyclic correlation of length p-1 computed by FFT (Rader, Proc. IEEE 56,
1968), O(p log p) for all p-1 values together.  At composite b each value
is the direct sum of `core.direct_sums`, O(b) lookups in the cot table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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


def _is_prime(n: int) -> bool:
    return _factorize(n) == {n: 1}


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
    # g = 1 generates the trivial group of p = 2; p - 1 is even for every other p
    n = p - 1
    qs = list(_factorize(n))
    g = 1
    while any(pow(g, n // q, p) == 1 for q in qs):
        g += 1
    return g


def _powers(g: int, p: int) -> np.ndarray:
    """g^i mod p for i = 0..p-2, doubling the filled prefix each step."""
    n = p - 1
    pw = np.ones(n, dtype=np.int64)
    k = 1
    while k < n:
        step = min(k, n - k)
        pw[k : k + step] = pw[:step] * pow(g, k, p) % p
        k += step
    return pw


def _c0_fft(p: int) -> np.ndarray:
    """c0(r/p) at index r of a length-p array (index 0 unused), p prime.

    One length-(p-1) cyclic correlation of the weights g^i mod p with the
    cot table read in generator order, scattered back to r = g^j.  The cot
    sequence is wrapped once and both are zero-padded to a power of two
    >= 2(p-1) - 1, where the linear correlation equals the cyclic one: p-1
    often has a large prime factor, which is slow to transform directly.
    """
    pw = _powers(_primitive_root(p), p)
    n = p - 1
    cots = cot_table(p)[pw]
    size = 1 << (2 * n - 2).bit_length()
    spectrum = np.conj(np.fft.rfft(pw.astype(float), size))
    spectrum *= np.fft.rfft(np.concatenate([cots, cots[: n - 1]]), size)
    corr = np.fft.irfft(spectrum, size)[:n]
    out = np.zeros(p)
    out[pw] = -corr / p
    return out


def batch_c0(b: int, threads: int = 1):
    """(r, c0(r/b)) for every r in 1..b-1 coprime to b.

    Prime b takes the multiplicative FFT; composite b takes the direct
    kernel of `core`, with the residues split over `threads` threads.
    Either way the values do not depend on the thread count.
    """
    _check_modulus(b)
    rs = _coprime(1, b - 1, b)
    if _is_prime(b):
        return rs, _c0_fft(b)[rs]
    return rs, direct_sums(rs, b, ("c0",), threads)[0][0]


def scan_arrays(window: ScanWindow, threads: int = 1):
    """Per-residue raw values: (r, c0(r/b), Q(r/b)) over the window.

    Q = c0(1/b) - r c0(r/b).  At prime b c0 is a slice of the whole-modulus
    FFT; at composite b the direct kernel computes c0 at 1 and the window
    on `threads` threads.
    """
    b = window.b
    rs = window_residues(window)
    if _is_prime(b):
        by_r = _c0_fft(b)
        c0 = by_r[rs]
        return rs, c0, by_r[1] - rs * c0
    c0 = direct_sums(np.concatenate([[1], rs]), b, ("c0",), threads)[0][0]
    return rs, c0[1:], c0[0] - rs * c0[1:]


def batch_c0_vq(b: int):
    """(r, c0, V, Q) for every r in 1..b-1 coprime to b.

    c0 takes the route of `batch_c0`.  V(r/b) = sum_m {m r / b} cot(pi m / b)
    and Q always come from the direct kernel by their own formulas, so at
    prime b the identity suites compare independent routes: V against
    -c0(r*/b), Q against the decomposition.
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
