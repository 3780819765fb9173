"""Window scans over coprime residues and exponential-sum utilities.

A scan walks every r coprime to b with A0*b <= r <= A1*b, evaluates the
cotangent sum c0(r/b) and the floor-weighted sum Q(r/b), and accumulates
normalized moments:

    moments_c0[k] = sum c0(r/b)^k / (b^k  * phi(b)),
    moments_q[k]  = sum  Q(r/b)^k / (b^2k * phi(b)),   k = 1 .. 2*k_max.

The even c0-moments approach H_k*(A1-A0) and the even Q-moments approach
E_k*(A1^{2k+1}-A0^{2k+1}), which is what the moment tests consume.  Each
power sum is of running-product powers, summed by error-free extraction with
the same bits as math.fsum (`core._power_sums`).  The
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

a correlation on the group (Rader, Proc. IEEE 56, 1968).  -1 sits at exponent
0 or n/2 on each axis, so m pairs with e - m across the halves of one axis:
linear along it, cyclic along the others, and exactly odd (`_correlate`).
b's index map is the one layout: each divisor's map is a corner of it, read
mod e, and each divisor's values add into b's table through a reshaped view.
`core.direct_sums` gives V and Q by their own formulas (`batch_c0_vq`), so
identity checks compare independent routes.  Every kernel here is serial.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .core import _B_MAX, _check_modulus, _cot_values, _direct_sums, _pairwise_dot, _power_sums
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


# Factorizations are cached, read-only: every check of a modulus asks for
# them again, and `ramanujan` for each n.
@lru_cache(maxsize=4096)
def _factorize(n: int) -> MappingProxyType:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return MappingProxyType(factors)


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


def _axis_lengths(p: int, k: int, j: int) -> list[int]:
    """The lengths of the axes of p^k (`_unit_axes`) read mod p^j, 0 <= j <= k:
    phi(p^j) on odd p's axis; for p = 2, 2 or 1 on the axis of -1 (k >= 2)
    and 2^(j-2) or 1 on the axis of 5 (k >= 3)."""
    if p > 2:
        return [p**j - p**j // p]
    return [2 if j >= 2 else 1, 1 << max(j - 2, 0)][: k - 1]


def _unit_axes(e: int) -> list[tuple[int, int]]:
    """(generator, order) of each cyclic factor of the unit group (Z/e)^*.

    Per prime power q = p^k of e, by ascending p: one axis for odd p; none
    for 2; the element -1 for 4; -1 and 5 for 2^k, k >= 3.  Each generator
    is lifted by CRT to be 1 mod e/q, so a product of generator powers runs
    over every unit once (the prime-factor index map of Good, 1958).
    """
    axes = []
    for p, k in _factorize(e).items():
        q = p**k
        gens = [_prime_power_root(p, k)] if p > 2 else [q - 1, 5]  # zip keeps the k - 1 <= 2 axes of 2^k
        rest = e // q
        axes += [(1 + rest * ((g - 1) * pow(rest, -1, q) % q), n) for g, n in zip(gens, _axis_lengths(p, k, k))]
    return axes


def _powers(g: int, e: int, n: int) -> np.ndarray:
    """g^i mod e for i = 0..n-1: g^(i s + j) = (g^s)^i g^j with s = ceil(sqrt(n)),
    one outer product of two runs of s powers."""
    s = math.isqrt(n - 1) + 1
    high, low = (np.array(list(itertools.accumulate([x] * (s - 1), lambda y, z: y * z % e, initial=1)))
                 for x in (pow(g, s, e), g))
    return (np.multiply.outer(high, low) % e).reshape(-1)[:n]


def _index_map(e: int) -> np.ndarray:
    """The units mod e at their exponent vectors: units[i] = prod_j g_j^(i_j)
    mod e over the axes (g_j, n_j) of `_unit_axes(e)`, of shape (n_1, ...);
    0-d, the one unit, at e = 2."""
    runs = [_powers(g, e, n) for g, n in _unit_axes(e)]
    units = runs[0] if runs else np.ones((), dtype=np.int64)
    for run in runs[1:]:
        units = np.multiply.outer(units, run) % e
    return units


def _inverses(units: np.ndarray) -> np.ndarray:
    """The inverse of each unit of an index map, in the unit's place: the
    unit at the negated exponent vector, -i mod (n_1, ...)."""
    return units[np.ix_(*(-np.arange(n) % n for n in units.shape))]


def _smooth_size(n: int) -> int:
    """The least 2^i 3^j 5^k >= n, a length that pocketfft transforms fast."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35 << ((n - 1) // p35).bit_length()  # the least p35 * 2^i >= n
            if size < best:
                best = size
            p35 *= 3
        p5 *= 5
    return best


def _correlate(units: np.ndarray, e: int) -> np.ndarray:
    """c0*(u; e) = -(1/e) sum_m m cot(pi m u / e) at every unit u of the index
    map U = `units`, in U's shape and order.

    The sum over the units m is a correlation of the weights m with the cot
    table, both read in index order.  -1 = U[s] has order 2: s_j = n_j/2 on
    every axis but that of 5 (axis 1 when 8 | e), where s_j = 0.  On the
    shortest axis a with s_a > 0, m = U[i] and e - m = U[i+s] lie in
    opposite halves, and cot(pi (e - x)/e) = -cot(pi x/e), so

        c0*(U[j]; e) = -(1/e) sum_{i_a < n_a/2} (2 U[i] - e) cot(pi U[i+j]/e).

    For j_a < n_a/2, i_a + j_a < n_a - 1: the correlation is linear along a,
    reading the cot table at k_a < n_a - 1 with no wrap, zero-padded to the
    least 5-smooth length >= n_a - 1, and cyclic at exact length along the
    other axes; on one axis it is the Rader correlation.  The second half
    along a is c0*(U[j+s]) = -c0*(U[j]), the first half negated and rolled
    by s on the other axes, so oddness is exact.
    """
    if units.size == 1:  # e = 2: c0*(1; 2) = -cot(pi/2)/2 = +0.0
        return np.zeros(units.shape)
    halved = [j != 1 or e % 8 > 0 for j in range(units.ndim)]  # s_j = n_j/2
    a = min((j for j in range(units.ndim) if halved[j]), key=units.shape.__getitem__)
    n = units.shape[a]
    axes = (*range(a), *range(a + 1, units.ndim), a)  # a last: the real-FFT axis
    sizes = [units.shape[j] for j in axes[:-1]] + [_smooth_size(n - 1)]
    half = (slice(None),) * a + (slice(n // 2),)
    spectrum = np.conj(np.fft.rfftn(2.0 * units[half] - e, sizes, axes))
    spectrum *= np.fft.rfftn(_cot_values(e)[units[(slice(None),) * a + (slice(n - 1),)]], sizes, axes)
    values = np.fft.irfftn(spectrum, sizes, axes)[half] / -e
    # the roll by s_j = n_j/2 swaps the halves of (2, n_j/2): a reversed view
    halved[a] = False
    dims = [x for m, h in zip(values.shape, halved) for x in ((2, m // 2) if h else (1, m))]
    second = -values.reshape(dims)[(slice(None, None, -1), slice(None)) * units.ndim]
    return np.concatenate([values, second.reshape(values.shape)], a)


# Divisor values up to this e are kept, read-only, in index order, about 40 kB
# in all: a run over many moduli (the identity suites) meets them at every multiple.
_SMALL_PART = 128
_small_parts: dict[int, np.ndarray] = {}


def _c0_fft(b: int) -> tuple[np.ndarray, np.ndarray]:
    """(c0 by r, units) for every b >= 2: c0(r/b) at index r of a length-b
    array (0 where gcd(r, b) > 1), and the index map of b (`_index_map`).

    Write d = gcd(m, b) and e = b/d: the term of m is -(1/e) m' cot(pi m' r/e)
    with m = d m' and m' a unit mod e, so

        c0(r/b) = sum over divisors e > 1 of b of c0*(r mod e; e),

    one unit-group correlation per divisor (`_correlate`).  b's generators
    reduce mod e to e's and e's axis lengths n(e) divide b's (`_axis_lengths`),
    so e's index map is the corner i < n(e) of b's, read mod e, and b's index
    i takes e's value at i mod n(e): one reshaped view of b's accumulator.
    """
    units = _index_map(b)
    acc = _correlate(units, b)
    divisors = [(1, [])]  # (e, the lengths n(e) of b's axes read mod e)
    for p, k in _factorize(b).items():
        lengths = [_axis_lengths(p, k, j) for j in range(k + 1)]
        divisors = [(e * p**j, shape + lengths[j]) for e, shape in divisors for j in range(k + 1)]
    # b itself is acc; e = 2 adds c0*(1; 2) = -cot(pi/2)/2 = 0
    for e, shape in sorted(d for d in divisors if 2 < d[0] < b):
        values = _small_parts.get(e)
        if values is None:
            corner = units[tuple(slice(n) for n in shape)] % e
            values = _correlate(corner.reshape([n for n in shape if n > 1]), e)
            if e <= _SMALL_PART:
                values.flags.writeable = False
                _small_parts[e] = values
        view = acc.reshape([x for n, m in zip(units.shape, shape) for x in (n // m, m)])
        view += values.reshape([x for m in shape for x in (1, m)])
    out = np.zeros(b)
    out[units] = acc
    return out, units


def batch_c0(b: int):
    """(r, c0(r/b)) for every r in 1..b-1 coprime to b: a slice of `_c0_fft(b)`.

    The units come from the FFT's index map, sorted by a mask: c0 itself can
    be 0 at a unit (c0(1/2) = 0).
    """
    _check_modulus(b)
    by_r, units = _c0_fft(b)
    is_unit = np.zeros(b, dtype=bool)
    is_unit[units] = True
    rs = np.flatnonzero(is_unit)
    return rs, by_r[rs]


def scan_arrays(window: ScanWindow):
    """Per-residue raw values: (r, c0(r/b), Q(r/b)) over the window.

    c0 is a slice of the whole-modulus table `_c0_fft(b)`, and
    Q = c0(1/b) - r c0(r/b) comes from the same table.
    """
    rs = window_residues(window)
    if len(rs) == 0:  # before the table: it is built for the whole modulus
        raise ValueError("window contains no admissible residue")
    by_r, _ = _c0_fft(window.b)
    c0 = by_r[rs]
    return rs, c0, by_r[1] - rs * c0


def batch_c0_vq(b: int):
    """(r, c0, V, Q, rbar) for every r in 1..b-1 coprime to b, r rbar = 1 (mod b).

    c0 is the table of `batch_c0`.  V(r/b) = sum_m {m r / b} cot(pi m / b)
    and Q come from the direct kernel by their own formulas, so at every b
    the identity suites compare independent routes: V against -c0(rbar/b),
    Q against the decomposition.  rbar is read off the FFT's index map
    (`_inverses`), and the kernel takes it from there.
    """
    _check_modulus(b)
    by_r, units = _c0_fft(b)
    inverse = np.zeros(b, dtype=np.int64)  # nonzero exactly at the units
    inverse[units] = _inverses(units)
    rs = np.flatnonzero(inverse)
    rbar = inverse[rs]
    q, v = _direct_sums(rs, rbar, b, ("q", "v"))[0]
    return rs, by_r[rs], v, q, rbar


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


def scan(window: ScanWindow, k_max: int, *, reference: EmpiricalCDF | None = None,
         deterministic: bool = False) -> ScanReport:
    """Moment scan over the window; powers 1..2*k_max of both sums.

    The powers are running products, summed by error-free extraction
    (`core._power_sums`) with the same bits as math.fsum of them, so reports
    are bit-identical across reruns.  A k_max whose moments or normalizers
    leave the float range is rejected with the largest one that stays in it.
    With `deterministic` the wall-clock field is zeroed as well.  A
    `reference` CDF turns on the Kolmogorov-Smirnov comparison.
    """
    if k_max < 1:
        raise ValueError("k_max >= 1 required")
    tic = time.perf_counter()
    b = window.b
    rs, c0, q = scan_arrays(window)
    phi = euler_phi(b)
    # b^2k >= 2^1024 past k = 512 // (bitlen(b) - 1): no power beyond is formed
    rows = min(2 * k_max, 512 // (b.bit_length() - 1))
    sums = list(zip(_power_sums(c0, rows), _power_sums(q, rows)))
    moments_c0: dict[int, float] = {}
    moments_q: dict[int, float] = {}
    for k in range(1, 2 * k_max + 1):
        try:  # an inf power sum or b**k: rejected below
            s = (*sums[k - 1], float(b) ** k * phi, float(b) ** (2 * k) * phi)
        except (IndexError, OverflowError):
            s = (math.inf,)
        if not all(map(math.isfinite, s)):
            raise ValueError(f"k_max = {k_max} is too large at b = {b}: a power-{k} moment leaves "
                             f"the float range (k_max <= {(k - 1) // 2} stays in it)")
        moments_c0[k], moments_q[k] = s[0] / s[2], s[1] / s[3]
    cdf = EmpiricalCDF.from_samples(c0 / b)
    ks = ks_distance(cdf, reference) if reference is not None else None
    wall = 0.0 if deterministic else (time.perf_counter() - tic) * 1e3
    return ScanReport(b=b, a0=window.a0, a1=window.a1, phi=phi, count=len(rs), moments_c0=moments_c0,
                      moments_q=moments_q, cdf=cdf, ks_distance=ks, wall_ms=wall, residues=rs,
                      c0_values=c0, q_values=q)


def q_approx(r: int, b: int, m1: int) -> float:
    """(b r / pi) * f(b*/r; m1) with b b* = 1 (mod r): the series model of Q.

    Needs 2 <= r < b <= `core._B_MAX`.  The sawtooth arguments l*b*/r are
    reduced exactly in integers as ((l mod r) b*) mod r, whose products stay
    below r^2 < 2^63, so the value is free of phase rounding.
    """
    if r < 2:
        raise ValueError("r >= 2 required (Q(1/b) = 0 is exact upstream)")
    if r >= b:
        raise ValueError(f"r < b required, got r={r}, b={b}")
    _check_modulus(b)
    if math.gcd(r, b) != 1:
        raise ValueError(f"gcd(r, b) = {math.gcd(r, b)} != 1")
    bstar = pow(b, -1, r)
    l = np.arange(1, TruncatedGSeries(m1).terms + 1, dtype=np.int64)
    res = (l % r) * bstar % r
    saw = 1.0 - 2.0 * (res / r)
    saw[res == 0] = 0.0
    return b * r / math.pi * _pairwise_dot(saw, 1.0 / l)


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
    """c_q(n) by the Moebius-divisor formula sum_{d | (q, n)} mu(q/d) d.

    mu(q/d) comes from the one factorization of q: it vanishes unless every
    prime power p^e exactly dividing q leaves p^e or p^(e-1) in d (sign +1
    or -1 at p), so the sum factors into prod_p ([p^e | n] p^e - [p^(e-1) | n] p^(e-1)).
    """
    if q < 1:
        raise ValueError("q >= 1 required")
    total = 1
    for p, e in _factorize(q).items():
        hi, lo = p**e, p ** (e - 1)
        total *= (hi if n % hi == 0 else 0) - (lo if n % lo == 0 else 0)
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
