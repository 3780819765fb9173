"""Exact evaluation of the cotangent sum c0(r/b) and its relatives.

c0(r/b) = -sum_{m=1}^{b-1} (m/b) cot(pi m r / b) for gcd(r, b) = 1, together
with the Vasyunin sum V, the floor-weighted sum Q, the Estermann value at the
origin, and two identity checks (a fractional-part identity and the
reciprocity defect).  c0, Q and V come from one direct-sum kernel,
`direct_sums`, at one residue or at an array of them (`cotsums.equidist`): it
pairs the terms at k and b - k, sweeps k < b/2 once for every requested sum
with cot(pi k/b) computed per cache-sized tile (no cot table), is serial,
uses no BLAS, and gives a value the same bit for bit whatever batch or set
of sums computes it (same machine and numpy build).  One loop serves
every call: residues in groups of about 2^18 cells (every unit of
b <= 725 is one group), each formed tile by tile with k and its
cotangents computed once per tile.  A sum ends in one math.fsum of its
pieces: its chunks' pairwise sums, or in oracle precision the exact parts
of error-free extraction, the routine that also sums the window moments.
`c0_q_v` is that sweep at one fraction: `cotsums c0` prints it in oracle
precision, and in default precision while (b - 1)//2 <= `_TILE_K`; past
that it prints `asymptotics.reciprocity_values`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ReducedFraction",
    "SumValue",
    "mod_inverse",
    "c0",
    "c0_q_v",
    "vasyunin",
    "q_sum",
    "direct_sums",
    "estermann_at_zero",
    "fractional_identity_check",
    "reciprocity_defect",
]

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class ReducedFraction:
    """Argument r/b of the sums: coprime, 1 <= r <= b, b >= 2."""

    r: int
    b: int

    def __post_init__(self):
        if self.b < 2:
            raise ValueError(f"b must be >= 2, got {self.b}")
        if not 1 <= self.r <= self.b:
            raise ValueError(f"r must lie in [1, b], got r={self.r}, b={self.b}")
        if math.gcd(self.r, self.b) != 1:
            raise ValueError(f"{self.r}/{self.b} is not reduced")

    @property
    def inverse(self) -> int:
        """r-bar with r * r-bar == 1 (mod b)."""
        return mod_inverse(self.r, self.b)


@dataclass(frozen=True)
class SumValue:
    """A value of a sum, a bound on its error and a count of its terms.

    `terms` is b - 1 for the direct sums of this module, and the number of
    reciprocity levels behind a value of `asymptotics.reciprocity_values`.
    """

    value: float
    err_bound: float
    terms: int

    def __post_init__(self):
        if self.err_bound < 0 or self.terms < 0:
            raise ValueError("err_bound and terms must be nonnegative")
        if not math.isfinite(self.value):
            raise ValueError("value must be finite")


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m-1].  Requires gcd(a, m) = 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible mod {m}")
    return pow(a, -1, m)


def _cot(k, b: int, out: np.ndarray) -> np.ndarray:
    # cot(pi k / b) into `out` as (k pi)/b, tan, 1/x: the same element operations
    # wherever it runs, so the direct kernel's tiles equal `cot_table` bit for bit
    np.divide(np.multiply(k, np.pi, out=out), b, out=out)
    return np.divide(1.0, np.tan(out, out=out), out=out)


def _cot_values(b: int) -> np.ndarray:
    """cot(pi j / b) for j = 0..b-1, with the mirror half filled by negation.

    T[0] is never a valid index for a reduced fraction and is set to 0.
    T[b/2] (even b) is pinned to exactly 0 so that c0(1/2) comes out exact.
    The mirror fill T[b-j] = -T[j] makes oddness of c0 exact in floats.
    Uncached: the whole-modulus FFT (`cotsums.equidist`) builds one per
    divisor and drops it, which a small LRU would only churn through.
    """
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    t = np.zeros(b)
    h = t[1 : (b + 1) // 2]  # j = 1..(b-1)//2, evaluated in place
    _cot(np.arange(1, len(h) + 1), b, h)
    np.negative(h[::-1], out=t[b // 2 + 1 :])
    return t


@lru_cache(maxsize=64)
def cot_table(b: int) -> np.ndarray:
    """`_cot_values(b)`, cached and read-only: the fractional-part identity
    reads it; the direct kernel computes its cotangents per tile."""
    t = _cot_values(b)
    t.flags.writeable = False
    return t


# Largest b whose int64 products r*m (direct kernel) and g^i * g^k (the FFT
# power table in `equidist`) cannot overflow: every factor is below b.
_B_MAX = math.isqrt(2**63 - 1)

# Terms per sum in a chunk of k, and the cells (residues times terms) of a
# group of residues that the direct kernel forms together.
_CELLS = 1 << 18
# The terms are formed in tiles of at most _TILE_K values of k, so that the
# integer and cot temporaries stay in L2 cache; the values do not depend on them.
_TILE_K = 1 << 14

_ROWS = ("c0", "q", "v")


def _check_modulus(b: int) -> None:
    if b < 2:
        raise ValueError("b >= 2 required")
    if b > _B_MAX:
        raise ValueError(f"b <= {_B_MAX} required (int64 residue products overflow above it)")


def _pairwise_dot(x: np.ndarray, y: np.ndarray) -> float:
    # sum x*y by numpy's pairwise `np.add.reduce`, never a BLAS dot: a long
    # `ddot` splits across threads past OpenBLAS's cutoff, and its bits then
    # follow the BLAS thread count
    return float(np.add.reduce(x * y))


# Columns per block of `_power_sums`: a block of every power stays in cache.
_POWER_BLOCK = 1 << 14


def _extract(p: np.ndarray, parts: list) -> np.ndarray:
    """Append to parts[i] floats whose exact sum is that of row i of the 2-D
    p, by error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput.
    31, 2008): with max |p| < 2^e over n columns, sigma = 2^(e + bitlen n + 1)
    makes q = (sigma + p) - sigma and p - q exact and q.sum() exact in any
    order; p -= q repeats until the row is zero.  A row past sigma's range
    (max |p| >= 2^(1022 - bitlen n)) is appended whole, a non-finite row not
    at all.  p is overwritten; returns which rows are finite."""
    rows, bits = np.arange(len(p)), p.shape[1].bit_length() + 1
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.maximum(p.max(axis=1), -p.min(axis=1))
        finite = np.isfinite(top)
        sigma = np.ldexp(1.0, np.frexp(top)[1] + bits)[:, None]
        for k in np.flatnonzero(finite & np.isinf(sigma[:, 0])).tolist():
            parts[k] += p[k].tolist()
        live = finite & np.isfinite(sigma[:, 0]) & (top > 0)
        while live.any():
            if not live.all():
                rows, p, sigma = rows[live], p[live], sigma[live]
            q = p + sigma
            q -= sigma
            p -= q
            for k, s in zip(rows.tolist(), q.sum(axis=1).tolist()):
                parts[k].append(s)
            top = np.maximum(p.max(axis=1), -p.min(axis=1))
            sigma, live = np.ldexp(1.0, np.frexp(top)[1] + bits)[:, None], top > 0
    return finite


def _power_sums(x: np.ndarray, k_max: int) -> list[float]:
    """sum x^k, k = 1..k_max, each with the bits of math.fsum of its running
    products p_k = p_(k-1) x, formed a block of columns at a time: math.fsum
    rounds once the exact parts that `_extract` takes from each block.  A
    non-finite power or sum gives inf."""
    parts, finite = [[] for _ in range(k_max)], np.ones(k_max, dtype=bool)
    for j in range(0, len(x), _POWER_BLOCK):
        p = np.empty((k_max, len(x[j : j + _POWER_BLOCK])))
        p[0] = x[j : j + _POWER_BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, k_max):
                np.multiply(p[k - 1], p[0], out=p[k])
        finite &= _extract(p, parts)
    sums = []
    for part, ok in zip(parts, finite.tolist()):
        try:
            sums.append(math.fsum(part) if ok else math.inf)
        except OverflowError:
            sums.append(math.inf)
    return sums


def _mod_product(s, k, b: int, prod: np.ndarray, res: np.ndarray) -> np.ndarray:
    # k s mod b into res: k s - b floor(k s / b) beats a remainder
    np.multiply(s, k, out=prod)
    np.floor_divide(prod, b, out=res)
    return np.subtract(prod, np.multiply(res, b, out=res), out=res)


def _fill(tile: dict, r, rbar, k, cot, b: int, prod, res) -> None:
    # The terms of each row of `tile` at residues r (a column) and the k of a tile.
    if "c0" in tile or "q" in tile:
        m = _mod_product(rbar, k, b, prod, res)  # m_k, shared by c0 and q
        if "q" in tile:
            np.floor_divide(np.multiply(m, r, out=prod), b, out=prod)
            np.subtract(np.left_shift(prod, 1, out=prod), r - 1, out=prod)
            np.multiply(prod, cot, out=tile["q"])
        if "c0" in tile:
            np.subtract(b, np.left_shift(m, 1, out=m), out=m)
            np.multiply(np.divide(m, b, out=tile["c0"]), cot, out=tile["c0"])
    if "v" in tile:
        kr = _mod_product(r, k, b, prod, res)
        np.subtract(np.left_shift(kr, 1, out=kr), b, out=kr)
        np.multiply(np.divide(kr, b, out=tile["v"]), cot, out=tile["v"])


def direct_sums(rs, b: int, rows, *, oracle: bool = False):
    """The sums `rows` ("c0", "q", "v") at each unit r of `rs`, and max |term|.

    The terms at m r = k and b - k (mod b) pair up, as cot(pi (b-k)/b) =
    -cot(pi k/b); so, with m_k = k rbar mod b, each sum runs over
    k = 1..(b-1)//2 with integer weights divided or converted once:
        c0: ((b - 2 m_k)/b) cot(pi k/b),  q: (2 floor(m_k r / b) - r + 1) cot(pi k/b),
        v: ((2 (k r mod b) - b)/b) cot(pi k/b),
    and c0(r/b) = -V(rbar/b), c0((b-r)/b) = -c0(r/b) hold bit for bit.
    The integer weights run in int32 when every product fits,
    b * max(b, max |r|) < 2^31 (so b <= 46340 at r <= b), else in int64;
    both widths give the same integers, hence the same values.
    k runs in chunks of min((b-1)//2, `_CELLS`) whose bounds depend only on
    b, the residues in groups of `_CELLS` // chunk, and a group's terms of
    every row are formed in tiles of at most `_TILE_K` values of k that
    compute k, its cotangents (the element operations of `cot_table`; no
    table is built) and m_k once for the group.  So memory is about 2^18
    terms per row, whatever b or len(rs).  math.fsum rounds each sum's
    pieces once (an empty sum is +0.0): its chunks' pairwise `np.add.reduce`
    sums, or with `oracle` the exact parts that `_extract` takes from blocks
    of about one tile's cells, so an oracle value is the float nearest the
    exact sum of its float terms.  A value does not depend on the other
    residues or rows.  Both results are (len(rows), len(rs)); a name may
    appear in `rows` once; |r| <= (2^63 - 1) // b, as int64 r m overflows.
    """
    _check_modulus(b)
    units, r_max = np.asarray(rs).tolist(), (2**63 - 1) // b
    if max(map(abs, units), default=0) > r_max:
        raise ValueError(f"|r| <= {r_max} required at b={b} (int64 products r*m overflow above it)")
    rbar = []
    for r in units:
        try:
            rbar.append(pow(r, -1, b))
        except ValueError:
            raise ValueError(f"r={r} is not a unit mod b={b}") from None
    return _direct_sums(np.array(units, dtype=np.int64), rbar, b, rows, oracle)


def _direct_sums(rs: np.ndarray, rbar, b: int, rows, oracle: bool = False):
    # `direct_sums` at the int64 units rs, given their inverses rbar mod b
    if len(set(rows)) != len(rows) or not set(rows) <= set(_ROWS):
        raise ValueError(f"rows must be distinct names from {_ROWS}, got {rows}")
    dtype = np.int32 if b * max(b, max(map(abs, rs.tolist()), default=0)) < 2**31 else np.int64
    rs, rbar = rs.astype(dtype), np.asarray(rbar, dtype=dtype)
    half = (b - 1) // 2
    chunk = max(1, min(half, _CELLS))
    width, group = min(chunk, _TILE_K), max(1, min(len(rs), _CELLS // chunk))
    several = oracle or chunk < half  # else a value is 0.0 + one pairwise sum, its math.fsum
    values, biggest = np.zeros((len(rows), len(rs))), np.zeros((len(rows), len(rs)))
    # Buffers allocated once: fresh chunk-sized temporaries would page-fault.
    terms, cbuf = np.empty(len(rows) * group * chunk), np.empty(width)
    ints = np.empty((2, group * width), dtype=dtype)
    for g0 in range(0, len(rs), group):
        g = min(group, len(rs) - g0)
        if group > 1:
            cols, lead, r, rb = slice(g0, g0 + g), (g,), rs[g0 : g0 + g, None], rbar[g0 : g0 + g, None]
        else:  # a lone residue is a scalar against k, which spares every ufunc a broadcast
            cols, lead, r, rb = g0, (), rs[g0], rbar[g0]
        parts = [[] for _ in range(len(rows) * g)] if several else None  # row-major
        for k0 in range(1, half + 1, chunk):
            n = min(chunk, half + 1 - k0)
            t = terms[: len(rows) * g * n].reshape(len(rows), *lead, n)
            for j in range(0, n, width):
                w = min(width, n - j)
                k = np.arange(k0 + j, k0 + j + w, dtype=dtype)
                iw = ints[:, : g * w].reshape(2, *lead, w)
                _fill(dict(zip(rows, t[..., j : j + w])), r, rb, k, _cot(k, b, cbuf[:w]), b, iw[0], iw[1])
            if oracle:
                top = np.maximum(np.abs(t.max(-1)), np.abs(t.min(-1)))  # before _extract zeroes t
                # blocks of about one tile's cells: `step` residues by `width` values of k
                step, t = max(1, _TILE_K // width), t.reshape(len(rows), g, n)
                for i in range(0, g, step):
                    for j in range(0, n, width):
                        block = t[:, i : i + step, j : j + width]
                        ids = [x * g + y for x in range(len(rows)) for y in range(i, i + block.shape[1])]
                        _extract(block.reshape(len(ids), -1), [parts[x] for x in ids])
            else:
                sums = np.add.reduce(t, axis=-1, initial=0.0)
                top = np.abs(t, out=t).max(axis=-1)
                if several:
                    for part, s in zip(parts, sums.ravel().tolist()):
                        part.append(s)
                else:
                    values[:, cols] = sums
            biggest[:, cols] = top if k0 == 1 else np.maximum(biggest[:, cols], top)
        if several:
            values[:, cols] = np.reshape([math.fsum(part) for part in parts], (len(rows), *lead))
    return values, biggest


def _values(f: ReducedFraction, rows, oracle: bool) -> tuple[SumValue, ...]:
    # `direct_sums` at f.r, whose range and inverse f vouches for
    _check_modulus(f.b)
    values, biggest = _direct_sums(np.array([f.r]), [pow(f.r, -1, f.b)], f.b, rows, oracle)
    scale = (f.b - 1) * _EPS
    return tuple(
        SumValue(v, err_bound=scale * m, terms=f.b - 1)
        for [v], [m] in zip(values.tolist(), biggest.tolist())
    )


def c0_q_v(f: ReducedFraction, oracle: bool = False) -> tuple[SumValue, SumValue, SumValue]:
    """(c0, Q, V) at r/b from one sweep of `direct_sums`.

    Each value, err_bound included, equals that of `c0`, `q_sum` or
    `vasyunin` bit for bit; the sweep computes each cotangent and m_k once.
    `cotsums c0` prints it with --precision oracle, and by default while
    the (b - 1)//2 paired terms fit one tile of `_TILE_K`.
    """
    return _values(f, _ROWS, oracle)


def c0(f: ReducedFraction, oracle: bool = False) -> SumValue:
    """c0(r/b) = -sum_{m=1}^{b-1} (m/b) cot(pi m r / b), `direct_sums` at one r.

    Summed as sum_{k<b/2} ((b - 2 m_k)/b) cot(pi k/b), m_k = k rbar mod b.
    The terms near k = 1 reach ~b/pi, which dominates err_bound = (b-1) eps
    max|term|.  oracle=True rounds the exact sum of the same terms once.
    """
    return _values(f, ("c0",), oracle)[0]


def vasyunin(f: ReducedFraction, oracle: bool = False) -> SumValue:
    """V(r/b) = sum_{m=1}^{b-1} {m r / b} cot(pi m / b).

    Summed as sum_{k<b/2} ((2 (k r mod b) - b)/b) cot(pi k/b), which makes
    V(r/b) = -c0(rbar/b), r*rbar == 1 (mod b), hold bit for bit.
    """
    return _values(f, ("v",), oracle)[0]


def q_sum(f: ReducedFraction, oracle: bool = False) -> SumValue:
    """Q(r/b) = sum_{m=1}^{b-1} cot(pi m r / b) * floor(r m / b).

    Summed as sum_{k<b/2} (2 floor(m_k r/b) - r + 1) cot(pi k/b), m_k = k rbar
    mod b.  Links the general value to the r = 1 case:
    c0(r/b) = (1/r) c0(1/b) - (1/r) Q(r/b).
    """
    return _values(f, ("q",), oracle)[0]


def estermann_at_zero(f: ReducedFraction, value: SumValue | None = None) -> tuple[float, float]:
    """Value at the origin of the associated divisor-twisted Dirichlet series.

    Returns the (re, im) pair (1/4, c0(r/b)/2), from `value` when that c0(f)
    has been summed already (in either precision).
    """
    return 0.25, 0.5 * (value or c0(f)).value


def fractional_identity_check(a: int, n: int, f: ReducedFraction) -> float:
    """Residual of the finite-sum formula for the fractional part {n a / b}.

    Checks the stride-r form
        {na/b} = 1/2 - (1/(2b)) sum_m cot(pi m r/b) sin(2 pi m nra/b)
    and the companion vanishing cosine sum
        sum_m cot(pi m r/b) cos(2 pi m nra/b) = 0,
    returning the larger of the two absolute residuals.  Reindexing m by
    m*rbar collapses the stride to 1, so the same fractional part comes out
    for every unit r; r = 1 is the plain expansion.  Requires b not to
    divide n*a.
    """
    r, b = f.r, f.b
    _check_modulus(b)
    if (n * a) % b == 0:
        raise ValueError(f"b={b} divides n*a={n * a}; identity hypotheses fail")
    t = cot_table(b)
    k = (n * r * a) % b
    m = np.arange(1, b)
    phase = 2.0 * np.pi * ((m * k) % b) / b
    cots = t[(m * r) % b]
    sin_sum = _pairwise_dot(cots, np.sin(phase))
    cos_sum = _pairwise_dot(cots, np.cos(phase))
    frac = ((n * a) % b) / b
    res_sin = abs(frac - (0.5 - sin_sum / (2.0 * b)))
    return max(res_sin, abs(cos_sum) / (2.0 * b))


def reciprocity_defect(f: ReducedFraction) -> float:
    """D(r/b) = c0(r/b) + (b/r) c0((b mod r)/r) - 1/(pi r).

    The second argument uses period 1 of c0 to read c0(b/r) as
    c0((b mod r)/r); this needs r >= 2.  Along rational sequences r_n/b_n
    converging to an irrational x the defect converges (a smoothness
    statement tested as a Cauchy property).
    """
    r, b = f.r, f.b
    if r < 2:
        raise ValueError("reciprocity defect needs r >= 2")
    inner = ReducedFraction(b % r, r)
    return c0(f).value + (b / r) * c0(inner).value - 1.0 / (math.pi * r)
