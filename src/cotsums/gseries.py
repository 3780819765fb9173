"""The sawtooth series g(alpha), its truncations, and their statistics.

f(alpha; m1) = sum_{l <= 2^m1} B(l alpha)/l with B(u) = 1 - 2{u} and the
convention B(u) = 0 for integer u (the value of the sine series at integer
arguments; the raw sawtooth would make the series diverge at every rational).
The series defines a.e. the limit profile of the normalized cotangent sums,
so this module also carries its Fourier-coefficient form, the
continued-fraction convergence criterion, even-moment tables H_k / D_{2k},
and the empirical distribution function used as the scan reference.

The dense evaluator `_f_points` claims slabs of points on every CPU in the
process's affinity mask; every other kernel here is serial, and no value
depends on the CPU count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import _pairwise_dot, _power_sums

__all__ = [
    "TruncatedGSeries",
    "ContinuedFraction",
    "EmpiricalCDF",
    "MomentTable",
    "f_eval",
    "g_fourier_eval",
    "FOURIER_CONSTANT",
    "fourier_coeffs_f",
    "cf_expand",
    "cf_from_quotients",
    "convergence_classifier",
    "ClassifierResult",
    "hk_table",
    "hk_growth_check",
    "empirical_F",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Scale of the sine coefficients: f(x; m1) = sum_k (2/pi) d(k; m1)/k sin(2 pi k x),
# d(k; m1) counting the divisors of k up to 2^m1, and g's coefficients are
# f's with that cap removed, (2/pi) d(k)/k.
FOURIER_CONSTANT = 2.0 / math.pi

# Cells per step of the grid routes and the sine coefficients: a block of the
# binned kernel or of the Fourier fold, a slice of the weights.
_BLOCK = 1 << 16

# Tiles of `_f_points` per slab, the unit of work its threads claim.
_SLAB_TILES = 8


@dataclass(frozen=True)
class TruncatedGSeries:
    """Truncation parameter: the series is cut at L = 2^m1 terms."""

    m1: int

    def __post_init__(self):
        if self.m1 < 1 or self.m1 > 40:
            raise ValueError(f"m1 out of range: {self.m1}")

    @property
    def terms(self) -> int:
        return 1 << self.m1


def f_eval(alpha: float, t: TruncatedGSeries) -> float:
    """f(alpha; m1) = sum_{l <= 2^m1} B(l*alpha)/l."""
    return float(_f_points(np.array([alpha]), t.m1)[0])


def _cpus() -> int:
    # CPUs this process may run on: its affinity mask where the OS has one
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _check_prefix(prefix: int | None, m1: int) -> None:
    if prefix is not None and not 1 <= prefix <= m1:
        raise ValueError(f"prefix must lie in 1..{m1}, got {prefix}")


def _f_points(alphas: np.ndarray, m1: int, prefix: int | None = None):
    """f(alpha_i; m1) at a batch of points: the one evaluator of the series.

    Points x terms run in L2-sized tiles of at most 2^16 cells, min(2^m1, 2^12)
    terms wide, through two reused buffers; B(u) = ceil({u}) - 2{u}.  Each
    tile row is weighted and summed in one pass, `np.vecdot` with the chunk's
    1/l (a BLAS `ddot` of that fixed width per row), and the chunks are added
    in l order.  A row's dot depends only on its own B values, so a point's
    value is the same bit for bit alone or in any batch; the width stays below
    OpenBLAS's 10 000-element threading cutoff, so it is also the same under
    any BLAS thread count.  B(1 - u) = -B(u) holds exactly at dyadic u and the
    dot is odd in its weights, so f(1 - x) = -f(x) stays exact there.

    The points run in slabs of `_SLAB_TILES` tiles, whose bounds depend only
    on the number of points and on m1.  The calling thread and one thread for
    each further CPU in the affinity mask (`_cpus`) claim slabs in order from
    one shared iterator, each with its own buffers, and sweep every chunk of
    a slab before claiming the next.  A point's row dots are the same and are
    added in the same order on any thread, so no value depends on the CPU
    count.  One slab, or one CPU, starts no thread.  The threads are joined
    before the call returns, and the first error raised in any of them is
    raised again then.

    With `prefix` in 1..m1 the same sweep also yields f(alpha_i; prefix), its
    partial sum at l = 2^prefix, and the result is the pair of both.  That
    sum is a `vecdot` over the first 2^prefix columns of the first chunk
    when it is narrower than a chunk, else `out` after the chunk that ends
    at l = 2^prefix.  Either way it adds the same row dots of the same width
    in the same order as `_f_points(alphas, prefix)`, so it equals that bit
    for bit.
    """
    terms = TruncatedGSeries(m1).terms
    _check_prefix(prefix, m1)
    alphas = np.asarray(alphas, dtype=float)
    n = len(alphas)
    width = min(terms, 1 << 12)
    height = max(1, min(n, (1 << 16) // width))
    part = 0 if prefix is None else 1 << prefix
    out, head = np.zeros(n), None if prefix is None else np.zeros(n)
    slabs = range(0, n, _SLAB_TILES * height)
    if len(slabs) < 2:
        _f_slabs(slabs, alphas, terms, height, part, out, head)
    else:
        _spread(_f_slabs, slabs, alphas, terms, height, part, out, head)
    return out if prefix is None else (out, head)


def _f_slabs(starts, alphas, terms, height, part, out, head):
    # `_f_points`' sweep of the slabs that begin at `starts`, each slab through
    # every chunk, with this thread's own two tile buffers
    n, width, slab = len(alphas), min(terms, 1 << 12), _SLAB_TILES * height
    u, w = np.empty((height, width)), np.empty((height, width))
    for s in starts:
        end = min(s + slab, n)
        for lo in range(1, terms + 1, width):
            l = np.arange(lo, lo + width, dtype=float)
            inv = 1.0 / l
            for p in range(s, end, height):
                a = alphas[p : p + height, None]
                ut, wt = (u, w) if len(a) == height else (u[: len(a)], w[: len(a)])
                np.multiply(a, l, out=ut)
                np.floor(ut, out=wt)
                np.subtract(ut, wt, out=ut)
                np.ceil(ut, out=wt)
                np.add(ut, ut, out=ut)
                np.subtract(wt, ut, out=wt)
                acc = out[p : p + len(a)]  # a view: += on it skips a copy back
                acc += np.vecdot(wt, inv)
                if lo == 1 and 0 < part < width:
                    acc = head[p : p + len(a)]
                    acc += np.vecdot(wt[:, :part], inv[:part])
            if lo + width - 1 == part:
                head[s:end] = out[s:end]


def _spread(sweep, slabs: range, *args) -> None:
    # sweep(starts, *args) on the calling thread and on one more thread per
    # further CPU, every thread claiming slab starts in order from one shared
    # iterator; all threads are joined before the first error of any is raised again
    threads = min(len(slabs), _cpus())
    if threads == 1:
        return sweep(slabs, *args)
    todo, lock, errors = iter(slabs), threading.Lock(), []

    def claim():
        while not errors:
            with lock:
                s = next(todo, None)
            if s is None:
                return
            yield s

    def work():
        try:
            sweep(claim(), *args)
        except BaseException as exc:  # raised again on the calling thread after the join
            errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]


def _mod(x: np.ndarray, n: int) -> np.ndarray:
    # x mod n in place, bit for bit np.remainder's for 0 <= x < 2^53 at a tenth
    # of its cost: with q = floor(x/n), x - n q is a multiple of ulp(x) in
    # [0, n), hence exact, and fl(x/n) < q + 1, as q + 1 - x/n >= ulp(x)/n
    # exceeds half the spacing of floats below q + 1
    q = np.floor(np.divide(x, n))
    return np.subtract(x, np.multiply(q, n, out=q), out=x)


def _f_offset_grid(n: int, c: float, m1: int, prefix: int | None = None):
    """f at the uniform offset grid alpha_j = ((j + c)/n) mod 1, j = 0..n-1.

    For L = 2^m1 > 4n, a residue-paired block kernel.  With l = t*n + a,
    h_l = (l*c) mod n and r = (a*j) mod n, {l alpha_j} = (r + h_l)/n - [r >= m_l]
    where m_l = n - floor(h_l), so f_j = H_L - (2/n) sum_l h_l/l + sum_a G_a[r],
    G_a[r] = sum_{l in class a} (2[r >= m_l] - 2r/n)/l; residue 0 adds only
    constants.  As (n-a)*j = -a*j mod n, classes a and n - a share one table
    G_a[r] + G_{n-a}[-r] from one difference array and one `cumsum` (n/2 of
    even n pairs with itself).  Blocks of 2^16 // n pairs (about 2^16
    cells) are gathered at r, which a uint32 add and an unsigned-wrap `minimum`
    advance with no integer modulo: O(n^2 + L), no sort.  Each block builds
    its classes' l, h_l and 1/l itself, in chunks of rows t of about 2^16
    cells (one chunk below L ~ n^2/2), whose weights `np.add.at` adds one
    after another, in array order, into the block's reused difference array.  The
    constant H_L - (2/n) sum_l h_l/l is summed from every chunk's pieces,
    class 0's included, by one `math.fsum` and added after the blocks.  So
    the kernel holds a few 2^16-cell arrays whatever L is.  At L <= 4n the dense
    `_f_points` sweep runs; the switch is conservative (on 2 vCPUs, n = 1201
    to 8191, the kernel ran 0.9-1.2x the dense sweep's speed at L = 2n,
    1.1-1.6x at L = 2.7n-3.4n and 1.8-2.2x at L = 4n).  No l*alpha_j may be an
    integer (offsets away from rationals); tests pin agreement with
    `_f_points`.
    With `prefix` in 1..m1 it returns the pair (f(.; m1), f(.; prefix)) on the
    grid, from one `_f_points` sweep on the dense route and from two calls,
    one after the other, on the binned route.
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    _check_prefix(prefix, m1)
    big_l = 1 << m1
    if big_l <= 4 * n:
        return _f_points(((np.arange(n) + c) / n) % 1.0, m1, prefix)
    if prefix is not None:  # one row after the other, so their buffers never overlap
        return _f_offset_grid(n, c, m1), _f_offset_grid(n, c, prefix)

    rows, cn, pieces = big_l // n + 1, c % n, []  # l*cn >= 0 keeps h in [0, n), also for c < 0

    def terms(a, t0, t1):
        # h_l and 1/l (0 past L) at l = t*n + a, t0 <= t < t1 on the last axis,
        # with their pieces of the constant H_L - (2/n) sum h_l/l
        l = np.arange(t0 * n, t1 * n, n, dtype=float) + a[..., None]
        inv = np.divide(1.0, l)
        if t1 == rows:
            inv[..., -1] *= l[..., -1] <= big_l
        if a.ndim and a[-1, 0] == a[-1, 1]:
            inv[-1, 1] = 0.0  # class n/2 of even n pairs with itself: counted once
        h = _mod(np.multiply(l, cn, out=l), n)
        pieces.extend((inv.sum(), -2.0 / n * (h * inv).sum()))
        return h, inv

    for t0 in range(1, rows, _BLOCK):  # class 0 adds only constants
        terms(np.zeros(()), t0, min(t0 + _BLOCK, rows))
    # pair p joins class a = p + 1 with class n - a; a block's difference-array keys
    # are n - floor(h) and floor(h) + 1 (pair i's bins start at i*(n+1)), weights +-2/l
    pairs = n // 2
    width = max(1, min(pairs, _BLOCK // n))
    span = max(1, _BLOCK // (2 * width))  # rows t per chunk of a block
    j, k = np.arange(n), np.arange(width)[:, None]
    r = ((k + 1) * j % n).astype(np.uint32)
    step, base = (width * j % n).astype(np.uint32), (k * (n + 1)).astype(np.uint32)
    ends, sign = base[:, :, None] + np.array([[n], [1]]), np.array([[-1.0], [1.0]])
    cols = np.arange(1, pairs + 1)[:, None] * [1, -1] + [0, n]  # [a, n - a]
    idx, spare, vals = np.empty_like(r), np.empty_like(r), np.empty(r.shape)
    out, table = np.zeros(n), np.empty((width, n + 1))
    for p in range(0, pairs, width):
        q = min(p + width, pairs)
        table.fill(0.0)
        total = np.zeros(q - p)
        for t0 in range(0, rows, span):
            h, inv = terms(cols[p:q], t0, min(t0 + span, rows))
            keys = (np.floor(h) * sign).astype(np.int64) + ends[: q - p]
            wts = inv * (-2.0 * sign)
            np.add.at(table.ravel(), keys.ravel(), wts.ravel())
            total += wts.reshape(q - p, -1).sum(axis=1)
        table[: q - p, 1:] -= total[:, None] / n
        np.cumsum(table, axis=1, out=table)
        np.add(r, base, out=idx)
        out += np.add.reduce(np.take(table, idx, out=vals, mode="clip"), axis=0)
        r += step
        np.minimum(r, np.subtract(r, n, out=spare), out=r)
    out += math.fsum(pieces)
    return out


def _fourier_offset_grid(n: int, c: float, M: int) -> np.ndarray:
    """Divisor-series route on the offset grid alpha_j = (j + c)/n mod 1.

    With x_j = (j + c)/n the phases e^{2 pi i k x_j} depend on k only through
    k mod n once the offset twist e(k c / n) = e^{2 pi i k c / n} is absorbed
    into the coefficients, so the whole k <= M sum collapses to an n-bin fold
    and one inverse FFT.  With k = t n + a the twist splits as
    e(t c) e(a c / n): the weights, read as an (M // n + 1) x n matrix
    (k = 0 and k > M weigh 0), are summed along t against cos and sin of the
    row phases 2 pi t c, the real and imaginary parts one after the other, by
    `np.add.reduce` (in t order, no BLAS), and bin a is then turned by
    e(a c / n).  So M // n + 1 + n exponentials replace M, and the phase error
    is about (M/n) eps instead of M eps.  The fold copies the cached weights
    in blocks of 2^16 // n rows, and each block's sum starts from the running
    sums in its first row, so every bin adds its terms one after another in
    t order while the fold holds a few 2^16-cell arrays beside the weights.
    """
    if n < 1 or M < 1:
        raise ValueError("n >= 1 and M >= 1 required")
    weights, rows = _fourier_weights(M), M // n + 1
    height = max(1, _BLOCK // n)
    buf, sums = np.empty((height + 1, n)), np.zeros((2, n))
    for t0 in range(0, rows, height):
        t1 = min(t0 + height, rows)
        lo, hi = max(t0 * n, 1), min(t1 * n, M + 1)  # the block's k with weights
        w = np.zeros((t1 - t0, n))
        w.ravel()[lo - t0 * n : hi - t0 * n] = weights[lo - 1 : hi - 1]
        phase = 2.0 * np.pi * (np.arange(t0, t1) * c % 1.0)
        for acc, wave in zip(sums, (np.cos(phase), np.sin(phase))):
            buf[0] = acc
            np.multiply(w, wave[:, None], out=buf[1 : len(w) + 1])
            np.add.reduce(buf[: len(w) + 1], axis=0, out=acc)
    folded = sums[0] + 1j * sums[1]
    folded *= np.exp(2j * np.pi * (np.arange(n) * (c / n) % 1.0))
    return np.fft.ifft(folded).imag * n


def _tau(limit: int, cap: int | None = None) -> np.ndarray:
    # counts of the divisors <= cap of 1..limit, index 0 unused: one slice per
    # divisor up to isqrt(limit), then one per cofactor j of the larger ones;
    # uint16 holds every count, tau(k) <= 6720 for k <= 10^12
    cap = limit if cap is None else cap
    s = math.isqrt(limit)
    d = np.zeros(limit + 1, dtype=np.uint16)
    for l in range(1, min(s, cap) + 1):
        d[l::l] += 1
    for j in range(1, limit // (s + 1) + 1):
        d[j * (s + 1) : j * cap + 1 : j] += 1
    return d


def _sine_coeffs(K: int, cap: int) -> np.ndarray:
    # FOURIER_CONSTANT * d(k; cap)/k, k = 1..K, d counting the divisors <= cap,
    # formed a slice of 2^16 at a time next to the 2-byte counts
    d, out = _tau(K, cap), np.empty(K)
    for lo in range(1, K + 1, _BLOCK):
        hi = min(lo + _BLOCK, K + 1)
        out[lo - 1 : hi - 1] = FOURIER_CONSTANT * d[lo:hi] / np.arange(lo, hi, dtype=float)
    return out


@lru_cache(maxsize=8)
def _fourier_weights(M: int) -> np.ndarray:
    # g's uncapped `_sine_coeffs`, k = 1..M, read-only, for both Fourier routes
    weights = _sine_coeffs(M, M)
    weights.flags.writeable = False
    return weights


def g_fourier_eval(alpha: float, M: int) -> float:
    """Divisor-series route: c * sum_{l<=M} tau(l)/l sin(2*pi*l*alpha).

    c is `FOURIER_CONSTANT`.  Arguments above 1/2 are reflected through the
    exact identity g(1 - a) = -g(a) before evaluation, so the sine-oddness
    symmetry holds exactly in floating point.  Each phase {l alpha} is folded
    into (-1/2, 1/2] by subtracting 1 above 1/2, which is exact, so mirror
    pairs {u} and 1 - {u} keep exactly opposite sines.
    """
    if M < 1:
        raise ValueError("M >= 1 required")
    alpha = alpha - math.floor(alpha)
    if alpha == 0.0:
        return 0.0
    if alpha > 0.5:
        return -g_fourier_eval(1.0 - alpha, M)
    u = np.arange(1.0, M + 1.0)
    u *= alpha
    u -= np.floor(u)
    u -= u > 0.5
    u *= 2.0 * np.pi
    return _pairwise_dot(np.sin(u, out=u), _fourier_weights(M))


def fourier_coeffs_f(t: TruncatedGSeries, K: int) -> np.ndarray:
    """Sine-basis coefficients of f(.; m1): s_k = (2/pi) d(k; m1) / k.

    d(k; m1) counts divisors of k not exceeding 2^m1, so s_k is stable in m1
    once k <= 2^m1.  Entry [k-1] is the coefficient of sin(2 pi k x);
    sum s_k^2 / 2 is the Parseval mass (each exponential pair +-k carries
    s_k^2/4).
    """
    if K < 1:
        raise ValueError("K >= 1 required")
    return _sine_coeffs(K, t.terms)


@dataclass
class ContinuedFraction:
    """Partial quotients and exact convergents of alpha in [0, 1)."""

    alpha: float
    partial_quotients: list[int]
    convergents: list[tuple[int, int]]
    terminated: bool = False

    def __post_init__(self):
        qs = [q for _, q in self.convergents]
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise ValueError("convergent denominators must increase strictly")
        for (p0, q0), (p1, q1) in zip(self.convergents, self.convergents[1:]):
            if abs(p1 * q0 - p0 * q1) != 1:
                raise ValueError("convergents fail the determinant recurrence")


def cf_expand(alpha: float, max_terms: int) -> ContinuedFraction:
    """Continued fraction of alpha by the Gauss map.

    Stops after max_terms quotients or when the remainder underflows
    (rationals terminate; the tail of a float expansion beyond ~15 quotients
    reflects the float, not the intended real).  A remainder above 1 - 1e-9
    snaps up, so a run a, 1, q with q >~ 1e9 folds into a + 1: the float of
    [0; 2, 1, 10^10] expands to [3], terminated.  Use `cf_from_quotients` for such runs.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if max_terms < 1:
        raise ValueError("max_terms >= 1 required")
    quotients: list[int] = []
    x = alpha
    terminated = x <= 1e-12
    while not terminated and len(quotients) < max_terms:
        inv = 1.0 / x
        a = int(inv)
        x = inv - a
        if x < 0.0:
            a -= 1
            x += 1.0
        if x > 1.0 - 1e-9:
            # quotient landed a hair below an integer: snap and terminate,
            # otherwise rationals grow spurious trailing quotients
            a += 1
            x = 0.0
        quotients.append(a)
        terminated = x <= 1e-12
    return ContinuedFraction(alpha, quotients, _convergents(quotients), terminated)


def cf_from_quotients(quotients: list[int]) -> ContinuedFraction:
    """ContinuedFraction from a quotient prefix (all >= 1), exact integers.

    The quotients are treated as the start of a possibly infinite expansion
    (terminated=False), which is what the convergence classifier needs for
    synthetic Liouville-type inputs whose later quotients are too large to
    reach by the float Gauss map.
    """
    if not quotients or any(a < 1 for a in quotients):
        raise ValueError("quotients must be a nonempty list of positive integers")
    convergents = _convergents(quotients)
    return ContinuedFraction(float(Fraction(*convergents[-1])), list(quotients), convergents, False)


def _convergents(quotients: list[int]) -> list[tuple[int, int]]:
    # exact convergents (p_m, q_m) of [0; a_1, ..., a_m] by the p/q recurrence
    (p_prev, q_prev), (p, q) = (1, 0), (0, 1)
    convergents = []
    for a in quotients:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        convergents.append((p, q))
    return convergents


@dataclass(frozen=True)
class ClassifierResult:
    alternating_sum: float
    brjuno_sum: float
    verdict: str  # converges | diverges | undecided


def convergence_classifier(cf: ContinuedFraction) -> ClassifierResult:
    """Convergence of the series g at alpha, judged from log q_{m+1} / q_m.

    The series converges iff the alternating sum of t_m = log q_{m+1} / q_m
    converges; the Brjuno sum (same terms, unsigned) dominates it.  At finite
    depth only three honest answers exist: geometric decay of t_m certifies
    convergence, sustained t_m >= 0.4 (Liouville-like growth; note t_m is
    bounded below by log 2 / q_m only, but synthetic divergers keep it near
    log 2) flags divergence, anything else is undecided.  Rationals converge
    outright.
    """
    qs = [q for _, q in cf.convergents]
    if len(qs) < 2:
        raise ValueError("need at least 2 convergents")
    ts = [math.log(qs[i + 1]) / qs[i] for i in range(len(qs) - 1)]
    alternating = math.fsum(t if (i + 1) % 2 == 0 else -t for i, t in enumerate(ts))
    brjuno = math.fsum(ts)

    if cf.terminated:
        # exact rational: finite sum
        return ClassifierResult(alternating, brjuno, "converges")
    if len(ts) >= 2 and ts[-1] >= 0.4 and ts[-2] >= 0.4:
        return ClassifierResult(alternating, brjuno, "diverges")
    window = ts[-min(4, len(ts)):]
    decaying = all(b <= 0.8 * a for a, b in zip(window, window[1:]))
    if ts[-1] < 0.1 and decaying:
        return ClassifierResult(alternating, brjuno, "converges")
    return ClassifierResult(alternating, brjuno, "undecided")


@dataclass
class MomentTable:
    """Even moments H_k = int (f/pi)^{2k} and D_{2k} = int f^{2k}.

    Row k = 0 is the exact trivial moment.  `errors[k]` combines the grid
    halving and truncation-lowering differences (a Richardson-style
    sensitivity estimate, not a rigorous bound).  `odd[k]` holds the
    (2k-1)-th moment of f/pi from the same samples; symmetry of the profile
    drives those to zero at quadrature scale.
    """

    k_max: int
    hk: dict[int, float]
    d2k: dict[int, float]
    errors: dict[int, float]
    odd: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for k in range(self.k_max + 1):
            if self.hk[k] < 0.0 or self.d2k[k] < 0.0:
                raise ValueError("even moments must be nonnegative")


def _moments(fs: np.ndarray, k_max: int):
    # means of the even and odd powers of y = f/pi (hk, odd), each the exactly
    # rounded sum of running-product powers (`core._power_sums`) over n
    n, ys = len(fs), _power_sums(fs / math.pi, 2 * k_max)
    hk = {k: ys[2 * k - 1] / n if k else 1.0 for k in range(k_max + 1)}
    return hk, {k: ys[2 * k - 2] / n for k in range(1, k_max + 1)}


def _grid_offset(grid: int) -> float:
    return 0.5 + math.modf(grid * _GOLDEN)[0]


def hk_table(k_max: int, t: TruncatedGSeries, grid: int) -> MomentTable:
    """Midpoint-rule moment table on an irrationally offset grid.

    Nodes ((i + 1/2 + frac(grid * golden)) / grid) mod 1 never hit a
    discontinuity of f(.; m1).  The error estimate per k compares the value
    against a half-size grid and against truncation m1 - 2 (at least 2).
    That truncation is a prefix of the m1 series on the same grid, so on the
    dense route both rows come from one sweep (`_f_points` with `prefix`).
    """
    if k_max < 1:
        raise ValueError("k_max >= 1 required")
    if grid < 1000:
        raise ValueError("grid >= 1000 required")
    c, low, half = _grid_offset(grid), max(2, t.m1 - 2), grid // 2 + 1
    if low <= t.m1:
        fs, fs_low = _f_offset_grid(grid, c, t.m1, prefix=low)
    else:
        fs, fs_low = (_f_offset_grid(grid, c, m) for m in (t.m1, low))
    hk, odd = _moments(fs, k_max)
    fs2 = _power_sums(fs * fs, k_max)
    d2k = {k: fs2[k - 1] / grid if k else 1.0 for k in range(k_max + 1)}
    hk_half = _moments(_f_offset_grid(half, _grid_offset(half), t.m1), k_max)[0]
    hk_low = _moments(fs_low, k_max)[0]
    errors = {k: abs(hk[k] - hk_half[k]) + abs(hk[k] - hk_low[k]) for k in range(k_max + 1)}
    return MomentTable(k_max=k_max, hk=hk, d2k=d2k, errors=errors, odd=odd)


def hk_growth_check(table: MomentTable) -> list[float]:
    """The sequence H_k^{1/k}, k = 1..k_max.

    Monotone growth over the computed range is consistent with the divergent
    growth of the true moments; it is reported, not proved, by this check.
    """
    if table.k_max < 2:
        raise ValueError("need at least 2 moment entries")
    return [table.hk[k] ** (1.0 / k) for k in range(1, table.k_max + 1)]


@dataclass
class EmpiricalCDF:
    """Sorted-sample CDF with step queries."""

    values: np.ndarray
    count: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.count != len(self.values) or self.count == 0:
            raise ValueError("count must match a nonempty sample array")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalCDF":
        v = np.sort(np.asarray(samples, dtype=float))
        return cls(values=v, count=len(v), lo=float(v[0]), hi=float(v[-1]))

    def cdf(self, z):
        return np.searchsorted(self.values, z, side="right") / self.count

    def median(self) -> float:
        return float(np.median(self.values))

    def max_jump(self) -> float:
        _, counts = np.unique(self.values, return_counts=True)
        return int(counts.max()) / self.count


def empirical_F(t: TruncatedGSeries, samples: int) -> EmpiricalCDF:
    """Empirical distribution of f(alpha; m1)/pi on a Kronecker point set.

    alpha_i = frac(i * golden), i = 1..samples: low-discrepancy, never at a
    low-denominator rational, and deterministic for a given (t, samples).
    The f/pi scaling matches the normalized cotangent sums the scans emit.
    """
    if samples < 1000:
        raise ValueError("samples >= 1000 required")
    alphas = (np.arange(1, samples + 1, dtype=float) * _GOLDEN) % 1.0
    return EmpiricalCDF.from_samples(_f_points(alphas, t.m1) / math.pi)
