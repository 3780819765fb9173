"""Span recorder for the traced benchmark run, installed from outside cotsums.

`install` wraps the public functions of each layer (`core`, `equidist`,
`gseries`, `asymptotics`) and rebinds every name in every cotsums module
that refers to the original, so calls made inside the package are recorded
too: `core.cot_table` is also reached as `equidist.cot_table` and
`asymptotics.cot_table`, `core.c0` as `asymptotics.c0`.  A span is
`[name, start_ns, end_ns, parent]`, with `parent` the index of the
enclosing span or -1; spans stay in memory until the pass writes them out.
The layer of a span is the part of its name before the first dot.

Wrapped functions run only on the calling thread (the scan worker threads
run the unwrapped block kernel), so one span stack is enough.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Temporaries written per kernel cell (residue x m), from the array shapes:
# the int64 products, residues and quotients, the gathered cot values and the
# float copy of the quotients; `batch_c0_vq` also converts the residues.
SCAN_BYTES_PER_CELL = 5 * 8
BATCH_BYTES_PER_CELL = 6 * 8


class Recorder:
    """Spans and counters of one pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None, outside_only=False):
        """`fn` recording a span `name`; `hook(counters, arguments, result)` after it.

        With `outside_only`, calls from a span of the same layer pass through
        unrecorded: private helpers are timed where another layer calls them,
        and stay part of their caller's self time inside their own layer.
        """
        layer = name.split(".", 1)[0] + "."
        spans, stack, counters = self.spans, self._stack, self.counters
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outside_only and stack and spans[stack[-1]][0].startswith(layer):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
            if hook is not None:
                hook(counters, sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced


def _sum_hook(c, a, out):
    c["core.sum.calls"] += 1
    c["core.sum.terms"] += out.terms


def _scan_arrays_hook(c, a, out):
    b, n = a["window"].b, len(out[0])
    c["equidist.kernel.cells"] += n * (b - 1)
    c["equidist.kernel.bytes"] += n * (b - 1) * SCAN_BYTES_PER_CELL
    c["equidist.values_computed"] += n


def _batch_hook(c, a, out):
    b, n = a["b"], len(out[0])
    c["equidist.kernel.cells"] += n * (b - 1)
    c["equidist.kernel.bytes"] += n * (b - 1) * BATCH_BYTES_PER_CELL


def _empirical_F_hook(c, a, out):
    c["gseries.saw_terms"] += a["samples"] * a["t"].terms


def _hk_table_hook(c, a, out):
    grid, m1 = a["grid"], a["t"].m1
    c["gseries.saw_terms"] += (grid + grid // 2 + 1) * (1 << m1) + grid * (1 << max(2, m1 - 2))


def _f_eval_hook(c, a, out):
    c["gseries.f_eval.calls"] += 1
    c["gseries.saw_terms"] += a["t"].terms


def _f_offset_grid_hook(c, a, out):
    c["gseries.saw_terms"] += a["n"] * (1 << a["m1"])


def _counting_hook(key):
    def hook(c, a, out):
        c[key] += 1

    return hook


def install(rec: Recorder):
    """Wrap the layer entry points in place; returns `cache_counts()`.

    `cache_counts()` reads the lru caches the pass cannot see through spans:
    `core.cot_table` (calls, misses) and `asymptotics.p1_integral`.
    """
    import cotsums
    from cotsums import asymptotics, cli, core, equidist, gseries

    modules = (cotsums, core, asymptotics, gseries, equidist, cli)

    def rebind(name, module, attr, hook=None, outside_only=False):
        orig = getattr(module, attr)
        traced = rec.wrap(name, orig, hook, outside_only)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is orig]:
                setattr(m, key, traced)

    cot_table = core.cot_table
    seen_misses = [0]

    def cot_table_hook(c, a, out):
        misses = cot_table.cache_info().misses
        if misses > seen_misses[0]:
            seen_misses[0] = misses
            c["core.cot_table.bytes"] += 8 * a["b"]

    rebind("core.c0", core, "c0", _sum_hook)
    rebind("core.q_sum", core, "q_sum", _sum_hook)
    rebind("core.vasyunin", core, "vasyunin", _sum_hook)
    rebind("core.cot_table", core, "cot_table", cot_table_hook)
    rebind("equidist.scan", equidist, "scan")
    rebind("equidist.scan_arrays", equidist, "scan_arrays", _scan_arrays_hook)
    rebind("equidist.batch_c0_vq", equidist, "batch_c0_vq", _batch_hook)
    rebind("equidist.window_residues", equidist, "window_residues")
    rebind("gseries.empirical_F", gseries, "empirical_F", _empirical_F_hook)
    rebind("gseries.hk_table", gseries, "hk_table", _hk_table_hook)
    rebind("gseries.f_eval", gseries, "f_eval", _f_eval_hook)
    rebind("gseries.g_fourier_eval", gseries, "g_fourier_eval",
           _counting_hook("gseries.g_fourier_eval.calls"))
    # The verify suites call these two routes directly.
    rebind("gseries.f_offset_grid", gseries, "_f_offset_grid", _f_offset_grid_hook, True)
    rebind("gseries.fourier_offset_grid", gseries, "_fourier_offset_grid", None, True)
    rebind("asymptotics.c1_empirical", asymptotics, "c1_empirical")
    rebind("asymptotics.c1_direct", asymptotics, "c1_direct")
    rebind("asymptotics.c0_asymptotic", asymptotics, "c0_asymptotic",
           _counting_hook("asymptotics.c0_asymptotic.calls"))

    # Only gseries' own name is rebound: the CDF that equidist.scan builds is
    # part of that scan's self time.
    base_cdf = gseries.EmpiricalCDF
    from_samples = rec.wrap("gseries.cdf", base_cdf.from_samples.__func__)

    class TracedCDF(base_cdf):
        @classmethod
        def from_samples(cls, samples):
            return from_samples(cls, samples)

    gseries.EmpiricalCDF = TracedCDF

    def cache_counts():
        cot = cot_table.cache_info()
        p1 = asymptotics.p1_integral.cache_info()
        return {
            "core.cot_table.calls": cot.hits + cot.misses,
            "core.cot_table.misses": cot.misses,
            "asymptotics.p1_integral.calls": p1.hits + p1.misses,
            "asymptotics.p1_integral.hits": p1.hits,
        }

    return cache_counts
