"""Command-line front end: single values, window scans, residual tables,
and the self-verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
`main` alone decides them: `c0`, `scan` and `asympt` raise `ValueError` for
a usage fault and let a failed write's `OSError` through, and `verify`
reports its own failures.
`verify --suite all` runs its suites in forked workers, one per CPU in the
affinity mask up to nine; each worker is a forked copy of this process.
Each line is printed in suite order once its result arrives, and its
`[ms]` is that suite's own time inside its worker.  The suites run
serially, in this process, when one worker would do (one suite or one
CPU), when another thread is alive (forking a multi-threaded process can
deadlock the child), and off Linux (fork is unsafe on macOS).
Output files land in the directory named by the COTSUMS_OUTDIR environment
variable (falling back to the working directory) unless an explicit path is
given.  All numbers are serialized with 17 significant digits, CSV with
plain decimal points, line-feed newlines, and a header row.  Every table
goes through one writer, `_write_table`, which formats its rows in blocks
of at most 2**16 by one `%` each, so memory is bounded by a block rather
than by the table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
import time

import numpy as np

from . import asymptotics, core, equidist, gseries

def _out_path(name: str | None, default_name: str) -> str:
    base = os.environ.get("COTSUMS_OUTDIR", os.getcwd())
    chosen = name if name else default_name
    return chosen if os.path.isabs(chosen) else os.path.join(base, chosen)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


# Rows formatted per `%` in `_write_table`: about 8 MB of strings and
# Python numbers for an (r, c0) table, whatever its length.
_BLOCK_ROWS = 1 << 16
_R_C0 = "%d,%.17g\n"


def _write_table(path: str, header: tuple[str, ...], row: str | list[str], *columns) -> None:
    """Write a CSV table: the header, then row i filled from `columns[*][i]`.

    `row` is the %-template of every row ("%d,%.17g\n"), or a list of one
    template per row.  Each block of at most `_BLOCK_ROWS` rows is one `%`
    of its templates over its values, interleaved row by row from the
    columns' `tolist()`.  `'%.17g' % x` is `format(x, '.17g')` for every
    float (-0.0 prints -0), `%d` of an int is `str`, and no field needs
    CSV quoting.
    """
    n = len(columns[0])
    width = len(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            values = [None] * ((hi - lo) * width)
            for j, col in enumerate(columns):
                values[j::width] = col[lo:hi].tolist()
            template = row * (hi - lo) if isinstance(row, str) else "".join(row[lo:hi])
            fh.write(template % tuple(values))


def report_to_dict(rep: equidist.ScanReport) -> dict:
    ks = rep.ks_distance
    return {
        "b": rep.b,
        "a0": rep.a0,
        "a1": rep.a1,
        "phi": rep.phi,
        "count": rep.count,
        "moments_c0": [rep.moments_c0[k] for k in sorted(rep.moments_c0)],
        "moments_q": [rep.moments_q[k] for k in sorted(rep.moments_q)],
        "ks_distance": None if ks is None else float(ks),
        "wall_ms": rep.wall_ms,
    }


def cmd_c0(args: argparse.Namespace) -> int:
    frac = core.ReducedFraction(args.r, args.b)
    if args.precision == "default" and (frac.b - 1) // 2 > core._TILE_K:
        # past one tile of the direct kernel, O(log b) levels of reciprocity
        val, qv, vv = asymptotics.reciprocity_values(frac)
    else:
        val, qv, vv = core.c0_q_v(frac, oracle=args.precision == "oracle")
    re, im = core.estermann_at_zero(frac, val)
    label = f"{frac.r}/{frac.b}"
    print(f"c0({label}) = {_g17(val.value)} (err_bound {val.err_bound:.3g})")
    print(f"Q({label}) = {_g17(qv.value)} (err_bound {qv.err_bound:.3g})")
    print(f"V({label}) = {_g17(vv.value)} (err_bound {vv.err_bound:.3g})")
    print(f"Estermann(0; {label}) = ({_g17(re)}, {_g17(im)})")
    return 0


# The flags only a window scan reads, each with its test of being given;
# `--figure` rejects every one of them.
_WINDOW_ONLY = (
    ("--a0", lambda a: a.a0 is not None),
    ("--a1", lambda a: a.a1 is not None),
    ("--kmax", lambda a: a.kmax is not None),
    ("--threads", lambda a: a.threads is not None),
    ("--deterministic", lambda a: a.deterministic),
    ("--format json", lambda a: a.format == "json"),
)


def cmd_scan(args: argparse.Namespace) -> int:
    if args.figure:
        flags = [flag for flag, given in _WINDOW_ONLY if given(args)]
        if flags:
            raise ValueError(f"{', '.join(flags)} applies to a window scan, not to --figure")
        rs, c0v = equidist.batch_c0(args.b)
        path = _out_path(args.output, f"figure_b{args.b}.csv")
        _write_table(path, ("r", "c0"), _R_C0, rs, c0v)
        print(f"wrote {len(rs)} rows to {path}")
        return 0

    if args.a0 is None or args.a1 is None:
        raise ValueError("moment mode needs --a0 and --a1 (or use --figure)")
    csv_path = _out_path(args.output, f"scan_b{args.b}.csv")
    json_path = os.path.splitext(csv_path)[0] + ".json"
    if args.format is None and csv_path == json_path:
        raise ValueError(f"--output {args.output} names both the CSV and the JSON report; "
                         "pass --format, or a name not ending in .json")
    window = equidist.ScanWindow(args.b, args.a0, args.a1)
    rep = equidist.scan(window, 3 if args.kmax is None else args.kmax, deterministic=args.deterministic)
    if args.format in (None, "csv"):
        _write_table(csv_path, ("r", "c0"), _R_C0, rep.residues, rep.c0_values)
        print(f"wrote {len(rep.residues)} rows to {csv_path}")
    if args.format in (None, "json"):
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(rep), fh, indent=2)
            fh.write("\n")
        print(f"wrote report to {json_path}")
    return 0


def cmd_asympt(args: argparse.Namespace) -> int:
    if not 0 <= args.n <= asymptotics._MAX_ORDER:
        raise ValueError(f"--n must be in 0..{asymptotics._MAX_ORDER}")
    try:
        blist = [int(x) for x in args.b_list.split(",")]
    except ValueError:
        raise ValueError("--b-list must be comma-separated integers") from None
    for b in blist:
        core._check_modulus(b)
    if any(y <= x for x, y in zip(blist, blist[1:])):
        raise ValueError("--b-list must be strictly ascending")
    if blist[-1] ** (args.n + 1) > sys.float_info.max:  # scaled_residual's factor, exact
        raise ValueError(f"b^(n+1) exceeds the float maximum {sys.float_info.max:.3g} at b = {blist[-1]}")
    exact, main, residual, scaled = (np.full(len(blist), math.nan) for _ in range(4))
    # the flagged rows' template: `%.0s` prints its field empty
    row = ["%d,%.17g,%.0s,%.0s,%.0s\n"] * len(blist)
    for i, b in enumerate(blist):
        exact[i] = core.c0(core.ReducedFraction(1, b)).value
        try:
            main[i], _ = asymptotics.c0_asymptotic(b, args.n)
        except ValueError:
            continue  # below the validity threshold: flagged, not fatal
        residual[i] = exact[i] - main[i]
        scaled[i] = residual[i] * float(b) ** (args.n + 1)
        row[i] = "%d,%.17g,%.17g,%.17g,%.17g\n"
    path = _out_path(args.output, f"asympt_n{args.n}.csv")
    header = ("b", "exact", "main", "residual", "scaled_residual")
    _write_table(path, header, row, np.array(blist), exact, main, residual, scaled)
    print(f"wrote {len(blist)} rows to {path}")
    return 0


# ---------------------------------------------------------------------------
# verification suites (numpy-only runtime, deterministic)

# The one configuration the suites run: identities for b <= bmax, window
# moments at b, series at m1 on `grid` points, the limit law from `samples`.
_VERIFY = {"bmax": 500, "b": 5003, "m1": 12, "grid": 4001, "samples": 20000}


def _suite_identities():
    worst = 0.0
    for b in range(2, _VERIFY["bmax"] + 1):
        rs, c0v, vv, qv, rbar = equidist.batch_c0_vq(b)
        pos = np.full(b, -1, dtype=np.int64)
        pos[rs] = np.arange(len(rs))
        denom = np.maximum(1.0, np.abs(c0v))
        worst = max(worst, float(np.max(np.abs(vv + c0v[pos[rbar]]) / denom)))
        c0_one = c0v[pos[1]]
        worst = max(
            worst,
            float(np.max(np.abs(c0v - (c0_one - qv) / rs) / denom)),
        )
        worst = max(worst, float(np.max(np.abs(c0v[pos[(b - rs) % b]] + c0v) / denom)))
    return worst < 1e-6, worst, f"b <= {_VERIFY['bmax']}, V/decomposition/oddness"


def _suite_closed():
    worst = 0.0
    ok = core.c0(core.ReducedFraction(1, 2)).value == 0.0
    worst = max(worst, abs(core.c0(core.ReducedFraction(1, 3)).value - math.sqrt(3) / 9))
    re, im = core.estermann_at_zero(core.ReducedFraction(1, 3))
    worst = max(worst, abs(re - 0.25), abs(im - math.sqrt(3) / 18))
    for b in range(2, 1001):
        if core.q_sum(core.ReducedFraction(1, b)).value != 0.0:
            ok = False
    return ok and worst < 1e-12, worst, "c0(1/2), c0(1/3), Q(1/b) b <= 1000"


def _suite_asympt():
    bs = [200, 400, 800, 1600, 3200]
    exact = {b: core.c0(core.ReducedFraction(1, b)).value for b in bs}
    scaled = {}
    for n in (0, 1, 2):
        scaled[n] = [
            abs(exact[b] - asymptotics.c0_asymptotic(b, n)[0]) * float(b) ** (n + 1)
            for b in bs
        ]
    var0 = max(scaled[0]) / min(scaled[0])
    # the order-1 residual at 3200 is about 1 ulp and may round to exactly 0
    raw0, raw1 = scaled[0][-1] / 3200.0, scaled[1][-1] / 3200.0**2
    reduction = raw0 / raw1 if raw1 else math.inf
    ok = var0 < 3.0 and raw0 >= 10.0 * raw1 and max(scaled[2]) <= 0.5
    return ok, var0 - 1.0, f"n=0 variation {var0:.6f}, n=1 gain {reduction:.1e}"


def _suite_c1():
    worst = 0.0
    ok = True
    for r, b0 in ((2, 1), (3, 1)):
        bs = asymptotics.default_b_list(r, b0, 2001)
        slope, conf = asymptotics.c1_empirical(r, b0, bs)
        direct = asymptotics.c1_direct(asymptotics.C1Input(r, b0))
        gap = abs(slope - direct)
        worst = max(worst, gap)
        if gap > conf:
            ok = False
    slope1, _ = asymptotics.c1_empirical(1, 1, asymptotics.default_b_list(1, 1, 2001))
    ok = ok and abs(slope1) < 1e-3
    return ok, worst, "pairs (2,1), (3,1) vs direct; r=1 slope"


def _suite_gmachinery():
    t = gseries.TruncatedGSeries(_VERIFY["m1"])
    rng = np.random.default_rng(1009)
    worst = 0.0
    ok = True
    # exact antisymmetry on dyadics (series route) and floats (fourier route)
    ks = rng.integers(1, 1 << 20, 300)
    for k in ks.tolist():
        x = k / float(1 << 20)
        worst = max(worst, abs(gseries.f_eval(x, t) + gseries.f_eval(1.0 - x, t)))
    for x in rng.random(200).tolist():
        worst = max(worst, abs(gseries.g_fourier_eval(x, 4096) + gseries.g_fourier_eval(1.0 - x, 4096)))
    ok = ok and worst == 0.0
    # convergents and classifier
    cf = gseries.cf_expand(math.sqrt(2.0) - 1.0, 14)
    dets = [
        p1 * q0 - p0 * q1
        for (p0, q0), (p1, q1) in zip(cf.convergents, cf.convergents[1:])
    ]
    ok = ok and all(abs(d) == 1 for d in dets)
    ok = ok and gseries.convergence_classifier(cf).verdict == "converges"
    liou = gseries.cf_from_quotients([2, 4, 512, 1 << 4610])
    ok = ok and gseries.convergence_classifier(liou).verdict == "diverges"
    # two-evaluator agreement on a rotated grid; both truncations deep enough
    # that the shared tail no longer dominates the comparison
    u0 = rng.random()
    n = 2000
    fs = gseries._f_offset_grid(n, u0, 20)
    gs = gseries._fourier_offset_grid(n, u0, 1 << 20)
    l2 = math.sqrt(float(np.mean((fs - gs) ** 2)))
    ok = ok and l2 < 0.01
    # Parseval at m1 = 6
    t6 = gseries.TruncatedGSeries(6)
    s = gseries.fourier_coeffs_f(t6, 1 << 18)
    mass = 0.5 * core._pairwise_dot(s, s)
    grid_vals = gseries._f_offset_grid(100_000, gseries._grid_offset(100_000), 6)
    grid_mass = float(np.mean(grid_vals**2))
    parseval_rel = abs(mass - grid_mass) / grid_mass
    ok = ok and parseval_rel < 1e-3
    # moment table structure
    tbl = gseries.hk_table(4, t, _VERIFY["grid"])
    ok = ok and tbl.hk[0] == 1.0 and tbl.d2k[0] == 1.0
    ok = ok and abs(tbl.hk[1] - 0.1389) < 4e-3
    roots = gseries.hk_growth_check(tbl)
    ok = ok and all(y > x for x, y in zip(roots, roots[1:]))
    ratios = [tbl.hk[k + 1] / tbl.hk[k] for k in range(1, 4)]
    ok = ok and all(y > x for x, y in zip(ratios, ratios[1:]))
    ok = ok and all(tbl.d2k[k] > 0.0 for k in range(1, 5))
    pi_rel = max(
        abs(tbl.hk[k] * math.pi ** (2 * k) - tbl.d2k[k]) / tbl.d2k[k] for k in range(1, 5)
    )
    ok = ok and pi_rel < 1e-12
    ok = ok and all(abs(tbl.odd[k]) <= max(tbl.errors[k], 1e-3) for k in range(1, 5))
    return ok, max(l2, parseval_rel), f"L2 {l2:.4f}, Parseval rel {parseval_rel:.2e}"


def _suite_moments():
    b = _VERIFY["b"]
    tbl = gseries.hk_table(2, gseries.TruncatedGSeries(_VERIFY["m1"]), _VERIFY["grid"])
    h1 = tbl.hk[1]
    d2 = tbl.d2k[1]
    rep = equidist.scan(equidist.ScanWindow(b, 0.6, 0.8), 3, deterministic=True)
    m2_rel = abs(rep.moments_c0[2] - h1 * 0.2) / (h1 * 0.2)
    e1 = d2 / (3.0 * math.pi**2)
    q2_target = e1 * (0.8**3 - 0.6**3)
    q2_rel = abs(rep.moments_q[2] - q2_target) / q2_target
    ok = m2_rel < 0.15 and q2_rel < 0.15
    # moment bridge: second moments of c0 and Q/r agree to O(log^2 b / b)
    s_c0 = core._power_sums(rep.c0_values, 2)[1]
    s_qr = core._power_sums(rep.q_values / rep.residues, 2)[1]
    bridge_rel = abs(s_c0 - s_qr) / s_c0
    ok = ok and bridge_rel < math.log(b) ** 2 / b
    # two-route H1: c0-based and Q-based must agree
    h1_c0 = rep.moments_c0[2] / 0.2
    h1_q = 3.0 * rep.moments_q[2] / (0.8**3 - 0.6**3)
    route_rel = abs(h1_c0 - h1_q) / h1_c0
    ok = ok and route_rel < 0.05
    # odd moments: zero-mean fluctuations at CLT scale; M_k is a sum of
    # ~0.2*phi terms over phi, so its standard error is sqrt(M_2k / phi)
    odd_z = max(
        abs(rep.moments_c0[k]) / math.sqrt(rep.moments_c0[2 * k] / rep.phi)
        for k in (1, 3)
    )
    ok = ok and odd_z <= 3.0
    worst = max(m2_rel, q2_rel, route_rel)
    return (
        ok,
        worst,
        f"M2 rel {m2_rel:.3f}, Q2 rel {q2_rel:.3f}, bridge {bridge_rel:.1e}, "
        f"odd |z| {odd_z:.2f}",
    )


def _suite_expsums():
    ok = True
    worst = 0.0
    ns = np.arange(-100, 101, dtype=np.int64)
    for q in range(1, 101):
        units = np.array([r for r in range(1, q + 1) if math.gcd(r, q) == 1], dtype=np.int64)
        brute = np.cos(2.0 * np.pi * (((units[:, None] * ns[None, :]) % q) / q)).sum(axis=0)
        formula = np.array([equidist.ramanujan(q, int(n)) for n in ns.tolist()], dtype=float)
        diff = float(np.max(np.abs(formula - brute)))
        worst = max(worst, diff)
        if diff > 1e-6 or not np.array_equal(np.rint(brute), formula):
            ok = False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101):
        re, im = equidist.kloosterman(equidist.ExpSumParams(1, 1, p))
        if math.hypot(re, im) > 2.0 * math.sqrt(p) + 1e-9:
            ok = False
    for b in range(2, 201):
        re, im = equidist.kloosterman(equidist.ExpSumParams(0, 0, b))
        if re != float(equidist.euler_phi(b)) or im != 0.0:
            ok = False
    for n, m, b in ((1, 2, 97), (3, 7, 144), (5, 11, 199)):
        if equidist.kloosterman(equidist.ExpSumParams(n, m, b)) != equidist.kloosterman(
            equidist.ExpSumParams(m, n, b)
        ):
            ok = False
    return ok, worst, "ramanujan brute force, Weil, K(0,0,b), symmetry"


def _suite_distribution():
    ref = gseries.empirical_F(gseries.TruncatedGSeries(_VERIFY["m1"]), _VERIFY["samples"])
    tol = 2.0 / math.sqrt(_VERIFY["samples"])
    ok = abs(ref.median()) < tol
    z = np.linspace(-1.5, 1.5, 41)
    sym = float(np.max(np.abs((1.0 - ref.cdf(-z + 1e-12)) - ref.cdf(z))))
    ok = ok and sym < tol and ref.max_jump() <= tol
    ks = []
    for b in (1009, 2003):
        rep = equidist.scan(equidist.ScanWindow(b, 0.6, 0.8), 1, deterministic=True, reference=ref)
        ks.append(rep.ks_distance)
    ok = ok and ks[1] < ks[0] and ks[1] < 0.08
    return ok, max(sym, ks[1]), f"symmetry {sym:.2e}, KS {ks[0]:.3f} -> {ks[1]:.3f}"


def _suite_determinism():
    window = equidist.ScanWindow(1009, 0.6, 0.8)
    rep1 = equidist.scan(window, 2, deterministic=True)
    rep2 = equidist.scan(window, 2, deterministic=True)
    s1 = json.dumps(report_to_dict(rep1), sort_keys=True)
    s2 = json.dumps(report_to_dict(rep2), sort_keys=True)
    ok = s1 == s2 and np.array_equal(rep1.cdf.values, rep2.cdf.values)
    return ok, 0.0, "bit-identical reports across reruns"


_SUITE_FUNCS = {
    "identities": _suite_identities,
    "closed": _suite_closed,
    "asympt": _suite_asympt,
    "c1": _suite_c1,
    "gmachinery": _suite_gmachinery,
    "moments": _suite_moments,
    "expsums": _suite_expsums,
    "distribution": _suite_distribution,
    "determinism": _suite_determinism,
}
VERIFY_SUITES = tuple(_SUITE_FUNCS)


def _timed_suite(name: str) -> tuple[bool, float, str, float]:
    # one suite and its own milliseconds, in whichever process runs it
    tic = time.perf_counter()
    passed, worst, detail = _SUITE_FUNCS[name]()
    return passed, worst, detail, (time.perf_counter() - tic) * 1e3


def _report(names, results) -> int:
    failures = 0
    for name, (passed, worst, detail, ms) in zip(names, results):
        status = "PASS" if passed else "FAIL"
        print(f"{name}: {status} (worst residual {worst:.3g}; {detail}) [{ms:.0f} ms]")
        if not passed:
            failures += 1
    return 1 if failures else 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    workers = min(len(names), gseries._cpus())
    if workers == 1 or threading.active_count() > 1 or sys.platform != "linux":
        return _report(names, map(_timed_suite, names))
    # imported here: at module level they would add to every CLI start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # `map` yields in suite order and raises a suite's exception with its own
    # type, a dead worker's as BrokenProcessPool (a `multiprocessing.Pool`
    # waits for that suite forever); leaving cancels the suites not started
    # and joins every worker
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return _report(names, pool.map(_timed_suite, names))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotsums",
        description="Cotangent-sum values, window scans, asymptotic residuals, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_c0 = sub.add_parser("c0", help="print c0, Q, V, and the Estermann pair for r/b")
    p_c0.add_argument("--r", type=int, required=True)
    p_c0.add_argument("--b", type=int, required=True)
    p_c0.add_argument(
        "--precision",
        choices=("default", "oracle"),
        default="default",
        help="default: the direct sum while (b-1)/2 <= 2^14 (b <= 32769), else O(log b) "
        "levels of the reciprocity of c0 with a far smaller err_bound; oracle: the direct "
        "sum's float terms, their exact sum rounded once, at every b",
    )

    p_scan = sub.add_parser("scan", help="figure data or window moment scan")
    p_scan.add_argument("--b", type=int, required=True)
    p_scan.add_argument("--figure", action="store_true", help="full coprime range CSV")
    p_scan.add_argument("--a0", type=float)
    p_scan.add_argument("--a1", type=float)
    p_scan.add_argument("--kmax", type=int, help="window moments to power 2 kmax (default 3)")
    p_scan.add_argument(
        "--threads",
        type=int,
        help="ignored by window scans, rejected by --figure: the dense series evaluator "
        "claims point slabs on every CPU in the affinity mask, every other kernel is "
        "serial, and no value depends on the CPU count",
    )
    p_scan.add_argument("--deterministic", action="store_true")
    p_scan.add_argument("--format", choices=("csv", "json"), default=None)
    p_scan.add_argument("--output", default=None)

    p_asy = sub.add_parser("asympt", help="asymptotic residual table")
    p_asy.add_argument("--n", type=int, default=0)
    p_asy.add_argument("--b-list", required=True, help="comma-separated ascending moduli")
    p_asy.add_argument("--output", default=None)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", choices=VERIFY_SUITES + ("all",), default="all")
    return parser


# The parser of `main`, built at its first call rather than at import.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "verify":
        # outside the mapping below: an exception in a suite is a bug
        return cmd_verify(args)
    handler = {"c0": cmd_c0, "scan": cmd_scan, "asympt": cmd_asympt}[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
