"""Top-level acceptance gate: one test per shipped guarantee.

Each test prints a single `criterion N: PASS/FAIL - ...` line on the real
stdout (past pytest's capture) so the gate is auditable from the raw log,
then asserts.  Tolerances and time budgets are stated inline.
"""

import math
import time

import numpy as np

from cotsums import asymptotics, cli, core, equidist, gseries

LADDER = (1009, 2003, 5003, 10007)


def _line(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_identity_suite(capsys):
    tic = time.perf_counter()
    worst = 0.0
    for b in range(2, 501):
        rs, c0v, vv, qv = equidist.batch_c0_vq(b)
        pos = np.full(b, -1, dtype=np.int64)
        pos[rs] = np.arange(len(rs))
        rbar = np.array([pow(int(r), -1, b) for r in rs.tolist()], dtype=np.int64)
        denom = np.maximum(1.0, np.abs(c0v))
        worst = max(worst, float(np.max(np.abs(vv + c0v[pos[rbar]]) / denom)))
        c0_one = c0v[pos[1]]
        worst = max(worst, float(np.max(np.abs(c0v - (c0_one - qv) / rs) / denom)))
        worst = max(worst, float(np.max(np.abs(c0v[pos[(b - rs) % b]] + c0v) / denom)))
    wall = time.perf_counter() - tic
    ok = worst < 1e-6 and wall < 60.0
    _line(
        capsys,
        1,
        ok,
        f"inverse/decomposition/oddness for all r, b <= 500: "
        f"worst rel {worst:.3g} (< 1e-6) in {wall:.1f}s (< 60s)",
    )


def test_criterion_02_closed_forms(capsys):
    half = core.c0(core.ReducedFraction(1, 2)).value
    third_gap = abs(core.c0(core.ReducedFraction(1, 3)).value - math.sqrt(3.0) / 9.0)
    q_zero = all(
        core.q_sum(core.ReducedFraction(1, b)).value == 0.0 for b in range(2, 1001)
    )
    ok = half == 0.0 and third_gap < 1e-12 and q_zero
    _line(
        capsys,
        2,
        ok,
        f"c0(1/2) = {half!r} (exact 0), |c0(1/3) - sqrt(3)/9| = {third_gap:.2e} "
        f"(< 1e-12), Q(1/b) = 0 exactly for b <= 1000: {q_zero}",
    )


def test_criterion_03_residual_ladder(capsys):
    bs = (200, 400, 800, 1600, 3200)
    exact = {b: core.c0(core.ReducedFraction(1, b)).value for b in bs}
    scaled0 = [abs(exact[b] - asymptotics.c0_asymptotic(b, 0)[0]) * b for b in bs]
    variation = max(scaled0) / min(scaled0)
    raw0 = scaled0[-1] / 3200.0
    raw1 = abs(exact[3200] - asymptotics.c0_asymptotic(3200, 1)[0])
    # raw1 is about 1 ulp of c0(1/3200) and may round to exactly 0
    reduction = raw0 / raw1 if raw1 else math.inf
    ok = variation < 3.0 and raw0 >= 10.0 * raw1
    _line(
        capsys,
        3,
        ok,
        f"order-0 scaled residual variation {variation:.6f} over b = 200..3200 (< 3), "
        f"order-1 residual reduction at 3200: {reduction:.2e}x (>= 10)",
    )


def test_criterion_04_slope_cross_validation(capsys):
    tic = time.perf_counter()
    ok = True
    worst_gap = 0.0
    for r, b0 in ((2, 1), (3, 1), (3, 2)):
        bs = asymptotics.default_b_list(r, b0, 5001)
        slope, conf = asymptotics.c1_empirical(r, b0, bs)
        direct = asymptotics.c1_direct(asymptotics.C1Input(r, b0))
        gap = abs(slope - direct)
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= conf
    slope1, _ = asymptotics.c1_empirical(1, 1, asymptotics.default_b_list(1, 1, 5001))
    wall = time.perf_counter() - tic
    ok = ok and abs(slope1) < 1e-3 and wall < 300.0
    _line(
        capsys,
        4,
        ok,
        f"(2,1), (3,1), (3,2): worst |fit - closed form| {worst_gap:.2e} within "
        f"fit confidence; r=1 slope {abs(slope1):.2e} (< 1e-3); {wall:.0f}s (< 300s)",
    )


def test_criterion_05_window_moments(capsys, scan_reports, hk14):
    target = hk14.hk[1] * 0.2
    rel = {
        b: abs(scan_reports[b].moments_c0[2] - target) / target for b in LADDER
    }
    # M_k sums x^k over ~0.2*phi residues, divided by phi: with mean 0 its
    # variance is sum x^2k / phi^2 = M_2k / phi, so sigma_k = sqrt(M_2k / phi).
    z = {
        k: [
            scan_reports[b].moments_c0[k]
            / math.sqrt(scan_reports[b].moments_c0[2 * k] / scan_reports[b].phi)
            for b in LADDER
        ]
        for k in (1, 3)
    }
    odd_ok = all(abs(v) <= 3.0 for k in (1, 3) for v in z[k])
    ok = rel[10007] < 0.15 and rel[10007] < rel[1009] and odd_ok
    z1_txt = ", ".join(f"{v:+.2f}" for v in z[1])
    z3_txt = ", ".join(f"{v:+.2f}" for v in z[3])
    _line(
        capsys,
        5,
        ok,
        f"M2 rel {rel[1009]:.3f} -> {rel[10007]:.3f} (< 0.15, improving); "
        f"odd moments within 3 sigma_k = 3 sqrt(M_2k / phi) on every rung: "
        f"{odd_ok} [z1 = {z1_txt}; z3 = {z3_txt}]",
    )


def test_criterion_06_cdf_convergence(capsys, scan_reports):
    ks = [scan_reports[b].ks_distance for b in LADDER]
    ok = all(y < x for x, y in zip(ks, ks[1:])) and ks[-1] < 0.05
    _line(
        capsys,
        6,
        ok,
        "KS to the sampled limit law "
        + " -> ".join(f"{v:.4f}" for v in ks)
        + " (strictly decreasing, final < 0.05)",
    )


def test_criterion_07_series_machinery(capsys, l2_pair, hk14):
    fs, gs = l2_pair
    l2 = math.sqrt(float(np.mean((fs - gs) ** 2)))
    t6 = gseries.TruncatedGSeries(6)
    s = gseries.fourier_coeffs_f(t6, 1 << 18)
    mass = 0.5 * float(s @ s)
    grid_vals = gseries._f_offset_grid(
        100_000, 0.5 + (100_000 * 0.6180339887498949) % 1.0, 6
    )
    grid_mass = float(np.mean(grid_vals**2))
    parseval_rel = abs(mass - grid_mass) / grid_mass
    roots = gseries.hk_growth_check(hk14)
    increasing = all(y > x for x, y in zip(roots, roots[1:]))
    ok = l2 < 0.01 and parseval_rel < 1e-3 and hk14.hk[0] == 1.0 and increasing
    _line(
        capsys,
        7,
        ok,
        f"two-evaluator L2 {l2:.4f} (< 0.01), Parseval rel {parseval_rel:.2e} "
        f"(< 1e-3), H0 = {hk14.hk[0]!r} (exact 1), H_k^(1/k) strictly "
        f"increasing k = 1..6: {increasing}",
    )


def test_criterion_08_exponential_sums(capsys):
    ns = np.arange(-100, 101, dtype=np.int64)
    exact = True
    worst = 0.0
    for q in range(1, 101):
        units = np.array(
            [r for r in range(1, q + 1) if math.gcd(r, q) == 1], dtype=np.int64
        )
        brute = np.cos(2.0 * np.pi * (((units[:, None] * ns[None, :]) % q) / q)).sum(
            axis=0
        )
        formula = np.array(
            [equidist.ramanujan(q, int(n)) for n in ns.tolist()], dtype=float
        )
        worst = max(worst, float(np.max(np.abs(formula - brute))))
        exact = exact and np.array_equal(np.rint(brute), formula)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97, 101)
    weil = all(
        math.hypot(*equidist.kloosterman(equidist.ExpSumParams(1, 1, p)))
        <= 2.0 * math.sqrt(p) + 1e-9
        for p in primes
    )
    k00 = all(
        equidist.kloosterman(equidist.ExpSumParams(0, 0, b))
        == (float(equidist.euler_phi(b)), 0.0)
        for b in range(2, 201)
    )
    ok = exact and worst < 1e-6 and weil and k00
    _line(
        capsys,
        8,
        ok,
        f"Ramanujan formula exact for q <= 100, |n| <= 100 (drift {worst:.2e}); "
        f"Weil bound p <= 101: {weil}; K(0,0,b) = (phi(b), 0) for b <= 200: {k00}",
    )


def test_criterion_09_cli_determinism(capsys, tmp_path):
    dirs = []
    for tag, threads in (("one", "1"), ("two", "4")):
        d = tmp_path / tag
        d.mkdir()
        code = cli.main(
            [
                "scan",
                "--b",
                "1009",
                "--a0",
                "0.6",
                "--a1",
                "0.8",
                "--deterministic",
                "--threads",
                threads,
                "--output",
                str(d / "scan.csv"),
            ]
        )
        assert code == 0
        dirs.append(d)
    same = (dirs[0] / "scan.csv").read_bytes() == (dirs[1] / "scan.csv").read_bytes()
    same = same and (
        (dirs[0] / "scan.json").read_bytes() == (dirs[1] / "scan.json").read_bytes()
    )
    tic = time.perf_counter()
    code = cli.main(["verify", "--suite", "all"])
    wall = time.perf_counter() - tic
    ok = same and code == 0 and wall < 900.0
    _line(
        capsys,
        9,
        ok,
        f"deterministic scans byte-identical across thread counts: {same}; "
        f"verify --suite all exit {code} in {wall:.0f}s (< 900s)",
    )
