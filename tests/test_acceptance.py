"""Top-level acceptance gate: one test per shipped guarantee.

Each test prints a single `criterion N: PASS/FAIL - ...` line on the real
stdout (past pytest's capture) so the gate is auditable from the raw log,
then asserts.  Tolerances and time budgets are stated inline.  Criteria 1,
2, 3 and 8 run the `cotsums verify` suite they gate (identities, closed,
asympt, expsums), so each of those checks is implemented once.
"""

import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cotsums import asymptotics, cli, gseries

LADDER = (1009, 2003, 5003, 10007)


def _line(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _suite_gate(capsys, n, suite, tol, budget):
    # `cotsums verify --suite <suite>` passes within `tol` and `budget`
    tic = time.perf_counter()
    ok, worst, detail = cli._SUITE_FUNCS[suite]()
    wall = time.perf_counter() - tic
    detail += f"; worst residual {worst:.3g} (< {tol:g}) in {wall:.1f}s (< {budget:g}s)"
    _line(capsys, n, ok and worst < tol and wall < budget, f"verify --suite {suite}: {detail}")


def test_criterion_01_identity_suite(capsys):
    # V(r/b) = -c0(rbar/b), c0(r/b) = (c0(1/b) - Q(r/b))/r and oddness for
    # every unit r, b <= 500, relative to max(1, |c0|)
    _suite_gate(capsys, 1, "identities", 1e-6, 60.0)


def test_criterion_02_closed_forms(capsys):
    # c0(1/2) = 0 and Q(1/b) = 0 exactly for b <= 1000; c0(1/3) = sqrt(3)/9
    # and the Estermann pair at 1/3 = (1/4, sqrt(3)/18) within the tolerance
    _suite_gate(capsys, 2, "closed", 1e-12, 60.0)


def test_criterion_03_residual_ladder(capsys):
    # b = 200..3200: order-0 scaled residuals vary by < 3x (worst = factor - 1), order 1
    # cuts the raw residual at 3200 at least tenfold, order-2 scaled residuals <= 0.5
    _suite_gate(capsys, 3, "asympt", 2.0, 60.0)


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
    # Ramanujan sums = brute force (drift < 1e-6, exact rounded) for q, |n| <= 100;
    # Weil's bound p <= 101; K(0, 0, b) = (phi(b), 0), b <= 200; K(n, m, b) = K(m, n, b)
    _suite_gate(capsys, 8, "expsums", 1e-6, 60.0)


def _fresh_outputs(tmp_path, env, seed):
    # the b = 1009 window scan and c0 in both precisions, each in a fresh
    # interpreter with PYTHONHASHSEED = seed: the scan's files and c0's stdout
    out = tmp_path / f"hashseed{seed}"
    out.mkdir()
    env = {**env, "PYTHONHASHSEED": str(seed), "COTSUMS_OUTDIR": str(out)}
    c0 = ["c0", "--r", "4123", "--b", "10007", "--precision"]
    runs = [
        ["scan", "--b", "1009", "--a0", "0.6", "--a1", "0.8", "--deterministic", "--output", "scan.csv"],
        [*c0, "default"],
        [*c0, "oracle"],
    ]
    stdout = [
        subprocess.run(
            [sys.executable, "-m", "cotsums.cli", *argv], env=env, capture_output=True, check=True
        ).stdout
        for argv in runs
    ]
    return [(out / "scan.csv").read_bytes(), (out / "scan.json").read_bytes(), *stdout[1:]]


def test_criterion_09_cli_determinism(capsys, tmp_path, child_env):
    same = _fresh_outputs(tmp_path, child_env, 0) == _fresh_outputs(tmp_path, child_env, 1)
    capsys.readouterr()
    tic = time.perf_counter()
    code = cli.main(["verify", "--suite", "all"])
    wall = time.perf_counter() - tic
    # the nine suite lines without their " [N ms]" timings
    lines = [re.sub(r" \[\d+ ms\]$", "", s) for s in capsys.readouterr().out.splitlines()]
    golden = (Path(__file__).parent / "data" / "verify_golden.txt").read_text(encoding="utf-8")
    pinned = lines == [s for s in golden.splitlines() if not s.startswith("#")]
    ok = same and code == 0 and pinned and wall < 900.0
    _line(
        capsys,
        9,
        ok,
        f"scan b = 1009 and c0 (default, oracle) byte-identical across fresh "
        f"interpreters with PYTHONHASHSEED 0 and 1: {same}; "
        f"verify --suite all exit {code}, lines as tests/data/verify_golden.txt: {pinned}, "
        f"in {wall:.0f}s (< 900s)",
    )
