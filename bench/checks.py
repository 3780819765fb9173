"""Correctness checks on the outputs of one pass, run outside the timed region.

Every check compares against a route the benchmark computes itself:

- c0(r/b) in 200-bit fixed point (`C0Reference`): mpmath supplies cos and
  sin of pi/b, powers of that rotation give cot(pi k/b) for k < b/2, and
  pairing k with b - k turns the sum into
  c0(r/b) = -(1/b) sum_{k < b/2} (2 (k rbar mod b) - b) cot(pi k/b).
  A direct mpmath sum at a small modulus checks the construction every run.
- f(alpha; m1) at the float alpha of an empirical_F sample, summed exactly
  in integers (`f_exact`).
- Coprime residues, totients and window moments recomputed from the CSV.

Each check returns `(ok, detail, ratio)`, where `ratio` is the largest
|value - reference| / err_bound it saw (None when it compared no c0 value).
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import mpmath
import numpy as np

from workloads import coprime_residues, window_bounds

VERIFY_SUITES = ("identities", "closed", "asympt", "c1", "gmachinery", "moments",
                 "expsums", "distribution", "determinism")
VERIFY_LINE = re.compile(r"^(\w+): (PASS|FAIL) \(.*\) \[(\d+) ms\]$")
C0_LINE = re.compile(r"^c0\((\d+)/(\d+)\) = (\S+) \(err_bound (\S+)\)$")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class C0Reference:
    """c0(r/b) for every unit r mod b from one fixed-point cot table."""

    BITS = 200

    def __init__(self, b: int):
        p = self.BITS
        with mpmath.workprec(p + 64):
            theta = mpmath.pi / b
            c = int(mpmath.nint(mpmath.cos(theta) * mpmath.mpf(2) ** p))
            s = int(mpmath.nint(mpmath.sin(theta) * mpmath.mpf(2) ** p))
        cots = []
        ck, sk = c, s
        for _ in range((b - 1) // 2):  # k = b/2 (even b) has cot = 0
            cots.append((ck << p) // sk)
            ck, sk = (ck * c - sk * s) >> p, (sk * c + ck * s) >> p
        self.b, self._cots = b, cots

    def value(self, r: int) -> mpmath.mpf:
        b = self.b
        rbar = pow(r, -1, b)
        acc = sum((2 * (k * rbar % b) - b) * t for k, t in enumerate(self._cots, 1))
        with mpmath.workprec(self.BITS + 64):
            return -mpmath.mpf(acc) / (b * mpmath.mpf(2) ** self.BITS)

    def error_ratio(self, r: int, value: float, err_bound: float) -> float:
        """|value - c0(r/b)| / err_bound (inf when the bound is 0 and value is off)."""
        with mpmath.workprec(self.BITS + 64):
            diff = float(abs(mpmath.mpf(value) - self.value(r)))
        return diff / err_bound if err_bound > 0 else (0.0 if diff == 0 else math.inf)


def reference_self_check() -> tuple[bool, str, None]:
    """C0Reference against the defining sum, term by term in mpmath."""
    b = 101
    ref = C0Reference(b)
    worst = 0.0
    with mpmath.workprec(120):
        for r in (2, 37, 100):
            direct = -mpmath.fsum(mpmath.mpf(m) / b * mpmath.cot(mpmath.pi * (m * r % b) / b)
                                  for m in range(1, b))
            worst = max(worst, float(abs(direct - ref.value(r))))
    return worst < 1e-30, f"fixed-point reference vs mpmath at b={b}: {worst:.1e}", None


def f_exact(x: float, m1: int) -> float:
    """f(x; m1) = sum_{l <= 2^m1} B(l x)/l for the exact dyadic value of x.

    Integer arithmetic throughout; the only rounding is the floor of each
    term at 2^-256, so the result is exact to far below float resolution.
    """
    p, q = x.as_integer_ratio()
    shift = 256
    acc = 0
    for l in range(1, (1 << m1) + 1):
        rem = l * p % q
        if rem:
            acc += ((q - 2 * rem) << shift) // l
    return acc / (q << shift)


def _csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _reference(refs: dict, b: int) -> C0Reference:
    if b not in refs:
        refs[b] = C0Reference(b)
    return refs[b]


def _spot_rows(core, b, rows, fracs, refs):
    ratio = 0.0
    ref = _reference(refs, b)
    for frac in fracs:
        r_s, v_s = rows[int(frac * len(rows))]
        r = int(r_s)
        bound = core.c0(core.ReducedFraction(r, b)).err_bound
        ratio = max(ratio, ref.error_ratio(r, float(v_s), bound))
    return ratio


def check_scan(op, res, outdir, core, refs):
    b = op["b"]
    lo, hi = window_bounds(b, op["a0"], op["a1"])
    expected = coprime_residues(b, lo, hi)
    header, rows = _csv_rows(os.path.join(outdir, op["name"] + ".csv"))
    with open(os.path.join(outdir, op["name"] + ".json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    phi = len(coprime_residues(b, 1, b))
    if header != ["r", "c0"] or [int(r) for r, _ in rows] != expected:
        return False, "CSV residues differ from the coprime residues of the window", None
    if rep["count"] != len(expected) or rep["phi"] != phi:
        return False, f"count/phi {rep['count']}/{rep['phi']} != {len(expected)}/{phi}", None
    values = [float(v) for _, v in rows]
    for k, got in enumerate(rep["moments_c0"], 1):
        want = math.fsum(v**k for v in values) / (float(b) ** k * phi)
        scale = math.fsum(abs(v) ** k for v in values) / (float(b) ** k * phi)
        if abs(got - want) > 1e-12 * scale:
            return False, f"moment {k}: report {got!r}, CSV {want!r}", None
    ratio = _spot_rows(core, b, rows, op["spot"], refs)
    return ratio <= 1.0, f"count {len(expected)}, spot error/bound {ratio:.2e}", ratio


def check_figure(op, res, outdir, core, refs):
    b = op["b"]
    header, rows = _csv_rows(os.path.join(outdir, op["name"] + ".csv"))
    if header != ["r", "c0"] or [int(r) for r, _ in rows] != coprime_residues(b, 1, b - 1):
        return False, "figure residues differ from the units mod b", None
    ratio = _spot_rows(core, b, rows, op["spot"], refs)
    return ratio <= 1.0, f"{len(rows)} rows, spot error/bound {ratio:.2e}", ratio


def check_c0(op, res, outdir, core, refs):
    m = C0_LINE.match(res["stdout"].splitlines()[0]) if res["stdout"] else None
    if m is None or (int(m[1]), int(m[2])) != (op["r"], op["b"]):
        return False, "no c0 line for the requested r/b", None
    ratio = _reference(refs, op["b"]).error_ratio(op["r"], float(m[3]), float(m[4]))
    return ratio <= 1.0, f"error/bound {ratio:.2e}", ratio


def check_asympt(op, res, outdir, core, refs):
    header, rows = _csv_rows(os.path.join(outdir, "asympt_n1.csv"))
    blist = [int(b) for b in op["cli"][op["cli"].index("--b-list") + 1].split(",")]
    if [int(row[0]) for row in rows] != blist:
        return False, "asympt rows do not follow --b-list", None
    ratio = 0.0
    for row in rows:
        b = int(row[0])
        bound = core.c0(core.ReducedFraction(1, b)).err_bound
        ratio = max(ratio, C0Reference(b).error_ratio(1, float(row[1]), bound))
    return ratio <= 1.0, f"{len(rows)} rows, error/bound {ratio:.2e}", ratio


def check_verify(op, res, outdir, core, refs):
    lines = res["stdout"].splitlines()
    found = [VERIFY_LINE.match(line) for line in lines]
    names = [m[1] for m in found if m]
    passed = all(m and m[2] == "PASS" for m in found)
    ok = res["rc"] == 0 and passed and tuple(names) == VERIFY_SUITES
    return ok, f"{sum(1 for m in found if m and m[2] == 'PASS')} PASS lines", None


def check_empirical_F(op, res, outdir, core, refs):
    m1, samples = op["args"]
    v = np.load(os.path.join(outdir, op["name"] + ".npy"))
    if len(v) != samples or np.any(np.diff(v) < 0):
        return False, "empirical_F values missing or unsorted", None
    # the tolerances of the `distribution` verify suite
    tol = 2.0 / math.sqrt(samples)
    median = float(np.median(v))
    z = np.linspace(-1.5, 1.5, 41)
    below = np.searchsorted(v, -z + 1e-12, side="right") / samples
    at = np.searchsorted(v, z, side="right") / samples
    sym = float(np.max(np.abs((1.0 - below) - at)))
    jump = int(np.unique(v, return_counts=True)[1].max()) / samples
    if not (abs(median) < tol and sym < tol and jump <= tol):
        return False, f"median {median:.2e}, symmetry {sym:.2e}, jump {jump:.2e} vs {tol:.2e}", None
    worst = 0.0
    for frac in op["spot"]:
        i = 1 + int(frac * samples)
        want = f_exact((float(i) * GOLDEN) % 1.0, m1) / math.pi
        j = int(np.searchsorted(v, want))
        worst = max(worst, min(abs(v[k] - want) for k in (j - 1, j) if 0 <= k < samples))
    return worst < 1e-9, f"median {median:.2e}, symmetry {sym:.2e}, f spot error {worst:.1e}", None


def check_hk_table(op, res, outdir, core, refs):
    k_max = op["args"][0]
    with open(os.path.join(outdir, op["name"] + ".json"), encoding="utf-8") as fh:
        tbl = {f: {int(k): v for k, v in d.items()} for f, d in json.load(fh).items()}
    hk, d2k = tbl["hk"], tbl["d2k"]
    # the tolerances of the `gmachinery` verify suite
    ok = hk[0] == 1.0 and d2k[0] == 1.0 and abs(hk[1] - 0.1389) < 4e-3
    pi_rel = max(abs(hk[k] * math.pi ** (2 * k) - d2k[k]) / d2k[k] for k in range(1, k_max + 1))
    return ok and pi_rel < 1e-12, f"H1 {hk[1]:.5f}, pi scaling rel {pi_rel:.1e}", None


CHECKS = {
    "scan": check_scan,
    "figure": check_figure,
    "verify": check_verify,
    "empirical_F": check_empirical_F,
    "hk_table": check_hk_table,
    "c0": check_c0,
    "asympt": check_asympt,
}


def check_op(op, res, outdir, core, refs):
    """Dispatch on the operation; `refs` caches C0Reference tables by modulus."""
    if res.get("rc") != 0:
        return False, res.get("error") or f"exit code {res.get('rc')}", None
    if "call" in op:
        kind = op["call"]
    elif op["cls"] in ("scan", "figure", "verify"):
        kind = op["cls"]
    else:
        kind = op["cli"][0]
    try:
        return CHECKS[kind](op, res, outdir, core, refs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return False, f"unreadable output: {exc!r}", None
