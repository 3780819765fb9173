"""The four benchmark workloads as lists of operations, one pass each.

Moduli and sizes are fixed per workload, so the work in a pass is the same
for every seed.  The seed picks only the r of each `point_values` operation
and the rows that the correctness checks compare against a high-precision
reference (`spot`, fractions of the output length).

An operation is a dict: `name`, `cls` (the operation class its throughput
counts under), `work` (units of that class per run of the operation), and
either `cli` (argv for `cotsums.cli.main`) or `call` plus `args` (a
`cotsums.gseries` entry point called directly).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("scan_ladder", "limit_profile", "verify_all", "point_values")

SCAN_PRIMES = (1009, 10007, 30011)
SCAN_COMPOSITE = 30030  # 2*3*5*7*11*13: its unit group is not cyclic
FIGURE_B = 10007
POINT_MODULI = (10007, 100003, 1000003)
ASYMPT_B_LIST = tuple(1000 << i for i in range(8))  # 1000 .. 128000
PROFILE_SAMPLES = 10_000
PROFILE_DENSE = (6, 14, 8191)  # k_max, m1, grid: L = 2^14 <= 4 * (grid // 2 + 1)
PROFILE_BINNED = (6, 18, 4001)  # L = 2^18 > 4 * grid on every row
SPOT_ROWS = 3


def coprime_residues(b: int, lo: int, hi: int) -> list[int]:
    """r in [lo, hi] with gcd(r, b) = 1, ascending."""
    return [r for r in range(lo, hi + 1) if math.gcd(r, b) == 1]


def window_bounds(b: int, a0: float, a1: float) -> tuple[int, int]:
    # The CLI's window is ceil(A0 b) <= r <= floor(A1 b).
    return math.ceil(a0 * b), math.floor(a1 * b)


def hk_points(grid: int) -> int:
    """Grid points hk_table evaluates: full grid, half grid, full grid at m1 - 2."""
    return grid + (grid // 2 + 1) + grid


def generic_r(b: int, rng: random.Random) -> int:
    """A unit r mod b that is badly approximable at the scale of the cot table.

    The scalar sums gather cot(pi m r / b) at stride r.  When k*r lies near 0
    mod b for some small k, every k-th gather lands near the previous one and
    the loop runs faster: up to 2x for r near b/3, about 15% for r near
    32b/49.  Requiring k * |k r mod b| >= b/8 for every k <= 512 (a continued
    fraction of r/b with small partial quotients) gives every seed the same
    memory access pattern.
    """
    while True:
        r = rng.randrange(2, b - 1)
        if math.gcd(r, b) == 1 and all(
            k * min(k * r % b, b - k * r % b) >= b // 8 for k in range(1, 513)
        ):
            return r


def _scan_op(name: str, b: int, a0: float, a1: float, threads: int, rng) -> dict:
    lo, hi = window_bounds(b, a0, a1)
    argv = ["scan", "--b", str(b), "--a0", str(a0), "--a1", str(a1), "--kmax", "3",
            "--deterministic", "--threads", str(threads), "--output", f"{name}.csv"]
    return {"name": name, "cls": "scan", "cli": argv, "b": b, "a0": a0, "a1": a1,
            "work": len(coprime_residues(b, lo, hi)),
            "spot": [rng.random() for _ in range(SPOT_ROWS)]}


def build(workload: str, seed: int, threads: int) -> list[dict]:
    """The operations of one pass of `workload`, in the order they run."""
    rng = random.Random(seed)
    if workload == "scan_ladder":
        ops = [_scan_op(f"scan_b{b}", b, 0.6, 0.8, threads, rng) for b in SCAN_PRIMES]
        ops.append(_scan_op(f"scan_b{SCAN_COMPOSITE}", SCAN_COMPOSITE, 0.6, 0.8, threads, rng))
        ops.append(_scan_op("scan_b30011_narrow", 30011, 0.6, 0.62, threads, rng))
        b = FIGURE_B
        ops.append({"name": f"figure_b{b}", "cls": "figure", "b": b,
                    "cli": ["scan", "--b", str(b), "--figure", "--output", f"figure_b{b}.csv"],
                    "work": len(coprime_residues(b, 1, b - 1)),
                    "spot": [rng.random() for _ in range(SPOT_ROWS)]})
        return ops
    if workload == "limit_profile":
        m1 = PROFILE_DENSE[1]
        return [
            {"name": "empirical_F", "cls": "profile", "call": "empirical_F",
             "args": [m1, PROFILE_SAMPLES], "work": PROFILE_SAMPLES,
             "spot": [rng.random() for _ in range(SPOT_ROWS)]},
            {"name": "hk_table_dense", "cls": "profile", "call": "hk_table",
             "args": list(PROFILE_DENSE), "work": hk_points(PROFILE_DENSE[2])},
            {"name": "hk_table_binned", "cls": "profile", "call": "hk_table",
             "args": list(PROFILE_BINNED), "work": hk_points(PROFILE_BINNED[2])},
        ]
    if workload == "verify_all":
        return [{"name": "verify", "cls": "verify", "cli": ["verify", "--suite", "all"],
                 "work": 9}]
    if workload == "point_values":
        ops = []
        for b in POINT_MODULI:
            r = generic_r(b, rng)
            for precision in ("default", "oracle"):
                ops.append({"name": f"c0_b{b}_{precision}", "cls": "point", "b": b, "r": r,
                            "cli": ["c0", "--r", str(r), "--b", str(b), "--precision", precision],
                            "work": 3 * (b - 1)})
        blist = ",".join(str(b) for b in ASYMPT_B_LIST)
        ops.append({"name": "asympt_n1", "cls": "point",
                    "cli": ["asympt", "--n", "1", "--b-list", blist, "--output", "asympt_n1.csv"],
                    "work": sum(b - 1 for b in ASYMPT_B_LIST)})
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
