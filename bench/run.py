"""Benchmark for cotsums: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a checkout; the package is imported from `src/`.
Each workload is a closed loop: one client runs one pass at a time, every
pass in a fresh child interpreter (`child.py`) that runs the workload's
operations one after another, so library caches start cold as they do for
a CLI user.  A new pass starts only while it is expected to finish within
`--seconds`; at least one pass runs.  With `--trace 1` passes alternate
untraced and traced, the traced ones recording spans around every layer
entry point (`spans.py`); per-layer numbers come from the traced passes,
the tracing overhead from the difference.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with `--trace 0`, its `per_layer` metrics with `--trace 1`.
Every metric is also printed above it by name, with its unit, as is the
machine the numbers were taken on.  `--workload all` runs every workload
both ways and prints one combined record instead (the format of
`bench/BENCH_*.json`).

Outputs are checked after the timed passes (`checks.py`): the last pass's
outputs are checked against independent references, and every pass must
have produced the same outputs.  A failed or wrong operation counts in
`failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120
LAYERS = ("core", "equidist", "gseries", "asymptotics", "cli")
# The scan threads already use every core; a second level of BLAS threads
# inside each of them oversubscribes the machine and makes timings erratic.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLASS_METRICS = {"scan": "scan_values_per_s", "figure": "figure_values_per_s",
                 "profile": "profile_points_per_s", "point": "point_terms_per_s"}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing package, child crashed)."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def scan_threads() -> int:
    """`--threads` for the scans: every core, at most 4 (memory per thread)."""
    return min(_nproc(), 4)


def machine_facts(root: str) -> dict:
    import numpy as np

    facts = {"nproc": _nproc(), "cpu": platform.processor() or platform.machine(),
             "python": platform.python_version(), "numpy": np.__version__,
             "blas": None, "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
             "scan_threads": scan_threads(), "commit": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            facts["cpu"] = models[0]
    except OSError:
        pass
    # cache sizes as the kernel reports them; absent outside Linux
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_dir, index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            kind = "" if fields["type"] == "Unified" else fields["type"][0].lower()
            facts[f"cache_L{fields['level']}{kind}"] = fields["size"]
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))
    except (KeyError, TypeError):
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
                             capture_output=True, text=True)
        if out.returncode == 0:
            facts["commit"] = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return facts


def _child(root: str, rundir: str, spec_path: str) -> dict:
    result_path = os.path.join(rundir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, COTSUMS_OUTDIR=rundir, **CHILD_ENV)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(spawn_ns), spec_path, result_path],
        cwd=root, env=env, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_spec(rundir: str, name: str, spec: dict) -> str:
    path = os.path.join(rundir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def _pass_wall(res: dict) -> float:
    return res["setup_s"] + sum(o["seconds"] for o in res["ops"])


def _fingerprint(res: dict) -> tuple:
    # verify prints its own timings; everything else is byte-reproducible
    stdout = re.sub(r" \[\d+ ms\]$", "", res["stdout"], flags=re.M)
    return (res.get("rc"), stdout, tuple(sorted((k, v["sha256"]) for k, v in res["files"].items())))


def _class_throughputs(ops: list[dict], passes: list[dict]) -> dict:
    out = {}
    for cls, metric in CLASS_METRICS.items():
        idx = [i for i, op in enumerate(ops) if op["cls"] == cls]
        work = sum(ops[i]["work"] for i in idx)
        rates = [work / t for t in (sum(p["ops"][i]["seconds"] for i in idx) for p in passes) if t > 0]
        out[metric] = statistics.median(rates) if idx and rates else 0.0
    return out


def end_to_end(ops: list[dict], passes: list[dict], setups: list[float]) -> dict:
    work = sum(op["work"] for op in ops)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(_pass_wall(p) for p in passes),
        "work_per_s": statistics.median(work / sum(o["seconds"] for o in p["ops"]) for p in passes),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def _self_times(spans: list[list]) -> tuple[dict, float]:
    """Self time per span name, and the time covered by root spans (seconds)."""
    dur = [(end - start) / 1e9 for _, start, end, _ in spans]
    inner = [0.0] * len(spans)
    covered = 0.0
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            inner[parent] += dur[i]
        else:
            covered += dur[i]
    by_name: dict[str, float] = {}
    for i, sp in enumerate(spans):
        by_name[sp[0]] = by_name.get(sp[0], 0.0) + dur[i] - inner[i]
    return by_name, covered


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(ops: list[dict], res: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    spans, c = res["trace"]["spans"], res["trace"]["counters"]
    st, covered = _self_times(spans)

    def s(name):
        return st.get(name, 0.0)

    def n(key):
        return c.get(key, 0.0)

    m = {}
    kernel_s = s("equidist.scan_arrays") + s("equidist.batch_c0_vq")
    window_rows = sum(f["rows"] for op, o in zip(ops, res["ops"]) if op["cls"] == "scan"
                      for name, f in o["files"].items() if name.endswith(".csv"))
    m.update({
        "equidist.scan_arrays.self_s": s("equidist.scan_arrays"),
        "equidist.batch_c0_vq.self_s": s("equidist.batch_c0_vq"),
        "equidist.kernel.cells": n("equidist.kernel.cells"),
        "equidist.kernel.cells_per_s": _ratio(n("equidist.kernel.cells"), kernel_s),
        "equidist.kernel.bytes": n("equidist.kernel.bytes"),
        "equidist.scan.self_s": s("equidist.scan"),
        "equidist.window_residues.self_s": s("equidist.window_residues"),
        "equidist.recompute_ratio": _ratio(window_rows, n("equidist.values_computed")),
    })
    saw_s = sum(s(k) for k in ("gseries.empirical_F", "gseries.hk_table", "gseries.f_eval",
                                "gseries.f_offset_grid"))
    m.update({
        "gseries.empirical_F.self_s": s("gseries.empirical_F"),
        "gseries.hk_table.self_s": s("gseries.hk_table"),
        "gseries.saw_terms": n("gseries.saw_terms"),
        "gseries.saw_terms_per_s": _ratio(n("gseries.saw_terms"), saw_s),
        "gseries.f_eval.calls": n("gseries.f_eval.calls"),
        "gseries.f_eval.self_s": s("gseries.f_eval"),
        "gseries.g_fourier_eval.calls": n("gseries.g_fourier_eval.calls"),
        "gseries.g_fourier_eval.self_s": s("gseries.g_fourier_eval"),
        "gseries.cdf.self_s": s("gseries.cdf"),
        "gseries.f_offset_grid.self_s": s("gseries.f_offset_grid"),
        "gseries.fourier_offset_grid.self_s": s("gseries.fourier_offset_grid"),
    })
    sum_s = s("core.c0") + s("core.q_sum") + s("core.vasyunin")
    m.update({
        "core.sum.calls": n("core.sum.calls"),
        "core.sum.terms": n("core.sum.terms"),
        "core.sum.self_s": sum_s,
        "core.sum.terms_per_s": _ratio(n("core.sum.terms"), sum_s),
        "core.cot_table.calls": n("core.cot_table.calls"),
        "core.cot_table.misses": n("core.cot_table.misses"),
        "core.cot_table.hit_ratio": _ratio(n("core.cot_table.calls") - n("core.cot_table.misses"),
                                           n("core.cot_table.calls")),
        "core.cot_table.self_s": s("core.cot_table"),
        "core.cot_table.bytes": n("core.cot_table.bytes"),
    })
    m.update({
        "asymptotics.c1_empirical.self_s": s("asymptotics.c1_empirical"),
        "asymptotics.c1_direct.self_s": s("asymptotics.c1_direct"),
        "asymptotics.c0_asymptotic.calls": n("asymptotics.c0_asymptotic.calls"),
        "asymptotics.c0_asymptotic.self_s": s("asymptotics.c0_asymptotic"),
        "asymptotics.p1_integral.hit_ratio": _ratio(n("asymptotics.p1_integral.hits"),
                                                    n("asymptotics.p1_integral.calls")),
    })
    cli_ops = [(op, o) for op, o in zip(ops, res["ops"]) if "cli" in op]
    m.update({
        "cli.main.self_s": s("cli.main"),
        "cli.rows_written": sum(f["rows"] for _, o in cli_ops for name, f in o["files"].items()
                                if name.endswith(".csv")),
        "cli.output_bytes": sum(len(o["stdout"].encode()) + sum(f["bytes"] for f in o["files"].values())
                                for _, o in cli_ops),
    })
    verify_ms = {hit[1]: float(hit[3]) for _, o in cli_ops for line in o["stdout"].splitlines()
                 if (hit := checks.VERIFY_LINE.match(line))}
    for suite in checks.VERIFY_SUITES:
        m[f"cli.verify.{suite}_ms"] = verify_ms.get(suite, 0.0)
    layer_s = {layer: sum(v for k, v in st.items() if k.split(".", 1)[0] == layer) for layer in LAYERS}
    total = sum(layer_s.values())
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_s[layer]
        m[f"layer.{layer}.share"] = _ratio(layer_s[layer], total)
    m["trace.span_coverage"] = _ratio(covered, _pass_wall(res))
    m["trace.spans"] = float(len(spans))
    return m


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns counts, all computed metrics and check details."""
    from cotsums import core

    ops = workloads.build(name, seed, scan_threads())
    base = os.path.join(root, ".bench_out")
    os.makedirs(base, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    try:
        plain = _write_spec(rundir, "plain.json", {"ops": ops, "trace": False})
        traced = _write_spec(rundir, "traced.json", {"ops": ops, "trace": True})
        probe = _write_spec(rundir, "probe.json", {"probe": True})
        _child(root, rundir, probe)  # warm-up: bytecode caches, page cache
        setups = [_child(root, rundir, probe)["setup_s"] for _ in range(SETUP_PROBES)]
        runs: list[tuple[bool, dict]] = []
        cycles: list[float] = []
        t0 = time.monotonic()
        while True:
            tic = time.monotonic()
            for is_traced in ((False, True) if trace else (False,)):
                runs.append((is_traced, _child(root, rundir, traced if is_traced else plain)))
            cycles.append(time.monotonic() - tic)
            if time.monotonic() - t0 + statistics.median(cycles) > seconds:
                break

        # checks, outside every timed region, on the outputs the last pass left
        refs: dict = {}
        ok_self, detail_self, _ = checks.reference_self_check()
        details = {"reference": detail_self}
        failed, ratios = 0, []
        last = runs[-1][1]
        for i, op in enumerate(ops):
            ok, detail, ratio = checks.check_op(op, last["ops"][i], rundir, core, refs)
            checked = _fingerprint(last["ops"][i])
            bad = [r for _, r in runs
                   if not ok or r["ops"][i].get("rc") != 0 or _fingerprint(r["ops"][i]) != checked]
            if ok and bad:
                detail = f"{len(bad)} passes differ from the checked one; " + detail
            details[op["name"]] = ("FAILED: " if bad else "ok: ") + detail
            failed += len(bad)
            if ratio is not None:
                ratios.append(ratio)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    plain_runs = [r for t, r in runs if not t]
    traced_runs = [r for t, r in runs if t]
    setups += [r["setup_s"] for _, r in runs]
    metrics = end_to_end(ops, plain_runs, setups)
    metrics.update(_class_throughputs(ops, plain_runs))
    if traced_runs:
        per_pass = [layer_metrics(ops, r) for r in traced_runs]
        for key in per_pass[0]:
            metrics[key] = statistics.median(p[key] for p in per_pass)
        metrics["core.err_over_bound_max"] = max(ratios, default=0.0)
        metrics["trace.overhead_s"] = (statistics.median(_pass_wall(r) for r in traced_runs)
                                       - statistics.median(_pass_wall(r) for r in plain_runs))
    attempted = len(ops) * len(runs)
    return {"correct": ok_self and failed == 0, "attempted": attempted, "failed": failed,
            "passes": len(plain_runs), "traced_passes": len(traced_runs),
            "fail_ratio": failed / attempted, "metrics": metrics, "checks": details,
            "pass_walls": [_pass_wall(r) for r in plain_runs],
            "pass_rss": [r["rss_mb"] for r in plain_runs],
            "op_seconds": {op["name"]: statistics.median(r["ops"][i]["seconds"] for r in plain_runs)
                           for i, op in enumerate(ops)}}


def _report(name: str, res: dict, specs: list[dict]) -> None:
    print(f"== {name}: {res['passes']} untraced + {res['traced_passes']} traced passes, "
          f"{res['attempted']} operations, {res['failed']} failed, fail_ratio {res['fail_ratio']:g}")
    for op, detail in res["checks"].items():
        print(f"   check {op}: {detail}")
    print("   pass wall_s: " + ", ".join(f"{w:.3f}" for w in res["pass_walls"]))
    print("   pass rss_mb: " + ", ".join(f"{w:.1f}" for w in res["pass_rss"]))
    for op, sec in res["op_seconds"].items():
        print(f"   op {op}: {sec:.4f} s (median of {res['passes']})")
    for spec in specs:
        print(f"   {spec['name']} = {res['metrics'][spec['name']]:.6g} {spec['unit']}")
    for metric, value in res["metrics"].items():
        if metric in CLASS_METRICS.values() and value > 0 and metric not in {s["name"] for s in specs}:
            print(f"   {metric} = {value:.6g} 1/s")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    bench_json = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "cotsums", "__init__.py")):
        print("error: src/cotsums not found; run from the root of a cotsums checkout",
              file=sys.stderr)
        return 2
    with open(bench_json, encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    facts = machine_facts(root)
    print("machine: " + json.dumps(facts))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    record = {"machine": facts, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    try:
        for name in names:
            for trace in modes:
                res = run_workload(root, name, args.seed, args.seconds, trace)
                specs = bench["per_layer"] if trace else bench["end_to_end"]
                _report(name + (" (traced)" if trace else ""), res, specs)
                line = {k: res[k] for k in ("correct", "attempted", "failed")}
                line["metrics"] = {s["name"]: {"value": res["metrics"][s["name"]], "unit": s["unit"]}
                                   for s in specs}
                record["workloads"].setdefault(name, {})["per_layer" if trace else "end_to_end"] = line
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record if args.workload == "all" else line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
