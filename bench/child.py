"""One pass of a benchmark workload in a fresh interpreter.

    python3 bench/child.py SPAWN_NS SPEC_JSON RESULT_JSON

`run.py` starts this with its CLOCK_MONOTONIC reading at spawn time, so
set-up time covers interpreter start plus `import cotsums` and
`cotsums.cli`.  The package is imported from `src/` of the working
directory.  Library caches therefore start cold in every pass.  The spec
lists the operations (see `workloads.py`); each runs inside its own timed
region, and its outputs are fingerprinted after that region for the
checks in `run.py`.  With `"probe": true` the child stops after the import.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_facts(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return {"sha256": _digest(data), "bytes": len(data), "rows": data.count(b"\n") - 1}


def _run_cli(main, op, outdir):
    argv = op["cli"]
    names = []
    if "--output" in argv:
        out = argv[argv.index("--output") + 1]
        names = [out, os.path.splitext(out)[0] + ".json"] if argv[0] == "scan" else [out]
    for name in names:  # drop what an earlier pass wrote, so outputs are this pass's
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(outdir, name))
    buf = io.StringIO()
    tic = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    seconds = time.perf_counter() - tic
    files = {n: _file_facts(os.path.join(outdir, n))
             for n in names if os.path.exists(os.path.join(outdir, n))}
    return seconds, rc, buf.getvalue(), files


def _run_call(gseries, op, outdir):
    import numpy as np

    if op["call"] == "empirical_F":
        m1, samples = op["args"]
        tic = time.perf_counter()
        cdf = gseries.empirical_F(gseries.TruncatedGSeries(m1), samples)
        seconds = time.perf_counter() - tic
        path = os.path.join(outdir, op["name"] + ".npy")
        np.save(path, cdf.values)
    else:
        k_max, m1, grid = op["args"]
        tic = time.perf_counter()
        tbl = gseries.hk_table(k_max, gseries.TruncatedGSeries(m1), grid)
        seconds = time.perf_counter() - tic
        path = os.path.join(outdir, op["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({f: {str(k): v for k, v in getattr(tbl, f).items()}
                       for f in ("hk", "d2k", "errors", "odd")}, fh)
    return seconds, 0, "", {os.path.basename(path): _file_facts(path)}


def main() -> int:
    spawn_ns = int(sys.argv[1])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import cotsums
    import cotsums.cli

    result = {"setup_s": (time.monotonic_ns() - spawn_ns) / 1e9}
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    if not spec.get("probe"):
        outdir = os.environ["COTSUMS_OUTDIR"]
        gseries = cotsums.gseries
        cli_main = cotsums.cli.main
        rec = cache_counts = None
        if spec["trace"]:
            import spans

            rec = spans.Recorder()
            cache_counts = spans.install(rec)
            cli_main = rec.wrap("cli.main", cli_main)
        ops = []
        for op in spec["ops"]:
            try:
                if "cli" in op:
                    seconds, rc, stdout, files = _run_cli(cli_main, op, outdir)
                else:
                    seconds, rc, stdout, files = _run_call(gseries, op, outdir)
                ops.append({"name": op["name"], "seconds": seconds, "rc": rc,
                            "stdout": stdout, "files": files})
            except Exception:  # an operation that raises counts as failed
                ops.append({"name": op["name"], "seconds": 0.0, "rc": None,
                            "error": traceback.format_exc(), "stdout": "", "files": {}})
        result["ops"] = ops
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rec is not None:
            counters = dict(rec.counters)
            counters.update(cache_counts())
            result["trace"] = {"spans": rec.spans, "counters": counters}
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
