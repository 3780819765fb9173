import concurrent.futures
import csv
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cotsums import asymptotics, cli, core, gseries
from conftest import exact_sums


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestC0Command:
    def test_prints_all_four_quantities(self, capsys):
        assert run(["c0", "--r", "1", "--b", "3"]) == 0
        out = capsys.readouterr().out
        assert "0.1924500897" in out
        for tag in ("c0(1/3)", "Q(1/3)", "V(1/3)", "Estermann(0; 1/3)"):
            assert tag in out

    def test_oracle_precision_mode(self, capsys):
        assert run(["c0", "--r", "2", "--b", "7", "--precision", "oracle"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        float(line.split("=")[1].split("(")[0])

    @pytest.mark.parametrize("precision", ["default", "oracle"])
    def test_estermann_pair_uses_the_printed_c0(self, capsys, precision):
        # at 4123/10007 the default and oracle sums differ in the last digit
        assert run(["c0", "--r", "4123", "--b", "10007", "--precision", precision]) == 0
        lines = capsys.readouterr().out.splitlines()
        c0v = float(lines[0].split(" = ")[1].split(" (")[0])
        re, im = (float(x) for x in lines[3].split(" = ")[1].strip("()").split(", "))
        assert (re, im) == (0.25, 0.5 * c0v)

    def test_rejects_non_coprime(self, capsys):
        assert run(["c0", "--r", "2", "--b", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_rejects_zero_denominator(self, capsys):
        assert run(["c0", "--r", "1", "--b", "0"]) == 2
        capsys.readouterr()

    def test_rejects_modulus_past_int64_products(self, capsys):
        assert run(["c0", "--r", "1", "--b", "3037000500"]) == 2
        assert "b <= 3037000499 required" in capsys.readouterr().err

    def test_reciprocity_route_starts_past_one_direct_tile(self, capsys, monkeypatch):
        # (32749 - 1)//2 = 16374 paired terms fit one tile of 2^14; 32771 has 16385
        def refuse(*args, **kwargs):
            raise AssertionError("the other route ran")

        monkeypatch.setattr(asymptotics, "reciprocity_values", refuse)
        assert run(["c0", "--r", "12345", "--b", "32749"]) == 0
        assert capsys.readouterr().out == (
            "c0(12345/32749) = 16594.10623426345 (err_bound 6.66e-08)\n"
            "Q(12345/32749) = -204759004.81181362 (err_bound 0.000823)\n"
            "V(12345/32749) = -2729.4063761660955 (err_bound 1.92e-08)\n"
            "Estermann(0; 12345/32749) = (0.25, 8297.0531171317252)\n"
        )
        monkeypatch.undo()
        c, q, v = asymptotics.reciprocity_values(core.ReducedFraction(12345, 32771))
        monkeypatch.setattr(core, "c0_q_v", refuse)
        assert run(["c0", "--r", "12345", "--b", "32771"]) == 0
        out = capsys.readouterr().out.splitlines()
        for line, name, value in zip(out, ("c0", "Q", "V"), (c, q, v)):
            assert line == f"{name}(12345/32771) = {cli._g17(value.value)} (err_bound {value.err_bound:.3g})"


def _golden_cases():
    # "$ cotsums <argv>" lines of the golden file, each with the stdout after it
    cases = []
    path = Path(__file__).parent / "data" / "c0_golden.txt"
    for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ cotsums "):
            cases.append((line.split()[2:], []))
        elif not line.startswith("#"):
            cases[-1][1].append(line)
    return [pytest.param(argv, "".join(out), id=" ".join(argv[1:])) for argv, out in cases]


@pytest.mark.parametrize(
    "argv",
    [["c0", "--r", "2", "--b", "4"], ["c0", "--r", "1", "--b", "0"], ["scan", "--b", "101"],
     ["scan", "--b", "101", "--figure", "--kmax", "5"], ["asympt", "--n", "0", "--b-list", "9,7"]],
    ids=" ".join,
)
def test_usage_error_is_one_stderr_line(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith("\n")


_VALUE_LINE = re.compile(r"^(c0|Q|V)\((\d+)/(\d+)\) = (\S+) \(err_bound (\S+)\)$")


class TestC0Golden:
    # b = 2..105, composite 30030 at r = 1 and b - 1, primes with 1, 17 and 64
    # tiles of the direct kernel (10007, 524309, 2097143), the benchmark's
    # point values, and the primes 46337 and 46349 on either side of the
    # kernel's int32/int64 switch, in both precisions.  Oracle values and
    # default ones up to b = 32769 come from the direct kernel; default values
    # past one direct tile (b >= 32771) from `asymptotics.reciprocity_values`
    @pytest.mark.parametrize("argv,want", _golden_cases())
    def test_stdout_is_byte_identical(self, capsys, argv, want):
        assert run(argv) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "argv,want",
        [case for case in _golden_cases() if case.values[0][-1] == "default" and int(case.values[0][4]) >= 32771],
    )
    def test_reciprocity_values_within_printed_bound(self, argv, want):
        lines = [_VALUE_LINE.match(line).groups() for line in want.splitlines()[:3]]
        r, b = int(lines[0][1]), int(lines[0][2])
        for (name, *_, value, bound), exact in zip(lines, exact_sums(r, b)):
            assert abs(Fraction(float(value)) - exact) <= float(bound), name


GOLDEN = Path(__file__).parent / "data" / "cli_golden"
_WINDOW = ["--a0", "0.6", "--a1", "0.8", "--kmax", "3", "--deterministic"]
_TABLE_CASES = [
    pytest.param(argv, names, id=names[0])
    for argv, names in [(["scan", "--b", b, "--figure"], [f"figure_b{b}.csv"])
                        for b in ("2", "3", "4", "6", "757", "30030", "100003", "720720")]
    + [(["scan", "--b", b, *_WINDOW], [f"scan_b{b}.csv", f"scan_b{b}.json"])
       for b in ("1009", "30030", "100003")]
    + [(["asympt", "--n", "1", "--b-list", "2,3,5,6,7,100,1000,12345"], ["asympt_n1.csv"])]
]


def _matches_golden(name, data):
    # the small outputs are checked in whole, the large ones as sha256 and length
    if (GOLDEN / name).exists():
        return data == (GOLDEN / name).read_bytes()
    want = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))[name]
    return (len(data), hashlib.sha256(data).hexdigest()) == (want["bytes"], want["sha256"])


class TestTableGolden:
    """Every CLI table byte for byte as the per-row csv.writer wrote it."""

    @pytest.mark.parametrize("argv,names", _TABLE_CASES)
    def test_output_is_byte_identical(self, tmp_path, monkeypatch, capsys, argv, names):
        monkeypatch.setenv("COTSUMS_OUTDIR", str(tmp_path))
        assert run(argv) == 0
        capsys.readouterr()
        # every file of the case is compared, so a changed CSV cannot hide a
        # changed JSON report of the same scan
        mismatched = [name for name in names if not _matches_golden(name, (tmp_path / name).read_bytes())]
        assert not mismatched, f"differs from its golden copy: {', '.join(mismatched)}"

    def test_table_across_a_block_boundary(self, tmp_path):
        # one row past the first block; -0.0 at r = 32768 prints -0.  The
        # reference is the per-row csv.writer of format(v, ".17g")
        r = np.arange(1, cli._BLOCK_ROWS + 2)
        v = (r - 32768.0) / -7.0
        path = tmp_path / "block_table.csv"
        cli._write_table(str(path), ("r", "c0"), "%d,%.17g\n", r, v)
        ref = tmp_path / "reference.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["r", "c0"])
            w.writerows([str(a), format(x, ".17g")] for a, x in zip(r.tolist(), v.tolist()))
        assert path.read_bytes() == ref.read_bytes()
        assert _matches_golden("block_table.csv", path.read_bytes())

    def test_memory_is_bounded_by_a_block(self, tmp_path, fresh_child):
        # per-row string lists of these 10^6 rows took about 200 MB.  The write
        # runs in a fresh interpreter, whose peak RSS (KiB on Linux) counts
        # numpy's and C allocations too; no temporary outlives the columns
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from cotsums import cli\n"
            "r = np.arange(1, 1_000_001)\n"
            "v = np.sqrt(np.arange(1.0, 1_000_001.0))\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "cli._write_table(sys.argv[1], ('r', 'c0'), '%d,%.17g\\n', r, v)\n"
            "print(peak() - before)\n"
        )
        path = tmp_path / "big.csv"
        assert int(fresh_child(script, str(path))) * 1024 < 16 * 2**20
        with open(path, "rb") as fh:
            assert sum(1 for _ in fh) == 1_000_001


class TestScanFigure:
    @pytest.mark.parametrize("b,nrows", [(757, 756), (946, 420)])
    def test_row_count_is_phi(self, tmp_path, capsys, b, nrows):
        path = tmp_path / f"fig{b}.csv"
        assert run(["scan", "--b", str(b), "--figure", "--output", str(path)]) == 0
        header, rows = read_csv(path)
        assert header == ["r", "c0"]
        assert len(rows) == nrows
        assert rows[0][0] == "1"
        for _, v in rows[:50]:
            float(v)
        capsys.readouterr()

    @pytest.mark.parametrize("b", ["1", "3037000500"])
    def test_invalid_modulus_is_usage_error(self, capsys, b):
        assert run(["scan", "--b", b, "--figure"]) == 2
        assert capsys.readouterr().err.startswith("error: b ")

    def test_write_failure_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        out = blocker / "sub" / "fig.csv"
        assert run(["scan", "--b", "101", "--figure", "--output", str(out)]) == 3
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,flag",
        [(["--a0", "0.6"], "--a0"), (["--a1", "0.8"], "--a1"), (["--format", "json"], "--format json"),
         (["--kmax", "5"], "--kmax"), (["--deterministic"], "--deterministic"),
         (["--threads", "4"], "--threads")],
    )
    def test_window_only_flag_is_usage_error(self, tmp_path, capsys, extra, flag):
        # figure mode writes the whole CSV table; a window flag would be dropped
        out = tmp_path / "f.json"
        assert run(["scan", "--b", "101", "--figure", *extra, "--output", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_format_csv_is_accepted(self, tmp_path, capsys):
        plain, named = tmp_path / "plain.csv", tmp_path / "named.csv"
        assert run(["scan", "--b", "101", "--figure", "--output", str(plain)]) == 0
        assert run(["scan", "--b", "101", "--figure", "--format", "csv", "--output", str(named)]) == 0
        assert plain.read_bytes() == named.read_bytes()
        capsys.readouterr()


class TestScanMoments:
    def test_json_report_schema(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = run(
            [
                "scan",
                "--b",
                "1009",
                "--a0",
                "0.6",
                "--a1",
                "0.8",
                "--kmax",
                "2",
                "--deterministic",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        with open(tmp_path / "rep.json", encoding="utf-8") as fh:
            d = json.load(fh)
        assert set(d) == {
            "b",
            "a0",
            "a1",
            "phi",
            "count",
            "moments_c0",
            "moments_q",
            "ks_distance",
            "wall_ms",
        }
        assert d["b"] == 1009 and d["phi"] == 1008 and d["count"] == 202
        assert len(d["moments_c0"]) == 4 and len(d["moments_q"]) == 4
        assert d["ks_distance"] is None
        assert d["wall_ms"] == 0.0
        header, rows = read_csv(out)
        assert header == ["r", "c0"] and len(rows) == 202

    def test_json_format_skips_csv(self, tmp_path, capsys):
        out = tmp_path / "only.csv"
        code = run(
            [
                "scan",
                "--b",
                "401",
                "--a0",
                "0.6",
                "--a1",
                "0.8",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert not out.exists()
        assert (tmp_path / "only.json").exists()

    def test_json_output_name_without_format_is_usage_error(self, tmp_path, capsys):
        # the CSV and the JSON report would both go to X.json
        out = tmp_path / "X.json"
        assert run(["scan", "--b", "1009", *_WINDOW, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "X.json" in err and "both" in err
        assert not out.exists()

    def test_json_output_name_with_format(self, tmp_path, capsys):
        out = tmp_path / "X.json"
        assert run(["scan", "--b", "1009", *_WINDOW, "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["count"] == 202
        assert run(["scan", "--b", "1009", *_WINDOW, "--format", "csv", "--output", str(out)]) == 0
        capsys.readouterr()
        header, rows = read_csv(out)
        assert header == ["r", "c0"] and len(rows) == 202

    def test_write_failure_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        out = blocker / "sub" / "scan.csv"
        assert run(["scan", "--b", "1009", *_WINDOW, "--output", str(out)]) == 3
        assert "cannot write" in capsys.readouterr().err

    def test_moment_mode_requires_bounds(self, capsys):
        assert run(["scan", "--b", "101"]) == 2
        assert "--a0" in capsys.readouterr().err

    def test_bad_window_is_usage_error(self, capsys):
        assert run(["scan", "--b", "101", "--a0", "0.8", "--a1", "0.6"]) == 2
        capsys.readouterr()

    def test_kmax_past_float_range_is_usage_error(self, tmp_path, capsys):
        # Q's normalizer b^102 phi(b) overflows at b = 1009: the limit is named, with no traceback
        out = tmp_path / "scan.csv"
        assert run(["scan", "--b", "1009", "--a0", "0.6", "--a1", "0.8", "--kmax", "26", "--output", str(out)]) == 2
        assert "k_max <= 25" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_runs_are_byte_identical(self, tmp_path, capsys):
        # both moduli take the whole-modulus FFT; the composite 3003 has several
        # axes.  The ignored --threads still parses and changes no byte
        for modulus in ("1009", "3003"):
            paths = []
            for tag, extra in (("a", ()), ("b", ("--threads", "3"))):
                out = tmp_path / f"{tag}{modulus}.csv"
                run(
                    [
                        "scan",
                        "--b",
                        modulus,
                        "--a0",
                        "0.6",
                        "--a1",
                        "0.8",
                        "--kmax",
                        "2",
                        "--deterministic",
                        *extra,
                        "--output",
                        str(out),
                    ]
                )
                paths.append(out)
            capsys.readouterr()
            assert paths[0].read_bytes() == paths[1].read_bytes()
            a = (tmp_path / f"a{modulus}.json").read_bytes()
            b = (tmp_path / f"b{modulus}.json").read_bytes()
            assert a == b


class TestAsymptCommand:
    def test_header_and_order_zero_plateau(self, tmp_path, capsys):
        out = tmp_path / "n0.csv"
        code = run(
            ["asympt", "--n", "0", "--b-list", "100,200,400,800,1600", "--output", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        header, rows = read_csv(out)
        assert header == ["b", "exact", "main", "residual", "scaled_residual"]
        scaled = [float(r[4]) for r in rows]
        assert max(scaled) / min(scaled) < 1.01

    def test_order_one_scaled_residual_decays(self, tmp_path, capsys):
        # the b^-2 coefficient vanishes, so residual*b^2 keeps shrinking
        out = tmp_path / "n1.csv"
        assert (
            run(["asympt", "--n", "1", "--b-list", "100,200,400,800,1600", "--output", str(out)])
            == 0
        )
        capsys.readouterr()
        _, rows = read_csv(out)
        scaled = [abs(float(r[4])) for r in rows]
        assert max(scaled) <= 1e-4
        assert scaled[-1] <= scaled[0]

    def test_below_threshold_rows_are_flagged(self, tmp_path, capsys):
        out = tmp_path / "flag.csv"
        assert run(["asympt", "--n", "1", "--b-list", "5,7,9", "--output", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_csv(out)
        assert rows[0][0] == "5" and rows[0][2:] == ["", "", ""]
        assert rows[0][1] != ""
        assert rows[1][2] != ""

    def test_rejects_unordered_moduli(self, capsys):
        assert run(["asympt", "--n", "0", "--b-list", "9,7"]) == 2
        assert "ascending" in capsys.readouterr().err
        # out-of-range moduli, orders outside 0..60, non-integers and a b^(n+1)
        # past the float range name their fault
        for n, blist, fault in (
            ("0", "1,5", ">= 2"),
            ("-1", "100,200", "--n"),
            ("61", "1000,2000", "0..60"),
            ("0", "abc", "integers"),
            ("0", "100,3037000500", "<= 3037000499"),
            ("60", "1000,128000", "float maximum"),
        ):
            assert run(["asympt", "--n", n, "--b-list", blist]) == 2
            assert fault in capsys.readouterr().err

    def test_highest_order_runs(self, tmp_path, capsys):
        out = tmp_path / "n60.csv"
        assert run(["asympt", "--n", "60", "--b-list", "100,200", "--output", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_csv(out)
        assert rows[0][2:] == ["", "", ""] and rows[1][4] != ""

    def test_write_failure_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        out = blocker / "sub" / "t.csv"
        assert run(["asympt", "--n", "0", "--b-list", "100", "--output", str(out)]) == 3
        assert "cannot write" in capsys.readouterr().err


class TestOutputDirectory:
    def test_env_variable_sets_default_location(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COTSUMS_OUTDIR", str(tmp_path))
        assert run(["asympt", "--n", "0", "--b-list", "100,200"]) == 0
        capsys.readouterr()
        assert (tmp_path / "asympt_n0.csv").exists()

    def test_explicit_path_wins(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COTSUMS_OUTDIR", str(tmp_path / "elsewhere"))
        (tmp_path / "elsewhere").mkdir()
        out = tmp_path / "here.csv"
        assert run(["asympt", "--n", "0", "--b-list", "100", "--output", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert run(["verify", "--suite", "closed"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("closed: PASS")
        assert "worst residual" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(["verify", "--suite", "nonsense"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "moments", "--b", "5003"],
            ["--suite", "gmachinery", "--m1", "12"],
            ["--suite", "moments", "--grid", "4001"],
            ["--suite", "distribution", "--samples", "20000"],
            ["--suite", "identities", "--bmax", "500"],
        ],
    )
    def test_out_of_range_argument_is_usage_error(self, capsys, argv):
        # the suites run one fixed configuration; its former options are gone
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: " + " ".join(argv[2:]) in captured.err
        assert captured.out == ""


_VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_golden.txt"


@pytest.fixture
def pools(monkeypatch):
    # the (start method, workers) of every pool `verify` builds
    made = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            made.append((mp_context.get_start_method(), max_workers))
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return made


@pytest.fixture
def fake_suites(monkeypatch):
    # every suite replaced by an instant pass; a test may patch one further
    for name in cli.VERIFY_SUITES:
        monkeypatch.setitem(cli._SUITE_FUNCS, name, lambda name=name: (True, 0.0, name))
    return cli._SUITE_FUNCS


def _lines(out):
    return [re.sub(r" \[\d+ ms\]$", "", line) for line in out.splitlines()]


class TestVerifyWorkers:
    """`verify --suite all` in forked workers, one per CPU up to nine."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_lines_match_golden_at_any_cpu_count(self, monkeypatch, capsys, pools, cpus):
        monkeypatch.setattr(gseries, "_cpus", lambda: cpus)
        assert run(["verify", "--suite", "all"]) == 0
        golden = [s for s in _VERIFY_GOLDEN.read_text(encoding="utf-8").splitlines() if not s.startswith("#")]
        assert _lines(capsys.readouterr().out) == golden
        assert pools == ([] if cpus == 1 else [("fork", cpus)])
        assert multiprocessing.active_children() == []

    def test_failing_suite_prints_fail_in_its_place(self, monkeypatch, capsys, pools, fake_suites):
        monkeypatch.setattr(gseries, "_cpus", lambda: 2)
        monkeypatch.setitem(fake_suites, "c1", lambda: (False, 0.5, "patched"))
        assert run(["verify", "--suite", "all"]) == 1
        want = [f"{name}: PASS (worst residual 0; {name})" for name in cli.VERIFY_SUITES]
        want[cli.VERIFY_SUITES.index("c1")] = "c1: FAIL (worst residual 0.5; patched)"
        assert _lines(capsys.readouterr().out) == want
        assert pools == [("fork", 2)]

    def test_raising_suite_reaches_caller_with_its_type(self, monkeypatch, capsys, pools, fake_suites):
        def boom():
            raise ZeroDivisionError("suite bug")

        monkeypatch.setattr(gseries, "_cpus", lambda: 2)
        monkeypatch.setitem(fake_suites, "moments", boom)
        with pytest.raises(ZeroDivisionError, match="suite bug") as caught:
            run(["verify", "--suite", "all"])
        assert "boom" in str(caught.value.__cause__)  # the worker's traceback
        assert pools == [("fork", 2)]
        assert multiprocessing.active_children() == []
        capsys.readouterr()

    def test_dead_worker_is_an_error_not_a_hang(self, monkeypatch, capsys, pools, fake_suites):
        monkeypatch.setattr(gseries, "_cpus", lambda: 2)
        monkeypatch.setitem(fake_suites, "c1", lambda: os._exit(3))
        with pytest.raises(concurrent.futures.process.BrokenProcessPool):
            run(["verify", "--suite", "all"])
        assert multiprocessing.active_children() == []
        # the suites before c1 whose results arrived before the death was seen
        lines = _lines(capsys.readouterr().out)
        passes = [f"{name}: PASS (worst residual 0; {name})" for name in cli.VERIFY_SUITES]
        assert len(lines) <= 3 and lines == passes[: len(lines)]

    @pytest.mark.parametrize("case", ["thread", "one suite", "darwin"])
    def test_serial_cases_start_no_worker(self, monkeypatch, capsys, pools, fake_suites, case):
        monkeypatch.setattr(gseries, "_cpus", lambda: 4)
        argv, release = ["verify", "--suite", "all"], threading.Event()
        waiter = threading.Thread(target=release.wait)
        if case == "thread":
            waiter.start()
        elif case == "one suite":
            argv[-1] = "closed"
        else:
            monkeypatch.setattr(cli.sys, "platform", "darwin")
        try:
            assert run(argv) == 0
        finally:
            release.set()
            if waiter.is_alive():
                waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert len(capsys.readouterr().out.splitlines()) == (1 if case == "one suite" else 9)
        assert pools == []

    def test_cli_import_leaves_multiprocessing_out(self, child_env):
        # their import (about 20 ms) would add to every CLI start
        code = "import cotsums.cli, sys; sys.exit(any(m.split('.')[0] in ('multiprocessing', 'concurrent') for m in sys.modules))"
        subprocess.run([sys.executable, "-c", code], env=child_env, check=True)


def test_main_builds_one_parser(monkeypatch, capsys):
    # the parser is built at the first `main` call, and a usage fault after a
    # good call still exits 2
    built, build = [], cli.build_parser

    def spy():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", spy)
    assert run(["c0", "--r", "1", "--b", "3"]) == 0
    assert run(["c0", "--r", "x", "--b", "3"]) == 2
    assert run(["c0", "--r", "2", "--b", "5"]) == 0
    assert len(built) == 1
    assert "invalid int value" in capsys.readouterr().err
