import hashlib
import io
import json
import runpy
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from asmlab import enumerate_asms, init_ideal, sr_complex_from_ideal
from asmlab.cli import main
from asmlab.enumeration import ALL_CHECKS
from asmlab.homology import complex_is_cm
from asmlab.sweeps import STATEMENT_NAMES, _STATEMENTS

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
# sha256 of every `asmlab analyze` report on ASM(n <= 5), as
# TestAnalyze.test_reports_pinned reads them
ANALYZE_REPORTS_SHA256 = "2064f56d2873234d90447f831339404dfe8ad115ca7354f1b6f6a7d7e8d43b1d"


def assert_one_error_line(capsys, code):
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == code


def write_asm(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps({"n": len(matrix), "matrix": matrix}))
    return str(path)


@pytest.fixture()
def worked_example_path(tmp_path):
    return write_asm(
        tmp_path, "a.json", [[0, 0, 1, 0], [1, 0, -1, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
    )


class TestAnalyze:
    def test_worked_example(self, worked_example_path, capsys):
        assert main(["analyze", "--input", worked_example_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["essential_set"] == [[1, 2], [2, 3]]
        assert report["dominant_part"] == [[1, 1], [1, 2]]
        assert report["init_ideal"] == [
            ["z_1_1"],
            ["z_1_2"],
            ["z_1_3", "z_2_1"],
            ["z_1_3", "z_2_2"],
        ]
        assert report["cm"] is False and report["equidimensional"] is False

    def test_non_km_gvd_failure_vertex(self, tmp_path, capsys):
        path = write_asm(
            tmp_path,
            "nk.json",
            [[0, 1, 0, 0], [0, 0, 0, 1], [1, -1, 1, 0], [0, 1, 0, 0]],
        )
        assert main(["analyze", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cm"] is True and report["km_vd"] is False
        assert report["km_vd_failure_vertex"] == "z_1_3"

    def test_default_backend_agrees_with_reisner(self, tmp_path, capsys, non_km_gvd):
        path = write_asm(tmp_path, "nk.json", [list(r) for r in non_km_gvd.entries])
        delta = sr_complex_from_ideal(init_ideal(non_km_gvd))
        for field, p in (("rational", 0), ("p=2", 2)):
            assert main(["analyze", "--input", path, "--field", field]) == 0
            cm = json.loads(capsys.readouterr().out)["cm"]
            assert cm is complex_is_cm(delta.facets, p) is True

    def test_backend_flag_removed(self, worked_example_path, capsys):
        argv = ["analyze", "--input", worked_example_path, "--backend", "reisner"]
        assert main(argv) == 2
        assert_one_error_line(capsys, "usage")

    def test_identity(self, tmp_path, capsys):
        path = write_asm(tmp_path, "id.json", [[1 if i == j else 0 for j in range(5)] for i in range(5)])
        assert main(["analyze", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["codim"] == 0 and report["cm"] and report["km_vd"]

    def test_invalid_input_exits_2(self, tmp_path, capsys):
        path = write_asm(tmp_path, "bad.json", [[0, 1], [1, -1]])
        assert main(["analyze", "--input", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "col-sum-violation"

    def test_missing_file(self, capsys):
        assert main(["analyze", "--input", "/nonexistent.json"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "file-not-found"

    def test_directory_input_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "io-error"

    @pytest.mark.parametrize(
        "out, code", [("missing/out.json", "file-not-found"), (".", "io-error")]
    )
    def test_unwritable_out_exits_2(
        self, worked_example_path, tmp_path, capsys, out, code
    ):
        out_path = str(tmp_path / out)
        assert main(["diagram", "--input", worked_example_path, "--out", out_path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == code

    @pytest.mark.parametrize("payload", ['{"matrix": "xx"}', "[1]", "not json"])
    def test_malformed_json_exits_2(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        assert main(["analyze", "--input", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"

    @pytest.mark.parametrize("field", ["p=4", "p=1", "p=abc", "3"])
    def test_bad_field_exits_2(self, worked_example_path, capsys, field):
        assert main(["analyze", "--input", worked_example_path, "--field", field]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-field"

    def test_prime_field_accepted(self, worked_example_path, capsys):
        assert main(["analyze", "--input", worked_example_path, "--field", "p=3"]) == 0
        assert json.loads(capsys.readouterr().out)["cm"] is False

    def test_reports_pinned(self, tmp_path, capsys):
        """The JSON reports stay byte-identical: the stdout of `analyze` on
        each ASM(n <= 5) in stream order, over Q and then GF(2), hashed in
        sequence."""
        path = tmp_path / "a.json"
        digest = hashlib.sha256()
        for n in range(1, 6):
            for A in enumerate_asms(n):
                path.write_text(json.dumps(A.to_json_dict()))
                for field in ("rational", "p=2"):
                    assert main(["analyze", "--input", str(path), "--field", field]) == 0
                    digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == ANALYZE_REPORTS_SHA256


class TestEnumerate:
    def test_csv_row(self, capsys):
        assert main(["enumerate", "-n", "4"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("n,total,cm,not_cm,km_vd_fail")
        assert out[1].startswith("4,42,39,3,1,0,39,")

    def test_json_format(self, capsys):
        assert main(["enumerate", "-n", "3", "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["total"] == 7 and row["cm"] == 7

    def test_cache_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ASMLAB_CACHE", str(tmp_path))
        assert main(["enumerate", "-n", "3"]) == 0
        capsys.readouterr()
        assert any(tmp_path.iterdir())

    def test_cache_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("ASMLAB_CACHE", str(env_dir))
        assert main(["enumerate", "-n", "3", "--cache", str(flag_dir)]) == 0
        capsys.readouterr()
        assert any(flag_dir.iterdir()) and not env_dir.exists()

    @pytest.mark.parametrize("n", ["9", "0"])
    def test_size_out_of_range_exits_2(self, capsys, n):
        assert main(["enumerate", "-n", n, "--checks", "codim"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "size-bound-exceeded"

    def test_unknown_check_exits_2(self, capsys):
        assert main(["enumerate", "-n", "3", "--checks", "codim,bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "unknown-check"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        assert main(["enumerate", "-n", "3", "--checks", "codim", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "error"


class TestRunCensus:
    """enumerate over several sizes: the header once, then each size's row
    as that size gives it alone (runtime_s aside), written as it comes."""

    def lines(self, capsys, out_format, *sizes):
        # the empty name after a trailing comma is dropped
        argv = ["enumerate", "-n", *sizes, "--checks", "codim,equidim,"]
        assert main([*argv, "--format", out_format]) == 0
        out = capsys.readouterr().out.splitlines()
        if out_format == "csv":
            return [line.rsplit(",", 1)[0] for line in out]
        return [{**json.loads(line), "runtime_s": None} for line in out]

    def test_rows(self, capsys):
        rows = self.lines(capsys, "csv", "3", "4")
        assert rows == self.lines(capsys, "csv", "3") + self.lines(capsys, "csv", "4")[1:]
        assert [r.split(",")[:2] for r in rows[1:]] == [["3", "7"], ["4", "42"]]

    def test_json_lines(self, capsys):
        rows = self.lines(capsys, "json", "3", "4")
        assert rows == self.lines(capsys, "json", "3") + self.lines(capsys, "json", "4")
        assert [r["total"] for r in rows] == [7, 42]

    def test_cache_env_per_size(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ASMLAB_CACHE", str(tmp_path))
        assert main(["enumerate", "-n", "3", "4", "--checks", "codim"]) == 0
        capsys.readouterr()
        assert len(list(tmp_path.iterdir())) == 2

    def test_rows_before_an_error_stay(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        argv = ["enumerate", "-n", "3", "9", "--checks", "codim", "--out", str(out)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "size-bound-exceeded"
        assert [r.split(",")[:2] for r in out.read_text().splitlines()] == [
            ["n", "total"],
            ["3", "7"],
        ]

    @pytest.mark.parametrize(
        "flag, value, code",
        [
            ("--field", "p=4", "invalid-field"),
            ("--checks", "bogus", "unknown-check"),
            ("--filter", "nope", "error"),
            ("--jobs", "0", "error"),
        ],
    )
    def test_asmlab_error_exits_2(self, capsys, flag, value, code):
        assert main(["enumerate", "-n", "3", "4", flag, value]) == 2
        assert_one_error_line(capsys, code)


class TestUsageErrors:
    """A command line argparse rejects exits 2 with one JSON error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "-n", "abc"],
            ["verify", "--statement", "nope", "-n", "3"],
            ["verify", "--statement", "badblock", "-n", "3", "--format", "csv"],
            ["enumerate", "-n", "3", "--format", "text"],
            ["verify", "--statement", "badblock", "-n", "3", "--field", "p=2"],
            [],
            ["enumerate", "-n", "3", "abc"],
            ["verify", "-n", "x"],
        ],
    )
    def test_cli(self, capsys, argv):
        assert main(argv) == 2
        assert_one_error_line(capsys, "usage")

    def test_unknown_statement_before_any_run(self, capsys):
        """An unknown name among known ones is rejected before any run, with
        the message argparse gave when it checked the names."""
        assert main(["verify", "--statement", "badblock", "nope", "-n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        names = ", ".join(repr(name) for name in STATEMENT_NAMES)
        assert json.loads(line) == {
            "error": "usage",
            "message": "asmlab verify: argument --statement: invalid choice: "
            f"'nope' (choose from {names})",
        }

    @pytest.mark.parametrize(
        "flag",
        [["--field", "rational"], ["--format", "json"], ["--format", "text"]],
    )
    @pytest.mark.parametrize("command", ["pattern", "diagram"])
    def test_removed_flags(self, worked_example_path, capsys, command, flag):
        files = ["--input", worked_example_path]
        if command == "pattern":
            files = ["--target", worked_example_path, "--pattern", worked_example_path]
        assert main([command, *files]) in (0, 1)
        capsys.readouterr()
        assert main([command, *files, *flag]) == 2
        assert_one_error_line(capsys, "usage")

    def test_bench_script(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", [BENCH.name, "--seeds", "x"])
        assert runpy.run_path(str(BENCH))["main"]() == 2
        assert_one_error_line(capsys, "usage")

    def test_bench_claim(self):
        """A claimed gain holds with nine pairs in ten won and the medians
        apart by more than the baseline's interquartile range, the better
        way; eight wins, a gap inside the range or one the worse way fail."""
        ns = runpy.run_path(str(BENCH))
        compare, summary = ns["compare"], ns["summary"]
        base = summary([10.0 + i for i in range(10)])  # median 14.5, IQR 4.5
        assert compare(summary([v - 5 for v in base["runs"]]), base, "lower") == (10, True)
        assert compare(summary([v - 5 for v in base["runs"]]), base, "higher") == (0, False)
        assert compare(summary([v + 5 for v in base["runs"]]), base, "higher") == (10, True)
        # a gap of 4, inside the IQR of 4.5, though every pair is won
        assert compare(summary([v - 4 for v in base["runs"]]), base, "lower") == (10, False)
        # nine pairs won, and one tied
        nine = summary([v - 5 for v in base["runs"][:9]] + [19.0])
        assert compare(nine, base, "lower") == (9, True)
        eight = summary([v - 5 for v in base["runs"][:8]] + [18.0, 19.0])
        assert compare(eight, base, "lower") == (8, False)

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_bench_plain_copy(self, tmp_path):
        """Each side of a paired run is a plain copy: of a git checkout, the
        files git tracks or would track, as they are in the working tree,
        with no ignored file and no .git; of any other directory, all of
        it."""
        plain_copy = runpy.run_path(str(BENCH))["plain_copy"]
        root = tmp_path / "root"
        (root / "pkg").mkdir(parents=True)
        (root / ".gitignore").write_text("*.pyc\n")
        (root / "pkg" / "a.py").write_text("a = 1\n")
        (root / "pkg" / "a.pyc").write_text("")

        def files(dest):
            return sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file())

        assert plain_copy(root, tmp_path / "a") == tmp_path / "a"
        assert files(tmp_path / "a") == [".gitignore", "pkg/a.py", "pkg/a.pyc"]
        subprocess.run(["git", "init", "-q"], cwd=root, check=True)
        assert plain_copy(root, tmp_path / "b") == tmp_path / "b"
        assert files(tmp_path / "b") == [".gitignore", "pkg/a.py"]
        assert (tmp_path / "b" / "pkg" / "a.py").read_text() == "a = 1\n"


class TestVerify:
    def test_pass_line(self, capsys):
        assert main(["verify", "--statement", "perm-bijection", "-n", "4"]) == 0
        assert capsys.readouterr().out == "PASS perm-bijection n=4 42/42\n"

    def test_skip_line(self, capsys):
        # a run that checked nothing is neither a pass nor a failure
        assert main(["verify", "--statement", "badblock", "-n", "3"]) == 0
        assert capsys.readouterr().out == "SKIP badblock n=3 0/0\n"

    def test_json(self, capsys):
        assert main(["verify", "--statement", "badblock", "-n", "4", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["detail"]["matches"] == 1


class TestRunVerifications:
    """verify over several sizes and statements, sizes outermost."""

    def test_pass_lines(self, capsys):
        # every statement by default, in STATEMENT_NAMES order; badblock has
        # no case at n=3
        assert main(["verify", "-n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in lines] == [
            ["SKIP" if name == "badblock" else "PASS", name, "n=3"] for name in STATEMENT_NAMES
        ]

    def test_sizes_outermost(self, capsys):
        argv = ["verify", "--statement", "direct-sum", "badblock", "-n", "3", "2"]
        assert main([*argv, "--format", "json"]) == 0
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["statement"], r["n"]) for r in reports] == [
            ("direct-sum", 3),
            ("badblock", 3),
            ("direct-sum", 2),
            ("badblock", 2),
        ]

    def test_a_failing_run_exits_1(self, monkeypatch, capsys):
        def fail(n, rng, report):
            report.cases += 1
            report.failures.append({"n": n})

        monkeypatch.setitem(_STATEMENTS, "direct-sum", fail)
        assert main(["verify", "-n", "2", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * len(STATEMENT_NAMES)
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL direct-sum n=2 0/1",
            "FAIL direct-sum n=3 0/1",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--statement", "cm-conjecture", "-n", "6"),
            ("--statement", "direct-sum", "-n", "9"),
        ],
    )
    def test_size_bound_exits_2(self, capsys, argv):
        assert main(["verify", *argv]) == 2
        assert_one_error_line(capsys, "size-bound-exceeded")


class TestPattern:
    def test_contains(self, tmp_path, capsys):
        target = write_asm(
            tmp_path,
            "a6.json",
            [
                [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1, 0],
                [0, 1, 0, 0, -1, 1],
                [0, 0, 1, 0, 0, 0],
                [1, 0, 0, -1, 1, 0],
                [0, 0, 0, 1, 0, 0],
            ],
        )
        pattern = write_asm(
            tmp_path,
            "b5.json",
            [
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 1, 0, -1, 1],
                [1, 0, -1, 1, 0],
                [0, 0, 1, 0, 0],
            ],
        )
        assert main(["pattern", "--target", target, "--pattern", pattern]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kept_rows"] == [1, 2, 3, 5, 6]
        assert out["deleted_rows"] == [4] and out["deleted_cols"] == [3]
        assert out["constraints_ok"] is True

    def test_avoids(self, tmp_path, capsys):
        target = write_asm(tmp_path, "id3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        pattern = write_asm(tmp_path, "sw.json", [[0, 1], [1, 0]])
        assert main(["pattern", "--target", target, "--pattern", pattern]) == 1
        assert json.loads(capsys.readouterr().out) == {"contains": False}


class TestDiagram:
    def test_worked_example(self, worked_example_path, capsys):
        assert main(["diagram", "--input", worked_example_path]) == 0
        assert capsys.readouterr().out == "D E * .\n* . o *\n. * . .\n. . * .\n"


class TestDeterminism:
    def test_byte_identical_reruns(self, worked_example_path, capsys):
        main(["analyze", "--input", worked_example_path])
        first = capsys.readouterr().out
        main(["analyze", "--input", worked_example_path])
        assert capsys.readouterr().out == first


# -- fuzzing: any argv the parser accepts, with any JSON in the input files,
# exits 0, 1 or 2, and 2 always with one JSON error line on stderr.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
SMALL_MATRICES = st.lists(st.lists(st.integers(-1, 1), max_size=4), max_size=4)
ASM_FILES = st.one_of(
    JSON_VALUES,
    JSON_VALUES.map(lambda m: {"matrix": m}),
    st.fixed_dictionaries(
        {"matrix": SMALL_MATRICES}, optional={"n": st.integers(-1, 5)}
    ),
    st.sampled_from([A.to_json_dict() for n in range(1, 5) for A in enumerate_asms(n)]),
)
FIELDS = st.sampled_from(["rational", "p=2", "p=3", "p=4", "p=1", "p=", "abc", "3", ""])
# the --format choices of each command; --field only where it is read
FORMATS = {
    "analyze": ["json", "text"],
    "enumerate": ["csv", "json"],
    "verify": ["text", "json"],
}
SIZES = st.sampled_from(["1", "2", "3", "4", "0", "9", "-2"])  # censuses stay at n <= 4
CHECKS = st.lists(st.sampled_from(ALL_CHECKS + ("bogus",)), max_size=4).map(",".join)


@st.composite
def invocations(draw):
    """(argv, {flag: JSON value written to the file the flag names})."""
    command = draw(
        st.sampled_from(["analyze", "enumerate", "verify", "pattern", "diagram"])
    )
    argv = [command]
    if command in ("analyze", "enumerate"):
        argv.append(f"--field={draw(FIELDS)}")
    out_format = draw(st.sampled_from([None, *FORMATS.get(command, [])]))
    if out_format:
        argv.append(f"--format={out_format}")
    files = {}
    if command in ("analyze", "diagram"):
        files["--input"] = draw(ASM_FILES)
    elif command == "pattern":
        files["--pattern"] = draw(ASM_FILES)
        files["--target"] = draw(ASM_FILES)
    else:
        argv += ["-n", *draw(st.lists(SIZES, min_size=1, max_size=2))]
        if command == "verify":
            statements = st.lists(st.sampled_from(STATEMENT_NAMES), min_size=1, max_size=2)
            argv += ["--statement", *draw(statements)]
        else:
            argv.append(f"--checks={draw(CHECKS)}")
            filter_spec = draw(st.sampled_from([None, "a11=1", "bogus"]))
            if filter_spec:
                argv.append(f"--filter={filter_spec}")
    return argv, files


@settings(max_examples=60, deadline=None)
@given(invocations())
def test_fuzzed_invocations_keep_the_exit_contract(invocation):
    argv, files = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for flag, value in files.items():
            path = Path(tmp) / f"{flag.strip('-')}.json"
            path.write_text(json.dumps(value))
            argv = argv + [flag, str(path)]
        if argv[0] == "enumerate":
            argv = argv + ["--cache", str(Path(tmp) / "cache")]
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
    assert status in (0, 1, 2)
    if status == 2:
        (line,) = err.getvalue().splitlines()
        assert "error" in json.loads(line)
    else:
        assert err.getvalue() == ""
