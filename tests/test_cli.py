import json

import pytest

from asmlab.cli import main


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


class TestVerify:
    def test_pass_line(self, capsys):
        assert main(["verify", "--statement", "perm-bijection", "-n", "4"]) == 0
        assert capsys.readouterr().out == "PASS 42/42\n"

    def test_json(self, capsys):
        assert main(["verify", "--statement", "badblock", "-n", "4", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["detail"]["matches"] == 1


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
