"""Smoke test of the benchmark: every workload at n=5, untraced and traced.

    python3 perfbench/test_smoke.py          # or: python3 -m pytest perfbench
    python3 perfbench/test_smoke.py 6        # confirm the n=6 equidim count with
                                             # perm_set_naive and the recorded
                                             # n=6 classes (minutes)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import TABLE, TMP, WORKLOADS, classes_of, import_asmlab

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int) -> None:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0  # failed_frac
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        # self times never overlap, so they add up to at most the traced run
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self_s = [v for k, v in values.items() if k.endswith(".self_s")]
        traced_wall = json.loads(proc.stdout.splitlines()[-2])["runs"][1]["wall_s"]
        assert min(self_s) >= 0 and sum(self_s) <= traced_wall
        if values["homology.is_cohen_macaulay.calls"]:
            # recursive calls go through the wrapper too
            assert values["homology.complex_is_cm.calls"] > values["homology.is_cohen_macaulay.calls"]


def test_untraced_runs_report_every_end_to_end_metric():
    for w in SPEC["workloads"]:
        check_result(w["name"], 0)


def test_traced_runs_report_every_per_layer_metric():
    for w in SPEC["workloads"]:
        check_result(w["name"], 1)


def test_no_result_without_the_sources():
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, root=bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def equidim_by_oracle(n: int) -> int:
    """ASMs whose Perm(A) from perm_set_naive has a single Coxeter length."""
    lab = import_asmlab()
    return sum(len({w.length for w in lab.perm_set_naive(A)}) == 1 for A in lab.enumerate_asms(n))


def test_census_equidim_count_matches_oracle():
    _, sizes = WORKLOADS["census6-primes"]
    assert equidim_by_oracle(sizes["tiny"]["n"]) == sizes["tiny"]["equidim"]


def test_recorded_classes_match_analysis():
    assert classes_of(import_asmlab(), 5) == TABLE["5"]["classes"]


if __name__ == "__main__":
    if len(sys.argv) > 1:
        _, sizes = WORKLOADS["census6-primes"]
        n = int(sys.argv[1])
        expected = {s["n"]: s["equidim"] for s in sizes.values()}.get(n)
        print(f"n={n}: {equidim_by_oracle(n)} equidimensional (benchmark expects {expected})")
        same = classes_of(import_asmlab(), n) == TABLE.get(str(n), {}).get("classes")
        print(f"n={n}: classes {'equal' if same else 'differ from'} the recorded ones")
    else:
        for name, fn in list(globals().items()):
            if name.startswith("test_"):
                fn()
                print("ok", name)
