"""Run the benchmark over several seeds and summarize every end-to-end metric.

    python3 scripts/bench.py --out BENCH.json [--seeds 1 2 3] [--baseline DIR]

Runs `perfbench/run.py --trace 0` once per workload of BENCHMARK.json and
seed, one run at a time, and writes the median and quartiles of each
end-to-end metric over the seeds.  With --baseline DIR, a checkout of
another commit (made with `git archive` or `git clone`), every seed runs
the baseline and this checkout as a pair, alternating which goes first, and
the output also holds the baseline's summary and, per metric, the number of
pairs this checkout won (ties count for neither side).  Every run starts
with PYTHONDONTWRITEBYTECODE=1 and a fresh, empty PYTHONPYCACHEPREFIX, so
each side compiles its sources alike and no `__pycache__` left in either
checkout is read.  Progress goes to
stderr; the exit status is 1 when any run fails its checks, and 2, with one
JSON error line on stderr, for a bad command line.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from asmlab.cli import ArgumentParser, report_errors  # noqa: E402


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in the checkout at `root`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": pycache}
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        raise SystemExit(f"{root}: {workload} seed {seed} gave no result\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    p = ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--baseline", type=Path)
    return report_errors(lambda: bench(p.parse_args(argv)))


def bench(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"change": ROOT}
    if args.baseline:
        sides["baseline"] = args.baseline.resolve()
    out = {"seeds": args.seeds, "workloads": {}}
    all_correct = True
    for w in spec["workloads"]:
        name = w["name"]
        results: dict[str, list[dict]] = {side: [] for side in sides}
        for i, seed in enumerate(args.seeds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                r = run_once(sides[side], name, seed, spec["run_seconds"])
                results[side].append(r)
                all_correct &= r["correct"]
                print(f"{name} seed {seed} {side}: correct={r['correct']}", file=sys.stderr)
        entry: dict = {
            side: {
                "failed": sum(r["failed"] for r in rs),
                "attempted": sum(r["attempted"] for r in rs),
                "metrics": {
                    m["name"]: summary([r["metrics"][m["name"]]["value"] for r in rs])
                    for m in spec["end_to_end"]
                },
            }
            for side, rs in results.items()
        }
        if "baseline" in sides:
            entry["change_wins"] = {}
            for m in spec["end_to_end"]:
                sign = 1 if m["better"] == "higher" else -1
                pairs = zip(results["change"], results["baseline"])
                wins = sum(
                    sign * (c["metrics"][m["name"]]["value"] - b["metrics"][m["name"]]["value"]) > 0
                    for c, b in pairs
                )
                entry["change_wins"][m["name"]] = f"{wins}/{len(args.seeds)}"
        out["workloads"][name] = entry
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
