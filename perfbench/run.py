"""asmlab benchmark: census-shaped workloads, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from src/ next to this directory.
Workloads, metrics, units and bounds are listed in BENCHMARK.json; each
workload is defined in workloads.py.

--trace 0 runs the workload in CHILDREN fresh processes, one after another,
each after SETUPS_EACH fresh processes that only set up, so that set-ups are
sampled across the whole run.  It reports the median set-up time over all
processes, the ASMs answered per second of cold work, the latency percentiles
over all cold answers, the mean warm pass (a full garbage collection lands in
some passes only, the same ones in every process) and the largest peak memory.

Times are reported at a reference speed.  Each process times a fixed ~2 ms
loop (workloads.reference_slice) among its work and scales its times by
REF_S / the median of those slices; an answer's latency and a warm pass are
scaled by the median of the slices nearest to them (for an answer, LOCAL on
each side).  On a shared 2-vCPU VM the same work ran up to 1.5 times slower in
one process than in another, CPU time as much as wall time, in stretches of
seconds to minutes.  Over the same 10 runs, the spread (IQR / median) of
asms_per_s was 0.107 as measured and 0.045 scaled on cm6-sample, and 0.099 and
0.032 on census6-primes.  The raw times stay in the line printed before the
result.  The work of a run is fixed, so --seconds is recorded but sets
nothing; BENCHMARK.json's run_seconds is the measured length of a run.

--trace 1 runs the workload twice with the same seed, untraced and then
traced, and reports the per-module metrics of the traced process and the
tracing overhead (traced wall time minus untraced wall time).  Spans of the
traced process are written to .bench_out/.

Before the result, one JSON line records the environment (nproc, Python,
commit when run in a git checkout, seed, and calibration_s, the time of 100
reference slices at the start, which makes a slow machine visible) and the
processes' raw timings.  The last line is {"correct", "attempted", "failed",
"metrics"}; failed / attempted is the fraction of answers that failed the
workload's checks.  The exit status is 0 only when every answer is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import reference_slice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170
CHILDREN = 2
SETUPS_EACH = 3
# The reference slice's time at the reference speed, about its median on the
# 2-vCPU VM (Python 3.11) the benchmark was written on.
REF_S = 0.002
LOCAL = 3


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
    )
    return out.stdout.strip() or None


def run_child(args, deadline: float, *flags: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        *flags,
    ]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - perf_counter())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_reference_speed(r: dict) -> dict:
    """A process's result with its times scaled to the reference speed."""
    k = REF_S / r["ref_slice_s"]
    out = dict(r, setup_s=r["setup_s"] * k)
    if "cold_s" in r:
        out["cold_s"] = r["cold_s"] * k
        out["warm_s"] = [
            x * REF_S / statistics.median(around)
            for x, around in zip(r["warm_s"], r["warm_slices_s"])
        ]
        slices, every = r["cold_slices_s"], r["slice_every"]
        local = [
            REF_S / statistics.median(slices[max(0, j - LOCAL) : j + LOCAL + 1])
            for j in range(len(slices))
        ]
        out["latencies_s"] = [
            x * local[min(i // every, len(local) - 1)] for i, x in enumerate(r["latencies_s"])
        ]
    return out


def pooled_metrics(setups: list[dict], runs: list[dict]) -> dict:
    setups = [at_reference_speed(r) for r in setups]
    runs = [at_reference_speed(r) for r in runs]
    latencies = [x for r in runs for x in r["latencies_s"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
        "asms_per_s": sum(r["answered"] for r in runs) / sum(r["cold_s"] for r in runs),
        "asm_p50_ms": 1000 * percentile(latencies, 50),
        "asm_p95_ms": 1000 * percentile(latencies, 95),
        "warm_s": statistics.fmean(x for r in runs for x in r["warm_s"]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="n=5 inputs, for the smoke test")
    args = p.parse_args(argv)

    deadline = perf_counter() + DEADLINE_S
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "calibration_s": sum(reference_slice() for _ in range(100)),
    }
    try:
        if args.trace:
            setups = []
            runs = [run_child(args, deadline), run_child(args, deadline, "--trace")]
            untraced, traced = runs
            overhead = traced["wall_s"] - untraced["wall_s"]
            values = dict(traced["per_layer"])
            values["trace.overhead_s"] = overhead
            values["trace.overhead_frac"] = overhead / untraced["wall_s"]
            wanted = spec["per_layer"]
        else:
            setups, runs = [], []
            for _ in range(CHILDREN):
                setups += [run_child(args, deadline, "--setup-only") for _ in range(SETUPS_EACH)]
                runs.append(run_child(args, deadline))
            values = pooled_metrics(setups, runs)
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        del r["per_layer"], r["latencies_s"], r["cold_slices_s"], r["warm_slices_s"]
    print(json.dumps({"env": env, "setups_s": [r["setup_s"] for r in setups], "runs": runs}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
