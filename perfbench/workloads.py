"""One measured process of one benchmark workload: the process that runs
this file, started fresh by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N
        [--trace] [--setup-only] [--tiny]

A fresh process matters: asmlab caches inside a process (lru_cache on
rank_matrix, init_ideal and _km_vd_facets; the _BETTI_CACHE and _CM_CACHE
dicts), so a second measurement in the same process would start warm.

The work of a process is fixed.  The seed draws the answers that are checked
against the brute-force oracle, not the timed inputs: per-ASM costs are
heavy-tailed (at n=6 the top 2.5% of ASMs take 82% of the CM time), so the CM
time of a seeded 200-ASM sample of ASM(6) spread by 0.96 of its median from
seed to seed.

Phases:
  setup  import asmlab, stream ASM(n) once and build the inputs and the
         seeded oracle picks (--setup-only stops here);
  cold   every answer once, from empty caches, each ASM timed;
  warm   WARM_PASSES more passes over the same answers in the same process
         (the census from its cache_dir);
  check  after the timed phases, every answer is checked.
Reference slices (see Reference) are taken among this work and left out of
every timing.  The last line of output is one JSON object of raw timings and
the median reference slice.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
# Per n, for every ASM(n) in matrix order: "classes", one letter per ASM as
# analyze_asm answered at the commit that introduced the benchmark (see
# classes_of), and "cost_us", the microseconds analyze_asm took on it then,
# with every check, in a census-like pass over ASM(n) in matrix order on a
# 2-vCPU VM (Python 3.11).  The costs only order the ASMs for CmSample.
TABLE = json.loads((HERE / "asm_table.json").read_text())
WARM_PASSES = 3
REF_SLICES = 30
WARM_SLICES = 10


def reference_slice() -> float:
    """Wall time of a fixed pure-Python loop of about 2 ms."""
    t = perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t


class Reference:
    """Reference slices taken between pieces of measured work: REF_SLICES
    before set-up and after the last phase, about 200 among the cold answers
    and WARM_SLICES before and after each warm pass.  Their median is the
    machine's speed during the process, and the slices nearest to an answer
    or a warm pass its speed during that piece (run.py scales by them);
    `taken_s`, their total time, is left out of every timing.  A traced
    process takes none: in the census they would fall inside the tabulate
    span."""

    def __init__(self, on: bool):
        self.on = on
        self.slices: list[float] = []
        self.taken_s = 0.0

    def take(self, k: int = 1) -> list[float]:
        """Take k slices; returns them."""
        if not self.on:
            return []
        t = perf_counter()
        new = [reference_slice() for _ in range(k)]
        self.slices += new
        self.taken_s += perf_counter() - t
        return new


def import_asmlab():
    """Import asmlab from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import asmlab as lab

    if Path(lab.__file__).resolve().parent != SRC / "asmlab":
        raise ImportError(f"asmlab imported from {lab.__file__}, not from {SRC}")
    return lab


def class_of(r) -> str:
    """N not equidimensional, K KM-vd, C CM but not KM-vd, X pure but not CM."""
    if not r.equidimensional:
        return "N"
    return "K" if r.km_vd else "C" if r.cm else "X"


def classes_of(lab, n: int) -> str:
    """The class letters of every ASM(n) in matrix order (minutes at n=6)."""
    return "".join(class_of(lab.analyze_asm(A)) for A in sorted_asms(lab, n))


def sorted_asms(lab, n: int) -> list:
    # matrix order, not stream order, which a change to the stream may alter
    return sorted(lab.enumerate_asms(n), key=lambda A: A.entries)


class Workload:
    """The inputs and answers of one process.  Subclasses name the per-ASM
    call and the checks."""

    def __init__(self, lab, size: dict, rng: random.Random, ref: Reference):
        self.lab = lab
        self.size = size
        self.rng = rng
        self.ref = ref

    def setup(self) -> None:
        """Build the inputs; sets `answered`, the number of cold answers."""
        raise NotImplementedError

    def answer_all(self, timed) -> None:
        """Answer every input once, in the same order in every process,
        through the per-ASM call wrapped by `timed`."""
        raise NotImplementedError

    def cold(self) -> tuple[float, list[float], list[float]]:
        """The cold phase.  Returns its wall seconds, the seconds of each
        answer, and the reference slices taken after every `slice_every`
        answers."""
        latencies = []
        ref = self.ref
        every = self.slice_every = max(1, self.answered // 200)

        def timed(fn):
            def call(*args, **kwargs):
                t = perf_counter()
                r = fn(*args, **kwargs)
                latencies.append(perf_counter() - t)
                if len(latencies) % every == 0:
                    ref.take()
                return r

            return call

        t0, taken0, sliced0 = perf_counter(), ref.taken_s, len(ref.slices)
        self.answer_all(timed)
        cold_s = perf_counter() - t0 - (ref.taken_s - taken0)
        if len(latencies) != self.answered:
            raise RuntimeError(f"timed {len(latencies)} answers, not {self.answered}")
        return cold_s, latencies, ref.slices[sliced0:]

    def warm(self) -> float:
        raise NotImplementedError

    def oracle_failures(self, reports) -> int:
        """Analysis reports whose (codim, perm_count, equidim) differ from
        those of the brute-force Perm(A)."""
        failed = 0
        for r in reports:
            lengths = [w.length for w in self.lab.perm_set_naive(r.asm)]
            oracle = (min(lengths), len(lengths), len(set(lengths)) == 1)
            failed += (r.codim, r.perm_count, r.equidimensional) != oracle
        return failed

    def cleanup(self) -> None:
        pass


class CensusPrimes(Workload):
    """tabulate(n, checks=("codim", "equidim")) cold into a fresh cache_dir,
    then warm from the same cache_dir.  Per-ASM latency is taken inside the
    cold census, by timing each call tabulate makes to analyze_asm through
    the module attribute asmlab.enumeration.analyze_asm."""

    checks = ("codim", "equidim")

    def setup(self):
        picks = self.rng.sample(sorted_asms(self.lab, self.size["n"]), self.size["oracle"])
        self.picks = {A.entries for A in picks}
        self.picked: list = []
        self.answered = self.size["total"]
        TMP.mkdir(exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="census-", dir=TMP)
        self.tables: list = []

    def answer_all(self, timed):
        enumeration = sys.modules["asmlab.enumeration"]
        analyze = enumeration.analyze_asm

        def keep_picked(A, *args, **kwargs):
            r = analyze(A, *args, **kwargs)
            if A.entries in self.picks:
                self.picked.append(r)
            return r

        enumeration.analyze_asm = timed(keep_picked)
        try:
            self.warm()  # the first census into the fresh cache_dir
        finally:
            enumeration.analyze_asm = analyze

    def warm(self):
        t = perf_counter()
        self.tables.append(
            self.lab.tabulate(self.size["n"], checks=self.checks, jobs=1, cache_dir=self.cache_dir)
        )
        return perf_counter() - t

    def check(self) -> tuple[int, int]:
        cold_csv = self.tables[0].to_csv()
        failed = sum(
            not (
                table.total == self.size["total"]
                and table.equidim == self.size["equidim"]
                and table.to_csv() == cold_csv
            )
            for table in self.tables
        )
        failed += len(self.picked) != len(self.picks)
        failed += self.oracle_failures(self.picked)
        return len(self.tables) + 1 + len(self.picks), failed

    def detail(self) -> dict:
        return {"census_csv": self.tables[0].to_csv()}

    def cleanup(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class CmSample(Workload):
    """analyze_asm with every check on a fixed set of about one ASM(n) in
    `den`, stratified by class and by recorded cost, so that each class and
    the heavy tail of cost are there at their share of ASM(n): each class,
    ordered by cost, is cut into runs of `den` and the middle ASM of each run
    is taken (the middle ASM of a class smaller than `den`)."""

    def setup(self):
        asms = sorted_asms(self.lab, self.size["n"])
        table = TABLE[str(self.size["n"])]
        classes, cost = table["classes"], table["cost_us"]
        if not len(asms) == len(classes) == len(cost):
            raise RuntimeError(f"{len(asms)} ASMs but {len(classes)} recorded classes")
        den = self.size["den"]
        self.inputs = []
        for c in sorted(set(classes)):
            members = sorted((cost[i], i) for i, k in enumerate(classes) if k == c)
            self.inputs += [asms[i] for _, i in members[den // 2 :: den] or [members[len(members) // 2]]]
        self.inputs.sort(key=lambda A: A.entries)
        self.expected = {A.entries: k for A, k in zip(asms, classes)}
        self.picks = self.rng.sample(range(len(self.inputs)), self.size["oracle"])
        self.answered = len(self.inputs)

    def answer_all(self, timed):
        analyze = timed(self.lab.analyze_asm)
        self.cold_answers = [analyze(A) for A in self.inputs]

    def warm(self):
        t = perf_counter()
        self.warm_answers = [self.lab.analyze_asm(A) for A in self.inputs]
        return perf_counter() - t

    @staticmethod
    def key(r):
        return (r.codim, r.perm_count, r.equidimensional, r.cm, r.km_vd)

    def check(self):
        failed = 0
        for cold, warm in zip(self.cold_answers, self.warm_answers):
            # km_vd => CM => equidimensional, the recorded class, and a warm
            # answer equal to the cold one
            ok = (not cold.km_vd or cold.cm) and (not cold.cm or cold.equidimensional)
            ok = ok and class_of(cold) == self.expected[cold.asm.entries]
            failed += not (ok and self.key(cold) == self.key(warm))
        failed += self.oracle_failures(self.cold_answers[i] for i in self.picks)
        failed += self.digest() != self.size["digest"]
        return len(self.inputs) + len(self.picks) + 1, failed

    def digest(self) -> str:
        lines = sorted(f"{r.asm.entries}|{self.key(r)}" for r in self.cold_answers)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    def detail(self):
        counts = {c: 0 for c in "NKCX"}
        for r in self.cold_answers:
            counts[class_of(r)] += 1
        return {"asms": len(self.cold_answers), "classes": counts, "digest": self.digest()}


# Per workload: the class and its full and tiny (smoke-test) sizes.  The digests
# are of the answers at the commit that introduced the benchmark; the census's
# equidim 4065 was also confirmed with perm_set_naive over all of ASM(6).
WORKLOADS = {
    "census6-primes": (
        CensusPrimes,
        {
            "full": {"n": 6, "oracle": 20, "total": 7436, "equidim": 4065},
            "tiny": {"n": 5, "oracle": 20, "total": 429, "equidim": 329},
        },
    ),
    "cm6-sample": (
        CmSample,
        {
            "full": {"n": 6, "den": 37, "oracle": 20, "digest": "61c42a50481f19d6"},
            "tiny": {"n": 5, "den": 4, "oracle": 10, "digest": "7a6561670a1d6165"},
        },
    ),
}


def run(args) -> dict:
    cls, sizes = WORKLOADS[args.workload]
    ref = Reference(on=not args.trace)
    ref.take(REF_SLICES)
    taken0 = ref.taken_s
    t = perf_counter()
    lab = import_asmlab()
    tracer = None
    if args.trace:
        from tracer import Tracer

        t_install = perf_counter()
        tracer = Tracer()
        tracer.install()
        t += perf_counter() - t_install
    wl = cls(lab, sizes["tiny" if args.tiny else "full"], random.Random(args.seed), ref)
    wl.setup()
    setup_s = perf_counter() - t
    result = {"setup_s": setup_s}
    try:
        if not args.setup_only:
            cold_s, latencies, cold_slices = wl.cold()
            warm_times, warm_slices = [], []
            for _ in range(WARM_PASSES):
                around = ref.take(WARM_SLICES)
                warm_times.append(wl.warm())
                warm_slices.append(around + ref.take(WARM_SLICES))
            wall_s = perf_counter() - t - (ref.taken_s - taken0)
            per_layer = None
            if tracer:
                tracer.uninstall()
                per_layer = tracer.metrics(wl.answered)
                tracer.write(OUT / f"spans-{args.workload}.bin")
            attempted, failed = wl.check()
            result.update(
                answered=wl.answered,
                cold_s=cold_s,
                latencies_s=latencies,
                cold_slices_s=cold_slices,
                slice_every=wl.slice_every,
                warm_s=warm_times,
                warm_slices_s=warm_slices,
                wall_s=wall_s,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                attempted=attempted,
                failed=failed,
                per_layer=per_layer,
                detail=wl.detail(),
            )
    finally:
        wl.cleanup()
    ref.take(REF_SLICES)
    result["ref_slice_s"] = statistics.median(ref.slices) if ref.slices else None
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
