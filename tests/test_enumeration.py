import json
import multiprocessing
import random
import sys

import pytest
from hypothesis import given, strategies as st

from asmlab import (
    ASM_COUNTS,
    AnalysisReport,
    Asm,
    analyze_asm,
    enumerate_asms,
    init_ideal,
    minimal_primes,
    perm_set_via_primes,
    sr_complex_from_ideal,
    tabulate,
    verify_statement,
)
from asmlab.enumeration import (
    CENSUS_COLUMNS,
    SHARD_SIZE,
    _cache_key,
    _sampled_asms,
    _shard_worker,
    pair_memo,
)
from asmlab.homology import cascade_is_cm
from asmlab.ideals import transpose_analysis
from asmlab.errors import (
    SizeBoundExceededError,
    UnknownCheckError,
    UnknownStatementError,
)
import asmlab.enumeration as enumeration_mod


class TestStream:
    def test_counts(self):
        for n in range(1, 6):
            assert sum(1 for _ in enumerate_asms(n)) == ASM_COUNTS[n - 1]

    def test_no_duplicates(self):
        seen = set(A.entries for A in enumerate_asms(4))
        assert len(seen) == 42

    def test_all_valid(self):
        from asmlab import validate_asm

        for A in enumerate_asms(4):
            validate_asm(A.entries)

    def test_deterministic_order(self):
        first = list(enumerate_asms(3))
        second = list(enumerate_asms(3))
        assert first == second
        assert first[0] == Asm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_bounds(self):
        with pytest.raises(SizeBoundExceededError):
            list(enumerate_asms(0))
        with pytest.raises(SizeBoundExceededError):
            list(enumerate_asms(9))


class TestAnalyze:
    def test_report_invariants_asm4(self):
        for A in enumerate_asms(4):
            r = analyze_asm(A)
            if r.km_vd:
                assert r.cm
            if r.cm:
                assert r.equidimensional
            assert r.perm_count >= 1
            assert r.a11_is_one == (A[(1, 1)] == 1)

    def test_json_round_trip(self, b4):
        r = analyze_asm(b4)
        r2 = AnalysisReport.from_json_dict(json.loads(json.dumps(r.to_json_dict())))
        assert r2.asm == b4 and r2.cm == r.cm and r2.codim == r.codim

    def test_partial_checks(self, b4):
        r = analyze_asm(b4, checks=("codim",))
        assert r.codim == 3 and r.cm is None and r.km_vd is None

    def test_unknown_check(self, b4):
        with pytest.raises(UnknownCheckError):
            analyze_asm(b4, checks=("codim", "bogus"))


class TestTabulate:
    def test_n4_counts(self):
        t = tabulate(4)
        assert (t.total, t.cm, t.not_cm) == (42, 39, 3)
        assert (t.km_vd_fail, t.km_vd_fail_a11) == (1, 0)
        assert t.equidim == 39

    def test_jobs_invariance(self):
        t1 = tabulate(4, jobs=1)
        t4 = tabulate(4, jobs=4)
        assert t1.row()[:-1] == t4.row()[:-1]

    @pytest.mark.parametrize("n, jobs, pools", [(4, 4, []), (5, 8, [4])])
    def test_pool_no_larger_than_the_missing_shards(self, monkeypatch, n, jobs, pools):
        sizes = []

        class RecordingPool:
            """Records the worker count asked for and runs in this process."""

            def __init__(self, processes=None):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, func, iterable):
                return map(func, iterable)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        t = tabulate(n, checks=CODIM, jobs=jobs)
        assert sizes == pools
        assert t.total == ASM_COUNTS[n - 1]

    def test_filter(self):
        t = tabulate(4, filter_spec="a11=1")
        assert t.total == 7  # ASM(3) embeds as the A_{1,1}=1 slice

    def test_csv_shape(self):
        text = tabulate(3).to_csv()
        header, row = text.strip().split("\n")
        assert header == ",".join(CENSUS_COLUMNS)
        assert row.startswith("3,7,7,0,")

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        t1 = tabulate(4, cache_dir=tmp_path)
        shards = sorted(p.name for p in (tmp_path / _cache_key(
            4, tuple(sorted(("cm", "codim", "equidim", "km_vd"))), "rational", None
        )).iterdir())
        assert shards == ["shard_00000000.jsonl"]

        def boom(args):
            raise AssertionError("warm cache must not recompute")

        monkeypatch.setattr(enumeration_mod, "_shard_worker", boom)
        t2 = tabulate(4, cache_dir=tmp_path)
        assert t1 == t2

    def test_warm_pass_rebuilds_no_report(self, tmp_path, monkeypatch):
        cold = tabulate(4, cache_dir=tmp_path).to_csv()

        def boom(d):
            raise AssertionError("the census counts records, not reports")

        monkeypatch.setattr(AnalysisReport, "from_json_dict", boom)
        assert tabulate(4, cache_dir=tmp_path).to_csv() == cold

    def test_cache_of_another_version_not_served(self, tmp_path, monkeypatch):
        version = enumeration_mod.CACHE_VERSION
        monkeypatch.setattr(enumeration_mod, "CACHE_VERSION", version - 1)
        tabulate(4, checks=("cm",), cache_dir=tmp_path)
        (old,) = tmp_path.iterdir()
        shard = old / "shard_00000000.jsonl"
        # an older code's wrong answers: every ASM(4) not CM
        lines = shard.read_text().splitlines()
        shard.write_text("".join(
            json.dumps({**json.loads(line), "cm": False}) + "\n" for line in lines
        ))
        assert tabulate(4, checks=("cm",), cache_dir=tmp_path).not_cm == 42
        monkeypatch.setattr(enumeration_mod, "CACHE_VERSION", version)
        assert tabulate(4, checks=("cm",), cache_dir=tmp_path).cm == 39
        assert len(list(tmp_path.iterdir())) == 2

    def test_cm_size_bound(self):
        with pytest.raises(SizeBoundExceededError):
            tabulate(8, checks=("cm",))

    def test_unknown_check_rejected_before_any_shard(self, tmp_path, monkeypatch):
        def boom(args):
            raise AssertionError("no shard may run")

        monkeypatch.setattr(enumeration_mod, "_shard_worker", boom)
        with pytest.raises(UnknownCheckError):
            tabulate(3, checks=("codim", "bogus"), cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())


CODIM = ("codim",)


def shard_dir(cache_dir, n):
    return cache_dir / _cache_key(n, CODIM, "rational", None)


def records(path):
    """A shard file's records without their timings."""
    lines = path.read_text().splitlines()
    return [{**json.loads(line), "timings": None} for line in lines]


class TestCensusStream:
    def count_pulls(self, monkeypatch):
        pulled = []
        stream = enumeration_mod.enumerate_asms

        def counted(n):
            for A in stream(n):
                pulled.append(A)
                yield A

        monkeypatch.setattr(enumeration_mod, "enumerate_asms", counted)
        return pulled

    def test_one_pass_cold_none_warm(self, tmp_path, monkeypatch):
        pulled = self.count_pulls(monkeypatch)
        cold = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        assert len(pulled) == ASM_COUNTS[4] == 429
        pulled.clear()
        warm = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        assert pulled == [] and warm == cold

    def test_interrupted_run_resumes(self, tmp_path, monkeypatch):
        analyze = enumeration_mod.analyze_asm
        calls = []

        def failing(A, **kwargs):
            calls.append(A)
            if len(calls) == SHARD_SIZE + 10:
                raise KeyboardInterrupt
            return analyze(A, **kwargs)

        monkeypatch.setattr(enumeration_mod, "analyze_asm", failing)
        with pytest.raises(KeyboardInterrupt):
            tabulate(5, checks=CODIM, cache_dir=tmp_path)
        written = sorted(p.name for p in shard_dir(tmp_path, 5).glob("*.jsonl"))
        assert written == ["shard_00000000.jsonl"]

        def counting(A, **kwargs):
            calls.append(A)
            return analyze(A, **kwargs)

        calls.clear()
        monkeypatch.setattr(enumeration_mod, "analyze_asm", counting)
        resumed = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        assert len(calls) == ASM_COUNTS[4] - SHARD_SIZE
        assert resumed.row()[:-1] == tabulate(5, checks=CODIM).row()[:-1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_middle_shard_recomputed_alone(self, tmp_path, jobs):
        tabulate(5, checks=CODIM, cache_dir=tmp_path)
        paths = sorted(shard_dir(tmp_path, 5).glob("*.jsonl"))
        assert len(paths) == 4
        middle = paths[2]
        before = records(middle)

        def stamps():
            kept = [p.stat() for p in paths if p != middle]
            return [(st.st_ino, st.st_mtime_ns) for st in kept]

        kept = stamps()
        middle.unlink()
        tabulate(5, checks=CODIM, cache_dir=tmp_path, jobs=jobs)
        assert stamps() == kept
        assert records(middle) == before


class TestShardValidation:
    """A damaged shard is recomputed and rewritten, never served."""

    @pytest.mark.parametrize("damage", ["truncated", "not-json", "missing-key"])
    def test_damaged_shard_recomputed(self, tmp_path, damage):
        checks = ("codim", "equidim")
        cold = tabulate(4, checks=checks, cache_dir=tmp_path)
        (shard,) = (tmp_path / _cache_key(4, checks, "rational", None)).iterdir()
        before = records(shard)
        lines = shard.read_text().splitlines()
        if damage == "truncated":
            lines = lines[:1]
        elif damage == "not-json":
            lines[5] = lines[5][:-1]
        else:
            record = json.loads(lines[5])
            del record["equidimensional"]
            lines[5] = json.dumps(record)
        shard.write_text("".join(line + "\n" for line in lines))
        warm = tabulate(4, checks=checks, cache_dir=tmp_path)
        assert warm.row()[:-1] == cold.row()[:-1] and warm.total == 42
        assert records(shard) == before

    def test_truncated_filtered_shard_recomputed(self, tmp_path):
        checks = ("codim", "equidim")
        cold = tabulate(4, checks=checks, filter_spec="a11=1", cache_dir=tmp_path)
        assert cold.total == 7
        (shard,) = (tmp_path / _cache_key(4, checks, "rational", "a11=1")).iterdir()
        before = records(shard)
        shard.write_text(shard.read_text().splitlines()[0] + "\n")
        warm = tabulate(4, checks=checks, filter_spec="a11=1", cache_dir=tmp_path)
        assert warm.row()[:-1] == cold.row()[:-1]
        assert records(shard) == before


def calls_through(monkeypatch, fn):
    """Count calls of fn through every asmlab module that binds its name."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "asmlab" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


class TestOneDerivation:
    """analyze_asm and `asmlab analyze` compute the minimal primes of an
    ASM once, and build its complex only for the CM and KM-vd checks."""

    def test_all_checks(self, monkeypatch, non_km_gvd, b4):
        primes = calls_through(monkeypatch, minimal_primes)
        complexes = calls_through(monkeypatch, sr_complex_from_ideal)
        for A in (non_km_gvd, b4):
            primes.clear()
            complexes.clear()
            analyze_asm(A)
            assert len(primes) == len(complexes) == 1

    def test_primes_only_builds_no_complex(self, monkeypatch, non_km_gvd, b4):
        primes = calls_through(monkeypatch, minimal_primes)
        complexes = calls_through(monkeypatch, sr_complex_from_ideal)
        for A in (non_km_gvd, b4):
            primes.clear()
            analyze_asm(A, checks=("codim", "equidim"))
            assert len(primes) == 1
        assert complexes == []

    def test_cli_analyze(self, monkeypatch, tmp_path, capsys, b4):
        from asmlab.cli import main

        path = tmp_path / "b4.json"
        path.write_text(json.dumps(b4.to_json_dict()))
        primes = calls_through(monkeypatch, minimal_primes)
        assert main(["analyze", "--input", str(path)]) == 0
        assert len(primes) == 1
        assert json.loads(capsys.readouterr().out)["cm"] is False


def answers(report) -> dict:
    """A report's JSON with the stage names of its timings but not their
    seconds."""
    d = report.to_json_dict()
    d["timings"] = [stage for stage, _ in d["timings"]]
    return d


def fresh(A, checks=enumeration_mod.ALL_CHECKS, field="rational"):
    """analyze_asm(A) with no transpose partner pending."""
    pair_memo.cache_clear()
    return analyze_asm(A, checks, field)


def pairs(n) -> int:
    return sum(A.transpose() != A for A in enumerate_asms(n)) // 2


ASMS_UPTO_6 = {n: list(enumerate_asms(n)) for n in range(1, 7)}


class TestPairMemo:
    """analyze_asm answers the second ASM of a transpose pair from the
    analysis of the first."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stream_equals_fresh(self, n):
        streamed = [analyze_asm(A) for A in enumerate_asms(n)]
        assert pair_memo.cache_info().hits == pairs(n)
        assert [answers(r) for r in streamed] == [answers(fresh(r.asm)) for r in streamed]

    @given(st.integers(1, 6).flatmap(lambda n: st.sampled_from(ASMS_UPTO_6[n])))
    def test_transposed_primes(self, A):
        At = A.transpose()
        shared = transpose_analysis(perm_set_via_primes(A), A.n)
        assert shared.primes == minimal_primes(init_ideal(At))
        assert shared == perm_set_via_primes(At)

    def test_km_vd_not_carried(self):
        # km_vd differs within 62 of the 181 pairs of ASM(5)
        A = next(A for A in enumerate_asms(5) if fresh(A).km_vd != fresh(A.transpose()).km_vd)
        expected = {B: fresh(B).km_vd for B in (A, A.transpose())}
        for first, second in ((A, A.transpose()), (A.transpose(), A)):
            pair_memo.cache_clear()
            assert analyze_asm(first).km_vd == expected[first]
            assert analyze_asm(second).km_vd == expected[second]
            assert pair_memo.cache_info().hits == 1

    def test_cm_not_shared_across_fields(self, monkeypatch, b4, worked_example):
        assert b4.transpose() == worked_example
        cascades = calls_through(monkeypatch, cascade_is_cm)
        analyze_asm(b4, ("cm",))
        assert analyze_asm(worked_example, ("cm",), field="p=2").cm is False
        assert len(cascades) == 2
        analyze_asm(b4, ("cm",), field="p=2")
        assert analyze_asm(worked_example, ("cm",), field="p=2").cm is False
        assert len(cascades) == 3
        analyze_asm(b4, ("codim",))
        assert analyze_asm(worked_example, ("cm",)).cm is False
        assert len(cascades) == 4
        assert pair_memo.cache_info().hits == 3

    def test_bound(self, monkeypatch):
        monkeypatch.setattr(enumeration_mod, "PAIR_MEMO_SIZE", 3)
        streamed = []
        for A in enumerate_asms(5):
            streamed.append(analyze_asm(A))
            assert pair_memo.cache_info().currsize <= 3
        assert 0 < pair_memo.cache_info().hits < pairs(5)
        assert [answers(r) for r in streamed] == [answers(fresh(r.asm)) for r in streamed]


class TestVerifyStatement:
    def test_unknown(self):
        with pytest.raises(UnknownStatementError):
            verify_statement("not-a-statement", 3)

    @pytest.mark.parametrize(
        "name",
        [
            "perm-bijection",
            "direct-sum",
            "init-split",
            "link-colon",
            "tilde-identity",
            "block-antidiagonal",
            "badblock",
            "cm-conjecture",
            "containment-restrictions",
        ],
    )
    def test_all_pass_at_n3(self, name):
        report = verify_statement(name, 3)
        assert report.passed

    def test_case_counts_n4(self):
        assert verify_statement("perm-bijection", 4).cases == 42
        assert verify_statement("init-split", 4).cases == 42
        assert verify_statement("badblock", 4).detail["matches"] == 1

    @pytest.mark.parametrize("name", ["block-antidiagonal", "direct-sum"])
    def test_block_sum_case_counts(self, name):
        cases = [verify_statement(name, n).cases for n in range(1, 6)]
        pairs = [
            sum(ASM_COUNTS[m - 1] * ASM_COUNTS[n - m - 1] for m in range(1, n))
            for n in range(1, 6)
        ]
        assert cases == pairs == [0, 1, 4, 18, 112]

    @pytest.mark.parametrize("false_for, kind", [("1+A", "converse"), ("A", "forward")])
    def test_cm_conjecture_failure_kinds(self, monkeypatch, false_for, kind):
        # every ASM(3) and its 1 + A are CM; declaring one side not CM
        # must show up as failures of exactly the matching kind
        cm = enumeration_mod.is_cohen_macaulay
        size = {"A": 3, "1+A": 4}[false_for]

        def patched(A, field="rational"):
            return False if A.n == size else cm(A, field)

        monkeypatch.setattr(enumeration_mod, "is_cohen_macaulay", patched)
        report = verify_statement("cm-conjecture", 3)
        assert report.cases == len(report.failures) == 7
        assert {f["kind"] for f in report.failures} == {kind}
        assert report.detail["cm_count"] == (0 if false_for == "A" else 7)

    @pytest.mark.parametrize("seed,target", [(0, 80), (3, 30), (5, 428), (1, 600)])
    def test_sample_drawn_by_index_is_the_list_sample(self, seed, target):
        rng, old = random.Random(seed), random.Random(seed)
        pool = list(enumerate_asms(5))
        expected = old.sample(pool, target) if target < len(pool) else pool
        assert _sampled_asms(5, rng, target) == expected
        assert rng.getstate() == old.getstate()

    @pytest.mark.parametrize("n", [0, 9])
    def test_size_out_of_range(self, n):
        with pytest.raises(SizeBoundExceededError):
            verify_statement("perm-bijection", n)

    def test_seeded_sampling_is_deterministic(self):
        a = verify_statement("tilde-identity", 5, seed=3)
        b = verify_statement("tilde-identity", 5, seed=3)
        assert (a.cases, a.failures) == (b.cases, b.failures)
