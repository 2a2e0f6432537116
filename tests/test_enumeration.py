import hashlib
import json
import multiprocessing
import os
import pathlib
import random
import re
import shutil
import sys
import tracemalloc
from itertools import combinations, permutations
from math import factorial, fsum

import pytest
from hypothesis import given, strategies as st

from asmlab import (
    ASM_COUNTS,
    Asm,
    Permutation,
    analyze_asm,
    enumerate_asms,
    essential_set,
    init_ideal,
    minimal_primes,
    perm_set,
    rank_matrix,
    sr_complex_from_ideal,
    tabulate,
    verify_statement,
)
from asmlab.enumeration import (
    CENSUS_COLUMNS,
    SHARD_SIZE,
    _cache_key,
    _shard_worker,
    parse_field,
)
from asmlab.sweeps import _sampled_asms
from asmlab.asm import pipe_dreams
from asmlab.complexes import _coneless_vd, cells, lex_pipe_dreams, mask, perm_facets
from asmlab.homology import complex_is_cm, reduced_betti
from asmlab.ideals import (
    MEMO_SIZE,
    PERM_TABLE_BOUND,
    _km_vd,
    _fill,
    _lex_table,
    _row_upset,
    perm_cm_km_vd,
    perm_walk,
)
from asmlab.errors import (
    AsmlabError,
    InvalidFieldError,
    SizeBoundExceededError,
    UnknownCheckError,
    UnknownStatementError,
)
import asmlab.asm as asm_mod
import asmlab.enumeration as enumeration_mod
import asmlab.homology as homology_mod
import asmlab.ideals as ideals_mod
import asmlab.squarefree as squarefree_mod
import asmlab.sweeps as sweeps_mod
from helpers import PermReading, fresh_python, transpose


def stream_by_positions(n):
    """ASM(n) by recursion over the one-position tuples of the partial
    column sums, each matrix rebuilt from its tuples: the stream's order."""

    def extensions(prev):
        k = len(prev)
        out = []

        def rec(acc, idx):
            if idx == k + 1:
                out.append(tuple(acc))
                return
            lo = max(prev[idx - 1] if idx > 0 else 1, acc[-1] + 1 if acc else 1)
            hi = prev[idx] if idx < k else n
            for m in range(lo, hi + 1):
                rec(acc + [m], idx + 1)

        rec([], 0)
        return out

    def matrix(rows):
        entries, prev = [], [0] * n
        for pos in rows:
            cur = [int(j + 1 in pos) for j in range(n)]
            entries.append(tuple(c - p for c, p in zip(cur, prev)))
            prev = cur
        return Asm(tuple(entries))

    def rec(rows):
        if len(rows) == n:
            yield matrix(rows)
            return
        for ext in extensions(rows[-1] if rows else ()):
            yield from rec(rows + [ext])

    yield from rec([])


# sha256 of the stream's entries in yield order, one tuple repr per line:
# shard boundaries and cached lines depend on this order.
STREAM_SHA256 = {
    5: "fd98d63354d454eae427d2742aed27552d9c85784e740a8e326c1284b77548d9",
    6: "a8f5a066f8c8c93a0b4a750b06645d793159f05cfa7f9d0dde0223cbe25c6b19",
    7: "354dd8e3395c0c390da99ecea5f691c496941e51b3737d0742cbd4be5126da61",
}


class TestStream:
    @pytest.mark.parametrize(
        "n",
        [
            5,
            6,
            pytest.param(
                7,
                marks=pytest.mark.skipif(
                    os.environ.get("ASMLAB_STRETCH") != "1",
                    reason="all of ASM(7); set ASMLAB_STRETCH=1 to run",
                ),
            ),
        ],
    )
    def test_order_is_pinned(self, n):
        digest = hashlib.sha256()
        for A in enumerate_asms(n):
            digest.update(f"{A.entries}\n".encode())
        assert digest.hexdigest() == STREAM_SHA256[n]

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_the_row_recursion(self, n):
        assert list(enumerate_asms(n)) == list(stream_by_positions(n))

    def test_bounds(self):
        with pytest.raises(SizeBoundExceededError):
            list(enumerate_asms(0))
        with pytest.raises(SizeBoundExceededError):
            list(enumerate_asms(9))

    @pytest.mark.parametrize("n", [5.0, True, "5"], ids=repr)
    def test_n_is_an_exact_int(self, n):
        with pytest.raises(SizeBoundExceededError, match="int"):
            list(enumerate_asms(n))


class TestAnalyze:
    def test_report_invariants_asm4(self):
        for A in enumerate_asms(4):
            r = analyze_asm(A)
            if r.km_vd:
                assert r.cm
            if r.cm:
                assert r.equidimensional
            assert r.perm_count >= 1
            assert r.asm.a11_is_one == (A[(1, 1)] == 1)

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

    def test_pool_n5_every_check(self, tmp_path):
        """Two worker processes, each reading Perm(A) after its own row
        prefixes, give the pinned n=5 row, as one process does, and each
        shard's counts: a worker that emptied its answer memos after one
        shard answers the next alike.  A worker's answer memos are empty
        once its shard is done."""
        key = _cache_key(5, enumeration_mod.ALL_CHECKS, 0, None)
        rows, shards = {}, {}
        for jobs in (1, 2):
            rows[jobs] = tabulate(5, jobs=jobs, cache_dir=tmp_path / str(jobs)).row()[:-1]
            shards[jobs] = stored(tmp_path / str(jobs) / key)
        assert rows[1] == rows[2] == (5, 429, 328, 101, 35, 2, 329)
        assert len(shards[1]) == 4 and shards[1] == shards[2]
        asms = list(enumerate_asms(5))[:SHARD_SIZE]
        with multiprocessing.Pool(1) as pool:
            shard = pool.apply(_shard_worker, ((0, asms, frozenset(enumeration_mod.ALL_CHECKS), 0),))
            assert dict(zip(FIELDS, shard[:-1])) == shards[1][0]
            assert pool.apply(answer_memo_sizes) == (0, 0)

    def test_census_empties_the_answer_memos(self):
        """A census analyses each ASM once and no two open ASMs share
        Perm(A), so perm_cm_km_vd could never hit in one: each shard empties
        it, and the subword recursion's memo with it.  analyze_asm outside a
        census keeps both."""
        perm_cm_km_vd.cache_clear()
        _km_vd.cache_clear()
        analyze_asm(Asm(((0, 1, 0), (1, -1, 1), (0, 1, 0))))
        assert perm_cm_km_vd.cache_info().currsize == 1
        assert _km_vd.cache_info().currsize > 0
        assert tabulate(5).row()[:-1] == (5, 429, 328, 101, 35, 2, 329)
        assert answer_memo_sizes() == (0, 0)
        assert tabulate(6).row()[:-1] == (6, 7436, 4028, 3408, 1033, 60, 4065)
        assert answer_memo_sizes() == (0, 0)

    def test_census_empties_the_vd_memo(self):
        """The 11 ASM(6) that gluing leaves undecided build their complexes
        and fill the vd search's memo; each shard empties it with the
        answer memos, so a census with every check ends with it empty."""
        row = tabulate(6, jobs=1).row()[:-1]
        assert row == (6, 7436, 4028, 3408, 1033, 60, 4065)
        assert _coneless_vd.cache_info().currsize == 0

    @pytest.mark.parametrize("n", [True, 5.0, "5"], ids=repr)
    def test_n_is_an_exact_int(self, tmp_path, n):
        """tabulate(True) once gave a row with n=True, and 5.0 or "5" a bare
        TypeError."""
        with pytest.raises(SizeBoundExceededError, match="int"):
            tabulate(n, checks=CODIM, cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("n, jobs, pools", [(4, 4, []), (5, 8, [4])])
    def test_pool_no_larger_than_the_missing_shards(self, monkeypatch, n, jobs, pools):
        sizes = record_pools(monkeypatch, cores=64)
        t = tabulate(n, checks=CODIM, jobs=jobs)
        assert sizes == pools
        assert t.total == ASM_COUNTS[n - 1]

    @pytest.mark.parametrize("jobs, cores, pools", [(5000, 3, [3]), (8, 2, [2]), (4, 1, [])])
    def test_pool_no_larger_than_the_cores(self, monkeypatch, jobs, cores, pools):
        # ASM(5) has 4 shards; one core runs them all in this process
        sizes = record_pools(monkeypatch, cores=cores)
        t = tabulate(5, checks=CODIM, jobs=jobs)
        assert sizes == pools
        assert t.total == ASM_COUNTS[4]

    @pytest.mark.parametrize("jobs", [0, -1, "2", 2.5, True])
    def test_jobs_below_one_rejected_before_any_shard(self, monkeypatch, tmp_path, jobs):
        """So is a jobs that is not an int of exactly that type: "2" once
        raised a bare TypeError, and 2.5 and True ran."""
        sizes = record_pools(monkeypatch, cores=64)
        with pytest.raises(AsmlabError, match="jobs"):
            tabulate(4, checks=CODIM, jobs=jobs, cache_dir=tmp_path)
        assert sizes == [] and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("spellings", [("rational", 0, None), (3, "p=3")])
    def test_field_spellings_share_one_cache(self, tmp_path, spellings):
        rows = {
            tabulate(4, checks=("cm",), field=f, cache_dir=tmp_path).row()[:-1]
            for f in spellings
        }
        assert len(rows) == 1 and len(list(tmp_path.iterdir())) == 1

    @pytest.mark.parametrize("field", [4, "p=4", 1, "p=x", "GF(2)"])
    def test_bad_field_rejected_before_any_shard(self, tmp_path, field):
        with pytest.raises(InvalidFieldError):
            tabulate(4, checks=CODIM, field=field, cache_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_filter(self):
        t = tabulate(4, filter_spec="a11=1")
        assert t.total == 7  # ASM(3) embeds as the A_{1,1}=1 slice

    def test_csv_shape(self):
        text = tabulate(3).to_csv()
        header, row = text.strip().split("\n")
        assert header == ",".join(CENSUS_COLUMNS)
        assert row.startswith("3,7,7,0,")

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        """A cold census writes one key file, a line per shard; a warm rerun
        leaves its bytes as they are and calls no worker or stream."""
        for n, checks in ((4, enumeration_mod.ALL_CHECKS), (6, ("codim", "equidim"))):
            cache_dir = tmp_path / str(n)
            t1 = tabulate(n, checks=checks, cache_dir=cache_dir)
            path = cache_dir / _cache_key(n, checks, 0, None)
            assert list(cache_dir.iterdir()) == [path]
            assert re.fullmatch(r"[0-9a-f]{16}-[0-9a-f]{8}\.txt", path.name)
            starts = range(0, ASM_COUNTS[n - 1], SHARD_SIZE)
            assert [d["start"] for d in shard_lines(path)] == list(starts)
            text = path.read_bytes()

            def boom(*args, **kwargs):
                raise AssertionError("warm cache must not recompute")

            with monkeypatch.context() as m:
                m.setattr(enumeration_mod, "_shard_worker", boom)
                m.setattr(enumeration_mod, "enumerate_asms", boom)
                t2 = tabulate(n, checks=checks, cache_dir=cache_dir)
            assert t1 == t2 and t2.to_csv() == t1.to_csv() and path.read_bytes() == text

    @pytest.mark.parametrize(
        "checks, not_run",
        [
            (("codim", "equidim"), ("cm", "km_vd_fail", "km_vd_fail_a11")),
            (("cm",), ("equidim", "km_vd_fail", "km_vd_fail_a11")),
        ],
    )
    def test_checks_not_run_count_zero(self, tmp_path, checks, not_run):
        """A key file holds no count for a check its census did not run."""
        t = tabulate(5, checks=checks, cache_dir=tmp_path)
        (path,) = tmp_path.iterdir()
        lines = shard_lines(path)
        assert len(lines) == 4 and all(d[k] == 0 for d in lines for k in not_run)
        ran = "equidim" if "equidim" in checks else "cm"
        assert sum(d[ran] for d in lines) == getattr(t, ran) > 0

    def test_warm_pass_rebuilds_no_report(self, tmp_path, monkeypatch):
        cold = tabulate(4, cache_dir=tmp_path).to_csv()

        def boom(*args, **kwargs):
            raise AssertionError("a warm census adds up stored counts")

        monkeypatch.setattr(enumeration_mod, "analyze_asm", boom)
        monkeypatch.setattr(enumeration_mod, "enumerate_asms", boom)
        assert tabulate(4, cache_dir=tmp_path).to_csv() == cold

    @pytest.mark.parametrize(
        "n, filter_spec, checks, cells",
        [
            (1, None, enumeration_mod.ALL_CHECKS, "1,1,1,0,0,0,1"),
            (1, None, ("km_vd",), "1,1,,,0,0,"),
            (2, "a11=1", enumeration_mod.ALL_CHECKS, "2,1,1,0,0,0,1"),
            (2, "a11=1", ("codim", "equidim"), "2,1,,,,,1"),
        ],
    )
    def test_one_asm_shard_counts_are_ints(
        self, tmp_path, monkeypatch, n, filter_spec, checks, cells
    ):
        # a shard of a single ASM once stored its counts as JSON booleans
        cold = tabulate(n, checks=checks, filter_spec=filter_spec, cache_dir=tmp_path)
        assert all(type(v) is int for v in cold.row()[1:-1] if v != "")
        assert cold.to_csv().split("\n")[1].startswith(cells + ",")
        (path,) = tmp_path.iterdir()
        (shard,) = stored(path).values()
        assert all(type(v) is int for v in shard.values())

        def boom(*args, **kwargs):
            raise AssertionError("a warm census adds up stored counts")

        monkeypatch.setattr(enumeration_mod, "analyze_asm", boom)
        monkeypatch.setattr(enumeration_mod, "enumerate_asms", boom)
        warm = tabulate(n, checks=checks, filter_spec=filter_spec, cache_dir=tmp_path)
        assert warm.to_csv() == cold.to_csv()

    def test_cache_of_other_code_not_served(self, tmp_path):
        """A line under this census's key is served as it stands; under the
        key other code would name (another code digest), the same line is
        neither served nor kept, and the names keys_left_alone makes stay."""
        key = _cache_key(4, ("cm",), 0, None)
        current = tmp_path / key
        tabulate(4, checks=("cm",), cache_dir=tmp_path)
        # wrong answers: every ASM(4) not CM
        (shard,) = shard_lines(current)
        current.write_text(line_of({**shard, "cm": 0}) + "\n")
        assert tabulate(4, checks=("cm",), cache_dir=tmp_path).not_cm == 42
        stale = tmp_path / f"{key[:17]}{other_code(key)}.txt"
        current.rename(stale)
        kept = keys_left_alone(tmp_path, key)
        assert tabulate(4, checks=("cm",), cache_dir=tmp_path).cm == 39
        assert set(tmp_path.iterdir()) == {current, *kept}
        assert untouched(kept)

    def test_code_digest_follows_every_source(self, tmp_path):
        """An unedited copy of the package names the key file the package
        does; a byte appended to a module on the census path (complexes) or
        off it (sweeps) names another key file of the same census."""
        code = f"from asmlab.enumeration import _cache_key\nprint(_cache_key(6, {CODIM!r}, 0, None))"
        shutil.copytree(
            pathlib.Path(enumeration_mod.__file__).parent,
            tmp_path / "asmlab",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        keys = [fresh_python(code)]
        for edited in (None, "complexes.py", "sweeps.py"):
            if edited:
                with open(tmp_path / "asmlab" / edited, "a") as source:
                    source.write("\n")
            keys.append(fresh_python(code, src=tmp_path))
        assert keys[0] == keys[1] == f"{_cache_key(6, CODIM, 0, None)}\n"
        assert len(set(keys[1:])) == 3 and len({k[:17] for k in keys}) == 1

    def test_code_digest_is_the_loaded_code(self, tmp_path):
        """A process names the key file of the code it imported: a comment
        appended to homology.py after the import leaves its key as it was,
        while a fresh process of the edited code names another."""
        shutil.copytree(
            pathlib.Path(enumeration_mod.__file__).parent,
            tmp_path / "asmlab",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        key = f"from asmlab.enumeration import _cache_key\nprint(_cache_key(6, {CODIM!r}, 0, None))"
        edit = (
            f"with open({str(tmp_path / 'asmlab' / 'homology.py')!r}, 'a') as source:\n"
            "    source.write('# edited\\n')"
        )
        before, after = fresh_python(f"{key}\n{edit}\n{key}", src=tmp_path).split()
        assert before == after == _cache_key(6, CODIM, 0, None)
        assert fresh_python(key, src=tmp_path).split() != [before]

    def test_previous_format_not_served(self, tmp_path):
        """A key file of this census in the JSON-line format of earlier
        code, <census digest>-<8 hex>.jsonl, with this code's digest or
        another, is neither served nor kept, though it holds every shard."""
        key = _cache_key(4, ("cm",), 0, None)
        tabulate(4, checks=("cm",), cache_dir=tmp_path)
        (shard,) = shard_lines(tmp_path / key)
        # wrong answers: every ASM(4) not CM
        poisoned = json.dumps({**shard, "cm": 0}, sort_keys=True) + "\n"
        (tmp_path / key).unlink()
        for code in (key[17:25], other_code(key)):
            (tmp_path / f"{key[:17]}{code}.jsonl").write_text(poisoned)
        assert tabulate(4, checks=("cm",), cache_dir=tmp_path).cm == 39
        assert list(tmp_path.iterdir()) == [tmp_path / key]

    def test_warm_census_reads_only_its_key_file(self, tmp_path, monkeypatch):
        """A census with every shard stored makes no directory, scans no
        sibling and asks for no core count; a cold one makes its cache
        directory, parents included."""
        cache_dir = tmp_path / "new" / "cache"
        cold = tabulate(5, checks=CODIM, cache_dir=cache_dir).to_csv()
        text = key_file(cache_dir, 5).read_bytes()

        def boom(*args, **kwargs):
            raise AssertionError("a warm census reads its key file and nothing else")

        with monkeypatch.context() as m:
            for name in ("cpu_count", "mkdir", "makedirs", "scandir", "listdir"):
                m.setattr(os, name, boom)
            m.setattr(pathlib.Path, "mkdir", boom)
            m.setattr(pathlib.Path, "iterdir", boom)
            m.setattr(enumeration_mod, "_remove_stale_keys", boom)
            warm = tabulate(5, checks=CODIM, cache_dir=cache_dir).to_csv()
        assert warm == cold and key_file(cache_dir, 5).read_bytes() == text

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
# the fields of a shard line, in their order
FIELDS = ("start", "total", "cm", "equidim", "km_vd_fail", "km_vd_fail_a11", "seconds")


def key_file(cache_dir, n):
    """The key file of a codim census of ASM(n) over Q."""
    return cache_dir / _cache_key(n, CODIM, 0, None)


def other_code(key):
    """8 hex digits other than the code digest in key."""
    return "0" * 8 if key[17:25] != "0" * 8 else "1" * 8


def parse(line):
    """A shard line's fields by name: six ints, then the seconds."""
    *ints, seconds = line.split(" ")
    return dict(zip(FIELDS, [*map(int, ints), float(seconds)]))


def line_of(shard):
    """The line, without its newline, of a shard's fields by name, in
    FIELDS order (one left out is not written): a field given as text is
    written as it is, a number as repr writes it."""
    return " ".join(
        v if isinstance(v, str) else repr(v) for v in (shard[k] for k in FIELDS if k in shard)
    )


def shard_lines(path):
    """The fields of a key file's lines, in file order."""
    return [parse(line) for line in path.read_text().splitlines()]


def counts(line):
    """A shard line's fields without its seconds."""
    return {k: v for k, v in parse(line).items() if k != "seconds"}


def stored(path):
    """A key file's shards without their seconds, by start; the first line
    of each start is kept."""
    shards = {}
    for line in path.read_text().splitlines():
        shard = counts(line)
        shards.setdefault(shard["start"], shard)
    return shards


def keys_left_alone(cache_dir, key):
    """Make the names a census with key file `key` must not delete: other
    censuses' key files, a directory named like a key file of its census,
    a key file and a key directory (one file per shard) of the retired
    v{k}- names, and names of other shapes.  Returns whether each is a
    directory, by path."""
    census, code = key[:16], key[17:25]
    kept = {
        cache_dir / f"{'0' * 16}-{code}.txt": False,
        cache_dir / f"{'0' * 16}-{code}.jsonl": False,
        cache_dir / f"{'0' * 16}-{'1' * 8}.txt": False,
        cache_dir / f"{census}-{'2' * 8}.txt": True,
        cache_dir / f"v14-{census}.jsonl": False,
        cache_dir / f"v9-{census}": True,
        cache_dir / ("0" * 16): True,
        cache_dir / f"{'0' * 16}.txt": False,
        cache_dir / f"{census}.txt": False,
        cache_dir / f"{census}-backup": False,
        cache_dir / f"{census}-{code}": False,
    }
    for path, is_dir in kept.items():
        if is_dir:
            path.mkdir()
            (path / "shard_00000000.jsonl").write_text("{}")
        else:
            path.write_text("kept")
    return kept


def untouched(kept):
    """Whether each name keys_left_alone made is still as it was made: a
    directory holding only its shard file of "{}", or a file reading
    "kept"."""
    return all(
        path.is_dir()
        and [(q.name, q.read_text()) for q in path.iterdir()]
        == [("shard_00000000.jsonl", "{}")]
        if is_dir
        else path.is_file() and path.read_text() == "kept"
        for path, is_dir in kept.items()
    )


def drop_lines(path, *indices):
    """Rewrite a key file without the lines at these indices; returns the
    bytes left."""
    lines = path.read_bytes().splitlines(keepends=True)
    text = b"".join(line for i, line in enumerate(lines) if i not in indices)
    path.write_bytes(text)
    return text


def answer_memo_sizes() -> tuple[int, int]:
    """The entries in perm_cm_km_vd and in the subword recursion's memo, as
    a worker process reads them."""
    return perm_cm_km_vd.cache_info().currsize, _km_vd.cache_info().currsize


def record_pools(monkeypatch, cores):
    """Make os.cpu_count() report `cores` and multiprocessing.Pool a pool
    that runs in this process; returns the worker counts asked for."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes=None):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, func, iterable):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    return sizes


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

    def test_each_asm_analysed_through_the_module_attribute(self, calls_through):
        """A jobs=1 census calls analyze_asm once per ASM through the module
        attribute asmlab.enumeration.analyze_asm, which a wrapper such as a
        profiler or a per-answer timer replaces."""
        calls = calls_through(analyze_asm)
        t = tabulate(5, checks=("codim", "equidim"), jobs=1)
        assert len(calls) == t.total == 429

    @pytest.mark.parametrize("lost, pulls", [(0, SHARD_SIZE), (1, 2 * SHARD_SIZE)])
    def test_stream_stops_after_the_last_missing_shard(self, tmp_path, monkeypatch, lost, pulls):
        cold = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        pulled = self.count_pulls(monkeypatch)
        drop_lines(key_file(tmp_path, 5), lost)
        rerun = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        assert len(pulled) == pulls
        assert rerun.row()[:-1] == cold.row()[:-1]

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
        assert [d["start"] for d in shard_lines(key_file(tmp_path, 5))] == [0]

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
        path = key_file(tmp_path, 5)
        before = stored(path)
        assert list(before) == [0, 128, 256, 384]
        kept = drop_lines(path, 2)
        tabulate(5, checks=CODIM, cache_dir=tmp_path, jobs=jobs)
        # the other lines stay as they were, and the middle one is appended
        text = path.read_bytes()
        assert text.startswith(kept)
        assert [d["start"] for d in shard_lines(path)] == [0, 128, 384, 256]
        assert stored(path) == before


def cut(text, shard):
    """The line cut after the first byte of its third field.  A line cut
    inside its seconds may still read as one; only a missing newline shows
    the cut (test_cut_last_line_recomputed_once)."""
    return text[: text.index(" ", text.index(" ") + 1) + 2]


def without(key):
    def damage(text, shard):
        del shard[key]
        return line_of(shard)

    return damage


def setting(key, value):
    def damage(text, shard):
        return line_of({**shard, key: value(shard) if callable(value) else value})

    return damage


def above_total(key):
    """The count at key one above a total lowered to half a shard."""

    def damage(text, shard):
        return line_of({**shard, "total": SHARD_SIZE // 2, key: SHARD_SIZE // 2 + 1})

    return damage


def respaced(old, new):
    def damage(text, shard):
        return text.replace(old, new, 1)

    return damage


# The kinds up to "keys-reordered" are named for the JSON objects the lines
# of earlier key files were; each is restated for the plain line.
DAMAGES = {
    "truncated": cut,
    "not-json": lambda text, shard: "total=42 cm=39",
    "not-utf8": lambda text, shard: b"\xff\xfe".decode("latin-1"),
    "nested-too-deep": lambda text, shard: "[" * 100_000,
    "not-an-object": lambda text, shard: json.dumps([shard[k] for k in FIELDS]),
    "missing-key": without("equidim"),
    "extra-key": lambda text, shard: f"{shard['start']} 0 {text.split(' ', 1)[1]}",
    "float-count": setting("cm", lambda d: float(d["cm"])),
    "bool-count": setting("km_vd_fail_a11", "True"),
    "text-count": setting("equidim", lambda d: f'"{d["equidim"]}"'),
    "negative-count": setting("km_vd_fail", -1),
    "count-above-total": above_total("cm"),
    "total-above-shard-size": setting("total", SHARD_SIZE + 1),
    "text-seconds": setting("seconds", lambda d: f"{d['seconds']!r}s"),
    "negative-seconds": setting("seconds", -0.5),
    "nan-seconds": setting("seconds", "nan"),
    "infinite-seconds": setting("seconds", "inf"),
    "two-objects": lambda text, shard: text + text,
    "trailing-text": lambda text, shard: text + " seconds",
    "duplicate-key": lambda text, shard: f"{text} {shard['cm']}",
    "keys-reordered": lambda text, shard: " ".join(reversed(text.split(" "))),
    "equidim-above-total": above_total("equidim"),
    "km-vd-fail-above-total": above_total("km_vd_fail"),
    "km-vd-fail-a11-above-total": above_total("km_vd_fail_a11"),
    # what int() or float() reads but store never writes
    "signed-start": setting("start", lambda d: f"+{d['start']}"),
    "signed-count": setting("equidim", lambda d: f"+{d['equidim']}"),
    "negative-zero-count": setting("cm", "-0"),
    "signed-seconds": setting("seconds", lambda d: f"+{d['seconds']!r}"),
    "negative-zero-seconds": setting("seconds", "-0.0"),
    "underscore-count": setting("total", lambda d: "_".join(str(d["total"]))),
    "underscore-seconds": setting("seconds", lambda d: f"{d['seconds']!r}_1"),
    "leading-zero-start": setting("start", lambda d: f"0{d['start']}"),
    "leading-zero-count": setting("km_vd_fail_a11", lambda d: f"00{d['km_vd_fail_a11']}"),
    "leading-zero-seconds": setting("seconds", lambda d: f"0{d['seconds']!r}"),
    "non-ascii-digit": setting("total", "\u0661\u0662\u0668".encode().decode("latin-1")),
    "overflowing-seconds": setting("seconds", "1e999"),
    "tab-separator": respaced(" ", "\t"),
    "tab-after-start": respaced(" ", "\t "),
    "double-space": respaced(" ", "  "),
    "crlf-ending": lambda text, shard: text + "\r",
    "json-line": lambda text, shard: json.dumps(shard, sort_keys=True),
}


class TestShardValidation:
    """A damaged, duplicate, foreign or unended line is skipped, never
    served; its shard is recomputed and appended."""

    @pytest.mark.parametrize("damage", list(DAMAGES))
    def test_damaged_shard_recomputed(self, tmp_path, damage):
        cold = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        path = key_file(tmp_path, 5)
        before = stored(path)
        lines = path.read_text().splitlines()
        damaged = DAMAGES[damage](lines[1], parse(lines[1]))
        lines[1] = damaged
        text = "\n".join(lines) + "\n"
        path.write_bytes(text.encode("latin-1"))
        warm = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        assert warm.row()[:-1] == cold.row()[:-1] and warm.total == 429
        rewritten = path.read_bytes().decode("latin-1")
        assert rewritten.startswith(text) and rewritten.count("\n") == 5
        assert counts(rewritten.splitlines()[-1]) == before[128]

    def test_truncated_filtered_shard_recomputed(self, tmp_path):
        checks = ("codim", "equidim")
        cold = tabulate(4, checks=checks, filter_spec="a11=1", cache_dir=tmp_path)
        assert cold.total == 7
        (path,) = tmp_path.iterdir()
        before = stored(path)
        path.write_text(path.read_text()[:20])
        warm = tabulate(4, checks=checks, filter_spec="a11=1", cache_dir=tmp_path)
        assert warm.row()[:-1] == cold.row()[:-1]
        assert counts(path.read_text().splitlines()[-1]) == before[0]

    @pytest.mark.parametrize("left", [1, 20, -1], ids=["one-byte", "half", "all-but-the-brace"])
    def test_cut_last_line_recomputed_once(self, tmp_path, monkeypatch, left):
        """A last line with no newline, as an interrupted append leaves it,
        is skipped, even when it still reads as seven fields (cut inside its
        seconds, as the last byte is); its shard is appended after a space
        and a newline that end the cut line with an empty field, so a third
        run serves every shard, none from the cut line, and calls no
        worker."""
        cold = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        path = key_file(tmp_path, 5)
        before = stored(path)
        text = path.read_bytes()
        last = text.rstrip(b"\n").rsplit(b"\n", 1)[1]
        cut_text = text[: len(text) - len(last) - 1] + last[:left]
        path.write_bytes(cut_text)
        resumed = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        assert resumed.row()[:-1] == cold.row()[:-1]
        rewritten = path.read_bytes()
        assert rewritten.startswith(cut_text + b" \n") and rewritten.count(b"\n") == 5
        assert counts(rewritten.splitlines()[-1].decode()) == before[384]

        def boom(args):
            raise AssertionError("every shard is served")

        monkeypatch.setattr(enumeration_mod, "_shard_worker", boom)
        third = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        assert third.to_csv() == resumed.to_csv() and path.read_bytes() == rewritten

    def test_first_of_two_valid_lines_served(self, tmp_path, monkeypatch):
        cold = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        path = key_file(tmp_path, 5)
        lines = path.read_text().splitlines()
        shard = parse(lines[1])
        other = line_of({**shard, "seconds": shard["seconds"] + 1.0})

        def boom(args):
            raise AssertionError("every shard is served")

        monkeypatch.setattr(enumeration_mod, "_shard_worker", boom)
        # a later duplicate is skipped, so the warm row and runtime_s stand
        path.write_text("\n".join([*lines, other]) + "\n")
        for _ in range(2):
            assert tabulate(5, checks=CODIM, cache_dir=tmp_path).to_csv() == cold.to_csv()
        # an earlier one is served instead
        path.write_text("\n".join([other, *lines]) + "\n")
        seconds = [parse(line)["seconds"] for line in (other, *lines) if line != lines[1]]
        warm = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        assert warm.runtime_s == round(fsum(seconds), 3) > cold.runtime_s + 0.9

    @given(data=st.data())
    def test_every_stored_line_served(self, tmp_path_factory, data):
        """Every line store can write, _LINE of a worker's fields, is served
        with its counts and its seconds."""
        total = data.draw(st.integers(0, SHARD_SIZE), label="total")
        count = st.sampled_from((0, total)) | st.integers(0, total)
        seconds = data.draw(
            st.sampled_from((0.0, 5e-324, 1e-05, 1e16))
            | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            label="seconds",
        )
        shard = {
            "start": 0,
            "cm": data.draw(count, label="cm"),
            "equidim": data.draw(count, label="equidim"),
            "km_vd_fail": data.draw(count, label="km_vd_fail"),
            "km_vd_fail_a11": data.draw(count, label="km_vd_fail_a11"),
            "total": total,
            "seconds": seconds,
        }
        path = tmp_path_factory.mktemp("served") / "key.txt"
        path.write_bytes(enumeration_mod._LINE % tuple(shard[k] for k in FIELDS))
        missing = {0, SHARD_SIZE}
        sums, subtotals, torn = enumeration_mod._read_shards(path, missing)
        assert [shard[k] for k in enumeration_mod._SUMMED] == sums
        assert subtotals == [seconds] and not torn and missing == {SHARD_SIZE}
        # and through a census: ASM(3) is one shard, so no worker runs
        cache_dir = path.parent
        path.rename(cache_dir / _cache_key(3, enumeration_mod.ALL_CHECKS, 0, None))

        def boom(args):
            raise AssertionError("the stored line is served")

        with pytest.MonkeyPatch.context() as m:
            m.setattr(enumeration_mod, "_shard_worker", boom)
            t = tabulate(3, cache_dir=cache_dir)
        cm = shard["cm"]
        assert t.row() == (
            3,
            total,
            cm,
            total - cm,
            shard["km_vd_fail"],
            shard["km_vd_fail_a11"],
            shard["equidim"],
            round(seconds, 3),
        )

    @pytest.mark.parametrize(
        "start", ["false", "true", 64, 512], ids=["false", "true", "not-a-multiple", "past-the-end"]
    )
    def test_foreign_start_not_served(self, tmp_path, monkeypatch, start):
        """A line whose start is not a shard start of the census, a word
        such as false (a JSON false equals 0 in Python) included, is
        skipped: shard 0 is recomputed and appended."""
        cold = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        path = key_file(tmp_path, 5)
        before = stored(path)
        lines = path.read_text().splitlines()
        lines[0] = line_of({**parse(lines[0]), "start": start})
        path.write_text("\n".join(lines) + "\n")
        worker, starts = enumeration_mod._shard_worker, []

        def recording(args):
            starts.append(args[0])
            return worker(args)

        monkeypatch.setattr(enumeration_mod, "_shard_worker", recording)
        warm = tabulate(5, checks=CODIM, cache_dir=tmp_path)
        assert starts == [0] and warm.row()[:-1] == cold.row()[:-1]
        assert counts(path.read_text().splitlines()[-1]) == before[0]


CHECK_SETS = [c for k in range(5) for c in combinations(enumeration_mod.ALL_CHECKS, k)]


def oracle(checks, filter_spec, field):
    """The counts of each shard of ASM(5), tallied from analyze_asm over the
    stream with no shard, worker or cache: a dict of the columns its checks
    give, keyed by the names a shard file uses."""
    keep = {None: lambda A: True, "a11=1": lambda A: A[(1, 1)] == 1}[filter_spec]
    asms = list(enumerate_asms(5))
    shards = []
    for start in range(0, len(asms), SHARD_SIZE):
        reports = [
            analyze_asm(A, checks, field) for A in asms[start : start + SHARD_SIZE] if keep(A)
        ]
        counts = {"total": len(reports)}
        if "cm" in checks:
            counts["cm"] = sum(r.cm is True for r in reports)
        if "equidim" in checks:
            counts["equidim"] = sum(r.equidimensional is True for r in reports)
        if "km_vd" in checks:
            # CM complexes (every complex, without the cm check) that the
            # fixed-order test misses
            missed = [r for r in reports if r.km_vd is False and r.cm is not False]
            counts["km_vd_fail"] = len(missed)
            counts["km_vd_fail_a11"] = sum(r.asm.a11_is_one for r in missed)
        shards.append(counts)
    return shards


def census_row(shards, checks):
    """The census columns, runtime_s aside, of the oracle's shard counts."""

    def column(key, check):
        return sum(d[key] for d in shards) if check in checks else None

    total, cm = sum(d["total"] for d in shards), column("cm", "cm")
    return (
        5,
        total,
        cm,
        None if cm is None else total - cm,
        column("km_vd_fail", "km_vd"),
        column("km_vd_fail_a11", "km_vd"),
        column("equidim", "equidim"),
    )


class TestFold:
    """tabulate adds up the counts each shard stores or its worker returns,
    and keeps no record table."""

    @pytest.mark.parametrize(
        "checks, filter_spec, field",
        [(c, None, "rational") for c in CHECK_SETS]
        + [(c, "a11=1", "rational") for c in CHECK_SETS]
        + [(c, None, 2) for c in CHECK_SETS if "cm" in c],
    )
    def test_counts_equal_a_recount_of_the_shards(self, tmp_path, checks, filter_spec, field):
        """Cold, mixed-cache and uncached censuses against the oracle's
        recount of each shard's ASMs; every stored shard against its own
        recount."""

        def census(cache_dir):
            return tabulate(
                5, checks=checks, filter_spec=filter_spec, cache_dir=cache_dir, field=field
            )

        shards = oracle(checks, filter_spec, field)
        cold = census(tmp_path)
        path = tmp_path / _cache_key(5, checks, parse_field(field), filter_spec)
        served = stored(path)
        assert list(served) == list(range(0, 429, SHARD_SIZE))
        assert [{k: s[k] for k in d} for s, d in zip(served.values(), shards)] == shards
        drop_lines(path, 1, 3)
        mixed = census(tmp_path)
        row = census_row(shards, checks)
        assert tuple(cold)[:-1] == tuple(mixed)[:-1] == tuple(census(None))[:-1] == row
        assert stored(path) == served
        seconds = [parse(line)["seconds"] for line in path.read_text().splitlines()]
        assert len(seconds) == 4 and mixed.runtime_s == round(fsum(seconds), 3)

    def test_warm_memory_does_not_grow_with_n(self, tmp_path):
        checks = ("codim", "equidim")
        peaks = {}
        for n in (5, 6):
            tabulate(n, checks=checks, cache_dir=tmp_path)
            tabulate(n, checks=checks, cache_dir=tmp_path)
            tracemalloc.start()
            try:
                tabulate(n, checks=checks, cache_dir=tmp_path)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # ASM(6) has 17 times the records of ASM(5)
        assert peaks[6] < 2 * peaks[5]

    def test_warm_rerun_equals_a_cold_pool_run(self, tmp_path):
        cold = tabulate(5, checks=CODIM, jobs=2, cache_dir=tmp_path).to_csv()
        assert tabulate(5, checks=CODIM, jobs=2, cache_dir=tmp_path).to_csv() == cold

    @pytest.mark.skipif(
        os.environ.get("ASMLAB_STRETCH") != "1",
        reason="all of ASM(7); set ASMLAB_STRETCH=1 to run",
    )
    def test_n7_codim_equidim_census(self, tmp_path):
        t = tabulate(7, checks=("codim", "equidim"), cache_dir=tmp_path)
        assert (t.total, t.equidim) == (218348, 71382)
        (path,) = tmp_path.iterdir()  # one key file, a line per shard
        assert len(path.read_bytes().splitlines()) == 1706


class TestOneDerivation:
    """analyze_asm decides CM and KM-vd from Perm(A)'s lex indices, with
    the Perm(A) rule, the subword recursion and gluing, and builds the
    complex of an ASM from the pipe dreams of Perm(A) only for the CM answer
    of an ASM that gluing leaves undecided (none of ASM(n <= 5)).  The
    answers are memoized by Perm(A), so a repeat with any checks or field
    recomputes none.  `asmlab analyze` takes its answers from analyze_asm
    and builds the complex only for the trace of a KM-vd failure."""

    def test_all_checks(self, calls_through, non_km_gvd, b4):
        primes = calls_through(minimal_primes)
        ideal_complexes = calls_through(sr_complex_from_ideal)
        complexes = calls_through(perm_facets)
        reisner = calls_through(complex_is_cm)
        perm_cm_km_vd.cache_clear()
        # equidimensional with two permutations, not KM-vd: gluing decides
        # CM over every field, with no complex and no Reisner criterion
        assert analyze_asm(non_km_gvd).cm is True
        assert complexes == []
        # a repeat, with any checks or field, builds none
        for checks in (enumeration_mod.ALL_CHECKS, ("cm",), ("km_vd",)):
            for field in ("rational", "p=2"):
                r = analyze_asm(non_km_gvd, checks, field)
                assert (r.cm, r.km_vd) == (
                    True if "cm" in checks else None,
                    False if "km_vd" in checks else None,
                )
        assert complexes == []
        # two lengths, and one permutation: Perm(A) decides, with no complex
        w = Permutation((2, 4, 1, 3)).to_asm()
        for A, answer in ((b4, False), (w, True)):
            complexes.clear()
            r = analyze_asm(A)
            assert (r.cm, r.km_vd) == (answer, answer)
            assert complexes == []
        assert reisner == []
        assert primes == ideal_complexes == []

    def test_no_permutation_record(self, monkeypatch):
        """With every check, over Q and GF(2), no ASM(5) turns its lex
        indices into Permutations or builds a complex record: the facets
        come straight from the indices."""

        def refuse(*args):
            raise AssertionError("Perm(A) or a complex record built")

        monkeypatch.setattr(asm_mod, "lex_unrank", refuse)
        monkeypatch.setattr(squarefree_mod, "SimplicialComplex", refuse)
        for A in enumerate_asms(5):
            for field in ("rational", 2):
                fresh(A, field=field)
                analyze_asm(A, field=field)

    def test_one_perm_walk(self, calls_through, non_km_gvd):
        """With every check on an ASM that Perm(A) leaves open, Perm(A) is
        walked once, and gluing's answer needs no complex."""
        walks = calls_through(perm_walk)
        complexes = calls_through(perm_facets)
        r = analyze_asm(non_km_gvd)
        assert (r.cm, r.km_vd) == (True, False)
        assert complexes == [] and len(walks) == 1

    def test_primes_only_builds_no_complex(self, calls_through, non_km_gvd, b4):
        # codim and equidimensionality come from Perm(A)'s walk: no ideal,
        # no prime, no complex
        primes = calls_through(minimal_primes)
        ideals = calls_through(init_ideal)
        complexes = calls_through(perm_facets)
        for A in (non_km_gvd, b4):
            r = analyze_asm(A, checks=("codim", "equidim"))
            expected = PermReading.of(perm_set(A))
            assert (r.codim, r.perm_count, r.equidimensional) == (
                expected.codim,
                len(expected.perms),
                expected.equidimensional,
            )
        assert primes == ideals == complexes == []

    def test_cli_analyze(self, calls_through, tmp_path, capsys, b4, non_km_gvd):
        from asmlab.cli import main

        w = Permutation((2, 4, 1, 3)).to_asm()
        expected = {A: analyze_asm(A, field="p=2") for A in (b4, non_km_gvd, w)}
        primes = calls_through(minimal_primes)
        facets = calls_through(perm_facets)
        reisner = calls_through(complex_is_cm)
        # (complexes, Reisner entries): b4 and w are decided by Perm(A), and b4's
        # KM-vd failure is traced on its facets; non_km_gvd's answers are the
        # memo's, filled by the analysis above, and its facets are built only
        # for the trace
        for A, built in ((b4, (1, 0)), (w, (0, 0)), (non_km_gvd, (1, 0))):
            path = tmp_path / "a.json"
            path.write_text(json.dumps(A.to_json_dict()))
            facets.clear()
            reisner.clear()
            assert main(["analyze", "--input", str(path), "--field", "p=2"]) == 0
            assert (len(facets), len(reisner)) == built
            out = json.loads(capsys.readouterr().out)
            r = expected[A]
            assert (out["codim"], out["perm_count"], out["equidimensional"]) == (
                r.codim,
                r.perm_count,
                r.equidimensional,
            )
            assert (out["cm"], out["km_vd"]) == (r.cm, r.km_vd)
            assert ("km_vd_trace" in out) is (not r.km_vd)
            assert out["init_ideal"] == init_ideal(A).to_json_list()
        assert primes == []

    def test_cli_analyze_walks_twice(self, calls_through, tmp_path, capsys):
        """`asmlab analyze` over ASM(5), over Q and GF(2), calls no perm_set
        and builds no complex record: Perm(A) is walked once by analyze_asm
        and once for the permutations and the facets a KM-vd failure is
        traced on."""
        from asmlab.cli import main
        from asmlab.squarefree import SimplicialComplex

        perm_sets = calls_through(perm_set)
        records = calls_through(SimplicialComplex)
        walks = calls_through(perm_walk)
        path = tmp_path / "a.json"
        most = 0
        for A in enumerate_asms(5):
            path.write_text(json.dumps(A.to_json_dict()))
            for field in ("rational", "p=2"):
                walks.clear()
                assert main(["analyze", "--input", str(path), "--field", field]) == 0
                most = max(most, len(walks))
                capsys.readouterr()
        assert perm_sets == records == []
        assert most == 2

    def test_no_minimal_transversals(self, monkeypatch, worked_example, a6):
        """With every check, no ASM goes through Berge's algorithm."""

        def refuse(family):
            raise AssertionError("minimal_transversals called")

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "asmlab" and hasattr(mod, "minimal_transversals"):
                monkeypatch.setattr(mod, "minimal_transversals", refuse)
        with pytest.raises(AssertionError):
            minimal_primes(init_ideal(worked_example))
        for A in (*enumerate_asms(4), worked_example, a6):
            for field in ("rational", 2):
                analyze_asm(A, field=field)


def fresh(A, checks=enumeration_mod.ALL_CHECKS, field="rational"):
    """analyze_asm(A) with every memo of the package empty, and no row
    prefix kept from the last ASM read."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "asmlab":
            for fn in list(vars(mod).values()):
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
    ideals_mod._thread.prefix = ideals_mod._Prefix()
    return analyze_asm(A, checks, field)


def transpose_mask(m: int, n: int) -> int:
    """The mask of the transposed cells: (i, j) becomes (j, i)."""
    return mask({(j, i) for i, j in cells(m, n)}, n)


def inverse(w: Permutation) -> Permutation:
    return Permutation(tuple(w.one_line.index(v) + 1 for v in range(1, w.n + 1)))


ASMS_UPTO_6 = {n: list(enumerate_asms(n)) for n in range(1, 7)}


class TestPairMemo:
    """Transpose pairs (A, A^T) with no memo passing answers between them:
    each ASM gets the answers it gets alone, and the pair agrees where
    transposition says it must.  Transposing A transposes init(I_A), its
    minimal primes and its complex, and inverts Perm(A)."""

    def test_fresh_empties_the_table(self):
        """fresh() empties the permutation tables with every other memo:
        S_5's, filled here, is empty after an analysis of an ASM(4)."""
        _fill(5, 0)
        assert None not in _lex_table(5)
        fresh(ASMS_UPTO_6[4][3])
        assert _lex_table(5) == [None] * 120
        assert None not in _lex_table(4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stream_equals_fresh(self, n):
        """Over Q and GF(2), the stream's answers, and those of a second
        pass in reverse order, which the memos answer, are each ASM's own."""
        for field in ("rational", 2):
            streamed = [analyze_asm(A, field=field) for A in enumerate_asms(n)]
            repeats = [analyze_asm(r.asm, field=field) for r in reversed(streamed)][::-1]
            assert streamed == repeats == [fresh(r.asm, field=field) for r in streamed]

    @given(st.integers(1, 6).flatmap(lambda n: st.sampled_from(ASMS_UPTO_6[n])))
    def test_transposed_primes(self, A):
        At = transpose(A)
        delta, delta_t = (sr_complex_from_ideal(init_ideal(B)) for B in (A, At))
        assert {transpose_mask(F, A.n) for F in delta.facets} == delta_t.facets
        assert transpose_mask(delta.excluded_vertices, A.n) == delta_t.excluded_vertices
        assert perm_set(At) == {inverse(w) for w in perm_set(A)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pipe_dreams_of_inverse(self, n):
        for line in permutations(range(1, n + 1)):
            w = Permutation(line)
            assert pipe_dreams(inverse(w)) == {transpose_mask(D, n) for D in pipe_dreams(w)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cm_transpose_invariant(self, n):
        for A in enumerate_asms(n):
            for field in ("rational", 2):
                cm = analyze_asm(A, ("cm",), field).cm
                assert analyze_asm(transpose(A), ("cm",), field).cm == cm

    def test_km_vd_not_carried(self):
        # km_vd differs within 62 of the 181 pairs of ASM(5)
        A = next(A for A in enumerate_asms(5) if fresh(A).km_vd != fresh(transpose(A)).km_vd)
        expected = {B: fresh(B).km_vd for B in (A, transpose(A))}
        for first, second in ((A, transpose(A)), (transpose(A), A)):
            assert analyze_asm(first).km_vd == expected[first]
            assert analyze_asm(second).km_vd == expected[second]

    def test_cm_not_shared_across_fields(self, calls_through, non_km_gvd):
        """Only a field-free answer is shared across fields: gluing's answer
        holds over every field, so A and A^T, equidimensional with two
        permutations each, build no complex and run no Reisner criterion
        over either field, while the first ASM(6) that Perm(A) leaves open,
        that gluing leaves undecided and whose complex is not vd runs it
        once per field, its complex built for each run."""
        At = transpose(non_km_gvd)
        assert At != non_km_gvd
        for B in (non_km_gvd, At):
            r = analyze_asm(B, ("equidim",))
            assert r.equidimensional and r.perm_count == 2
        X = next(
            A
            for A in ASMS_UPTO_6[6]
            if (r := analyze_asm(A, ("equidim", "cm"))).equidimensional
            and not r.cm
            and perm_cm_km_vd(6, *perm_walk(A)[0])[0] is None
        )
        assert analyze_asm(X, ("equidim",)).perm_count > 1
        perm_cm_km_vd.cache_clear()
        homology_mod._coneless_is_cm.cache_clear()
        reisner = calls_through(complex_is_cm)
        bettis = calls_through(reduced_betti)
        built = calls_through(perm_facets)
        assert analyze_asm(non_km_gvd, ("cm",)).cm is True
        assert analyze_asm(At, ("cm",), field="p=2").cm is True
        assert analyze_asm(non_km_gvd, ("cm",), field="p=2").cm is True
        assert analyze_asm(At, ("cm",)).cm is True
        assert reisner == [] and built == []
        runs = []
        for field in ("rational", "rational", 2, 2, "rational"):
            built.clear()
            assert analyze_asm(X, ("cm",), field).cm is False
            runs.append((sorted({p for _, p in bettis}), len(built)))
            bettis.clear()
        # (the fields of Reisner's homology, complexes built): each run builds
        # one for the vd search, whose memo answers the runs after the first,
        # and Reisner's criterion
        assert runs == [([0], 1), ([], 1), ([2], 1), ([], 1), ([], 1)]
        # entries per run, its recursive calls included: the first run over
        # each field enters two vertex links of the complex as well, and a
        # repeat is answered by the memo at the top
        assert [p for _, p in reisner] == [0, 0, 0, 0, 2, 2, 2, 2, 0]

    def test_bound(self):
        """The memos an analysis fills are bounded: perm_walk's row up-sets
        keep one entry per proper column set of each m <= n, the recursion's
        keys for smaller m included, so at most 120 for all of ASM(6) and
        1013 for every n the bound allows, and reading them needs no rank
        matrix; lex_pipe_dreams keeps one entry per permutation, at most
        all of S_7.  rank_matrix keeps 2**10 entries, from the ASMs that the
        sweeps, the CLI and the oracles read, not from S_n: perm_set_naive
        builds the rank rows of each permutation itself.  init_ideal, which
        the sweeps call, keeps 2**10 ASMs."""
        _row_upset.cache_clear()
        misses = rank_matrix.cache_info().misses
        for A in ASMS_UPTO_6[6]:
            analyze_asm(A, ("codim",))
        assert _row_upset.cache_info().currsize <= sum(2**m - 1 for m in range(1, 7)) == 120
        assert rank_matrix.cache_info().misses == misses
        for S in range(2**PERM_TABLE_BOUND - 1):
            _row_upset(PERM_TABLE_BOUND, S)
        keys = sum(2**m - 1 for m in range(1, PERM_TABLE_BOUND + 1))
        assert _row_upset.cache_info().currsize == keys == 1013
        _row_upset.cache_clear()
        for A in ASMS_UPTO_6[6]:
            essential_set(A)
        assert rank_matrix.cache_info().currsize == rank_matrix.cache_info().maxsize == 2**10
        assert lex_pipe_dreams.cache_info().maxsize == factorial(7)
        for A in ASMS_UPTO_6[5]:
            analyze_asm(A, ("cm",))
        assert lex_pipe_dreams.cache_info().currsize <= sum(map(factorial, range(1, 8)))
        assert init_ideal.cache_info().maxsize == 2**10
        # perm_cm_km_vd keeps one entry per open Perm(A) and _km_vd one per
        # state of the subword recursion, bounded as every memo keyed by
        # Perm(A), a set of targets or a facet family is, and fresh()
        # empties them
        for memo in (perm_cm_km_vd, _km_vd):
            assert memo.cache_info().maxsize == MEMO_SIZE
            assert memo.cache_info().currsize > 0
        fresh(Asm.identity(5))
        assert answer_memo_sizes() == (0, 0)


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
        cm = sweeps_mod.is_cohen_macaulay
        size = {"A": 3, "1+A": 4}[false_for]

        def patched(A, field="rational"):
            return False if A.n == size else cm(A, field)

        monkeypatch.setattr(sweeps_mod, "is_cohen_macaulay", patched)
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
