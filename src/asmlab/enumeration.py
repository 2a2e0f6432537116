"""Streaming generation of ASM(n), the per-ASM analysis pipeline, and
census tabulation with a resumable shard cache.

ASMs are generated through their column-sum matrices: row i of the partial
column sums is a 0/1 vector with i ones whose one-positions interlace the
previous row's (the monotone-triangle condition).  The stream order is
lexicographic on the successive one-position tuples, so shard boundaries
and cache keys are stable across runs.  The theorem sweeps built on the
stream are in `sweeps`.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections import Counter
from functools import cache
from itertools import combinations, islice
from math import fsum, inf
from typing import NamedTuple

from .asm import Asm
from .complexes import perm_facets, vd_facets
from .errors import AsmlabError, SizeBoundExceededError, UnknownCheckError
from .homology import cascade_is_cm, parse_field
from .ideals import perm_walk

ASM_COUNTS = (1, 2, 7, 42, 429, 7436, 218348, 10850216)
# Part of every census cache key.  Bump it whenever an algorithm behind a
# cached answer or the shard format changes, so that no cache written by
# older code is ever served.
CACHE_VERSION = 13
MAX_STREAM_N = 8
SHARD_SIZE = 128
ALL_CHECKS = ("codim", "equidim", "cm", "km_vd")
CENSUS_COLUMNS = (
    "n",
    "total",
    "cm",
    "not_cm",
    "km_vd_fail",
    "km_vd_fail_a11",
    "equidim",
    "runtime_s",
)


# -- the stream ----------------------------------------------------------------


@cache  # keys: the one-position tuples of each n <= MAX_STREAM_N, 502 in all
def _next_rows(prev: tuple[int, ...], n: int) -> tuple:
    """(positions, row) for each extension of the one-positions prev, in
    lexicographic order: the ASM row is the 0/1 vector of the positions
    minus that of prev.  An extension interlaces prev when each prev[i]
    lies in [ext[i], ext[i + 1]]; combinations yields in lexicographic order."""
    grid = range(1, n + 1)
    return tuple(
        (ext, tuple((j in ext) - (j in prev) for j in grid))
        for ext in combinations(grid, len(prev) + 1)
        if all(a <= p <= b for a, p, b in zip(ext, prev, ext[1:]))
    )


@cache  # keys: the one-position tuples of n - 3 or more positions, 254 for n <= 8
def _tails(prev: tuple[int, ...], n: int) -> tuple:
    """The rows that complete the one-positions prev to an ASM of ASM(n),
    one tuple of rows per completion, in stream order."""
    if len(prev) == n:
        return ((),)
    return tuple((row, *tail) for ext, row in _next_rows(prev, n) for tail in _tails(ext, n))


def enumerate_asms(n: int):
    """Yield every element of ASM(n) exactly once, in a fixed order: a
    depth-first walk of the row steps of rows 1..n-3, with one iterator of
    _next_rows per row on an explicit stack.  Each ASM is its walked rows
    followed by one of the memoized completions of its last one-positions
    (_tails), so the last three rows cost one tuple concatenation."""
    if not (1 <= n <= MAX_STREAM_N):
        raise SizeBoundExceededError(f"stream size n={n} outside [1, {MAX_STREAM_N}]")
    walked = max(n - 3, 0)
    if not walked:
        for tail in _tails((), n):
            yield tuple.__new__(Asm, (tail,))
        return
    rows: list = [None] * walked
    stack = [iter(_next_rows((), n))]
    while stack:
        depth = len(stack)
        for cur, row in stack[-1]:
            rows[depth - 1] = row
            if depth == walked:
                prefix = tuple(rows)
                for tail in _tails(cur, n):
                    yield tuple.__new__(Asm, (prefix + tail,))
            else:
                stack.append(iter(_next_rows(cur, n)))
                break
        else:  # this row's steps are used up
            stack.pop()


# -- per-ASM analysis ----------------------------------------------------------


class _Slotted:
    """Field-by-field equality and a keyword repr for a plain __slots__
    class whose slots are its fields.  Its fields may be set, so it is not
    hashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"


class AnalysisReport(_Slotted):
    """Everything the census needs to know about one ASM; a check not asked
    for is None.  Every analyze_asm builds one, so it is a plain slotted
    class whose __init__ stores six slots: a NamedTuple's __new__ takes
    half as long again."""

    __slots__ = ("asm", "codim", "perm_count", "equidimensional", "cm", "km_vd")

    def __init__(
        self,
        asm: Asm,
        codim: int | None = None,
        perm_count: int | None = None,
        equidimensional: bool | None = None,
        cm: bool | None = None,
        km_vd: bool | None = None,
    ):
        self.asm = asm
        self.codim = codim
        self.perm_count = perm_count
        self.equidimensional = equidimensional
        self.cm = cm
        self.km_vd = km_vd


_CHECK_SET = frozenset(ALL_CHECKS)


def _known_checks(checks) -> frozenset:
    """The check names as a set, rejecting any not in ALL_CHECKS.  A
    frozenset, such as the one tabulate hands its workers, is returned as
    it is."""
    if not isinstance(checks, frozenset):
        checks = frozenset(checks)
    if not checks <= _CHECK_SET:
        raise UnknownCheckError(
            f"unknown checks {sorted(checks - _CHECK_SET)}; expected some of {list(ALL_CHECKS)}"
        )
    return checks


def analyze_asm(A: Asm, checks=ALL_CHECKS, field="rational") -> AnalysisReport:
    """Answer the requested checks: the one place an ASM's CM and KM-vd
    answers are decided (`is_cohen_macaulay` is its "cm" answer).

    codim, perm_count and equidimensionality come from Perm(A), walked
    once as lex indices and lengths (perm_walk), and so do "cm" and "km_vd"
    when Perm(A) settles both.  A facet of the Stanley-Reisner complex
    Delta_A is the complement of a pipe dream of some w in Perm(A), with
    l(w) cells, so with more than one length Delta_A is not pure: neither
    CM (Reisner) nor vertex decomposable.  For one permutation it is a
    subword complex, vertex decomposable at the first letter, the fixed KM
    order (Knutson-Miller), so CM over every field.  Otherwise the facets
    of Delta_A are built once from the pipe dreams of Perm(A), read at its
    lex indices (perm_facets), with no ideal, Permutation or record: "cm"
    is the cascade on them, and "km_vd" a flag of the vd search, a memo hit
    after "cm".  The field is checked first, whatever the checks."""
    checks = _known_checks(checks)
    p = parse_field(field)
    codim = perm_count = equidim = cm = km_vd = None
    if checks:
        indices, lengths = perm_walk(A)
        least = min(lengths)
        pure = least == max(lengths)
    if "codim" in checks or "equidim" in checks:
        codim = least if "codim" in checks else None
        perm_count = len(indices)
        equidim = pure if "equidim" in checks else None
    if "cm" in checks or "km_vd" in checks:
        if not pure:
            known = False
        elif len(indices) == 1:
            known = True
        else:
            known, facets = None, perm_facets(A.n, indices)
        if "cm" in checks:
            cm = cascade_is_cm(facets, p) if known is None else known
        if "km_vd" in checks:
            km_vd = vd_facets(facets)[1] if known is None else known
    return AnalysisReport(A, codim, perm_count, equidim, cm, km_vd)


def is_cohen_macaulay(A: Asm, field="rational") -> bool:
    """Whether the ASM defines a Cohen-Macaulay quotient over the field:
    analyze_asm's "cm" answer."""
    return analyze_asm(A, ("cm",), field).cm


# -- census tabulation ---------------------------------------------------------


class CensusTable(NamedTuple):
    n: int
    total: int
    cm: int | None
    not_cm: int | None
    km_vd_fail: int | None
    km_vd_fail_a11: int | None
    equidim: int | None
    runtime_s: float

    def row(self) -> tuple:
        def cell(v):
            return "" if v is None else v

        return (
            self.n,
            self.total,
            cell(self.cm),
            cell(self.not_cm),
            cell(self.km_vd_fail),
            cell(self.km_vd_fail_a11),
            cell(self.equidim),
            self.runtime_s,
        )

    def to_csv(self) -> str:
        """The header and the row, comma-separated: no cell needs quoting,
        being a column name, a number or empty."""
        return f"{','.join(CENSUS_COLUMNS)}\n{','.join(map(str, self.row()))}\n"

    def to_json_dict(self) -> dict:
        return dict(zip(CENSUS_COLUMNS, self.row()))


_FILTERS = {
    None: lambda A: True,
    "a11=1": lambda A: A.a11_is_one,
}

# the counts a shard line holds besides its start, its total and its seconds
_SHARD_COUNTS = ("cm", "equidim", "km_vd_fail", "km_vd_fail_a11")


def _cache_key(n: int, checks, field: int, filter_spec) -> str:
    """The name of a census's key file: v{CACHE_VERSION}-<16 hex>.jsonl."""
    import hashlib  # here, not at the top: its OpenSSL module slows every import

    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "n": n,
            "checks": sorted(checks),
            "field": field,
            "filter": filter_spec,
        },
        sort_keys=True,
    )
    return f"v{CACHE_VERSION}-{hashlib.sha1(payload.encode()).hexdigest()[:16]}.jsonl"


_KEY = re.compile(r"v(\d+)-[0-9a-f]{16}(\.jsonl)?")


def _remove_stale_keys(cache_dir) -> None:
    """Delete the key files v{k}-<16 hex>.jsonl and the key directories
    v{k}-<16 hex> (one file per shard, versions 6 to 9) with k below
    CACHE_VERSION.  Everything else is left alone, such as a file named like
    a key directory or a directory named like a key file."""
    for entry in cache_dir.iterdir():
        match = _KEY.fullmatch(entry.name)
        if match and int(match[1]) < CACHE_VERSION:
            if match[2] and entry.is_file():
                entry.unlink()
            elif not match[2] and entry.is_dir():
                import shutil  # here, not at the top: it loads bz2, lzma and zlib

                shutil.rmtree(entry)


def _shard_worker(args):
    """Analyse one shard's ASMs.  Returns its cache line's object: the
    shard's start, its census counts and the seconds its analyses took."""
    start, asms, checks, field = args
    with_cm, with_km_vd = "cm" in checks, "km_vd" in checks
    cm = equidim = km_vd_fail = km_vd_fail_a11 = 0
    t0 = time.perf_counter()
    for A in asms:
        r = analyze_asm(A, checks=checks, field=field)
        # int += bool stays an int, so the cache line holds no bools; a
        # check not run answers None and counts 0
        cm += bool(r.cm)
        equidim += bool(r.equidimensional)
        # the headline KM-vd count is CM complexes missed by the fixed-order
        # test
        if with_km_vd and not r.km_vd and (r.cm or not with_cm):
            km_vd_fail += 1
            km_vd_fail_a11 += A.a11_is_one
    seconds = time.perf_counter() - t0
    return {
        "start": start,
        "cm": cm,
        "equidim": equidim,
        "km_vd_fail": km_vd_fail,
        "km_vd_fail_a11": km_vd_fail_a11,
        "total": len(asms),
        "seconds": seconds,
    }


def tabulate(
    n: int,
    checks=ALL_CHECKS,
    filter_spec: str | None = None,
    jobs: int = 1,
    cache_dir=None,
    field="rational",
) -> CensusTable:
    """Aggregate per-ASM analyses into one census row.

    ASM(n) is streamed once, in this process, up to the last shard missing
    from the cache, and cut into shards of SHARD_SIZE matrices; each missing
    shard goes to a worker, which returns the shard's census counts.  A
    census's cache is one content-addressed key file in cache_dir, with one
    JSON line per shard, appended as soon as its shard finishes, so
    interrupted runs resume, and warm reruns recompute nothing and do not
    stream.  The key files and directories an older CACHE_VERSION wrote are
    removed.  The shards' counts are added up as they are read or computed,
    so memory does not grow with n.  At most min(jobs, os.cpu_count())
    worker processes run.
    """
    checks = _known_checks(checks)
    field = parse_field(field)
    if not (1 <= n <= MAX_STREAM_N):
        raise SizeBoundExceededError(f"census size n={n} outside [1, {MAX_STREAM_N}]")
    if ("cm" in checks or "km_vd" in checks) and n > 7:
        raise SizeBoundExceededError("cm/km_vd censuses are limited to n <= 7")
    if filter_spec not in _FILTERS:
        raise AsmlabError(f"unknown filter {filter_spec!r}")
    if jobs < 1:
        raise AsmlabError(f"jobs must be at least 1, got {jobs}")
    keep = _FILTERS[filter_spec]
    key_file = None
    if cache_dir is not None:
        from pathlib import Path

        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        _remove_stale_keys(cache_dir)
        key_file = cache_dir / _cache_key(n, checks, field, filter_spec)

    def within(v, top):
        return type(v) is int and 0 <= v <= top

    def valid(shard):
        """Whether a parsed line is a shard: a JSON object with exactly the
        shard's keys, an int start (a bool is not one), a total of at most
        SHARD_SIZE, every count an int in [0, total], and seconds a finite
        float >= 0."""
        return (
            isinstance(shard, dict)
            and shard.keys() == {"start", "total", "seconds", *_SHARD_COUNTS}
            and type(shard["start"]) is int
            and within(shard["total"], SHARD_SIZE)
            and all(within(shard[k], shard["total"]) for k in _SHARD_COUNTS)
            and type(shard["seconds"]) is float
            and 0 <= shard["seconds"] < inf
        )

    tally = Counter()
    subtotals = []  # the analysis seconds of each shard

    def count(shard):
        for k in ("total", *_SHARD_COUNTS):
            tally[k] += shard[k]
        subtotals.append(shard["seconds"])

    # the first valid line of each shard start is served; every other line
    # (torn, damaged, a duplicate, a foreign start) is skipped
    missing = set(range(0, ASM_COUNTS[n - 1], SHARD_SIZE))
    line = b"\n"
    if key_file is not None and key_file.exists():
        with key_file.open("rb") as lines:
            for line in lines:
                try:
                    shard = json.loads(line)
                except (ValueError, RecursionError):  # not JSON, not UTF-8, too deep
                    continue
                if valid(shard) and shard["start"] in missing:
                    missing.remove(shard["start"])
                    count(shard)
    # a torn last line is ended before any append, which would otherwise
    # glue onto it and be lost with it
    if missing and not line.endswith(b"\n"):
        with key_file.open("a") as out:
            out.write("\n")

    def missing_shards():
        stream = enumerate_asms(n)
        for start in range(0, max(missing) + 1, SHARD_SIZE):
            asms = list(islice(stream, SHARD_SIZE))
            if start in missing:
                yield start, [A for A in asms if keep(A)], checks, field

    def store(computed):
        for shard in computed:
            count(shard)
            if key_file is not None:
                with key_file.open("a") as out:
                    out.write(json.dumps(shard, sort_keys=True) + "\n")

    # no more workers than cores or missing shards; a lone shard runs in
    # this process
    workers = min(jobs, len(missing), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            store(pool.imap_unordered(_shard_worker, missing_shards()))
    elif missing:
        store(map(_shard_worker, missing_shards()))

    tally["not_cm"] = tally["total"] - tally["cm"]

    def column(name, check):
        return tally[name] if check in checks else None

    return CensusTable(
        n=n,
        total=tally["total"],
        cm=column("cm", "cm"),
        not_cm=column("not_cm", "cm"),
        km_vd_fail=column("km_vd_fail", "km_vd"),
        km_vd_fail_a11=column("km_vd_fail_a11", "km_vd"),
        equidim=column("equidim", "equidim"),
        # fsum is correctly rounded: the order the shards finish in is moot
        runtime_s=round(fsum(subtotals), 3),
    )
