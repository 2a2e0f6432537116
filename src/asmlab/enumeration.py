"""The `Asm` record, streaming generation of ASM(n), the per-ASM analysis
pipeline, and census tabulation with a resumable shard cache.

ASMs are generated through their column-sum matrices: row i of the partial
column sums is a 0/1 vector with i ones whose one-positions interlace the
previous row's (the monotone-triangle condition).  The stream order is
lexicographic on the successive one-position tuples, so shard boundaries
and cache keys are stable across runs.  The theorem sweeps built on the
stream are in `sweeps`; validating a matrix as an ASM, permutations and
rank matrices are in `asm`, which a census never loads.
"""

from __future__ import annotations

import os
import sys
import time
import zlib
from functools import cache, lru_cache
from itertools import combinations, islice
from math import fsum, inf
from typing import NamedTuple

from .errors import AsmlabError, InvalidFieldError, SizeBoundExceededError, UnknownCheckError
from .ideals import _km_vd, perm_cm_km_vd, perm_walk

ASM_COUNTS = (1, 2, 7, 42, 429, 7436, 218348, 10850216)
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


# -- the record the stream yields ----------------------------------------------

Cell = tuple[int, int]


class Asm(NamedTuple):
    """A validated alternating sign matrix (asm.validate_asm checks one)."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, cell: Cell) -> int:
        i, j = cell
        return self.entries[i - 1][j - 1]

    @property
    def a11_is_one(self) -> bool:
        return self.entries[0][0] == 1

    def to_json_dict(self) -> dict:
        return {"n": self.n, "matrix": [list(row) for row in self.entries]}

    @classmethod
    def identity(cls, n: int) -> "Asm":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __str__(self) -> str:
        width = max(len(str(e)) for row in self.entries for e in row)
        return "\n".join(
            " ".join(str(e).rjust(width) for e in row) for row in self.entries
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
    (_tails), so the last three rows cost one tuple concatenation.  n is an
    int of exactly that type, as parse_field takes its field."""
    if type(n) is not int or not 1 <= n <= MAX_STREAM_N:
        raise SizeBoundExceededError(
            f"stream size must be an int in [1, {MAX_STREAM_N}], got {n!r}"
        )
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
    it is (frozenset(fs) is fs)."""
    checks = frozenset(checks)
    if not checks <= _CHECK_SET:
        raise UnknownCheckError(
            f"unknown checks {sorted(checks - _CHECK_SET)}; expected some of {list(ALL_CHECKS)}"
        )
    return checks


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, exact below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    xs = (pow(b, (p - 1) >> s, p) for b in bases)
    return all(x == 1 or any(pow(x, 2**r, p) == p - 1 for r in range(s)) for x in xs)


def _invalid_field(field) -> InvalidFieldError:
    return InvalidFieldError(f"field must be 'rational' or 'p=<prime>', got {field!r}")


# A GF(p) census parses its field once per analyze_asm, so each field is
# proved prime once.
@lru_cache(maxsize=2**8)
def _prime_field(field) -> int:
    """The p of a field given as an int p or as the str "p=<p>", p in ASCII
    digits."""
    text = field if type(field) is str else f"p={field}"
    digits = text[2:] if text.startswith("p=") else ""
    if not (digits.isascii() and digits.isdecimal() and _is_prime(int(digits))):
        raise _invalid_field(field)
    return int(digits)


def parse_field(field) -> int:
    """The characteristic of a coefficient field: 0 for Q, given as
    "rational", None or the int 0, else a prime p given as an int or as the
    text "p=<p>", each of exactly that type (so not False, 0.0, 2.0, a
    subclass of int or str, or a NumPy int)."""
    kind = type(field)
    if field is None or kind is str and field == "rational" or kind is int and field == 0:
        return 0
    if kind is int or kind is str:
        return _prime_field(field)
    raise _invalid_field(field)


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
    order (Knutson-Miller), so CM over every field.  Otherwise both answers
    come from Perm(A)'s lex indices with no complex, memoized by them
    (perm_cm_km_vd): "km_vd" from the subword recursion at the first
    letter, and "cm" True when that holds, else from gluing the subword
    complexes of Perm(A) (the depth lemma), both answers over every field.
    Only an ASM that gluing leaves undecided builds Delta_A, from the pipe
    dreams of Perm(A) (perm_facets, in `complexes`, which loads then): "cm"
    is the vd search's answer, a certificate over every field, or, for a
    complex that is not vd, Reisner's criterion over this field, behind its
    own memo (`homology`, which loads then).  The field is checked first,
    whatever the checks."""
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
        if pure and len(indices) > 1:
            cm, fixed_order = perm_cm_km_vd(A.n, *indices)
        else:
            cm = fixed_order = pure
        if "cm" not in checks:
            cm = None
        elif cm is None:  # gluing left it undecided: Delta_A decides
            from .complexes import perm_facets, vd_facets

            facets = perm_facets(A.n, indices)
            cm = vd_facets(facets)[0]
            if not cm:
                from .homology import complex_is_cm

                cm = complex_is_cm(facets, p)
        if "km_vd" in checks:
            km_vd = fixed_order
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


# None keeps every ASM, with no call per ASM
_FILTERS = {
    None: None,
    "a11=1": lambda A: A.a11_is_one,
}

# the counts a census adds up, in the order of a shard line and of the sums
# _read_shards returns
_SUMMED = ("total", "cm", "equidim", "km_vd_fail", "km_vd_fail_a11")
# a shard line: its start, the _SUMMED counts and its seconds, which %r
# writes as repr does, the shortest text float() reads back exactly
_LINE = b"%d %d %d %d %d %d %r\n"
# each count a line can hold, 0..SHARD_SIZE, by its bytes as %d writes them
_COUNTS = {b"%d" % v: v for v in range(SHARD_SIZE + 1)}
# the bytes of a seconds field: repr of a finite float >= 0, then the newline
_SECONDS = b"0123456789.e+-\n"


def _code_digest() -> str:
    """8 hex of the crc32 of every *.py file of this package, in name order,
    each name fed in with its bytes: an edit to any source names new key
    files, so no cache written by other code is ever served.  It is taken
    once, as this module is imported, so the key a process names is that of
    the code it loaded, whatever is edited after."""
    crc = 0
    package = os.path.dirname(__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as source:
                data = source.read()
            crc = zlib.crc32(data, zlib.crc32(b"%s\0%d\0" % (name.encode(), len(data)), crc))
    return f"{crc:08x}"


_CODE_DIGEST = _code_digest()


def _cache_key(n: int, checks, field: int, filter_spec) -> str:
    """The name of a census's key file, <16 hex>-<8 hex>.txt: the digest of
    the census (n, checks, field, filter), then that of the code."""
    # here, not at the top: hashlib's OpenSSL module and json's decoder and
    # encoder would slow every import, and only a census with a cache reads them
    import hashlib
    import json

    payload = json.dumps(
        {"n": n, "checks": sorted(checks), "field": field, "filter": filter_spec},
        sort_keys=True,
    )
    return f"{hashlib.sha1(payload.encode()).hexdigest()[:16]}-{_CODE_DIGEST}.txt"


def _read_shards(path, missing: set) -> tuple[list, list, bool]:
    """Serve the lines of the key file at path (none if it does not exist).
    A line is served only in the shape store writes: seven fields, one
    space apart, then a newline.  Its start is digits with no leading zero
    and still in missing; its total and counts are each one of the _COUNTS
    spellings, the counts at most the total; its seconds begin with a digit,
    have no leading zero, hold only _SECONDS bytes and read as a finite
    float (a form repr never writes, such as 5 or 1e5, reads as the float
    it denotes).  So a sign, an underscore, a leading zero, a non-ASCII
    digit, a tab, a double space, a carriage return, nan and inf are
    refused.  A served line's start leaves missing; every other line (torn,
    damaged, a duplicate, a foreign start) is skipped.  Returns the sums of
    the served lines (total, cm, equidim, km_vd_fail, km_vd_fail_a11), their
    seconds, and whether the file ends in a torn line, one with no newline."""
    try:
        lines = open(path, "rb")
    except FileNotFoundError:  # no line yet
        return [0] * len(_SUMMED), [], False
    total_sum = cm_sum = equidim_sum = km_vd_fail_sum = km_vd_fail_a11_sum = 0
    seconds_list = []
    line = b"\n"
    with lines:
        for line in lines:
            fields = line.split(b" ")
            if len(fields) != 7:
                continue
            # the bytes of start, total, cm, equidim, km_vd_fail, km_vd_fail_a11, seconds
            s, t, c, e, k, a, x = fields
            try:
                total, cm, equidim, km_vd_fail, km_vd_fail_a11 = (
                    _COUNTS[t],
                    _COUNTS[c],
                    _COUNTS[e],
                    _COUNTS[k],
                    _COUNTS[a],
                )
                seconds = float(x)
            except (KeyError, ValueError):  # a count store cannot write, or no float
                continue
            # the bytes 48 "0", 57 "9", 46 "." and 10 the newline
            if (
                cm <= total
                and equidim <= total
                and km_vd_fail <= total
                and km_vd_fail_a11 <= total
                and s.isdigit()
                and (s[0] != 48 or s == b"0")
                and (start := int(s)) in missing
                and x[-1] == 10
                and 48 <= x[0] <= 57
                and (x[0] != 48 or x[1] == 46)
                and not x.translate(None, _SECONDS)
                and seconds < inf
            ):
                missing.remove(start)
                total_sum += total
                cm_sum += cm
                equidim_sum += equidim
                km_vd_fail_sum += km_vd_fail
                km_vd_fail_a11_sum += km_vd_fail_a11
                seconds_list.append(seconds)
    sums = [total_sum, cm_sum, equidim_sum, km_vd_fail_sum, km_vd_fail_a11_sum]
    return sums, seconds_list, not line.endswith(b"\n")


def _remove_stale_keys(cache_dir, key) -> None:
    """Delete the regular files <census digest>-<8 hex>.* of key's census
    other than key, the ones other code wrote, whatever their format's
    suffix.  Everything else is left alone: other censuses' files,
    directories and names of other shapes."""
    for entry in cache_dir.glob(key[:17] + "[0-9a-f]" * 8 + ".*"):
        if entry.name != key and entry.is_file():
            entry.unlink()


def _shard_worker(args):
    """Analyse one shard's ASMs, through the module attribute analyze_asm,
    which a wrapper such as a profiler or a per-answer timer replaces.
    Returns its cache line's fields: the shard's start, its _SUMMED counts
    and the seconds its analyses took.

    A census analyses each ASM once, and no two open ASMs share Perm(A)
    (the 3345 open ASM(6) have 3345), so perm_cm_km_vd never hits within
    one: it is emptied when the shard is done, with the subword recursion's
    memo (_km_vd), whose states recur between the ASMs of a shard, so each
    holds at most one shard's entries.  So is the vd search's memo
    (complexes._coneless_vd), which only the complexes of ASMs that gluing
    leaves undecided fill, if that module has been loaded: it is looked up
    in sys.modules, never imported here."""
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
    perm_cm_km_vd.cache_clear()
    _km_vd.cache_clear()
    complexes = sys.modules.get("asmlab.complexes")
    if complexes is not None:
        complexes._coneless_vd.cache_clear()
    return start, len(asms), cm, equidim, km_vd_fail, km_vd_fail_a11, seconds


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
    line per shard, appended as soon as its shard finishes, so
    interrupted runs resume, and warm reruns recompute nothing and do not
    stream: they open the key file and nothing else.  A census that computes
    a shard first makes cache_dir and removes the key files of the same
    census that other code wrote, then appends each shard's line through one
    handle, flushed per line.  The shards' counts are added up as they are
    read or computed, so memory does not grow with n.  At most
    min(jobs, os.cpu_count()) worker processes run.  n and jobs are ints of
    exactly that type, as parse_field takes its field: not True, 5.0 or
    "5".
    """
    checks = _known_checks(checks)
    field = parse_field(field)
    if type(n) is not int or not 1 <= n <= MAX_STREAM_N:
        raise SizeBoundExceededError(
            f"census size must be an int in [1, {MAX_STREAM_N}], got {n!r}"
        )
    if ("cm" in checks or "km_vd" in checks) and n > 7:
        raise SizeBoundExceededError("cm/km_vd censuses are limited to n <= 7")
    if filter_spec not in _FILTERS:
        raise AsmlabError(f"unknown filter {filter_spec!r}")
    if type(jobs) is not int or jobs < 1:
        raise AsmlabError(f"jobs must be an int of at least 1, got {jobs!r}")
    keep = _FILTERS[filter_spec]
    missing = set(range(0, ASM_COUNTS[n - 1], SHARD_SIZE))
    key = key_path = None
    if cache_dir is None:
        sums, subtotals, torn = [0] * len(_SUMMED), [], False
    else:
        key = _cache_key(n, checks, field, filter_spec)
        key_path = os.path.join(cache_dir, key)
        sums, subtotals, torn = _read_shards(key_path, missing)

    def missing_shards():
        stream = enumerate_asms(n)
        for start in range(0, max(missing) + 1, SHARD_SIZE):
            asms = list(islice(stream, SHARD_SIZE))
            if start in missing:
                yield start, asms if keep is None else list(filter(keep, asms)), checks, field

    def store(computed, out):
        for shard in computed:
            for i, count in enumerate(shard[1:-1]):
                sums[i] += count
            subtotals.append(shard[-1])
            if out is not None:
                out.write(_LINE % shard)
                out.flush()

    def compute(out):
        # no more workers than cores or missing shards; a lone shard runs in
        # this process
        workers = min(jobs, len(missing), os.cpu_count() or 1)
        if workers > 1:
            from multiprocessing import Pool

            with Pool(workers) as pool:
                store(pool.imap_unordered(_shard_worker, missing_shards()), out)
        else:
            store(map(_shard_worker, missing_shards()), out)

    if missing and key_path is None:
        compute(None)
    elif missing:
        from pathlib import Path

        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        _remove_stale_keys(cache_dir, key)
        with open(key_path, "ab") as out:
            # a torn last line is ended before any append, which would
            # otherwise glue onto it and be lost with it; the space gives it
            # an empty last field, so it is never served, even when it was
            # cut inside its seconds and still reads as seven fields
            if torn:
                out.write(b" \n")
            compute(out)

    total, cm, equidim, km_vd_fail, km_vd_fail_a11 = sums

    def column(value, check):
        return value if check in checks else None

    return CensusTable(
        n=n,
        total=total,
        cm=column(cm, "cm"),
        not_cm=column(total - cm, "cm"),
        km_vd_fail=column(km_vd_fail, "km_vd"),
        km_vd_fail_a11=column(km_vd_fail_a11, "km_vd"),
        equidim=column(equidim, "equidim"),
        # fsum is correctly rounded: the order the shards finish in is moot
        runtime_s=round(fsum(subtotals), 3),
    )
