"""Streaming generation of ASM(n), the per-ASM analysis pipeline, census
tabulation with a resumable shard cache, and theorem-verification sweeps.

ASMs are generated through their column-sum matrices: row i of the partial
column sums is a 0/1 vector with i ones whose one-positions interlace the
previous row's (the monotone-triangle condition).  The stream order is
lexicographic on the successive one-position tuples, so shard boundaries
and cache keys are stable across runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import combinations, islice
from math import fsum, inf

from .asm import (
    Asm,
    badblock_match,
    check_containment_constraints,
    direct_sum,
    insert_unit,
    iter_pattern_witnesses,
    one_plus,
    perm_direct_sum,
)
from .complexes import (
    asm_complex,
    face_subcomplex,
    sr_complex_from_ideal,
    stanley_reisner_ideal,
    vd_facets,
)
from .errors import (
    AsmlabError,
    SizeBoundExceededError,
    UnknownCheckError,
    UnknownStatementError,
)
from .homology import _all_faces, cascade_is_cm, characteristic, parse_field
from .ideals import (
    SquarefreeIdeal,
    cells,
    construct_yo_primes,
    ideal_colon,
    ideal_intersection,
    init_ideal,
    is_minimal_prime,
    mask,
    perm_set,
)

ASM_COUNTS = (1, 2, 7, 42, 429, 7436, 218348, 10850216)
# Part of every census cache key.  Bump it whenever an algorithm behind a
# cached answer or the shard format changes, so that no cache written by
# older code is ever served.
CACHE_VERSION = 7
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


def enumerate_asms(n: int):
    """Yield every element of ASM(n) exactly once, in a fixed order."""
    if not (1 <= n <= MAX_STREAM_N):
        raise SizeBoundExceededError(f"stream size n={n} outside [1, {MAX_STREAM_N}]")
    rows: list[tuple[int, ...]] = []

    def rec(prev: tuple[int, ...]):
        if len(rows) == n:
            yield Asm(tuple(rows))
            return
        for cur, row in _next_rows(prev, n):
            rows.append(row)
            yield from rec(cur)
            rows.pop()

    yield from rec(())


# -- per-ASM analysis ----------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the census needs to know about one ASM."""

    asm: Asm
    codim: int | None = None
    perm_count: int | None = None
    equidimensional: bool | None = None
    cm: bool | None = None
    km_vd: bool | None = None


def _known_checks(checks) -> frozenset:
    """The check names as a set, rejecting any not in ALL_CHECKS."""
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise UnknownCheckError(
            f"unknown checks {sorted(unknown)}; expected some of {list(ALL_CHECKS)}"
        )
    return frozenset(checks)


def analyze_asm(A: Asm, checks=ALL_CHECKS, field="rational") -> AnalysisReport:
    """Answer the requested checks: the one place an ASM's CM and KM-vd
    answers are decided (`is_cohen_macaulay` is its "cm" answer).

    codim, perm_count and equidimensionality come from perm_set(A), and so
    do "cm" and "km_vd" when Perm(A) settles both.  A facet of the
    Stanley-Reisner complex Delta_A is the complement of a pipe dream of
    some w in Perm(A), with l(w) cells, so with more than one length Delta_A
    is not pure: neither CM (Reisner) nor vertex decomposable.  For one
    permutation it is a subword complex, vertex decomposable at the first
    letter, the fixed KM order (Knutson-Miller), so CM over every field.
    Otherwise Delta_A is built once from the pipe dreams of Perm(A), with no
    ideal: "cm" is the cascade on it, and "km_vd" a flag of the vd search, a
    memo hit after "cm".  The field is checked first, whatever the checks."""
    checks = _known_checks(checks)
    p = characteristic(field)
    codim = perm_count = equidim = cm = km_vd = None
    if checks:
        ps = perm_set(A)
    if checks & {"codim", "equidim"}:
        codim = ps.codim if "codim" in checks else None
        perm_count = len(ps.perms)
        equidim = ps.equidimensional if "equidim" in checks else None
    if checks & {"cm", "km_vd"}:
        if not ps.equidimensional:
            known = False
        elif len(ps.perms) == 1:
            known = True
        else:
            known, facets = None, asm_complex(ps).facets
        if "cm" in checks:
            cm = cascade_is_cm(facets, p) if known is None else known
        if "km_vd" in checks:
            km_vd = vd_facets(facets)[1] if known is None else known
    return AnalysisReport(
        asm=A,
        codim=codim,
        perm_count=perm_count,
        equidimensional=equidim,
        cm=cm,
        km_vd=km_vd,
    )


def is_cohen_macaulay(A: Asm, field="rational") -> bool:
    """Whether the ASM defines a Cohen-Macaulay quotient over the field:
    analyze_asm's "cm" answer."""
    return analyze_asm(A, ("cm",), field).cm


# -- census tabulation ---------------------------------------------------------


@dataclass(frozen=True)
class CensusTable:
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CENSUS_COLUMNS)
        writer.writerow(self.row())
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return dict(zip(CENSUS_COLUMNS, self.row()))


_FILTERS = {
    None: lambda A: True,
    "a11=1": lambda A: A.a11_is_one,
}

# the counts a shard file holds besides its total and its seconds
_SHARD_COUNTS = ("cm", "equidim", "km_vd_fail", "km_vd_fail_a11")


def _cache_key(n: int, checks, field, filter_spec) -> str:
    """The name of a census's key directory: v{CACHE_VERSION}-<16 hex>."""
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "n": n,
            "checks": sorted(checks),
            "field": str(field),
            "filter": filter_spec,
        },
        sort_keys=True,
    )
    return f"v{CACHE_VERSION}-{hashlib.sha1(payload.encode()).hexdigest()[:16]}"


_KEY_DIR = re.compile(r"v(\d+)-[0-9a-f]{16}")


def _remove_stale_keys(cache_dir) -> None:
    """Delete the key directories an older CACHE_VERSION wrote, those named
    v{k}-<16 hex> with k < CACHE_VERSION, and leave everything else alone."""
    for entry in cache_dir.iterdir():
        match = _KEY_DIR.fullmatch(entry.name)
        if match and int(match[1]) < CACHE_VERSION and entry.is_dir():
            shutil.rmtree(entry)


def _shard_worker(args):
    """Analyse one shard's ASMs.  Returns the shard's start and its census
    counts with the seconds its analyses took, the object its file holds."""
    start, asms, checks, field = args
    counts = Counter()
    t0 = time.perf_counter()
    for A in asms:
        r = analyze_asm(A, checks=checks, field=field)
        # the headline KM-vd count is CM complexes missed by the fixed-order
        # test
        miss = not r.km_vd and (r.cm if "cm" in checks else True)
        # += on a Counter's 0 gives an int even from a bool; update() on an
        # empty Counter would store the bools themselves
        counts["cm"] += bool(r.cm)
        counts["equidim"] += bool(r.equidimensional)
        counts["km_vd_fail"] += bool(miss)
        counts["km_vd_fail_a11"] += bool(miss and A.a11_is_one)
    seconds = time.perf_counter() - t0
    shard = {k: counts[k] for k in _SHARD_COUNTS}
    return start, {**shard, "total": len(asms), "seconds": seconds}


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
    shard goes to a worker, which returns the shard's census counts.  Each
    shard's counts are cached as one JSON object in a content-addressed
    subdirectory of cache_dir, written as soon as its shard finishes, so
    interrupted runs resume, and warm reruns recompute nothing and do not
    stream.  The key directories an older CACHE_VERSION wrote are removed.
    The shards' counts are added up as they are read or computed, so
    memory does not grow with n.  At most min(jobs, os.cpu_count())
    worker processes run.
    """
    checks = tuple(sorted(_known_checks(checks)))
    field = parse_field(field)
    if not (1 <= n <= MAX_STREAM_N):
        raise SizeBoundExceededError(f"census size n={n} outside [1, {MAX_STREAM_N}]")
    if ("cm" in checks or "km_vd" in checks) and n > 7:
        raise SizeBoundExceededError(f"cm/km_vd censuses are limited to n <= 7")
    if filter_spec not in _FILTERS:
        raise AsmlabError(f"unknown filter {filter_spec!r}")
    if jobs < 1:
        raise AsmlabError(f"jobs must be at least 1, got {jobs}")
    keep = _FILTERS[filter_spec]
    starts = range(0, ASM_COUNTS[n - 1], SHARD_SIZE)
    key_dir = None
    if cache_dir is not None:
        from pathlib import Path

        key_dir = Path(cache_dir) / _cache_key(n, checks, field, filter_spec)
        key_dir.mkdir(parents=True, exist_ok=True)
        _remove_stale_keys(key_dir.parent)

    def shard_path(start):
        return key_dir / f"shard_{start:08d}.jsonl"

    def cached(start):
        """The shard's stored counts, or None when it is to be computed: no
        file, no JSON object with exactly the shard's keys, a total above
        SHARD_SIZE, a count that is not an int in [0, total], or seconds
        that are not a finite float >= 0."""
        if key_dir is None or not shard_path(start).exists():
            return None
        try:
            shard = json.loads(shard_path(start).read_text())
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            return None

        def within(v, top):
            return type(v) is int and 0 <= v <= top

        valid = (
            isinstance(shard, dict)
            and shard.keys() == {"total", "seconds", *_SHARD_COUNTS}
            and within(shard["total"], SHARD_SIZE)
            and all(within(shard[k], shard["total"]) for k in _SHARD_COUNTS)
            and type(shard["seconds"]) is float
            and 0 <= shard["seconds"] < inf
        )
        return shard if valid else None

    tally = Counter()
    subtotals = []  # the analysis seconds of each shard

    def count(shard):
        for k in ("total", *_SHARD_COUNTS):
            tally[k] += shard[k]
        subtotals.append(shard["seconds"])

    missing = set()
    for start in starts:
        shard = cached(start)
        if shard is None:
            missing.add(start)
        else:
            count(shard)

    def missing_shards():
        stream = enumerate_asms(n)
        for start in range(0, max(missing) + 1, SHARD_SIZE):
            asms = list(islice(stream, SHARD_SIZE))
            if start in missing:
                yield start, [A for A in asms if keep(A)], checks, field

    def store(computed):
        for start, shard in computed:
            count(shard)
            if key_dir is not None:
                tmp = shard_path(start).with_suffix(".tmp")
                tmp.write_text(json.dumps(shard, sort_keys=True) + "\n")
                tmp.replace(shard_path(start))

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


# -- theorem sweeps ------------------------------------------------------------


@dataclass
class VerificationReport:
    statement: str
    n: int
    cases: int = 0
    failures: list = dc_field(default_factory=list)
    detail: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement,
            "n": self.n,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures[:10],
            "detail": self.detail,
        }


def _sampled_asms(n: int, rng: random.Random | None, target: int):
    """All of ASM(n), or `target` of them drawn by stream index, in the
    drawn order; only the drawn matrices are kept."""
    if rng is None or ASM_COUNTS[n - 1] <= target:
        return list(enumerate_asms(n))
    picks = rng.sample(range(ASM_COUNTS[n - 1]), target)
    wanted = set(picks)
    stream = islice(enumerate_asms(n), max(picks) + 1)
    drawn = {i: A for i, A in enumerate(stream) if i in wanted}
    return [drawn[i] for i in picks]


def _block_pairs(n: int):
    """(m, A1, A2) for every A1 in ASM(m) and A2 in ASM(n - m), 0 < m < n."""
    for m in range(1, n):
        for A1 in enumerate_asms(m):
            for A2 in enumerate_asms(n - m):
                yield m, A1, A2


def _sum_holds(A1: Asm, A2: Asm) -> bool:
    """Whether Perm(A1 + A2) is the set of sums of the blocks' permutations,
    the codimensions add, and A1 + A2 is equidimensional exactly when both
    blocks are."""
    p1, p2 = perm_set(A1), perm_set(A2)
    ps = perm_set(direct_sum(A1, A2))
    expected = frozenset(perm_direct_sum(u, v) for u in p1.perms for v in p2.perms)
    return (
        ps.perms == expected
        and ps.codim == p1.codim + p2.codim
        and ps.equidimensional == (p1.equidimensional and p2.equidimensional)
    )


def _verify_perm_bijection(n, rng, report):
    # 1 + A is the direct sum of the 1x1 identity and A
    for A in _sampled_asms(n, rng, 600):
        report.cases += 1
        if not _sum_holds(Asm.identity(1), A):
            report.failures.append(A.to_json_dict())


def _verify_direct_sum(n, rng, report):
    for _, A1, A2 in _block_pairs(n):
        report.cases += 1
        if not _sum_holds(A1, A2):
            report.failures.append({"a1": A1.to_json_dict(), "a2": A2.to_json_dict()})


def _verify_init_split(n, rng, report):
    for A in _sampled_asms(n, rng, 600):
        report.cases += 1
        I = init_ideal(A)
        perms = perm_set(A).perms
        parts = [init_ideal(w.to_asm()) for w in perms]
        meet = parts[0]
        for part in parts[1:]:
            meet = ideal_intersection(meet, part)
        if meet.gens != I.gens:
            report.failures.append(A.to_json_dict())


def _verify_link_colon(n, rng, report):
    for A in _sampled_asms(n, rng, 80):
        delta = sr_complex_from_ideal(init_ideal(A))
        I_delta = stanley_reisner_ideal(delta)
        faces = sorted(
            _all_faces(delta.facets), key=lambda f: (f.bit_count(), sorted(cells(f, n)))
        )
        if rng is not None and len(faces) > 8:
            faces = rng.sample(faces, 8)
        for sigma in faces:
            report.cases += 1
            link = face_subcomplex(delta, sigma, "link")
            lhs = stanley_reisner_ideal(link)
            rhs = ideal_colon(I_delta, sigma)
            if lhs.gens != rhs.gens:
                report.failures.append(
                    {"asm": A.to_json_dict(), "face": sorted(cells(sigma, n))}
                )


def _verify_tilde_identity(n, rng, report):
    cases = [(A, j) for A in enumerate_asms(n) for j in range(1, n + 1)]
    if rng is not None and len(cases) > 600:
        cases = rng.sample(cases, 600)
    for A, j in cases:
        report.cases += 1
        At = insert_unit(A, 1, j)
        shifted = {mask({(a + 1, b) for a, b in cells(g, n)}, n + 1) for g in init_ideal(A).gens}
        row_vars = {mask([(1, b)], n + 1) for b in range(1, n + 2) if b != j}
        lhs = SquarefreeIdeal.make(n + 1, shifted | row_vars)
        tail_vars = {mask([(1, k)], n + 1) for k in range(j + 1, n + 2)}
        rhs = SquarefreeIdeal.make(
            n + 1, set(ideal_colon(init_ideal(At), sum(tail_vars)).gens) | tail_vars
        )
        if lhs.gens != rhs.gens:
            report.failures.append({"asm": A.to_json_dict(), "j": j})


def _verify_block_antidiagonal(n, rng, report):
    for m, A1, A2 in _block_pairs(n):
        report.cases += 1
        k = n - m
        A = Asm(
            tuple((0,) * k + row for row in A1.entries)
            + tuple(row + (0,) * m for row in A2.entries)
        )
        whole, r1, r2 = (analyze_asm(B, ("equidim", "cm")) for B in (A, A1, A2))
        eq_blocks = r1.equidimensional and r2.equidimensional
        if whole.equidimensional != eq_blocks or whole.cm != (r1.cm and r2.cm):
            report.failures.append({"asm": A.to_json_dict(), "m": m})


def _verify_badblock(n, rng, report):
    matches = 0
    for A in enumerate_asms(n):
        cell = badblock_match(A)
        if cell is None:
            continue
        matches += 1
        report.cases += 1
        Y, O = construct_yo_primes(A, *cell)
        I = init_ideal(A)
        ok = (
            not perm_set(A).equidimensional
            and Y.bit_count() != O.bit_count()
            and is_minimal_prime(I, Y)
            and is_minimal_prime(I, O)
        )
        if not ok:
            report.failures.append({"asm": A.to_json_dict(), "cell": list(cell)})
    report.detail["matches"] = matches


def _verify_cm_conjecture(n, rng, report):
    """CM(1 + A) against CM(A) over all of ASM(n), n <= 5.  A "forward"
    failure is 1 + A CM but A not (a proved implication, so any hit is a
    bug); a "converse" one is A CM but 1 + A not (the conjectured
    direction)."""
    if n > 5:
        raise SizeBoundExceededError("cm-conjecture sweep limited to n <= 5")
    report.detail["cm_count"] = 0
    for A in enumerate_asms(n):
        report.cases += 1
        cm_a, cm_1a = is_cohen_macaulay(A), is_cohen_macaulay(one_plus(A))
        report.detail["cm_count"] += cm_a
        if cm_a != cm_1a:
            kind = "converse" if cm_a else "forward"
            report.failures.append({"kind": kind, "matrix": [list(r) for r in A.entries]})


def _verify_containment_restrictions(n, rng, report):
    patterns = [B for k in range(1, n) for B in enumerate_asms(k)]
    targets = _sampled_asms(n, rng, 30)
    for A in targets:
        for B in patterns:
            for witness in iter_pattern_witnesses(A, B):
                report.cases += 1
                cr = check_containment_constraints(A, B, witness)
                if not cr.ok:
                    report.failures.append(
                        {
                            "target": A.to_json_dict(),
                            "pattern": B.to_json_dict(),
                            "rows": list(witness.kept_rows),
                            "cols": list(witness.kept_cols),
                        }
                    )


_STATEMENTS = {
    "perm-bijection": _verify_perm_bijection,
    "direct-sum": _verify_direct_sum,
    "init-split": _verify_init_split,
    "link-colon": _verify_link_colon,
    "tilde-identity": _verify_tilde_identity,
    "block-antidiagonal": _verify_block_antidiagonal,
    "badblock": _verify_badblock,
    "cm-conjecture": _verify_cm_conjecture,
    "containment-restrictions": _verify_containment_restrictions,
}

STATEMENT_NAMES = tuple(sorted(_STATEMENTS))


def verify_statement(name: str, n: int, seed: int = 0) -> VerificationReport:
    """Run one theorem sweep: exhaustive for n <= 4, seeded sampling above."""
    if name not in _STATEMENTS:
        raise UnknownStatementError(f"unknown statement {name!r}")
    if not (1 <= n <= MAX_STREAM_N):
        raise SizeBoundExceededError(f"sweep size n={n} outside [1, {MAX_STREAM_N}]")
    rng = random.Random(seed) if n >= 5 else None
    report = VerificationReport(statement=name, n=n)
    _STATEMENTS[name](n, rng, report)
    return report
