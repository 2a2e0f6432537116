"""The nine theorem-verification sweeps: each checks one statement about
ASM varieties over all of ASM(n) for n <= 4, and over a seeded sample
above, and reports its cases and failures.

`import asmlab` loads this module only when one of its names is first used
(`verify_statement`, `VerificationReport`), so a census or an `analyze`
process never compiles it.
"""

from __future__ import annotations

import random
from itertools import islice

from .asm import Asm
from .combinatorics import (
    badblock_match,
    check_containment_constraints,
    direct_sum,
    insert_unit,
    iter_pattern_witnesses,
    one_plus,
    perm_direct_sum,
)
from .enumeration import (
    ASM_COUNTS,
    MAX_STREAM_N,
    _Slotted,
    analyze_asm,
    enumerate_asms,
    is_cohen_macaulay,
)
from .errors import SizeBoundExceededError, UnknownStatementError
from .homology import _all_faces
from .ideals import cells, mask, perm_set
from .squarefree import (
    SquarefreeIdeal,
    construct_yo_primes,
    face_subcomplex,
    ideal_colon,
    ideal_intersection,
    init_ideal,
    is_minimal_prime,
    sr_complex_from_ideal,
    stanley_reisner_ideal,
)


class VerificationReport(_Slotted):
    """One sweep's case count, failures and extra detail, filled in as the
    sweep runs."""

    __slots__ = ("statement", "n", "cases", "failures", "detail")

    def __init__(
        self,
        statement: str,
        n: int,
        cases: int = 0,
        failures: list | None = None,
        detail: dict | None = None,
    ):
        self.statement = statement
        self.n = n
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.detail = {} if detail is None else detail

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

