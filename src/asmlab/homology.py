"""Exact reduced simplicial homology and the Cohen-Macaulayness decision.

Homology is computed over the rationals (exact integer elimination; no
floating point) or over a prime field.  Cohen-Macaulayness of an ASM is
decided on the Stanley-Reisner complex of its antidiagonal initial ideal.
The decision is a cascade that runs homology only when no certificate
settles the question: a non-pure complex is not CM; a vertex decomposable
one, in the fixed Knutson-Miller order or in any order, is shellable and so
CM over every field (Provan-Billera); only the rest go through Reisner's
link-vanishing criterion.  Reisner's criterion on its own (`complex_is_cm`)
and Hochster's depth formula over all induced subcomplexes
(`hochster_depth`) are the oracles the cascade is checked against.  Faces
are masks in the layout of `ideals`, their vertices in ascending bit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce
from operator import and_

from .asm import Asm, one_plus
from .complexes import (
    MEMO_SIZE,
    SimplicialComplex,
    _km_vd_facets,
    link_facets,
    sr_complex_from_ideal,
    vd_facets,
)
from .errors import FaceBudgetExceededError, InvalidFieldError, SizeBoundExceededError
from .ideals import bits, init_ideal, is_pure_family, maximal_sets, submasks, union

DEFAULT_FACE_BUDGET = 2**24


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, exact below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    xs = (pow(b, (p - 1) >> s, p) for b in bases)
    return all(x == 1 or any(pow(x, 2**r, p) == p - 1 for r in range(s)) for x in xs)


def parse_field(field):
    """Validate a coefficient field: "rational" (or None, or 0) for Q, else a
    prime p given as an int or as the text "p=<p>".  Returns "rational" or p.
    """
    if field in ("rational", None, 0):
        return "rational"
    text = field if isinstance(field, str) else f"p={field}"
    digits = text[2:] if text.startswith("p=") else ""
    if not (digits.isdecimal() and _is_prime(int(digits))):
        raise InvalidFieldError(f"field must be 'rational' or 'p=<prime>', got {field!r}")
    return int(digits)


def characteristic(field) -> int:
    """0 for the rationals, else the prime p of a field parse_field accepts."""
    p = parse_field(field)
    return 0 if p == "rational" else p


# -- exact ranks --------------------------------------------------------------


def sparse_rank(rows, p: int = 0) -> int:
    """Rank of an integer matrix given as dict-rows {col: value}.

    p == 0 computes the rank over the rationals by integer row operations
    (rows may be scaled by nonzero integers, which preserves rank); p > 0
    works modulo the prime p.
    """
    work = []
    for r in rows:
        if p:
            r = {c: v % p for c, v in r.items() if v % p}
        else:
            r = {c: v for c, v in r.items() if v}
        if r:
            work.append(r)
    rank = 0
    while work:
        # shortest row as pivot row; prefer a unit pivot entry over Z
        pi = min(range(len(work)), key=lambda i: len(work[i]))
        pivot_row = work.pop(pi)
        if p:
            c, pv = next(iter(pivot_row.items()))
        else:
            c, pv = min(
                pivot_row.items(), key=lambda kv: (abs(kv[1]) != 1, abs(kv[1]))
            )
        rank += 1
        reduced = []
        for r in work:
            v = r.get(c)
            if v is None:
                reduced.append(r)
                continue
            # r becomes scale * r - f * pivot_row, which is 0 in column c
            if p:
                scale, f = 1, v * pow(pv, -1, p) % p
            elif v % pv == 0:
                scale, f = 1, v // pv
            else:
                scale, f = pv, v
            new = {col: scale * val for col, val in r.items()} if scale != 1 else dict(r)
            for col, val in pivot_row.items():
                t = new.get(col, 0) - f * val
                if p:
                    t %= p
                if t:
                    new[col] = t
                else:
                    new.pop(col, None)
            if new:
                reduced.append(new)
        work = reduced
    return rank


# -- chain complexes -----------------------------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    """Face counts per dimension (from -1 up) and boundary matrices.

    boundaries[k] is the matrix of the map from dimension-k chains to
    dimension-(k-1) chains, stored as dict-rows indexed by (k-1)-faces.
    """

    dims: tuple[int, ...]
    boundaries: tuple


def _all_faces(facets) -> set[int]:
    """Every face: the submasks of the facets, the empty face 0 included."""
    return {0}.union(*map(submasks, facets))


def chain_complex(facets, face_budget: int = DEFAULT_FACE_BUDGET) -> ChainComplex:
    """Full simplicial chain complex with the augmentation map included."""
    if sum(2 ** F.bit_count() for F in facets) > face_budget:
        raise FaceBudgetExceededError("complex exceeds the face budget")
    by_dim: dict[int, list[int]] = {}  # every dimension from -1 up has a face
    for f in sorted(_all_faces(facets)):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    index = {d: {f: i for i, f in enumerate(faces)} for d, faces in by_dim.items()}
    dims = tuple(len(by_dim[d]) for d in sorted(by_dim))
    boundaries = []
    for d in range(len(dims) - 1):
        rows = [dict() for _ in by_dim[d - 1]]
        lower = index[d - 1]
        for col, face in enumerate(by_dim[d]):
            for v in bits(face):
                # the sign is (-1)**(the number of the face's vertices before v)
                rows[lower[face ^ v]][col] = -1 if (face & (v - 1)).bit_count() & 1 else 1
        boundaries.append(tuple(rows))
    return ChainComplex(dims, tuple(boundaries))


def compose_boundaries(outer, inner) -> dict:
    """Sparse product of two boundary matrices (for the del-del = 0 check)."""
    result: dict[tuple[int, int], int] = {}
    for r, row in enumerate(outer):
        acc: dict[int, int] = {}
        for t, v in row.items():
            for c, w in inner[t].items():
                acc[c] = acc.get(c, 0) + v * w
        for c, v in acc.items():
            if v:
                result[(r, c)] = v
    return result


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers indexed from dimension -1 upward."""

    reduced_betti: tuple[int, ...]
    field: object = "rational"

    def betti(self, dim: int) -> int:
        idx = dim + 1
        if 0 <= idx < len(self.reduced_betti):
            return self.reduced_betti[idx]
        return 0


@lru_cache(maxsize=MEMO_SIZE)
def _reduced_betti(facets: frozenset, p: int, face_budget: int) -> tuple[int, ...]:
    cc = chain_complex(facets, face_budget)
    ranks = [sparse_rank(b, p) for b in cc.boundaries]
    ranks.append(0)
    betti = []
    for idx, count in enumerate(cc.dims):
        # idx 0 corresponds to dimension -1; boundary into it is ranks[idx-1]
        incoming = ranks[idx] if idx < len(cc.boundaries) + 1 else 0
        outgoing = ranks[idx - 1] if idx >= 1 else 0
        betti.append(count - outgoing - incoming)
    return tuple(betti)


def reduced_homology_ranks(
    delta, field="rational", face_budget: int = DEFAULT_FACE_BUDGET
) -> HomologyProfile:
    """Reduced Betti numbers of a complex (or raw facet collection)."""
    facets = delta.facets if isinstance(delta, SimplicialComplex) else frozenset(delta)
    return HomologyProfile(_reduced_betti(facets, characteristic(field), face_budget), field)


# -- Cohen-Macaulayness --------------------------------------------------------

def complex_is_cm(facets, p: int = 0, face_budget: int = DEFAULT_FACE_BUDGET) -> bool:
    """Reisner's link-vanishing criterion with cone reduction and
    memoization; the oracle the cascade is checked against.

    Requires purity, strips the common apex, checks that reduced homology
    vanishes below the top dimension, then recurses into vertex links.
    """
    facets = frozenset(facets)
    if not facets:
        return True
    if not is_pure_family(facets):
        return False
    common = reduce(and_, facets)
    if common:
        facets = frozenset(F & ~common for F in facets)
    if facets == {0}:
        return True
    return _coneless_is_cm(facets, p, face_budget)


@lru_cache(maxsize=MEMO_SIZE)
def _coneless_is_cm(facets: frozenset, p: int, face_budget: int) -> bool:
    """complex_is_cm on a pure complex with no cone point and some vertex."""
    top = max(F.bit_count() for F in facets) - 1
    betti = _reduced_betti(facets, p, face_budget)
    if any(betti[d + 1] for d in range(-1, top)):
        return False
    return all(
        complex_is_cm(link_facets(facets, v), p, face_budget) for v in bits(union(facets))
    )


def hochster_depth(
    facets, universe, p: int = 0, face_budget: int = DEFAULT_FACE_BUDGET
) -> int:
    """Depth from induced-subcomplex homology over all submasks of the
    universe (Hochster's formula); an oracle, exponential in the vertex count."""
    pd = 0
    for W in submasks(universe):
        sub = maximal_sets(F & W for F in facets)
        betti = _reduced_betti(sub, p, face_budget)
        for idx, b in enumerate(betti):
            if b:
                pd = max(pd, W.bit_count() - idx)  # homological degree |W| - d - 1, d = idx - 1
    return universe.bit_count() - pd


def cascade_is_cm(facets, p: int = 0) -> bool:
    """Cohen-Macaulayness of a complex (facet masks) over Q (p = 0) or
    GF(p), answered by the first step that settles it: purity, the
    fixed-order KM-vd memo, the free-order vertex decomposability search,
    and only then Reisner's criterion.  A certificate holds over every
    field, so only the last step depends on p."""
    facets = frozenset(facets)
    if not is_pure_family(facets):
        return False
    return _km_vd_facets(facets)[0] or vd_facets(facets) or complex_is_cm(facets, p)


def is_cohen_macaulay(A: Asm, field="rational") -> bool:
    """Whether the ASM defines a Cohen-Macaulay quotient: the cascade on the
    Stanley-Reisner complex of its antidiagonal initial ideal."""
    delta = sr_complex_from_ideal(init_ideal(A))
    return cascade_is_cm(delta.facets, characteristic(field))


# -- the 1-plus conjecture scan ------------------------------------------------


@dataclass
class ConjectureScanReport:
    n: int
    field: object
    total: int = 0
    cm_count: int = 0
    forward_violations: list = dc_field(default_factory=list)
    converse_counterexamples: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.forward_violations and not self.converse_counterexamples


def _scan_pair(args) -> tuple[tuple, bool, bool]:
    entries, field = args
    A = Asm(entries)
    return entries, is_cohen_macaulay(A, field), is_cohen_macaulay(one_plus(A), field)


def cm_conjecture_scan(n: int, field="rational", jobs: int = 1) -> ConjectureScanReport:
    """Compare CM(A) with CM(1 + A) over all of ASM(n), n <= 5.

    Records a forward violation when 1 + A is CM but A is not (a proved
    implication, so any hit is a bug) and a converse counterexample when A
    is CM but 1 + A is not (the conjectured direction).
    """
    from .enumeration import enumerate_asms

    if n > 5:
        raise SizeBoundExceededError("scan limited to n <= 5")
    report = ConjectureScanReport(n=n, field=field)
    work = [(A.entries, field) for A in enumerate_asms(n)]
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            results = pool.map(_scan_pair, work, chunksize=8)
    else:
        results = map(_scan_pair, work)
    for entries, cm_a, cm_1a in results:
        report.total += 1
        if cm_a:
            report.cm_count += 1
        if cm_1a and not cm_a:
            report.forward_violations.append(entries)
        if cm_a and not cm_1a:
            report.converse_counterexamples.append(entries)
    return report
