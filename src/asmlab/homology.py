"""Exact reduced simplicial homology and the Cohen-Macaulayness decision.

Homology is computed over the rationals (exact integer elimination; no
floating point) or over a prime field.  Cohen-Macaulayness of an ASM is
decided on its antidiagonal initial ideal, either by the topological
link-vanishing criterion or by a depth computation from induced-subcomplex
homology over all vertex subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations

from .asm import Asm, one_plus
from .complexes import MEMO_SIZE, link_facets, sr_complex_from_ideal, SimplicialComplex
from .errors import FaceBudgetExceededError, InvalidFieldError, SizeBoundExceededError
from .ideals import init_ideal, is_pure_family, maximal_sets

DEFAULT_CM_BOUND = 6
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


def _field_key(field) -> int:
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
            if p:
                f = v * pow(pv, -1, p) % p
                new = dict(r)
                for col, val in pivot_row.items():
                    t = (new.get(col, 0) - f * val) % p
                    if t:
                        new[col] = t
                    else:
                        new.pop(col, None)
            elif v % pv == 0:
                f = v // pv
                new = dict(r)
                for col, val in pivot_row.items():
                    t = new.get(col, 0) - f * val
                    if t:
                        new[col] = t
                    else:
                        new.pop(col, None)
            else:
                new = {col: pv * val for col, val in r.items()}
                for col, val in pivot_row.items():
                    t = new.get(col, 0) - v * val
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


def _all_faces(facets) -> set[frozenset]:
    faces = {frozenset()}
    for F in facets:
        cells = sorted(F)
        for k in range(1, len(cells) + 1):
            faces.update(map(frozenset, combinations(cells, k)))
    return faces


def chain_complex(facets, face_budget: int = DEFAULT_FACE_BUDGET) -> ChainComplex:
    """Full simplicial chain complex with the augmentation map included."""
    if sum(2 ** len(F) for F in facets) > face_budget:
        raise FaceBudgetExceededError("complex exceeds the face budget")
    by_dim: dict[int, list[tuple]] = {}
    for f in _all_faces(facets):
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    top = max(by_dim) if by_dim else -1
    for d in by_dim:
        by_dim[d].sort()
    index = {d: {f: i for i, f in enumerate(by_dim[d])} for d in by_dim}
    dims = tuple(len(by_dim.get(d, ())) for d in range(-1, top + 1))
    boundaries = []
    for d in range(0, top + 1):
        rows = [dict() for _ in by_dim.get(d - 1, ())]
        lower = index.get(d - 1, {})
        for col, face in enumerate(by_dim.get(d, ())):
            for a in range(len(face)):
                sub = face[:a] + face[a + 1 :]
                rows[lower[sub]][col] = (-1) ** a
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
    facets = frozenset(map(frozenset, facets))
    return HomologyProfile(_reduced_betti(facets, _field_key(field), face_budget), field)


# -- Cohen-Macaulayness --------------------------------------------------------

def complex_is_cm(facets, p: int = 0, face_budget: int = DEFAULT_FACE_BUDGET) -> bool:
    """Link-vanishing criterion with cone reduction and memoization.

    Requires purity, strips the common apex, checks that reduced homology
    vanishes below the top dimension, then recurses into vertex links.
    """
    facets = frozenset(map(frozenset, facets))
    if not facets:
        return True
    if not is_pure_family(facets):
        return False
    common = frozenset.intersection(*facets)
    if common:
        facets = frozenset(F - common for F in facets)
    if facets == frozenset([frozenset()]):
        return True
    return _coneless_is_cm(facets, p, face_budget)


@lru_cache(maxsize=MEMO_SIZE)
def _coneless_is_cm(facets: frozenset, p: int, face_budget: int) -> bool:
    """complex_is_cm on a pure complex with no cone point and some vertex."""
    top = max(len(F) for F in facets) - 1
    betti = _reduced_betti(facets, p, face_budget)
    if any(betti[d + 1] for d in range(-1, top)):
        return False
    return all(
        complex_is_cm(link_facets(facets, frozenset([v])), p, face_budget)
        for v in frozenset().union(*facets)
    )


def hochster_depth(
    facets, universe, p: int = 0, face_budget: int = DEFAULT_FACE_BUDGET
) -> int:
    """Depth from induced-subcomplex homology over all vertex subsets."""
    verts = sorted(universe)
    facets = frozenset(map(frozenset, facets))
    pd = 0
    for mask in range(2 ** len(verts)):
        W = frozenset(v for b, v in enumerate(verts) if mask >> b & 1)
        sub = maximal_sets(F & W for F in facets)
        betti = _reduced_betti(sub, p, face_budget)
        for idx, b in enumerate(betti):
            if b:
                pd = max(pd, len(W) - idx)  # homological degree |W| - d - 1, d = idx - 1
    return len(verts) - pd


def is_cohen_macaulay(
    A: Asm,
    field="rational",
    backend: str = "reisner",
    bound: int = DEFAULT_CM_BOUND,
    face_budget: int = DEFAULT_FACE_BUDGET,
) -> bool:
    """Whether the ASM defines a Cohen-Macaulay quotient, decided on the
    antidiagonal initial ideal."""
    if A.n > bound:
        raise SizeBoundExceededError(f"n={A.n} exceeds the CM bound {bound}")
    p = _field_key(field)
    delta = sr_complex_from_ideal(init_ideal(A))
    if backend == "reisner":
        return complex_is_cm(delta.facets, p, face_budget)
    if backend == "hochster":
        depth = hochster_depth(delta.facets, delta.vertex_universe, p, face_budget)
        return depth == delta.dim() + 1
    raise ValueError(f"unknown backend {backend!r}")


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
    bound = A.n + 1
    return (
        entries,
        is_cohen_macaulay(A, field=field, bound=bound),
        is_cohen_macaulay(one_plus(A), field=field, bound=bound),
    )


def cm_conjecture_scan(n: int, field="rational", jobs: int = 1) -> ConjectureScanReport:
    """Compare CM(A) with CM(1 + A) over all of ASM(n).

    Records a forward violation when 1 + A is CM but A is not (a proved
    implication, so any hit is a bug) and a converse counterexample when A
    is CM but 1 + A is not (the conjectured direction).
    """
    from .enumeration import enumerate_asms

    if n > DEFAULT_CM_BOUND - 1:
        raise SizeBoundExceededError(f"scan limited to n <= {DEFAULT_CM_BOUND - 1}")
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
