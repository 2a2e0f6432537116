"""Stanley-Reisner complexes of squarefree ideals and of ASMs, and the
vertex-decomposability search.

Complexes are stored by their facet lists, each facet a mask in the layout
of `ideals`: cell (i, j) is bit (i-1)*n + (n-j), and the lowest set bit of
a vertex set is its greatest vertex in the Knutson-Miller order.  Links and
deletions at a vertex v are `F & ~v`.  Degree-1 generators of the ideal are
tracked as excluded vertices and grid cells outside the support as cone
points, so the complex itself lives on a small active universe.  Cells come
back only through the codec, in the JSON and in a failure trace.  The
complex of an ASM is built from the pipe dreams of Perm(A), with no ideal.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_
from typing import NamedTuple

from .asm import Cell
from .errors import NotAFaceError
from .ideals import (
    PermSet,
    SquarefreeIdeal,
    bits,
    cells,
    is_pure_family,
    maximal_sets,
    minimal_primes,
    minimal_transversals,
    pipe_dreams,
    strip_apex,
    union,
)

MEMO_SIZE = 10**6  # the bound of every facet-keyed memo, here and in homology


class SimplicialComplex(NamedTuple):
    """Facet-list complex over a subset of the n x n grid, vertex sets as masks."""

    ambient_n: int
    vertex_universe: int
    facets: frozenset  # frozenset[int]
    cone_points: int
    excluded_vertices: int

    def dim(self) -> int:
        return max(F.bit_count() for F in self.facets) - 1


def _complex_from_primes(n: int, primes) -> SimplicialComplex:
    """Facets are the universe-complements of the minimal primes.  The cells
    in every prime are the degree-1 generators, excluded from the universe,
    and the cells in none lie outside the support: the cone points."""
    support, excluded = union(primes), reduce(and_, primes)
    universe = support & ~excluded
    return SimplicialComplex(
        ambient_n=n,
        vertex_universe=universe,
        facets=frozenset(universe & ~P for P in primes),
        cone_points=((1 << n * n) - 1) & ~support,
        excluded_vertices=excluded,
    )


def sr_complex_from_ideal(I: SquarefreeIdeal) -> SimplicialComplex:
    """The Stanley-Reisner complex of a squarefree ideal, from its minimal
    primes."""
    if I.is_unit:
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    return _complex_from_primes(I.n, minimal_primes(I))


def asm_complex(ps: PermSet) -> SimplicialComplex:
    """The Stanley-Reisner complex of init(I_A), where ps = perm_set(A): its
    minimal primes are the reduced pipe dreams of the permutations of
    Perm(A), with no ideal."""
    w = next(iter(ps.perms))
    return _complex_from_primes(w.n, frozenset().union(*map(pipe_dreams, ps.perms)))


def stanley_reisner_ideal(delta: SimplicialComplex) -> SquarefreeIdeal:
    """Minimal non-faces within the vertex universe, as minimal transversals
    of the facet complements."""
    return SquarefreeIdeal(
        delta.ambient_n,
        minimal_transversals(delta.vertex_universe & ~F for F in delta.facets),
    )


def is_face(delta: SimplicialComplex, sigma: int) -> bool:
    return any(not sigma & ~F for F in delta.facets)


# link_facets takes an antichain and returns one, so it need not maximalize:
# a complex's facets are one, and so is every family Reisner's criterion and
# the KM-vd failure walk recurse on, being pure.  A deletion, sigma cut from
# every facet, is maximalized (maximal_sets).


def link_facets(facets, sigma: int) -> frozenset:
    """The facets of the link of sigma.  Facets through sigma that do not
    nest still do not once sigma is removed."""
    return frozenset(F & ~sigma for F in facets if not sigma & ~F)


def face_subcomplex(delta: SimplicialComplex, sigma: int, kind: str) -> SimplicialComplex:
    """Link or deletion at a face, in facet-list form."""
    if not is_face(delta, sigma):
        raise NotAFaceError(f"{sorted(cells(sigma, delta.ambient_n))} is not a face")
    if kind == "link":
        facets = link_facets(delta.facets, sigma)
    elif kind == "deletion":
        facets = maximal_sets(F & ~sigma for F in delta.facets)
    else:
        raise ValueError(f"kind must be 'link' or 'deletion', got {kind!r}")
    return SimplicialComplex(
        ambient_n=delta.ambient_n,
        vertex_universe=delta.vertex_universe & ~sigma,
        facets=facets,
        cone_points=delta.cone_points,
        excluded_vertices=delta.excluded_vertices,
    )


class DecompositionTrace(NamedTuple):
    result: bool
    failure_vertex: Cell | None = None
    failure_reason: str | None = None  # "NotPure" | "RecursiveFailure"
    path: tuple = ()  # tuple[(Cell, "link" | "deletion"), ...]

    def to_json_dict(self) -> dict:
        d: dict = {"result": self.result}
        if not self.result:
            d["failure_vertex"] = list(self.failure_vertex) if self.failure_vertex else None
            d["failure_reason"] = self.failure_reason
            d["path"] = [[list(v), branch] for v, branch in self.path]
        return d


@lru_cache(maxsize=MEMO_SIZE)
def vd_facets(facets: frozenset) -> tuple[bool, bool]:
    """(vd, km_vd): vertex decomposable in some order, which implies CM over
    every field (Provan-Billera), and in the fixed Knutson-Miller order.  The
    search tries the vertices greatest first, deletion before link, so km_vd
    holds exactly when its first try succeeds with both children km_vd.

    Purity is checked here, on the family as given, and nowhere below: the
    links of a pure complex are pure, and so is every deletion the search
    enters.  This memo is keyed on the facets as passed in, so the cascade
    and analyze_asm asking about one complex share an entry."""
    if not is_pure_family(facets):
        return False, False
    return _coneless_vd(strip_apex(facets))


@lru_cache(maxsize=MEMO_SIZE)
def _coneless_vd(facets: frozenset) -> tuple[bool, bool]:
    """vd_facets on a pure family with no cone point.

    A cone v * Gamma is vd (KM-vd) exactly when Gamma is: at v the deletion
    and the link are both Gamma, and at any other vertex u they are v times
    those of Gamma, so by induction the answer at u is Gamma's.  So every
    family is searched with its cone points stripped, and cones over one
    Gamma share one memo entry.

    For a vertex v of a pure complex that is not a cone point, the deletion
    keeps the facets missing v, and adds each F ^ v for a facet F through v
    that lies in none of them, one dimension lower.  So the deletion is pure,
    and then just the kept facets, exactly when every such F ^ v lies in a
    kept facet (v is a shedding vertex); otherwise it is not vd and v is
    skipped unbuilt."""
    if len(facets) <= 1:
        return True, True
    vertices = union(facets)
    for v in bits(vertices):
        kept, link = [], []
        for F in facets:
            if F & v:
                link.append(F ^ v)
            else:
                kept.append(F)
        outside = [~G for G in kept]  # L lies in G when L & ~G == 0
        if all(0 in map(L.__and__, outside) for L in link):
            deletion_vd, deletion_km = _coneless_vd(strip_apex(kept))
            if deletion_vd:
                link_vd, link_km = _coneless_vd(strip_apex(link))
                if link_vd:
                    return True, v == vertices & -vertices and deletion_km and link_km
    return False, False


def km_vertex_decomposable(delta: SimplicialComplex) -> DecompositionTrace:
    """Fixed-order vertex decomposability.  A failure path steps at the
    greatest vertex into the link if it is not KM-vd, else into the
    deletion, until a complex is not pure."""
    facets = delta.facets
    if vd_facets(facets)[1]:
        return DecompositionTrace(True)
    path = []
    while is_pure_family(facets):
        vertices = union(facets)
        v = vertices & -vertices  # the greatest surviving vertex
        link = link_facets(facets, v)
        if vd_facets(link)[1]:
            branch, facets = "deletion", maximal_sets(F & ~v for F in facets)
        else:
            branch, facets = "link", link
        path.append((min(cells(v, delta.ambient_n)), branch))
    reason = "NotPure" if len(path) <= 1 else "RecursiveFailure"
    return DecompositionTrace(False, path[0][0] if path else None, reason, tuple(path))
