"""Stanley-Reisner complexes of squarefree ideals and the fixed-order
vertex-decomposability test.

Complexes are stored by their facet lists, each facet a mask in the layout
of `ideals`: cell (i, j) is bit (i-1)*n + (n-j), and the lowest set bit of
a vertex set is its greatest vertex in the Knutson-Miller order.  Links and
deletions at a vertex v are `F & ~v`.  Degree-1 generators of the ideal are
tracked as excluded vertices and grid cells outside the support as cone
points, so the complex itself lives on a small active universe.  Cells come
back only through the codec, in the JSON and in a failure trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .asm import Cell
from .errors import NotAFaceError
from .ideals import (
    SquarefreeIdeal,
    bits,
    cell_label,
    cells,
    is_pure_family,
    maximal_sets,
    minimal_primes,
    minimal_transversals,
    union,
)

MEMO_SIZE = 10**6  # the bound of every facet-keyed memo, here and in homology


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet-list complex over a subset of the n x n grid, vertex sets as masks."""

    ambient_n: int
    vertex_universe: int
    facets: frozenset  # frozenset[int]
    cone_points: int
    excluded_vertices: int

    def dim(self) -> int:
        return max(F.bit_count() for F in self.facets) - 1

    def to_json_dict(self) -> dict:
        n = self.ambient_n
        facets = sorted(tuple(sorted(cells(F, n))) for F in self.facets)
        facets.sort(key=len)
        return {
            "vertices": [cell_label(c) for c in sorted(cells(self.vertex_universe, n))],
            "facets": [[cell_label(c) for c in F] for F in facets],
        }


def sr_complex_from_ideal(I: SquarefreeIdeal, primes=None) -> SimplicialComplex:
    """Facets are the universe-complements of the minimal primes: `primes`
    when the caller already has minimal_primes(I), else computed here."""
    if I.is_unit:
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    support = I.support()
    excluded = union(g for g in I.gens if g.bit_count() == 1)
    universe = support & ~excluded
    if primes is None:
        primes = minimal_primes(I)
    return SimplicialComplex(
        ambient_n=I.n,
        vertex_universe=universe,
        facets=frozenset(universe & ~P for P in primes),
        cone_points=((1 << I.n * I.n) - 1) & ~support,
        excluded_vertices=excluded,
    )


def stanley_reisner_ideal(delta: SimplicialComplex) -> SquarefreeIdeal:
    """Minimal non-faces within the vertex universe, as minimal transversals
    of the facet complements."""
    return SquarefreeIdeal(
        delta.ambient_n,
        minimal_transversals(delta.vertex_universe & ~F for F in delta.facets),
    )


def full_grid_ideal(delta: SimplicialComplex) -> SquarefreeIdeal:
    """Stanley-Reisner ideal re-expanded over the grid: excluded vertices
    come back as single-variable generators."""
    I = stanley_reisner_ideal(delta)
    return SquarefreeIdeal.make(
        delta.ambient_n, set(I.gens) | set(bits(delta.excluded_vertices))
    )


def is_face(delta: SimplicialComplex, sigma: int) -> bool:
    return any(not sigma & ~F for F in delta.facets)


def link_facets(facets, sigma: int) -> frozenset:
    return maximal_sets(F & ~sigma for F in facets if not sigma & ~F)


def deletion_facets(facets, sigma: int) -> frozenset:
    return maximal_sets(F & ~sigma for F in facets)


def face_subcomplex(delta: SimplicialComplex, sigma: int, kind: str) -> SimplicialComplex:
    """Link or deletion at a face, in facet-list form."""
    if not is_face(delta, sigma):
        raise NotAFaceError(f"{sorted(cells(sigma, delta.ambient_n))} is not a face")
    facets_at = {"link": link_facets, "deletion": deletion_facets}.get(kind)
    if facets_at is None:
        raise ValueError(f"kind must be 'link' or 'deletion', got {kind!r}")
    return SimplicialComplex(
        ambient_n=delta.ambient_n,
        vertex_universe=delta.vertex_universe & ~sigma,
        facets=facets_at(delta.facets, sigma),
        cone_points=delta.cone_points,
        excluded_vertices=delta.excluded_vertices,
    )


def is_pure(delta: SimplicialComplex) -> bool:
    return is_pure_family(delta.facets)


@dataclass(frozen=True)
class DecompositionTrace:
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
def _km_vd_facets(facets: frozenset) -> tuple:
    """(result, failure reason, path) of the fixed-order test, the path's
    vertices as single-bit masks."""
    if not is_pure_family(facets):
        return False, "NotPure", ()
    vertices = union(facets)
    if not vertices:
        return True, None, ()
    v = vertices & -vertices  # the greatest surviving vertex
    for branch, facets_at in (("link", link_facets), ("deletion", deletion_facets)):
        result, reason, path = _km_vd_facets(facets_at(facets, v))
        if not result:
            if reason != "NotPure" or path:
                reason = "RecursiveFailure"
            return False, reason, ((v, branch),) + path
    return True, None, ()


def km_vertex_decomposable(delta: SimplicialComplex) -> DecompositionTrace:
    """Vertex decomposability along the fixed grid order, always splitting
    at the greatest surviving vertex; failure carries the branch path."""
    result, reason, path = _km_vd_facets(delta.facets)
    steps = tuple((min(cells(v, delta.ambient_n)), branch) for v, branch in path)
    return DecompositionTrace(result, steps[0][0] if steps else None, reason, steps)


@lru_cache(maxsize=MEMO_SIZE)
def vd_facets(facets: frozenset) -> bool:
    """Vertex decomposability in any vertex order: pure, and a simplex, or
    some vertex has a vertex decomposable deletion and link.  It implies
    shellability, so Cohen-Macaulayness over every field (Provan-Billera)."""
    if not is_pure_family(facets):
        return False
    return len(facets) <= 1 or any(
        vd_facets(deletion_facets(facets, v)) and vd_facets(link_facets(facets, v))
        for v in bits(union(facets))
    )
