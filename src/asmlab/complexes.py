"""Stanley-Reisner complexes of squarefree ideals and the fixed-order
vertex-decomposability test.

Complexes are stored by their facet lists.  Degree-1 generators of the
ideal are tracked as excluded vertices and grid cells outside the support
as cone points, so the complex itself lives on a small active universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .asm import Cell
from .errors import NotAFaceError
from .ideals import (
    SquarefreeIdeal,
    cell_label,
    is_pure_family,
    maximal_sets,
    minimal_primes,
    minimal_transversals,
)

MEMO_SIZE = 10**6  # the bound of every facet-keyed memo, here and in homology


def km_order_key(cell: Cell):
    """Sort key for the fixed vertex order z_{1,n} > ... > z_{n,1}: smaller
    row first, then larger column."""
    i, j = cell
    return (-i, j)


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet-list complex over a subset of the n x n grid."""

    ambient_n: int
    vertex_universe: frozenset  # frozenset[Cell]
    facets: frozenset  # frozenset[frozenset[Cell]]
    cone_points: frozenset
    excluded_vertices: frozenset

    def dim(self) -> int:
        return max(len(F) for F in self.facets) - 1

    def vertices(self) -> frozenset:
        return frozenset().union(*self.facets) if self.facets else frozenset()

    def to_json_dict(self) -> dict:
        return {
            "vertices": [cell_label(c) for c in sorted(self.vertex_universe)],
            "facets": [
                [cell_label(c) for c in F]
                for F in sorted(
                    (tuple(sorted(F)) for F in self.facets), key=lambda f: (len(f), f)
                )
            ],
        }


def sr_complex_from_ideal(I: SquarefreeIdeal, primes=None) -> SimplicialComplex:
    """Facets are the universe-complements of the minimal primes: `primes`
    when the caller already has minimal_primes(I), else computed here."""
    if I.is_unit:
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    support = I.support()
    excluded = frozenset(next(iter(g)) for g in I.gens if len(g) == 1)
    universe = support - excluded
    grid = frozenset(
        (i, j) for i in range(1, I.n + 1) for j in range(1, I.n + 1)
    )
    if primes is None:
        primes = minimal_primes(I)
    facets = frozenset(universe - P for P in primes)
    return SimplicialComplex(
        ambient_n=I.n,
        vertex_universe=universe,
        facets=facets,
        cone_points=grid - support,
        excluded_vertices=excluded,
    )


def stanley_reisner_ideal(delta: SimplicialComplex) -> SquarefreeIdeal:
    """Minimal non-faces within the vertex universe, as minimal transversals
    of the facet complements."""
    return SquarefreeIdeal(
        delta.ambient_n,
        minimal_transversals(delta.vertex_universe - F for F in delta.facets),
    )


def full_grid_ideal(delta: SimplicialComplex) -> SquarefreeIdeal:
    """Stanley-Reisner ideal re-expanded over the grid: excluded vertices
    come back as single-variable generators."""
    I = stanley_reisner_ideal(delta)
    return SquarefreeIdeal.make(
        delta.ambient_n,
        set(I.gens) | {frozenset([v]) for v in delta.excluded_vertices},
    )


def is_face(delta: SimplicialComplex, sigma: frozenset) -> bool:
    return any(sigma <= F for F in delta.facets)


def link_facets(facets, sigma: frozenset) -> frozenset:
    return maximal_sets(F - sigma for F in facets if sigma <= F)


def deletion_facets(facets, sigma: frozenset) -> frozenset:
    return maximal_sets(F - sigma for F in facets)


def face_subcomplex(
    delta: SimplicialComplex, sigma: frozenset, kind: str
) -> SimplicialComplex:
    """Link or deletion at a face, in facet-list form."""
    sigma = frozenset(sigma)
    if not is_face(delta, sigma):
        raise NotAFaceError(f"{sorted(sigma)} is not a face")
    if kind == "link":
        facets = link_facets(delta.facets, sigma)
    elif kind == "deletion":
        facets = deletion_facets(delta.facets, sigma)
    else:
        raise ValueError(f"kind must be 'link' or 'deletion', got {kind!r}")
    return SimplicialComplex(
        ambient_n=delta.ambient_n,
        vertex_universe=delta.vertex_universe - sigma,
        facets=facets,
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
            d["failure_vertex"] = (
                list(self.failure_vertex) if self.failure_vertex else None
            )
            d["failure_reason"] = self.failure_reason
            d["path"] = [[list(v), branch] for v, branch in self.path]
        return d


@lru_cache(maxsize=MEMO_SIZE)
def _km_vd_facets(facets: frozenset) -> DecompositionTrace:
    if not is_pure_family(facets):
        return DecompositionTrace(False, None, "NotPure")
    vertices = frozenset().union(*facets) if facets else frozenset()
    if not vertices:
        return DecompositionTrace(True)
    v = max(vertices, key=km_order_key)
    for branch, sub in (
        ("link", link_facets(facets, frozenset([v]))),
        ("deletion", deletion_facets(facets, frozenset([v]))),
    ):
        trace = _km_vd_facets(sub)
        if not trace.result:
            if trace.failure_reason == "NotPure" and not trace.path:
                return DecompositionTrace(False, v, "NotPure", ((v, branch),))
            return DecompositionTrace(
                False, v, "RecursiveFailure", ((v, branch),) + trace.path
            )
    return DecompositionTrace(True)


def km_vertex_decomposable(delta: SimplicialComplex) -> DecompositionTrace:
    """Vertex decomposability along the fixed grid order, always splitting
    at the greatest surviving vertex; failure carries the branch path."""
    return _km_vd_facets(delta.facets)


@lru_cache(maxsize=MEMO_SIZE)
def vd_facets(facets: frozenset) -> bool:
    """Vertex decomposability in any vertex order: pure, and a simplex, or
    some vertex has a vertex decomposable deletion and link.  It implies
    shellability, so Cohen-Macaulayness over every field (Provan-Billera)."""
    if not is_pure_family(facets):
        return False
    return len(facets) <= 1 or any(
        vd_facets(deletion_facets(facets, frozenset([v])))
        and vd_facets(link_facets(facets, frozenset([v])))
        for v in sorted(frozenset().union(*facets), key=km_order_key, reverse=True)
    )
