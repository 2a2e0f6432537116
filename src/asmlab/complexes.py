"""Stanley-Reisner complexes of ASMs and the vertex-decomposability search.

Complexes are stored by their facet lists, each facet a mask in the layout
of `ideals`: cell (i, j) is bit (i-1)*n + (n-j), and the lowest set bit of
a vertex set is its greatest vertex in the Knutson-Miller order.  Links and
deletions at a vertex v are `F & ~v`.  Degree-1 generators of the ideal are
tracked as excluded vertices and grid cells outside the support as cone
points, so the complex itself lives on a small active universe.  The
facets of an ASM's complex are built from the pipe dreams of Perm(A), read
at the lex indices perm_walk gives, with no ideal and no record
(`perm_facets`); `asm_complex` wraps them in a record for the KM-vd trace.
The complex of an ideal, its Stanley-Reisner ideal, links and deletions of
faces and the KM-vd failure trace, which no census reads, are in
`squarefree`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_
from typing import NamedTuple

from .ideals import (
    PermSet,
    bits,
    is_pure_family,
    lex_pipe_dreams,
    lex_rank,
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


def complex_from_primes(n: int, primes) -> SimplicialComplex:
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


def perm_facets(n: int, indices) -> frozenset:
    """The facets of Delta_A, the Stanley-Reisner complex of init(I_A), for
    Perm(A) as lex indices in S_n (perm_walk's): its minimal primes are the
    reduced pipe dreams of the permutations of Perm(A), with no ideal.  The
    cells in every pipe dream are degree-1 generators and those in none
    cone points, both outside the vertex universe, so a facet is the
    complement of a pipe dream in the union of the pipe dreams: the cells
    in every one are in none of the complements."""
    dreams = []
    for k in indices:
        dreams += lex_pipe_dreams(n, k)
    support = union(dreams)
    return frozenset([support & ~D for D in dreams])


def asm_complex(ps: PermSet) -> SimplicialComplex:
    """The complex of perm_facets as a record, where ps = perm_set(A).  Its
    facets cover the vertex universe, and a pipe dream's cells outside the
    universe are the cells in every pipe dream: the excluded vertices."""
    n = next(iter(ps.perms)).n
    indices = [lex_rank(w.one_line) for w in ps.perms]
    facets = perm_facets(n, indices)
    universe = union(facets)
    excluded = next(iter(lex_pipe_dreams(n, indices[0]))) & ~universe
    return SimplicialComplex(
        ambient_n=n,
        vertex_universe=universe,
        facets=facets,
        cone_points=((1 << n * n) - 1) & ~(universe | excluded),
        excluded_vertices=excluded,
    )


# link_facets takes an antichain and returns one, so it need not maximalize:
# a complex's facets are one, and so is every family Reisner's criterion and
# the KM-vd failure walk recurse on, being pure.  A deletion, sigma cut from
# every facet, is maximalized (squarefree.face_subcomplex, maximal_sets).


def link_facets(facets, sigma: int) -> frozenset:
    """The facets of the link of sigma.  Facets through sigma that do not
    nest still do not once sigma is removed."""
    return frozenset(F & ~sigma for F in facets if not sigma & ~F)


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


