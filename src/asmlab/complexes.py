"""Stanley-Reisner complexes of ASMs and the vertex-decomposability search.

Complexes are stored by their facet lists, each facet a mask in the layout
of `ideals`: cell (i, j) is bit (i-1)*n + (n-j), and the lowest set bit of
a vertex set is its greatest vertex in the Knutson-Miller order.  Links and
deletions at a vertex v are `F & ~v`.  Degree-1 generators of the ideal are
tracked as excluded vertices and grid cells outside the support as cone
points, so the complex itself lives on a small active universe.  The
facets of an ASM's complex are built from the pipe dreams of Perm(A), read
at the lex indices perm_walk gives, with no ideal and no record
(`perm_facets`), and their vd answers are memoized by those indices
(`perm_vd`); `asm_complex(A)` hands the same pipe dreams to
`complex_from_primes` for the record that the KM-vd trace reads.  The
complex of an ideal, its Stanley-Reisner ideal, links and deletions of
faces and the KM-vd failure trace, which no census reads, are in
`squarefree`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_
from typing import NamedTuple

from .asm import Asm
from .ideals import bits, is_pure_family, lex_pipe_dreams, perm_walk, strip_apex, union

MEMO_SIZE = 10**6  # the bound of each memo here and in homology, keyed by facets or Perm(A)


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


def asm_complex(A: Asm) -> SimplicialComplex:
    """Delta_A as a record: complex_from_primes over the pipe dreams of
    Perm(A), read at perm_walk's lex indices, with no ideal."""
    dreams = [D for k in perm_walk(A)[0] for D in lex_pipe_dreams(A.n, k)]
    return complex_from_primes(A.n, dreams)


# link_facets takes an antichain and returns one, so it need not maximalize:
# a complex's facets are one, and so is every family Reisner's criterion and
# the KM-vd failure walk recurse on, being pure.  A deletion, sigma cut from
# every facet, is maximalized (squarefree.face_subcomplex, maximal_sets).


def link_facets(facets, sigma: int) -> frozenset:
    """The facets of the link of sigma.  Facets through sigma that do not
    nest still do not once sigma is removed."""
    return frozenset(F & ~sigma for F in facets if not sigma & ~F)


def vd_facets(facets: frozenset) -> tuple[bool, bool]:
    """(vd, km_vd): vertex decomposable in some order, which implies CM over
    every field (Provan-Billera), and in the fixed Knutson-Miller order.  The
    search tries the vertices greatest first, deletion before link, so km_vd
    holds exactly when its first try succeeds with both children km_vd.

    Purity is checked here, on the family as given, and nowhere below: the
    links of a pure complex are pure, and so is every deletion the search
    enters.  The memo is _coneless_vd's, keyed on the family with its cone
    points stripped, so every complex asked about again, and every cone over
    it, costs a purity check, the strip and one lookup; an ASM's answers are
    memoized by Perm(A) instead (perm_vd)."""
    if not is_pure_family(facets):
        return False, False
    return _coneless_vd(strip_apex(facets))


@lru_cache(maxsize=MEMO_SIZE)
def perm_vd(n: int, *indices: int) -> tuple[bool, bool]:
    """vd_facets of Delta_A for Perm(A) given by its lex indices in S_n,
    memoized by n and the indices, so an ASM asked about again builds no
    complex.  A vd certificate holds over every field, so every field shares
    the answer.  The indices are separate arguments, so the memo's key is
    the one tuple (n, *indices)."""
    return vd_facets(perm_facets(n, indices))


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
    skipped unbuilt.  A kept facet is one larger than F ^ v, so F ^ v lies
    in one exactly when (F ^ v) | u is a facet for some vertex u other than
    v: u = v gives F, and u in F gives F ^ v, not a facet."""
    if len(facets) <= 1:
        return True, True
    vertices = list(bits(union(facets)))
    for v in vertices:
        kept, link = [], []
        for F in facets:
            if F & v:
                link.append(F ^ v)
            else:
                kept.append(F)
        others = [u for u in vertices if u != v]
        if all(not facets.isdisjoint(map(L.__or__, others)) for L in link):
            deletion_vd, deletion_km = _coneless_vd(strip_apex(kept))
            if deletion_vd:
                link_vd, link_km = _coneless_vd(strip_apex(link))
                if link_vd:
                    # one of two constant tuples, which the memo's entries share
                    km = v == vertices[0] and deletion_km and link_km
                    return (True, True) if km else (True, False)
    return False, False


