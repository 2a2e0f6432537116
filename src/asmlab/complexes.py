"""Stanley-Reisner complexes of ASMs and the vertex-decomposability search.

Complexes are stored by their facet lists, each facet a mask in the layout
of `ideals`: cell (i, j) is bit (i-1)*n + (n-j), and the lowest set bit of
a vertex set is its greatest vertex in the Knutson-Miller order.  Links and
deletions at a vertex v are `F & ~v`.

`analyze_asm` decides CM and KM-vd from Perm(A) with no complex (the
subword recursion and gluing, in `ideals`), so it builds Delta_A only for
the few ASMs that gluing leaves undecided: their facets, from the pipe
dreams of Perm(A) read at the lex indices perm_walk gives, with no ideal
and no record (`perm_facets`), then the vd search on them, and Reisner's
criterion (`homology`, with `link_facets` from here) for a complex that is
not vd.  So the package loads this module at that first undecided ASM, at
`asmlab analyze`'s trace of a KM-vd failure, or at an oracle's first use.
`perm_facets` alone builds an ASM's complex.  What no census reaches is in
`squarefree`: the complex of an ideal as a record, its Stanley-Reisner
ideal, links and deletions of faces and the KM-vd trace.
"""

from __future__ import annotations

from functools import lru_cache

from .ideals import MEMO_SIZE, bits, is_pure_family, lex_pipe_dreams, strip_apex, union


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
    it, costs a purity check, the strip and one lookup."""
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


