"""Cell sets of the n-by-n grid as bitmasks, the reduced pipe dreams of a
permutation, and the Stanley-Reisner complexes of ASMs with the
vertex-decomposability search.

A set of grid cells (a squarefree monomial, a prime, a face) is held as an
int bitmask: cell (i, j) is bit (i-1)*n + (n-j), row by row and right to
left within a row, so ascending bit order is the reading order of a pipe
dream and the lowest set bit is the greatest cell in the Knutson-Miller
order z_{1,n} > ... > z_{n,1}.  Divisibility is `a & ~b == 0`.
`mask(cells, n)` and `cells(m, n)` are the one codec between masks and
cells.  Complexes are stored by their facet lists, each facet a mask, and
the links and deletions at a vertex v are `F & ~v`.  The minimal primes of
an ASM's antidiagonal initial ideal are the reduced pipe dreams of the
permutations of Perm(A) (Knutson-Miller), those of distinct w disjoint;
`lex_pipe_dreams(n, k)` lists those of the k-th permutation of S_n in lex
order by ladder moves from k's digits, with no `Permutation`.

`analyze_asm` decides CM and KM-vd from Perm(A) with no complex (the
subword recursion and gluing, in `ideals`), so it builds Delta_A only for
the few ASMs that gluing leaves undecided: their facets, from the pipe
dreams of Perm(A) read at the lex indices perm_walk gives, with no ideal
and no record (`perm_facets`), then the vd search on them, and Reisner's
criterion (`homology`, with `link_facets` and the set-family helpers from
here) for a complex that is not vd.  So the package loads this module at
that first undecided ASM, at `asmlab analyze`'s trace of a KM-vd failure,
or at the first use of the codec or of a module that reads it
(`squarefree`, `homology`, `sweeps`).  `perm_facets` alone builds an ASM's
complex.  What no census reaches is in `squarefree`: the complex of an
ideal as a record, its Stanley-Reisner ideal, links and deletions of faces
and the KM-vd trace.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import factorial
from operator import and_, or_

from .enumeration import Cell
from .ideals import MEMO_SIZE


def mask(cell_set, n: int) -> int:
    """The bitmask of a set of cells of the n x n grid."""
    return sum(1 << ((i - 1) * n + n - j) for (i, j) in set(cell_set))


def cells(m: int, n: int) -> frozenset[Cell]:
    """The cells of a bitmask of the n x n grid."""
    return frozenset((b // n + 1, n - b % n) for b in range(m.bit_length()) if m >> b & 1)


def bits(m: int):
    """The single-bit masks of m, lowest first."""
    while m:
        low = m & -m
        yield low
        m ^= low


def submasks(m: int):
    """Every submask of m, from m itself down to 0."""
    s = m
    while s:
        yield s
        s = (s - 1) & m
    yield 0


def union(masks) -> int:
    return reduce(or_, masks, 0)


def strip_apex(family) -> frozenset:
    """A collection of masks with the bits common to all of them removed:
    for the facets of a cone Delta = v * Gamma, the facets of Gamma."""
    common = reduce(and_, family, -1)
    return frozenset(F & ~common for F in family) if common else frozenset(family)


# -- the set-family kernel's maximal sets and purity, which the complexes and
# homology share; minimal sets and minimal transversals are in squarefree.


def maximal_sets(sets) -> frozenset:
    """The inclusion-maximal members of a family of masks."""
    outside: list[int] = []  # the complements ~k of the kept members k
    for s in sorted(set(sets), key=int.bit_count, reverse=True):
        if 0 not in map(s.__and__, outside):  # s lies in no kept member
            outside.append(~s)
    return frozenset(~k for k in outside)


def is_pure_family(sets) -> bool:
    """Whether all members have one size, i.e. a facet list is pure."""
    return len({s.bit_count() for s in sets}) <= 1


@lru_cache(maxsize=factorial(7))
def lex_pipe_dreams(n: int, k: int) -> frozenset[int]:
    """The reduced pipe dreams, as masks, of the k-th permutation w of S_n
    in lex order: the minimal primes of init(I_w), found with no ideal
    (Bergeron-Billey).  They are the closure of the bottom pipe dream, whose
    row i is the cells (i, 1..c_i) for the Lehmer code c of w, the
    factorial-base digits of k, under ladder moves: a cross at (i, j) with
    (i, j+1) empty moves to (i-m, j+1) when rows i-1 .. i-m+1 have crosses
    at both j and j+1 and row i-m has neither.  In the mask layout (i, j+1)
    is one bit below (i, j) and (i-1, j) is n bits below; every cross lies
    in the staircase i + j <= n, so j + 1 <= n throughout."""
    bottom = 0
    for i in range(n):
        c, k = divmod(k, factorial(n - 1 - i))
        bottom |= ((1 << c) - 1) << (i * n + n - c)
    seen, todo = {bottom}, [bottom]
    while todo:
        D = todo.pop()
        for x in bits(D >> n << n):  # the crosses below row 1
            if D & x >> 1:
                continue
            up = x >> n
            while up and D & up and D & up >> 1:
                up >>= n
            if up and not D & (up | up >> 1):
                E = D ^ x | up >> 1
                if E not in seen:
                    seen.add(E)
                    todo.append(E)
    return frozenset(seen)


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


