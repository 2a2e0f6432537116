"""Squarefree monomial ideals over the n-by-n variable grid, and the
Stanley-Reisner correspondence between them and complexes.

Monomials, primes and faces are masks in the layout of `complexes`.  The
antidiagonal initial ideal of an ASM is generated by the antidiagonal lead
terms of its Fulton generators, which form a Groebner basis under any
antidiagonal term order; its minimal primes are the minimal transversals
of the generators (Berge's algorithm), and the Stanley-Reisner ideal of a
complex those of its facet complements.  The module also holds the Y/O
construction of two minimal primes of distinct heights at a badblock, the
Stanley-Reisner complex of an ideal as a record, the links and deletions
of a face, and the KM-vd failure trace, which runs on a facet list.

A census never reads any of it: `analyze_asm` takes Perm(A) and its CM
and KM-vd answers from `ideals`, and the facets of an ASM's complex, when
it needs them, from `complexes`, with no ideal and no record, and
`asmlab analyze` traces a KM-vd failure on those same facets.  So
`import asmlab` loads this module only when one of its names is first
used: by the theorem sweeps, the oracles and `asmlab analyze`.

The line between this module, `complexes` and `homology` is how far a
census reaches, not the topic: `complexes` holds what an ASM whose CM
answer gluing leaves undecided runs, `homology` what only such a complex
that is not vertex decomposable reaches, and this module what none does.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from operator import and_
from typing import NamedTuple

from .asm import Permutation, rank_matrix
from .combinatorics import badblock_at, dominant_part, essential_set
from .complexes import (
    bits,
    cells,
    is_pure_family,
    link_facets,
    mask,
    maximal_sets,
    union,
    vd_facets,
)
from .enumeration import Asm, Cell
from .errors import (
    NonReducedWordError,
    NotAFaceError,
    NotBadblockError,
    SizeMismatchError,
    SupportViolationError,
)


def cell_label(cell: Cell) -> str:
    return f"z_{cell[0]}_{cell[1]}"


# -- the set-family kernel's minimal sets and minimal transversals: minimal
# primes are the minimal transversals of the generators, and the
# Stanley-Reisner ideal those of the facet complements.


def minimal_sets(sets) -> frozenset:
    """The inclusion-minimal members of a family of masks."""
    kept: list[int] = []
    for s in sorted(set(sets), key=int.bit_count):
        if 0 not in map((~s).__and__, kept):  # no kept k has k & ~s == 0
            kept.append(s)
    return frozenset(kept)


def minimal_transversals(family) -> frozenset:
    """Inclusion-minimal masks meeting every member of the family.

    Berge's algorithm folds the members in, smallest first.  A cover c that
    misses the member g grows into c | v for each v in g; a kept cover h
    meeting g lies inside c | v exactly when h & ~c == v, so only those are
    compared and no round is re-minimalized.  The empty family has the
    single transversal 0; a family containing 0 has none.
    """
    covers = [0]
    for g in sorted(set(family), key=int.bit_count):
        hit, missed = [], []
        for c in covers:
            (hit if c & g else missed).append(c)
        covers = hit
        for c in missed:
            free = g
            for d in map((~c).__and__, hit):
                if not d & (d - 1):  # d is one vertex of g, and h lies in c | d
                    free &= ~d
            covers += [c | v for v in bits(free)]
    return frozenset(covers)


class SquarefreeIdeal(NamedTuple):
    """A squarefree monomial ideal with a minimal generating set of masks."""

    n: int
    gens: frozenset  # frozenset[int]

    @classmethod
    def make(cls, n: int, monomials) -> "SquarefreeIdeal":
        return cls(n, minimal_sets(monomials))

    @property
    def is_unit(self) -> bool:
        return 0 in self.gens

    def support(self) -> int:
        return union(self.gens)

    def sorted_gens(self) -> list[tuple[Cell, ...]]:
        return sorted(tuple(sorted(cells(g, self.n))) for g in self.gens)

    def to_json_list(self) -> list[list[str]]:
        return [[cell_label(c) for c in g] for g in self.sorted_gens()]


@lru_cache(maxsize=4096)
def _antidiagonal_masks(n: int, i: int, j: int, k: int) -> tuple[int, ...]:
    """The antidiagonals of all k-minors northwest of (i, j), as masks."""
    row_bits = [[(r - 1) * n for r in rows] for rows in combinations(range(1, i + 1), k)]
    col_bits = [[n - c for c in cols[::-1]] for cols in combinations(range(1, j + 1), k)]
    return tuple(sum(1 << (r + c) for r, c in zip(rs, cs)) for rs in row_bits for cs in col_bits)


def _rank_condition_ideal(A: Asm, where) -> SquarefreeIdeal:
    """The antidiagonals of the (rk+1)-minors northwest of the cells `where`."""
    n, ranks = A.n, rank_matrix(A)
    return SquarefreeIdeal.make(
        n, (g for (i, j) in where for g in _antidiagonal_masks(n, i, j, ranks[i - 1][j - 1] + 1))
    )


@lru_cache(maxsize=2**10)  # per ASM, as rank_matrix
def init_ideal(A: Asm) -> SquarefreeIdeal:
    """Antidiagonal initial ideal from the Fulton generators, which live at
    the essential set."""
    return _rank_condition_ideal(A, essential_set(A))


def natural_init_ideal(A: Asm) -> SquarefreeIdeal:
    """Same ideal built from the rank conditions at every grid cell (oracle)."""
    grid = range(1, A.n + 1)
    return _rank_condition_ideal(A, ((i, j) for i in grid for j in grid))


def _check_same_grid(I: SquarefreeIdeal, J: SquarefreeIdeal) -> None:
    if I.n != J.n:
        raise SizeMismatchError(f"grid sides differ: {I.n} vs {J.n}")


def ideal_intersection(I: SquarefreeIdeal, J: SquarefreeIdeal) -> SquarefreeIdeal:
    """Generated by pairwise lcms, i.e. support unions."""
    _check_same_grid(I, J)
    return SquarefreeIdeal.make(I.n, (g | h for g in I.gens for h in J.gens))


def ideal_colon(I: SquarefreeIdeal, m: int) -> SquarefreeIdeal:
    """Colon by a squarefree monomial: strip m from each generator."""
    return SquarefreeIdeal.make(I.n, (g & ~m for g in I.gens))


def minimal_primes(I: SquarefreeIdeal) -> frozenset[int]:
    """Minimal primes as minimal vertex covers of the generator supports.

    The zero ideal yields the single prime generated by nothing.
    """
    return minimal_transversals(I.gens)


def minimal_primes_bruteforce(I: SquarefreeIdeal) -> frozenset[int]:
    """Subset-enumeration oracle; only usable for small supports."""
    support = list(bits(I.support()))
    covers = []
    for k in range(len(support) + 1):
        for subset in combinations(support, k):
            s = sum(subset)
            if any(not c & ~s for c in covers):
                continue
            if all(g & s for g in I.gens):
                covers.append(s)
    return frozenset(covers)


def is_minimal_prime(I: SquarefreeIdeal, S: int) -> bool:
    """Cover + uniqueness criterion: every generator meets S, and every
    element of S is the unique S-element of some generator's support."""
    if S & ~I.support():
        raise SupportViolationError("S is not contained in the support of I")
    if not all(g & S for g in I.gens):
        return False
    return all(any(g & S == x for g in I.gens) for x in bits(S))


def perm_from_prime(S: int, n: int) -> Permutation:
    """Read a minimal prime as a reduced pipe dream; an oracle for
    pipe_dreams and perm_set.

    Cell (i,j) maps to the simple reflection s_{i+j-1}; cells are read in
    ascending bit order (row by row, right-to-left within each row), and
    the word is multiplied left-to-right acting on positions.
    """
    line = list(range(1, n + 1))
    for v in bits(S):
        b = v.bit_length() - 1
        k = n + b // n - b % n  # i + j - 1 for the cell (i, j) of bit b
        if k >= n:
            raise NonReducedWordError(f"letter s_{k} outside S_{n}")
        if line[k - 1] > line[k]:
            raise NonReducedWordError("word from cells is not reduced")
        line[k - 1], line[k] = line[k], line[k - 1]
    return Permutation(tuple(line))


# -- the two-prime construction for badblock ASMs ----------------------------


def yo_induction_states(A: Asm, r: int):
    """Yield ((i,j), Y, O) states of the southwest/northeast prime growth,
    with Y and O as masks.

    The base state at (r, n) seeds Y with the row-major-largest cell of
    each generator living in the first r rows and O with the smallest.
    Generators are then revealed along the row-major staircase: the ones
    first seen at (i,j) are exactly those whose largest cell is (i,j), and
    (i,j) joins a prime whenever such a generator escapes it.  Cells are
    compared as pairs here, so the generators are read as cells.
    """
    n = A.n
    gens = [cells(g, n) for g in init_ideal(A).gens if g.bit_count() >= 2]
    base = [g for g in gens if max(g) <= (r, n)]
    Y = {max(g) for g in base}
    O = {min(g) for g in base}
    yield (r, n), mask(Y, n), mask(O, n)
    for i in range(r + 1, n + 1):
        for j in range(1, n + 1):
            fresh = [g for g in gens if max(g) == (i, j)]
            if any(not (g & Y) for g in fresh):
                Y.add((i, j))
            if any(not (g & O) for g in fresh):
                O.add((i, j))
            yield (i, j), mask(Y, n), mask(O, n)


def construct_yo_primes(A: Asm, r: int, c: int) -> tuple[int, int]:
    """Two minimal primes of distinct heights certifying non-equidimensionality."""
    if not badblock_at(A, r, c):
        raise NotBadblockError(f"({r},{c}) is not an obstruction block of A")
    state = None
    for state in yo_induction_states(A, r):
        pass
    _, Y, O = state
    dom = mask(dominant_part(A), A.n)
    return Y | dom, O | dom


# -- Stanley-Reisner complexes and ideals, faces, and the KM-vd trace ---------


class SimplicialComplex(NamedTuple):
    """Facet-list complex over a subset of the n x n grid, vertex sets as masks."""

    ambient_n: int
    vertex_universe: int
    facets: frozenset  # frozenset[int]
    cone_points: int
    excluded_vertices: int

    def dim(self) -> int:
        return max(F.bit_count() for F in self.facets) - 1


def sr_complex_from_ideal(I: SquarefreeIdeal) -> SimplicialComplex:
    """The Stanley-Reisner complex of a squarefree ideal: its facets are the
    universe-complements of the minimal primes.  The cells in every prime
    are the degree-1 generators, excluded from the universe, and the cells
    in none lie outside the support: the cone points."""
    if I.is_unit:
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    primes = minimal_primes(I)
    support, excluded = union(primes), reduce(and_, primes)
    universe = support & ~excluded
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


def is_face(delta: SimplicialComplex, sigma: int) -> bool:
    return any(not sigma & ~F for F in delta.facets)


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


def km_vertex_decomposable(facets, n: int) -> DecompositionTrace:
    """Fixed-order vertex decomposability of the complex with these facets
    on the n x n grid.  A failure path steps at the greatest vertex into
    the link if it is not KM-vd, else into the deletion, until a complex is
    not pure."""
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
        path.append((min(cells(v, n)), branch))
    reason = "NotPure" if len(path) <= 1 else "RecursiveFailure"
    return DecompositionTrace(False, path[0][0] if path else None, reason, tuple(path))
