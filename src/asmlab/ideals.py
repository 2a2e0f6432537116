"""Squarefree monomial ideals over the n-by-n variable grid.

A squarefree monomial is identified with its support, a frozenset of grid
cells; divisibility is the subset test.  The antidiagonal initial ideal of
an ASM is generated by the antidiagonal lead terms of its Fulton
generators, which form a Groebner basis under any antidiagonal term order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .asm import (
    Asm,
    Cell,
    Permutation,
    badblock_at,
    dominant_part,
    essential_set,
    rank_matrix,
)
from .errors import (
    NonReducedWordError,
    NotBadblockError,
    SizeMismatchError,
    SupportViolationError,
)

Monomial = frozenset  # frozenset[Cell]; the empty set is the unit monomial


def cell_label(cell: Cell) -> str:
    return f"z_{cell[0]}_{cell[1]}"


def parse_cell_label(label: str) -> Cell:
    _, i, j = label.split("_")
    return (int(i), int(j))


def monomial_label(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(cell_label(c) for c in sorted(m))


# -- the set-family kernel: minimal primes are the minimal transversals of the
# generators, and the Stanley-Reisner ideal those of the facet complements.


def minimal_sets(sets) -> frozenset:
    """The inclusion-minimal members of a family of sets."""
    kept: list[frozenset] = []
    for s in sorted(set(sets), key=len):
        if not any(k <= s for k in kept):
            kept.append(s)
    return frozenset(kept)


def maximal_sets(sets) -> frozenset:
    """The inclusion-maximal members of a family of sets."""
    kept: list[frozenset] = []
    for s in sorted(set(sets), key=len, reverse=True):
        if not any(s <= k for k in kept):
            kept.append(s)
    return frozenset(kept)


def minimal_transversals(family) -> frozenset:
    """Inclusion-minimal sets meeting every member of the family.

    Folds the members smallest-first, distributing each over the partial
    transversals and re-minimalizing per round.  The empty family has the
    single transversal {}; a family containing {} has none.
    """
    covers = frozenset([frozenset()])
    for g in sorted(family, key=len):
        new: set[frozenset] = set()
        for cover in covers:
            if cover & g:
                new.add(cover)
            else:
                new.update(cover | {v} for v in g)
        covers = minimal_sets(new)
    return covers


def is_pure_family(sets) -> bool:
    """Whether all members have one size, i.e. a facet list is pure."""
    return len({len(s) for s in sets}) <= 1


@dataclass(frozen=True)
class SquarefreeIdeal:
    """A squarefree monomial ideal with a minimal generating set."""

    n: int
    gens: frozenset  # frozenset[Monomial]

    @classmethod
    def make(cls, n: int, monomials) -> "SquarefreeIdeal":
        return cls(n, minimal_sets(monomials))

    @classmethod
    def zero(cls, n: int) -> "SquarefreeIdeal":
        return cls(n, frozenset())

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return frozenset() in self.gens

    def support(self) -> frozenset[Cell]:
        return frozenset().union(*self.gens) if self.gens else frozenset()

    def contains_monomial(self, m: Monomial) -> bool:
        return any(g <= m for g in self.gens)

    def sorted_gens(self) -> list[tuple[Cell, ...]]:
        return sorted(tuple(sorted(g)) for g in self.gens)

    def to_json_list(self) -> list[list[str]]:
        return [[cell_label(c) for c in g] for g in self.sorted_gens()]


@dataclass(frozen=True)
class MinorSpec:
    """Row/column subsets of the generic matrix cutting out one Fulton minor."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def antidiagonal(self) -> Monomial:
        k = self.size
        return frozenset((self.rows[a], self.cols[k - 1 - a]) for a in range(k))


def fulton_minor_specs(A: Asm) -> list[MinorSpec]:
    """All (rk+1)-minors in the northwest submatrix at each essential cell."""
    ranks = rank_matrix(A)
    specs = []
    for (i, j) in sorted(essential_set(A)):
        k = ranks[i - 1][j - 1] + 1
        for rows in combinations(range(1, i + 1), k):
            for cols in combinations(range(1, j + 1), k):
                specs.append(MinorSpec(rows, cols))
    return specs


@lru_cache(maxsize=65536)
def init_ideal(A: Asm) -> SquarefreeIdeal:
    """Antidiagonal initial ideal from the Fulton generators, minimalized."""
    return SquarefreeIdeal.make(A.n, (s.antidiagonal() for s in fulton_minor_specs(A)))


def natural_init_ideal(A: Asm) -> SquarefreeIdeal:
    """Same ideal built from the rank conditions at every grid cell (oracle)."""
    ranks = rank_matrix(A)
    monomials = []
    for i in range(1, A.n + 1):
        for j in range(1, A.n + 1):
            k = ranks[i - 1][j - 1] + 1
            for rows in combinations(range(1, i + 1), k):
                for cols in combinations(range(1, j + 1), k):
                    monomials.append(MinorSpec(rows, cols).antidiagonal())
    return SquarefreeIdeal.make(A.n, monomials)


def _check_same_grid(I: SquarefreeIdeal, J: SquarefreeIdeal) -> None:
    if I.n != J.n:
        raise SizeMismatchError(f"grid sides differ: {I.n} vs {J.n}")


def ideal_sum(I: SquarefreeIdeal, J: SquarefreeIdeal) -> SquarefreeIdeal:
    _check_same_grid(I, J)
    return SquarefreeIdeal.make(I.n, I.gens | J.gens)


def ideal_intersection(I: SquarefreeIdeal, J: SquarefreeIdeal) -> SquarefreeIdeal:
    """Generated by pairwise lcms, i.e. support unions."""
    _check_same_grid(I, J)
    return SquarefreeIdeal.make(I.n, (g | h for g in I.gens for h in J.gens))


def ideal_colon(I: SquarefreeIdeal, m: Monomial) -> SquarefreeIdeal:
    """Colon by a squarefree monomial: strip m from each generator."""
    return SquarefreeIdeal.make(I.n, (g - m for g in I.gens))


def minimal_primes(I: SquarefreeIdeal) -> frozenset[frozenset]:
    """Minimal primes as minimal vertex covers of the generator supports.

    The zero ideal yields the single prime generated by nothing.
    """
    return minimal_transversals(I.gens)


def minimal_primes_bruteforce(I: SquarefreeIdeal) -> frozenset[frozenset]:
    """Subset-enumeration oracle; only usable for small supports."""
    support = sorted(I.support())
    covers = []
    for k in range(len(support) + 1):
        for subset in combinations(support, k):
            s = frozenset(subset)
            if any(c <= s for c in covers):
                continue
            if all(g & s for g in I.gens):
                covers.append(s)
    return frozenset(covers)


def is_minimal_prime(I: SquarefreeIdeal, S: frozenset) -> bool:
    """Cover + uniqueness criterion: every generator meets S, and every
    element of S is the unique S-element of some generator's support."""
    if not S <= I.support():
        raise SupportViolationError("S is not contained in the support of I")
    if not all(g & S for g in I.gens):
        return False
    return all(any(g & S == {x} for g in I.gens) for x in S)


def perm_from_prime(S: frozenset, n: int) -> Permutation:
    """Read a minimal prime as a reduced pipe dream.

    Cell (i,j) maps to the simple reflection s_{i+j-1}; cells are read row
    by row, right-to-left within each row, and the word is multiplied
    left-to-right acting on positions.
    """
    word = [i + j - 1 for (i, j) in sorted(S, key=lambda c: (c[0], -c[1]))]
    line = list(range(1, n + 1))
    for k in word:
        if k < 1 or k >= n:
            raise NonReducedWordError(f"letter s_{k} outside S_{n}")
        if line[k - 1] > line[k]:
            raise NonReducedWordError("word from cells is not reduced")
        line[k - 1], line[k] = line[k], line[k - 1]
    return Permutation(tuple(line))


@dataclass(frozen=True)
class PrimeAnalysis:
    perms: frozenset  # frozenset[Permutation]
    codim: int
    equidimensional: bool
    primes: frozenset  # the minimal primes it was read from


def perm_set_via_primes(A: Asm) -> PrimeAnalysis:
    """Perm(A), codimension, and equidimensionality read off the minimal
    primes of the antidiagonal initial ideal."""
    primes = minimal_primes(init_ideal(A))
    heights = {len(P) for P in primes}
    perms = frozenset(perm_from_prime(P, A.n) for P in primes)
    return PrimeAnalysis(perms, min(heights), len(heights) == 1, primes)


# -- the two-prime construction for badblock ASMs ----------------------------


def yo_induction_states(A: Asm, r: int, c: int):
    """Yield ((i,j), Y, O) states of the southwest/northeast prime growth.

    The base state at (r, n) seeds Y with the row-major-largest cell of
    each generator living in the first r rows and O with the smallest.
    Generators are then revealed along the row-major staircase: the ones
    first seen at (i,j) are exactly those whose largest cell is (i,j), and
    (i,j) joins a prime whenever such a generator escapes it.
    """
    n = A.n
    gens = [g for g in init_ideal(A).gens if len(g) >= 2]
    base = [g for g in gens if max(g) <= (r, n)]
    Y = {max(g) for g in base}
    O = {min(g) for g in base}
    yield (r, n), frozenset(Y), frozenset(O)
    cells = [
        (i, j)
        for i in range(r, n + 1)
        for j in range(1, n + 1)
        if (i, j) > (r, n)
    ]
    for (i, j) in cells:
        fresh = [g for g in gens if max(g) == (i, j)]
        if any(not (g & Y) for g in fresh):
            Y.add((i, j))
        if any(not (g & O) for g in fresh):
            O.add((i, j))
        yield (i, j), frozenset(Y), frozenset(O)


def construct_yo_primes(A: Asm, r: int, c: int) -> tuple[frozenset, frozenset]:
    """Two minimal primes of distinct heights certifying non-equidimensionality."""
    if not badblock_at(A, r, c, strict=False):
        raise NotBadblockError(f"({r},{c}) is not an obstruction block of A")
    state = None
    for state in yo_induction_states(A, r, c):
        pass
    _, Y, O = state
    dom = dominant_part(A)
    return frozenset(Y | dom), frozenset(O | dom)
