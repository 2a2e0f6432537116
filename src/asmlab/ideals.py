"""Squarefree monomial ideals over the n-by-n variable grid.

A squarefree monomial is identified with its support, a set of grid cells
held as an int bitmask: cell (i, j) is bit (i-1)*n + (n-j), row by row and
right to left within a row, so ascending bit order is the reading order of
a pipe dream and the lowest set bit is the greatest cell in the
Knutson-Miller order z_{1,n} > ... > z_{n,1}.  Divisibility is `a & ~b == 0`.
`mask(cells, n)` and `cells(m, n)` are the one codec between masks and
cells.  The antidiagonal initial ideal of an ASM is generated by the
antidiagonal lead terms of its Fulton generators, which form a Groebner
basis under any antidiagonal term order.  Its minimal primes are the
reduced pipe dreams of the permutations of Perm(A) (Knutson-Miller), those
of distinct w disjoint; `perm_set` finds Perm(A) from memoized bitsets of
S_n, and `pipe_dreams` lists the pipe dreams of one w by ladder moves, so
neither needs the ideal.  `init_ideal`, `minimal_primes` and the Berge
kernel serve the theorem sweeps and the oracles.
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce
from itertools import combinations
from math import factorial
from operator import and_, or_
from typing import NamedTuple

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
    SizeBoundExceededError,
    SizeMismatchError,
    SupportViolationError,
)


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


def cell_label(cell: Cell) -> str:
    return f"z_{cell[0]}_{cell[1]}"


# -- the set-family kernel: minimal primes are the minimal transversals of the
# generators, and the Stanley-Reisner ideal those of the facet complements.


def minimal_sets(sets) -> frozenset:
    """The inclusion-minimal members of a family of masks."""
    kept: list[int] = []
    for s in sorted(set(sets), key=int.bit_count):
        if 0 not in map((~s).__and__, kept):  # no kept k has k & ~s == 0
            kept.append(s)
    return frozenset(kept)


def maximal_sets(sets) -> frozenset:
    """The inclusion-maximal members of a family of masks."""
    outside: list[int] = []  # the complements ~k of the kept members k
    for s in sorted(set(sets), key=int.bit_count, reverse=True):
        if 0 not in map(s.__and__, outside):  # s lies in no kept member
            outside.append(~s)
    return frozenset(~k for k in outside)


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


def is_pure_family(sets) -> bool:
    """Whether all members have one size, i.e. a facet list is pure."""
    return len({s.bit_count() for s in sets}) <= 1


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


@lru_cache(maxsize=factorial(7))
def pipe_dreams(w: Permutation) -> frozenset[int]:
    """The reduced pipe dreams of w as masks: the minimal primes of
    init(I_w), found with no ideal (Bergeron-Billey).  They are the closure
    of the bottom pipe dream, whose row i is the cells (i, 1..c_i) for the
    Lehmer code c of w, under ladder moves: a cross at (i, j) with (i, j+1)
    empty moves to (i-m, j+1) when rows i-1 .. i-m+1 have crosses at both j
    and j+1 and row i-m has neither.  In the mask layout (i, j+1) is one bit
    below (i, j) and (i-1, j) is n bits below; every cross lies in the
    staircase i + j <= n, so j + 1 <= n throughout."""
    line, n = w.one_line, w.n
    bottom = 0
    for i, v in enumerate(line):
        c = sum(u < v for u in line[i + 1 :])
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


# -- Perm(A) from memoized row up-sets of S_n ---------------------------------
#
# Perm(A) is the set of Bruhat-minimal permutations w with r_w <= r_A
# entrywise, and on permutations the Bruhat order is exactly that entrywise
# comparison of rank matrices.  S_n is held in lexicographic order, the order
# itertools.permutations yields, and a set of permutations as an int whose
# bit k stands for the k-th of them.  Lex order extends the Bruhat order: if
# u < w, then at the first position k where they differ, r_u >= r_w on row k
# forces u(k) < w(k).  So the lowest permutation of a set is Bruhat-minimal
# in it.  Row i of r_A depends only on the set S of columns whose partial
# column sum through row i is 1, and |S| = i, so the permutations above A are
# the AND of one memoized up-set per row, keyed by (n, S).

# S_9 covers 1 + A for every streamable A.  A set of S_9 takes 48 KB, so
# its row up-sets take 25 MB; those of S_10 would take about 500 MB.
PERM_TABLE_BOUND = 9
# The most entries of the permutation tables (_lex_table) filled at once,
# counted over all n together; a fill that would pass it empties them all.
# S_n's table is filled whole at its first use when n! is at most this, so
# for n <= 7, and an entry at a time above.  An entry holds a permutation
# and the rest of S_n outside its up-set, n!/8 bytes: the tables of S_1 to
# S_7, 5913 entries, fit in 6 MB; at n=8 an entry is over 5 KB.
UPSET_MEMO_SIZE = 2**13


class PermSet(NamedTuple):
    """Perm(A), its least Coxeter length (the codimension), and whether all
    of its permutations have one length (equidimensionality)."""

    perms: frozenset  # frozenset[Permutation]
    codim: int
    equidimensional: bool

    @classmethod
    def from_walk(cls, n: int, indices, lengths) -> "PermSet":
        """The Perm(A) of perm_walk's lex indices in S_n and their lengths."""
        least = min(lengths)
        perms = frozenset(_lex_perm(n, k)[0] for k in indices)
        return cls(perms, least, least == max(lengths))


@cache  # keys: the proper column sets of each n <= PERM_TABLE_BOUND, 1013 in all
def _row_upset(n: int, S: int) -> int:
    """The permutations w of S_n that meet the rank condition of row |S| of
    any matrix whose columns with partial sum 1 through that row are S (bit
    j-1 for column j, S a proper subset of [n]): the first |S| values T of w
    have |T & [j]| <= |S & [j]| at every column j, i.e. T lies above S in
    the Gale order.  S = 0 gives all of S_n.  Block u of the lex order, the
    (n-1)! bits from (u-1) * (n-1)!, holds the w with w(1) = u, indexed in
    S_{n-1} by the rest of w with each value v relabelled v - (v > u).  T
    lies above S exactly when S has a column <= u and the rest of T lies
    above S less its largest such column, so the block is empty or the
    up-set in S_{n-1} of that set, relabelled the same way."""
    if n > PERM_TABLE_BOUND:
        raise SizeBoundExceededError(
            f"n={n} exceeds the permutation table bound {PERM_TABLE_BOUND}"
        )
    if not S:
        return (1 << factorial(n)) - 1
    block, up = factorial(n - 1), 0
    for u in range(1, n + 1):
        low = S & ((1 << u) - 1)
        if low:
            rest = S ^ 1 << (low.bit_length() - 1)
            sub = rest & ((1 << (u - 1)) - 1) | rest >> u << (u - 1)
            up |= _row_upset(n - 1, sub) << ((u - 1) * block)
    return up


@cache  # keys: the rows of ASMs of each n <= PERM_TABLE_BOUND, 511 in all
def _row_flips(row: tuple[int, ...]) -> int:
    """The columns whose partial sums a row flips: bit j-1 for each nonzero
    entry in column j."""
    return sum(1 << j for j, a in enumerate(row) if a)


# The rows 1..n-1 of the last ASM _above read, each as (row, its column
# set, the AND of the row up-sets through it).  The list is replaced, never
# changed in place, so a reader always sees one whole path.
_path: list[tuple[tuple[int, ...], int, int]] = []


def _above(A: Asm) -> int:
    """The permutations of S_n above A: the AND of the row up-sets of rows
    1..n-1, row n holding no condition.  The partial column sums of an ASM
    are 0 or 1, and a nonzero entry flips its column's.  The AND restarts
    after the longest row prefix A shares with the last ASM read, compared
    row by row, so it holds for ASMs read in any order and of any size (rows
    of different sizes never match); consecutive ASMs of the stream share
    all but one or two rows."""
    global _path
    rows, path = A.entries, _path
    n, k = len(rows), 0
    for entry, row in zip(path, rows):
        if entry[0] != row:
            break
        k += 1
    if k:
        _, S, up = path[k - 1]
    else:
        S, up = 0, _row_upset(n, 0)
    path = path[:k]
    for row in rows[k:-1]:
        S ^= _row_flips(row)
        up &= _row_upset(n, S)
        path.append((row, S, up))
    _path = path
    return up


@cache  # one list per n; cache_clear empties them all
def _lex_table(n: int) -> list:
    """The slots of S_n in lex order, each None or, once filled, the entry
    (w, its Coxeter length, keep) of the k-th permutation w: keep is the
    permutations of S_n outside w's up-set and other than w, those a walk
    may still find once w is found.  Bit k is cleared whatever the up-set
    holds, so a walk that ANDs keep in always removes the bit it read.
    keep is the complement of up | 1 << k within S_n, taken as an XOR with
    all of S_n, which holds up, so nonnegative: an AND with a negative int
    makes CPython build its two's complement first."""
    _row_upset(n, 0)  # raises SizeBoundExceededError before the list is made
    return [None] * factorial(n)


def _lex_upsets(n: int, k: int, m: int):
    """(w's one-line tuple, its Coxeter length, its Bruhat up-set) for each
    permutation w of S_n sharing the first n - m values of the k-th, in lex
    order.  The factorial-base digits of k are the Lehmer code of the k-th
    permutation, so they sum to its length; the columns with partial sum 1
    through row i of w's matrix are w(1), ..., w(i), and the up-set is the
    AND of the row up-sets of rows 1..n-1.  The prefix tree below the first
    n - m values is grown a level at a time, so each prefix's AND is shared
    by all of its leaves; the last value is forced and takes no AND."""
    values, line, length, S, up = list(range(1, n + 1)), (), 0, 0, _row_upset(n, 0)
    for place in range(n - 1, m - 1, -1):
        d, k = divmod(k, factorial(place))
        v = values.pop(d)
        line += (v,)
        length += d
        S |= 1 << (v - 1)
        up &= _row_upset(n, S)
    level = [(line, tuple(values), S, up, length)]
    for _ in range(m - 1):
        level = [
            (line + (v,), rest[:d] + rest[d + 1 :], T, up & _row_upset(n, T), length + d)
            for line, rest, S, up, length in level
            for d, v in enumerate(rest)
            for T in (S | 1 << (v - 1),)
        ]
    return ((line + rest, length, up) for line, rest, _, up, length in level)


# The entries filled since _fill last emptied the tables, over all n.  An
# emptying elsewhere (cache_clear) leaves it high, which only brings the
# next emptying forward.
_filled = 0


def _fill(n: int, k: int) -> tuple[Permutation, int, int]:
    """Fill slot k of S_n's table and return its entry, filling with it the
    slots of every permutation sharing its first n - m values: all of S_n
    (m = n) when n! is at most UPSET_MEMO_SIZE, else slot k alone (m = 1).
    A fill that would take the filled entries past UPSET_MEMO_SIZE empties
    every table first."""
    global _filled
    m = n if factorial(n) <= UPSET_MEMO_SIZE else 1
    if _filled + factorial(m) > UPSET_MEMO_SIZE:
        _lex_table.cache_clear()
        _filled = 0
    tab, full = _lex_table(n), _row_upset(n, 0)
    _filled += factorial(m)
    start = k - k % factorial(m)
    for j, (line, length, up) in enumerate(_lex_upsets(n, k, m), start):
        tab[j] = tuple.__new__(Permutation, (line,)), length, full ^ (up | 1 << j)
    return tab[k]


def _lex_perm(n: int, k: int) -> tuple[Permutation, int, int]:
    """The entry of the k-th permutation of S_n in lex order: see _lex_table."""
    return _lex_table(n)[k] or _fill(n, k)


def perm_walk(A: Asm) -> tuple[list[int], list[int]]:
    """Perm(A) as the lex indices of its permutations in S_n, lowest first,
    and their Coxeter lengths.  The lowest permutation above A is minimal,
    and each minimal w found removes itself and its up-set from the rest."""
    n, rest = A.n, _above(A)
    tab = _lex_table(n)
    indices, lengths = [], []
    while rest:
        k = (rest & -rest).bit_length() - 1
        _, length, keep = tab[k] or _fill(n, k)
        indices.append(k)
        lengths.append(length)
        rest &= keep
    return indices, lengths


def perm_set(A: Asm) -> PermSet:
    """Perm(A) with its codimension and equidimensionality."""
    return PermSet.from_walk(A.n, *perm_walk(A))


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
