"""Cell sets of the n-by-n grid as bitmasks, the reduced pipe dreams of a
permutation, and Perm(A) from memoized bitsets of S_n.

A set of grid cells (a squarefree monomial, a prime, a face) is held as an
int bitmask: cell (i, j) is bit (i-1)*n + (n-j), row by row and right to
left within a row, so ascending bit order is the reading order of a pipe
dream and the lowest set bit is the greatest cell in the Knutson-Miller
order z_{1,n} > ... > z_{n,1}.  Divisibility is `a & ~b == 0`.
`mask(cells, n)` and `cells(m, n)` are the one codec between masks and
cells.  The minimal primes of an ASM's antidiagonal initial ideal are the
reduced pipe dreams of the permutations of Perm(A) (Knutson-Miller), those
of distinct w disjoint.  A permutation of S_n is named by its index k in
lex order, whose factorial-base digits are its Lehmer code: `perm_walk`
finds Perm(A) as such indices from memoized bitsets of S_n, and
`lex_pipe_dreams(n, k)` lists the pipe dreams of one w by ladder moves
from those digits, so a census and the complex of an ASM need no ideal and
no `Permutation`.  `perm_set` and `pipe_dreams(w)` give the same answers
for `Permutation`s, through `lex_unrank` and `lex_rank`.  The ideals
themselves, their minimal primes and the Berge kernel serve the theorem
sweeps and the oracles, and live in `squarefree`, which `import asmlab`
loads only on first use.
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce
from math import factorial
from operator import and_, or_
from typing import NamedTuple

from .asm import Asm, Cell, Permutation
from .errors import SizeBoundExceededError


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


def lex_rank(line) -> int:
    """The index of the permutation with one-line form `line` in the lex
    order of S_n: its Lehmer code read as factorial-base digits."""
    n, k = len(line), 0
    for i, v in enumerate(line):
        k += sum(u < v for u in line[i + 1 :]) * factorial(n - 1 - i)
    return k


def lex_unrank(n: int, k: int) -> tuple[int, ...]:
    """The one-line form of the k-th permutation of S_n in lex order: the
    factorial-base digits of k pick each value from those left."""
    values, line = list(range(1, n + 1)), []
    for place in range(n - 1, -1, -1):
        d, k = divmod(k, factorial(place))
        line.append(values.pop(d))
    return tuple(line)


def pipe_dreams(w: Permutation) -> frozenset[int]:
    """The reduced pipe dreams of w as masks: lex_pipe_dreams at w's lex
    rank, one memo for both."""
    return lex_pipe_dreams(w.n, lex_rank(w.one_line))


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
# for n <= 7, and an entry at a time above.  An entry holds a length and
# the rest of S_n outside its up-set, n!/8 bytes: the tables of S_1 to S_7,
# 5913 entries, fit in 6 MB; at n=8 an entry is over 5 KB.
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
        perms = frozenset(tuple.__new__(Permutation, (lex_unrank(n, k),)) for k in indices)
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
    (length, keep) of the k-th permutation w: its Coxeter length, and the
    permutations of S_n outside w's up-set and other than w, those a walk
    may still find once w is found.  w itself is its index k (lex_unrank).
    Bit k is cleared whatever the up-set holds, so a walk that ANDs keep in
    always removes the bit it read.  keep is the complement of up | 1 << k
    within S_n, taken as an XOR with all of S_n, which holds up, so
    nonnegative: an AND with a negative int makes CPython build its two's
    complement first."""
    _row_upset(n, 0)  # raises SizeBoundExceededError before the list is made
    return [None] * factorial(n)


def _lex_upsets(n: int, k: int, m: int):
    """(Coxeter length, Bruhat up-set) of each permutation w of S_n sharing
    the first n - m values of the k-th, in lex order.  The factorial-base
    digits of k are the Lehmer code of the k-th permutation, so they sum to
    its length; the columns with partial sum 1 through row i of w's matrix
    are w(1), ..., w(i), and the up-set is the AND of the row up-sets of
    rows 1..n-1.  The prefix tree below the first n - m values is grown a
    level at a time, so each prefix's AND is shared by all of its leaves;
    the last value is forced and takes no AND."""
    values, length, S, up = list(range(1, n + 1)), 0, 0, _row_upset(n, 0)
    for place in range(n - 1, m - 1, -1):
        d, k = divmod(k, factorial(place))
        S |= 1 << (values.pop(d) - 1)
        length += d
        up &= _row_upset(n, S)
    level = [(tuple(values), S, up, length)]
    for _ in range(m - 1):
        level = [
            (rest[:d] + rest[d + 1 :], T, up & _row_upset(n, T), length + d)
            for rest, S, up, length in level
            for d, v in enumerate(rest)
            for T in (S | 1 << (v - 1),)
        ]
    return ((length, up) for _, _, up, length in level)


# The entries filled since _fill last emptied the tables, over all n.  An
# emptying elsewhere (cache_clear) leaves it high, which only brings the
# next emptying forward.
_filled = 0


def _fill(n: int, k: int) -> tuple[int, int]:
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
    for j, (length, up) in enumerate(_lex_upsets(n, k, m), start):
        tab[j] = length, full ^ (up | 1 << j)
    return tab[k]


def perm_walk(A: Asm) -> tuple[list[int], list[int]]:
    """Perm(A) as the lex indices of its permutations in S_n, lowest first,
    and their Coxeter lengths.  The lowest permutation above A is minimal,
    and each minimal w found removes itself and its up-set from the rest."""
    n, rest = A.n, _above(A)
    tab = _lex_table(n)
    indices, lengths = [], []
    while rest:
        k = (rest & -rest).bit_length() - 1
        length, keep = tab[k] or _fill(n, k)
        indices.append(k)
        lengths.append(length)
        rest &= keep
    return indices, lengths


def perm_set(A: Asm) -> PermSet:
    """Perm(A) with its codimension and equidimensionality."""
    return PermSet.from_walk(A.n, *perm_walk(A))
