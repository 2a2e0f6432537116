"""Perm(A) from memoized bitsets of S_n, and the CM and KM-vd answers of
an ASM's complex read off it: what every census runs past the stream.

A permutation of S_n is named by its index k in lex order, whose
factorial-base digits are its Lehmer code, and a set of them by the int
with bit n! - 1 - k for each k: `perm_walk` finds Perm(A) as such indices
from memoized sets, so a census needs no ideal and no `Permutation`.  The
same indices, with the Bruhat order read from the memoized up-sets, decide
KM-vd and CM of an ASM's complex with no complex (`perm_cm_km_vd`): the
Knutson-Miller subword recursion and the gluing of subword complexes.

What no census runs loads at first use: the mask/cell codec, the
set-family helpers and the pipe dreams of a lex index are in `complexes`;
`perm_set(A)`, which unranks the indices to `Permutation`s as the oracle
`perm_set_naive` gives them, and the lex rank and unrank are in `asm`; the
ideals themselves, their minimal primes and the Berge kernel are in
`squarefree`.
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce
from math import factorial
from operator import and_
from threading import local
from typing import TYPE_CHECKING

from .errors import SizeBoundExceededError

if TYPE_CHECKING:  # enumeration, which defines it, imports this module
    from .enumeration import Asm


# -- Perm(A) from memoized row up-sets of S_n ---------------------------------
#
# Perm(A) is the set of Bruhat-minimal permutations w with r_w <= r_A
# entrywise, and on permutations the Bruhat order is exactly that entrywise
# comparison of rank matrices.  S_n is held in lexicographic order, the order
# itertools.permutations yields, and a set of permutations as an int whose bit
# n! - 1 - k stands for the k-th of them: the lowest index in a set is n! less
# its bit_length, with no negation of an n!-bit int.  Lex order extends the
# Bruhat order: if u < w, then at the first position k where they differ,
# r_u >= r_w on row k forces u(k) < w(k).  So the lowest permutation of a set
# is Bruhat-minimal in it.  Row i of r_A depends only on the set S of columns
# whose partial column sum through row i is 1, and |S| = i, so the permutations
# above A are the AND of one memoized up-set per row, keyed by (n, S).

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


@cache  # keys: the proper column sets of each n <= PERM_TABLE_BOUND, 1013 in all
def _row_upset(n: int, S: int) -> int:
    """The permutations w of S_n that meet the rank condition of row |S| of
    any matrix whose columns with partial sum 1 through that row are S (bit
    j-1 for column j, S a proper subset of [n]): the first |S| values T of w
    have |T & [j]| <= |S & [j]| at every column j, i.e. T lies above S in
    the Gale order.  S = 0 gives all of S_n.  Block u, the (n-1)! bits from
    (n-u) * (n-1)!, holds the w with w(1) = u, indexed in S_{n-1} by the
    rest of w with each value v relabelled v - (v > u).  T lies above S
    exactly when S has a column <= u and the rest of T lies above S less its
    largest such column, so the block is empty or the up-set in S_{n-1} of
    that set, relabelled the same way."""
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
            up |= _row_upset(n - 1, sub) << ((n - u) * block)
    return up


@cache  # keys: the rows of ASMs of each n <= PERM_TABLE_BOUND, 511 in all
def _row_flips(row: tuple[int, ...]) -> int:
    """The columns whose partial sums a row flips: bit j-1 for each nonzero
    entry in column j."""
    return sum(1 << j for j, a in enumerate(row) if a)


@cache  # one list per n; cache_clear empties them all
def _lex_table(n: int) -> list:
    """The slots of S_n in lex order, each None or, once filled, the entry
    (length, keep) of the k-th permutation w: its Coxeter length, and the
    permutations of S_n outside w's up-set and other than w, those a walk
    may still find once w is found.  w itself is its index k (asm.lex_unrank).
    w's bit n! - 1 - k is cleared whatever the up-set holds, so a walk that
    ANDs keep in always removes the bit it read.  keep is an XOR with all of
    S_n, which holds up-set and bit, so nonnegative: an AND with a negative
    int makes CPython build its two's complement first."""
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


# The entries filled since _fill last emptied the tables, over all n; an
# emptying elsewhere (cache_clear) leaves it high, bringing the next forward.
_filled = 0


def _fill(n: int, k: int) -> tuple[int, int]:
    """Fill slot k of S_n's table and return its entry, filling with it the
    slots of every permutation sharing its first n - m values: all of S_n
    (m = n) when n! is at most UPSET_MEMO_SIZE, else slot k alone (m = 1);
    slot j's keep clears bit n! - 1 - j.  A fill that would take the filled
    entries past UPSET_MEMO_SIZE empties every table first."""
    global _filled
    m = n if factorial(n) <= UPSET_MEMO_SIZE else 1
    if _filled + factorial(m) > UPSET_MEMO_SIZE:
        _lex_table.cache_clear()
        _filled = 0
    tab, full = _lex_table(n), _row_upset(n, 0)
    _filled += factorial(m)
    start, last = k - k % factorial(m), len(tab) - 1
    for j, (length, up) in enumerate(_lex_upsets(n, k, m), start):
        tab[j] = length, full ^ (up | 1 << (last - j))
    return tab[k]


class _Prefix:
    """Per depth, the row, column set and running up-set AND of rows 1..n-1
    of a thread's last walk.  The first `depth` are valid: depth drops
    before a rewrite and rises after, so a cut walk leaves none stale."""

    __slots__ = ("depth", "rows", "cols", "ups")

    def __init__(self):
        self.depth, self.rows = 0, [None] * PERM_TABLE_BOUND
        self.cols, self.ups = [0] * PERM_TABLE_BOUND, [0] * PERM_TABLE_BOUND


_thread = local()  # .prefix: this thread's _Prefix, read once a walk


def perm_walk(A: Asm) -> tuple[list[int], list[int]]:
    """Perm(A) as the lex indices of its permutations in S_n, lowest first,
    and their Coxeter lengths.  The permutations above A are the AND of the
    row up-sets of rows 1..n-1, restarted after the rows A shares with the
    last ASM this thread walked, in any order and size (stream neighbours
    share all but one or two); Perm(A) is their minimal elements."""
    try:
        p = _thread.prefix
    except AttributeError:
        p = _thread.prefix = _Prefix()
    rows = A.entries
    n, kept, depth, d = len(rows), p.rows, p.depth, 0
    while d < depth and (kept[d] is rows[d] or kept[d] == rows[d]):
        d += 1
    rest = p.ups[d - 1] if d else _row_upset(n, 0)
    if d < n - 1:
        p.depth = d
        S, cols, ups = p.cols[d - 1] if d else 0, p.cols, p.ups
        for i in range(d, n - 1):
            row = rows[i]
            S ^= _row_flips(row)
            rest &= _row_upset(n, S)
            kept[i], cols[i], ups[i] = row, S, rest
        p.depth = n - 1
    return _minimal(n, rest)


def _minimal(n: int, rest: int) -> tuple[list[int], list[int]]:
    """The Bruhat-minimal permutations of a set of S_n (bit n! - 1 - k for
    the k-th), as lex indices, lowest first, and their Coxeter lengths: the
    lowest permutation left is minimal, and one AND with its keep removes
    it and its up-set."""
    indices, lengths, tab, top = [], [], _lex_table(n), factorial(n)
    while rest:
        k = top - rest.bit_length()
        length, keep = tab[k] or _fill(n, k)
        indices.append(k)
        lengths.append(length)
        rest &= keep
    return indices, lengths


# -- CM and KM-vd of Delta_A from Perm(A), with no complex --------------------
#
# Let Q be the staircase word: the cells (i, j), i + j <= n, in mask order
# (the Knutson-Miller order), cell (i, j) the letter s_{i+j-1}.  A reduced
# pipe dream of w is a reduced subword of Q for w, read as a product with
# its first letter leftmost, so Delta_A is the union of the subword
# complexes Delta(Q, w) over w in Perm(A): for an antichain T of S_n,
# Delta(T) holds the subwords P of Q with Dem(Q \ P) >= some t in T
# (Knutson-Miller, Subword complexes in Coxeter groups, 2004).  Its facets
# are the complements of the reduced subwords of the elements of T, so it is
# pure exactly when T has one length.  Left multiplication by s_a swaps the
# values a and a + 1 of a one-line form; when a + 1 comes first, at place i,
# it shortens w and lowers w's Lehmer digit i by one, so its lex index by
# (n - 1 - i)!.

# The bound of each memo keyed by Perm(A), a set of targets or a facet
# family, here and in complexes and homology.
MEMO_SIZE = 10**6
# The most gluing steps (_glued_cm) one Perm(A) may take; past it the answer
# is left undecided.  One-versus-rest splits visit subsets of Perm(A), which
# reaches 39 elements at n=7, so a bound is needed; 2000 leaves 94 of the
# 8520 open ASMs among the first 20,000 ASM(7) undecided.
GLUE_BUDGET = 2000


@cache  # one tuple per n
def _staircase(n: int) -> tuple:
    """(a, below) for each letter of Q in order: the letter is s_a, and
    below has bit t set for each t-th permutation at most the Demazure
    product d of the letters after it, as little-endian bytes.  Left
    multiplication by w0 reverses the Bruhat order and takes the k-th
    permutation to the (n! - 1 - k)-th, so t <= d exactly when w0 t lies in
    the up-set of w0 d, whose bit for w0 t is bit t: the AND of the row
    up-sets of w0 d, as _lex_upsets takes them."""
    letters = [i + j - 1 for i in range(1, n) for j in range(n - i, 0, -1)]
    line, word, size = list(range(1, n + 1)), [], (factorial(n) + 7) // 8
    for a in reversed(letters):
        up, S = _row_upset(n, 0), 0
        for v in line[:-1]:
            S |= 1 << (n - v)  # column n + 1 - v, the value of w0 d there
            up &= _row_upset(n, S)
        word.append((a, up.to_bytes(size, "little")))
        i, j = line.index(a), line.index(a + 1)
        if i < j:  # s_a lengthens: the Demazure product takes it
            line[i], line[j] = a + 1, a
    return tuple(reversed(word))


@cache  # one list per n
def _lowered_table(n: int) -> list:
    """The slots of S_n in lex order, each None or, once filled by
    _lowered, the lowered tuple of the k-th permutation."""
    return [None] * factorial(n)


def _lowered(n: int, k: int) -> tuple[int, ...]:
    """For a = 0..n-1, the lex index of min(w, s_a w) for the k-th
    permutation w of S_n (w itself at a = 0), stored in its slot: the
    one-line places of the values come from k's factorial-base digits."""
    values, place, rest = list(range(1, n + 1)), [0] * (n + 1), k
    for i in range(n):
        d, rest = divmod(rest, factorial(n - 1 - i))
        place[values.pop(d)] = i
    low = _lowered_table(n)[k] = (k, *(
        k - factorial(n - 1 - place[a + 1]) if place[a + 1] < place[a] else k
        for a in range(1, n)
    ))
    return low


@lru_cache(maxsize=MEMO_SIZE)
def _km_vd(n: int, p: int, T: tuple[int, ...]) -> bool:
    """Whether Delta(T) on the letters of Q from p on, T an antichain of one
    length l, each at most the Demazure product of those letters, is vertex
    decomposable in the fixed order.  At the first letter s_a, with d the
    Demazure product of the letters after it, the link is Delta(T') on the
    rest for T' the t <= d, and the deletion Delta(D) for D the minimal
    elements of the min(t, s_a t), each <= d by the lifting property.  Every
    t that s_a lengthens is <= d, so:
      - s_a lengthens every t: the deletion is the link, a cone point;
      - the link is empty: s_a shortens every t, the letter is no vertex,
        and Delta(T) is the deletion;
      - otherwise the letter is the first vertex and must shed, the deletion
        pure of Delta(T)'s dimension, so D all of length l - 1: each t that
        s_a lengthens lies above some s_a u of length l - 1, and D is those.
        Then both the link and the deletion must be KM-vd.
    One target is a subword complex, KM-vd (Knutson-Miller)."""
    word, low, tab, top = _staircase(n), _lowered_table(n), _lex_table(n), factorial(n) - 1
    while len(T) > 1:
        a, below = word[p]
        p += 1
        shortened, lengthened = [], []
        for t in T:
            s = (low[t] or _lowered(n, t))[a]
            if s == t:
                lengthened.append(t)
            else:
                shortened.append(s)
        if not shortened:  # a cone point
            continue
        deletion = tuple(sorted(shortened))
        link = tuple(t for t in T if below[t >> 3] >> (t & 7) & 1)
        if not link:  # no vertex
            T = deletion
            continue
        if lengthened:
            # the permutations outside the up-sets of the shortened ones
            outside = reduce(and_, [(tab[s] or _fill(n, s))[1] for s in shortened])
            if any(outside >> (top - t) & 1 for t in lengthened):
                return False  # the first vertex does not shed
        return _km_vd(n, p, link) and _km_vd(n, p, deletion)
    return True


class _OverBudget(Exception):
    """Gluing took GLUE_BUDGET steps without an answer."""


def _glued_cm(n: int, T: tuple[int, ...]) -> bool | None:
    """Whether Delta(T) is CM, T an antichain of one length l, or None when
    gluing does not decide within GLUE_BUDGET steps.  For T = T1 + T2 with
    Delta(T1) and Delta(T2) CM of one dimension, Delta(T1) & Delta(T2) is
    Delta(M), M the minimal common upper bounds of T1 and T2 in the Bruhat
    order, and the depth lemma on 0 -> k[Delta(T)] -> k[Delta(T1)] +
    k[Delta(T2)] -> k[Delta(M)] -> 0 (Bruns-Herzog, Prop. 1.2.9) gives:
    Delta(T) is CM exactly when Delta(M) is CM one dimension lower, so M all
    of length l + 1 and Delta(M) CM; T1 and T2 share no facet, T being an
    antichain, and M lies strictly above T, so its lengths are at least
    l + 1.  The answer holds over every field.  The splits tried are one
    element against the rest, the last element first; the first whose rest
    is CM and whose M decides gives the answer."""
    tab, full = _lex_table(n), _row_upset(n, 0)
    memo, steps = {}, 0

    def keep(k: int) -> int:
        return (tab[k] or _fill(n, k))[1]

    def cm(T: tuple[int, ...]) -> bool | None:
        nonlocal steps
        if len(T) == 1:
            return True
        if T in memo:
            return memo[T]
        if steps == GLUE_BUDGET:
            raise _OverBudget
        steps += 1
        answer, length = None, (tab[T[0]] or _fill(n, T[0]))[0]
        for i in reversed(range(len(T))):
            rest = T[:i] + T[i + 1 :]
            if cm(rest):
                # the common upper bounds: in neither T[i]'s keep nor every
                # keep of the rest
                M, lengths = _minimal(n, full ^ (keep(T[i]) | reduce(and_, map(keep, rest))))
                if max(lengths) > length + 1:
                    answer = False
                    break
                answer = cm(tuple(M))
                if answer is not None:
                    break
        memo[T] = answer
        return answer

    try:
        return cm(T)
    except _OverBudget:
        return None


@lru_cache(maxsize=MEMO_SIZE)
def perm_cm_km_vd(n: int, *indices: int) -> tuple[bool | None, bool]:
    """(cm, km_vd) of Delta_A for Perm(A) given by its lex indices in S_n,
    of one length and more than one: KM-vd by the subword recursion
    (_km_vd), which implies CM over every field, and else CM by gluing
    (_glued_cm), None when gluing leaves it undecided.  Memoized by n and
    the indices, one tuple key, so an ASM asked about again, with any
    checks or field, recomputes nothing; a census never hits it, since no
    two open ASMs share Perm(A), so each shard empties it and _km_vd's memo
    (enumeration._shard_worker)."""
    if _km_vd(n, 0, indices):
        return True, True
    return _glued_cm(n, indices), False
