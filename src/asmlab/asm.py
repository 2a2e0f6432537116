"""Alternating sign matrices and permutations as records: validation, the
JSON reader, `Permutation` and its lex rank, Perm(A) as `Permutation`s,
rank matrices, and the brute-force Perm(A) oracle.

Cells are 1-indexed pairs ``(i, j)`` with row 1 at the top; rank matrices
are nested tuples.  A census reads none of it: the stream yields `Asm`
records (`enumeration`), and Perm(A) is walked as lex indices (`ideals`).
So `import asmlab` loads this module only when one of its names is first
used: by the command line, the sweeps, the ideal theory and the oracles.
Diagrams, block sums, pattern containment and the badblock obstruction
are in `combinatorics`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as iter_permutations
from math import factorial
from operator import add, index, le
from typing import NamedTuple

from .enumeration import Asm
from .errors import (
    AlternationError,
    ColSumError,
    EntryOutOfRangeError,
    MalformedInputError,
    NonSquareError,
    RowSumError,
    SizeBoundExceededError,
    SizeMismatchError,
)
from .ideals import perm_walk

PERM_SET_NAIVE_BOUND = 7


def validate_asm(matrix) -> Asm:
    """Validate a square integer matrix as an ASM.

    Raises an error naming the first violated axiom: a matrix or row that
    is not iterable, an entry that is not an integer (operator.index
    rejects it), entry range (row-major scan), column sums, row sums, then
    sign alternation.
    """
    try:
        rows = [
            tuple(_entry(e, i, j) for j, e in enumerate(row, 1)) for i, row in enumerate(matrix, 1)
        ]
    except TypeError:  # from iteration: _entry turns its own into MalformedInputError
        raise MalformedInputError("expected a matrix: an iterable of rows of integers") from None
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise NonSquareError(f"expected a nonempty square matrix, got {n} rows")
    for i, row in enumerate(rows, start=1):
        for j, e in enumerate(row, start=1):
            if e not in (-1, 0, 1):
                raise EntryOutOfRangeError(f"entry {e} at ({i},{j}) not in {{-1,0,1}}")
    for j in range(1, n + 1):
        if sum(rows[i][j - 1] for i in range(n)) != 1:
            raise ColSumError(f"column {j} does not sum to 1")
    for i in range(1, n + 1):
        if sum(rows[i - 1]) != 1:
            raise RowSumError(f"row {i} does not sum to 1")
    for i in range(1, n + 1):
        _check_alternation(rows[i - 1], "row", i)
    for j in range(1, n + 1):
        _check_alternation([rows[i][j - 1] for i in range(n)], "column", j)
    return Asm(tuple(rows))


def _entry(e, i: int, j: int) -> int:
    try:
        return index(e)
    except TypeError:
        raise MalformedInputError(f"entry {e!r} at ({i},{j}) is not an integer") from None


def _check_alternation(line, kind: str, index: int) -> None:
    expected = 1
    for e in line:
        if e == 0:
            continue
        if e != expected:
            raise AlternationError(f"{kind} {index} breaks sign alternation")
        expected = -expected
    if expected != -1:
        raise AlternationError(f"{kind} {index} does not end with 1")


def asm_from_json(data: dict) -> Asm:
    matrix = data.get("matrix") if isinstance(data, dict) else None
    if not isinstance(matrix, list) or not all(
        isinstance(row, list) and all(type(e) is int for e in row) for row in matrix
    ):
        raise MalformedInputError('expected {"matrix": [[int, ...], ...]}')
    if "n" in data and len(matrix) != data["n"]:
        raise NonSquareError("declared n does not match matrix size")
    return validate_asm(matrix)


class Permutation(NamedTuple):
    """A permutation of [n] in one-line notation."""

    one_line: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.one_line)

    @property
    def length(self) -> int:
        return coxeter_length(self)

    def to_asm(self) -> Asm:
        n = self.n
        return Asm(
            tuple(
                tuple(int(self.one_line[i] == j + 1) for j in range(n))
                for i in range(n)
            )
        )

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.one_line)
        return ",".join(str(v) for v in self.one_line)


def coxeter_length(w: Permutation) -> int:
    """Inversion count of w."""
    line = w.one_line
    return sum(
        1
        for i in range(len(line))
        for j in range(i + 1, len(line))
        if line[i] > line[j]
    )


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
    """The reduced pipe dreams of w as masks: complexes.lex_pipe_dreams at
    w's lex rank, one memo for both."""
    from .complexes import lex_pipe_dreams

    return lex_pipe_dreams(w.n, lex_rank(w.one_line))


def perm_set(A: Asm) -> frozenset[Permutation]:
    """Perm(A) as Permutations, as its oracle perm_set_naive gives it:
    perm_walk's lex indices, unranked."""
    return frozenset(Permutation(lex_unrank(A.n, k)) for k in perm_walk(A)[0])


# Only the sweeps, the CLI and the oracles read rank matrices, not perm_set,
# and only of the ASMs they are asked about: each a few times and seldom
# across ASMs, so the memo is small.  perm_set_naive builds the rank rows of
# S_n itself, so no permutation matrix fills it.
@lru_cache(maxsize=2**10)
def rank_matrix(A: Asm) -> tuple[tuple[int, ...], ...]:
    """Prefix double sums: entry (i,j) is the sum of A over rows <=i, cols <=j."""
    n = A.n
    ranks = []
    prev = (0,) * n
    for i in range(n):
        row_acc = 0
        row = []
        for j in range(n):
            row_acc += A.entries[i][j]
            row.append(prev[j] + row_acc)
        ranks.append(tuple(row))
        prev = ranks[-1]
    return tuple(ranks)


def asm_geq(A: Asm, B: Asm) -> bool:
    """A >= B iff rk_A <= rk_B entrywise (Bruhat order on permutations);
    an oracle for the Perm(A) walk."""
    if A.n != B.n:
        raise SizeMismatchError(f"cannot compare sizes {A.n} and {B.n}")
    ra, rb = rank_matrix(A), rank_matrix(B)
    return all(ra[i][j] <= rb[i][j] for i in range(A.n) for j in range(A.n))


def perm_set_naive(A: Asm) -> frozenset[Permutation]:
    """Bruhat-minimal permutations above A, by brute-force scan of S_n; the
    oracle perm_set is checked against.

    w is above A when rk_w <= rk_A entrywise.  Each w's rank rows are built
    here, one prefix count per row, and the scan of w stops at the first
    row that exceeds A's; rank_matrix is read for A only, so a call adds at
    most one entry to its memo.  Candidates are visited in increasing
    Coxeter length; a candidate is minimal iff it dominates no
    previously-found minimal element.
    """
    n = A.n
    if n > PERM_SET_NAIVE_BOUND:
        raise SizeBoundExceededError(f"n={n} exceeds naive bound {PERM_SET_NAIVE_BOUND}")
    ra = rank_matrix(A)
    # row i of w's rank matrix is row i - 1 plus steps[w(i)]: 1 in columns >= w(i)
    steps = {v: tuple(int(j >= v) for j in range(1, n + 1)) for v in range(1, n + 1)}
    candidates = []
    for line in iter_permutations(range(1, n + 1)):
        ranks, row = (), (0,) * n
        for v, bound in zip(line, ra):
            row = tuple(map(add, row, steps[v]))
            if not all(map(le, row, bound)):
                break
            ranks += row
        else:
            w = Permutation(line)
            candidates.append((coxeter_length(w), w, ranks))
    candidates.sort(key=lambda t: (t[0], t[1].one_line))
    minimal: list[tuple[Permutation, tuple]] = []
    for _, w, rw in candidates:
        if not any(all(map(le, rw, rm)) for _, rm in minimal):
            minimal.append((w, rw))
    return frozenset(w for w, _ in minimal)


