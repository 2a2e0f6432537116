"""Alternating sign matrices and permutations: validation, rank matrices,
and the brute-force Perm(A) oracle.

Cells are 1-indexed pairs ``(i, j)`` with row 1 at the top; rank matrices
are nested tuples.  Diagrams, block sums, pattern containment and the
badblock obstruction, which no census reads, are in `combinatorics`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as iter_permutations
from typing import NamedTuple

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

Cell = tuple[int, int]

PERM_SET_NAIVE_BOUND = 7


class Asm(NamedTuple):
    """A validated alternating sign matrix."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, cell: Cell) -> int:
        i, j = cell
        return self.entries[i - 1][j - 1]

    @property
    def a11_is_one(self) -> bool:
        return self.entries[0][0] == 1

    def to_json_dict(self) -> dict:
        return {"n": self.n, "matrix": [list(row) for row in self.entries]}

    @classmethod
    def identity(cls, n: int) -> "Asm":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __str__(self) -> str:
        width = max(len(str(e)) for row in self.entries for e in row)
        return "\n".join(
            " ".join(str(e).rjust(width) for e in row) for row in self.entries
        )


def validate_asm(matrix) -> Asm:
    """Validate a square integer matrix as an ASM.

    Raises an error naming the first violated axiom: entry range (row-major
    scan), column sums, row sums, then sign alternation.
    """
    rows = [tuple(int(e) for e in row) for row in matrix]
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


# Only the sweeps, the CLI and the oracles read rank matrices, not perm_set:
# each ASM's a few times and seldom across ASMs, so the memo is small.
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

    Candidates are visited in increasing Coxeter length; a candidate is
    minimal iff it dominates no previously-found minimal element.
    """
    n = A.n
    if n > PERM_SET_NAIVE_BOUND:
        raise SizeBoundExceededError(f"n={n} exceeds naive bound {PERM_SET_NAIVE_BOUND}")
    ra = rank_matrix(A)
    candidates = []
    for line in iter_permutations(range(1, n + 1)):
        w = Permutation(line)
        rw = rank_matrix(w.to_asm())
        if all(rw[i][j] <= ra[i][j] for i in range(n) for j in range(n)):
            candidates.append((coxeter_length(w), w, rw))
    candidates.sort(key=lambda t: (t[0], t[1].one_line))
    minimal: list[tuple[Permutation, tuple]] = []
    for _, w, rw in candidates:
        if not any(
            all(rw[i][j] <= rm[i][j] for i in range(n) for j in range(n))
            for _, rm in minimal
        ):
            minimal.append((w, rw))
    return frozenset(w for w, _ in minimal)


