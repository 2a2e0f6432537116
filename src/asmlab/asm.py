"""Alternating sign matrices and their classical combinatorial invariants.

Cells are 1-indexed pairs ``(i, j)`` with row 1 at the top.  Cell sets
(Rothe diagrams, essential sets, dominant parts, monomial supports) are
plain frozensets of cells; rank matrices are nested tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations as iter_permutations

from .errors import (
    AlternationError,
    ColSumError,
    EntryOutOfRangeError,
    IndexOutOfRangeError,
    InvalidWitnessError,
    MalformedInputError,
    NonSquareError,
    RowSumError,
    SizeBoundExceededError,
    SizeMismatchError,
)

Cell = tuple[int, int]

PERM_SET_NAIVE_BOUND = 7


@dataclass(frozen=True)
class Asm:
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

    def is_permutation(self) -> bool:
        return all(e >= 0 for row in self.entries for e in row)

    def to_permutation(self) -> "Permutation":
        if not self.is_permutation():
            raise EntryOutOfRangeError("ASM has a -1 entry; not a permutation matrix")
        one_line = tuple(row.index(1) + 1 for row in self.entries)
        return Permutation(one_line)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "matrix": [list(row) for row in self.entries]}

    def transpose(self) -> "Asm":
        return Asm(tuple(zip(*self.entries)))

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


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] in one-line notation."""

    one_line: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

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

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def inverse(self) -> "Permutation":
        line = [0] * self.n
        for i, w in enumerate(self.one_line, start=1):
            line[w - 1] = i
        return Permutation(tuple(line))

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


@lru_cache(maxsize=65536)
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


def rothe_diagram(A: Asm) -> frozenset[Cell]:
    """Cells whose row prefix (through column j) and column prefix (through
    row i) both vanish, i.e. where the rank grows neither from the cell
    above nor from the cell to the left."""
    rk = [(0,) * (A.n + 1)] + [(0, *row) for row in rank_matrix(A)]
    grid = range(1, A.n + 1)
    return frozenset(
        (i, j) for i in grid for j in grid if rk[i][j] == rk[i - 1][j] == rk[i][j - 1]
    )


def essential_set(A: Asm) -> frozenset[Cell]:
    """Maximally-southeast cells of the Rothe diagram."""
    diagram = rothe_diagram(A)
    return frozenset(
        (i, j)
        for (i, j) in diagram
        if (i, j + 1) not in diagram and (i + 1, j) not in diagram
    )


def dominant_part(A: Asm) -> frozenset[Cell]:
    """Cells of rank zero; indices of the single-variable Fulton generators."""
    ranks = rank_matrix(A)
    return frozenset(
        (i, j)
        for i in range(1, A.n + 1)
        for j in range(1, A.n + 1)
        if ranks[i - 1][j - 1] == 0
    )


def asm_geq(A: Asm, B: Asm) -> bool:
    """A >= B iff rk_A <= rk_B entrywise (Bruhat order on permutations)."""
    if A.n != B.n:
        raise SizeMismatchError(f"cannot compare sizes {A.n} and {B.n}")
    ra, rb = rank_matrix(A), rank_matrix(B)
    return all(ra[i][j] <= rb[i][j] for i in range(A.n) for j in range(A.n))


def perm_set_naive(A: Asm) -> frozenset[Permutation]:
    """Bruhat-minimal permutations above A, by brute-force scan of S_n.

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


def direct_sum(A1: Asm, A2: Asm) -> Asm:
    """Block-diagonal sum of two ASMs."""
    m, n = A1.n, A2.n
    rows = [row + (0,) * n for row in A1.entries]
    rows += [(0,) * m + row for row in A2.entries]
    return Asm(tuple(rows))


def perm_direct_sum(u: Permutation, v: Permutation) -> Permutation:
    return Permutation(u.one_line + tuple(x + u.n for x in v.one_line))


def insert_unit(A: Asm, i: int, j: int) -> Asm:
    """Insert a new row i and column j crossing in a single 1 entry."""
    n = A.n
    if not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise IndexOutOfRangeError(f"insertion position ({i},{j}) outside [{n + 1}]^2")
    rows = []
    for a in range(1, n + 2):
        row = []
        for b in range(1, n + 2):
            if a == i and b == j:
                row.append(1)
            elif a == i or b == j:
                row.append(0)
            else:
                row.append(A.entries[a - 1 - (a > i)][b - 1 - (b > j)])
        rows.append(tuple(row))
    return Asm(tuple(rows))


def one_plus(A: Asm) -> Asm:
    return insert_unit(A, 1, 1)


def delete_row_col(A: Asm, i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Raw submatrix with row i and column j removed (not validated)."""
    return tuple(
        tuple(e for b, e in enumerate(row, start=1) if b != j)
        for a, row in enumerate(A.entries, start=1)
        if a != i
    )


@dataclass(frozen=True)
class ContainmentWitness:
    """Row/column subsets of a target realizing a pattern as a submatrix."""

    kept_rows: tuple[int, ...]
    kept_cols: tuple[int, ...]


def _submatrix_equals(target: Asm, pattern: Asm, rows, cols) -> bool:
    return all(
        target.entries[r - 1][c - 1] == pattern.entries[a][b]
        for a, r in enumerate(rows)
        for b, c in enumerate(cols)
    )


def iter_pattern_witnesses(target: Asm, pattern: Asm):
    """All witnesses, in lexicographic order of (kept_rows, kept_cols)."""
    k = pattern.n
    if k > target.n:
        return
    indices = range(1, target.n + 1)
    for rows in combinations(indices, k):
        for cols in combinations(indices, k):
            if _submatrix_equals(target, pattern, rows, cols):
                yield ContainmentWitness(rows, cols)


def find_pattern(target: Asm, pattern: Asm) -> ContainmentWitness | None:
    """First witness that pattern occurs in target, or None if avoided."""
    return next(iter_pattern_witnesses(target, pattern), None)


@dataclass(frozen=True)
class ContainmentReport:
    k: int
    deleted_rows: tuple[int, ...]
    deleted_cols: tuple[int, ...]
    zeros_outside_band: bool
    entry_sum: int

    @property
    def entry_sum_ok(self) -> bool:
        return self.entry_sum == self.k

    @property
    def ok(self) -> bool:
        return self.zeros_outside_band and self.entry_sum_ok


def check_containment_constraints(
    target: Asm, pattern: Asm, witness: ContainmentWitness
) -> ContainmentReport:
    """Check the two structural restrictions a containment places on the
    deleted rows W and columns C: zero entries outside the [c_1,c_k] /
    [r_1,r_k] bands, and W x C entry sum equal to k."""
    if len(witness.kept_rows) != pattern.n or len(witness.kept_cols) != pattern.n:
        raise InvalidWitnessError("witness size does not match pattern size")
    if not _submatrix_equals(target, pattern, witness.kept_rows, witness.kept_cols):
        raise InvalidWitnessError("witness submatrix does not equal the pattern")
    n = target.n
    deleted_rows = tuple(sorted(set(range(1, n + 1)) - set(witness.kept_rows)))
    deleted_cols = tuple(sorted(set(range(1, n + 1)) - set(witness.kept_cols)))
    k = len(deleted_rows)
    zeros_ok = True
    if k:
        c1, ck = deleted_cols[0], deleted_cols[-1]
        r1, rk = deleted_rows[0], deleted_rows[-1]
        for r in deleted_rows:
            if any(
                target[(r, c)] != 0 for c in range(1, n + 1) if c < c1 or c > ck
            ):
                zeros_ok = False
        for c in deleted_cols:
            if any(
                target[(r, c)] != 0 for r in range(1, n + 1) if r < r1 or r > rk
            ):
                zeros_ok = False
    entry_sum = sum(target[(r, c)] for r in deleted_rows for c in deleted_cols)
    return ContainmentReport(k, deleted_rows, deleted_cols, zeros_ok, entry_sum)


def badblock_at(A: Asm, r: int, c: int, strict: bool = False) -> bool:
    """Whether (r, c) marks the non-equidimensional obstruction block."""
    n = A.n
    if not (2 <= r <= n - 1 and 1 <= c <= n - 2):
        return False
    if (
        A[(r - 1, c)] != 0
        or A[(r - 1, c + 1)] != 0
        or A[(r, c)] != 1
        or A[(r, c + 1)] != -1
    ):
        return False
    if any(
        A[(i, j)] != 0
        for i in range(1, r + 1)
        for j in range(1, c + 1)
        if (i, j) != (r, c)
    ):
        return False
    ranks = rank_matrix(A)
    ess = essential_set(A)
    for (i, j) in ess:
        if (i, j) == (r, c + 1):
            continue
        rk = ranks[i - 1][j - 1]
        if not (rk == 0 or rk >= r - 1):
            return False
    for (i, j) in ess:
        if j != c:
            continue
        if strict or ranks[i - 1][j - 1] > 0:
            return False
    return True


def badblock_match(A: Asm, strict: bool = False) -> Cell | None:
    """Lexicographically first (r, c) at which the obstruction block occurs."""
    n = A.n
    for r in range(2, n):
        for c in range(1, n - 1):
            if badblock_at(A, r, c, strict=strict):
                return (r, c)
    return None


def ascii_diagram(A: Asm) -> str:
    """Grid picture: '*' for 1, 'o' for -1, 'D' for diagram cells ('E' for
    essential ones), '.' elsewhere."""
    diagram = rothe_diagram(A)
    ess = essential_set(A)
    lines = []
    for i in range(1, A.n + 1):
        chars = []
        for j in range(1, A.n + 1):
            e = A[(i, j)]
            if e == 1:
                chars.append("*")
            elif e == -1:
                chars.append("o")
            elif (i, j) in ess:
                chars.append("E")
            elif (i, j) in diagram:
                chars.append("D")
            else:
                chars.append(".")
        lines.append(" ".join(chars))
    return "\n".join(lines)
