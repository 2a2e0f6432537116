"""The combinatorics of ASMs that no census reads: Rothe diagrams, essential
sets and dominant parts, ASCII pictures, block sums and inserted units,
pattern containment with its row/column restrictions, and the badblock
obstruction.

Cell sets (Rothe diagrams, essential sets, dominant parts) are plain
frozensets of cells ``(i, j)``.  `import asmlab` loads this module only
when one of its names is first used: the initial ideal, the sweeps and the
`analyze`, `pattern` and `diagram` commands read it.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .asm import Asm, Cell, Permutation, rank_matrix
from .errors import IndexOutOfRangeError, InvalidWitnessError


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


class ContainmentWitness(NamedTuple):
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


class ContainmentReport(NamedTuple):
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


def badblock_at(A: Asm, r: int, c: int) -> bool:
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
    return all(ranks[i - 1][j - 1] == 0 for (i, j) in ess if j == c)


def badblock_match(A: Asm) -> Cell | None:
    """Lexicographically first (r, c) at which the obstruction block occurs."""
    n = A.n
    for r in range(2, n):
        for c in range(1, n - 1):
            if badblock_at(A, r, c):
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

