"""Independent checks the tests share: the transpose of an ASM, the product
of two boundary matrices, the Fulton minors of an ASM read off its
essential set cell by cell, and Perm(A) with its codimension and
equidimensionality as asmlab answers them, for comparison with an oracle's
reading, the bitset of S_n that holds given permutations, and the output of
code run in a fresh interpreter."""

import os
import subprocess
import sys
from itertools import combinations
from math import factorial
from pathlib import Path
from typing import NamedTuple

import asmlab
from asmlab import Asm, analyze_asm, essential_set, perm_set, rank_matrix

# the directory that holds this asmlab package
SRC = Path(asmlab.__file__).resolve().parent.parent


class PermReading(NamedTuple):
    """Perm(A), its least Coxeter length (the codimension), and whether all
    of its permutations have one length (equidimensionality)."""

    perms: frozenset
    codim: int
    equidimensional: bool

    @classmethod
    def of(cls, perms) -> "PermReading":
        """The reading of a set of permutations, from their lengths."""
        lengths = {w.length for w in perms}
        return cls(frozenset(perms), min(lengths), len(lengths) == 1)


def answered(A: Asm) -> PermReading:
    """perm_set(A), with the codimension and equidimensionality that
    analyze_asm answers."""
    r = analyze_asm(A, ("codim", "equidim"))
    return PermReading(perm_set(A), r.codim, r.equidimensional)


def lex_bits(n: int, indices) -> int:
    """The set of S_n holding the permutations of the given lex indices, as
    asmlab.ideals stores one: bit n! - 1 - k for the k-th permutation, so
    the first in lex order is the highest bit."""
    top = factorial(n) - 1
    return sum(1 << (top - k) for k in indices)


def transpose(A: Asm) -> Asm:
    return Asm(tuple(zip(*A.entries)))


def compose_boundaries(outer, inner) -> dict:
    """Sparse product of two boundary matrices (for the del-del = 0 check)."""
    result: dict[tuple[int, int], int] = {}
    for r, row in enumerate(outer):
        acc: dict[int, int] = {}
        for t, v in row.items():
            for c, w in inner[t].items():
                acc[c] = acc.get(c, 0) + v * w
        for c, v in acc.items():
            if v:
                result[(r, c)] = v
    return result


def fulton_minors(A: Asm) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (rows, cols) of every (rk+1)-minor in the northwest submatrix at
    each essential cell, essential cells in order."""
    ranks = rank_matrix(A)
    minors = []
    for (i, j) in sorted(essential_set(A)):
        k = ranks[i - 1][j - 1] + 1
        for rows in combinations(range(1, i + 1), k):
            for cols in combinations(range(1, j + 1), k):
                minors.append((rows, cols))
    return minors


def antidiagonal(rows, cols) -> frozenset:
    """The cells of the antidiagonal of the minor on rows x cols."""
    return frozenset(zip(rows, reversed(cols)))


def fresh_python(code: str, stdin: bytes = b"", src: Path = SRC) -> str:
    """The output of code run in a fresh interpreter with the asmlab package
    in src on its path, under -S, so that no site hook can load a module
    first."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        input=stdin,
        capture_output=True,
        check=True,
        timeout=60,
    )
    return out.stdout.decode()
