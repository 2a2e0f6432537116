"""Exact reduced simplicial homology and the Cohen-Macaulayness of a complex.

Homology is computed over the rationals (exact integer elimination; no
floating point) or over a prime field.  A complex is given by its facets,
masks in the layout of `complexes` with their vertices in ascending bit order.
Reisner's link-vanishing criterion (`complex_is_cm`) decides
Cohen-Macaulayness over Q (p = 0) or GF(p), rejecting a non-pure complex
at once; it memoizes on the family with its cone points stripped and the
field, so a complex asked about again over one field costs a purity
check, the strip and one lookup.  Hochster's depth formula over all
induced subcomplexes (`hochster_depth`) is its oracle.

This module holds what only a complex that is not vertex decomposable
reaches: a vd complex is CM over every field (Provan-Billera), so once
the vd search (complexes) has answered yes, no homology is needed, and
`analyze_asm` runs that search only on an ASM whose CM answer gluing left
undecided.  So the package loads it at the first use of one of its names,
or at the first such complex found not vd.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .complexes import (
    bits,
    is_pure_family,
    link_facets,
    maximal_sets,
    strip_apex,
    submasks,
    union,
)
from .errors import FaceBudgetExceededError
from .ideals import MEMO_SIZE

FACE_BUDGET = 2**24  # the most faces chain_complex builds


# -- exact ranks --------------------------------------------------------------


def sparse_rank(rows, p: int = 0) -> int:
    """Rank of an integer matrix given as dict-rows {col: value}.

    p == 0 computes the rank over the rationals by integer row operations
    (rows may be scaled by nonzero integers, which preserves rank); p > 0
    works modulo the prime p.
    """
    work, pi = [], 0  # the rows left, and the index of the first shortest one
    for r in rows:
        if p:
            r = {c: v % p for c, v in r.items() if v % p}
        else:
            r = {c: v for c, v in r.items() if v}
        if r:
            if work and len(r) < len(work[pi]):
                pi = len(work)
            work.append(r)
    rank = 0
    while work:
        # the first shortest row is the pivot row; prefer a unit pivot over Z
        pivot_row = work.pop(pi)
        if p:
            c, pv = next(iter(pivot_row.items()))
        else:
            c, pv = min(
                pivot_row.items(), key=lambda kv: (abs(kv[1]) != 1, abs(kv[1]))
            )
        rank += 1
        reduced, pi = [], 0
        for r in work:
            v = r.get(c)
            if v is not None:
                # r becomes scale * r - f * pivot_row, which is 0 in column c
                if p:
                    scale, f = 1, v * pow(pv, -1, p) % p
                elif v % pv == 0:
                    scale, f = 1, v // pv
                else:
                    scale, f = pv, v
                r = {col: scale * val for col, val in r.items()} if scale != 1 else dict(r)
                for col, val in pivot_row.items():
                    t = r.get(col, 0) - f * val
                    if p:
                        t %= p
                    if t:
                        r[col] = t
                    else:
                        r.pop(col, None)
                if not r:
                    continue
            if reduced and len(r) < len(reduced[pi]):
                pi = len(reduced)
            reduced.append(r)
        work = reduced
    return rank


# -- chain complexes -----------------------------------------------------------


class ChainComplex(NamedTuple):
    """Face counts per dimension (from -1 up) and boundary matrices.

    boundaries[k] is the matrix of the map from dimension-k chains to
    dimension-(k-1) chains, stored as dict-rows indexed by (k-1)-faces.
    """

    dims: tuple[int, ...]
    boundaries: tuple


def _all_faces(facets) -> set[int]:
    """Every face: the submasks of the facets, the empty face 0 included."""
    return {0}.union(*map(submasks, facets))


def chain_complex(facets) -> ChainComplex:
    """Full simplicial chain complex with the augmentation map included."""
    if sum(2 ** F.bit_count() for F in facets) > FACE_BUDGET:
        raise FaceBudgetExceededError("complex exceeds the face budget")
    by_dim: dict[int, list[int]] = {}  # every dimension from -1 up has a face
    for f in sorted(_all_faces(facets)):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    index = {d: {f: i for i, f in enumerate(faces)} for d, faces in by_dim.items()}
    dims = tuple(len(by_dim[d]) for d in sorted(by_dim))
    boundaries = []
    for d in range(len(dims) - 1):
        rows = [dict() for _ in by_dim[d - 1]]
        lower = index[d - 1]
        for col, face in enumerate(by_dim[d]):
            for v in bits(face):
                # the sign is (-1)**(the number of the face's vertices before v)
                rows[lower[face ^ v]][col] = -1 if (face & (v - 1)).bit_count() & 1 else 1
        boundaries.append(tuple(rows))
    return ChainComplex(dims, tuple(boundaries))


def reduced_betti(facets, p: int = 0) -> tuple[int, ...]:
    """The reduced Betti numbers of a complex given by its facets, over Q
    (p = 0) or GF(p), indexed from dimension -1 upward."""
    cc = chain_complex(facets)
    # dims[i] counts the faces of dimension i - 1, and boundaries[i] maps
    # dimension i to i - 1, so ranks[i] and ranks[i + 1] leave and enter dims[i]
    ranks = [0, *(sparse_rank(b, p) for b in cc.boundaries), 0]
    return tuple(count - ranks[i] - ranks[i + 1] for i, count in enumerate(cc.dims))


# -- Cohen-Macaulayness --------------------------------------------------------

def complex_is_cm(facets, p: int = 0) -> bool:
    """Reisner's link-vanishing criterion with cone reduction and
    memoization.

    Requires purity, strips the common apex, checks that reduced homology
    vanishes below the top dimension, then recurses into vertex links.  A
    family that is not pure is rejected as given, and a pure one is an
    antichain, as link_facets needs.
    """
    facets = frozenset(facets)
    if not facets:
        return True
    if not is_pure_family(facets):
        return False
    facets = strip_apex(facets)
    if facets == {0}:
        return True
    return _coneless_is_cm(facets, p)


@lru_cache(maxsize=MEMO_SIZE)
def _coneless_is_cm(facets: frozenset, p: int) -> bool:
    """complex_is_cm on a pure complex with no cone point and some vertex."""
    top = max(F.bit_count() for F in facets) - 1
    betti = reduced_betti(facets, p)
    if any(betti[d + 1] for d in range(-1, top)):
        return False
    return all(complex_is_cm(link_facets(facets, v), p) for v in bits(union(facets)))


def hochster_depth(facets, universe, p: int = 0) -> int:
    """Depth from induced-subcomplex homology over all submasks of the
    universe (Hochster's formula); an oracle, exponential in the vertex count."""
    pd = 0
    for W in submasks(universe):
        sub = maximal_sets(F & W for F in facets)
        betti = reduced_betti(sub, p)
        for idx, b in enumerate(betti):
            if b:
                pd = max(pd, W.bit_count() - idx)  # homological degree |W| - d - 1, d = idx - 1
    return universe.bit_count() - pd
