"""Exact reduced simplicial homology and the Cohen-Macaulayness of a complex.

Homology is computed over the rationals (exact integer elimination; no
floating point) or over a prime field.  A complex is given by its facets,
masks in the layout of `ideals` with their vertices in ascending bit order.
`cascade_is_cm` runs homology only when no certificate settles the
question: a vertex decomposable complex (one search, greatest vertex first)
is shellable and so CM over every field (Provan-Billera); the rest go
through Reisner's link-vanishing criterion, which rejects a non-pure complex
at once.  Reisner's criterion on its own (`complex_is_cm`) and Hochster's
depth formula over all induced subcomplexes (`hochster_depth`) are the
oracles the cascade is checked against.  The cascade keeps no memo of its
own: the vd search's is keyed on the coneless family (complexes), and
Reisner's on the coneless family and the field, so a complex asked about
again over one field costs two lookups.  An ASM's vd answers are memoized
by Perm(A) before any complex is built (complexes.perm_vd), so only an
ASM whose complex is not vd reaches the cascade.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .complexes import MEMO_SIZE, link_facets, vd_facets
from .errors import FaceBudgetExceededError, InvalidFieldError
from .ideals import bits, is_pure_family, maximal_sets, strip_apex, submasks, union

FACE_BUDGET = 2**24  # the most faces chain_complex builds


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, exact below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    xs = (pow(b, (p - 1) >> s, p) for b in bases)
    return all(x == 1 or any(pow(x, 2**r, p) == p - 1 for r in range(s)) for x in xs)


def _prime_field(field) -> int:
    """The p of a field given as a prime p or as the text "p=<p>"."""
    text = field if isinstance(field, str) else f"p={field}"
    digits = text[2:] if text.startswith("p=") else ""
    if not (digits.isdecimal() and _is_prime(int(digits))):
        raise InvalidFieldError(f"field must be 'rational' or 'p=<prime>', got {field!r}")
    return int(digits)


# A GF(p) census parses its field once per analyze_asm, so each int or str
# field is proved prime once.  Other types are parsed every time: 2.0
# equals the key 2, and a list has no hash.
_known_prime_field = lru_cache(maxsize=2**8)(_prime_field)


def parse_field(field) -> int:
    """The characteristic of a coefficient field: 0 for Q, given as
    "rational", None or 0, else a prime p given as an int or as the text
    "p=<p>"."""
    if field in ("rational", None, 0):
        return 0
    if type(field) is int or type(field) is str:
        return _known_prime_field(field)
    return _prime_field(field)


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
    memoization; the oracle the cascade is checked against.

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


def cascade_is_cm(facets, p: int = 0) -> bool:
    """Cohen-Macaulayness of a complex (facet masks) over Q (p = 0) or
    GF(p): vertex decomposable (a certificate over every field), else
    Reisner's criterion, the only step that depends on p.  Both steps answer
    False at once for a family that is not pure, so the families they
    recurse on are antichains."""
    facets = frozenset(facets)
    return vd_facets(facets)[0] or complex_is_cm(facets, p)
