import os
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from asmlab import (
    Asm,
    Permutation,
    analyze_asm,
    chain_complex,
    enumerate_asms,
    hochster_depth,
    init_ideal,
    is_cohen_macaulay,
    one_plus,
    reduced_betti,
    sparse_rank,
    sr_complex_from_ideal,
    verify_statement,
)
from asmlab import homology
from asmlab.errors import FaceBudgetExceededError, InvalidFieldError, SizeBoundExceededError
from asmlab.complexes import asm_complex, perm_facets, perm_vd, vd_facets
from asmlab.enumeration import ALL_CHECKS
from asmlab.homology import cascade_is_cm, complex_is_cm, parse_field
from asmlab.ideals import is_pure_family
from helpers import compose_boundaries
from test_complexes import vd_facets_oracle


def stretch(what):
    return pytest.mark.skipif(
        os.environ.get("ASMLAB_STRETCH") != "1",
        reason=f"{what}; set ASMLAB_STRETCH=1 to run",
    )


def facets(*sets):
    """A facet list of masks, vertex v being bit v."""
    return frozenset(sum(1 << v for v in set(s)) for s in sets)


TRIANGLE_BOUNDARY = facets({1, 2}, {1, 3}, {2, 3})
SPHERE = facets({1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4})
# 6-vertex triangulation of the real projective plane
RP2 = facets(
    {1, 2, 3},
    {1, 2, 4},
    {1, 3, 5},
    {1, 4, 6},
    {1, 5, 6},
    {2, 3, 6},
    {2, 4, 5},
    {2, 5, 6},
    {3, 4, 5},
    {3, 4, 6},
)


class TestSparseRank:
    def test_identity(self):
        rows = [{i: 1} for i in range(5)]
        assert sparse_rank(rows) == 5

    def test_zero(self):
        assert sparse_rank([{}, {}]) == 0

    def test_dependent_rows(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 1, 1: 3}]
        assert sparse_rank(rows) == 2

    def test_no_unit_pivot(self):
        # rank over Q differs from naive mod-2 computation
        rows = [{0: 2, 1: 2}, {0: 2, 1: 4}]
        assert sparse_rank(rows) == 2
        assert sparse_rank(rows, p=2) == 0

    def test_mod_p(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + 7}]
        assert sparse_rank(rows, p=7) == 1
        assert sparse_rank(rows) == 2


def sparse_rank_with_a_scan_per_pivot(rows, p=0):
    """sparse_rank as it was before the pivot search moved into the
    reduction pass: a separate min() scan finds each pivot row (oracle)."""
    work = []
    for r in rows:
        r = {c: v % p for c, v in r.items() if v % p} if p else {c: v for c, v in r.items() if v}
        if r:
            work.append(r)
    rank = 0
    while work:
        pivot_row = work.pop(min(range(len(work)), key=lambda i: len(work[i])))
        if p:
            c, pv = next(iter(pivot_row.items()))
        else:
            c, pv = min(pivot_row.items(), key=lambda kv: (abs(kv[1]) != 1, abs(kv[1])))
        rank += 1
        reduced = []
        for r in work:
            v = r.get(c)
            if v is None:
                reduced.append(r)
                continue
            if p:
                scale, f = 1, v * pow(pv, -1, p) % p
            elif v % pv == 0:
                scale, f = 1, v // pv
            else:
                scale, f = pv, v
            new = {col: scale * val for col, val in r.items()}
            for col, val in pivot_row.items():
                t = new.get(col, 0) - f * val
                if p:
                    t %= p
                if t:
                    new[col] = t
                else:
                    new.pop(col, None)
            if new:
                reduced.append(new)
        work = reduced
    return rank


@given(
    st.lists(st.dictionaries(st.integers(0, 7), st.integers(-4, 4), max_size=6), max_size=10),
    st.sampled_from([0, 2, 3, 7]),
)
def test_sparse_rank_equals_a_scan_per_pivot(rows, p):
    assert sparse_rank(rows, p) == sparse_rank_with_a_scan_per_pivot(rows, p)


class TestChainComplex:
    def test_triangle_counts(self):
        cc = chain_complex(TRIANGLE_BOUNDARY)
        assert cc.dims == (1, 3, 3)

    def test_boundary_squared_zero(self):
        for f in (TRIANGLE_BOUNDARY, SPHERE, RP2):
            cc = chain_complex(f)
            for k in range(1, len(cc.boundaries)):
                assert compose_boundaries(cc.boundaries[k - 1], cc.boundaries[k]) == {}

    def test_face_budget(self, monkeypatch):
        monkeypatch.setattr(homology, "FACE_BUDGET", 4)
        with pytest.raises(FaceBudgetExceededError):
            chain_complex(SPHERE)


class TestReducedHomology:
    def test_circle(self):
        assert reduced_betti(TRIANGLE_BOUNDARY) == (0, 0, 1)

    def test_simplex(self):
        assert all(b == 0 for b in reduced_betti(facets({1, 2, 3, 4})))

    def test_sphere(self):
        assert reduced_betti(SPHERE) == (0, 0, 0, 1)

    def test_empty_complex(self):
        # the void-ish complex with only the empty face
        assert reduced_betti(facets(set())) == (1,)

    def test_b4_disconnected(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        assert reduced_betti(delta.facets)[1] == 1  # dimension 0: two components

    def test_rp2_torsion(self):
        assert reduced_betti(RP2) == (0, 0, 0, 0)
        assert reduced_betti(RP2, 2) == (0, 0, 1, 1)

    def test_euler_relation(self):
        for f in (TRIANGLE_BOUNDARY, SPHERE, RP2):
            cc = chain_complex(f)
            euler_faces = sum((-1) ** k * d for k, d in enumerate(cc.dims))
            euler_betti = sum((-1) ** k * b for k, b in enumerate(reduced_betti(f)))
            assert euler_faces == euler_betti


class TestCohenMacaulay:
    def test_field_dependence_rp2(self):
        assert complex_is_cm(RP2)
        assert not complex_is_cm(RP2, p=2)

    def test_examples(self, non_km_gvd, b4, b5, a6):
        assert is_cohen_macaulay(non_km_gvd)
        assert not is_cohen_macaulay(b4)
        assert not is_cohen_macaulay(b5)
        assert is_cohen_macaulay(a6)

    def test_permutations_always_cm(self):
        from itertools import permutations

        from asmlab import Permutation

        for p in permutations(range(1, 5)):
            assert is_cohen_macaulay(Permutation(p).to_asm())

    def test_identity(self):
        assert is_cohen_macaulay(Asm.identity(5))

    def test_cm_implies_equidimensional_n4(self):
        for A in enumerate_asms(4):
            if is_cohen_macaulay(A):
                assert analyze_asm(A, ("equidim",)).equidimensional


class TestCascade:
    def test_matches_reisner_on_asm4_and_one_plus(self):
        checked = 0
        for n in range(1, 5):
            for A in enumerate_asms(n):
                for B in (A, one_plus(A)):
                    delta = sr_complex_from_ideal(init_ideal(B))
                    for field, p in (("rational", 0), (2, 2)):
                        assert is_cohen_macaulay(B, field=field) == complex_is_cm(
                            delta.facets, p
                        )
                    checked += 1
        assert checked == 104

    def test_rp2_left_to_homology(self):
        # every mask is a set of grid cells, so the KM order applies to RP2
        assert vd_facets(RP2) == vd_facets_oracle(RP2) == (False, False)
        assert cascade_is_cm(RP2)
        assert not cascade_is_cm(RP2, p=2)

    def test_non_pure_rejected(self):
        assert not cascade_is_cm(facets({1, 2}, {3}))


def left_open(r):
    """Whether Perm(A) leaves CM and KM-vd to the complex, for
    r = analyze_asm(A, ("equidim",)): one length and more than one
    permutation.  Otherwise both answers are r.equidimensional."""
    return r.equidimensional and r.perm_count > 1


class TestDecidedByPerms:
    """analyze_asm lets Perm(A) settle CM and KM-vd with no complex when its
    permutations have more than one length, or when it is one permutation;
    checked against the cascade and the vd search on the complex itself.
    Otherwise a cold analysis builds the complex once, and a repeat, over
    any field, builds none (perm_vd's memo, emptied per ASM here), but for
    the CM answer of a complex that is not vd, which builds it again for
    Reisner's criterion."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=stretch("all of ASM(6)"))])
    def test_matches_the_complex(self, n, calls_through):
        # 1 + A only below n = 6: the 7436 complexes of 1 + A in ASM(7) take
        # minutes
        built = calls_through(perm_facets)
        for A in enumerate_asms(n):
            for B in (A, one_plus(A)) if n < 6 else (A,):
                walk = analyze_asm(B, ("equidim",))
                facets = asm_complex(B).facets
                vd, km_vd = vd_facets(facets)
                perm_vd.cache_clear()
                for field, p in (("rational", 0), ("p=2", 2)):
                    cm = cascade_is_cm(facets, p)
                    built.clear()
                    r = analyze_asm(B, field=field)
                    assert (r.cm, r.km_vd) == (cm, km_vd)
                    # built cold over Q, not again over GF(2), and once more
                    # per field for Reisner when not vd
                    assert len(built) == left_open(walk) * ((p == 0) + (not vd))
                    if not left_open(walk):
                        assert (r.cm, r.km_vd) == (walk.equidimensional,) * 2
                    assert is_cohen_macaulay(B, field) == cm

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=stretch("all of S_7"))])
    def test_permutations_km_vd(self, n, calls_through):
        built = calls_through(perm_facets)
        for line in permutations(range(1, n + 1)):
            A = Permutation(line).to_asm()
            assert vd_facets(asm_complex(A).facets) == (True, True)
            built.clear()
            r = analyze_asm(A, ("cm", "km_vd"))
            assert (r.cm, r.km_vd) == (True, True)
            assert built == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pure_exactly_when_equidimensional(self, n, calls_through):
        # and what Perm(A) decides, the fixed-order search agrees with
        built = calls_through(perm_facets)
        for A in enumerate_asms(n):
            walk = analyze_asm(A, ("equidim",))
            facets = asm_complex(A).facets
            assert is_pure_family(facets) == walk.equidimensional
            perm_vd.cache_clear()
            built.clear()
            km_vd = analyze_asm(A, ("km_vd",)).km_vd
            assert km_vd == vd_facets(facets)[1]
            assert len(built) == left_open(walk)
            # a repeat over another field builds none
            assert analyze_asm(A, ("km_vd",), "p=2").km_vd == km_vd
            assert len(built) == left_open(walk)
            if not walk.equidimensional:
                assert km_vd is False

    def test_field_checked_when_decided(self, b4, calls_through):
        # a bad field is rejected whatever the checks, none included
        built = calls_through(perm_facets)
        w = Permutation((2, 1, 3)).to_asm()
        subsets = [c for k in range(5) for c in combinations(ALL_CHECKS, k)]
        for A, answer in ((b4, False), (w, True), (Asm.identity(3), True)):
            r = analyze_asm(A, ("cm", "km_vd"))
            assert (r.cm, r.km_vd) == (answer, answer)
            for field in ("p=4", "banana"):
                for checks in subsets:
                    with pytest.raises(InvalidFieldError):
                        analyze_asm(A, checks, field=field)
                with pytest.raises(InvalidFieldError):
                    is_cohen_macaulay(A, field)
        assert built == []


class TestParseField:
    def test_prime_field_proved_once(self, monkeypatch):
        assert parse_field(2) == parse_field(2) == 2
        assert parse_field("p=3") == 3
        homology._known_prime_field.cache_clear()
        assert parse_field(5) == 5

        def boom(p):
            raise AssertionError("a field seen before is not proved prime again")

        monkeypatch.setattr(homology, "_is_prime", boom)
        assert parse_field(5) == 5

    @pytest.mark.parametrize("field", [[2], b"p=2", -3, 4, "p=4", 2.0, True])
    def test_malformed_field_raises_every_time(self, field):
        # 2.0 equals the int 2 that an earlier call accepted
        assert parse_field(2) == 2
        for _ in range(2):
            with pytest.raises(InvalidFieldError):
                parse_field(field)


class TestHochsterBackend:
    def test_depth_of_disconnected(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        depth = hochster_depth(delta.facets, delta.vertex_universe)
        assert depth == 1  # disconnected, so depth 1 < dim + 1 = 2

    def test_agrees_on_asm3(self):
        for A in enumerate_asms(3):
            delta = sr_complex_from_ideal(init_ideal(A))
            depth = hochster_depth(delta.facets, delta.vertex_universe)
            assert is_cohen_macaulay(A) == (depth == delta.dim() + 1)


class TestConjectureScan:
    def test_n3(self):
        report = verify_statement("cm-conjecture", 3)
        assert report.cases == 7 and report.detail["cm_count"] == 7
        assert report.passed

    def test_forward_direction_n4(self):
        report = verify_statement("cm-conjecture", 4)
        assert report.cases == 42 and report.detail["cm_count"] == 39
        assert not [f for f in report.failures if f["kind"] == "forward"]
        assert not [f for f in report.failures if f["kind"] == "converse"]

    def test_scan_bound(self):
        with pytest.raises(SizeBoundExceededError):
            verify_statement("cm-conjecture", 6)

    def test_one_plus_consistency_spotcheck(self, non_km_gvd):
        assert is_cohen_macaulay(one_plus(non_km_gvd))
