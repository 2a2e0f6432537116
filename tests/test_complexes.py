import os

import pytest

from asmlab import (
    Asm,
    DecompositionTrace,
    SimplicialComplex,
    asm_complex,
    enumerate_asms,
    face_subcomplex,
    init_ideal,
    is_cohen_macaulay,
    is_face,
    km_vertex_decomposable,
    minimal_primes,
    one_plus,
    perm_set,
    sr_complex_from_ideal,
    stanley_reisner_ideal,
)
from asmlab.errors import NotAFaceError
from asmlab.complexes import complex_from_primes, link_facets, perm_facets, vd_facets
from asmlab.homology import _all_faces
from asmlab.ideals import bits, cells, is_pure_family, mask, maximal_sets, perm_walk, union
from asmlab.squarefree import SquarefreeIdeal
from functools import cache
from itertools import permutations

from asmlab import Permutation


def m(n, *cell_list):
    """The mask of the given cells of the n x n grid."""
    return mask(cell_list, n)


class TestKmOrder:
    """The lowest set bit of a mask is its greatest cell in the Knutson-Miller
    order z_{1,n} > ... > z_{n,1}: smaller row first, then larger column."""

    def test_greatest_is_top_right(self):
        grid = m(3, *((i, j) for i in range(1, 4) for j in range(1, 4)))
        assert cells(grid & -grid, 3) == {(1, 3)}
        assert cells(1 << (grid.bit_length() - 1), 3) == {(3, 1)}

    def test_total_order(self):
        ordered = [min(cells(v, 3)) for v in bits(m(3, (1, 1), (2, 3), (1, 3), (2, 1)))]
        assert ordered == [(1, 3), (1, 1), (2, 3), (2, 1)]


class TestSrComplex:
    def test_b4(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        assert delta.vertex_universe == m(4, (1, 2), (2, 2), (3, 1))
        assert delta.excluded_vertices == m(4, (1, 1), (2, 1))
        assert delta.facets == {m(4, (1, 2), (2, 2)), m(4, (3, 1))}
        assert (4, 4) in cells(delta.cone_points, 4)

    def test_zero_ideal_is_simplex(self):
        delta = sr_complex_from_ideal(SquarefreeIdeal(3, frozenset()))
        assert delta.facets == {0}
        assert delta.cone_points.bit_count() == 9

    def test_non_km_gvd_pure(self, non_km_gvd):
        delta = sr_complex_from_ideal(init_ideal(non_km_gvd))
        assert is_pure_family(delta.facets)
        assert len(delta.facets) == 3

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            sr_complex_from_ideal(SquarefreeIdeal.make(2, [0]))

    def test_round_trip_asm4(self):
        for A in enumerate_asms(4):
            I = init_ideal(A)
            if not I.gens:
                continue
            delta = sr_complex_from_ideal(I)
            gens = stanley_reisner_ideal(delta).gens | set(bits(delta.excluded_vertices))
            assert gens == I.gens


STRETCH = pytest.mark.skipif(
    os.environ.get("ASMLAB_STRETCH") != "1",
    reason="all of ASM(6); set ASMLAB_STRETCH=1 to run",
)


class TestAsmComplex:
    """The complex built from the pipe dreams of Perm(A) against the one
    built from the minimal primes of init_ideal(A)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=STRETCH)])
    def test_equals_ideal_complex(self, n):
        for A in enumerate_asms(n):
            I = init_ideal(A)
            delta = asm_complex(perm_set(A))
            assert delta == sr_complex_from_ideal(I)
            # the primes give what the generators give
            assert delta.excluded_vertices == sum(g for g in I.gens if g.bit_count() == 1)
            assert delta.cone_points == ((1 << n * n) - 1) & ~I.support()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=STRETCH)])
    def test_facets_from_lex_indices(self, n):
        """The facets analyze_asm reads, built from perm_walk's lex indices,
        against the ideal route: the complex of the minimal primes of
        init_ideal(A)."""
        for A in enumerate_asms(n):
            indices, _ = perm_walk(A)
            primes = minimal_primes(init_ideal(A))
            assert perm_facets(n, indices) == complex_from_primes(n, primes).facets

    def test_b4(self, b4):
        delta = asm_complex(perm_set(b4))
        assert delta.excluded_vertices == m(4, (1, 1), (2, 1))
        assert delta.facets == {m(4, (1, 2), (2, 2)), m(4, (3, 1))}

    def test_identity_is_a_point(self):
        delta = asm_complex(perm_set(Asm.identity(3)))
        assert delta.facets == {0} and delta.vertex_universe == 0
        assert delta.cone_points.bit_count() == 9


def old_link(facets, sigma):
    return maximal_sets(F & ~sigma for F in facets if not sigma & ~F)


def deletion(facets, sigma):
    """The facets of the deletion of sigma, as the package builds them."""
    return maximal_sets(F & ~sigma for F in facets)


class TestLinkDeletion:
    def test_equal_maximalized(self):
        """link_facets, which never maximalizes, against maximalizing its
        result, at every face of every ASM(n <= 5) complex."""
        faces = 0
        for n in range(1, 6):
            for A in enumerate_asms(n):
                facets = asm_complex(perm_set(A)).facets
                for sigma in _all_faces(facets):
                    faces += 1
                    assert link_facets(facets, sigma) == old_link(facets, sigma)
        assert faces == 13432


    def test_deletion_matches_published_decomposition(self, non_km_gvd):
        delta = sr_complex_from_ideal(init_ideal(non_km_gvd))
        deletion = face_subcomplex(delta, m(4, (1, 3)), "deletion")
        # deletion ideal (z12 z31, z22 z31) on the remaining universe
        I = stanley_reisner_ideal(deletion)
        assert I.sorted_gens() == [((1, 2), (3, 1)), ((2, 2), (3, 1))]
        assert not is_pure_family(deletion.facets)
        primes = minimal_primes(I)
        assert {P.bit_count() for P in primes} == {1, 2}

    def test_link_at_empty_face(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        assert face_subcomplex(delta, 0, "link").facets == delta.facets

    def test_link_at_facet(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        link = face_subcomplex(delta, m(4, (3, 1)), "link")
        assert link.facets == {0}

    def test_link_subset_of_deletion(self, non_km_gvd):
        delta = sr_complex_from_ideal(init_ideal(non_km_gvd))
        for v in bits(delta.vertex_universe):
            link = face_subcomplex(delta, v, "link")
            deletion = face_subcomplex(delta, v, "deletion")
            for F in link.facets:
                assert any(not F & ~G for G in deletion.facets)

    def test_not_a_face(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        assert not is_face(delta, m(4, (1, 2), (3, 1)))
        with pytest.raises(NotAFaceError):
            face_subcomplex(delta, m(4, (1, 2), (3, 1)), "link")


class TestKmVertexDecomposability:
    def test_failure_example(self, non_km_gvd):
        trace = km_vertex_decomposable(sr_complex_from_ideal(init_ideal(non_km_gvd)))
        assert not trace.result
        assert trace.failure_vertex == (1, 3)
        assert trace.failure_reason == "NotPure"
        assert trace.path == (((1, 3), "deletion"),)

    def test_simplex(self):
        delta = sr_complex_from_ideal(
            SquarefreeIdeal.make(3, [m(3, (1, 1), (1, 2), (2, 1))])
        )
        assert km_vertex_decomposable(delta).result

    def test_all_s4_matrix_schubert(self):
        for p in permutations(range(1, 5)):
            I = init_ideal(Permutation(p).to_asm())
            if not I.gens:
                continue
            assert km_vertex_decomposable(sr_complex_from_ideal(I)).result

    def test_km_vd_implies_cm_n4(self):
        for A in enumerate_asms(4):
            I = init_ideal(A)
            if not I.gens:
                continue
            if km_vertex_decomposable(sr_complex_from_ideal(I)).result:
                assert is_cohen_macaulay(A)

    def test_impure_fails_immediately(self, b4):
        trace = km_vertex_decomposable(sr_complex_from_ideal(init_ideal(b4)))
        assert not trace.result and trace.failure_reason == "NotPure"

    def test_trace_json(self, non_km_gvd):
        d = km_vertex_decomposable(
            sr_complex_from_ideal(init_ideal(non_km_gvd))
        ).to_json_dict()
        assert d["result"] is False
        assert d["failure_vertex"] == [1, 3]


def km_vd_oracle(facets, memo):
    """The fixed-order test written out on its own, as an oracle: split at
    the greatest vertex (the lowest bit), link first, and give (result,
    failure reason, path of (vertex mask, branch)) memoized in `memo`."""
    if facets in memo:
        return memo[facets]
    answer = True, None, ()
    vertices = 0
    for F in facets:
        vertices |= F
    if len({F.bit_count() for F in facets}) > 1:
        answer = False, "NotPure", ()
    elif vertices:
        v = vertices & -vertices
        for branch, keep in (("link", lambda F: F & v), ("deletion", lambda F: True)):
            shrunk = {F & ~v for F in facets if keep(F)}
            maximal = frozenset(
                F for F in shrunk if not any(F != G and F & G == F for G in shrunk)
            )
            result, reason, path = km_vd_oracle(maximal, memo)
            if not result:
                if path:
                    reason = "RecursiveFailure"
                answer = False, reason, ((v, branch),) + path
                break
    memo[facets] = answer
    return answer


class TestKmVdOracle:
    def test_traces_match_the_oracle(self):
        """km_vertex_decomposable, read off the one vd search, gives the
        oracle's trace on every complex of ASM(n <= 5) and of 1+A."""
        memo = {}
        checked = failures = 0
        for n in range(1, 6):
            for A in enumerate_asms(n):
                for B in (A, one_plus(A)):
                    delta = sr_complex_from_ideal(init_ideal(B))
                    result, reason, path = km_vd_oracle(delta.facets, memo)
                    steps = tuple((min(cells(v, B.n)), branch) for v, branch in path)
                    expected = DecompositionTrace(
                        result, steps[0][0] if steps else None, reason, steps
                    )
                    assert km_vertex_decomposable(delta) == expected
                    checked += 1
                    failures += not result
        assert checked == 962 and failures > 0


@cache
def vd_facets_oracle(facets):
    """The vd search written out plainly, as an oracle: purity checked at
    every step, every deletion built and maximalized, no cone stripped, and
    the vertices tried greatest first, deletion before link."""
    if not is_pure_family(facets):
        return False, False
    if len(facets) <= 1:
        return True, True
    vertices = union(facets)
    for v in bits(vertices):
        deletion_vd, deletion_km = vd_facets_oracle(deletion(facets, v))
        if deletion_vd:
            link_vd, link_km = vd_facets_oracle(link_facets(facets, v))
            if link_vd:
                return True, v == vertices & -vertices and deletion_km and link_km
    return False, False


def open_complexes(n, with_one_plus):
    """The facets of every complex of ASM(n) (and of 1 + A) that Perm(A)
    leaves open: equidimensional, more than one permutation."""
    for A in enumerate_asms(n):
        for B in (A, one_plus(A)) if with_one_plus else (A,):
            ps = perm_set(B)
            if ps.equidimensional and len(ps.perms) > 1:
                yield asm_complex(ps).facets


class TestVdOracle:
    """vd_facets, which strips cone points, skips vertices that do not shed
    and checks purity once, against the plain search."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=STRETCH)])
    def test_open_complexes_links_and_deletions(self, n):
        # the deletions at vertices that do not shed are impure
        checked = impure = 0
        for facets in open_complexes(n, with_one_plus=n < 6):
            families = [facets]
            for v in bits(union(facets)):
                families += [link_facets(facets, v), deletion(facets, v)]
            for family in families:
                assert vd_facets(family) == vd_facets_oracle(family)
                checked += 1
                impure += not is_pure_family(family)
        assert checked == {1: 0, 2: 0, 3: 16, 4: 376, 5: 7954}.get(n, checked)
        assert impure > 0 or n < 4


class TestPurityEquidimensionality:
    def test_matches_prime_heights_n_le_4(self):
        for n in range(2, 5):
            for A in enumerate_asms(n):
                I = init_ideal(A)
                if not I.gens:
                    continue
                delta = sr_complex_from_ideal(I)
                assert is_pure_family(delta.facets) == perm_set(A).equidimensional
