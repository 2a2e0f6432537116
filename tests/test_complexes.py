import pytest

from asmlab import (
    Asm,
    SimplicialComplex,
    enumerate_asms,
    face_subcomplex,
    full_grid_ideal,
    init_ideal,
    is_cohen_macaulay,
    is_face,
    is_pure,
    km_order_key,
    km_vertex_decomposable,
    minimal_primes,
    perm_set_via_primes,
    sr_complex_from_ideal,
    stanley_reisner_ideal,
)
from asmlab.errors import NotAFaceError
from asmlab.ideals import SquarefreeIdeal
from itertools import permutations

from asmlab import Permutation


def fs(*cells):
    return frozenset(cells)


class TestKmOrder:
    def test_greatest_is_top_right(self):
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        assert max(cells, key=km_order_key) == (1, 3)
        assert min(cells, key=km_order_key) == (3, 1)

    def test_total_order(self):
        ordered = sorted(
            [(1, 1), (2, 3), (1, 3), (2, 1)], key=km_order_key, reverse=True
        )
        assert ordered == [(1, 3), (1, 1), (2, 3), (2, 1)]


class TestSrComplex:
    def test_b4(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        assert delta.vertex_universe == fs((1, 2), (2, 2), (3, 1))
        assert delta.excluded_vertices == fs((1, 1), (2, 1))
        assert delta.facets == {fs((1, 2), (2, 2)), fs((3, 1))}
        assert (4, 4) in delta.cone_points

    def test_zero_ideal_is_simplex(self):
        delta = sr_complex_from_ideal(SquarefreeIdeal.zero(3))
        assert delta.facets == {frozenset()}
        assert len(delta.cone_points) == 9

    def test_non_km_gvd_pure(self, non_km_gvd):
        delta = sr_complex_from_ideal(init_ideal(non_km_gvd))
        assert is_pure(delta)
        assert len(delta.facets) == 3

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            sr_complex_from_ideal(SquarefreeIdeal.make(2, [frozenset()]))

    def test_round_trip_asm4(self):
        for A in enumerate_asms(4):
            I = init_ideal(A)
            if I.is_zero:
                continue
            assert full_grid_ideal(sr_complex_from_ideal(I)).gens == I.gens

    def test_json(self, b4):
        d = sr_complex_from_ideal(init_ideal(b4)).to_json_dict()
        assert d["vertices"] == ["z_1_2", "z_2_2", "z_3_1"]
        assert ["z_3_1"] in d["facets"]


class TestLinkDeletion:
    def test_deletion_matches_published_decomposition(self, non_km_gvd):
        delta = sr_complex_from_ideal(init_ideal(non_km_gvd))
        deletion = face_subcomplex(delta, fs((1, 3)), "deletion")
        # deletion ideal (z12 z31, z22 z31) on the remaining universe
        I = stanley_reisner_ideal(deletion)
        assert I.sorted_gens() == [((1, 2), (3, 1)), ((2, 2), (3, 1))]
        assert not is_pure(deletion)
        primes = minimal_primes(I)
        assert {len(P) for P in primes} == {1, 2}

    def test_link_at_empty_face(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        assert face_subcomplex(delta, frozenset(), "link").facets == delta.facets

    def test_link_at_facet(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        link = face_subcomplex(delta, fs((3, 1)), "link")
        assert link.facets == {frozenset()}

    def test_link_subset_of_deletion(self, non_km_gvd):
        delta = sr_complex_from_ideal(init_ideal(non_km_gvd))
        for v in delta.vertex_universe:
            link = face_subcomplex(delta, fs(v), "link")
            deletion = face_subcomplex(delta, fs(v), "deletion")
            for F in link.facets:
                assert any(F <= G for G in deletion.facets)

    def test_not_a_face(self, b4):
        delta = sr_complex_from_ideal(init_ideal(b4))
        assert not is_face(delta, fs((1, 2), (3, 1)))
        with pytest.raises(NotAFaceError):
            face_subcomplex(delta, fs((1, 2), (3, 1)), "link")


class TestKmVertexDecomposability:
    def test_failure_example(self, non_km_gvd):
        trace = km_vertex_decomposable(sr_complex_from_ideal(init_ideal(non_km_gvd)))
        assert not trace.result
        assert trace.failure_vertex == (1, 3)
        assert trace.failure_reason == "NotPure"
        assert trace.path == (((1, 3), "deletion"),)

    def test_simplex(self):
        delta = sr_complex_from_ideal(
            SquarefreeIdeal.make(3, [fs((1, 1), (1, 2), (2, 1))])
        )
        assert km_vertex_decomposable(delta).result

    def test_all_s4_matrix_schubert(self):
        for p in permutations(range(1, 5)):
            I = init_ideal(Permutation(p).to_asm())
            if I.is_zero:
                continue
            assert km_vertex_decomposable(sr_complex_from_ideal(I)).result

    def test_km_vd_implies_cm_n4(self):
        for A in enumerate_asms(4):
            I = init_ideal(A)
            if I.is_zero:
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


class TestPurityEquidimensionality:
    def test_matches_prime_heights_n_le_4(self):
        for n in range(2, 5):
            for A in enumerate_asms(n):
                I = init_ideal(A)
                if I.is_zero:
                    continue
                delta = sr_complex_from_ideal(I)
                assert is_pure(delta) == perm_set_via_primes(A).equidimensional
