import json

import pytest

from asmlab import (
    Asm,
    Permutation,
    ascii_diagram,
    asm_from_json,
    asm_geq,
    badblock_at,
    badblock_match,
    check_containment_constraints,
    coxeter_length,
    direct_sum,
    dominant_part,
    enumerate_asms,
    essential_set,
    find_pattern,
    insert_unit,
    iter_pattern_witnesses,
    one_plus,
    perm_direct_sum,
    perm_set_naive,
    rank_matrix,
    rothe_diagram,
    validate_asm,
)
from asmlab.errors import (
    AlternationError,
    ColSumError,
    EntryOutOfRangeError,
    IndexOutOfRangeError,
    InvalidWitnessError,
    MalformedInputError,
    NonSquareError,
    RowSumError,
    SizeMismatchError,
)
from asmlab.combinatorics import ContainmentWitness


class TestValidation:
    def test_worked_example_is_valid(self, worked_example):
        assert worked_example.n == 4

    def test_identity_valid(self):
        for n in (1, 2, 5):
            assert validate_asm(Asm.identity(n).entries) == Asm.identity(n)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate_asm([[1, 0], [0, 1], [0, 0]])

    def test_entry_out_of_range(self):
        with pytest.raises(EntryOutOfRangeError):
            validate_asm([[2, -1], [-1, 2]])

    @pytest.mark.parametrize(
        "matrix, cell",
        [
            ([[1.9]], "(1,1)"),
            ([[1.0]], "(1,1)"),
            ([["1"]], "(1,1)"),
            ([[0, 1.0], [1, 0]], "(1,2)"),
            ([[1, 0], [0, None]], "(2,2)"),
        ],
    )
    def test_entry_not_an_integer(self, matrix, cell):
        # no entry is truncated or parsed: int(1.9) would read it as 1
        with pytest.raises(MalformedInputError) as e:
            validate_asm(matrix)
        assert f"at {cell}" in str(e.value)

    @pytest.mark.parametrize("matrix", [5, [1], None, [[1], 2]])
    def test_not_iterable(self, matrix):
        # a matrix or row that cannot be iterated is malformed input, not a
        # bare TypeError
        with pytest.raises(MalformedInputError) as e:
            validate_asm(matrix)
        assert e.value.code == "malformed-input"

    def test_col_sum_checked_first(self):
        # both column 2 and row 2 are wrong; the column must be reported
        with pytest.raises(ColSumError) as e:
            validate_asm([[0, 1], [1, -1]])
        assert "column 2" in str(e.value)
        assert e.value.code == "col-sum-violation"

    def test_row_sum(self):
        with pytest.raises(RowSumError):
            validate_asm([[1, 0, 0], [0, 0, 0], [0, 1, 1]])

    def test_alternation(self):
        with pytest.raises(AlternationError):
            validate_asm([[-1, 1, 1], [1, 0, 0], [1, 0, 0]])

    def test_json_round_trip(self, worked_example):
        blob = json.dumps(worked_example.to_json_dict())
        assert asm_from_json(json.loads(blob)) == worked_example


class TestInvariants:
    def test_rank_matrix_worked_example(self, worked_example):
        assert rank_matrix(worked_example) == (
            (0, 0, 1, 1),
            (1, 1, 1, 2),
            (1, 2, 2, 3),
            (1, 2, 3, 4),
        )

    def test_rank_matrix_identity(self):
        assert rank_matrix(Asm.identity(3)) == ((1, 1, 1), (1, 2, 2), (1, 2, 3))

    def test_rank_matrix_a3(self, a3):
        assert rank_matrix(a3) == ((0, 1, 1), (1, 1, 2), (1, 2, 3))

    def test_rothe_diagram(self, worked_example, a3):
        assert rothe_diagram(worked_example) == {(1, 1), (1, 2), (2, 3)}
        assert rothe_diagram(Asm.identity(4)) == frozenset()
        assert rothe_diagram(a3) == {(1, 1), (2, 2)}

    def test_essential_set(self, worked_example, b4):
        assert essential_set(worked_example) == {(1, 2), (2, 3)}
        assert essential_set(b4) == {(2, 1), (3, 2)}
        assert rothe_diagram(b4) == {(1, 1), (2, 1), (3, 2)}

    def test_dominant_part(self, worked_example, b4):
        assert dominant_part(worked_example) == {(1, 1), (1, 2)}
        assert dominant_part(b4) == {(1, 1), (2, 1)}
        assert dominant_part(Asm.identity(5)) == frozenset()

    def test_subset_relations(self, worked_example, b4, b5):
        for A in (worked_example, b4, b5):
            D = rothe_diagram(A)
            assert essential_set(A) <= D
            assert dominant_part(A) <= D


class TestPermutations:
    def test_coxeter_lengths(self):
        assert coxeter_length(Permutation((4, 5, 2, 1, 3))) == 7
        assert coxeter_length(Permutation((3, 4, 5, 1, 2))) == 6
        assert coxeter_length(Permutation(tuple(range(1, 7)))) == 0

    def test_str(self):
        assert str(Permutation((4, 5, 2, 1, 3))) == "45213"


class TestOrder:
    def test_geq_reflexive_and_identity(self, a3):
        assert asm_geq(a3, a3)
        assert asm_geq(Permutation((3, 1, 2)).to_asm(), a3)
        for A in (a3, Asm.identity(3)):
            assert asm_geq(A, Asm.identity(3))

    def test_size_mismatch(self, a3, b4):
        with pytest.raises(SizeMismatchError):
            asm_geq(a3, b4)

    def test_perm_set_naive(self, a3, b4, b5):
        assert {str(w) for w in perm_set_naive(a3)} == {"312", "231"}
        assert {str(w) for w in perm_set_naive(b4)} == {"3412", "2341"}
        assert {str(w) for w in perm_set_naive(b5)} == {"45213", "34512", "35241"}

    def test_perm_set_of_permutation_is_singleton(self):
        w = Permutation((2, 3, 1))
        assert perm_set_naive(w.to_asm()) == {w}

    def test_perm_set_naive_memoizes_only_a(self):
        """The oracle builds the rank rows of S_n itself and reads
        rank_matrix only for A, so a call adds at most one memo entry, not
        one per permutation: checked on every 25th ASM(6)."""
        rank_matrix.cache_clear()
        for A in list(enumerate_asms(6))[::25]:
            size = rank_matrix.cache_info().currsize
            perm_set_naive(A)
            assert rank_matrix.cache_info().currsize <= size + 1


class TestConstructions:
    def test_direct_sum(self, a3):
        S = direct_sum(Asm.identity(1), Asm.identity(3))
        assert S == Asm.identity(4)
        T = direct_sum(Asm.identity(1), a3)
        assert T.entries[0] == (1, 0, 0, 0)
        assert T.entries[2][1:] == a3.entries[1]

    def test_perm_direct_sum(self):
        u, v = Permutation((2, 1)), Permutation((1, 3, 2))
        assert perm_direct_sum(u, v).one_line == (2, 1, 3, 5, 4)

    def test_insert_unit_widetilde(self, a3, b4):
        assert insert_unit(a3, 2, 3) == b4
        assert insert_unit(Asm.identity(3), 1, 1) == Asm.identity(4)

    def test_insert_unit_b5(self, b5, a6):
        assert insert_unit(b5, 4, 3) == a6

    def test_insert_then_delete(self, a3):
        for i in range(1, 5):
            for j in range(1, 5):
                rows = insert_unit(a3, i, j).entries
                kept = tuple(row[: j - 1] + row[j:] for row in rows[: i - 1] + rows[i:])
                assert kept == a3.entries

    def test_insert_out_of_range(self, a3):
        with pytest.raises(IndexOutOfRangeError):
            insert_unit(a3, 5, 1)

    def test_one_plus(self, a3):
        assert one_plus(a3) == insert_unit(a3, 1, 1)


class TestContainment:
    def test_find_pattern_witness(self, a6, b5):
        w = find_pattern(a6, b5)
        assert w.kept_rows == (1, 2, 3, 5, 6)
        assert w.kept_cols == (1, 2, 4, 5, 6)

    def test_identity_witness(self, b4):
        w = find_pattern(b4, b4)
        assert w.kept_rows == (1, 2, 3, 4)
        report = check_containment_constraints(b4, b4, w)
        assert report.k == 0 and report.ok

    def test_avoidance(self):
        swap = validate_asm([[0, 1], [1, 0]])
        assert find_pattern(Asm.identity(3), swap) is None

    def test_constraints_on_example(self, a6, b5):
        w = find_pattern(a6, b5)
        report = check_containment_constraints(a6, b5, w)
        assert report.k == 1
        assert report.deleted_rows == (4,) and report.deleted_cols == (3,)
        assert report.entry_sum == 1 and report.ok

    def test_all_witnesses_satisfy_constraints(self, a6, b5, b4, a3):
        for target, pattern in ((a6, b5), (b4, a3)):
            for w in iter_pattern_witnesses(target, pattern):
                assert check_containment_constraints(target, pattern, w).ok

    def test_invalid_witness(self, a6, b5):
        with pytest.raises(InvalidWitnessError):
            check_containment_constraints(
                a6, b5, ContainmentWitness((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
            )


class TestBadblock:
    def test_figure_example(self, badblock8):
        assert badblock_match(badblock8) == (4, 2)

    def test_identity_absent(self):
        assert badblock_match(Asm.identity(6)) is None

    def test_b4_nonstrict_vs_strict(self, b4):
        assert badblock_match(b4) == (3, 1)
        assert badblock_at(b4, 3, 1)


class TestAsciiDiagram:
    def test_worked_example(self, worked_example):
        assert ascii_diagram(worked_example).split("\n") == [
            "D E * .",
            "* . o *",
            ". * . .",
            ". . * .",
        ]
