import os
import random
import signal
import sys
import threading
from functools import cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from asmlab import (
    Asm,
    Permutation,
    analyze_asm,
    asm_geq,
    construct_yo_primes,
    enumerate_asms,
    ideal_colon,
    ideal_intersection,
    init_ideal,
    is_minimal_prime,
    minimal_primes,
    minimal_primes_bruteforce,
    natural_init_ideal,
    one_plus,
    perm_from_prime,
    perm_set,
    perm_set_naive,
    pipe_dreams,
    rank_matrix,
    validate_asm,
    yo_induction_states,
)
from asmlab import ideals
from asmlab.enumeration import _next_rows
from asmlab.errors import (
    NonReducedWordError,
    NotBadblockError,
    SizeBoundExceededError,
    SizeMismatchError,
    SupportViolationError,
)
from asmlab.asm import lex_rank, lex_unrank
from asmlab.complexes import cells, lex_pipe_dreams, mask
from asmlab.ideals import (
    PERM_TABLE_BOUND,
    UPSET_MEMO_SIZE,
    _fill,
    _lex_table,
    _row_upset,
    perm_walk,
)
from asmlab.squarefree import SquarefreeIdeal, cell_label
from helpers import PermReading, answered, antidiagonal, fulton_minors, lex_bits


ASMS_UPTO_6 = {n: list(enumerate_asms(n)) for n in range(1, 7)}


def fs(*cell_list):
    return frozenset(cell_list)


def m(n, *cell_list):
    """The mask of the given cells of the n x n grid."""
    return mask(cell_list, n)


class TestLabels:
    def test_cell_label_round_trip(self):
        assert cell_label((2, 13)) == "z_2_13"


class TestCodec:
    def test_round_trip_every_cell_n_le_8(self):
        for n in range(1, 9):
            grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            for b, cell in enumerate(sorted(grid, key=lambda c: (c[0], -c[1]))):
                assert mask([cell], n) == 1 << b
                assert cells(1 << b, n) == {cell}
            assert mask(grid, n) == (1 << n * n) - 1
            assert cells((1 << n * n) - 1, n) == set(grid)
            assert mask([], n) == 0 and cells(0, n) == frozenset()

    def test_generators_are_antidiagonals_in_the_mask_layout(self, worked_example):
        gens = init_ideal(worked_example).gens
        assert {cells(g, 4) for g in gens} == {
            fs((1, 1)),
            fs((1, 2)),
            fs((1, 3), (2, 1)),
            fs((1, 3), (2, 2)),
        }
        # the cell-side Fulton minors, encoded, give the same ideal
        for n in range(1, 5):
            for A in enumerate_asms(n):
                encoded = (mask(antidiagonal(*minor), n) for minor in fulton_minors(A))
                assert init_ideal(A).gens == SquarefreeIdeal.make(n, encoded).gens


class TestFultonGenerators:
    def test_worked_example_specs(self, worked_example):
        minors = fulton_minors(worked_example)
        assert len(minors) == 5
        sizes = sorted(len(rows) for rows, _ in minors)
        assert sizes == [1, 1, 2, 2, 2]

    def test_identity_has_none(self):
        assert fulton_minors(Asm.identity(4)) == []

    def test_a3_specs(self, a3):
        assert sorted(fulton_minors(a3)) == [
            ((1,), (1,)),
            ((1, 2), (1, 2)),
        ]

    def test_antidiagonal(self):
        assert antidiagonal((1, 2), (1, 3)) == fs((1, 3), (2, 1))


class TestInitIdeal:
    def test_worked_example(self, worked_example):
        assert init_ideal(worked_example).sorted_gens() == [
            ((1, 1),),
            ((1, 2),),
            ((1, 3), (2, 1)),
            ((1, 3), (2, 2)),
        ]

    def test_non_km_gvd(self, non_km_gvd):
        assert init_ideal(non_km_gvd).sorted_gens() == [
            ((1, 1),),
            ((1, 2), (3, 1)),
            ((1, 3), (2, 2)),
            ((2, 1),),
            ((2, 2), (3, 1)),
        ]

    def test_identity_zero(self):
        assert not init_ideal(Asm.identity(5)).gens

    def test_a3(self, a3):
        assert init_ideal(a3).sorted_gens() == [((1, 1),), ((1, 2), (2, 1))]

    def test_natural_oracle_n_le_4(self):
        for n in range(1, 5):
            for A in enumerate_asms(n):
                assert natural_init_ideal(A).gens == init_ideal(A).gens


class TestIdealArithmetic:
    def test_intersection_perm_split(self):
        I312 = init_ideal(Permutation((3, 1, 2)).to_asm())
        I231 = init_ideal(Permutation((2, 3, 1)).to_asm())
        assert I312.sorted_gens() == [((1, 1),), ((1, 2),)]
        assert I231.sorted_gens() == [((1, 1),), ((2, 1),)]
        meet = ideal_intersection(I312, I231)
        assert meet.sorted_gens() == [((1, 1),), ((1, 2), (2, 1))]

    def test_intersection_idempotent(self, b4):
        I = init_ideal(b4)
        assert ideal_intersection(I, I).gens == I.gens

    def test_b4_split(self, b4):
        I3412 = init_ideal(Permutation((3, 4, 1, 2)).to_asm())
        I2341 = init_ideal(Permutation((2, 3, 4, 1)).to_asm())
        assert ideal_intersection(I3412, I2341).gens == init_ideal(b4).gens

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            ideal_intersection(SquarefreeIdeal(3, frozenset()), SquarefreeIdeal(4, frozenset()))

    def test_colon(self, non_km_gvd):
        I = init_ideal(non_km_gvd)
        colon = ideal_colon(I, m(4, (1, 3)))
        assert colon.sorted_gens() == [
            ((1, 1),),
            ((1, 2), (3, 1)),
            ((2, 1),),
            ((2, 2),),
        ]
        assert ideal_colon(I, 0).gens == I.gens
        assert ideal_colon(I, m(4, (1, 1))).is_unit


class TestMinimalPrimes:
    def test_b4_primes(self, b4):
        primes = minimal_primes(init_ideal(b4))
        assert primes == {
            m(4, (1, 1), (2, 1), (3, 1)),
            m(4, (1, 1), (2, 1), (1, 2), (2, 2)),
        }

    def test_principal(self):
        I = SquarefreeIdeal.make(2, [m(2, (1, 1))])
        assert minimal_primes(I) == {m(2, (1, 1))}

    def test_non_km_gvd_primes_pure(self, non_km_gvd):
        primes = minimal_primes(init_ideal(non_km_gvd))
        assert len(primes) == 3
        assert {P.bit_count() for P in primes} == {4}

    def test_zero_ideal(self):
        assert minimal_primes(SquarefreeIdeal(3, frozenset())) == {0}

    def test_matches_bruteforce(self):
        for n in range(1, 5):
            for A in enumerate_asms(n):
                I = init_ideal(A)
                assert minimal_primes(I) == minimal_primes_bruteforce(I)

    def test_is_minimal_prime(self, b4):
        I = init_ideal(b4)
        assert is_minimal_prime(I, m(4, (1, 1), (2, 1), (3, 1)))
        assert not is_minimal_prime(I, I.support())
        with pytest.raises(SupportViolationError):
            is_minimal_prime(I, m(4, (4, 4)))

    def test_every_prime_passes_criterion(self):
        for A in enumerate_asms(4):
            I = init_ideal(A)
            if not I.gens:
                continue
            for P in minimal_primes(I):
                assert is_minimal_prime(I, P)


def ladder_closure(line) -> set:
    """The reduced pipe dreams of the permutation with one-line form line,
    as cell sets: the bottom pipe dream, row i the cells (i, 1..c_i) for the
    Lehmer code c read off line, closed under ladder moves written on cells
    (Bergeron-Billey)."""
    bottom = frozenset(
        (i, j)
        for i, v in enumerate(line, 1)
        for j in range(1, sum(u < v for u in line[i:]) + 1)
    )
    seen, todo = {bottom}, [bottom]
    while todo:
        D = todo.pop()
        for i, j in D:
            if (i, j + 1) in D:
                continue
            top = i - 1
            while top >= 1 and {(top, j), (top, j + 1)} <= D:
                top -= 1
            if top >= 1 and not {(top, j), (top, j + 1)} & D:
                E = D - {(i, j)} | {(top, j + 1)}
                if E not in seen:
                    seen.add(E)
                    todo.append(E)
    return seen


class TestLexIndex:
    """A permutation is named on the census path by its lex index in S_n."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_unrank_inverts_rank(self, n):
        for k, line in enumerate(permutations(range(1, n + 1))):
            assert lex_unrank(n, k) == line
            assert lex_rank(line) == k

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pipe_dreams_equal_ladder_closure(self, n):
        """The pipe dreams read from k's factorial digits against the ladder
        closure taken from w's one-line form, for every w of S_n; pipe_dreams
        reads the same memo at w's lex rank."""
        for k, line in enumerate(permutations(range(1, n + 1))):
            dreams = lex_pipe_dreams(n, k)
            assert dreams == {mask(D, n) for D in ladder_closure(line)}
            assert pipe_dreams(Permutation(line)) is dreams


class TestPipeDreams:
    def test_known_words(self):
        assert str(perm_from_prime(m(4, (1, 1), (2, 1), (3, 1)), 4)) == "2341"
        assert str(perm_from_prime(m(4, (1, 1), (2, 1), (1, 2), (2, 2)), 4)) == "3412"
        assert perm_from_prime(0, 3) == Permutation(tuple(range(1, 4)))

    def test_length_matches_height(self, b4, b5):
        for A in (b4, b5):
            for P in minimal_primes(init_ideal(A)):
                assert perm_from_prime(P, A.n).length == P.bit_count()

    def test_non_reduced(self):
        with pytest.raises(NonReducedWordError):
            perm_from_prime(m(2, (1, 1), (1, 2), (2, 1)), 2)

    @pytest.mark.parametrize(
        "n, total", [(1, 1), (2, 2), (3, 7), (4, 41), (5, 393), (6, 6080)]
    )
    def test_ladder_moves_equal_berge(self, n, total):
        """The ladder-move closure of the bottom pipe dream gives the minimal
        primes of init(I_w), each read back as w."""
        count = 0
        for line in permutations(range(1, n + 1)):
            w = Permutation(line)
            dreams = pipe_dreams(w)
            assert dreams == minimal_primes(init_ideal(w.to_asm()))
            assert {perm_from_prime(D, n) for D in dreams} == {w}
            count += len(dreams)
        assert count == total

    def test_bottom_and_top(self):
        # 1432 has the Lehmer code (0, 2, 1, 0) and five pipe dreams
        dreams = pipe_dreams(Permutation((1, 4, 3, 2)))
        assert m(4, (2, 1), (2, 2), (3, 1)) in dreams
        assert m(4, (1, 2), (1, 3), (2, 2)) in dreams
        assert len(dreams) == 5
        assert pipe_dreams(Permutation(tuple(range(1, 4)))) == {0}

    @pytest.mark.skipif(
        os.environ.get("ASMLAB_STRETCH") != "1",
        reason="all of S_7; set ASMLAB_STRETCH=1 to run",
    )
    def test_s7_totals(self):
        sizes = [len(pipe_dreams(Permutation(line))) for line in permutations(range(1, 8))]
        assert sum(sizes) == 150371 and max(sizes) == 660

    @given(st.integers(1, 6).flatmap(lambda n: st.sampled_from(ASMS_UPTO_6[n])))
    def test_disjoint_over_perm_set(self, A):
        """No pipe dream of one w in Perm(A) is one of another, so the
        minimal primes of init(I_A) are their disjoint union."""
        dreams = [pipe_dreams(w) for w in perm_set(A)]
        assert sum(map(len, dreams)) == len(frozenset().union(*dreams))


def via_primes(A) -> PermReading:
    """Perm(A), codim and equidimensionality read off the minimal primes of
    init_ideal(A), each prime as a reduced pipe dream and its height."""
    primes = minimal_primes(init_ideal(A))
    heights = {P.bit_count() for P in primes}
    perms = frozenset(perm_from_prime(P, A.n) for P in primes)
    return PermReading(perms, min(heights), len(heights) == 1)


class TestPermSetViaPrimes:
    """The pipe-dream reading of the minimal primes gives Perm(A)."""

    def test_b4(self, b4):
        pa = via_primes(b4)
        assert {str(w) for w in pa.perms} == {"3412", "2341"}
        assert pa.codim == 3 and not pa.equidimensional
        assert answered(b4) == pa

    def test_a6(self, a6):
        pa = via_primes(a6)
        assert {str(w) for w in pa.perms} == {"562314", "462513", "456213", "462351"}
        assert answered(a6) == pa

    def test_identity(self):
        pa = via_primes(Asm.identity(4))
        assert pa.perms == {Permutation(tuple(range(1, 5)))}
        assert pa.codim == 0 and pa.equidimensional
        assert answered(Asm.identity(4)) == pa

    def test_agrees_with_naive(self):
        for n in range(1, 5):
            for A in enumerate_asms(n):
                assert via_primes(A).perms == perm_set_naive(A)

    def test_agrees_with_naive_n5(self):
        for A in enumerate_asms(5):
            assert via_primes(A).perms == perm_set_naive(A)


@cache
def naive(A) -> PermReading:
    return PermReading.of(perm_set_naive(A))


@cache
def lex_asms(n) -> list:
    """The permutation matrices of S_n in lex order."""
    return [Permutation(line).to_asm() for line in permutations(range(1, n + 1))]


@cache
def bruhat_scan(A) -> int:
    """The up-set perm_walk(A) should read Perm(A) from, by brute force over
    S_n: the permutations of S_n in lex order that lie above A."""
    return lex_bits(A.n, (k for k, w in enumerate(lex_asms(A.n)) if asm_geq(w, A)))


def walked_upset(A) -> int:
    """The up-set perm_walk(A) reads Perm(A) from: the AND of row up-sets
    that the walk keeps for A's row n-1, or all of S_1 for n = 1."""
    perm_walk(A)
    if A.n == 1:
        return 1
    prefix = ideals._thread.prefix
    assert prefix.depth == A.n - 1
    return prefix.ups[A.n - 2]


def shuffled_runs(seed, run=8) -> list:
    """All of ASM(n <= 5) cut into runs of consecutive ASMs of the stream,
    the runs shuffled: sizes mix, and neighbours within a run share rows."""
    asms = [A for n in range(1, 6) for A in ASMS_UPTO_6[n]]
    runs = [asms[i : i + run] for i in range(0, len(asms), run)]
    random.Random(seed).shuffle(runs)
    return [A for r in runs for A in r]


def column_sets(A) -> list:
    """The columns whose partial sums through row r are 1, for rows 1..n-1."""
    S, sets = 0, []
    for row in A.entries[:-1]:
        S ^= sum(1 << j for j, a in enumerate(row) if a)
        sets.append(S)
    return sets


@cache
def spliced(n=5) -> tuple:
    """ASMs X and Y of ASM(n) with the same column set after their first i
    rows, but other rows there, and Z, Y's first i rows then X's rest, an
    ASM with another Perm than X's: a walk that kept X's up-sets past rows
    it rewrote with Y's would answer Z with X's."""
    for X in ASMS_UPTO_6[n]:
        for Y in ASMS_UPTO_6[n]:
            for i in range(1, n - 1):
                same = column_sets(X)[i - 1] == column_sets(Y)[i - 1]
                if same and X.entries[:i] != Y.entries[:i]:
                    Z = validate_asm(Y.entries[:i] + X.entries[i:])
                    if naive(Z).perms != naive(X).perms:
                        return X, Y, i, Z
    raise AssertionError("no such X, Y")


@cache
def naive_indices(A) -> list:
    """perm_set_naive(A) as perm_walk gives it: lex indices, lowest first."""
    return sorted(lex_rank(w.one_line) for w in naive(A).perms)


@st.composite
def stream_runs(draw):
    """ASMs of mixed sizes 1-6 for perm_walk to read one after another: runs of
    consecutive ASMs of one stream, some reversed and some read twice over,
    the runs of different sizes interleaved."""
    asms = []
    for _ in range(draw(st.integers(1, 6))):
        stream = ASMS_UPTO_6[draw(st.integers(1, 6))]
        start = draw(st.integers(0, len(stream) - 1))
        run = stream[start : start + draw(st.integers(1, 8))]
        if draw(st.booleans()):
            run = run[::-1]
        asms += run * draw(st.integers(1, 2))
    return asms


def drawn_asms(n, count):
    """count distinct ASM(n) drawn by a seeded random descent through the
    stream's row steps, in the order drawn."""
    rng, drawn = random.Random(n), {}
    while len(drawn) < count:
        prev, rows = (), []
        for _ in range(n):
            prev, row = rng.choice(_next_rows(prev, n))
            rows.append(row)
        drawn.setdefault(Asm(tuple(rows)))
    return list(drawn)


def rank_at(line, i, j) -> int:
    """The rank of the permutation at the cell (i, j)."""
    return sum(v <= j for v in line[:i])


class TestPermSet:
    """perm_set, with analyze_asm's codimension and equidimensionality,
    against its oracles: the brute-force Bruhat scan and the pipe-dream
    reading of the minimal primes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_naive(self, n):
        for A in enumerate_asms(n):
            assert perm_set(A) == perm_set_naive(A)
            assert answered(A) == naive(A)

    @pytest.mark.parametrize(
        "n",
        [
            1,
            2,
            3,
            4,
            5,
            pytest.param(
                6,
                marks=pytest.mark.skipif(
                    os.environ.get("ASMLAB_STRETCH") != "1",
                    reason="all of ASM(6); set ASMLAB_STRETCH=1 to run",
                ),
            ),
        ],
    )
    def test_equals_pipe_dreams(self, n):
        for A in enumerate_asms(n):
            assert answered(A) == via_primes(A)

    @pytest.mark.skipif(
        os.environ.get("ASMLAB_STRETCH") != "1",
        reason="100 ASM(8) through their minimal primes; set ASMLAB_STRETCH=1 to run",
    )
    def test_equals_pipe_dreams_n8(self):
        """perm_set_naive stops at n=7, so at n=8 the oracle is the
        pipe-dream reading of the primes, on 100 distinct ASM(8) drawn by a
        seeded random descent through the stream's row steps."""
        for A in drawn_asms(8, 100):
            assert answered(A) == via_primes(A)

    def test_one_plus_n9(self):
        """At n=9, on 50 drawn ASM(8): Perm(1 + A) is 1 + w for each w of
        Perm(A), with the same codimension and equidimensionality."""
        for A in drawn_asms(8, 50):
            ps, ps1 = answered(A), answered(one_plus(A))
            assert ps1.perms == {
                Permutation((1, *(v + 1 for v in w.one_line))) for w in ps.perms
            }
            assert (ps1.codim, ps1.equidimensional) == (ps.codim, ps.equidimensional)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_upset_equals_bruhat_scan(self, n):
        """The up-set perm_walk reads Perm(A) from holds exactly the w of
        S_n above A, by brute force over S_n: on all of ASM(n <= 5) and on a
        seeded 200 of ASM(6)."""
        asms = ASMS_UPTO_6[n] if n < 6 else random.Random(6).sample(ASMS_UPTO_6[6], 200)
        for A in asms:
            assert walked_upset(A) == bruhat_scan(A)

    @given(stream_runs())
    def test_shared_prefix_equals_bruhat_scan(self, asms):
        """perm_walk restarts each ASM after the rows it shares with the
        last one walked, the last example's included, so it must hold in any
        order: forward and reversed runs of the stream, repeats, and sizes
        interleaved."""
        for A in asms:
            assert walked_upset(A) == bruhat_scan(A)

    def test_walks_after_a_cut_walk(self, monkeypatch):
        """_row_upset raises once, at row i of the walk of Y after X: rows
        d..i-1 of Y are rewritten by then.  The walk must keep none of X's
        up-sets beside them: Z, Y's first i rows then X's rest, must not read
        X's.  Every walk that follows, Z's and Y's and then all of
        ASM(n <= 5) in shuffled runs, equals perm_set_naive."""
        X, Y, i, Z = spliced()
        real = ideals._row_upset

        def flaky(n, S):
            if (n, S) == (Y.n, column_sets(Y)[i]):
                monkeypatch.setattr(ideals, "_row_upset", real)
                raise ZeroDivisionError("cut")
            return real(n, S)

        perm_walk(X)
        monkeypatch.setattr(ideals, "_row_upset", flaky)
        with pytest.raises(ZeroDivisionError):
            perm_walk(Y)
        for A in (Z, Y, *shuffled_runs(3)):
            assert perm_walk(A)[0] == naive_indices(A)

    def test_threads_keep_their_own_prefix(self, monkeypatch):
        """Two threads walk different shuffled runs of ASM(n <= 5) at once.
        The first stops at row i of its first walk, of X, until the second
        has walked its runs and then Y; it then walks Z, Y's first i rows
        then X's rest, and its runs.  A prefix shared by the threads would
        answer Z with X's up-set; each thread's walks equal perm_set_naive."""
        X, Y, i, Z = spliced()
        streams = [[X, Z, *shuffled_runs(1)], [*shuffled_runs(2), Y]]
        real, paused, resume = ideals._row_upset, threading.Event(), threading.Event()
        got = [None, None]

        def pausing(n, S):
            if (n, S) == (X.n, column_sets(X)[i]) and not paused.is_set():
                paused.set()
                assert resume.wait(30)
            return real(n, S)

        def walk(t):
            if t == 1:
                assert paused.wait(30)
            got[t] = [perm_walk(A)[0] for A in streams[t]]
            resume.set()

        monkeypatch.setattr(ideals, "_row_upset", pausing)
        threads = [threading.Thread(target=walk, args=(t,)) for t in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the runs interleave finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[naive_indices(A) for A in stream] for stream in streams]

    @pytest.mark.parametrize("order", ["stream", "reversed", "shuffled"])
    def test_walk_equals_naive_in_any_order(self, order):
        """perm_walk's count, least length and equidimensionality, the
        permutations of its lex indices, and perm_set with analyze_asm's
        answers, against perm_set_naive on all of ASM(n <= 5), read in
        stream order, reversed and shuffled."""
        asms = [A for n in range(1, 6) for A in ASMS_UPTO_6[n]]
        if order == "reversed":
            asms.reverse()
        elif order == "shuffled":
            random.Random(5).shuffle(asms)
        for A in asms:
            indices, lengths = perm_walk(A)
            expected = naive(A)
            assert (len(indices), min(lengths), len(set(lengths)) == 1) == (
                len(expected.perms),
                expected.codim,
                expected.equidimensional,
            )
            perms = frozenset(Permutation(lex_unrank(A.n, k)) for k in indices)
            assert perms == expected.perms
            assert answered(A) == expected

    @given(st.integers(1, 5).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_table_matches_rank_matrices(self, line):
        """Lex order extends the Bruhat order, and the table entry of the
        k-th permutation holds it, its length and keep: the rest of S_n
        outside its up-set, found here with asm_geq."""
        n = len(line)
        lex = list(permutations(range(1, n + 1)))
        k = lex.index(tuple(line))
        w = Permutation(tuple(line))
        ranks = rank_matrix(w.to_asm())
        for u in lex[:k]:  # no permutation after w lies below it
            assert not asm_geq(Permutation(u).to_asm(), w.to_asm())
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert rank_at(line, i, j) == ranks[i - 1][j - 1]
        up = lex_bits(
            n, (b for b, u in enumerate(lex) if asm_geq(Permutation(u).to_asm(), w.to_asm()))
        )
        entry = _lex_table(n)[k] or _fill(n, k)
        assert entry == (w.length, (1 << factorial(n)) - 1 - up)
        assert entry is _lex_table(n)[k]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_row_upsets_by_brute_force(self, n):
        """_row_upset(n, S) holds exactly the permutations of S_n whose rank
        at (|S|, j) is at most |S & [j]| at every column j, for every proper
        column set S of [n]: on all of S_n for n <= 7, and on a seeded 300
        of S_n, each read from its lex index, for n = 8 and 9."""
        indices = range(factorial(n))
        if n > 7:
            indices = random.Random(n).sample(indices, 300)
        lines = {k: lex_unrank(n, k) for k in indices}
        if n <= 7:
            assert list(lines.values()) == list(permutations(range(1, n + 1)))
        grid = range(1, n + 1)
        ranks = {
            k: [tuple(rank_at(line, i, j) for j in grid) for i in range(n)]
            for k, line in lines.items()
        }
        for S in range((1 << n) - 1):
            i = S.bit_count()
            bound = tuple((S & ((1 << j) - 1)).bit_count() for j in grid)
            up = _row_upset(n, S)
            assert up >> factorial(n) == 0
            for k, r in ranks.items():
                assert bool(up & lex_bits(n, [k])) == all(map(int.__le__, r[i], bound))

    def test_returns_when_an_upset_lacks_its_own_bit(self, monkeypatch):
        """The table's keep clears the bit of w in the mask the walk ANDs
        in, so an up-set that lacks w itself cannot make perm_set loop; the
        alarm turns a loop into a failure.  The tables are emptied first, so
        that every permutation the walk reads is built from the lacking
        up-set."""

        def lacking(n, k, m):
            start = k - k % factorial(m)
            for j, (length, up) in enumerate(real(n, k, m), start):
                built.append(j)
                yield length, up & ~lex_bits(n, [j])

        def timeout(signum, frame):
            raise TimeoutError("perm_set did not return")

        expected = [answered(A) for A in ASMS_UPTO_6[4]]
        built, real = [], ideals._lex_upsets
        monkeypatch.setattr(ideals, "_lex_upsets", lacking)
        _lex_table.cache_clear()
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            assert [answered(A) for A in ASMS_UPTO_6[4]] == expected
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            _lex_table.cache_clear()
        assert sorted(built) == list(range(24))

    def test_filled_entries_stay_within_the_bound(self):
        """perm_walk over more than UPSET_MEMO_SIZE permutation matrices of
        S_8 fills an entry for each, one at a time, and never holds more
        than UPSET_MEMO_SIZE of them; an entry read again after the tables
        are emptied equals the one read before."""
        _lex_table.cache_clear()
        ideals._filled = 0
        ks = range(0, factorial(8), 4)
        assert len(ks) > UPSET_MEMO_SIZE
        kept, clears = {}, 0
        for t, k in enumerate(ks):
            before = ideals._filled
            assert perm_walk(Permutation(lex_unrank(8, k)).to_asm())[0] == [k]
            assert ideals._filled <= UPSET_MEMO_SIZE
            clears += ideals._filled < before
            if t % 97 == 0 or ideals._filled < before:
                kept[k] = _lex_table(8)[k]
                table = _lex_table(8)
                assert len(table) - table.count(None) == ideals._filled
        assert clears == 1
        emptied = [k for k in kept if _lex_table(8)[k] is None]
        assert len(emptied) > 80
        for k, entry in kept.items():
            assert perm_walk(Permutation(lex_unrank(8, k)).to_asm())[0] == [k]
            assert _lex_table(8)[k] == entry
        _lex_table.cache_clear()
        ideals._filled = 0

    def test_size_bound(self):
        with pytest.raises(SizeBoundExceededError):
            perm_set(Asm.identity(PERM_TABLE_BOUND + 1))
        with pytest.raises(SizeBoundExceededError):
            _lex_table(PERM_TABLE_BOUND + 1)
        assert analyze_asm(Asm.identity(PERM_TABLE_BOUND), ("codim",)).codim == 0


class TestYoPrimes:
    def test_b4(self, b4):
        Y, O = construct_yo_primes(b4, 3, 1)
        assert Y == m(4, (1, 1), (2, 1), (3, 1))
        assert O == m(4, (1, 1), (2, 1), (1, 2), (2, 2))
        I = init_ideal(b4)
        assert is_minimal_prime(I, Y) and is_minimal_prime(I, O)
        assert Y.bit_count() != O.bit_count()

    def test_badblock8_base_state(self, badblock8):
        states = {cell: (Y, O) for cell, Y, O in yo_induction_states(badblock8, 4)}
        base = (m(8, (4, 2), (4, 3)), m(8, (1, 6), (2, 3), (3, 3)))
        assert states[(4, 8)] == states[(6, 8)] == base

    def test_badblock8_primes(self, badblock8):
        Y, O = construct_yo_primes(badblock8, 4, 2)
        I = init_ideal(badblock8)
        assert is_minimal_prime(I, Y) and is_minimal_prime(I, O)
        assert Y.bit_count() != O.bit_count()

    def test_not_badblock(self):
        with pytest.raises(NotBadblockError):
            construct_yo_primes(Asm.identity(4), 2, 1)
