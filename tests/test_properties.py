"""Property-based suites over randomly drawn ASMs and complexes."""

from itertools import permutations

from hypothesis import given, settings, strategies as st

from asmlab import (
    Permutation,
    analyze_asm,
    asm_geq,
    chain_complex,
    enumerate_asms,
    face_subcomplex,
    ideal_colon,
    init_ideal,
    is_minimal_prime,
    minimal_primes,
    perm_from_prime,
    perm_set,
    perm_set_naive,
    rank_matrix,
    reduced_betti,
    sr_complex_from_ideal,
    stanley_reisner_ideal,
    validate_asm,
)
from asmlab.asm import lex_rank
from asmlab.complexes import cells, mask, maximal_sets, perm_facets, vd_facets
from asmlab.homology import complex_is_cm
from asmlab.ideals import _glued_cm, _km_vd
from asmlab.squarefree import minimal_sets, minimal_transversals
from helpers import compose_boundaries
from test_complexes import vd_facets_oracle

POOLS = {n: list(enumerate_asms(n)) for n in range(1, 6)}


def proper_submask(a, b):
    """Whether the set of a is a proper subset of the set of b."""
    return a != b and not a & ~b


def to_mask(vertices):
    """The mask of a set of small non-negative ints, vertex v being bit v."""
    return sum(1 << v for v in vertices)

asm_upto_4 = st.integers(1, 4).flatmap(lambda n: st.sampled_from(POOLS[n]))
asm_upto_5 = st.integers(1, 5).flatmap(lambda n: st.sampled_from(POOLS[n]))


@given(asm_upto_5)
def test_rank_matrix_invariants(A):
    rk = rank_matrix(A)
    n = A.n
    assert rk[n - 1][n - 1] == n
    for i in range(n):
        for j in range(n):
            assert 0 <= rk[i][j] <= min(i, j) + 1
            if j:
                assert rk[i][j] - rk[i][j - 1] in (0, 1)
            if i:
                assert rk[i][j] - rk[i - 1][j] in (0, 1)


@given(asm_upto_5)
def test_validation_round_trip(A):
    assert validate_asm([list(r) for r in A.entries]) == A


@given(asm_upto_5)
def test_init_ideal_squarefree_and_support_bound(A):
    I = init_ideal(A)
    gens = list(I.gens)
    # minimality: no generator divides another
    for g in gens:
        assert not any(proper_submask(h, g) for h in gens)
    for g in gens:
        for (i, j) in cells(g, A.n):
            assert i + j <= A.n


@given(asm_upto_4)
def test_minimal_primes_are_minimal_covers(A):
    I = init_ideal(A)
    if not I.gens:
        return
    for P in minimal_primes(I):
        assert is_minimal_prime(I, P)
        assert all(g & P for g in I.gens)


@given(asm_upto_4)
def test_pipe_dream_matches_bruhat_minimal(A):
    primes = minimal_primes(init_ideal(A))
    assert {perm_from_prime(P, A.n) for P in primes} == perm_set_naive(A)
    assert perm_set(A) == perm_set_naive(A)
    if init_ideal(A).gens:
        for P in primes:
            assert perm_from_prime(P, A.n).length == P.bit_count()


@given(asm_upto_4, asm_upto_4)
def test_geq_antisymmetry_via_rank_matrices(A, B):
    if A.n != B.n:
        return
    if asm_geq(A, B) and asm_geq(B, A):
        assert A == B


@given(asm_upto_4)
def test_codim_is_min_perm_length(A):
    r = analyze_asm(A, ("codim", "equidim"))
    perms = perm_set(A)
    assert r.codim == min(w.length for w in perms)
    assert r.equidimensional == (len({w.length for w in perms}) == 1)


random_facets = st.lists(
    st.frozensets(st.integers(1, 7), min_size=1, max_size=4).map(to_mask),
    min_size=1,
    max_size=6,
).map(frozenset)


@settings(max_examples=60)
@given(random_facets)
def test_boundary_squared_and_euler(facets):
    cc = chain_complex(facets)
    for k in range(1, len(cc.boundaries)):
        assert compose_boundaries(cc.boundaries[k - 1], cc.boundaries[k]) == {}
    euler_faces = sum((-1) ** k * d for k, d in enumerate(cc.dims))
    euler_betti = sum((-1) ** k * b for k, b in enumerate(reduced_betti(facets)))
    assert euler_faces == euler_betti


@settings(max_examples=40)
@given(asm_upto_4, st.randoms(use_true_random=False))
def test_link_colon_identity(A, rng):
    I = init_ideal(A)
    if not I.gens:
        return
    delta = sr_complex_from_ideal(I)
    facet = rng.choice(sorted(tuple(sorted(cells(F, A.n))) for F in delta.facets))
    k = rng.randrange(len(facet) + 1)
    sigma = mask(rng.sample(facet, k), A.n)
    link = face_subcomplex(delta, sigma, "link")
    assert (
        stanley_reisner_ideal(link).gens
        == ideal_colon(stanley_reisner_ideal(delta), sigma).gens
    )


@settings(max_examples=40)
@given(asm_upto_4, st.integers(0, 1))
def test_field_choice_keeps_homology_profile_shape(A, parity):
    I = init_ideal(A)
    if not I.gens:
        return
    delta = sr_complex_from_ideal(I)
    hq = reduced_betti(delta.facets)
    hp = reduced_betti(delta.facets, 32003)
    assert len(hq) == len(hp)
    assert hq == hp  # no torsion seen at this scale


# -- vertex decomposability certificates against Reisner's criterion -------

CELLS = [(i, j) for i in range(1, 3) for j in range(1, 4)]
pure_complexes = st.integers(1, 4).flatmap(
    lambda k: st.sets(
        st.frozensets(st.sampled_from(CELLS), min_size=k, max_size=k).map(
            lambda F: mask(F, 3)
        ),
        min_size=1,
        max_size=8,
    ).map(frozenset)
)


@settings(max_examples=200)
@given(pure_complexes)
def test_vd_certificates_imply_cm(facets):
    vd, km_vd = vd_facets(facets)
    if km_vd:
        assert vd
    for p in (0, 2):
        if vd:
            assert complex_is_cm(facets, p)


@settings(max_examples=200)
@given(pure_complexes, st.integers(0, 6))
def test_cone_has_the_answers_of_its_base(facets, k):
    """A new vertex v, bit k of the shifted family: the greatest vertex for
    k = 0, else one further down the order.  v * Gamma is vd, and KM-vd,
    exactly when Gamma is."""
    low = (1 << k) - 1
    base = frozenset(F & low | (F & ~low) << 1 for F in facets)
    cone = frozenset(F | 1 << k for F in base)
    assert vd_facets(base) == vd_facets(facets) == vd_facets_oracle(facets)
    assert vd_facets(cone) == vd_facets(base) == vd_facets_oracle(cone)


# antichains of one length in S_4 and S_5, as sorted lex indices: every
# subset of the permutations of one length below the longest
def _antichains(n):
    by_length = {}
    for line in permutations(range(1, n + 1)):
        by_length.setdefault(Permutation(line).length, []).append(lex_rank(line))
    del by_length[max(by_length)]
    return st.sampled_from(sorted(by_length.values())).flatmap(
        lambda alike: st.sets(st.sampled_from(alike), min_size=1, max_size=6)
    ).map(lambda T: (n, tuple(sorted(T))))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_antichains(4), _antichains(5)))
def test_subword_answers_on_random_antichains(nT):
    """On antichains T, not only Perm(A): the subword recursion is the vd
    search's fixed-order flag on Delta(T), and a decided gluing answer is
    CM over Q and GF(2): vd, CM over every field, or else Reisner's."""
    n, T = nT
    facets = perm_facets(n, T)
    vd, km_vd = vd_facets(facets)
    assert _km_vd(n, 0, T) == km_vd
    cm = _glued_cm(n, T)
    if cm is not None:
        assert cm == (vd or complex_is_cm(facets)) == (vd or complex_is_cm(facets, 2))


# -- the set-family kernel against subset-enumeration definitions ------------

set_families = st.lists(
    st.frozensets(st.integers(1, 5), max_size=4).map(to_mask), max_size=6
).map(frozenset)


def _submasks(ground):
    return [T for T in range(ground + 1) if not T & ~ground]


@settings(max_examples=200)
@given(st.one_of(set_families, set_families.map(lambda f: f | {0})))
def test_set_family_kernel_matches_bruteforce(family):
    assert minimal_sets(family) == {
        s for s in family if not any(proper_submask(t, s) for t in family)
    }
    assert maximal_sets(family) == {
        s for s in family if not any(proper_submask(s, t) for t in family)
    }
    ground = 0
    for g in family:
        ground |= g
    hitting = [T for T in _submasks(ground) if all(T & g for g in family)]
    assert minimal_transversals(family) == {
        T for T in hitting if not any(proper_submask(U, T) for U in hitting)
    }


def test_set_family_kernel_edge_cases():
    empty = frozenset()
    assert minimal_sets([]) == maximal_sets([]) == empty
    assert minimal_transversals([]) == {0}
    assert minimal_transversals([0]) == empty
    assert minimal_sets([0, to_mask({1})]) == {0}
