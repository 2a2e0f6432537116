"""Acceptance gate: one pass/fail line per criterion, all exact matches.

Criterion 6 (the n=6 census stretch goal) only runs when ASMLAB_STRETCH=1 is
set, since it takes tens of seconds rather than seconds.
"""

import os

import pytest

from asmlab import (
    ASM_COUNTS,
    Asm,
    analyze_asm,
    badblock_match,
    chain_complex,
    construct_yo_primes,
    dominant_part,
    enumerate_asms,
    essential_set,
    init_ideal,
    is_cohen_macaulay,
    is_minimal_prime,
    minimal_primes,
    minimal_primes_bruteforce,
    perm_from_prime,
    perm_set,
    perm_set_naive,
    rank_matrix,
    reduced_betti,
    rothe_diagram,
    sr_complex_from_ideal,
    stanley_reisner_ideal,
    tabulate,
    face_subcomplex,
    hochster_depth,
    verify_statement,
)
from asmlab.homology import complex_is_cm
from asmlab.complexes import cells, mask
from helpers import compose_boundaries, fulton_minors

JOBS = 4


def report(capsys, label, failures):
    with capsys.disabled():
        status = "PASS" if not failures else "FAIL"
        print(f"[{status}] {label}")
    assert not failures, failures


def test_criterion_1_census_cm_counts(capsys):
    failures = []
    t4 = tabulate(4, jobs=JOBS)
    t5 = tabulate(5, jobs=JOBS)
    if (t4.cm, t4.not_cm) != (39, 3):
        failures.append(f"n=4 cm counts {(t4.cm, t4.not_cm)}")
    if (t5.cm, t5.not_cm) != (328, 101):
        failures.append(f"n=5 cm counts {(t5.cm, t5.not_cm)}")
    report(capsys, "criterion 1: CM census n=4 (39/3), n=5 (328/101)", failures)


def test_criterion_2_km_vd_census(capsys):
    failures = []
    t4 = tabulate(4, jobs=JOBS)
    t5 = tabulate(5, jobs=JOBS)
    if (t4.km_vd_fail, t4.km_vd_fail_a11) != (1, 0):
        failures.append(f"n=4 km-vd fail {(t4.km_vd_fail, t4.km_vd_fail_a11)}")
    if (t5.km_vd_fail, t5.km_vd_fail_a11) != (35, 2):
        failures.append(f"n=5 km-vd fail {(t5.km_vd_fail, t5.km_vd_fail_a11)}")
    report(capsys, "criterion 2: KM-vd census n=4 (1/0), n=5 (35/2)", failures)


@pytest.mark.skipif(
    os.environ.get("ASMLAB_STRETCH") != "1",
    reason="n=6 census stretch goal; set ASMLAB_STRETCH=1 to run",
)
def test_criterion_stretch_n6(capsys):
    failures = []
    t6 = tabulate(6, jobs=JOBS)
    if (t6.cm, t6.not_cm) != (4028, 3408):
        failures.append(f"n=6 cm counts {(t6.cm, t6.not_cm)}")
    if (t6.km_vd_fail, t6.km_vd_fail_a11) != (1033, 60):
        failures.append(f"n=6 km-vd fail {(t6.km_vd_fail, t6.km_vd_fail_a11)}")
    report(capsys, "stretch: n=6 census (4028/3408, 1033/60)", failures)


def test_criterion_3_worked_examples(capsys):
    failures = []

    A = Asm(((0, 0, 1, 0), (1, 0, -1, 1), (0, 1, 0, 0), (0, 0, 1, 0)))
    if rank_matrix(A) != ((0, 0, 1, 1), (1, 1, 1, 2), (1, 2, 2, 3), (1, 2, 3, 4)):
        failures.append("rank matrix")
    if rothe_diagram(A) != {(1, 1), (1, 2), (2, 3)}:
        failures.append("Rothe diagram")
    if essential_set(A) != {(1, 2), (2, 3)}:
        failures.append("essential set")
    if dominant_part(A) != {(1, 1), (1, 2)}:
        failures.append("dominant part")
    if len(fulton_minors(A)) != 5:
        failures.append("Fulton generator count")

    nk = Asm(((0, 1, 0, 0), (0, 0, 0, 1), (1, -1, 1, 0), (0, 1, 0, 0)))
    I = init_ideal(nk)
    expected_gens = [
        ((1, 1),),
        ((1, 2), (3, 1)),
        ((1, 3), (2, 2)),
        ((2, 1),),
        ((2, 2), (3, 1)),
    ]
    if I.sorted_gens() != expected_gens:
        failures.append("non-KM-gvd initial ideal")
    deletion = face_subcomplex(sr_complex_from_ideal(I), mask({(1, 3)}, 4), "deletion")
    J = stanley_reisner_ideal(deletion)
    primes = minimal_primes(J)
    if {tuple(sorted(cells(P, 4))) for P in primes} != {((3, 1),), ((1, 2), (2, 2))}:
        failures.append("z13-deletion prime decomposition")

    a3 = Asm(((0, 1, 0), (1, -1, 1), (0, 1, 0)))
    b4 = Asm(((0, 1, 0, 0), (0, 0, 1, 0), (1, -1, 0, 1), (0, 1, 0, 0)))
    codim = {A: analyze_asm(A, ("codim",)).codim for A in (a3, b4)}
    if {w.one_line for w in perm_set(a3)} != {(3, 1, 2), (2, 3, 1)} or codim[a3] != 2:
        failures.append("permBij Perm(A)")
    if {w.one_line for w in perm_set(b4)} != {(3, 4, 1, 2), (2, 3, 4, 1)} or codim[b4] != 3:
        failures.append("permBij Perm(B)")

    b5 = Asm(
        (
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (0, 1, 0, -1, 1),
            (1, 0, -1, 1, 0),
            (0, 0, 1, 0, 0),
        )
    )
    a6 = Asm(
        (
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 1, 0, 0, -1, 1),
            (0, 0, 1, 0, 0, 0),
            (1, 0, 0, -1, 1, 0),
            (0, 0, 0, 1, 0, 0),
        )
    )
    pb5 = perm_set(b5)
    if {w.one_line for w in pb5} != {
        (4, 5, 2, 1, 3),
        (3, 4, 5, 1, 2),
        (3, 5, 2, 4, 1),
    }:
        failures.append("Perm(B) one-lines")
    if sorted(w.length for w in pb5) != [6, 7, 7]:
        failures.append("Perm(B) lengths")
    if len(perm_set(a6)) != 4:
        failures.append("|Perm(A)| != 4")

    report(capsys, "criterion 3: worked-example fidelity", failures)


def test_criterion_4_theorem_sweeps(capsys):
    failures = []
    statements = (
        "perm-bijection",
        "direct-sum",
        "init-split",
        "link-colon",
        "tilde-identity",
    )
    for name in statements:
        for n in range(2, 6):
            r = verify_statement(name, n)
            if not r.passed:
                failures.append(f"{name} n={n}: {r.detail}")
    # sampling volume at n=5 (429-element spaces are covered exhaustively)
    expected_cases = {
        "perm-bijection": 429,
        "init-split": 429,
        "tilde-identity": 600,
    }
    for name, want in expected_cases.items():
        got = verify_statement(name, 5).cases
        if got != want:
            failures.append(f"{name} n=5 cases {got} != {want}")
    if verify_statement("link-colon", 5).cases < 500:
        failures.append("link-colon n=5 under-sampled")

    for n in range(2, 5):
        scan = verify_statement("cm-conjecture", n)
        if not scan.passed:
            failures.append(f"cm-conjecture n={n}")
    scan5 = verify_statement("cm-conjecture", 5)
    if scan5.failures:
        failures.append("cm-conjecture n=5 counterexample")
    if (scan5.cases, scan5.detail["cm_count"]) != (429, 328):
        failures.append(f"cm-conjecture n=5 totals {(scan5.cases, scan5.detail['cm_count'])}")

    report(capsys, "criterion 4: theorem sweeps n<=4 exhaustive, n=5 sampled", failures)


def test_criterion_5_property_suites(capsys):
    failures = []

    for n in range(1, 7):
        count = sum(1 for _ in enumerate_asms(n))
        if count != ASM_COUNTS[n - 1]:
            failures.append(f"stream count n={n}: {count}")

    for n in range(1, 6):
        for A in enumerate_asms(n):
            I = init_ideal(A)
            for g in I.gens:
                # h's cells a proper subset of g's
                if any(h != g and not h & ~g for h in I.gens):
                    failures.append(f"non-minimal generator for {A.entries}")
                if any(i + j > n for (i, j) in cells(g, n)):
                    failures.append(f"support bound violated for {A.entries}")

    for n in range(1, 6):
        for A in enumerate_asms(n):
            I = init_ideal(A)
            if not I.gens or I.support().bit_count() > 12:
                continue
            if minimal_primes(I) != minimal_primes_bruteforce(I):
                failures.append(f"prime enumeration mismatch for {A.entries}")

    for n in range(1, 5):
        for A in enumerate_asms(n):
            pipe_dreams = {perm_from_prime(P, n) for P in minimal_primes(init_ideal(A))}
            if pipe_dreams != perm_set_naive(A):
                failures.append(f"pipe-dream mismatch for {A.entries}")
            if perm_set(A) != pipe_dreams:
                failures.append(f"perm_set mismatch for {A.entries}")

    for A in enumerate_asms(4):
        delta = sr_complex_from_ideal(init_ideal(A))
        reisner = complex_is_cm(delta.facets)
        hochster = hochster_depth(delta.facets, delta.vertex_universe) == delta.dim() + 1
        if not is_cohen_macaulay(A) == reisner == hochster:
            failures.append(f"analyze_asm, Reisner and Hochster disagree for {A.entries}")

    for A in enumerate_asms(4):
        I = init_ideal(A)
        if not I.gens:
            continue
        delta = sr_complex_from_ideal(I)
        cc = chain_complex(delta.facets)
        for k in range(1, len(cc.boundaries)):
            if compose_boundaries(cc.boundaries[k - 1], cc.boundaries[k]):
                failures.append(f"boundary squared nonzero for {A.entries}")
        euler_faces = sum((-1) ** k * d for k, d in enumerate(cc.dims))
        euler_betti = sum((-1) ** k * b for k, b in enumerate(reduced_betti(delta.facets)))
        if euler_faces != euler_betti:
            failures.append(f"Euler relation fails for {A.entries}")

    b4 = Asm(((0, 1, 0, 0), (0, 0, 1, 0), (1, -1, 0, 1), (0, 1, 0, 0)))
    saw_b4 = False
    for n in range(2, 6):
        for A in enumerate_asms(n):
            match = badblock_match(A)
            if match is None:
                continue
            if A == b4:
                saw_b4 = True
            if analyze_asm(A, ("equidim",)).equidimensional:
                failures.append(f"badblock match equidimensional: {A.entries}")
            P, Q = construct_yo_primes(A, *match)
            I = init_ideal(A)
            if not (is_minimal_prime(I, P) and is_minimal_prime(I, Q)):
                failures.append(f"yo primes not minimal for {A.entries}")
            if P.bit_count() == Q.bit_count():
                failures.append(f"yo primes share height for {A.entries}")
    if not saw_b4:
        failures.append("n=4 badblock family misses expected member")

    report(capsys, "criterion 5: property suites", failures)
