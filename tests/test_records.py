"""The package's records: immutable ones are NamedTuples, and the mutable
AnalysisReport and VerificationReport are slotted classes.  They pickle (a
Pool ships ASM lists and shard results), hash alike when equal, and the
package imports none of dataclasses, inspect, hashlib and json.  What no
census reads is loaded at the first use of one of its names."""

import json
import pickle

import pytest

import asmlab
from asmlab import (
    Asm,
    Permutation,
    analyze_asm,
    chain_complex,
    check_containment_constraints,
    find_pattern,
    init_ideal,
    km_vertex_decomposable,
    sr_complex_from_ideal,
    tabulate,
    validate_asm,
    verify_statement,
)
from asmlab.enumeration import AnalysisReport
from asmlab.sweeps import VerificationReport
from helpers import fresh_python

A3 = validate_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
B4 = validate_asm([[0, 1, 0, 0], [0, 0, 1, 0], [1, -1, 0, 1], [0, 1, 0, 0]])


def loaded_by_import(*names, then: str = "") -> list:
    """Those of the named modules that a fresh `import asmlab` loads, with
    the statements `then` run after it."""
    code = f"import sys, asmlab\n{then}\nprint(*sorted({set(names)!r} & set(sys.modules)))"
    return fresh_python(code).split()


def test_import_loads_no_dataclasses_or_inspect():
    assert loaded_by_import("dataclasses", "inspect") == []


def test_import_loads_no_hashlib():
    # only a census with a cache_dir hashes, to name its key file
    assert loaded_by_import("hashlib") == []


def test_import_loads_no_json():
    # only a census with a cache_dir writes JSON, its digest's payload
    assert loaded_by_import("json") == []


def test_census_without_cache_loads_no_hashlib():
    """The census digest that names a key file is taken at a census's first
    use of a cache, not on import or without one; the digest of the
    package's sources, taken on import, is a crc32 and needs no hashlib.
    The digest's JSON payload is written then too, so json is not loaded
    either."""
    then = 'asmlab.tabulate(5, checks=("codim",))'
    assert loaded_by_import("hashlib", "json", then=then) == []


# The modules that `import asmlab` leaves to the first use of one of their
# names: no census or analysis reads them.
LAZY_MODULES = ("asmlab.combinatorics", "asmlab.squarefree", "asmlab.sweeps")


def test_import_loads_no_lazy_module():
    assert loaded_by_import(*LAZY_MODULES) == []


def test_census_and_analysis_load_no_lazy_module(tmp_path):
    """A cached census with every check, the analysis of every ASM(5) over
    GF(2) (Reisner's criterion included) and the brute-force Perm(A) of the
    benchmark's check phase compile nothing more."""
    then = (
        f"asmlab.tabulate(5, cache_dir={str(tmp_path)!r})\n"
        "for A in asmlab.enumerate_asms(5):\n"
        "    asmlab.analyze_asm(A, field=2)\n"
        "    asmlab.perm_set_naive(A)"
    )
    assert loaded_by_import(*LAZY_MODULES, then=then) == []


# Every name `asmlab` exported when all of its modules were imported with it.
EXPORTS = (
    "ASM_COUNTS", "AnalysisReport", "Asm", "AsmlabError", "CensusTable", "ChainComplex",
    "ContainmentReport", "ContainmentWitness", "DecompositionTrace", "Permutation",
    "SimplicialComplex", "SquarefreeIdeal", "VerificationReport", "__version__", "analyze_asm",
    "ascii_diagram", "asm_complex", "asm_from_json", "asm_geq", "badblock_at", "badblock_match",
    "chain_complex", "check_containment_constraints", "construct_yo_primes", "coxeter_length",
    "direct_sum", "dominant_part", "enumerate_asms", "essential_set", "face_subcomplex",
    "find_pattern", "hochster_depth", "ideal_colon", "ideal_intersection", "init_ideal",
    "insert_unit", "is_cohen_macaulay", "is_face", "is_minimal_prime", "iter_pattern_witnesses",
    "km_vertex_decomposable", "minimal_primes", "minimal_primes_bruteforce",
    "natural_init_ideal", "one_plus", "perm_direct_sum", "perm_from_prime", "perm_set",
    "perm_set_naive", "pipe_dreams", "rank_matrix", "reduced_betti", "rothe_diagram",
    "sparse_rank", "sr_complex_from_ideal", "stanley_reisner_ideal", "tabulate",
    "validate_asm", "verify_statement", "yo_induction_states",
)


def test_every_export_resolves_in_a_fresh_process():
    """Each name is in dir(asmlab) before any is used, `from asmlab import`
    gives the object its defining module holds, and `from asmlab import *`
    binds every name."""
    code = (
        "import sys, asmlab\n"
        f"names = {EXPORTS!r}\n"
        "print(*[n for n in names if n not in dir(asmlab)])\n"
        "star = {}\n"
        "exec('from asmlab import *', star)\n"
        "print(*[n for n in names if n not in star and n != '__version__'])\n"
        "for n in names:\n"
        "    exec(f'from asmlab import {n} as got')\n"
        "    home = getattr(got, '__module__', None)\n"
        "    if home and home.startswith('asmlab') and getattr(sys.modules[home], n) is not got:\n"
        "        print(n)"
    )
    assert fresh_python(code).split() == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        asmlab.no_such_name
    with pytest.raises(ImportError):
        exec("from asmlab import no_such_name")


def test_lazy_record_unpickles_in_a_fresh_process():
    """Unpickling a VerificationReport where asmlab.sweeps is not loaded
    yet imports it and gives an equal report."""
    report = verify_statement("badblock", 4)
    code = (
        "import json, pickle, sys\n"
        "r = pickle.loads(sys.stdin.buffer.read())\n"
        "print(type(r).__module__, json.dumps(r.to_json_dict(), sort_keys=True))"
    )
    out = fresh_python(code, stdin=pickle.dumps(report))
    assert out == f"asmlab.sweeps {json.dumps(report.to_json_dict(), sort_keys=True)}\n"


@pytest.mark.parametrize(
    "record",
    [
        A3,
        Permutation((3, 1, 2)),
        analyze_asm(A3),
        tabulate(4),
        verify_statement("badblock", 4),
    ],
    ids=lambda r: type(r).__name__,
)
def test_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_equal_records_hash_alike():
    def rows():
        return tuple(tuple(row) for row in [[0, 1, 0], [1, -1, 1], [0, 1, 0]])

    assert rows() is not rows()
    assert Asm(rows()) == Asm(rows()) and hash(Asm(rows())) == hash(Asm(rows()))
    line = (3, 1, 2)
    w = Permutation(tuple(list(line)))
    assert w == Permutation(line) and hash(w) == hash(Permutation(line))


def immutable_records():
    delta = sr_complex_from_ideal(init_ideal(B4))
    witness = find_pattern(B4, A3)
    return [
        A3,
        Permutation((3, 1, 2)),
        witness,
        check_containment_constraints(B4, A3, witness),
        delta,
        km_vertex_decomposable(delta),
        tabulate(3),
        chain_complex(delta.facets),
        init_ideal(B4),
    ]


@pytest.mark.parametrize("record", immutable_records(), ids=lambda r: type(r).__name__)
def test_immutable_record_fields_cannot_be_set(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_mutable_reports():
    r = analyze_asm(A3)
    assert r == analyze_asm(A3) and r != analyze_asm(A3, ("codim",))
    with pytest.raises(TypeError):
        hash(r)
    first, second = VerificationReport("badblock", 4), VerificationReport("badblock", 4)
    first.cases += 1
    first.failures.append({})
    first.detail["matches"] = 1
    assert (second.cases, second.failures, second.detail) == (0, [], {})
    with pytest.raises(AttributeError):
        first.extra = None
    assert repr(AnalysisReport(A3)) == (
        f"AnalysisReport(asm={A3!r}, codim=None, perm_count=None,"
        " equidimensional=None, cm=None, km_vd=None)"
    )
