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
LAZY_MODULES = ("asmlab.asm", "asmlab.combinatorics", "asmlab.squarefree", "asmlab.sweeps")
# The modules that `import asmlab` loads: what every census runs.
EAGER_MODULES = ("asmlab", "asmlab.enumeration", "asmlab.errors", "asmlab.ideals")


def test_import_loads_no_lazy_module():
    assert loaded_by_import(*LAZY_MODULES) == []


def test_import_loads_exactly_the_eager_modules():
    code = "import sys, asmlab\nprint(*sorted(m for m in sys.modules if m.startswith('asmlab')))"
    assert fresh_python(code).split() == list(EAGER_MODULES)


def test_census_and_analysis_load_no_lazy_module(tmp_path):
    """A cached census with every check and the analysis of every ASM(5)
    over GF(2) compile nothing more, and the brute-force Perm(A) of the
    benchmark's check phase compiles exactly the module it lives in."""
    then = (
        f"asmlab.tabulate(5, cache_dir={str(tmp_path)!r})\n"
        "for A in asmlab.enumerate_asms(5):\n"
        "    asmlab.analyze_asm(A, field=2)"
    )
    assert loaded_by_import(*LAZY_MODULES, then=then) == []
    then += "\n    asmlab.perm_set_naive(A)"
    assert loaded_by_import(*LAZY_MODULES, "asmlab.complexes", then=then) == ["asmlab.asm"]


# Run in a fresh process: every census shape, under sys.setprofile from before
# `import asmlab`, then print the functions and methods (by qualified name) of
# the modules it loaded that were never called.
EAGER_CODE_CALLED = """
import json, sys, tempfile, types

called = set()


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.setprofile(profile)
import asmlab

for field in ("rational", 2):
    for n in range(1, 6):
        asmlab.tabulate(n, field=field)
        with tempfile.TemporaryDirectory() as cache_dir:
            for _ in range(2):  # into the cache, then from it
                asmlab.tabulate(n, field=field, cache_dir=cache_dir)
asmlab.tabulate(5, filter_spec="a11=1")
asmlab.tabulate(6, checks=("codim", "equidim"))
sys.setprofile(None)


def functions(code, prefix):
    # (qualified name, code) of each function and method under code; a
    # class body (not CO_OPTIMIZED) is none, and nor is a comprehension
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            if const.co_flags & 1 and (name[-1] != ">" or name.endswith("<lambda>")):
                yield name, const
            yield from functions(const, name + ".")


uncalled = []
for module in sorted(m for m in sys.modules if m.split(".")[0] == "asmlab"):
    path = sys.modules[module].__file__
    with open(path) as source:
        top = compile(source.read(), path, "exec")
    for name, code in functions(top, module + "."):
        if (code.co_filename, code.co_firstlineno, code.co_name) not in called:
            uncalled.append(name)
print(json.dumps(uncalled))
"""

# The functions and methods of the eager modules that no census calls, each
# with why it stays there.
NOT_CALLED_BY_A_CENSUS = {
    "asmlab.__getattr__": "loads a lazy module at the first use of one of its names",
    "asmlab.__dir__": "lists the lazy names beside the loaded ones",
    "asmlab.enumeration.Asm.__getitem__": "record convenience: an entry by its cell",
    "asmlab.enumeration.Asm.to_json_dict": "record convenience: asmlab analyze's JSON",
    "asmlab.enumeration.Asm.identity": "record convenience: the identity ASM",
    "asmlab.enumeration.Asm.__str__": "record convenience: the matrix as text",
    "asmlab.enumeration._Slotted._values": "record convenience: read by __eq__",
    "asmlab.enumeration._Slotted.__eq__": "record convenience: equal reports",
    "asmlab.enumeration._Slotted.__repr__": "record convenience: a report's repr",
    "asmlab.enumeration._invalid_field": "error builder: a malformed field",
    "asmlab.enumeration.is_cohen_macaulay": "analyze_asm's CM answer, for one ASM",
    "asmlab.enumeration.CensusTable.row": "record convenience: the row to render",
    "asmlab.enumeration.CensusTable.row.cell": "record convenience: a check not run",
    "asmlab.enumeration.CensusTable.to_csv": "record convenience: asmlab enumerate's CSV",
    "asmlab.enumeration.CensusTable.to_json_dict": "record convenience: its JSON",
}


def test_eager_modules_hold_only_census_code():
    """Every function and method of the modules `import asmlab` loads is
    called by some census: every check at n <= 5 over Q and GF(2), with
    and without a cache, filtered, and codim and equidim at n=6, all in
    one fresh process.  What no census runs belongs in a module loaded at
    first use, or in NOT_CALLED_BY_A_CENSUS with its reason."""
    uncalled = json.loads(fresh_python(EAGER_CODE_CALLED))
    assert sorted(uncalled) == sorted(NOT_CALLED_BY_A_CENSUS)


# The first ASM(6) in stream order whose CM answer gluing leaves undecided:
# its complex is not vertex decomposable, so its CM answer reaches Reisner's
# criterion.  Gluing decides every ASM(n <= 5).
UNDECIDED6 = [
    [0, 1, 0, 0, 0, 0],
    [1, -1, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 1, 0, -1, 0, 1],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
]


def test_import_and_vd_censuses_load_no_homology():
    """complexes holds what only an ASM whose CM answer gluing leaves
    undecided reaches, and homology what only such a complex that is not
    vd reaches, so neither `import asmlab`, nor a census without the cm
    check, nor a census with every check that gluing decides throughout
    (every n <= 5) loads either."""
    names = ("asmlab.complexes", "asmlab.homology")
    assert loaded_by_import(*names) == []
    then = (
        'asmlab.tabulate(6, checks=("codim", "equidim", "km_vd"))\n'
        "for n in range(1, 6):\n"
        "    asmlab.tabulate(n)"
    )
    assert loaded_by_import(*names, then=then) == []


def test_complex_not_vd_loads_homology():
    """The KM-vd answer of an ASM(6) that gluing leaves undecided loads no
    complex; its CM answer builds the complex (complexes), which is not vd,
    so it loads homology, and Reisner's criterion finds it not CM over Q
    and GF(2)."""
    code = (
        "import sys, asmlab\n"
        f"A = asmlab.validate_asm({UNDECIDED6!r})\n"
        'names = ("asmlab.complexes", "asmlab.homology")\n'
        "loaded = lambda: [name in sys.modules for name in names]\n"
        'print(asmlab.analyze_asm(A, ("km_vd",)).km_vd, *loaded())\n'
        'print(*(asmlab.analyze_asm(A, ("cm",), field).cm for field in ("rational", 2)))\n'
        "print(*loaded())"
    )
    expected = ["False", "False", "False", "False", "False", "True", "True"]
    assert fresh_python(code).split() == expected


# Every name `asmlab` exported when all of its modules were imported with it.
EXPORTS = (
    "ASM_COUNTS", "AnalysisReport", "Asm", "AsmlabError", "CensusTable", "ChainComplex",
    "ContainmentReport", "ContainmentWitness", "DecompositionTrace", "Permutation",
    "SimplicialComplex", "SquarefreeIdeal", "VerificationReport", "__version__", "analyze_asm",
    "ascii_diagram", "asm_from_json", "asm_geq", "badblock_at", "badblock_match",
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
        km_vertex_decomposable(delta.facets, 4),
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
