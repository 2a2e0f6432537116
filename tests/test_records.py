"""The package's records: immutable ones are NamedTuples, and the mutable
AnalysisReport and VerificationReport are slotted classes.  They pickle (a
Pool ships ASM lists and shard results), hash alike when equal, and the
package imports none of dataclasses, inspect and hashlib."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

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
    perm_set,
    sr_complex_from_ideal,
    tabulate,
    validate_asm,
    verify_statement,
)
from asmlab.enumeration import AnalysisReport, VerificationReport

A3 = validate_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
B4 = validate_asm([[0, 1, 0, 0], [0, 0, 1, 0], [1, -1, 0, 1], [0, 1, 0, 0]])


def loaded_by_import(*names) -> list:
    """Those of the named modules that a fresh `import asmlab` loads, under
    -S, so that no site hook can load one first."""
    src = str(Path(asmlab.__file__).resolve().parent.parent)
    code = f"import sys, asmlab; print(*sorted({set(names)!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.split()


def test_import_loads_no_dataclasses_or_inspect():
    assert loaded_by_import("dataclasses", "inspect") == []


def test_import_loads_no_hashlib():
    # only a census with a cache directory names its key file with hashlib
    assert loaded_by_import("hashlib") == []


@pytest.mark.parametrize(
    "record",
    [
        A3,
        Permutation((3, 1, 2)),
        perm_set(A3),
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
        perm_set(B4),
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
