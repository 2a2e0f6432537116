"""asmlab: exact computations with alternating sign matrix varieties.

Combinatorics of ASMs (rank matrices, Rothe diagrams, essential sets,
pattern containment), their antidiagonal initial ideals and minimal primes,
Stanley-Reisner complexes with fixed-order vertex decomposability, exact
simplicial homology, Cohen-Macaulayness, and census/verification sweeps.

Importing the package loads only what every census runs: `enumeration`
(the `Asm` record, the stream, `analyze_asm` and `tabulate`), `ideals`
(the Perm(A) walk, the subword recursion and gluing) and `errors`.  The
names of the modules no census reads (`asm`, `combinatorics`,
`squarefree`, `sweeps`) and of `homology`, read only for a complex that is
not vertex decomposable, are resolved at their first use (PEP 562), so
`from asmlab import verify_statement` works as before and loads `sweeps`
then.  `complexes`, which only an ASM whose CM answer gluing leaves
undecided reaches, loads with the first module that imports it.
"""

from .enumeration import (
    ASM_COUNTS,
    AnalysisReport,
    Asm,
    CensusTable,
    analyze_asm,
    enumerate_asms,
    is_cohen_macaulay,
    tabulate,
)
from .errors import AsmlabError

__version__ = "0.1.0"

# The names loaded at first use, by the module that defines them.
_LAZY = {
    "asm": (
        "Permutation",
        "asm_from_json",
        "asm_geq",
        "coxeter_length",
        "perm_set",
        "perm_set_naive",
        "pipe_dreams",
        "rank_matrix",
        "validate_asm",
    ),
    "combinatorics": (
        "ContainmentReport",
        "ContainmentWitness",
        "ascii_diagram",
        "badblock_at",
        "badblock_match",
        "check_containment_constraints",
        "direct_sum",
        "dominant_part",
        "essential_set",
        "find_pattern",
        "insert_unit",
        "iter_pattern_witnesses",
        "one_plus",
        "perm_direct_sum",
        "rothe_diagram",
    ),
    "homology": ("ChainComplex", "chain_complex", "hochster_depth", "reduced_betti", "sparse_rank"),
    "squarefree": (
        "DecompositionTrace",
        "SimplicialComplex",
        "SquarefreeIdeal",
        "construct_yo_primes",
        "face_subcomplex",
        "ideal_colon",
        "ideal_intersection",
        "init_ideal",
        "is_face",
        "is_minimal_prime",
        "km_vertex_decomposable",
        "minimal_primes",
        "minimal_primes_bruteforce",
        "natural_init_ideal",
        "perm_from_prime",
        "sr_complex_from_ideal",
        "stanley_reisner_ideal",
        "yo_induction_states",
    ),
    "sweeps": ("VerificationReport", "verify_statement"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}
# what `from asmlab import *` binds: every public name, loading all five
__all__ = [*(name for name in globals() if not name.startswith("_")), *_MODULE_OF]


def __getattr__(name):
    """Import the module that defines a lazily loaded name, and keep the
    name here, so the next lookup finds it directly."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
