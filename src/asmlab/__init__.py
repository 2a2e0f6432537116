"""asmlab: exact computations with alternating sign matrix varieties.

Combinatorics of ASMs (rank matrices, Rothe diagrams, essential sets,
pattern containment), their antidiagonal initial ideals and minimal primes,
Stanley-Reisner complexes with fixed-order vertex decomposability, exact
simplicial homology, Cohen-Macaulayness, and census/verification sweeps.
"""

from .asm import (
    Asm,
    ContainmentReport,
    ContainmentWitness,
    Permutation,
    ascii_diagram,
    asm_from_json,
    asm_geq,
    badblock_at,
    badblock_match,
    check_containment_constraints,
    coxeter_length,
    delete_row_col,
    direct_sum,
    dominant_part,
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
from .complexes import (
    DecompositionTrace,
    SimplicialComplex,
    asm_complex,
    face_subcomplex,
    full_grid_ideal,
    is_face,
    is_pure,
    km_vertex_decomposable,
    sr_complex_from_ideal,
    stanley_reisner_ideal,
)
from .enumeration import (
    ASM_COUNTS,
    AnalysisReport,
    CensusTable,
    VerificationReport,
    analyze_asm,
    enumerate_asms,
    is_cohen_macaulay,
    tabulate,
    verify_statement,
)
from .errors import AsmlabError
from .homology import (
    ChainComplex,
    HomologyProfile,
    chain_complex,
    hochster_depth,
    reduced_homology_ranks,
    sparse_rank,
)
from .ideals import (
    MinorSpec,
    PermSet,
    SquarefreeIdeal,
    construct_yo_primes,
    fulton_minor_specs,
    ideal_colon,
    ideal_intersection,
    ideal_sum,
    init_ideal,
    is_minimal_prime,
    minimal_primes,
    minimal_primes_bruteforce,
    natural_init_ideal,
    perm_from_prime,
    perm_set,
    pipe_dreams,
    yo_induction_states,
)

__version__ = "0.1.0"
