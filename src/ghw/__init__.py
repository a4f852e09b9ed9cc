"""Generalized Hamming weights of binary linear codes, three ways:
a brute-force subset oracle, graded Betti tables of the circuit ideal,
and Groebner test sets of the binomial code ideal.
"""

from .codes import (
    Code,
    GhwSequence,
    ghw_bruteforce,
    ghw_hierarchy,
    matroid_circuits,
    minimal_support_codewords,
    subcode_dim_within,
)
from .errors import (
    CapExceeded,
    DimensionTooSmall,
    EmptyAmbient,
    GhwError,
    LengthCapExceeded,
    MatrixParseError,
    TheoremViolation,
    TooFewGenerators,
    ZeroCode,
)
from .gf2 import BinaryMatrix, kernel_basis, rank_of_columns, rref, word_from_string, word_to_string
from .groebner import (
    Binomial,
    CosetTable,
    GroebnerBasis,
    TermOrder,
    decode,
    normal_form,
    reduced_groebner_basis,
    test_set,
)
from .analysis import (
    SearchReport,
    VerificationReport,
    WitnessPair,
    all_priority_orders,
    counterexample_search,
    d2_from_testset,
    ghw_via_resolution,
    sample_orders,
    second_weight_witness,
    union_testsets,
    verify_code,
)
from .resolution import (
    BettiTable,
    MonomialIdeal,
    betti_table_hochster,
    ideal_from_supports,
    min_pair_union,
    min_shift_sequence,
    min_shifts,
    reduced_homology_dims,
    restricted_faces,
    taylor_pair_minimum,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix", "Binomial", "BettiTable", "CapExceeded", "Code",
    "CosetTable", "DimensionTooSmall", "EmptyAmbient", "GhwError",
    "GhwSequence", "GroebnerBasis", "LengthCapExceeded", "MatrixParseError",
    "MonomialIdeal", "SearchReport", "TermOrder", "TheoremViolation",
    "TooFewGenerators", "VerificationReport", "WitnessPair", "ZeroCode",
    "all_priority_orders", "betti_table_hochster", "counterexample_search",
    "d2_from_testset", "decode", "ghw_bruteforce", "ghw_hierarchy",
    "ghw_via_resolution", "ideal_from_supports", "kernel_basis",
    "matroid_circuits", "min_pair_union", "min_shift_sequence", "min_shifts",
    "minimal_support_codewords", "normal_form", "rank_of_columns",
    "reduced_groebner_basis", "reduced_homology_dims", "restricted_faces",
    "rref", "sample_orders", "second_weight_witness", "subcode_dim_within",
    "taylor_pair_minimum", "test_set", "union_testsets", "verify_code",
    "word_from_string", "word_to_string",
]
