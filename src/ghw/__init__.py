"""Generalized Hamming weights of binary linear codes, three ways:
an exhaustive table of subcode dimensions over all coordinate subsets,
graded Betti tables of the circuit ideal, and Groebner test sets of the
binomial code ideal.
"""

from .codes import (
    Code,
    GhwSequence,
    circuit_betti_table,
    ghw_bruteforce,
    ghw_hierarchy,
    minimal_support_codewords,
    subcode_dims,
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
from .gf2 import BinaryMatrix, kernel_basis, rref, word_from_string, word_to_string
from .groebner import (
    Binomial,
    CosetTable,
    GroebnerBasis,
    TermOrder,
    coset_minima,
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
    hochster_min_shifts,
    ideal_from_supports,
    min_pair_union,
    min_shift_sequence,
    min_shifts,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable", "BinaryMatrix", "Binomial", "CapExceeded", "Code",
    "CosetTable", "DimensionTooSmall", "EmptyAmbient", "GhwError",
    "GhwSequence", "GroebnerBasis", "LengthCapExceeded", "MatrixParseError",
    "MonomialIdeal", "SearchReport", "TermOrder", "TheoremViolation",
    "TooFewGenerators", "VerificationReport", "WitnessPair", "ZeroCode",
    "all_priority_orders", "betti_table_hochster", "circuit_betti_table",
    "coset_minima", "counterexample_search", "d2_from_testset", "decode", "ghw_bruteforce",
    "ghw_hierarchy", "ghw_via_resolution", "hochster_min_shifts", "ideal_from_supports",
    "kernel_basis", "min_pair_union", "min_shift_sequence", "min_shifts",
    "minimal_support_codewords", "normal_form", "reduced_groebner_basis",
    "rref", "sample_orders", "second_weight_witness", "subcode_dims",
    "test_set", "union_testsets", "verify_code", "word_from_string",
    "word_to_string",
]
