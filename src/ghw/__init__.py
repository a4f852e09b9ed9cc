"""Generalized Hamming weights of binary linear codes, three ways:
an exhaustive table of subcode dimensions over all coordinate subsets,
graded Betti tables of the circuit ideal, and Groebner test sets of the
binomial code ideal.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the module that defines each.  A name is imported on
# first access (PEP 562), so importing ghw loads none of its modules and a
# CLI command loads only the ones it uses.
_EXPORTS = {
    "codes": ("Code", "GhwSequence", "circuit_betti_table", "ghw_bruteforce",
              "ghw_hierarchy", "ghw_via_resolution", "minimal_support_codewords",
              "subcode_dims"),
    "errors": ("CapExceeded", "DimensionTooSmall", "EmptyAmbient", "GhwError",
               "LengthCapExceeded", "MatrixParseError", "TheoremViolation",
               "TooFewGenerators", "ZeroCode"),
    "gf2": ("BinaryMatrix", "kernel_basis", "rref", "word_from_string", "word_to_string"),
    "groebner": ("Binomial", "CosetTable", "GroebnerBasis", "TermOrder", "coset_minima",
                 "decode", "normal_form", "reduced_groebner_basis", "test_set"),
    "analysis": ("SearchReport", "VerificationReport", "WitnessPair", "all_priority_orders",
                 "counterexample_search", "d2_from_testset", "sample_orders",
                 "second_weight_witness", "union_all_orders", "union_testsets",
                 "verify_code"),
    "resolution": ("BettiTable", "MonomialIdeal", "betti_table_hochster",
                   "hochster_min_shifts", "ideal_from_supports", "min_pair_union",
                   "min_shift_sequence", "min_shifts"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
