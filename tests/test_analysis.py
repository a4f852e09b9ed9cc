import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghw import (
    BinaryMatrix,
    Code,
    DimensionTooSmall,
    TermOrder,
    TooFewGenerators,
    all_priority_orders,
    counterexample_search,
    d2_from_testset,
    ghw_bruteforce,
    ghw_hierarchy,
    ghw_via_resolution,
    min_pair_union,
    minimal_support_codewords,
    reduced_groebner_basis,
    sample_orders,
    second_weight_witness,
    subcode_dim_within,
    union_testsets,
    verify_code,
    word_from_string,
    word_to_string,
)
from ghw.analysis import check_symmetric_difference_lemma, symmetric_difference_triple
from ghw.groebner import test_set as extract_testset

import known_codes as kc
from conftest import make_code
from test_codes import random_code


def test_ghw_via_resolution_toy(toy63):
    assert ghw_via_resolution(toy63).values == kc.TOY63_GHW
    assert ghw_via_resolution(toy63).values == ghw_hierarchy(toy63).values


def test_ghw_via_resolution_hamming(hamming74):
    assert ghw_via_resolution(hamming74).values == kc.HAMMING74_GHW


def test_ghw_via_resolution_code149(code149):
    assert ghw_via_resolution(code149).values == kc.CODE149_GHW


def test_witness_worked63_order1(worked63):
    order = TermOrder.default(6)  # x1 > ... > x6
    pair = second_weight_witness(worked63, order)
    assert word_to_string(pair.m1, 6) == "001011"
    assert word_to_string(pair.m2, 6) == "010101"
    assert pair.union_size == 5


def test_witness_worked63_order2(worked63):
    order = TermOrder("degrevlex", tuple(reversed(range(6))))  # x6 > ... > x1
    pair = second_weight_witness(worked63, order)
    assert word_to_string(pair.m1, 6) == "111000"
    assert word_to_string(pair.m2, 6) == "100110"
    assert pair.union_size == 5


def test_witness_supports_occur_in_basis(worked63):
    for order in (TermOrder.default(6),
                  TermOrder("degrevlex", tuple(reversed(range(6))))):
        pair = second_weight_witness(worked63, order)
        basis, _ = reduced_groebner_basis(worked63, order)
        supports = {b.support for b in basis.binomials}
        assert pair.support_i in supports
        assert pair.support_j in supports
        assert 2 * (pair.m1 & pair.m2).bit_count() <= pair.m1.bit_count() \
            <= pair.m2.bit_count()


def test_witness_dimension_two_code_covers_everything():
    rng = random.Random(101)
    found = 0
    while found < 5:
        code = random_code(rng, rng.randint(4, 7), 2)
        if not code.nondegenerate:
            continue
        found += 1
        pair = second_weight_witness(code, TermOrder.default(code.n))
        assert (pair.m1 | pair.m2).bit_count() == code.n


def test_witness_needs_k2():
    with pytest.raises(DimensionTooSmall):
        second_weight_witness(make_code(["111"]), TermOrder.default(3))


def test_d2_from_testset_worked63(worked63):
    assert d2_from_testset(worked63, TermOrder.default(6)) == 5


def test_d2_from_testset_toy(toy63):
    assert d2_from_testset(toy63, TermOrder.default(6)) == 4


def test_d2_from_testset_random_codes_match_oracle():
    rng = random.Random(103)
    for _ in range(6):
        code = random_code(rng, 8, 4)
        order = TermOrder(rng.choice(("deglex", "degrevlex")),
                          tuple(rng.sample(range(8), 8)))
        assert d2_from_testset(code, order) == ghw_bruteforce(code, 2)


def test_d2_from_testset_needs_two_words():
    with pytest.raises(TooFewGenerators):
        d2_from_testset(make_code(["111"]), TermOrder.default(3))


@st.composite
def codes_of_dimension_two_or_more(draw):
    """Random codes, some degenerate (a column cleared) and some with a
    weight-1 codeword (a unit row added), under a random order."""
    n = draw(st.integers(2, 8))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=n))
    dead = draw(st.sampled_from((0, 1 << (n - 1))))
    rows = [r & ~dead for r in rows]
    unit = draw(st.none() | st.integers(0, n - 1))
    if unit is not None:
        rows.append(1 << unit)
    assume(any(rows))
    code = Code.from_generator(BinaryMatrix(tuple(rows), n))
    assume(code.k >= 2)
    kind = draw(st.sampled_from(("deglex", "degrevlex")))
    return code, TermOrder(kind, tuple(draw(st.permutations(range(n)))))


@settings(max_examples=150, deadline=None)
@given(codes_of_dimension_two_or_more())
def test_pair_minimum_and_witness_match_subset_oracle(case):
    code, order = case
    d2 = ghw_bruteforce(code, 2)
    by_definition = min(mask.bit_count() for mask in range(1 << code.n)
                        if subcode_dim_within(code, mask) >= 2)
    assert d2 == by_definition
    assert min_pair_union(w for w in code.codewords() if w) == d2
    assert second_weight_witness(code, order).union_size == d2


def test_min_pair_union_needs_two_words():
    with pytest.raises(TooFewGenerators):
        min_pair_union([0b011])
    assert min_pair_union([0b0011, 0b0011]) == 2  # positions, not values
    assert min_pair_union([0b1111, 0b0001, 0b0110]) == 3


def test_symmetric_difference_triple_examples():
    a = word_from_string("111100")
    b = word_from_string("011110")  # |a & b| = 3 > |a|/2
    assert symmetric_difference_triple(a, b) == (True, True, True)
    assert check_symmetric_difference_lemma(10, 500, seed=7) == 500


def test_verify_toy_full_agreement(toy63):
    report = verify_code(toy63, TermOrder.default(6))
    assert all(report.checks.values())
    assert report.full_agreement
    assert report.pd_testset == 3
    assert report.pd_equals_k
    assert report.minshift_testset == kc.TOY63_GHW


def test_verify_code107_disagrees_at_four(code107):
    report = verify_code(code107, TermOrder.default(10))
    assert all(report.checks.values())
    assert report.ghw == kc.CODE107_GHW
    assert report.minshift_testset == kc.CODE107_TESTSET_MINSHIFTS
    assert report.agreement_by_index == (True, True, True, False, True, True, False)
    assert report.exact_through_i3 is True
    assert not report.full_agreement
    assert report.pd_testset == 6
    assert not report.pd_equals_k


def test_verify_degenerate_code_reports_without_abort():
    code = make_code(["1100", "0110"])
    report = verify_code(code, TermOrder.default(4))
    assert report.degenerate


def test_search_zero_trials():
    report = counterexample_search(6, 3, trials=0, seed=1)
    assert report.evaluated == 0
    assert report.flagged == []


def test_search_flags_injected_counterexample(code107):
    inject = (BinaryMatrix.from_strings(kc.CODE107_ROWS),)
    report = counterexample_search(10, 7, trials=0, seed=1, inject=inject)
    assert report.evaluated == 1
    assert len(report.flagged) == 1
    entry = report.flagged[0]
    assert entry["trial"] == "injected:0"
    assert entry["pd_testset"] == 6
    assert entry["k"] == 7
    assert report.flagged_always_pd_below_k
    # the embedded matrix replays to the same verdict
    rows = [r.replace(" ", "") for r in entry["matrix"]]
    replay = make_code(rows)
    rep = verify_code(replay, TermOrder.default(10))
    assert rep.minshift_testset == tuple(entry["minshift_testset"])


def test_verify_aborts_on_injected_inconsistency(toy63, monkeypatch):
    import ghw.analysis as analysis_mod
    from ghw import TheoremViolation

    real = analysis_mod.min_shifts
    monkeypatch.setattr(analysis_mod, "min_shifts",
                        lambda table: real(table)[:-1] + (99,))
    with pytest.raises(TheoremViolation):
        verify_code(toy63, TermOrder.default(6))


def test_search_small_random_run_completes_without_violations():
    # every proven bound is enforced inside verify_code, which raises on
    # any failure; flagged codes (conjecture mismatches) are fine
    report = counterexample_search(8, 4, trials=40, seed=99)
    assert report.evaluated > 20
    assert report.flagged_always_pd_below_k


def test_search_random_run_is_deterministic():
    a = counterexample_search(8, 4, trials=12, seed=5)
    b = counterexample_search(8, 4, trials=12, seed=5)
    assert a.as_dict() == b.as_dict()
    assert a.evaluated + a.skipped_rank_deficient + a.skipped_degenerate == 12


def test_union_testsets_single_order_is_that_testset(toy63):
    order = TermOrder.default(6)
    ideal = union_testsets(toy63, [order])
    basis, _ = reduced_groebner_basis(toy63, order)
    assert ideal.gens == extract_testset(basis, toy63)


def test_union_testsets_contained_in_minimal_supports(toy63):
    orders = sample_orders(6, 20, seed=11)
    ideal = union_testsets(toy63, orders)
    minimal = set(minimal_support_codewords(toy63))
    assert all(g in minimal for g in ideal.gens)


def test_union_testsets_requires_orders(toy63):
    with pytest.raises(ValueError):
        union_testsets(toy63, [])


def test_order_inventories():
    orders = list(all_priority_orders(3))
    assert len(orders) == 2 * 6
    assert len({(o.kind, o.priority) for o in orders}) == 12
    sampled = sample_orders(6, 15, seed=3)
    assert sampled == sample_orders(6, 15, seed=3)
    assert len({(o.kind, o.priority) for o in sampled}) == 15
