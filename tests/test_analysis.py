import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghw import (
    BinaryMatrix,
    CapExceeded,
    Code,
    DimensionTooSmall,
    TermOrder,
    TheoremViolation,
    TooFewGenerators,
    ZeroCode,
    all_priority_orders,
    coset_minima,
    counterexample_search,
    d2_from_testset,
    ghw_bruteforce,
    ghw_hierarchy,
    ideal_from_supports,
    min_pair_union,
    minimal_support_codewords,
    reduced_groebner_basis,
    sample_orders,
    second_weight_witness,
    union_all_orders,
    union_testsets,
    verify_code,
    word_from_string,
    word_to_string,
)
from ghw.analysis import check_symmetric_difference_lemma, symmetric_difference_triple
from ghw.gf2 import kernel_basis
from ghw.codes import ghw_via_resolution
from ghw.groebner import test_set as extract_testset
from ghw.resolution import BettiTable

import known_codes as kc
from conftest import make_code
from test_codes import random_code, subcode_dim_within


def test_ghw_via_resolution_toy(toy63):
    assert ghw_via_resolution(toy63).values == kc.TOY63_GHW
    assert ghw_via_resolution(toy63).values == ghw_hierarchy(toy63).values


def test_ghw_via_resolution_hamming(hamming74):
    assert ghw_via_resolution(hamming74).values == kc.HAMMING74_GHW


def test_ghw_via_resolution_code149(code149):
    assert ghw_via_resolution(code149).values == kc.CODE149_GHW


def test_verify_audit_sweeps_the_circuit_ideal(toy63, monkeypatch):
    """audit compares the fast circuit-ideal table with the Hochster
    sweep: a wrong count off the min shifts passes without audit and
    raises with it."""
    import ghw.analysis as analysis

    fast = analysis.circuit_betti_table

    def top_cell_off_by_one(c):
        entries = dict(fast(c).entries)
        entries[max(entries)] += 1
        return BettiTable(entries)

    monkeypatch.setattr(analysis, "circuit_betti_table", top_cell_off_by_one)
    order = TermOrder.default(6)
    verify_code(toy63, order)
    with pytest.raises(TheoremViolation, match="circuit-ideal Betti tables differ"):
        verify_code(toy63, order, audit=True)


def test_verify_audit_checks_the_targeted_testset_sweep(toy63, monkeypatch):
    """audit rebuilds the test-set ideal's full Betti table: a window
    kernel that finds no homology is caught there, before the battery
    reports the missing shifts."""
    from ghw import resolution

    whole = resolution._relative_homology

    def window_blind(w, gens, audit, lo=0, hi=None):
        return [0] if hi is not None else whole(w, gens, audit, lo, hi)

    monkeypatch.setattr(resolution, "_relative_homology", window_blind)
    order = TermOrder.default(6)
    with pytest.raises(TheoremViolation, match="proven checks failed"):
        verify_code(toy63, order)
    with pytest.raises(TheoremViolation, match="targeted sweep"):
        verify_code(toy63, order, audit=True)


def test_verify_refuses_testset_sweep_past_budget_before_code_facts(monkeypatch):
    """The seeded [24,12] test-set sweep is past the mask budget: verify
    refuses it before building any per-code table."""
    import ghw.codes

    calls = []
    monkeypatch.setattr(ghw.codes, "_indicator_blocks", lambda *args: calls.append(args))
    code = random_code(random.Random(24), 24, 12)
    with pytest.raises(CapExceeded, match="submask visits"):
        verify_code(code, TermOrder.default(24))
    assert calls == []


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
        assert pair.m1 in supports
        assert pair.m2 in supports
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
    assert report.flagged == ()


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


def test_search_builds_code_facts_once_per_code(monkeypatch):
    """Under three orders, the code-only tables are built once per
    evaluated code and the set lemma once per search."""
    import ghw.analysis as analysis
    import ghw.codes

    modules = {"_indicator_blocks": ghw.codes, "circuit_betti_table": analysis,
               "check_symmetric_difference_lemma": analysis}
    calls = dict.fromkeys(modules, 0)
    for name, module in modules.items():
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    report = counterexample_search(8, 5, trials=10, seed=2,
                                   orders=sample_orders(8, 3, seed=2))
    assert report.evaluated >= 5
    assert calls == {"_indicator_blocks": report.evaluated,
                     "circuit_betti_table": report.evaluated,
                     "check_symmetric_difference_lemma": 1}


@pytest.mark.parametrize("n, k, seed, order_count", [
    (8, 5, 2, 1), (8, 6, 4, 2), (9, 6, 1, 3), (9, 7, 4, 3)])
def test_multi_order_search_matches_per_order_verify(n, k, seed, order_count):
    orders = sample_orders(n, order_count, seed=seed)
    trials = 12
    report = counterexample_search(n, k, trials, seed, orders=orders)
    flagged = []
    i3_failures = 0
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        try:
            code = Code.from_generator(BinaryMatrix(rows, n))
        except ZeroCode:
            continue
        if code.k < k or not code.nondegenerate:
            continue
        for o in orders:
            res = verify_code(code, o, seed=seed)
            i3_failures += res.exact_through_i3 is False
            if not res.full_agreement:
                flagged.append({
                    "trial": f"random:{t}",
                    "matrix": tuple(" ".join(row) for row in code.generator.row_strings()),
                    "order": o.describe(),
                    "ghw": res.ghw,
                    "minshift_testset": res.minshift_testset,
                    "pd_testset": res.pd_testset,
                    "k": code.k,
                    "exact_through_i3": res.exact_through_i3,
                })
    assert report.flagged == tuple(flagged)
    assert report.exactness_i3_failures == i3_failures


def test_search_random_run_is_deterministic():
    a = counterexample_search(8, 4, trials=12, seed=5)
    b = counterexample_search(8, 4, trials=12, seed=5)
    assert a.as_dict() == b.as_dict()
    assert a.evaluated + a.skipped_rank_deficient + a.skipped_degenerate == 12


def per_order_union(c, orders):
    """One reduced basis and test set per order: the oracle for the
    class-by-class union of union_testsets."""
    union = set()
    for o in orders:
        basis, _ = reduced_groebner_basis(c, o)
        union.update(extract_testset(basis, c))
    return ideal_from_supports(c.n, union)


def count_bases(monkeypatch):
    """Route analysis's reduced_groebner_basis through a call counter."""
    import ghw.analysis as analysis

    calls = []
    real = analysis.reduced_groebner_basis

    def counted(c, o):
        calls.append(o)
        return real(c, o)

    monkeypatch.setattr(analysis, "reduced_groebner_basis", counted)
    return calls


def test_union_over_all_orders_hamming_builds_one_basis(hamming74, monkeypatch):
    """Hamming [7,4] is perfect: every coset has one minimum-weight
    member, so all 10,080 orders share one basis."""
    orders = list(all_priority_orders(7))
    calls = count_bases(monkeypatch)
    ideal = union_testsets(hamming74, orders)
    assert len(orders) == 10_080
    assert len(calls) == 1
    assert ideal == per_order_union(hamming74, orders[:50])


def test_union_over_all_orders_toy_builds_one_basis_per_class(toy63, monkeypatch):
    orders = list(all_priority_orders(6))
    calls = count_bases(monkeypatch)
    ideal = union_testsets(toy63, orders)
    assert len(orders) == 1_440
    assert len(calls) == 8
    # only the 8 orders that built a basis keep their sort-key weight table
    assert sum("_weights" in vars(o) for o in orders) == 8
    monkeypatch.undo()
    assert ideal == per_order_union(toy63, orders)


@st.composite
def codes_with_orders(draw):
    """A random code, some degenerate (a column cleared) and some with a
    weight-1 codeword, with every order when n <= 6 and 50 sampled ones
    above."""
    n = draw(st.integers(2, 10))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n - 1))
    dead = draw(st.sampled_from((0, 1 << (n - 1))))
    rows = [r & ~dead for r in rows]
    unit = draw(st.none() | st.integers(0, n - 1))
    if unit is not None:
        rows.append(1 << unit)
    assume(any(rows))
    code = Code.from_generator(BinaryMatrix(tuple(rows), n))
    if n <= 6:
        return code, list(all_priority_orders(n))
    return code, sample_orders(n, 50, seed=draw(st.integers(0, 1000)))


@settings(max_examples=40, deadline=None)
@given(codes_with_orders())
def test_union_testsets_matches_per_order_oracle(case):
    code, orders = case
    assert union_testsets(code, orders) == per_order_union(code, orders)


def test_union_testsets_refuses_leaders_off_the_minima(toy63, monkeypatch):
    """With the member that the first order picks hidden from each tied
    coset, that order's class has leaders unlike its key."""
    import ghw.analysis as analysis

    orders = list(all_priority_orders(6))

    def hide_first_pick(c):
        return {syn: tuple(m for m in members if m != orders[0].min_word(members))
                     if len(members) > 1 else members
                for syn, members in coset_minima(c).items()}

    monkeypatch.setattr(analysis, "coset_minima", hide_first_pick)
    with pytest.raises(TheoremViolation, match="coset leaders"):
        union_testsets(toy63, orders)


@st.composite
def short_codes(draw):
    """A code of length n <= 7: random rows, some with a column cleared
    (degenerate) or a weight-1 word added, or a code of dimension 1 or
    n - 1 (the kernel of one nonzero check row)."""
    n = draw(st.integers(4, 7))
    shape = draw(st.sampled_from(("rows", "rows", "k=1", "k=n-1")))
    if shape == "k=n-1":
        check = BinaryMatrix((draw(st.integers(1, (1 << n) - 1)),), n)
        return Code.from_generator(kernel_basis(check))
    if shape == "k=1":
        rows = [draw(st.integers(1, (1 << n) - 1))]
    else:
        rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n - 1))
        dead = draw(st.sampled_from((0, 1 << (n - 1))))
        rows = [r & ~dead for r in rows]
        unit = draw(st.none() | st.integers(0, n - 1))
        if unit is not None:
            rows.append(1 << unit)
    assume(any(rows))
    return Code.from_generator(BinaryMatrix(tuple(rows), n))


def class_keys(c, orders):
    """The member each order picks in each tied coset of c: the key of
    its class, one per order."""
    tied = [m for m in coset_minima(c).values() if len(m) > 1]
    return [tuple(o.min_word(m) for m in tied) for o in orders]


@settings(max_examples=30, deadline=None)
@given(short_codes())
def test_union_all_orders_finds_the_classes_of_the_listed_orders(case):
    """The search builds one basis per class of the 2 * n! listed orders,
    its order picks the key of that class, and the union is the union of
    the test sets of every order: one basis per order up to n = 6, and
    one per listed class (union_testsets) at n = 7, where 10,080 bases
    would take a second per code."""
    code = case
    orders = list(all_priority_orders(code.n))
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_bases(monkeypatch)
        ideal = union_all_orders(code)
    keys = class_keys(code, calls)
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(class_keys(code, orders))
    oracle = per_order_union if code.n <= 6 else union_testsets
    assert ideal == oracle(code, orders)


def test_union_all_orders_fixture_classes(hamming74, toy63, monkeypatch):
    """One basis for the perfect Hamming [7,4] code, 8 for the toy [6,3]
    code: as many as listing the orders finds."""
    hamming = union_testsets(hamming74, [TermOrder.default(7)])
    toy = union_testsets(toy63, list(all_priority_orders(6)))
    calls = count_bases(monkeypatch)
    assert union_all_orders(hamming74) == hamming
    assert len(calls) == 1
    calls.clear()
    assert union_all_orders(toy63) == toy
    assert len(calls) == 8


@pytest.mark.parametrize("n, k, seed", [(8, 4, 1), (8, 5, 2), (9, 4, 3), (9, 6, 4),
                                        (10, 5, 5), (10, 7, 6)])
def test_union_all_orders_holds_every_sampled_union(n, k, seed):
    """Above n = 7 listing the orders is too slow for an oracle; every
    test-set word of 200 sampled orders is in the all-orders union."""
    code = random_code(random.Random(seed), n, k)
    full = set(union_all_orders(code).gens)
    sampled = union_testsets(code, sample_orders(n, 200, seed))
    assert set(sampled.gens) <= full


def test_union_all_orders_refuses_leaders_off_the_minima(toy63, monkeypatch):
    """With one member left in each tied coset, one the first order of
    the search (deglex 1,2,...,n, its walk empty) does not pick, the
    search finds one class, and that order's leaders are unlike its key."""
    import ghw.analysis as analysis

    first = TermOrder("deglex", tuple(range(6)))

    def keep_one_unpicked(c):
        return {syn: members[:1] if len(members) == 1 else
                (next(m for m in members if m != first.min_word(members)),)
                for syn, members in coset_minima(c).items()}

    monkeypatch.setattr(analysis, "coset_minima", keep_one_unpicked)
    with pytest.raises(TheoremViolation, match="coset leaders of deglex vars=1,2,3,4,5,6"):
        union_all_orders(toy63)


def test_union_all_orders_refused_past_the_budget_before_any_basis(monkeypatch):
    """The [10,7] code's search visits 16 states or more, 8 cosets each:
    a budget of 127 refuses it, and no basis is built."""
    import ghw.analysis as analysis

    code = make_code(kc.CODE107_ROWS)
    calls = count_bases(monkeypatch)
    monkeypatch.setattr(analysis, "FAN_BUDGET", 127)
    with pytest.raises(CapExceeded, match="states of 8 cosets"):
        union_all_orders(code)
    assert calls == []


def minimum_weight_words(code):
    """Syndrome -> every minimum-weight word of that coset, by scanning
    all 2^n words."""
    best = {}
    for w in range(1 << code.n):
        syn = code.parity.mul_word(w)
        members = best.setdefault(syn, [])
        if not members or w.bit_count() < members[0].bit_count():
            members[:] = [w]
        elif w.bit_count() == members[0].bit_count():
            members.append(w)
    return {syn: tuple(members) for syn, members in best.items()}


@settings(max_examples=100, deadline=None)
@given(codes_with_orders())
def test_coset_minima_are_the_minimum_weight_words_and_hold_every_leader(case):
    code, orders = case
    minima = coset_minima(code)
    assert minima == minimum_weight_words(code)
    assert len(minima) == 1 << (code.n - code.k)
    for o in orders[::max(1, len(orders) // 5)]:
        _, table = reduced_groebner_basis(code, o)
        assert table.leaders.keys() == minima.keys()
        for syn, leader in table.leaders.items():
            assert leader in minima[syn]
            assert o.min_word(minima[syn]) == leader


def test_coset_minima_fixtures(toy63, hamming74):
    assert all(len(m) == 1 for m in coset_minima(hamming74).values())
    assert coset_minima(make_code(["100", "010", "001"])) == {0: (0,)}
    toy = coset_minima(toy63)
    assert len(toy) == 8
    assert sum(len(m) > 1 for m in toy.values()) >= 1


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


def test_sample_orders_past_the_order_count_stops_at_all_of_them(monkeypatch):
    """n = 3 has 2 * 3! = 12 orders; asking for more returns the same 12
    without drawing up to the attempt limit (100,100 draws for 2000)."""
    shuffles = 0

    class CountingRandom(random.Random):
        def shuffle(self, x):
            nonlocal shuffles
            shuffles += 1
            super().shuffle(x)

    monkeypatch.setattr("ghw.analysis.random.Random", CountingRandom)
    every = sample_orders(3, 12, seed=0)
    assert len({(o.kind, o.priority) for o in every}) == 12
    shuffles = 0
    assert sample_orders(3, 2000, seed=0) == every
    assert shuffles < 1000
