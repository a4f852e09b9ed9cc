import random
from itertools import permutations

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
from ghw.groebner import minimum_weight_layers
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
    class-by-class union of per_class_union."""
    union = set()
    for o in orders:
        basis, _ = reduced_groebner_basis(c, o)
        union.update(extract_testset(basis, c))
    return ideal_from_supports(c.n, union)


def per_class_union(c, orders):
    """The union of the test sets over the given orders from one reduced
    basis per class of orders: the oracle where the orders are too many
    for one basis each.

    The reduced basis depends only on its standard monomials, the coset
    leaders, and every degree-compatible order takes its leaders among the
    minimum-weight members of each coset (coset_minima).  So a class of
    orders (a cone of the Groebner fan) is fixed by the member it picks in
    each tied coset, one with more than one, and that tuple of members is
    the class's key.  Each class's first order builds the basis, and its
    leaders must be the members its key names."""
    minima = coset_minima(c)
    tied = {syn: members for syn, members in minima.items() if len(members) > 1}
    leaders = {syn: members[0] for syn, members in minima.items()}
    classes = {}
    for o in orders:
        classes.setdefault(tuple(map(o.min_word, tied.values())), o)
    union = set()
    for key, o in classes.items():
        basis, table = reduced_groebner_basis(c, o)
        assert table.leaders == leaders | dict(zip(tied, key)), o.describe()
        union.update(extract_testset(basis, c))
    return ideal_from_supports(c.n, union)


def count_bases(monkeypatch):
    """Route analysis's reduced_groebner_basis through a counter of the
    bases it builds."""
    import ghw.analysis as analysis

    calls = []
    real = analysis.reduced_groebner_basis

    def counted(c, o):
        built = real(c, o)
        calls.append(o)
        return built

    monkeypatch.setattr(analysis, "reduced_groebner_basis", counted)
    return calls


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
    """union_testsets builds one basis per order; the class-by-class
    oracle, which builds one per class, gives the same union."""
    code, orders = case
    assert union_testsets(code, orders) == per_class_union(code, orders)


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


@settings(max_examples=30, deadline=None)
@given(short_codes())
def test_union_all_orders_is_the_union_over_the_listed_orders(case):
    """The one pass gives the union of the test sets of the 2 * n! listed
    orders: one basis per order up to n = 6, and one per class of orders
    (per_class_union) at n = 7, where 10,080 bases would take a second per
    code."""
    code = case
    orders = list(all_priority_orders(code.n))
    oracle = per_order_union if code.n <= 6 else per_class_union
    assert union_all_orders(code) == oracle(code, orders)


def test_union_all_orders_fixture_classes(hamming74, toy63, monkeypatch):
    """The perfect Hamming [7,4] code gives its one test set and the toy
    [6,3] code the union over its 8 classes of orders, and the one pass
    builds no basis for either."""
    hamming = union_testsets(hamming74, [TermOrder.default(7)])
    toy = union_testsets(toy63, list(all_priority_orders(6)))
    calls = count_bases(monkeypatch)
    assert union_all_orders(hamming74) == hamming
    assert union_all_orders(toy63) == toy
    assert calls == []


@pytest.mark.parametrize("n, k, seed", [(8, 4, 1), (8, 5, 2), (9, 4, 3), (9, 6, 4),
                                        (10, 5, 5), (10, 7, 6)])
def test_union_all_orders_holds_every_sampled_union(n, k, seed):
    """Above n = 7 listing the orders is too slow for an oracle; every
    test-set word of 200 sampled orders is in the all-orders union."""
    code = random_code(random.Random(seed), n, k)
    full = set(union_all_orders(code).gens)
    sampled = union_testsets(code, sample_orders(n, 200, seed))
    assert set(sampled.gens) <= full


@pytest.mark.parametrize("union", [
    union_all_orders,
    lambda code: union_testsets(code, [TermOrder.default(code.n)]),
    lambda code: reduced_groebner_basis(code, TermOrder.default(code.n)),
], ids=["union_all_orders", "union_testsets", "reduced_groebner_basis"])
def test_unions_refused_past_the_coset_budget_before_any_growth(union, monkeypatch):
    """The [10,7] code has 2^3 cosets: a bound of 2^2 refuses it before
    any coset growth starts (no _candidates call), so no basis is built
    either, and at a bound of 2^3 it runs."""
    import ghw.groebner as groebner

    code = make_code(kc.CODE107_ROWS)
    calls = count_bases(monkeypatch)
    grown = []
    real = groebner._candidates

    def counted(*args):
        grown.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_candidates", counted)
    monkeypatch.setattr(groebner, "COSET_BUDGET", 4)
    with pytest.raises(CapExceeded,
                       match=r"\[10,7\] code has 2\^3 cosets; a coset growth takes 2\^2 at most"):
        union(code)
    assert grown == [] and calls == []
    monkeypatch.setattr(groebner, "COSET_BUDGET", 8)
    union(code)
    assert grown


def one_pass_pairs(code):
    """The pairs (a, m) of U, by scanning all 2^n masks: every
    one-bit-smaller submask of a is a minimum-weight member of its coset,
    and m != a is one of a's coset."""
    minima = minimum_weight_words(code)
    members = {m for coset in minima.values() for m in coset}
    for a in range(1 << code.n):
        if all(a ^ (1 << i) in members for i in range(code.n) if a >> i & 1):
            yield from ((a, m) for m in minima[code.parity.mul_word(a)] if m != a)


def test_union_all_orders_each_pair_holds_a_word_of_its_deglex_order():
    """The construction of union_all_orders' proof on seeded codes with
    n <= 9: U is what the one pass collects; each (a, m), reduced to
    disjoint parts, holds a test-set word of the deglex order that lists
    the variables outside a | m, then those of a, then those of m."""
    rng = random.Random(26)
    pairs = 0
    for _ in range(200):
        n = rng.randint(3, 9)
        code = random_code(rng, n, rng.randint(1, n - 1))
        union = set()
        testsets: dict[tuple[int, ...], tuple[int, ...]] = {}
        for a, m in one_pass_pairs(code):
            union.add(a ^ m)
            while a & m:
                low = a & m & -(a & m)
                a, m = a ^ low, m ^ low
            u = a | m
            priority = tuple(i for part in (~u, a, m) for i in range(n) if part >> i & 1)
            if priority not in testsets:
                basis, _ = reduced_groebner_basis(code, TermOrder("deglex", priority))
                testsets[priority] = extract_testset(basis, code)
            assert any(t & ~u == 0 for t in testsets[priority])
            pairs += 1
        assert union_all_orders(code) == ideal_from_supports(n, union)
    assert pairs > 5000


def test_union_all_orders_is_the_union_over_the_deglex_orders(toy63):
    """The proof's corollary: for n <= 6 the n! deglex orders alone give
    the union over all orders."""
    rng = random.Random(6)
    codes = [toy63]
    for _ in range(60):
        n = rng.randint(3, 6)
        codes.append(random_code(rng, n, rng.randint(1, n - 1)))
    for code in codes:
        deglex = [TermOrder("deglex", p) for p in permutations(range(code.n))]
        assert union_all_orders(code) == per_order_union(code, deglex)


def coset_minima(c):
    """Syndrome -> every minimum-weight member of that coset, ascending,
    from the growth of minimum_weight_layers, stopped at the weight that
    reaches the last coset.  Every degree-compatible order picks its
    coset leader among these members."""
    cosets = 1 << (c.n - c.k)
    for _, minima in minimum_weight_layers(c):
        if len(minima) == cosets:
            break
    return {syn: tuple(sorted(members)) for syn, members in minima.items()}


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
