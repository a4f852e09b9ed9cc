import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghw import (
    BinaryMatrix,
    Code,
    TermOrder,
    decode,
    ghw_bruteforce,
    minimal_support_codewords,
    normal_form,
    reduced_groebner_basis,
    word_from_string,
    word_to_string,
)
from ghw.groebner import Binomial, GroebnerBasis
from ghw.groebner import test_set as extract_testset

import known_codes as kc
from conftest import make_code
from test_codes import random_code


LESS, EQUAL, GREATER = -1, 0, 1


def compare(o: TermOrder, a: int, b: int) -> int:
    """LESS, EQUAL or GREATER for a versus b under o."""
    if a == b:
        return EQUAL
    return LESS if o.sort_key(a) < o.sort_key(b) else GREATER


def loop_sort_key(o: TermOrder, word: int) -> tuple[int, int]:
    """The sort key read variable by variable, all n of them: the oracle
    for TermOrder.sort_key, which reads the set bits only."""
    if o.kind == "deglex":
        t = 0
        for idx in o.priority:
            t = (t << 1) | ((word >> idx) & 1)
        return (word.bit_count(), t)
    t = 0
    for idx in reversed(o.priority):
        t = (t << 1) | ((word >> idx) & 1)
    return (word.bit_count(), -t)


def coset_of(code, word):
    return [word ^ c for c in code.codewords()]


def reference_groebner_basis(code, order):
    """Full-space enumeration: every one of the 2^n masks in increasing
    order, each checked against every lead found so far.  The oracle for
    the bounded enumeration of reduced_groebner_basis."""
    leaders = {}
    leads = []
    binomials = []
    violations = []
    for a in sorted(range(1 << code.n), key=order.sort_key):
        if any(lead & a == lead for lead in leads):
            continue
        s = code.parity.mul_word(a)
        b = leaders.get(s)
        if b is None:
            leaders[s] = a
        else:
            binom = Binomial(a, b)
            binomials.append(binom)
            leads.append(a)
            if not binom.in_standard_form():
                violations.append(binom)
    return GroebnerBasis(order, code.n, tuple(binomials), tuple(violations)), leaders


def assert_matches_reference(code, order):
    basis, table = reduced_groebner_basis(code, order)
    ref_basis, ref_leaders = reference_groebner_basis(code, order)
    assert basis == ref_basis
    assert table.parity == code.parity
    assert list(table.leaders.items()) == list(ref_leaders.items())


def test_compare_equal():
    o = TermOrder.default(4)
    assert compare(o, 0b1010, 0b1010) == EQUAL


def test_compare_degrevlex_low_variable_wins_small():
    # degrevlex, x1 highest priority: of two degree-2 words the one
    # containing the lowest-priority differing variable is smaller
    o = TermOrder.default(6, "degrevlex")
    x5x6 = word_from_string("000011")
    x2x3 = word_from_string("011000")
    assert compare(o, x5x6, x2x3) == LESS
    assert compare(o, x2x3, x5x6) == GREATER


def test_compare_kinds_disagree():
    deglex = TermOrder.default(4, "deglex")
    degrevlex = TermOrder.default(4, "degrevlex")
    x1x4 = word_from_string("1001")
    x2x3 = word_from_string("0110")
    assert compare(deglex, x1x4, x2x3) == GREATER
    assert compare(degrevlex, x1x4, x2x3) == LESS


def test_compare_is_a_degree_compatible_total_order():
    n = 4
    masks = range(1 << n)
    orders = [
        TermOrder.default(n, "deglex"),
        TermOrder.default(n, "degrevlex"),
        TermOrder("deglex", (2, 0, 3, 1)),
        TermOrder("degrevlex", (2, 0, 3, 1)),
    ]
    for o in orders:
        for a, b in product(masks, repeat=2):
            c_ab, c_ba = compare(o, a, b), compare(o, b, a)
            assert c_ab == -c_ba
            assert (c_ab == EQUAL) == (a == b)
            if a.bit_count() < b.bit_count():
                assert c_ab == LESS
        key = o.sort_key
        for a, b, c in product(masks, repeat=3):
            if key(a) < key(b) < key(c):
                assert key(a) < key(c)


def test_sort_key_matches_loop_key_on_every_mask():
    rng = random.Random(59)
    for n in range(1, 9):
        for kind in ("deglex", "degrevlex"):
            orders = [TermOrder.default(n, kind)] + [
                TermOrder(kind, tuple(rng.sample(range(n), n))) for _ in range(3)]
            for o in orders:
                assert [o.sort_key(w) for w in range(1 << n)] == \
                    [loop_sort_key(o, w) for w in range(1 << n)]


def test_groebner_repetition_code():
    code = make_code(["111"])
    basis, _ = reduced_groebner_basis(code, TermOrder.default(3))
    pairs = {(b.lead, b.trail) for b in basis.binomials}
    assert pairs == {(0b011, 0b100), (0b101, 0b010), (0b110, 0b001)}
    assert basis.quadric_count() == 3
    assert basis.total_size() == 6


def test_groebner_toy_counts(toy63):
    basis, _ = reduced_groebner_basis(toy63, TermOrder.default(6))
    assert len(basis.binomials) == 9
    assert basis.quadric_count() == 5  # x1 is a degree-1 lead, so x1^2 drops out
    assert basis.total_size() == kc.TOY63_GB_TOTAL
    words = [word_to_string(w, 6) for w in extract_testset(basis, toy63)]
    assert words == kc.TOY63_TESTSET


def test_groebner_worked63_both_orders(worked63):
    lowest_last = TermOrder.default(6)  # x1 > ... > x6
    lowest_first = TermOrder("degrevlex", tuple(reversed(range(6))))
    b1, _ = reduced_groebner_basis(worked63, lowest_last)
    b2, _ = reduced_groebner_basis(worked63, lowest_first)
    assert b1.total_size() == kc.WORKED63_GB_TOTAL
    assert b2.total_size() == kc.WORKED63_GB_TOTAL
    pairs1 = {(b.lead, b.trail) for b in b1.binomials}
    pairs2 = {(b.lead, b.trail) for b in b2.binomials}
    x = word_from_string
    assert (x("000011"), x("001000")) in pairs1  # x5x6 - x3
    assert (x("000101"), x("010000")) in pairs1  # x4x6 - x2
    assert (x("110000"), x("001000")) in pairs2  # x1x2 - x3
    assert (x("100100"), x("000010")) in pairs2  # x1x4 - x5


def test_testset_sizes_large_codes(code107, code149):
    b107, _ = reduced_groebner_basis(code107, TermOrder.default(10))
    assert len(extract_testset(b107, code107)) == kc.CODE107_TESTSET_SIZE
    b149, _ = reduced_groebner_basis(code149, TermOrder.default(14))
    assert len(extract_testset(b149, code149)) == kc.CODE149_TESTSET_SIZE_DEGREVLEX
    b149dl, _ = reduced_groebner_basis(code149, TermOrder.default(14, "deglex"))
    assert len(extract_testset(b149dl, code149)) == kc.CODE149_TESTSET_SIZE_DEGLEX


def test_testset_words_are_minimal_supports_with_d1():
    rng = random.Random(41)
    for _ in range(6):
        code = random_code(rng, 8, 4)
        order = TermOrder(rng.choice(("deglex", "degrevlex")),
                          tuple(rng.sample(range(8), 8)))
        basis, _ = reduced_groebner_basis(code, order)
        words = extract_testset(basis, code)
        minimal = set(minimal_support_codewords(code))
        assert all(w in minimal for w in words)
        assert min(w.bit_count() for w in words) == ghw_bruteforce(code, 1)


def test_basis_is_reduced_and_standard_form(toy63, worked63, code107):
    for code in (toy63, worked63, code107):
        for kind in ("deglex", "degrevlex"):
            basis, _ = reduced_groebner_basis(code, TermOrder.default(code.n, kind))
            assert basis.standard_form_violations == ()
            leads = [b.lead for b in basis.binomials]
            for i, a in enumerate(leads):
                for j, b in enumerate(leads):
                    if i != j:
                        assert a & b != a  # no lead divides another
            for b in basis.binomials:
                assert all(lead & b.trail != lead for lead in leads)


def test_coset_partition_is_order_independent(toy63):
    orders = [
        TermOrder.default(6, "degrevlex"),
        TermOrder.default(6, "deglex"),
        TermOrder("degrevlex", (3, 1, 5, 0, 2, 4)),
    ]
    tables = [reduced_groebner_basis(toy63, o)[1] for o in orders]
    syndrome_sets = [set(t.leaders) for t in tables]
    assert all(s == syndrome_sets[0] for s in syndrome_sets)
    assert all(len(t.leaders) == 1 << (toy63.n - toy63.k) for t in tables)
    # leader weights agree per coset: any degree-compatible order picks
    # a minimum-weight representative
    for synd in syndrome_sets[0]:
        weights = {t.leaders[synd].bit_count() for t in tables}
        assert len(weights) == 1


def test_normal_form_of_codeword_is_zero(toy63):
    _, table = reduced_groebner_basis(toy63, TermOrder.default(6))
    for c in toy63.codewords():
        assert normal_form(table, c) == 0
        assert decode(table, c) == (0, c, 0)


def test_decode_repetition():
    code = make_code(["111"])
    _, table = reduced_groebner_basis(code, TermOrder.default(3))
    leader, decoded, weight = decode(table, word_from_string("110"))
    assert word_to_string(leader, 3) == "001"
    assert word_to_string(decoded, 3) == "111"
    assert weight == 1


def test_normal_form_is_coset_minimum_exhaustive():
    rng = random.Random(43)
    codes = [make_code(kc.TOY63_ROWS), random_code(rng, 8, 4)]
    for code in codes:
        order = TermOrder.default(code.n)
        _, table = reduced_groebner_basis(code, order)
        for w in range(1 << code.n):
            leader = normal_form(table, w)
            coset = coset_of(code, w)
            assert leader in coset
            assert leader.bit_count() == min(v.bit_count() for v in coset)
            assert order.sort_key(leader) == min(order.sort_key(v) for v in coset)


def test_groebner_full_space_code():
    # k = n: one coset, empty parity matrix, basis is x_i - 1 for every i
    code = make_code(["100", "010", "001"])
    basis, table = reduced_groebner_basis(code, TermOrder.default(3))
    assert {(b.lead, b.trail) for b in basis.binomials} == \
        {(0b001, 0), (0b010, 0), (0b100, 0)}
    assert basis.quadric_count() == 0
    assert table.leaders == {0: 0}
    # sorted by bitstring, coordinate 1 leftmost: "001" < "010" < "100"
    assert extract_testset(basis, code) == (0b100, 0b010, 0b001)


def _random_order(rng, n):
    return TermOrder(rng.choice(("deglex", "degrevlex")), tuple(rng.sample(range(n), n)))


def test_bounded_enumeration_matches_reference_random_codes():
    rng = random.Random(47)
    for _ in range(120):
        n = rng.randint(1, 11)
        code = random_code(rng, n, rng.randint(1, n))
        assert_matches_reference(code, _random_order(rng, n))


def test_bounded_enumeration_matches_reference_special_codes(toy63, worked63, code107):
    special = [
        toy63, worked63, code107,
        make_code(["1100", "0110"]),                     # degenerate: x4 unused
        make_code(["001", "000"]),                       # degenerate, k = 1
        make_code(["100", "010", "001"]),                # k = n
        make_code(["1"]),                                # n = 1, k = n
        make_code(["100000", "011100", "000011"]),       # weight-1 codeword
        make_code(["0100000", "0010000", "1001111"]),    # two weight-1 codewords
        make_code(["111111111"]),                        # repetition
    ]
    rng = random.Random(53)
    for code in special:
        for kind in ("deglex", "degrevlex"):
            assert_matches_reference(code, TermOrder.default(code.n, kind))
            assert_matches_reference(
                code, TermOrder(kind, tuple(rng.sample(range(code.n), code.n))))


@st.composite
def codes_and_orders(draw):
    n = draw(st.integers(1, 9))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n))
    if not any(rows):
        rows[0] = 1
    kind = draw(st.sampled_from(("deglex", "degrevlex")))
    priority = draw(st.permutations(range(n)))
    code = Code.from_generator(BinaryMatrix(tuple(rows), n))
    return code, TermOrder(kind, tuple(priority))


@settings(max_examples=150, deadline=None)
@given(codes_and_orders())
def test_bounded_enumeration_matches_reference_property(case):
    assert_matches_reference(*case)
