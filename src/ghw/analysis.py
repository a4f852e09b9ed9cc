"""Cross-route analysis: weight hierarchies from resolutions, second-weight
witnesses and test-set bounds, verification of the proven statements on
concrete codes, and randomized counterexample search for the open ones.

Every proven statement is checked against the brute-force oracle; a
failure aborts with TheoremViolation because it can only mean a bug.
Conjectural statements (exactness at i = 3, exactness when pd(R/M) = k)
are observed and reported, never enforced.
"""

from __future__ import annotations

import math
import random
from itertools import permutations
from types import MappingProxyType

from .codes import Code, circuit_betti_table, ghw_hierarchy, minimal_support_codewords
from .errors import CapExceeded, DimensionTooSmall, TheoremViolation, ZeroCode
from .gf2 import BinaryMatrix, Frozen, word_to_string
from .groebner import TermOrder, coset_minima, reduced_groebner_basis, test_set
from .resolution import (
    MonomialIdeal,
    betti_table_hochster,
    hochster_min_shifts,
    ideal_from_supports,
    min_pair_union,
    min_shifts,
)


class WitnessPair(Frozen):
    """The two order-minimal codewords whose span realizes d_2.

    Over GF(2) a codeword equals its support mask, so m1 and m2 are the
    supports too.  m1 is the order-minimal word among those belonging to
    a d_2-realizing pair; m2 is the order-minimal partner completing such
    a pair with m1.
    """

    _fields = ("m1", "m2", "order")

    @property
    def union_size(self) -> int:
        return (self.m1 | self.m2).bit_count()


def second_weight_witness(c: Code, o: TermOrder) -> WitnessPair:
    """Select the witness pair by order-minimality.

    d_2 is the smallest pair union of nonzero codewords, since over GF(2)
    span{a, b} has support a | b; the candidate set holds every codeword
    that appears in some two-dimensional subcode of support size d_2.
    Codewords are compared through their support monomials, which is a
    total order because distinct binary words have distinct supports.
    """
    if c.k < 2:
        raise DimensionTooSmall("second weight needs k >= 2")
    words = sorted(w for w in c.codewords() if w)
    d2 = min_pair_union(words)
    light = [w for w in words if w.bit_count() <= d2]  # |a|, |b| <= |a | b|
    pool = set()
    for i, a in enumerate(light):
        for b in light[i + 1:]:
            if (a | b).bit_count() == d2:
                pool.add(a)
                pool.add(b)
    m1 = o.min_word(pool)
    partners = [w for w in pool if w != m1 and (m1 | w).bit_count() == d2]
    m2 = o.min_word(partners)
    return WitnessPair(m1, m2, o)


def d2_from_testset(c: Code, o: TermOrder) -> int:
    """d_2 as the smallest support-union size over test-set pairs."""
    basis, _ = reduced_groebner_basis(c, o)
    return min_pair_union(test_set(basis, c))


def symmetric_difference_triple(a: int, b: int) -> tuple[bool, bool, bool]:
    """The three claims about c = a XOR b when |a & b| > |a|/2:
    same union, small new intersection, strictly smaller size."""
    c = a ^ b
    return (
        (a | b) == (a | c),
        2 * (a & c).bit_count() < a.bit_count(),
        c.bit_count() < b.bit_count(),
    )


def check_symmetric_difference_lemma(n: int, trials: int, seed: int = 0) -> int:
    """Sample set pairs meeting the hypothesis and verify all three claims.

    Returns the number of pairs actually checked; raises on any failure.
    """
    rng = random.Random(seed)
    checked = 0
    attempts = 0
    limit = 60 * trials + 1000
    while checked < trials and attempts < limit:
        attempts += 1
        a = rng.getrandbits(n)
        b = rng.getrandbits(n)
        if 2 * (a & b).bit_count() <= a.bit_count():
            continue
        if not all(symmetric_difference_triple(a, b)):
            raise TheoremViolation(
                f"symmetric difference claims fail for a={bin(a)} b={bin(b)}")
        checked += 1
    return checked


class VerificationReport(Frozen):
    """Everything one run of verify_code establishes about a code/order.

    The fields are the keys of its document, in document order.
    """

    _fields = ("n", "k", "generator_rows", "order", "degenerate", "ghw", "minshift_full",
               "minshift_testset", "pd_testset", "testset_size", "basis_size", "witness_m1",
               "witness_m2", "checks", "agreement_by_index", "exact_through_i3",
               "full_agreement", "pd_equals_k")

    def as_dict(self) -> dict:
        return (dict(zip(self._fields, self._astuple()))
                | {"checks": dict(sorted(self.checks.items()))})


def verify_code(c: Code, o: TermOrder, lemma_trials: int = 100,
                seed: int = 0, audit: bool = False) -> VerificationReport:
    """Run the whole battery of proven checks on one code and order.

    The battery: test-set membership and the d_1 word, standard form,
    witness-support binomials, d_2 from pairs, the projective-dimension
    and shift bounds with exactness at i = 1, 2, the min-shift identity
    on the circuit ideal, hierarchy shape, and the sampled set lemma.
    Any failed check aborts for nondegenerate codes.  audit also sweeps
    the circuit ideal and the test-set ideal with betti_table_hochster
    and raises TheoremViolation unless the first agrees with the fast
    table and the second gives the targeted sweep's shifts and pd.
    """
    check_symmetric_difference_lemma(c.n, lemma_trials, seed=seed)
    report, = _verify_orders(c, [o], audit)
    return report


def _code_facts(c: Code, audit: bool):
    """(hierarchy, minimal supports, circuit table, its min shifts): the
    per-code facts of the verify battery, both tables read off the code's
    one subcode table."""
    d = ghw_hierarchy(c).values
    minimal = minimal_support_codewords(c)
    table_full = circuit_betti_table(c)
    if audit:
        swept = betti_table_hochster(ideal_from_supports(c.n, minimal), audit=True)
        if swept.entries != table_full.entries:
            raise TheoremViolation(
                f"circuit-ideal Betti tables differ on [{c.n},{c.k}] code: "
                f"Hochster sweep {swept.sorted_triples()}, "
                f"matroid table {table_full.sorted_triples()}")
    return d, set(minimal), table_full, min_shifts(table_full)


def _verify_orders(c: Code, orders: list[TermOrder], audit: bool = False):
    """Yield the verify_code report of c under each order in turn.

    The hierarchy, the minimal supports and the circuit table (swept
    again under audit) depend on the code alone and are built once, after
    the first order's test-set sweep: a test-set sweep past the budget is
    refused before any of them is built.  The basis, the test set and its
    minimal shifts (and pd, their count), and the witness are built per
    order; under audit the shifts are checked against the full audited
    Betti table of the test-set ideal.  The caller runs the set lemma,
    which depends on neither.
    """
    facts = None
    for o in orders:
        basis, _ = reduced_groebner_basis(c, o)
        words = test_set(basis, c)
        minshift_ts = hochster_min_shifts(
            ideal_from_supports(c.n, words), audit=audit)
        pd_ts = len(minshift_ts)
        if facts is None:
            facts = _code_facts(c, audit)
        d, minimal_set, table_full, minshift_full = facts

        agreement = tuple(i < pd_ts and minshift_ts[i] == d[i] for i in range(c.k))
        checks: dict[str, bool] = {}
        checks["testset_subset_minimal_supports"] = all(w in minimal_set for w in words)
        checks["testset_contains_d1_word"] = min(w.bit_count() for w in words) == d[0]
        checks["standard_form"] = not basis.standard_form_violations

        witness_m1 = witness_m2 = ""
        if c.k >= 2:
            pair = second_weight_witness(c, o)
            witness_m1 = word_to_string(pair.m1, c.n)
            witness_m2 = word_to_string(pair.m2, c.n)
            supports = {b.support for b in basis.binomials}
            checks["witness_support_i_in_basis"] = pair.m1 in supports
            checks["witness_support_j_in_basis"] = pair.m2 in supports
            checks["witness_intersection_bound"] = (
                2 * (pair.m1 & pair.m2).bit_count() <= pair.m1.bit_count()
                <= pair.m2.bit_count())
            checks["d2_from_pairs"] = min_pair_union(words) == d[1]

        checks["pd_testset_at_most_k"] = pd_ts <= c.k
        checks["shifts_bound_ghw"] = all(a <= j for a, j in zip(d, minshift_ts))
        checks["exact_at_i1"] = agreement[0]
        if c.k >= 2:
            checks["exact_at_i2"] = agreement[1]
        checks["circuit_ideal_minshifts_are_ghw"] = (
            minshift_full == d and table_full.pd == c.k)
        checks["hierarchy_shape"] = True  # enforced by GhwSequence construction
        checks["symmetric_difference_lemma"] = True  # run by the caller

        report = VerificationReport(
            n=c.n,
            k=c.k,
            generator_rows=tuple(c.generator.row_strings()),
            order=o.describe(),
            degenerate=not c.nondegenerate,
            ghw=d,
            minshift_full=minshift_full,
            minshift_testset=minshift_ts,
            pd_testset=pd_ts,
            testset_size=len(words),
            basis_size=basis.total_size(),
            witness_m1=witness_m1,
            witness_m2=witness_m2,
            checks=MappingProxyType(checks),
            agreement_by_index=agreement,
            exact_through_i3=agreement[2] if c.k >= 3 else None,
            full_agreement=all(agreement),
            pd_equals_k=pd_ts == c.k,
        )
        failed = sorted(name for name, ok in checks.items() if not ok)
        if failed and c.nondegenerate:
            raise TheoremViolation(
                f"proven checks failed on [{c.n},{c.k}] code under {o.describe()}: "
                f"{', '.join(failed)}; report={report.as_dict()}")
        yield report


class SearchReport(Frozen):
    """Aggregated outcome of a randomized counterexample search.

    flagged is a tuple of read-only entries whose sequences are tuples;
    as_dict gives each entry as a dict.
    """

    _fields = ("n", "k", "trials", "seed", "orders", "evaluated", "skipped_rank_deficient",
               "skipped_degenerate", "flagged", "exactness_i3_failures",
               "flagged_always_pd_below_k")

    def as_dict(self) -> dict:
        doc = {}
        for name, value in zip(self._fields, self._astuple()):
            if name == "flagged":
                doc["flagged_count"] = len(value)
                value = [dict(entry) for entry in value]
            doc[name] = value
        doc["orders"] = list(self.orders)
        return doc


def counterexample_search(n: int, k: int, trials: int, seed: int,
                          orders: list[TermOrder] | None = None,
                          inject: tuple[BinaryMatrix, ...] = ()) -> SearchReport:
    """Sample random [n, k] codes and hunt for test-set/hierarchy mismatches.

    Candidate generator matrices are uniform k x n bit matrices, rejected
    (and counted) when rank-deficient or degenerate.  Injected matrices
    are evaluated before the random stream and marked in the output.
    Each trial draws its own generator from (seed, index), so results do
    not depend on evaluation schedule.  Each evaluated code is verified
    under every order, its per-code facts built once; the set lemma,
    which does not depend on the code, runs once per search.
    """
    if not orders:
        orders = [TermOrder.default(n)]
    check_symmetric_difference_lemma(n, 20, seed=seed)
    evaluated = skipped_rank_deficient = skipped_degenerate = exactness_i3_failures = 0
    flagged: list[MappingProxyType] = []

    def labelled():
        for idx, matrix in enumerate(inject):
            yield matrix, f"injected:{idx}"
        for t in range(trials):
            rng = random.Random(seed * 1_000_003 + t)
            yield BinaryMatrix(tuple(rng.getrandbits(n) for _ in range(k)), n), f"random:{t}"

    for matrix, label in labelled():
        try:
            code = Code.from_generator(matrix)
        except ZeroCode:
            skipped_rank_deficient += 1
            continue
        if code.k < k:
            skipped_rank_deficient += 1
            continue
        if not code.nondegenerate:
            skipped_degenerate += 1
            continue
        evaluated += 1
        for res in _verify_orders(code, orders):
            if res.exact_through_i3 is False:
                exactness_i3_failures += 1
            if not res.full_agreement:
                flagged.append(MappingProxyType({
                    "trial": label,
                    "matrix": tuple(" ".join(row) for row in code.generator.row_strings()),
                    "order": res.order,
                    "ghw": res.ghw,
                    "minshift_testset": res.minshift_testset,
                    "pd_testset": res.pd_testset,
                    "k": code.k,
                    "exact_through_i3": res.exact_through_i3,
                }))
    return SearchReport(n, k, trials, seed, tuple(o.describe() for o in orders), evaluated,
                        skipped_rank_deficient, skipped_degenerate, tuple(flagged),
                        exactness_i3_failures,
                        all(entry["pd_testset"] < entry["k"] for entry in flagged))


def union_testsets(c: Code, orders: list[TermOrder]) -> MonomialIdeal:
    """Union of the test sets over the given orders, as a support ideal.

    Orders are keyed by the member they pick in each coset with more than
    one minimum-weight member, and each class of orders gets one basis
    (see _union_by_class).
    """
    if not orders:
        raise ValueError("need at least one order")

    def classes_of(tied):
        classes: dict[tuple[int, ...], TermOrder] = {}
        for o in orders:
            key = ()
            if tied:
                # A copy of o picks the members, so that the caller's list
                # does not keep a sort-key weight table alive for every order.
                key = tuple(map(TermOrder(o.kind, o.priority).min_word, tied))
            classes.setdefault(key, o)
        return classes

    return _union_by_class(c, classes_of)


# Most work union_all_orders takes on, counted as states of its Groebner-fan
# search times cosets of the code: a state holds a survivor set per tied
# coset, and each class (a state) builds a reduced basis over every coset.
# Each kind reaches a state by a sequence of distinct variables, of which
# n = 7 has 13,700, and a code of length 7 has 64 cosets at most: 1.75e6 in
# all, so the default all-orders union of a code with n <= 7 is never refused.
FAN_BUDGET = 1 << 21


def union_all_orders(c: Code) -> MonomialIdeal:
    """Union of the test sets over every deglex and degrevlex order (all
    2 * n! priority permutations), listing the classes of orders and never
    the orders.

    Every minimum-weight member of a tied coset has the same weight, so an
    order picks among them by its tie-break alone.  deglex walks its
    priority list and, at each variable on which the survivors differ,
    keeps those without it; degrevlex walks the list from its lowest end
    and keeps those with it.  A walked variable never splits the survivors
    again, so the tuple of survivor sets after a prefix of the walk is the
    whole state.  One depth-first search per kind visits each state once,
    branching only on variables that split some set, and a state of
    singletons is a class, keyed by those singletons.  The class's order
    reads its walk, then the unwalked variables in ascending order, as
    deglex priority or, reversed, as degrevlex priority.  CapExceeded,
    before any basis is built, once the states visited times the cosets of
    the code pass FAN_BUDGET.
    """
    cosets = 1 << (c.n - c.k)

    def charge(states: int) -> None:
        if states * cosets > FAN_BUDGET:
            raise CapExceeded(
                f"the Groebner-fan search of the [{c.n},{c.k}] code passed "
                f"{states} states of {cosets} cosets "
                f"(budget {FAN_BUDGET:.2e} = 2^{FAN_BUDGET.bit_length() - 1})")

    def classes_of(tied):
        classes: dict[tuple[int, ...], TermOrder] = {}
        visited = 0
        for kind, keep in (("deglex", False), ("degrevlex", True)):
            seen = {tied}
            visited += 1
            stack = [(tied, ())]
            while stack:
                sets, walk = stack.pop()
                splits = []  # per set, the variables on which its survivors differ
                split = 0
                for members in sets:
                    ors, ands = 0, -1
                    for m in members:
                        ors |= m
                        ands &= m
                    splits.append(ors & ~ands)
                    split |= ors & ~ands
                if not split:
                    key = tuple(members[0] for members in sets)
                    if key not in classes:
                        read = walk + tuple(v for v in range(c.n) if v not in walk)
                        classes[key] = TermOrder(kind, read[::-1] if keep else read)
                    continue
                while split:
                    bit = split & -split
                    split ^= bit
                    want = bit if keep else 0
                    child = tuple(tuple(m for m in members if m & bit == want) if s & bit
                                  else members for members, s in zip(sets, splits))
                    if child not in seen:
                        seen.add(child)
                        visited += 1
                        charge(visited)
                        stack.append((child, walk + (bit.bit_length() - 1,)))
        return classes

    charge(1)
    return _union_by_class(c, classes_of)


def _union_by_class(c: Code, classes_of) -> MonomialIdeal:
    """The union of the test sets of one reduced basis per class of orders.

    The reduced basis depends only on its standard monomials, the coset
    leaders, and every degree-compatible order takes its leaders among the
    minimum-weight members of each coset.  So a class of orders (a cone
    of the Groebner fan) is fixed by the member it picks in each tied
    coset, one with more than one.  classes_of maps the tied cosets'
    members to {key: one order of that class}, a key naming the member
    picked in each tied coset.  Each order's basis is built, and
    TheoremViolation is raised unless its leaders are the members its key
    names.
    """
    minima = coset_minima(c)
    tied = {syn: members for syn, members in minima.items() if len(members) > 1}
    leaders = {syn: members[0] for syn, members in minima.items()}
    union: set[int] = set()
    for key, o in classes_of(tuple(tied.values())).items():
        basis, table = reduced_groebner_basis(c, o)
        if table.leaders != leaders | dict(zip(tied, key)):
            raise TheoremViolation(
                f"coset leaders of {o.describe()} are not the minimum-weight "
                f"members it picks on [{c.n},{c.k}] code")
        union.update(test_set(basis, c))
    return ideal_from_supports(c.n, union)


def all_priority_orders(n: int):
    """Every deglex and degrevlex order over all priority permutations."""
    for kind in ("deglex", "degrevlex"):
        for perm in permutations(range(n)):
            yield TermOrder(kind, perm)


def sample_orders(n: int, count: int, seed: int) -> list[TermOrder]:
    """Deterministic sample of distinct degree-compatible orders (2 * n! at most)."""
    count = min(count, 2 * math.factorial(n))
    rng = random.Random(seed)
    out: list[TermOrder] = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < 50 * count + 100:
        attempts += 1
        kind = rng.choice(("deglex", "degrevlex"))
        perm = list(range(n))
        rng.shuffle(perm)
        order = TermOrder(kind, tuple(perm))
        if (kind, order.priority) not in seen:
            seen.add((kind, order.priority))
            out.append(order)
    return out
