"""Cross-route analysis: weight hierarchies from resolutions, second-weight
witnesses and test-set bounds, verification of the proven statements on
concrete codes, and randomized counterexample search for the open ones.

Every proven statement is checked against the brute-force oracle; a
failure aborts with TheoremViolation because it can only mean a bug.
Conjectural statements (exactness at i = 3, exactness when pd(R/M) = k)
are observed and reported, never enforced.
"""

from __future__ import annotations

import random
from types import MappingProxyType

from .codes import Code, circuit_betti_table, ghw_hierarchy, minimal_support_codewords
from .errors import DimensionTooSmall, TheoremViolation, ZeroCode
from .gf2 import BinaryMatrix, Frozen, word_to_string
from .groebner import TermOrder, _grow, check_coset_budget, reduced_groebner_basis, test_set
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

    d_2 is read off ghw_hierarchy; over GF(2) span{a, b} has support
    a | b, so the candidate set holds every codeword that appears in some
    two-dimensional subcode of support size d_2.  Codewords are compared
    through their support monomials, which is a total order because
    distinct binary words have distinct supports.
    """
    if c.k < 2:
        raise DimensionTooSmall("second weight needs k >= 2")
    d2 = ghw_hierarchy(c).values[1]
    light = [w for w in c.codewords() if 0 < w.bit_count() <= d2]  # |a|, |b| <= |a | b|
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


def verify_code(c: Code, o: TermOrder, seed: int = 0,
                audit: bool = False) -> VerificationReport:
    """Run the whole battery of proven checks on one code and order.

    The battery: test-set membership and the d_1 word, standard form,
    witness-support binomials, d_2 from pairs, the projective-dimension
    and shift bounds with exactness at i = 1, 2, the min-shift identity
    on the circuit ideal, and the set lemma on 100 sampled pairs (run,
    not listed in checks).  Any failed check aborts for nondegenerate codes.
    audit also sweeps the circuit ideal and the test-set ideal with
    betti_table_hochster and raises TheoremViolation unless the first
    agrees with the fast table and the second gives the targeted sweep's
    shifts and pd.
    """
    check_symmetric_difference_lemma(c.n, 100, seed=seed)
    report, = _verify_orders(c, [o], audit)
    return report


def _verify_orders(c: Code, orders: list[TermOrder], audit: bool = False):
    """Yield the verify_code report of c under each order in turn.

    The hierarchy, the minimal supports and the circuit table (swept
    again under audit) depend on the code alone and are built once, after
    the first order's test-set sweep: a test-set sweep past the budget is
    refused before any of them is built.  Both tables read the code's one
    subcode table.  The basis, the test set and its minimal shifts (and
    pd, their count), and the witness are built per order; under audit
    the shifts are checked against the full audited Betti table of the
    test-set ideal.  The set lemma, which depends on neither, is
    verify_code's alone.
    """
    for idx, o in enumerate(orders):
        basis, _ = reduced_groebner_basis(c, o)
        words = test_set(basis, c)
        minshift_ts = hochster_min_shifts(
            ideal_from_supports(c.n, words), audit=audit)
        pd_ts = len(minshift_ts)
        if not idx:
            d = ghw_hierarchy(c).values
            minimal_set = set(minimal_support_codewords(c))
            table_full = circuit_betti_table(c)
            if audit:
                swept = betti_table_hochster(
                    ideal_from_supports(c.n, minimal_set), audit=True)
                if swept.entries != table_full.entries:
                    raise TheoremViolation(
                        f"circuit-ideal Betti tables differ on [{c.n},{c.k}] code: "
                        f"Hochster sweep {swept.sorted_triples()}, "
                        f"matroid table {table_full.sorted_triples()}")
            minshift_full = min_shifts(table_full)

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


# Report fields copied into each flagged search entry, after trial and matrix.
_FLAGGED_FIELDS = ("order", "ghw", "minshift_testset", "pd_testset", "k", "exact_through_i3")


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
    which does not depend on the code, is left to verify_code.
    CapExceeded, before any trial, past groebner.COSET_BUDGET cosets.
    """
    check_coset_budget(n, k)
    if not orders:
        orders = [TermOrder.default(n)]
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
                flagged.append(MappingProxyType(
                    {"trial": label,
                     "matrix": tuple(" ".join(row) for row in res.generator_rows)}
                    | {name: getattr(res, name) for name in _FLAGGED_FIELDS}))
    return SearchReport(n, k, trials, seed, tuple(o.describe() for o in orders), evaluated,
                        skipped_rank_deficient, skipped_degenerate, tuple(flagged),
                        exactness_i3_failures,
                        all(entry["pd_testset"] < entry["k"] for entry in flagged))


def union_testsets(c: Code, orders: list[TermOrder]) -> MonomialIdeal:
    """Union of the test sets over the given orders, as a support ideal:
    one reduced basis and test set per order.  CapExceeded, before any
    basis, past groebner.COSET_BUDGET cosets."""
    if not orders:
        raise ValueError("need at least one order")
    union: set[int] = set()
    for o in orders:
        basis, _ = reduced_groebner_basis(c, o)
        union.update(test_set(basis, c))
    return ideal_from_supports(c.n, union)


def union_all_orders(c: Code) -> MonomialIdeal:
    """Union of the test sets over every deglex and degrevlex order (all
    2 * n! priority permutations), in one pass over the coset minima with
    no order and no basis.

    M is the set of minimum-weight members of all cosets.  A one-bit-
    smaller submask of a member is a member: a lighter word u in its coset
    would make u XOR that bit a lighter word of the member's coset.  So M
    grows weight by weight like the leaders of reduced_groebner_basis
    (groebner._grow), a candidate being in M iff no lighter weight reached
    its coset.  The pass collects U = {a XOR m : a - e_i is in M for every
    i in a, m is in M and in the coset of a, m != a}, and the union's
    ideal is U's.

    Union in U.  Under a degree-compatible order the test-set words are
    a XOR L(a), a a minimal non-standard mask and L(a) the leader of its
    coset.  The submasks of a are leaders, so they lie in M; L(a) is in M
    and L(a) != a.

    U in the union's ideal.  Take u = a XOR m in U.  If i is in a & m,
    then |a| = |m| (a - e_i is in M and m - e_i is in its coset), and
    (a - e_i, m - e_i) is another pair for u; so take a & m = 0.  Take
    deglex whose priority lists the variables outside a | m, then those
    of a, then those of m.  a is not standard: |m| < |a|, or m < a.  So
    a holds a minimal non-standard a', and t = a' XOR L(a') is in this
    order's test set.  L(a') has the weight of a' (if a' != a, a' is a
    proper submask of a and in M) or of m (a' = a), and L(a') < a' (or
    L(a') <= m).  Neither a' nor m has a variable outside a | m, and
    those come first in the priority, so L(a') has none either: t is
    inside u.  Hence the deglex orders alone give the same ideal.

    CapExceeded, before any growth, past groebner.COSET_BUDGET cosets.
    """
    minima: dict[int, list[int]] = {0: [0]}  # syndrome -> its members of M
    union: set[int] = set()

    def claim(candidates):
        fresh = [(a, syn) for a, syn in candidates.items() if syn not in minima]
        for a, syn in fresh:
            minima.setdefault(syn, []).append(a)
        for a, syn in candidates.items():  # a coset's members are all in minima now
            union.update(a ^ m for m in minima[syn] if m != a)
        return fresh

    _grow(c, claim)
    return ideal_from_supports(c.n, union)
