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
from dataclasses import dataclass, field
from itertools import permutations

from .codes import Code, GhwSequence, ghw_hierarchy, minimal_support_codewords
from .errors import DimensionTooSmall, TheoremViolation, ZeroCode
from .gf2 import BinaryMatrix, word_to_string
from .groebner import TermOrder, reduced_groebner_basis, test_set
from .resolution import (
    MonomialIdeal,
    betti_table_hochster,
    ideal_from_supports,
    min_pair_union,
    min_shifts,
)


def ghw_via_resolution(c: Code, processes: int = 1) -> GhwSequence:
    """Weight hierarchy read off the Betti table of the circuit ideal:
    d_i is the smallest shift in homological degree i."""
    ideal = ideal_from_supports(c.n, minimal_support_codewords(c))
    table = betti_table_hochster(ideal, processes=processes)
    values = min_shifts(table)
    return GhwSequence(values, n=c.n, k=c.k)


@dataclass(frozen=True)
class WitnessPair:
    """The two order-minimal codewords whose span realizes d_2.

    Over GF(2) a codeword equals its support mask, so support_i/support_j
    are the masks themselves.  m1 is the order-minimal word among those
    belonging to a d_2-realizing pair; m2 is the order-minimal partner
    completing such a pair with m1.
    """

    m1: int
    m2: int
    order: TermOrder

    @property
    def support_i(self) -> int:
        return self.m1

    @property
    def support_j(self) -> int:
        return self.m2

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


@dataclass
class VerificationReport:
    """Everything one run of verify_code establishes about a code/order."""

    n: int
    k: int
    generator_rows: tuple[str, ...]
    order: str
    degenerate: bool
    ghw: tuple[int, ...]
    minshift_full: tuple[int, ...]
    minshift_testset: tuple[int, ...]
    pd_testset: int
    testset_size: int
    basis_size: int
    witness_m1: str
    witness_m2: str
    checks: dict[str, bool]
    agreement_by_index: tuple[bool, ...]
    exact_through_i3: bool | None
    full_agreement: bool
    pd_equals_k: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "generator_rows": list(self.generator_rows),
            "order": self.order,
            "degenerate": self.degenerate,
            "ghw": list(self.ghw),
            "minshift_full": list(self.minshift_full),
            "minshift_testset": list(self.minshift_testset),
            "pd_testset": self.pd_testset,
            "testset_size": self.testset_size,
            "basis_size": self.basis_size,
            "witness_m1": self.witness_m1,
            "witness_m2": self.witness_m2,
            "checks": dict(sorted(self.checks.items())),
            "agreement_by_index": list(self.agreement_by_index),
            "exact_through_i3": self.exact_through_i3,
            "full_agreement": self.full_agreement,
            "pd_equals_k": self.pd_equals_k,
        }


def verify_code(c: Code, o: TermOrder, lemma_trials: int = 100,
                seed: int = 0, audit: bool = False,
                processes: int = 1) -> VerificationReport:
    """Run the whole battery of proven checks on one code and order.

    The battery: test-set membership and the d_1 word, standard form,
    witness-support binomials, d_2 from pairs, the projective-dimension
    and shift bounds with exactness at i = 1, 2, the min-shift identity
    on the circuit ideal, hierarchy shape, and the sampled set lemma.
    Any failed check aborts for nondegenerate codes.
    """
    ghw = ghw_hierarchy(c)
    minimal = minimal_support_codewords(c)
    table_full = betti_table_hochster(
        ideal_from_supports(c.n, minimal), audit=audit, processes=processes)
    minshift_full = min_shifts(table_full)

    basis, _ = reduced_groebner_basis(c, o)
    words = test_set(basis, c)
    table_ts = betti_table_hochster(
        ideal_from_supports(c.n, words), audit=audit, processes=processes)
    minshift_ts = min_shifts(table_ts)
    pd_ts = table_ts.pd

    d = ghw.values
    checks: dict[str, bool] = {}
    minimal_set = set(minimal)
    checks["testset_subset_minimal_supports"] = all(w in minimal_set for w in words)
    checks["testset_contains_d1_word"] = min(w.bit_count() for w in words) == d[0]
    checks["standard_form"] = not basis.standard_form_violations

    witness_m1 = witness_m2 = ""
    if c.k >= 2:
        pair = second_weight_witness(c, o)
        witness_m1 = word_to_string(pair.m1, c.n)
        witness_m2 = word_to_string(pair.m2, c.n)
        supports = {b.support for b in basis.binomials}
        checks["witness_support_i_in_basis"] = pair.support_i in supports
        checks["witness_support_j_in_basis"] = pair.support_j in supports
        checks["witness_intersection_bound"] = (
            2 * (pair.m1 & pair.m2).bit_count() <= pair.m1.bit_count()
            <= pair.m2.bit_count())
        checks["d2_from_pairs"] = min_pair_union(words) == d[1]

    checks["pd_testset_at_most_k"] = pd_ts <= c.k
    checks["shifts_bound_ghw"] = all(
        d[i - 1] <= j for i, j in zip(range(1, pd_ts + 1), minshift_ts))
    checks["exact_at_i1"] = len(minshift_ts) >= 1 and minshift_ts[0] == d[0]
    if c.k >= 2:
        checks["exact_at_i2"] = len(minshift_ts) >= 2 and minshift_ts[1] == d[1]
    checks["circuit_ideal_minshifts_are_ghw"] = (
        minshift_full == d and table_full.pd == c.k)
    checks["hierarchy_shape"] = True  # enforced by GhwSequence construction
    check_symmetric_difference_lemma(c.n, lemma_trials, seed=seed)
    checks["symmetric_difference_lemma"] = True

    agreement = tuple(
        i <= len(minshift_ts) and minshift_ts[i - 1] == d[i - 1]
        for i in range(1, c.k + 1))
    exact_i3 = None
    if c.k >= 3:
        exact_i3 = agreement[2]

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
        checks=checks,
        agreement_by_index=agreement,
        exact_through_i3=exact_i3,
        full_agreement=all(agreement),
        pd_equals_k=pd_ts == c.k,
    )
    failed = sorted(name for name, ok in checks.items() if not ok)
    if failed and c.nondegenerate:
        raise TheoremViolation(
            f"proven checks failed on [{c.n},{c.k}] code under {o.describe()}: "
            f"{', '.join(failed)}; report={report.as_dict()}")
    return report


@dataclass
class SearchReport:
    """Aggregated outcome of a randomized counterexample search."""

    n: int
    k: int
    trials: int
    seed: int
    orders: tuple[str, ...]
    evaluated: int = 0
    skipped_rank_deficient: int = 0
    skipped_degenerate: int = 0
    flagged: list[dict] = field(default_factory=list)
    exactness_i3_failures: int = 0
    flagged_always_pd_below_k: bool = True

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "trials": self.trials,
            "seed": self.seed,
            "orders": list(self.orders),
            "evaluated": self.evaluated,
            "skipped_rank_deficient": self.skipped_rank_deficient,
            "skipped_degenerate": self.skipped_degenerate,
            "flagged_count": len(self.flagged),
            "flagged": self.flagged,
            "exactness_i3_failures": self.exactness_i3_failures,
            "flagged_always_pd_below_k": self.flagged_always_pd_below_k,
        }


def counterexample_search(n: int, k: int, trials: int, seed: int,
                          orders: list[TermOrder] | None = None,
                          inject: tuple[BinaryMatrix, ...] = (),
                          lemma_trials: int = 20) -> SearchReport:
    """Sample random [n, k] codes and hunt for test-set/hierarchy mismatches.

    Candidate generator matrices are uniform k x n bit matrices, rejected
    (and counted) when rank-deficient or degenerate.  Injected matrices
    are evaluated before the random stream and marked in the output.
    Each trial draws its own generator from (seed, index), so results do
    not depend on evaluation schedule.
    """
    if not orders:
        orders = [TermOrder.default(n)]
    report = SearchReport(n=n, k=k, trials=trials, seed=seed,
                          orders=tuple(o.describe() for o in orders))

    def consider(matrix: BinaryMatrix, label: str) -> None:
        try:
            code = Code.from_generator(matrix)
        except ZeroCode:
            report.skipped_rank_deficient += 1
            return
        if code.k < k:
            report.skipped_rank_deficient += 1
            return
        if not code.nondegenerate:
            report.skipped_degenerate += 1
            return
        report.evaluated += 1
        for o in orders:
            res = verify_code(code, o, lemma_trials=lemma_trials, seed=seed)
            if res.exact_through_i3 is False:
                report.exactness_i3_failures += 1
            if not res.full_agreement:
                report.flagged.append({
                    "trial": label,
                    "matrix": [" ".join(row) for row in code.generator.row_strings()],
                    "order": o.describe(),
                    "ghw": list(res.ghw),
                    "minshift_testset": list(res.minshift_testset),
                    "pd_testset": res.pd_testset,
                    "k": code.k,
                    "exact_through_i3": res.exact_through_i3,
                })
                if res.pd_testset >= code.k:
                    report.flagged_always_pd_below_k = False

    for idx, matrix in enumerate(inject):
        consider(matrix, f"injected:{idx}")
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        consider(BinaryMatrix(rows, n), f"random:{t}")
    return report


def union_testsets(c: Code, orders: list[TermOrder]) -> MonomialIdeal:
    """Union of the test sets over the given orders, as a support ideal."""
    if not orders:
        raise ValueError("need at least one order")
    union: set[int] = set()
    for o in orders:
        basis, _ = reduced_groebner_basis(c, o)
        union.update(test_set(basis, c))
    return ideal_from_supports(c.n, union)


def all_priority_orders(n: int):
    """Every deglex and degrevlex order over all priority permutations."""
    for kind in ("deglex", "degrevlex"):
        for perm in permutations(range(n)):
            yield TermOrder(kind, perm)


def sample_orders(n: int, count: int, seed: int) -> list[TermOrder]:
    """Deterministic sample of distinct degree-compatible orders."""
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
