"""Reduced Groebner bases of binary code ideals by coset-leader enumeration.

The code ideal is generated by X^w - 1 for generator rows w together with
the quadrics x_i^2 - 1.  Under any degree-compatible order all monomials
reduce to square-free ones, so the computation happens on square-free
exponent masks.  It never visits all 2^n of them: it grows the standard
monomials (the coset leaders) weight by weight, looking only at masks one
bit above a leader, at most n * 2^(n-k) of them.  Such a mask whose every
one-bit-smaller submask is a leader either claims a fresh syndrome (it
becomes that coset's leader) or lands in an occupied coset (emit a
binomial).  The emitted square-free binomials plus the surviving quadrics
form the reduced basis; lead XOR trail of each binomial is a codeword of
minimal support, and the deduplicated set of those codewords is the test
set.  analysis.union_all_orders runs the same growth (_grow) with no
order and keeps every minimum-weight member of each coset, the leaders
any order can pick.  The growth is refused up front past COSET_BUDGET
cosets.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from .codes import Code
from .errors import CapExceeded, TheoremViolation
from .gf2 import Frozen, bitstring_sorted, word_to_string


class TermOrder(Frozen):
    """A degree-compatible monomial order on square-free exponent masks.

    kind is "deglex" or "degrevlex"; priority lists the 0-based variable
    indices from highest precedence to lowest.  Ties inside a degree:

    * deglex reads the exponents in priority order; the first variable
      where the words differ makes the word containing it larger.
    * degrevlex reads them in reverse priority order; the first variable
      where the words differ makes the word containing it smaller.
    """

    _fields = ("kind", "priority")

    def __init__(self, kind: str, priority: tuple[int, ...]):
        if kind not in ("deglex", "degrevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        if sorted(priority) != list(range(len(priority))):
            raise ValueError("priority must be a permutation of 0..n-1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "priority", priority)

    @classmethod
    def default(cls, n: int, kind: str = "degrevlex") -> "TermOrder":
        """x_1 > x_2 > ... > x_n."""
        return cls(kind, tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.priority)

    @cached_property
    def _weights(self) -> dict[int, int]:
        """Variable bit -> its signed term in sort_key's tie-break: deglex
        reads the priority list as a binary number, highest variable
        first; degrevlex negates the number read lowest variable first."""
        n = self.n
        if self.kind == "deglex":
            return {1 << idx: 1 << (n - 1 - p) for p, idx in enumerate(self.priority)}
        return {1 << idx: -(1 << p) for p, idx in enumerate(self.priority)}

    def sort_key(self, word: int) -> tuple[int, int]:
        """Key that sorts masks into increasing order under this order;
        it costs one step per set bit of word."""
        weights = self._weights
        t = 0
        m = word
        while m:
            low = m & -m
            t += weights[low]
            m ^= low
        return (word.bit_count(), t)

    def min_word(self, words) -> int:
        return min(words, key=self.sort_key)

    def describe(self) -> str:
        vars_1based = ",".join(str(i + 1) for i in self.priority)
        return f"{self.kind} vars={vars_1based}"


class Binomial(Frozen):
    """X^lead - X^trail with lead > trail under the producing order."""

    _fields = ("lead", "trail")

    @property
    def word(self) -> int:
        """lead XOR trail: a codeword of the originating code."""
        return self.lead ^ self.trail

    @property
    def support(self) -> int:
        return self.lead | self.trail

    def in_standard_form(self) -> bool:
        return self.lead & self.trail == 0


class GroebnerBasis(Frozen):
    """Square-free part of a reduced Groebner basis of a code ideal.

    binomials are listed with leads in increasing order.  The quadrics
    x_i^2 - 1 are implicit; x_i^2 - 1 belongs to the reduced basis only
    when x_i is not itself a degree-1 lead (otherwise x_i^2 is reducible),
    so quadric_count() can be below n.  standard_form_violations records
    any binomial whose lead and trail share a variable; it is provably
    empty and verified rather than normalized away.
    """

    _fields = ("order", "n", "binomials", "standard_form_violations")

    def quadric_count(self) -> int:
        return self.n - sum(b.lead.bit_count() == 1 for b in self.binomials)

    def total_size(self) -> int:
        """Number of elements of the full reduced basis, quadrics included."""
        return len(self.binomials) + self.quadric_count()


class CosetTable(Frozen):
    """Syndrome -> canonical coset leader, one entry per coset.

    Leaders are the order-minimal (hence minimum-weight) coset elements,
    in a read-only view; the zero syndrome maps to 0.  Syndromes are keyed
    by the canonical rref parity matrix, so the partition is independent of
    the generator presentation.
    """

    _fields = ("parity", "leaders")

    def syndrome(self, word: int) -> int:
        return self.parity.mul_word(word)


# Most cosets a coset growth takes on.  In-process on a 2-CPU host, the
# coset minima of a seeded [24,3] code (2^21 cosets) took 27-34 s and
# 670-720 MB, and the basis of a seeded [24,2] code (2^22) 62 s and 840 MB.
COSET_BUDGET = 1 << 21


def check_coset_budget(n: int, k: int) -> None:
    """CapExceeded if an [n,k] code has more than COSET_BUDGET cosets; _grow
    calls it before it starts."""
    most = COSET_BUDGET.bit_length() - 1
    if n - k > most:
        raise CapExceeded(f"the [{n},{k}] code has 2^{n - k} cosets; a coset growth "
                          f"takes 2^{most} at most (COSET_BUDGET)")


def _candidates(frontier, columns, weight: int) -> dict[int, int]:
    """Mask -> syndrome for every mask of the given weight whose one-bit-
    smaller submasks all lie in frontier, the (mask, syndrome) pairs of
    weight - 1; columns pairs each variable's bit with its parity-check
    column."""
    hits: dict[int, int] = {}  # mask -> number of its submasks in frontier
    syndromes: dict[int, int] = {}
    for s, syn in frontier:
        for bit, col in columns:
            if s & bit:
                continue
            a = s | bit
            hits[a] = hits.get(a, 0) + 1
            syndromes[a] = syn ^ col
    return {a: syndromes[a] for a, h in hits.items() if h == weight}


def _grow(c: Code, claim) -> None:
    """Grow masks weight by weight from the zero word, the one growth
    behind reduced_groebner_basis and analysis.union_all_orders.  claim
    takes one weight's candidates (_candidates) and returns the next
    frontier, the (mask, syndrome) pairs it keeps in cosets no lighter
    weight reached.  The cosets are counted one frontier at a time:
    TheoremViolation unless all 2^(n-k) were reached, and CapExceeded
    first past COSET_BUDGET cosets.
    """
    check_coset_budget(c.n, c.k)
    columns = [(1 << j, c.parity.column(j)) for j in range(c.n)]
    frontier = [(0, 0)]
    reached = weight = 0
    while frontier:
        reached += len({syn for _, syn in frontier})
        weight += 1
        frontier = claim(_candidates(frontier, columns, weight))
    if reached != 1 << (c.n - c.k):
        raise TheoremViolation(f"reached {reached} cosets, expected 2^{c.n - c.k}")


def reduced_groebner_basis(c: Code, order: TermOrder) -> tuple[GroebnerBasis, CosetTable]:
    """Compute the reduced Groebner basis and coset-leader table.

    Masks are visited weight by weight, each weight in increasing order.
    The candidates of weight w+1 are the masks whose w one-bit-smaller
    submasks are all leaders; that is exactly "divisible by no lead",
    since every proper submask precedes the mask in a degree-compatible
    order.  A candidate's syndrome either claims a fresh coset (the mask
    becomes that coset's leader) or hits an occupied one (emit
    lead-minus-leader).  A weight that adds no leader ends the scan: every
    lead sits one bit above leaders, so its degree is at most the covering
    radius plus one.  CapExceeded first past COSET_BUDGET cosets.
    """
    if order.n != c.n:
        raise ValueError(f"order on {order.n} variables, code length {c.n}")
    leaders: dict[int, int] = {0: 0}
    binomials: list[Binomial] = []
    violations: list[Binomial] = []

    def claim(candidates):
        frontier = []
        for a in sorted(candidates, key=order.sort_key):
            syn = candidates[a]
            b = leaders.get(syn)
            if b is None:
                leaders[syn] = a
                frontier.append((a, syn))
            else:
                binom = Binomial(a, b)
                binomials.append(binom)
                if not binom.in_standard_form():
                    violations.append(binom)
        return frontier

    _grow(c, claim)
    basis = GroebnerBasis(order, c.n, tuple(binomials), tuple(violations))
    table = CosetTable(c.parity, MappingProxyType(leaders))
    return basis, table


def test_set(g: GroebnerBasis, c: Code) -> tuple[int, ...]:
    """Codewords lead XOR trail of the square-free basis binomials.

    Distinct binomials can share a codeword; the result is deduplicated
    and sorted by bitstring.
    """
    words = {b.word for b in g.binomials}
    for w in words:
        if not c.contains(w):
            raise ValueError(f"basis word {word_to_string(w, c.n)} not in code")
    return tuple(bitstring_sorted(words, c.n))


def normal_form(t: CosetTable, w: int) -> int:
    """Canonical coset leader of w's coset: the table's leader for its syndrome."""
    return t.leaders[t.syndrome(w)]


def decode(t: CosetTable, w: int) -> tuple[int, int, int]:
    """(coset leader, decoded codeword, error weight) for a received word."""
    leader = normal_form(t, w)
    return leader, w ^ leader, leader.bit_count()
