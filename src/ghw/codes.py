"""Binary linear codes: codeword enumeration, minimal supports, matroid
circuits, and the brute-force generalized-weight oracle.

A code is held as a canonical (rref) generator matrix plus the derived
parity-check matrix.  Enumeration kernels scan all 2^k codewords or all
2^n coordinate subsets, so everything here lives under the global length
cap enforced at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import LengthCapExceeded, TheoremViolation, ZeroCode, size_cap
from .gf2 import BinaryMatrix, bits_of, kernel_basis, rank_of_words, rref, word_to_string


@dataclass(frozen=True)
class Code:
    """A binary [n, k] linear code.

    generator rows form the canonical rref basis; parity rows are the
    canonical (rref) kernel basis, so parity.mul_word(c) == 0 for every
    codeword c.  nondegenerate means no coordinate is zero across the
    whole code.
    """

    n: int
    k: int
    generator: BinaryMatrix
    parity: BinaryMatrix
    nondegenerate: bool

    @classmethod
    def from_generator(cls, m: BinaryMatrix) -> "Code":
        if m.ncols > size_cap():
            raise LengthCapExceeded(
                f"length {m.ncols} exceeds cap {size_cap()}")
        red, rank, _ = rref(m)
        if rank == 0:
            raise ZeroCode("generator matrix has rank 0")
        parity, _, _ = rref(kernel_basis(red))
        support = 0
        for row in red.rows:
            support |= row
        return cls(
            n=m.ncols,
            k=rank,
            generator=red,
            parity=parity,
            nondegenerate=support == (1 << m.ncols) - 1,
        )

    def codewords(self):
        """Yield all 2^k codewords exactly once, in Gray-code order.

        Step i flips the generator row indexed by the bit that changes
        between gray(i-1) and gray(i); the stream starts at 0.
        """
        word = 0
        yield word
        for i in range(1, 1 << self.k):
            flip = (i & -i).bit_length() - 1
            word ^= self.generator.rows[flip]
            yield word

    def contains(self, word: int) -> bool:
        return self.parity.mul_word(word) == 0


def minimal_support_codewords(c: Code) -> tuple[int, ...]:
    """Nonzero codewords whose support strictly contains no other nonzero
    codeword's support.

    Full enumeration with inclusion filtering: scanning by ascending
    weight, a word is minimal iff no already-accepted minimal word is a
    proper subset of it.  Returned sorted by bitstring (coordinate 1
    leftmost), like every word set in this package.
    """
    by_weight = sorted((w for w in c.codewords() if w),
                       key=lambda w: (w.bit_count(), w))
    minimal: list[int] = []
    for w in by_weight:
        if not any(m & w == m for m in minimal):
            minimal.append(w)
    return tuple(sorted(minimal, key=lambda w: word_to_string(w, c.n)))


def subcode_dim_within(c: Code, s: int) -> int:
    """Dimension of {v in C : supp(v) subset of s}.

    Equals k minus the rank of the generator columns outside s: the
    subcode is the kernel of the projection onto those coordinates.
    """
    outside = ~s & ((1 << c.n) - 1)
    cols = [c.generator.column(j) for j in bits_of(outside)]
    return c.k - rank_of_words(cols)


def ghw_hierarchy(c: Code) -> "GhwSequence":
    """All generalized Hamming weights (d_1, ..., d_k) by exhaustive scan.

    Single ascending-size sweep over coordinate subsets; d_h is the first
    size at which some subset supports an h-dimensional subcode.
    """
    cols = [c.generator.column(j) for j in range(c.n)]
    values: list[int] = [0] * c.k
    next_h = 1
    for s in range(1, c.n + 1):
        best = 0
        for combo in combinations(range(c.n), c.n - s):
            dim = c.k - rank_of_words(cols[j] for j in combo)
            if dim > best:
                best = dim
                if best >= c.k:
                    break
        while next_h <= best:
            values[next_h - 1] = s
            next_h += 1
        if next_h > c.k:
            break
    return GhwSequence(tuple(values), n=c.n, k=c.k)


def ghw_bruteforce(c: Code, h: int) -> int:
    """d_h: minimum |S| over S with an h-dimensional subcode inside S,
    read off ghw_hierarchy's sweep."""
    if not 1 <= h <= c.k:
        raise ValueError(f"h must be in 1..{c.k}")
    return ghw_hierarchy(c).values[h - 1]


def matroid_circuits(c: Code) -> tuple[int, ...]:
    """Minimal dependent column sets of the parity-check matrix.

    Computed directly from parity-column ranks, independently of the
    codeword route: subsets ascend by size, supersets of found circuits
    are skipped, and a remaining subset is a circuit iff its columns are
    dependent.  Circuits have size at most rank(parity) + 1.
    """
    cols = [c.parity.column(j) for j in range(c.n)]
    circuits: list[int] = []
    max_size = min(c.n, c.parity.nrows + 1)
    for s in range(1, max_size + 1):
        for combo in combinations(range(c.n), s):
            mask = 0
            for j in combo:
                mask |= 1 << j
            if any(circ & mask == circ for circ in circuits):
                continue
            if rank_of_words(cols[j] for j in combo) < s:
                circuits.append(mask)
    return tuple(sorted(circuits, key=lambda w: word_to_string(w, c.n)))


@dataclass(frozen=True)
class GhwSequence:
    """Weight hierarchy d_1 < d_2 < ... < d_k with its ambient parameters.

    Construction enforces the proven shape: strictly increasing, d_1 >= 1,
    and d_h <= n - k + h (Singleton).  A violation is a bug, never data.
    """

    values: tuple[int, ...]
    n: int
    k: int

    def __post_init__(self):
        if len(self.values) != self.k:
            raise TheoremViolation(
                f"hierarchy has {len(self.values)} entries for k={self.k}")
        prev = 0
        for h, d in enumerate(self.values, start=1):
            if d <= prev:
                raise TheoremViolation(f"d_{h}={d} not above d_{h-1}={prev}")
            if d > self.n - self.k + h:
                raise TheoremViolation(
                    f"d_{h}={d} breaks the Singleton bound "
                    f"n-k+h={self.n - self.k + h}")
            prev = d
