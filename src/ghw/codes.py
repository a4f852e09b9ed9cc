"""Binary linear codes: codeword enumeration, minimal supports, and the
subcode-dimension table behind the generalized-weight oracle and the
circuit-ideal Betti table.

A code is held as a canonical (rref) generator matrix plus the derived
parity-check matrix.  Each code builds its subcode table once, on first
use: dim C(W), the dimension of the subcode supported inside W, for all
2^n coordinate masks W at one byte per mask, from a subset-sum (zeta)
transform of the codeword indicator run on packed blocks of masks.  A
block covers the masks of the low coordinates under one high part i, and
its codewords are C_0, the subcode inside the low coordinates, or a coset
a + C_0 (or none).  Before the steps that merge whole blocks, a coset
block counts |C_0(x)| at each low mask x that contains one of its members
(adding that member maps the members inside x one to one onto C_0(x)) and
0 elsewhere, so only C_0's block gets the counting steps; every other
block is C_0's masked by the OR closure of its own indicator.

ghw_hierarchy reads d_h = min{|W| : dim C(W) >= h} off the table;
circuit_betti_table reads the Betti table of the circuit ideal off it
with one Moebius transform more, and ghw_via_resolution reads the
hierarchy off that table; subcode_dims is its bytes view.  Everything
here lives under the global length cap enforced at construction.
"""

from __future__ import annotations

import struct
from functools import cache, cached_property
from itertools import compress

from .errors import SIZE_CAP, LengthCapExceeded, TheoremViolation, ZeroCode
from .gf2 import (_BLOCK_BITS, BinaryMatrix, Frozen, _across_blocks, _block_closure,
                  _block_transform, _indicator_blocks, _levels, _ones, _subset_transform,
                  inclusion_minimal, kernel_basis, rref)

# resolution is imported where a table is built or read, so that loading
# codes (every CLI command does) does not load the Betti-table machinery.


class Code(Frozen):
    """A binary [n, k] linear code.

    generator rows form the canonical rref basis; parity rows are the
    canonical (rref) kernel basis, so parity.mul_word(c) == 0 for every
    codeword c.  nondegenerate means no coordinate is zero across the
    whole code.
    """

    _fields = ("n", "k", "generator", "parity", "nondegenerate")

    @classmethod
    def from_generator(cls, m: BinaryMatrix) -> "Code":
        if m.ncols > SIZE_CAP:
            raise LengthCapExceeded(f"length {m.ncols} exceeds cap {SIZE_CAP}")
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

    @cached_property
    def _dims(self) -> tuple[int, list[int]]:
        """(bits, blocks): subcode_dims as packed byte blocks of 2^bits
        masks each, built once per code.

        Field x of block i starts as e = 1 + log2 of the number of
        codewords with high part i and low part inside x (0 for none).
        Block 0 holds C_0, the subcode inside the low bits coordinates, and
        gets the within-block merge steps.  Every other nonempty block
        holds a coset a + C_0, and adding any member a' of it inside x maps
        the members inside x one to one onto C_0(x), so its field is block
        0's wherever some member lies inside x, 0 elsewhere: block 0 masked
        by the OR closure of the coset's indicator.  The across-block merge
        steps then finish the transform.
        """
        bits = min(_BLOCK_BITS, self.n)
        blocks = _indicator_blocks(self.codewords(), self.n, bits)  # count 1 (e = 1) per codeword
        low = blocks[0] = _block_transform(blocks[0], bits, 8, _merge_counts)
        for i in range(1, len(blocks)):
            if blocks[i]:
                blocks[i] = low & _block_closure(blocks[i], bits, 8) * 0xFF
        _across_blocks(blocks, bits, 8, _merge_counts)
        every = _ones(bits, 8)
        for i in range(len(blocks)):
            blocks[i] -= every  # e >= 1 everywhere: the zero word lies in every W
        return bits, blocks


def minimal_support_codewords(c: Code) -> tuple[int, ...]:
    """Nonzero codewords whose support strictly contains no other nonzero
    codeword's support.

    Full enumeration filtered by inclusion_minimal, sorted by bitstring
    (coordinate 1 leftmost) like every word set in this package.
    """
    return inclusion_minimal((w for w in c.codewords() if w), c.n)


def ghw_hierarchy(c: Code) -> "GhwSequence":
    """All generalized Hamming weights (d_1, ..., d_k).

    d_h is the smallest |W| with dim C(W) >= h, read off the code's
    subcode table: the largest dimension at each subset size, in one pass.
    """
    bits, blocks = c._dims
    values: list[int] = []
    for s, dim in enumerate(_largest_by_size(blocks, bits, c.n)):
        values += [s] * (dim - len(values))  # the largest dim never shrinks with s
    return GhwSequence(tuple(values), n=c.n, k=c.k)


def ghw_bruteforce(c: Code, h: int) -> int:
    """d_h alone: the smallest |W| with dim C(W) >= h, read off
    ghw_hierarchy."""
    if not 1 <= h <= c.k:
        raise ValueError(f"h must be in 1..{c.k}")
    return ghw_hierarchy(c).values[h - 1]


_BIAS = 1 << 31  # a Moebius field holds m + 2^31 in 32 bits; |m| < 2^(n-1) <= 2^23

_FACE = bytes([1]) + bytes(255)  # translate table: dim 0 -> 1, any other -> 0


def _merge_counts(a: int, b: int, ones: int) -> int:
    """Zeta step on byte fields e = 1 + log2(count), 0 for no codeword.

    The two counts of a pair count one coset each of the same subspace,
    so they are 0 or the same power of two, and the sum has
    e = (a | b) + [a != 0 and b != 0].
    """
    return (a | b) + ((((a & b) + 127 * ones) >> 7) & ones)


def _difference(lo: int, hi: int, ones: int) -> int:
    """Moebius step on biased 32-bit fields: hi - lo, biased again."""
    return hi - lo + _BIAS * ones


def _largest_by_size(blocks, bits: int, n: int) -> list[int]:
    """best[s] = the largest dim C(W) over the masks W of size s, for the
    packed byte blocks of a subcode table (every field below 128).

    best never falls and rises by at most 1 per size, since
    dim C(W + j) <= dim C(W) + 1, so each size only asks whether some field
    of that size is above the best so far: one packed compare per block of
    fieldwise maxima, repeated while the answer is yes.
    """
    ones = _ones(bits, 8)
    high = 0x80 * ones
    top = [0] * (n - bits + 1)  # fieldwise max over the blocks i of each |i|
    for i, x in enumerate(blocks):
        y = top[i.bit_count()]
        keep = ((((y | high) - x) & high) >> 7) * 0xFF  # 0xFF where y >= x
        top[i.bit_count()] = (y & keep) | (x & ~keep)
    top = [y | high for y in top]  # field + 128: a compare borrows no bit from its neighbour
    levels = [level << 7 for level in _levels(bits, 8)]  # the high bit of each field of size s
    best = [0] * (n + 1)
    h = 0
    for s in range(n + 1):
        # bit 7 of field + 128 - (h + 1) is set iff the field is above h
        while any((y - (h + 1) * ones) & levels[s - p]
                  for p, y in enumerate(top) if 0 <= s - p <= bits):
            h += 1
        best[s] = h
    return best


@cache
def _sizes(bits: int) -> tuple[int, ...]:
    """sizes[t] = |t| for each field index t of a block of 2^bits masks."""
    return tuple([t.bit_count() for t in range(1 << bits)])


def subcode_dims(c: Code) -> bytes:
    """dims[W] = dim C(W), the dimension of {v in C : supp(v) inside W},
    for every coordinate mask W, one byte per mask: the bytes view of the
    code's subcode table.
    """
    bits, blocks = c._dims
    return b"".join([x.to_bytes(1 << bits, "little") for x in blocks])


def circuit_betti_table(c: Code) -> BettiTable:
    """Graded Betti table of R/I for the circuit ideal I of c, generated by
    the supports of the minimal-support codewords.

    The complex of I is the independence complex of the parity-check
    matroid: S is a face iff dim C(S) = 0.  Every restriction of a matroid
    complex is shellable, so its reduced homology sits in one degree
    (Bjorner), and Hochster's formula puts all of it at
    beta_{dim C(W), |W|}.  Its rank is the absolute value of
    m(W) = sum over S inside W of (-1)^|W - S| [S is a face], which is
    (-1)^dim C(W) times that rank; one Moebius transform of the face
    indicator gives m for every W at once.  The table is the same over
    every field.  It reads the code's subcode table.
    """
    from .resolution import BettiTable

    bits, dim_blocks = c._dims
    size = 1 << bits
    fields = bytearray(4 * size)
    fields[3::4] = b"\x80" * size  # m + 2^31, little-endian
    blocks = []
    for x in dim_blocks:
        fields[0::4] = x.to_bytes(size, "little").translate(_FACE)
        blocks.append(int.from_bytes(fields, "little"))
    _subset_transform(blocks, bits, 32, _difference)
    unbias = _BIAS * _ones(bits, 32)
    sizes = _sizes(bits)
    sums: dict[tuple[int, int], int] = {}
    for i, (x, y) in enumerate(zip(blocks, dim_blocks)):
        p = i.bit_count()
        ms = struct.unpack(f"<{size}i", (x ^ unbias).to_bytes(4 * size, "little"))
        for m, dim, q in compress(zip(ms, y.to_bytes(size, "little"), sizes), ms):
            key = (dim, p + q)
            sums[key] = sums.get(key, 0) + m
    entries = {}
    for (dim, j), m in sums.items():
        beta = -m if dim % 2 else m
        if beta <= 0:
            raise TheoremViolation(
                f"matroid restrictions at ({dim}, {j}) have homology off the top degree")
        entries[dim, j] = beta
    return BettiTable(entries)


def ghw_via_resolution(c: Code) -> GhwSequence:
    """Weight hierarchy read off the Betti table of the circuit ideal:
    d_i is the smallest shift in homological degree i."""
    from .resolution import min_shifts

    return GhwSequence(min_shifts(circuit_betti_table(c)), n=c.n, k=c.k)


class GhwSequence(Frozen):
    """Weight hierarchy d_1 < d_2 < ... < d_k with its ambient parameters.

    Construction enforces the proven shape: strictly increasing, d_1 >= 1,
    and d_h <= n - k + h (Singleton).  A violation is a bug, never data.
    """

    _fields = ("values", "n", "k")

    def __init__(self, values: tuple[int, ...], n: int, k: int):
        if len(values) != k:
            raise TheoremViolation(f"hierarchy has {len(values)} entries for k={k}")
        prev = 0
        for h, d in enumerate(values, start=1):
            if d <= prev:
                raise TheoremViolation(f"d_{h}={d} not above d_{h-1}={prev}")
            if d > n - k + h:
                raise TheoremViolation(
                    f"d_{h}={d} breaks the Singleton bound n-k+h={n - k + h}")
            prev = d
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
