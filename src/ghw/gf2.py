"""Exact GF(2) linear algebra on int-bitmask rows.

A length-n word over GF(2) is a plain Python int: bit i (0-based) holds
coordinate i+1.  The same int serves as a codeword, a square-free monomial
exponent vector, and a subset of {1,...,n}.  All user-facing I/O is 1-based
and renders coordinate 1 as the leftmost character of a bitstring; every
index inside this package is 0-based.

Addition is XOR, support size is int.bit_count(), containment of supports
is ``a & b == a``.  Row operations below are whole-word XORs; elimination
picks the leftmost available pivot first, so all outputs are deterministic.
"""

from __future__ import annotations

from functools import cache


def word_from_string(s: str) -> int:
    """Parse a bitstring like ``100001`` (coordinate 1 leftmost)."""
    word = 0
    for i, ch in enumerate(s):
        if ch == "1":
            word |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid bit {ch!r} in {s!r}")
    return word


def word_to_string(word: int, n: int) -> str:
    """Render a word as an n-character bitstring, coordinate 1 leftmost;
    bits at n and above are ignored."""
    return bin(word & ((1 << n) - 1) | 1 << n)[:2:-1]  # bit n set keeps the leading zeros


def bitstring_sorted(words, n: int) -> list[int]:
    """The words in the order of their bitstrings, compared as int keys:
    each word with its n bits reversed, so coordinate 1 is the most
    significant bit."""
    spec = f"0{n}b"
    return sorted(words, key=lambda w: int(format(w, spec)[::-1], 2))


def inclusion_minimal(masks, n: int) -> tuple[int, ...]:
    """The masks that contain no other mask, once each, sorted by bitstring.

    Scanning by ascending weight, a mask is kept iff no kept mask is a
    subset of it (a repeat is a subset of its first copy).
    """
    minimal: list[int] = []
    for s in sorted(masks, key=lambda m: (m.bit_count(), m)):
        if not any(g & s == g for g in minimal):
            minimal.append(s)
    return tuple(bitstring_sorted(minimal, n))


def rank_of_words(words) -> int:
    """GF(2) rank of a collection of int words (xor-basis elimination)."""
    basis: dict[int, int] = {}
    for v in words:
        while v:
            top = v.bit_length() - 1
            row = basis.get(top)
            if row is None:
                basis[top] = v
                break
            v ^= row
    return len(basis)


class Value:
    """Base of the package's value classes.

    A subclass names its fields in _fields and sets them in __init__.  Two
    values of one class are equal when their fields are, and repr shows
    the fields by name.  A Value is mutable, so it is not hashable.
    """

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Value):
    """A Value whose fields are set once, by __init__ through
    object.__setattr__, and never reassigned; hashed by its fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._astuple())


class BinaryMatrix(Frozen):
    """Row-major matrix over GF(2); each row is an int word of ncols bits."""

    _fields = ("rows", "ncols")

    def __init__(self, rows: tuple[int, ...], ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        mask = (1 << ncols) - 1
        for r in rows:
            if r & ~mask:
                raise ValueError("row has bits beyond ncols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", ncols)

    @classmethod
    def from_strings(cls, rows: list[str]) -> "BinaryMatrix":
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("all rows must have equal length")
        return cls(tuple(word_from_string(r) for r in rows), ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_strings(self) -> list[str]:
        return [word_to_string(r, self.ncols) for r in self.rows]

    def column(self, j: int) -> int:
        """Column j as a word over row indices."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out

    def mul_word(self, word: int) -> int:
        """Matrix-vector product m . word^T, result over row indices."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r & word).bit_count() & 1) << i
        return out


def rref(m: BinaryMatrix) -> tuple[BinaryMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form over GF(2).

    Returns (reduced matrix with zero rows dropped, rank, pivot columns).
    Pivot columns are 0-based and ascend left to right; the row space is
    preserved and the result is idempotent under rref.
    """
    work = list(m.rows)
    pivots: list[int] = []
    pr = 0
    for col in range(m.ncols):
        piv = None
        for i in range(pr, len(work)):
            if (work[i] >> col) & 1:
                piv = i
                break
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        for i in range(len(work)):
            if i != pr and ((work[i] >> col) & 1):
                work[i] ^= work[pr]
        pivots.append(col)
        pr += 1
    return BinaryMatrix(tuple(work[:pr]), m.ncols), pr, tuple(pivots)


def kernel_basis(m: BinaryMatrix) -> BinaryMatrix:
    """Basis of the right kernel {v : m . v^T = 0}, one row per free column.

    The result has ncols - rank(m) rows and is canonical: it is derived
    from the rref of m, with free columns taken in ascending order.
    """
    red, _, pivots = rref(m)
    pivot_set = set(pivots)
    rows = []
    for j in range(m.ncols):
        if j in pivot_set:
            continue
        v = 1 << j
        for i, pc in enumerate(pivots):
            if (red.rows[i] >> j) & 1:
                v |= 1 << pc
        rows.append(v)
    return BinaryMatrix(tuple(rows), m.ncols)


# A packed block is one int holding the fields of 2^_BLOCK_BITS consecutive
# masks, field t at bits t * width .. (t + 1) * width - 1: one int operation
# then updates thousands of masks, while each temporary stays small.
_BLOCK_BITS = 12


@cache  # built once per shape, not once per transform
def _ones(bits: int, width: int, j: int | None = None) -> int:
    """Packed block with a 1 in every field of width bits, or only in the
    fields whose index has bit j clear.

    Shift-OR doubling: after the step for index bit t, the block holds a 1
    in every field whose index uses only the bits stepped so far; skipping
    t = j leaves the fields with bit j set empty.  Linear in the block size.
    """
    x = 1
    for t in range(bits):
        if t != j:
            x |= x << (width << t)
    return x


@cache
def _levels(bits: int, width: int = 1) -> tuple[int, ...]:
    """levels[s] is the packed block with a 1 in the field of each of the
    2^bits masks x of one block with |x| = s, fields of width bits."""
    if bits == 0:
        return (1,)
    half = _levels(bits - 1, width)
    shift = width << (bits - 1)
    return tuple((half[s] if s < bits else 0) | (half[s - 1] << shift if s else 0)
                 for s in range(bits + 1))


@cache
def _pair_patterns(bits: int, width: int) -> tuple[tuple[int, int, int], ...]:
    """(shift, keep, ones) for each coordinate j < bits: the field offset
    of j, a full field in every field whose index has bit j clear, and a 1
    in each of those fields."""
    field = (1 << width) - 1
    return tuple((width << j, _ones(bits, width, j) * field, _ones(bits, width, j))
                 for j in range(bits))


def _indicator_blocks(masks, n: int, bits: int) -> list[int]:
    """Packed blocks of byte fields, 2^bits masks each, covering all 2^n
    masks: 1 in the field of each given mask, 0 elsewhere."""
    low = (1 << bits) - 1
    fill: dict[int, bytearray] = {}
    for m in masks:
        block = fill.get(m >> bits)
        if block is None:
            block = fill[m >> bits] = bytearray(low + 1)
        block[m & low] = 1
    return [int.from_bytes(fill.pop(i, b""), "little") for i in range(1 << (n - bits))]


def _block_transform(x: int, bits: int, width: int, step) -> int:
    """The steps of a subset transform that pair the fields of one block:
    for each coordinate j < bits and each field index t without j, the
    field of t + {j} becomes step(field of t, field of t + {j}, ones),
    where ones has a 1 in each field the call covers; every result must
    fit its field."""
    for shift, keep, ones in _pair_patterns(bits, width):
        lo = x & keep
        x = lo | step(lo, (x >> shift) & keep, ones) << shift
    return x


def _block_closure(x: int, bits: int, width: int) -> int:
    """The OR closure within one block of 0/1 fields: a 1 in the field of
    every index that contains the index of some 1 of x.  One shift-OR per
    coordinate, which is _block_transform with an OR step."""
    for shift, keep, _ in _pair_patterns(bits, width):
        x |= (x & keep) << shift
    return x


def _across_blocks(blocks: list[int], bits: int, width: int, step) -> None:
    """The steps of a subset transform that pair whole blocks, in place:
    for each coordinate at or above bits, block i with that bit becomes
    step(block without it, block i, ones), field by field."""
    ones = _ones(bits, width)
    bit = 1
    while bit < len(blocks):
        for i in range(len(blocks)):
            if i & bit:
                blocks[i] = step(blocks[i ^ bit], blocks[i], ones)
        bit <<= 1


def _subset_transform(blocks: list[int], bits: int, width: int, step) -> None:
    """One subset transform over packed blocks, in place.

    blocks[i] holds the fields of the masks i * 2^bits ... (i + 1) * 2^bits
    - 1.  For each coordinate j in turn and each mask m without j, the
    field of m + {j} becomes step(field of m, field of m + {j}, ones).
    Coordinates below bits pair the fields of one block
    (_block_transform), the higher ones pair whole blocks (_across_blocks).
    """
    for i, x in enumerate(blocks):
        blocks[i] = _block_transform(x, bits, width, step)
    _across_blocks(blocks, bits, width, step)


def _or(lo: int, hi: int, ones: int) -> int:
    return lo | hi


def _or_closure(blocks: list[int], bits: int, width: int) -> None:
    """The subset transform with an OR step on 0/1 fields, in place: each
    mask gets a 1 when it contains some mask with a 1."""
    for i, x in enumerate(blocks):
        blocks[i] = _block_closure(x, bits, width)
    _across_blocks(blocks, bits, width, _or)

