import random
from pathlib import Path

import pytest

import ghw
from ghw import (BinaryMatrix, Binomial, Code, CosetTable, GhwSequence, TermOrder,
                 ideal_from_supports, kernel_basis, reduced_groebner_basis, rref,
                 second_weight_witness, word_from_string, word_to_string)
from ghw.gf2 import (Frozen, Value, _block_closure, _levels, _ones, _or_closure,
                     bitstring_sorted, inclusion_minimal, rank_of_words)

import known_codes as kc


def bits_of(mask: int):
    """Yield the 0-based set-bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rank_of_columns(m: BinaryMatrix, cols: int) -> int:
    """Rank of the submatrix formed by the columns selected in the mask.

    Equals popcount(cols) exactly when the selected columns are linearly
    independent.  Monotone nondecreasing in the selection.
    """
    return rank_of_words(m.column(j) for j in bits_of(cols))


def span_size_rank(rows):
    """Independent rank oracle: the row span of a rank-r matrix has 2^r elements."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    size = len(span)
    rank = size.bit_length() - 1
    assert 1 << rank == size
    return rank


def submatrix(m, col_mask):
    """Explicitly extracted column submatrix, for cross-checking mask ranks."""
    cols = list(bits_of(col_mask))
    rows = []
    for r in m.rows:
        packed = 0
        for new_j, j in enumerate(cols):
            if (r >> j) & 1:
                packed |= 1 << new_j
        rows.append(packed)
    return BinaryMatrix(tuple(rows), len(cols))


def test_word_string_round_trip():
    assert word_from_string("100001") == 0b100001
    assert word_to_string(0b100001, 6) == "100001"
    for word in (0, 1, 0b1011, 0b111111):
        assert word_from_string(word_to_string(word, 6)) == word
    with pytest.raises(ValueError):
        word_from_string("10x")


def word_to_string_by_bits(word: int, n: int) -> str:
    """The per-bit form of word_to_string: coordinate i + 1 is bit i."""
    return "".join("1" if (word >> i) & 1 else "0" for i in range(n))


def test_word_to_string_matches_the_per_bit_form():
    """Every n in 0..24, on 0, all-ones, seeded words and words with bits
    at n or above, which the rendering ignores."""
    rng = random.Random(24)
    for n in range(25):
        words = [0, (1 << n) - 1, 1 << n, rng.getrandbits(n + 8), -1]
        words += [rng.getrandbits(n) for _ in range(20)]
        for word in words:
            assert word_to_string(word, n) == word_to_string_by_bits(word, n), (word, n)


def test_rref_identity():
    m = BinaryMatrix.from_strings(["100", "010", "001"])
    red, rank, pivots = rref(m)
    assert red == m
    assert rank == 3
    assert pivots == (0, 1, 2)


def test_rref_toy_generator_rank():
    m = BinaryMatrix.from_strings(kc.TOY63_ROWS)
    _, rank, _ = rref(m)
    assert rank == 3


def test_rref_dependent_rows():
    rng = random.Random(7)
    while True:
        r1, r2, r3 = (rng.getrandbits(8) for _ in range(3))
        if span_size_rank([r1, r2, r3]) == 3:
            break
    m = BinaryMatrix((r1, r1, r2, r3, r1 ^ r2), 8)
    _, rank, _ = rref(m)
    assert rank == 3
    assert rank == span_size_rank(m.rows)


def test_rref_idempotent_and_span_preserving():
    rng = random.Random(11)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        m = BinaryMatrix(tuple(rng.getrandbits(ncols) for _ in range(nrows)), ncols)
        red, rank, pivots = rref(m)
        again, rank2, pivots2 = rref(red)
        assert (again, rank2, pivots2) == (red, rank, pivots)
        assert rank == span_size_rank(m.rows)
        assert rank == len(red.rows)
        span = {0}
        for r in m.rows:
            span |= {v ^ r for v in span}
        span_red = {0}
        for r in red.rows:
            span_red |= {v ^ r for v in span_red}
        assert span == span_red


def test_kernel_of_all_ones_row():
    n = 6
    m = BinaryMatrix(((1 << n) - 1,), n)
    ker = kernel_basis(m)
    assert ker.nrows == n - 1
    for row in ker.rows:
        assert row.bit_count() % 2 == 0


def test_kernel_annihilates_toy_generator():
    g = BinaryMatrix.from_strings(kc.TOY63_ROWS)
    ker = kernel_basis(g)
    assert ker.nrows == 3
    for h in ker.rows:
        assert g.mul_word(h) == 0


def test_double_kernel_recovers_row_space():
    rng = random.Random(3)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(2, 8)
        m = BinaryMatrix(tuple(rng.getrandbits(ncols) for _ in range(nrows)), ncols)
        if rref(m)[1] == 0:
            continue
        back = kernel_basis(kernel_basis(m))
        assert rref(back)[0] == rref(m)[0]


def test_rank_nullity_exhaustive_small():
    for nrows in range(1, 5):
        for ncols in range(1, 5):
            for bits in range(1 << (nrows * ncols)):
                rows = tuple((bits >> (i * ncols)) & ((1 << ncols) - 1)
                             for i in range(nrows))
                m = BinaryMatrix(rows, ncols)
                _, rank, _ = rref(m)
                assert kernel_basis(m).nrows + rank == ncols


def test_rank_of_columns_empty():
    m = BinaryMatrix.from_strings(["101", "011"])
    assert rank_of_columns(m, 0) == 0


def test_rank_of_columns_toy_circuit():
    g = BinaryMatrix.from_strings(kc.TOY63_ROWS)
    h = kernel_basis(g)
    sigma = word_from_string("100001")  # support of a minimal codeword
    assert rank_of_columns(h, sigma) < 2


def test_rank_of_columns_against_submatrix_rref():
    rng = random.Random(19)
    m = BinaryMatrix(tuple(rng.getrandbits(6) for _ in range(3)), 6)
    for mask in range(1 << 6):
        expect = rref(submatrix(m, mask))[1] if mask else 0
        assert rank_of_columns(m, mask) == expect


def test_rank_of_columns_monotone():
    rng = random.Random(23)
    for _ in range(20):
        m = BinaryMatrix(tuple(rng.getrandbits(10) for _ in range(4)), 10)
        mask = 0
        prev = 0
        for j in rng.sample(range(10), 10):
            mask |= 1 << j
            cur = rank_of_columns(m, mask)
            assert prev <= cur <= mask.bit_count()
            prev = cur


def test_rank_of_words_matches_span_oracle():
    rng = random.Random(29)
    for _ in range(50):
        rows = [rng.getrandbits(12) for _ in range(rng.randint(0, 6))]
        assert rank_of_words(rows) == span_size_rank(rows)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 14, 16, 24, 31])
def test_bitstring_sorted_is_the_order_of_rendered_words(n):
    """The int key sorts words exactly as their bitstrings sort, across
    byte boundaries; the oracle renders every word."""
    rng = random.Random(n)
    words = [rng.getrandbits(n) for _ in range(300)] + [0, (1 << n) - 1, 1, 1 << (n - 1)]
    expected = sorted(words, key=lambda w: word_to_string(w, n))
    assert bitstring_sorted(words, n) == expected
    minimal = inclusion_minimal(words, n)
    assert list(minimal) == sorted(minimal, key=lambda w: word_to_string(w, n))


def ones_by_division(bits: int, width: int, j=None) -> int:
    """Oracle for gf2._ones by big-int division: a 1 in every field is
    (2^(width 2^bits) - 1) / (2^width - 1); with bit j clear, a run of 2^j
    fields repeats every 2^(j+1) fields."""
    field = (1 << width) - 1
    every = ((1 << (width << bits)) - 1) // field
    if j is None:
        return every
    run = ((1 << (width << j)) - 1) // field  # 2^j fields, then 2^j empty
    return run * (((1 << (width << bits)) - 1) // ((1 << (width << (j + 1))) - 1))


@pytest.mark.parametrize("width", [1, 8, 32])
def test_ones_matches_the_division_formula(width):
    for bits in range(13):
        for j in (None, *range(bits)):
            assert _ones(bits, width, j) == ones_by_division(bits, width, j), (bits, j)


@pytest.mark.parametrize("width", [1, 8])
def test_levels_mark_the_fields_of_each_size(width):
    for bits in range(9):
        levels = _levels(bits, width)
        assert len(levels) == bits + 1
        for s, level in enumerate(levels):
            assert level == sum(1 << (width * x) for x in range(1 << bits)
                                if x.bit_count() == s), (bits, s)


def closure_by_mask(masks, n: int, bits: int) -> tuple[list[int], list[int]]:
    """(within, full): within[m] = 1 iff m contains some given mask with
    the same high part m >> bits, full[m] = 1 iff m contains any given
    mask, mask by mask."""
    within = [int(any(g >> bits == m >> bits and g & m == g for g in masks))
              for m in range(1 << n)]
    return within, [int(any(g & m == g for g in masks)) for m in range(1 << n)]


def unpacked(blocks, bits: int, width: int) -> list[int]:
    """The fields of packed blocks of 2^bits fields, one per mask."""
    field = (1 << width) - 1
    return [x >> (width * t) & field for x in blocks for t in range(1 << bits)]


@pytest.mark.parametrize("width", [1, 8])
@pytest.mark.parametrize("bits", [2, 3, 12])
def test_or_closure_matches_the_superset_oracle(width, bits):
    """Seeded mask sets on up to 13 coordinates (several blocks when n
    exceeds bits), the empty set and the empty mask included: each
    block's own closure, then the closure across blocks."""
    rng = random.Random(8 * width + bits)
    for n in range(bits, 12 if bits < 12 else 14):
        for size in (0, 1, 3, 12):
            masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(size)]
            if size == 1:
                masks.append(0)
            blocks = [0] * (1 << (n - bits))
            for m in masks:
                blocks[m >> bits] |= 1 << (width * (m & ((1 << bits) - 1)))
            within, full = closure_by_mask(masks, n, bits)
            own = [_block_closure(x, bits, width) for x in blocks]
            assert unpacked(own, bits, width) == within, (n, masks)
            _or_closure(blocks, bits, width)
            assert unpacked(blocks, bits, width) == full, (n, masks)


def _toy63():
    return Code.from_generator(BinaryMatrix.from_strings(kc.TOY63_ROWS))


# Each public frozen class: a builder that makes a fresh instance from fresh
# but equal fields, and one of its fields.
_FROZEN = {
    "BinaryMatrix": (lambda: BinaryMatrix((0b011, 0b110), 3), "rows"),
    "Code": (_toy63, "generator"),
    "GhwSequence": (lambda: GhwSequence((2, 4, 6), n=6, k=3), "values"),
    "TermOrder": (lambda: TermOrder("deglex", (2, 0, 1)), "priority"),
    "Binomial": (lambda: Binomial(0b011, 0b100), "lead"),
    "GroebnerBasis": (lambda: reduced_groebner_basis(_toy63(), TermOrder.default(6))[0],
                      "binomials"),
    "CosetTable": (lambda: reduced_groebner_basis(_toy63(), TermOrder.default(6))[1],
                   "leaders"),
    "MonomialIdeal": (lambda: ideal_from_supports(6, [0b000011, 0b001100]), "gens"),
    "WitnessPair": (lambda: second_weight_witness(_toy63(), TermOrder.default(6)), "m1"),
}


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_frozen_values_refuse_assignment_and_compare_by_fields(name):
    build, field = _FROZEN[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != object()
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, field) == getattr(b, field)
    if isinstance(a, CosetTable):  # its leaders are a dict, and like a dict it is unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


# The public value classes whose fields can be reassigned; the README's
# immutability sentence names exactly these.
_MUTABLE = ("BettiTable", "SearchReport", "VerificationReport")


def test_every_other_public_value_is_frozen():
    """Each public Value class is Frozen, and covered above, unless it is one
    of the mutable classes the README names."""
    values = {name for name in ghw.__all__
              if isinstance(getattr(ghw, name), type) and issubclass(getattr(ghw, name), Value)}
    assert set(_MUTABLE) <= values
    assert values - set(_MUTABLE) == set(_FROZEN)
    assert all(issubclass(getattr(ghw, name), Frozen) for name in _FROZEN)
    assert not any(issubclass(getattr(ghw, name), Frozen) for name in _MUTABLE)
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    named = ", ".join(f"`{name}`" for name in _MUTABLE[:-1]) + f" and `{_MUTABLE[-1]}`"
    assert f"All public values are immutable once constructed, except {named}" in readme
