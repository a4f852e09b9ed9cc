import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ghw.codes
from ghw import (
    BinaryMatrix,
    Code,
    LengthCapExceeded,
    TheoremViolation,
    ZeroCode,
    betti_table_hochster,
    circuit_betti_table,
    ghw_bruteforce,
    ghw_hierarchy,
    ideal_from_supports,
    minimal_support_codewords,
    subcode_dims,
    word_from_string,
    word_to_string,
)
from ghw.codes import GhwSequence, _largest_by_size
from ghw.gf2 import _indicator_blocks, _ones, _subset_transform, rank_of_words

import known_codes as kc
from conftest import make_code
from test_gf2 import rank_of_columns


def random_code(rng, n, k):
    """Seeded full-rank sample; resamples until dimension k is reached."""
    while True:
        m = BinaryMatrix(tuple(rng.getrandbits(n) for _ in range(k)), n)
        code = None
        try:
            code = Code.from_generator(m)
        except ZeroCode:
            continue
        if code.k == k:
            return code


def reference_hierarchy(c):
    """The ascending subset sweep: d_h is the first size at which some
    subset supports an h-dimensional subcode, each subset ranked on its
    own from the generator columns outside it."""
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
    return tuple(values)


def subcode_dim_within(c: Code, s: int) -> int:
    """Dimension of {v in C : supp(v) subset of s}.

    Equals k minus the rank of the generator columns outside s: the
    subcode is the kernel of the projection onto those coordinates.
    """
    return c.k - rank_of_columns(c.generator, ~s & ((1 << c.n) - 1))


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


def brute_dim_within(code, mask):
    """Subcode dimension by scanning every codeword."""
    count = sum(1 for w in code.codewords() if w & ~mask == 0)
    return count.bit_length() - 1


def test_from_generator_toy(toy63):
    assert (toy63.n, toy63.k) == (6, 3)
    assert toy63.nondegenerate


def test_from_generator_identity():
    code = make_code(["100", "010", "001"])
    assert code.n == code.k == 3


def test_from_generator_dependent_row():
    rows = ["100110", "010101", "001011", "110011"]  # last = row1 + row2
    code = make_code(rows)
    assert code.k == 3


def test_from_generator_errors():
    with pytest.raises(ZeroCode):
        Code.from_generator(BinaryMatrix((0, 0), 4))
    with pytest.raises(LengthCapExceeded):
        Code.from_generator(BinaryMatrix((1,), 25))


def test_degenerate_flag():
    code = make_code(["1100", "0110"])  # coordinate 4 always zero
    assert not code.nondegenerate


def test_codewords_repetition():
    code = make_code(["111"])
    assert sorted(code.codewords()) == [0, 0b111]


def test_codewords_toy_count_and_closure(toy63):
    words = list(toy63.codewords())
    assert len(words) == 8
    assert len(set(words)) == 8
    word_set = set(words)
    for a in word_set:
        for b in word_set:
            assert a ^ b in word_set


def test_minimal_supports_toy(toy63):
    words = [word_to_string(w, 6) for w in minimal_support_codewords(toy63)]
    assert words == kc.TOY63_MINIMAL


def test_minimal_supports_hamming(hamming74):
    words = minimal_support_codewords(hamming74)
    assert len(words) == 14
    weights = sorted(w.bit_count() for w in words)
    assert weights == [3] * 7 + [4] * 7


def test_minimal_supports_worked63_all_nonzero(worked63):
    words = minimal_support_codewords(worked63)
    assert len(words) == 7
    assert set(words) == {w for w in worked63.codewords() if w}


def test_minimal_supports_repetition():
    code = make_code(["111"])
    assert minimal_support_codewords(code) == (0b111,)


def test_minimal_supports_incomparable(toy63, code107):
    for code in (toy63, code107):
        words = minimal_support_codewords(code)
        for a in words:
            for b in words:
                if a != b:
                    assert a & b != a


def test_subcode_dim_within_trivial(toy63):
    assert subcode_dim_within(toy63, (1 << 6) - 1) == 3
    assert subcode_dim_within(toy63, 0) == 0


def test_subcode_dim_within_toy(toy63):
    mask = word_from_string("011111")  # coordinates 2..6
    assert subcode_dim_within(toy63, mask) == 2
    assert subcode_dim_within(toy63, mask) == brute_dim_within(toy63, mask)


def test_subcode_dim_within_matches_bruteforce_random():
    rng = random.Random(5)
    for _ in range(10):
        code = random_code(rng, 8, 4)
        for _ in range(20):
            mask = rng.getrandbits(8)
            assert subcode_dim_within(code, mask) == brute_dim_within(code, mask)


def test_ghw_toy(toy63):
    assert ghw_hierarchy(toy63).values == kc.TOY63_GHW
    assert ghw_bruteforce(toy63, 1) == 2
    assert ghw_bruteforce(toy63, 2) == 4


def test_ghw_code107(code107):
    assert ghw_hierarchy(code107).values == kc.CODE107_GHW


def test_ghw_top_weight_is_length_when_nondegenerate(toy63, hamming74):
    for code in (toy63, hamming74):
        assert ghw_bruteforce(code, code.k) == code.n


def test_ghw_hierarchy_matches_per_h_and_bounds():
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(4, 9)
        k = rng.randint(1, min(5, n - 1))
        code = random_code(rng, n, k)
        seq = ghw_hierarchy(code)  # constructor enforces shape and Singleton
        dims = [(subcode_dim_within(code, m), m.bit_count()) for m in range(1 << n)]
        for h in range(1, code.k + 1):
            assert ghw_bruteforce(code, h) == seq.values[h - 1]
            assert seq.values[h - 1] == min(size for dim, size in dims if dim >= h)


def test_ghw_d1_is_minimum_weight():
    rng = random.Random(17)
    for _ in range(8):
        code = random_code(rng, 8, rng.randint(1, 4))
        d1 = ghw_bruteforce(code, 1)
        assert d1 == min(w.bit_count() for w in code.codewords() if w)
        assert d1 == min(w.bit_count() for w in minimal_support_codewords(code))


def test_matroid_circuits_toy(toy63):
    circuits = matroid_circuits(toy63)
    assert circuits == minimal_support_codewords(toy63)


def test_matroid_circuits_repetition():
    code = make_code(["111"])
    assert matroid_circuits(code) == (0b111,)


def test_matroid_circuits_match_minimal_supports_random():
    rng = random.Random(31)
    for _ in range(6):
        code = random_code(rng, 8, 4)
        assert matroid_circuits(code) == minimal_support_codewords(code)


def test_ghw_sequence_validation():
    with pytest.raises(TheoremViolation):
        GhwSequence((2, 2, 6), n=6, k=3)  # not strictly increasing
    with pytest.raises(TheoremViolation):
        GhwSequence((5,), n=6, k=2)  # wrong length
    with pytest.raises(TheoremViolation):
        GhwSequence((2, 4, 7), n=6, k=3)  # above the Singleton bound


@st.composite
def small_codes(draw):
    """Codes with n <= 9: random rows, some degenerate (a column cleared),
    some with a weight-1 codeword (a unit row added), some the whole
    space (k = n)."""
    n = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(("random", "degenerate", "weight-1", "full")))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n))
    if shape == "degenerate":
        dead = 1 << draw(st.integers(0, n - 1))
        rows = [r & ~dead for r in rows]
    elif shape == "weight-1":
        rows.append(1 << draw(st.integers(0, n - 1)))
    elif shape == "full":
        rows = [1 << j for j in range(n)]
    assume(any(rows))
    return Code.from_generator(BinaryMatrix(tuple(rows), n))


# Blocks of 2^2 and 2^3 masks send every longer code through the step that
# merges whole blocks; the default block holds all 2^n masks when n <= 9.
block_bits = st.sampled_from((2, 3, ghw.codes._BLOCK_BITS))


@settings(max_examples=150, deadline=None)
@given(small_codes(), block_bits)
def test_subcode_dims_match_definition(code, bits):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghw.codes, "_BLOCK_BITS", bits)
        dims = subcode_dims(code)
    assert list(dims) == [subcode_dim_within(code, w) for w in range(1 << code.n)]


@settings(max_examples=150, deadline=None)
@given(small_codes(), block_bits)
def test_hierarchy_matches_reference_sweep(code, bits):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghw.codes, "_BLOCK_BITS", bits)
        values = ghw_hierarchy(code).values
    assert values == reference_hierarchy(code)


@settings(max_examples=150, deadline=None)
@given(small_codes(), block_bits)
def test_circuit_table_matches_hochster_sweep(code, bits):
    ideal = ideal_from_supports(code.n, minimal_support_codewords(code))
    swept = betti_table_hochster(ideal).entries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghw.codes, "_BLOCK_BITS", bits)
        assert circuit_betti_table(code).entries == swept


def test_code_builds_its_subcode_table_once(monkeypatch):
    """The hierarchy, the circuit table and the bytes view all read one
    table, built on first use."""
    calls = []

    def counted(*args, _real=ghw.codes._indicator_blocks):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(ghw.codes, "_indicator_blocks", counted)
    code = make_code(["110100", "011010", "001011"])
    ghw_hierarchy(code)
    circuit_betti_table(code)
    subcode_dims(code)
    assert len(calls) == 1


def dims_by_full_transform(code) -> bytes:
    """The subcode table as it was built before the coset build: one merge
    transform over every block of the codeword indicator, within blocks
    and across them."""
    bits = min(ghw.codes._BLOCK_BITS, code.n)
    blocks = _indicator_blocks(code.codewords(), code.n, bits)
    _subset_transform(blocks, bits, 8, ghw.codes._merge_counts)
    every = _ones(bits, 8)
    return b"".join([(x - every).to_bytes(1 << bits, "little") for x in blocks])


def test_coset_build_matches_the_full_transform():
    """Seeded codes with n = 13..20 at the default block size, so every
    code has coset blocks: C_0 = {0} (each row has its own high pivot),
    k = n, k = 1, dead high columns (empty blocks) and degenerate codes."""
    rng = random.Random(17)
    bits = ghw.codes._BLOCK_BITS
    codes = []
    for n in range(13, 21):
        high = n - bits
        rows = tuple(1 << (bits + i) | rng.getrandbits(bits) for i in range(rng.randint(1, high)))
        codes.append(Code.from_generator(BinaryMatrix(rows, n)))  # C_0 = {0}
        if n % 2:
            codes.append(Code.from_generator(BinaryMatrix(tuple(1 << j for j in range(n)), n)))
        for k in (1, n // 2, n - 3):
            code = random_code(rng, n, k)
            codes.append(code)
            dead = (rng.getrandbits(high) << bits if k % 2  # high columns only
                    else rng.getrandbits(n) & rng.getrandbits(n))
            rows = tuple(r & ~dead for r in code.generator.rows)
            if any(rows):
                codes.append(Code.from_generator(BinaryMatrix(rows, n)))
    trivial = bytes(1 << bits)
    assert sum(subcode_dims(c)[:1 << bits] == trivial for c in codes) >= 8
    assert sum(not c.nondegenerate for c in codes) >= 8
    assert sum(c.k == 1 for c in codes) >= 8 and sum(c.k == c.n for c in codes) >= 4
    # some block of the codeword indicator is empty
    assert sum(len({w >> bits for w in c.codewords()}) < 1 << (c.n - bits) for c in codes) >= 8
    for code in codes:
        assert code._dims[0] == bits and len(code._dims[1]) > 1
        assert subcode_dims(code) == dims_by_full_transform(code), code.generator


def test_cached_table_keeps_its_own_block_size():
    """A table built under a small block size is read with that size
    after the patch is undone, and gives the default results."""
    fresh = make_code(["1101000", "0110100", "0011010", "0001101"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghw.codes, "_BLOCK_BITS", 2)
        patched = make_code(["1101000", "0110100", "0011010", "0001101"])
        subcode_dims(patched)
    assert patched._dims[0] == 2
    assert ghw_hierarchy(patched) == ghw_hierarchy(fresh)
    assert circuit_betti_table(patched).entries == circuit_betti_table(fresh).entries
    assert subcode_dims(patched) == subcode_dims(fresh)


def largest_by_size_loop(blocks, bits: int, n: int) -> list[int]:
    """The per-field loop that the threshold scan of _largest_by_size
    replaced: the fieldwise maxima of the blocks of each |i|, then every
    field of them in turn."""
    high = 0x80 * _ones(bits, 8)
    top = [0] * (n - bits + 1)
    for i, x in enumerate(blocks):
        y = top[i.bit_count()]
        keep = ((((y | high) - x) & high) >> 7) * 0xFF  # 0xFF where y >= x
        top[i.bit_count()] = (y & keep) | (x & ~keep)
    best = [0] * (n + 1)
    for p, y in enumerate(top):
        for t, field in enumerate(y.to_bytes(1 << bits, "little")):
            s = p + t.bit_count()
            best[s] = max(best[s], field)
    return best


def test_largest_by_size_matches_the_per_field_loop():
    """Seeded codes with n > 12 (several blocks of fieldwise maxima, so a
    size spans blocks), some with dead columns, k from 1 to n."""
    rng = random.Random(16)
    codes = []
    for n in range(13, 17):
        for k in (1, 2, n // 2, n - 1, n):
            code = random_code(rng, n, k)
            dead = rng.getrandbits(n) & rng.getrandbits(n)  # about a quarter of the columns
            rows = tuple(r & ~dead for r in code.generator.rows)
            codes.append(code)
            if any(rows):
                codes.append(Code.from_generator(BinaryMatrix(rows, n)))
    assert sum(not c.nondegenerate for c in codes) >= 10
    for code in codes:
        bits, blocks = code._dims
        assert len(blocks) > 1
        assert _largest_by_size(blocks, bits, code.n) == largest_by_size_loop(blocks, bits, code.n)


def test_circuit_table_reproduces_pinned_diagrams(toy63, code107, code149):
    assert circuit_betti_table(toy63).entries == kc.TOY63_CIRCUIT_BETTI
    assert circuit_betti_table(code107).entries == kc.table_from_diagram_rows(
        kc.CODE107_CIRCUIT_DIAGRAM_ROWS)
    assert circuit_betti_table(code149).entries == kc.table_from_diagram_rows(
        kc.CODE149_CIRCUIT_DIAGRAM_ROWS)
