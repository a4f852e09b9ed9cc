import random

import pytest

from ghw import (
    BinaryMatrix,
    Code,
    LengthCapExceeded,
    TheoremViolation,
    ZeroCode,
    ghw_bruteforce,
    ghw_hierarchy,
    matroid_circuits,
    minimal_support_codewords,
    subcode_dim_within,
    word_from_string,
    word_to_string,
)
from ghw.codes import GhwSequence

import known_codes as kc
from conftest import make_code


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
