import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghw import (
    BinaryMatrix,
    CapExceeded,
    Code,
    EmptyAmbient,
    TermOrder,
    TheoremViolation,
    TooFewGenerators,
    ZeroCode,
    betti_table_hochster,
    hochster_min_shifts,
    ideal_from_supports,
    min_pair_union,
    min_shift_sequence,
    min_shifts,
    minimal_support_codewords,
    reduced_groebner_basis,
    word_from_string,
)
from ghw import resolution
from ghw.gf2 import rank_of_words
from ghw.groebner import test_set as extract_testset
from ghw.resolution import (BettiTable, MonomialIdeal, _audit_relative, _certified, _critical,
                            _fewest_cells, _nonface_table, _own_table, _relative_homology)

import known_codes as kc
from test_codes import random_code


def mask(*coords):
    """1-based coordinates to a bitmask."""
    out = 0
    for c in coords:
        out |= 1 << (c - 1)
    return out


def brute_faces(gens, w):
    """Face enumeration from scratch: combinations plus direct containment."""
    vertices = [j for j in range(32) if (w >> j) & 1]
    by_dim = {}
    for size in range(len(vertices) + 1):
        for combo in combinations(vertices, size):
            m = 0
            for j in combo:
                m |= 1 << j
            if not any(g & m == g for g in gens):
                by_dim.setdefault(size - 1, []).append(m)
    return {d: sorted(faces) for d, faces in by_dim.items()}


# --- the face-by-face oracle: full restriction, full chain complex ---------

def nonface_by_mask(n: int, gens, ground: int) -> bytearray:
    """nonface[m] = 1 iff m contains some generator, filled mask by mask
    for every m inside ground (entries outside ground stay 0).  The
    oracle for the packed transform of _nonface_table.

    Submasks of ground are visited in ascending order, so the one-bit
    smaller submasks of m are settled before m.
    """
    table = bytearray(1 << n)
    genset = set(gens)
    mask = 0
    while True:
        if mask in genset:
            table[mask] = 1
        else:
            m = mask
            while m:
                low = m & -m
                if table[mask ^ low]:
                    table[mask] = 1
                    break
                m ^= low
        if mask == ground:
            return table
        mask = (mask - ground) & ground


def unpack(blocks: list[int], n: int) -> bytearray:
    """A nonface table of packed one-bit blocks, 2^n masks in all, as one
    byte per mask."""
    bits = n - (len(blocks).bit_length() - 1)
    return bytearray(blocks[m >> bits] >> (m & ((1 << bits) - 1)) & 1
                     for m in range(1 << n))


def expand(x: int, w: int) -> int:
    """The local mask x of w's own coordinates as an ambient mask: local
    bit i is the i-th lowest vertex of w."""
    out = 0
    for i, p in enumerate(j for j in range(w.bit_length()) if w >> j & 1):
        if x >> i & 1:
            out |= 1 << p
    return out


def _faces_by_size(w: int, nonface: bytearray) -> list[list[int]]:
    """by_size[s] lists the faces of size s inside the vertex mask w."""
    by_size: list[list[int]] = [[] for _ in range(w.bit_count() + 1)]
    sub = w
    while True:
        if not nonface[sub]:
            by_size[sub.bit_count()].append(sub)
        if sub == 0:
            return by_size
        sub = (sub - 1) & w


def _gf2_boundary_ranks(by_size: list[list[int]]) -> list[int]:
    """ranks[s] = rank of the boundary map from size-s faces, over GF(2).

    by_size[s] lists the faces of size s; downward closure is assumed
    (every facet of a listed face is listed one level down).
    """
    top = len(by_size) - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        cols = by_size[s]
        if not cols:
            break
        index = {m: 1 << i for i, m in enumerate(by_size[s - 1])}

        def boundary(c: int) -> int:
            v = 0
            m = c
            while m:
                low = m & -m
                v |= index[c ^ low]
                m ^= low
            return v

        ranks[s] = rank_of_words(map(boundary, cols))
    return ranks


def _homology_by_size(by_size: list[list[int]],
                      audit: bool = False) -> list[int]:
    """h[s] = dimension of the reduced homology in degree s - 1.

    h = f - r_s - r_{s+1} from the face counts and the boundary ranks.
    audit checks every h and the Euler characteristic as it goes.
    """
    ranks = _gf2_boundary_ranks(by_size)
    hs: list[int] = []
    euler = 0  # sum of (-1)^s (f - h); zero when the ranks are consistent
    for s, faces in enumerate(by_size):
        f = len(faces)
        h = f - ranks[s] - ranks[s + 1]
        if audit:
            if h < 0 or ranks[s] > f:
                raise TheoremViolation(f"inconsistent ranks at face size {s}")
            euler += f - h if s % 2 == 0 else h - f
        hs.append(h)
    if euler:
        raise TheoremViolation(
            f"Euler mismatch: faces and homology differ by {euler}")
    return hs


def restricted_faces(ideal: MonomialIdeal, w: int) -> dict[int, list[int]]:
    """All faces of the ideal's complex contained in the vertex mask w,
    grouped by dimension and sorted.

    The complex's minimal nonfaces are the generators.  The empty face
    appears under dimension -1 whenever it is a face (always, unless the
    ideal contains the constant monomial).
    """
    if w & ~((1 << ideal.n) - 1):
        raise ValueError(f"vertex mask {bin(w)} outside ambient of size {ideal.n}")
    by_size = _faces_by_size(w, nonface_by_mask(ideal.n, ideal.gens, w))
    return {s - 1: sorted(faces) for s, faces in enumerate(by_size) if faces}


def reduced_homology_dims(faces_by_dim: dict[int, list[int]]) -> dict[int, int]:
    """Dimensions of the reduced homology of a downward-closed family,
    over GF(2).

    Input is the output shape of restricted_faces.  The chain complex is
    augmented: the complex {empty face} has homology of dimension 1 in
    degree -1, the void complex has none at all.  Only nonzero dimensions
    are returned.
    """
    if not faces_by_dim:
        return {}
    top_dim = max(faces_by_dim)
    by_size = [list(faces_by_dim.get(d, ())) for d in range(-1, top_dim + 1)]
    if by_size[0] not in ([], [0]):
        raise ValueError("dimension -1 may only hold the empty face")
    for s in range(1, len(by_size)):
        if by_size[s] and not by_size[s - 1]:
            raise ValueError(f"family not downward closed: no faces of size {s - 1}")
    try:
        hs = _homology_by_size(by_size)
    except KeyError as missing:
        raise ValueError(f"family not downward closed: missing face {missing}")
    return {s - 1: h for s, h in enumerate(hs) if h}


def oracle_betti_over_lattice(ideal):
    """Hochster's formula term by term: the homology of the full
    restriction to every set in the lcm lattice, from its face list."""
    lattice = {0}
    for g in ideal.gens:
        lattice |= {u | g for u in lattice}
    expected = {}
    for w in lattice:
        j = w.bit_count()
        for d, h in reduced_homology_dims(restricted_faces(ideal, w)).items():
            key = (j - d - 1, j)
            expected[key] = expected.get(key, 0) + h
    return expected


def k_polynomial_from_faces(ideal):
    """Numerator of the Hilbert series from the face counts of the full
    complex: sum over faces of t^|f| (1-t)^(n-|f|)."""
    n = ideal.n
    coeffs = [0] * (n + 1)
    for m in range(1 << n):
        if any(g & m == g for g in ideal.gens):
            continue
        s = m.bit_count()
        # t^s (1-t)^(n-s)
        sign = 1
        for t in range(n - s + 1):
            binom = 1
            for x in range(t):
                binom = binom * (n - s - x) // (x + 1)
            coeffs[s + t] += sign * binom
            sign = -sign
    return {j: c for j, c in enumerate(coeffs) if c}


def alternating_sums_by_shift(table: BettiTable) -> dict[int, int]:
    """j -> sum_i (-1)^i beta_{i,j}, the K-polynomial coefficients."""
    out: dict[int, int] = {}
    for (i, j), b in table.entries.items():
        out[j] = out.get(j, 0) + (b if i % 2 == 0 else -b)
    return {j: v for j, v in out.items() if v}


def toy_minimal_masks():
    return [word_from_string(w) for w in kc.TOY63_MINIMAL]


def test_ideal_from_supports_toy():
    ideal = ideal_from_supports(6, toy_minimal_masks())
    assert len(ideal.gens) == 6


def test_ideal_from_supports_filters_inclusions():
    ideal = ideal_from_supports(3, [mask(1), mask(1, 2)])
    assert ideal.gens == (mask(1),)


def test_ideal_from_supports_code149(code149):
    ideal = ideal_from_supports(14, minimal_support_codewords(code149))
    assert len(ideal.gens) == kc.CODE149_CIRCUIT_GENS


def test_ideal_from_supports_empty_ambient():
    with pytest.raises(EmptyAmbient):
        ideal_from_supports(0, [])


def test_restricted_faces_empty_vertex_set():
    ideal = ideal_from_supports(4, [mask(1, 2)])
    assert restricted_faces(ideal, 0) == {-1: [0]}


def test_restricted_faces_toy_circuit_pair(toy63):
    ideal = ideal_from_supports(6, minimal_support_codewords(toy63))
    faces = restricted_faces(ideal, mask(1, 6))
    assert faces == {-1: [0], 0: [mask(1), mask(6)]}  # {1,6} itself is a circuit


def test_restricted_faces_against_bruteforce():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(3, 7)
        gens = [rng.getrandbits(n) | 1 for _ in range(rng.randint(1, 4))]
        ideal = ideal_from_supports(n, gens)
        for _ in range(5):
            w = rng.getrandbits(n)
            assert restricted_faces(ideal, w) == brute_faces(ideal.gens, w)


def test_homology_full_simplex_is_acyclic():
    faces = brute_faces([], 0b111)
    assert reduced_homology_dims(faces) == {}


def test_homology_hollow_triangle():
    faces = brute_faces([0b111], 0b111)
    assert reduced_homology_dims(faces) == {1: 1}


def test_homology_two_points():
    faces = {-1: [0], 0: [0b01, 0b10]}
    assert reduced_homology_dims(faces) == {0: 1}


def test_homology_empty_and_void():
    assert reduced_homology_dims({-1: [0]}) == {-1: 1}
    assert reduced_homology_dims({}) == {}


def test_homology_octahedron_sphere():
    gens = [mask(1, 4), mask(2, 5), mask(3, 6)]
    faces = brute_faces(gens, 0b111111)
    assert reduced_homology_dims(faces) == {2: 1}


def test_homology_rejects_gapped_families():
    with pytest.raises(ValueError):
        reduced_homology_dims({-1: [0], 1: [0b011]})


def test_betti_toy_circuit_ideal(toy63):
    ideal = ideal_from_supports(6, minimal_support_codewords(toy63))
    table = betti_table_hochster(ideal)
    assert table.entries == kc.TOY63_CIRCUIT_BETTI
    assert min_shifts(table) == kc.TOY63_GHW


def test_betti_toy_testset_ideal(toy63):
    ideal = ideal_from_supports(6, [word_from_string(w) for w in kc.TOY63_TESTSET])
    table = betti_table_hochster(ideal)
    assert table.entries == kc.TOY63_TESTSET_BETTI


def test_betti_principal_ideal():
    table = betti_table_hochster(ideal_from_supports(3, [0b111]))
    assert table.entries == {(0, 0): 1, (1, 3): 1}


def test_betti_complete_intersection_of_quadrics():
    ideal = ideal_from_supports(6, [mask(1, 4), mask(2, 5), mask(3, 6)])
    table = betti_table_hochster(ideal)
    assert table.entries == {(0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1}


def test_betti_row_one_counts_generators_by_degree():
    rng = random.Random(67)
    for _ in range(8):
        n = rng.randint(3, 8)
        gens = {rng.getrandbits(n) | (1 << rng.randrange(n))
                for _ in range(rng.randint(1, 5))}
        ideal = ideal_from_supports(n, gens)
        table = betti_table_hochster(ideal)
        by_size = {}
        for g in ideal.gens:
            by_size[g.bit_count()] = by_size.get(g.bit_count(), 0) + 1
        assert {j: b for (i, j), b in table.entries.items() if i == 1} == by_size


def test_betti_matches_k_polynomial_oracle():
    rng = random.Random(71)
    for _ in range(8):
        n = rng.randint(3, 7)
        gens = {rng.getrandbits(n) | (1 << rng.randrange(n))
                for _ in range(rng.randint(1, 5))}
        ideal = ideal_from_supports(n, gens)
        table = betti_table_hochster(ideal)
        assert alternating_sums_by_shift(table) == k_polynomial_from_faces(ideal)


def test_betti_audit_agrees(toy63):
    ideal = ideal_from_supports(6, minimal_support_codewords(toy63))
    base = betti_table_hochster(ideal)
    assert betti_table_hochster(ideal, audit=True).entries == base.entries


def test_betti_constant_ideal_is_empty():
    """The ideal (1): the lcm lattice is {empty set}, whose restriction
    is the void complex, so even beta_{0,0} is absent."""
    ideal = MonomialIdeal(3, (0,))
    assert betti_table_hochster(ideal).entries == {}
    assert betti_table_hochster(ideal, audit=True).entries == {}
    assert restricted_faces(ideal, 0b111) == {}


def test_betti_euler_consistency_per_restriction():
    rng = random.Random(79)
    n = 6
    gens = {rng.getrandbits(n) | (1 << rng.randrange(n)) for _ in range(4)}
    ideal = ideal_from_supports(n, gens)
    sign = lambda d: -1 if d % 2 else 1
    for w in range(1 << n):
        faces = restricted_faces(ideal, w)
        dims = reduced_homology_dims(faces)
        assert all(h > 0 for h in dims.values())
        face_side = sum(sign(d) * len(fs) for d, fs in faces.items() if d >= 0) - 1
        homology_side = sum(sign(d) * h for d, h in dims.items())
        assert face_side == homology_side


@st.composite
def small_ideals(draw):
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return ideal_from_supports(n, gens)


@st.composite
def ideals_up_to_12_variables(draw):
    """Random generators on up to 12 variables, some of them the empty
    set (the unit ideal) or single variables."""
    n = draw(st.integers(1, 12))
    gens = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    if draw(st.booleans()):
        gens.append(1 << draw(st.integers(0, n - 1)))
    return ideal_from_supports(n, gens)


@settings(max_examples=150, deadline=None)
@given(ideals_up_to_12_variables(), st.sampled_from((2, 3, resolution._BLOCK_BITS)))
def test_nonface_table_matches_mask_by_mask_oracle(ideal, bits):
    """Blocks of 2^2 and 2^3 masks send every longer ideal through the
    step that merges whole blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_BLOCK_BITS", bits)
        table = _nonface_table(ideal.n, ideal.gens)
    assert unpack(table, ideal.n) == nonface_by_mask(ideal.n, ideal.gens, (1 << ideal.n) - 1)


@settings(max_examples=100, deadline=None)
@given(small_ideals())
def test_betti_sweep_matches_homology_of_every_restriction(ideal):
    """The lcm-lattice sweep and the nonface table against the plain sum
    of Hochster's formula over every vertex set W."""
    expected = {}
    for w in range(1 << ideal.n):
        j = w.bit_count()
        for d, h in reduced_homology_dims(restricted_faces(ideal, w)).items():
            key = (j - d - 1, j)
            expected[key] = expected.get(key, 0) + h
    assert betti_table_hochster(ideal).entries == expected
    assert betti_table_hochster(ideal, audit=True).entries == expected


@st.composite
def small_testset_ideals(draw):
    """Test-set ideal of a random code with n <= 9 under a random order
    of either kind; some codes carry a weight-1 word."""
    n = draw(st.integers(2, 9))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n - 1))
    if draw(st.booleans()):
        rows.append(1 << draw(st.integers(0, n - 1)))
    try:
        code = Code.from_generator(BinaryMatrix(tuple(rows), n))
    except ZeroCode:
        assume(False)
    order = TermOrder(draw(st.sampled_from(("deglex", "degrevlex"))),
                      tuple(draw(st.permutations(range(n)))))
    basis, _ = reduced_groebner_basis(code, order)
    return ideal_from_supports(n, extract_testset(basis, code))


@settings(max_examples=100, deadline=None)
@given(small_testset_ideals())
def test_betti_sweep_matches_oracle_on_testset_ideals(ideal):
    """The one-vertex relative step against the face-by-face homology of
    every full restriction in the lcm lattice."""
    expected = oracle_betti_over_lattice(ideal)
    assert betti_table_hochster(ideal).entries == expected
    assert betti_table_hochster(ideal, audit=True).entries == expected


@pytest.mark.parametrize("gens, table", [
    # {v} a nonface for every W holding x1: the empty set is a cell
    ([mask(1), mask(2, 3)], {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}),
    # x2 + x3 (x1, x4): {2} a nonface and the lowest vertex of {2, 3, 4}
    ([mask(2), mask(1, 3), mask(3, 4)],
     {(0, 0): 1, (1, 1): 1, (1, 2): 2, (2, 3): 3, (3, 4): 1}),
    # x1 x2 (x3, x4): the cells of {1,2,3,4} sit at sizes 2 and 3 only,
    # with a boundary rank between them
    ([mask(1, 2, 3), mask(1, 2, 4)], {(0, 0): 1, (1, 3): 2, (2, 4): 1}),
    # {2} a maximal cell below an empty level, then {3,4,5} above it
    ([mask(1, 2), mask(2, 3), mask(2, 4), mask(2, 5), mask(1, 3, 4, 5)],
     {(0, 0): 1, (1, 2): 4, (1, 4): 1, (2, 3): 6, (2, 5): 1, (3, 4): 4, (4, 5): 1}),
])
def test_betti_cells_skip_levels_or_hold_the_empty_set(gens, table):
    ideal = ideal_from_supports(5, gens)
    expected = oracle_betti_over_lattice(ideal)
    assert expected == table
    assert betti_table_hochster(ideal).entries == expected
    assert betti_table_hochster(ideal, audit=True).entries == expected


def test_audit_rejects_cells_unlike_the_full_restriction():
    """Cells whose ranks and homology agree with each other but whose
    alternating count is not that of the faces inside w."""
    table = [0]  # w's own table, no generators: w = {1, 2} is a full simplex
    with pytest.raises(TheoremViolation, match="relative Euler"):
        _audit_relative(0b11, table, [[0], []], [0, 0, 0], [1, 0])


# Test-set ideal of random_code(random.Random(1), 16, 8) under the default
# degrevlex order: 46 generators, an lcm lattice of 3,151 sets.
SEEDED_16_8_TESTSET_BETTI = [
    (0, 0, 1), (1, 3, 4), (1, 4, 8), (1, 5, 10), (1, 6, 17), (1, 7, 6),
    (1, 8, 1), (2, 5, 6), (2, 6, 31), (2, 7, 86), (2, 8, 155), (2, 9, 181),
    (2, 10, 146), (3, 7, 16), (3, 8, 114), (3, 9, 393), (3, 10, 771),
    (3, 11, 1324), (4, 9, 67), (4, 10, 363), (4, 11, 1315), (4, 12, 3609),
    (5, 10, 16), (5, 11, 146), (5, 12, 1098), (5, 13, 4699), (6, 12, 25),
    (6, 13, 448), (6, 14, 3262), (7, 14, 74), (7, 15, 1169), (8, 16, 171),
]


def test_betti_seeded_16_8_testset_ideal():
    code = random_code(random.Random(1), 16, 8)
    basis, _ = reduced_groebner_basis(code, TermOrder.default(16))
    ideal = ideal_from_supports(16, extract_testset(basis, code))
    assert len(ideal.gens) == 46
    assert betti_table_hochster(ideal).sorted_triples() == SEEDED_16_8_TESTSET_BETTI


def test_betti_refused_past_the_mask_budget(monkeypatch):
    """The budget is checked while the lcm lattice grows."""
    ideal = ideal_from_supports(6, [mask(1, 2), mask(3, 4), mask(5, 6)])
    assert betti_table_hochster(ideal).entries  # 2^5 + 3 * 2^3 + 3 * 2 masks
    monkeypatch.setattr(resolution, "MASK_BUDGET", 2 ** 5)
    with pytest.raises(CapExceeded, match="submask visits"):
        betti_table_hochster(ideal)


# --- the targeted sweep: minimal shifts without the full table ------------

@st.composite
def generator_families(draw, most: int = 10):
    """Any square-free generators on up to most variables, inclusions and
    repeats allowed; some families get a single variable."""
    n = draw(st.integers(1, most))
    gens = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    if draw(st.booleans()):
        gens.append(1 << draw(st.integers(0, n - 1)))
    return ideal_from_supports(n, gens)


@settings(max_examples=200, deadline=None)
@given(generator_families())
@example(ideal_from_supports(4, []))  # the zero ideal: no shifts
@example(ideal_from_supports(4, [0]))  # the unit ideal (1): no shifts
@example(ideal_from_supports(4, [0b0110]))  # one generator
@example(ideal_from_supports(5, [mask(1), mask(2), mask(3)]))  # weight 1 only
@example(ideal_from_supports(5, [mask(2), mask(1, 3), mask(3, 4)]))
def test_targeted_sweep_matches_full_table(ideal):
    """One new homological degree per lattice size gives the minimal
    shifts of the full table, and as many of them as its pd."""
    table = betti_table_hochster(ideal)
    shifts = hochster_min_shifts(ideal)
    assert shifts == min_shifts(table)
    assert len(shifts) == table.pd
    assert hochster_min_shifts(ideal, audit=True) == shifts


@settings(max_examples=200, deadline=None)
@given(generator_families())
@example(ideal_from_supports(6, [mask(1, 2), mask(3, 4), mask(5, 6)]))
@example(ideal_from_supports(7, [mask(4, 5), mask(3, 7), mask(3, 6), mask(2, 6),
                                 mask(2, 5)]))  # size 4 has three sets of rank 3 > t = 2
@example(ideal_from_supports(7, [mask(4, 6, 7), mask(2, 3), mask(1, 6), mask(1, 3),
                                 mask(1, 2, 4)]))  # size 5 has sets of rank 3 and 4 > t = 2
@example(ideal_from_supports(5, [mask(4), mask(2, 3, 5), mask(1, 2, 5),
                                 mask(1, 2, 3)]))  # size 4 gives a shift, then has rank 3 > t = 2
def test_targeted_sweep_computes_only_sets_that_can_add_a_degree(ideal):
    """The kernel calls of the targeted sweep: sizes never fall, each call
    asks for the one level j - t - 1, no set whose generators have rank t
    or less is computed with t shifts found, and a size that gave a shift
    is left.  Every lattice set that the sweep did not compute, in a size
    that gave no shift, has no homology at its level j - t - 1, by the
    audited kernel."""
    calls = []
    kernel = _relative_homology

    def recorded(w, gens, audit, lo=0, hi=None):
        h = kernel(w, gens, audit, lo, hi)
        calls.append((w, lo, hi, h))
        return h

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_relative_homology", recorded)
        shifts = hochster_min_shifts(ideal)
    assert shifts == min_shifts(betti_table_hochster(ideal))
    found: list[int] = []
    last = 0  # the size of the previous call
    for w, lo, hi, h in calls:
        j, t = w.bit_count(), len(found)
        assert j >= last
        assert not found or found[-1] != j
        assert rank_of_words(g for g in ideal.gens if g & w == g) > t
        assert lo == hi == j - t - 1
        if h[0]:
            found.append(j)
        last = j
    assert tuple(found) == shifts
    computed = {w for w, *_ in calls}
    for w in resolution._lcm_lattice(ideal.gens):
        j = w.bit_count()
        t = sum(s < j for s in shifts)  # the shifts found before size j
        if w not in computed and j not in shifts:
            assert _relative_homology(w, ideal.gens, True)[j - t - 1] == 0


@settings(max_examples=100, deadline=None)
@given(generator_families(9))
@example(ideal_from_supports(3, [mask(1, 2), mask(1, 3), mask(2, 3)]))  # 3 generators of rank 2
def test_homology_needs_generators_of_rank_at_least_its_degree(ideal):
    """beta_{i,W} = 0 when the generators inside W have GF(2) rank below
    i (resolution's module docstring): every nonzero level s of W's
    homology has i = |W| - s at most that rank.  The hollow triangle's
    three edges hold beta_{2,3} = 2, which Taylor's count alone would
    allow up to degree 3."""
    for w in resolution._lcm_lattice(ideal.gens):
        rank = rank_of_words(g for g in ideal.gens if g & w == g)
        for s, h in enumerate(_relative_homology(w, ideal.gens, True)):
            assert not h or w.bit_count() - s <= rank


@settings(max_examples=60, deadline=None)
@given(generator_families(), st.data())
def test_relative_homology_window_is_a_slice_of_the_whole(ideal, data):
    """A window of cell levels gives the same homology as those levels of
    the whole complex."""
    w = data.draw(st.integers(1, (1 << ideal.n) - 1))
    whole = _relative_homology(w, ideal.gens, True)
    lo = data.draw(st.integers(0, len(whole) - 1))
    hi = data.draw(st.integers(lo, len(whole) - 1))
    assert _relative_homology(w, ideal.gens, False, lo, hi) == whole[lo:hi + 1]


BLOCK_SIZES = (2, 3, resolution._BLOCK_BITS)


@settings(max_examples=150, deadline=None)
@given(ideals_up_to_12_variables(), st.data(), st.sampled_from(BLOCK_SIZES))
def test_own_table_is_the_oracle_restricted_to_w(ideal, data, bits):
    """W's own nonface table, in W's coordinates, against the mask-by-mask
    table of the ambient read at the masks inside W."""
    w = data.draw(st.integers(1, (1 << ideal.n) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_BLOCK_BITS", bits)
        table = _own_table(w, ideal.gens)
    oracle = nonface_by_mask(ideal.n, ideal.gens, w)
    k = w.bit_count()
    assert unpack(table, k) == bytearray(oracle[expand(x, w)] for x in range(1 << k))


@settings(max_examples=120, deadline=None)
@given(generator_families(), st.data(), st.sampled_from(BLOCK_SIZES))
@example(ideal_from_supports(5, [mask(1, 2), mask(2, 3), mask(2, 4), mask(2, 5),
                                 mask(1, 3, 4, 5)]), None, 2)
def test_excising_any_vertex_gives_the_homology_of_the_restriction(ideal, data, bits):
    """Excision holds for every vertex v of W, so each v gives the
    face-by-face homology of the full restriction; the kernel picks the v
    with the fewest cells, the lowest on a tie.  Blocks of 2^2 and 2^3
    masks send the vertices above them through the step that pairs whole
    blocks."""
    w = (1 << ideal.n) - 1 if data is None else data.draw(st.integers(1, (1 << ideal.n) - 1))
    k = w.bit_count()
    faces = restricted_faces(ideal, w)
    dims = reduced_homology_dims(faces)
    assert all(-1 <= d < k - 1 for d in dims)
    expected = [dims.get(s - 1, 0) for s in range(k)]
    face_set = {f for level in faces.values() for f in level}
    vertices = [1 << j for j in range(ideal.n) if w >> j & 1]
    counts = [sum(not f & p and f | p not in face_set for f in face_set) for p in vertices]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_BLOCK_BITS", bits)
        table = _own_table(w, ideal.gens)
        assert _fewest_cells(table, min(bits, k), k) == counts.index(min(counts))
        assert _relative_homology(w, ideal.gens, True) == expected
        for v in range(k):
            mp.setattr(resolution, "_fewest_cells", lambda table, bits, k, v=v: v)
            assert _relative_homology(w, ideal.gens, True) == expected
            lo = data.draw(st.integers(0, k - 1)) if data else 0
            assert _relative_homology(w, ideal.gens, False, lo, lo) == expected[lo:lo + 1]


@pytest.mark.parametrize("kind", ["degrevlex", "deglex"])
@pytest.mark.parametrize("fixture, shifts", [
    ("toy63", kc.TOY63_GHW),
    ("hamming74", kc.HAMMING74_GHW),
    ("code107", kc.CODE107_TESTSET_MINSHIFTS),
    ("code149", kc.CODE149_GHW),
])
def test_targeted_sweep_fixture_testset_shifts(fixture, shifts, kind, request):
    code = request.getfixturevalue(fixture)
    basis, _ = reduced_groebner_basis(code, TermOrder.default(code.n, kind))
    ideal = ideal_from_supports(code.n, extract_testset(basis, code))
    assert hochster_min_shifts(ideal) == shifts


@pytest.mark.parametrize("kind, calls", [("degrevlex", 10), ("deglex", 9)])
def test_targeted_sweep_skips_sets_of_rank_too_small(code149, kind, calls, monkeypatch):
    """With t shifts found, a set whose generators have rank t or less
    cannot add degree t + 1, so the [14,9] test-set sweeps, over lattices
    of 2,227 (degrevlex) and 2,399 (deglex) sets, make this many kernel
    calls in all."""
    basis, _ = reduced_groebner_basis(code149, TermOrder.default(14, kind))
    ideal = ideal_from_supports(14, extract_testset(basis, code149))
    kernel = _relative_homology
    seen = []

    def counted(*args):
        seen.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(resolution, "_relative_homology", counted)
    assert hochster_min_shifts(ideal) == kc.CODE149_GHW
    assert len(seen) == calls


# --- the Morse certificate: critical cells of the element matchings ---------

def critical_by_sets(faces: set[int], order) -> set[int]:
    """The oracle for _critical: the cells left by pairing, for each vertex
    u in order, every cell F without u with the cell F | u."""
    cells = set(faces)
    for u in order:
        bit = 1 << u
        low = {f for f in cells if not f & bit and f | bit in cells}
        cells -= low | {f | bit for f in low}
    return cells


def certified_by_counts(counts: list[int], lo: int, hi: int) -> list[int | None]:
    """The oracle for _certified, from the critical cells per size:
    c_s = 0 gives 0, c_{s-1} = c_{s+1} = 0 gives c_s, anything else None."""
    c = [0, *counts, 0]  # c[s + 1] = c_s, nothing at s = -1 or past the top
    return [None if c[s + 1] and (c[s] or c[s + 2]) else c[s + 1] for s in range(lo, hi + 1)]


def reversed_matchings(monkeypatch):
    """Match the vertices in descending order, not ascending."""
    real = resolution._critical
    monkeypatch.setattr(resolution, "_critical",
                        lambda table, bits, order: real(table, bits, reversed(order)))


@settings(max_examples=150, deadline=None)
@given(generator_families(), st.data(), st.sampled_from(BLOCK_SIZES))
def test_critical_cells_are_those_of_the_element_matchings(ideal, data, bits):
    """The packed matchings, in any vertex order, leave exactly the cells
    the set-by-set pairing leaves.  As discrete Morse theory says, each
    size holds at least as many of them as the homology there, and their
    alternating count is the reduced Euler characteristic.  Blocks of 2^2
    and 2^3 masks send the vertices above them through the step that
    pairs whole blocks."""
    w = data.draw(st.integers(1, (1 << ideal.n) - 1))
    k = w.bit_count()
    order = data.draw(st.permutations(range(k)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_BLOCK_BITS", bits)
        table = _own_table(w, ideal.gens)
        cells = unpack(_critical(table, min(bits, k), order), k)
    faces = {x for x, nonface in enumerate(unpack(table, k)) if not nonface}
    assert {x for x, bit in enumerate(cells) if bit} == critical_by_sets(faces, order)
    dims = reduced_homology_dims(restricted_faces(ideal, w))
    counts = [0] * (k + 1)
    for x, bit in enumerate(cells):
        counts[x.bit_count()] += bit
    assert all(c >= dims.get(s - 1, 0) for s, c in enumerate(counts))
    assert sum((-1) ** s * (c - dims.get(s - 1, 0)) for s, c in enumerate(counts)) == 0


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(BLOCK_SIZES))
def test_certified_counts_every_level_around_the_window(data, bits):
    """Any critical cells at all, not only those of a matching (where two
    neighbouring nonempty sizes are rare): _certified counts each size of
    the window and the one on each side of it, and decides from them."""
    k = data.draw(st.integers(1, 10))
    bits = min(bits, k)
    blocks = data.draw(st.lists(st.integers(0, (1 << (1 << bits)) - 1),
                                min_size=1 << (k - bits), max_size=1 << (k - bits)))
    lo = data.draw(st.integers(0, k - 1))
    hi = data.draw(st.integers(lo, k - 1))
    counts = [0] * (k + 1)
    for x, bit in enumerate(unpack(blocks, k)):
        counts[x.bit_count()] += bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_critical", lambda table, bits, order: blocks)
        assert _certified([0] * len(blocks), bits, k, lo, hi) == certified_by_counts(counts, lo, hi)


@settings(max_examples=200, deadline=None)
@given(generator_families(), st.data(), st.sampled_from(BLOCK_SIZES), st.booleans())
@example(ideal_from_supports(3, [0b111]), None, 2, False)  # the hollow triangle: c = h at size 2
def test_certified_levels_are_the_homology_of_the_restriction(ideal, data, bits, descending):
    """_certified decides a level exactly where the critical cells of the
    order it matches in settle it, over the whole complex and over any
    window of levels; every level it decides is the face-by-face
    homology, and so is the kernel's answer.  The vertices are matched
    in the kernel's order or in descending order."""
    w = (1 << ideal.n) - 1 if data is None else data.draw(st.integers(1, (1 << ideal.n) - 1))
    k = w.bit_count()
    dims = reduced_homology_dims(restricted_faces(ideal, w))
    expected = [dims.get(s - 1, 0) for s in range(k)]
    lo = data.draw(st.integers(0, k - 1)) if data else 0
    hi = data.draw(st.integers(lo, k - 1)) if data else k - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_BLOCK_BITS", bits)
        real = resolution._critical
        orders = []  # the order of each matching sequence run

        def spy(table, bits, order):
            orders.append(list(order))
            return real(table, bits, orders[-1])

        mp.setattr(resolution, "_critical", spy)
        if descending:
            reversed_matchings(mp)
        table = _own_table(w, ideal.gens)
        faces = {x for x, nonface in enumerate(unpack(table, k)) if not nonface}
        for a, b in ((0, k - 1), (lo, hi)):
            decided = _certified(table, min(bits, k), k, a, b)
            counts = [0] * (k + 1)
            for x in critical_by_sets(faces, orders[-1]):
                counts[x.bit_count()] += 1
            assert decided == certified_by_counts(counts, a, b)
            assert all(h in (None, e) for h, e in zip(decided, expected[a:b + 1]))
        assert _relative_homology(w, ideal.gens, False, lo, hi) == expected[lo:hi + 1]
        assert _relative_homology(w, ideal.gens, True, lo, hi) == expected[lo:hi + 1]


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("kind, calls, fallbacks, reversed_fallbacks",
                         [("degrevlex", 10, 1, 3), ("deglex", 9, 1, 5)])
def test_certificate_leaves_few_sets_to_the_boundary_ranks(code149, kind, calls, fallbacks,
                                                           reversed_fallbacks, descending,
                                                           monkeypatch):
    """On the [14,9] test sets the critical cells decide all but at most
    one of the targeted sweep's kernel calls; matched in descending order
    they leave a few more to the ranks, and the shifts stay the same."""
    basis, _ = reduced_groebner_basis(code149, TermOrder.default(14, kind))
    ideal = ideal_from_supports(14, extract_testset(basis, code149))
    seen, ranked = [], []
    kernel, ranks = _relative_homology, resolution._ranked

    def counted(*args):
        seen.append(args[0])
        return kernel(*args)

    def counted_ranks(*args):
        ranked.append(args[0])
        return ranks(*args)

    if descending:
        reversed_matchings(monkeypatch)
    monkeypatch.setattr(resolution, "_relative_homology", counted)
    monkeypatch.setattr(resolution, "_ranked", counted_ranks)
    assert hochster_min_shifts(ideal) == kc.CODE149_GHW
    assert len(seen) == calls
    assert len(ranked) <= (reversed_fallbacks if descending else fallbacks)


def test_audit_rejects_a_wrong_certificate(monkeypatch):
    """Critical cells that claim no homology at all: the plain kernel
    believes them, and audit, which also takes the ranks, refuses them."""
    monkeypatch.setattr(resolution, "_critical", lambda table, bits, order: [0] * len(table))
    ideal = ideal_from_supports(3, [0b111])  # the hollow triangle, h = 1 at size 2
    assert _relative_homology(0b111, ideal.gens, False) == [0, 0, 0]
    with pytest.raises(TheoremViolation, match="Morse certificate"):
        _relative_homology(0b111, ideal.gens, True)
    with pytest.raises(TheoremViolation, match="Morse certificate"):
        betti_table_hochster(ideal, audit=True)
    with pytest.raises(TheoremViolation, match="Morse certificate"):
        hochster_min_shifts(ideal, audit=True)


def test_targeted_sweep_refused_past_the_mask_budget(monkeypatch):
    ideal = ideal_from_supports(6, [mask(1, 2), mask(3, 4), mask(5, 6)])
    assert hochster_min_shifts(ideal) == (2, 4, 6)
    monkeypatch.setattr(resolution, "MASK_BUDGET", 2 ** 5)
    with pytest.raises(CapExceeded, match="submask visits"):
        hochster_min_shifts(ideal)


def test_targeted_sweep_cap():
    """The targeted sweep's ideal on 25 variables is refused when
    ideal_from_supports builds it, before any sweep starts."""
    with pytest.raises(CapExceeded):
        hochster_min_shifts(ideal_from_supports(25, [mask(1, 2)]))


def test_targeted_sweep_audit_rejects_a_wrong_window(monkeypatch):
    """A window kernel that misses a homology class gives too few shifts;
    audit compares them with the full audited table."""
    whole = _relative_homology

    def window_blind(w, gens, audit, lo=0, hi=None):
        return [0] if hi is not None else whole(w, gens, audit, lo, hi)

    monkeypatch.setattr(resolution, "_relative_homology", window_blind)
    ideal = ideal_from_supports(6, [mask(1, 2), mask(3, 4)])
    assert hochster_min_shifts(ideal) == ()
    with pytest.raises(TheoremViolation, match="targeted sweep"):
        hochster_min_shifts(ideal, audit=True)


def test_betti_audit_rejects_a_gap_in_the_minimal_shifts(monkeypatch):
    """Homology moved to a lower cell level of x1 x2 x3 puts beta_{2,3}
    in a table with no beta_1: the minimal shifts leave degree 1 empty."""
    monkeypatch.setattr(resolution, "_relative_homology",
                        lambda w, gens, audit: [0, 1, 0])
    ideal = ideal_from_supports(3, [0b111])
    assert betti_table_hochster(ideal).entries == {(0, 0): 1, (2, 3): 1}
    with pytest.raises(TheoremViolation, match="gap"):
        betti_table_hochster(ideal, audit=True)


def test_restricted_faces_rejects_vertices_outside_ambient():
    with pytest.raises(ValueError):
        restricted_faces(ideal_from_supports(3, [mask(1, 2)]), mask(4))


def test_min_shift_sequence_toy(toy63):
    ideal = ideal_from_supports(6, minimal_support_codewords(toy63))
    table = betti_table_hochster(ideal)
    assert min_shift_sequence(table) == [(1, 2), (2, 4), (3, 6)]


def test_min_shift_sequence_trivial_table():
    assert min_shift_sequence(BettiTable({(0, 0): 1})) == []


def test_taylor_pair_minimum_toy_testset():
    ideal = ideal_from_supports(6, [word_from_string(w) for w in kc.TOY63_TESTSET])
    assert min_pair_union(ideal.gens) == 4


def test_taylor_pair_minimum_trivial():
    assert min_pair_union(ideal_from_supports(2, [0b01, 0b10]).gens) == 2
    with pytest.raises(TooFewGenerators):
        min_pair_union(ideal_from_supports(2, [0b01]).gens)


def test_taylor_pair_minimum_equals_second_min_shift_for_testsets():
    rng = random.Random(83)
    for _ in range(5):
        code = random_code(rng, 8, 4)
        order = TermOrder(rng.choice(("deglex", "degrevlex")),
                          tuple(rng.sample(range(8), 8)))
        basis, _ = reduced_groebner_basis(code, order)
        ideal = ideal_from_supports(8, extract_testset(basis, code))
        if len(ideal.gens) < 2:
            continue
        table = betti_table_hochster(ideal)
        shifts = dict(min_shift_sequence(table))
        assert min_pair_union(ideal.gens) == shifts[2]


def test_taylor_pair_minimum_bounds_general_ideals():
    rng = random.Random(89)
    for _ in range(8):
        n = rng.randint(3, 7)
        gens = {rng.getrandbits(n) | (1 << rng.randrange(n))
                for _ in range(rng.randint(2, 5))}
        ideal = ideal_from_supports(n, gens)
        if len(ideal.gens) < 2:
            continue
        table = betti_table_hochster(ideal)
        shifts = dict(min_shift_sequence(table))
        if 2 in shifts:
            assert min_pair_union(ideal.gens) <= shifts[2]


def test_betti_zero_ideal():
    table = betti_table_hochster(ideal_from_supports(4, []))
    assert table.entries == {(0, 0): 1}
    assert min_shift_sequence(table) == []


def test_betti_cap():
    """The full sweep's ideal on 25 variables is refused when
    ideal_from_supports builds it, before any sweep starts."""
    with pytest.raises(CapExceeded):
        betti_table_hochster(ideal_from_supports(25, [mask(1, 2)]))


def test_projective_dimensions_against_code_dimension():
    rng = random.Random(97)
    for _ in range(5):
        code = random_code(rng, 8, 4)
        circuit = ideal_from_supports(8, minimal_support_codewords(code))
        assert betti_table_hochster(circuit).pd == code.k
        order = TermOrder.default(8)
        basis, _ = reduced_groebner_basis(code, order)
        ts_ideal = ideal_from_supports(8, extract_testset(basis, code))
        assert betti_table_hochster(ts_ideal).pd <= code.k
