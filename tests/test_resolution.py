import random
from concurrent.futures import Future
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghw import (
    EmptyAmbient,
    TermOrder,
    TooFewGenerators,
    betti_table_hochster,
    ideal_from_supports,
    min_shift_sequence,
    min_shifts,
    minimal_support_codewords,
    reduced_groebner_basis,
    reduced_homology_dims,
    restricted_faces,
    taylor_pair_minimum,
    word_from_string,
)
from ghw.groebner import test_set as extract_testset
from ghw.resolution import BettiTable

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
        assert table.alternating_sums_by_shift() == k_polynomial_from_faces(ideal)


def test_betti_audit_and_processes_agree(toy63):
    ideal = ideal_from_supports(6, minimal_support_codewords(toy63))
    base = betti_table_hochster(ideal)
    assert betti_table_hochster(ideal, audit=True).entries == base.entries
    assert betti_table_hochster(ideal, processes=2).entries == base.entries


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    submitted chunk in this process, so no worker is ever started."""

    created = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0
        RecordingPool.created.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def test_betti_processes_clamped_to_cpus_and_chunks(toy63, monkeypatch):
    import ghw.resolution as res

    monkeypatch.setattr(res, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    ideal = ideal_from_supports(6, minimal_support_codewords(toy63))
    base = betti_table_hochster(ideal)

    monkeypatch.setattr(res.os, "cpu_count", lambda: 2)
    assert betti_table_hochster(ideal, processes=5000).entries == base.entries
    pool, = RecordingPool.created
    assert (pool.max_workers, pool.submitted) == (2, 2)

    # more CPUs than vertex sets: one worker per nonempty subset of 2 vertices
    RecordingPool.created.clear()
    monkeypatch.setattr(res.os, "cpu_count", lambda: 64)
    small = ideal_from_supports(2, [mask(1, 2)])
    assert betti_table_hochster(small, processes=5000).entries == \
        betti_table_hochster(small).entries
    pool, = RecordingPool.created
    assert (pool.max_workers, pool.submitted) == (3, 3)

    # one CPU, or an unknown count: the serial path, no pool at all
    RecordingPool.created.clear()
    for cpus in (1, None):
        monkeypatch.setattr(res.os, "cpu_count", lambda: cpus)
        assert betti_table_hochster(ideal, processes=5000).entries == base.entries
    assert RecordingPool.created == []


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


@settings(max_examples=100, deadline=None)
@given(small_ideals())
def test_betti_sweep_matches_homology_of_every_restriction(ideal):
    """Cone pruning and the nonface/covered tables against the plain sum
    of Hochster's formula over every vertex set W."""
    expected = {}
    for w in range(1 << ideal.n):
        j = w.bit_count()
        for d, h in reduced_homology_dims(restricted_faces(ideal, w)).items():
            key = (j - d - 1, j)
            expected[key] = expected.get(key, 0) + h
    assert betti_table_hochster(ideal).entries == expected
    assert betti_table_hochster(ideal, audit=True).entries == expected


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
    assert taylor_pair_minimum(ideal) == 4


def test_taylor_pair_minimum_trivial():
    assert taylor_pair_minimum(ideal_from_supports(2, [0b01, 0b10])) == 2
    with pytest.raises(TooFewGenerators):
        taylor_pair_minimum(ideal_from_supports(2, [0b01]))


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
        assert taylor_pair_minimum(ideal) == shifts[2]


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
            assert taylor_pair_minimum(ideal) <= shifts[2]


def test_betti_zero_ideal():
    table = betti_table_hochster(ideal_from_supports(4, []))
    assert table.entries == {(0, 0): 1}
    assert min_shift_sequence(table) == []


def test_betti_cap(monkeypatch):
    from ghw import CapExceeded
    ideal = ideal_from_supports(6, [mask(1, 2)])
    monkeypatch.setenv("GHW_SIZE_CAP", "4")
    with pytest.raises(CapExceeded):
        betti_table_hochster(ideal)


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
