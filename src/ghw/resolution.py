"""Square-free monomial ideals, restricted complexes, reduced simplicial
homology, and graded Betti tables via vertex-set sweeps.

The Betti table of R/I is accumulated from the reduced homology of the
complex restricted to each vertex subset W: homology in degree d lands at
(i, j) = (|W| - d - 1, |W|).  Restrictions that are cones contribute
nothing, and a restriction is a cone whenever some vertex of W lies in no
generator support inside W, which prunes most of the 2^n sweep.

Homology is computed from boundary-matrix ranks: over GF(2) with packed
int rows, over odd characteristics with dense signed elimination (only
small ambients need that path).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import CapExceeded, EmptyAmbient, TheoremViolation, TooFewGenerators, size_cap
from .gf2 import word_to_string


@dataclass(frozen=True)
class MonomialIdeal:
    """Square-free monomial ideal given by its minimal generator supports."""

    n: int
    gens: tuple[int, ...]

    def complex_view(self) -> "SimplicialComplexView":
        return SimplicialComplexView(self.n, self.gens)


@dataclass(frozen=True)
class SimplicialComplexView:
    """The complex whose minimal nonfaces are the ideal's generators.

    A subset is a face iff it contains no nonface; single-variable
    generators just delete their vertex.
    """

    n: int
    nonfaces: tuple[int, ...]

    def is_face(self, mask: int) -> bool:
        return not any(g & mask == g for g in self.nonfaces)


@dataclass
class BettiTable:
    """Sparse graded Betti numbers: entries[(i, j)] = beta_{i,j} > 0."""

    entries: dict[tuple[int, int], int]

    def __post_init__(self):
        for (i, j), beta in self.entries.items():
            if beta <= 0:
                raise ValueError(f"nonpositive count at ({i}, {j})")

    @property
    def pd(self) -> int:
        """Projective dimension: the largest homological degree present."""
        return max((i for i, _ in self.entries), default=0)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def sorted_triples(self) -> list[tuple[int, int, int]]:
        return sorted((i, j, b) for (i, j), b in self.entries.items())

    def column_sums(self) -> dict[int, int]:
        """Total rank of each free module: i -> sum_j beta_{i,j}."""
        out: dict[int, int] = {}
        for (i, _), b in self.entries.items():
            out[i] = out.get(i, 0) + b
        return out

    def alternating_sums_by_shift(self) -> dict[int, int]:
        """j -> sum_i (-1)^i beta_{i,j}, the K-polynomial coefficients."""
        out: dict[int, int] = {}
        for (i, j), b in self.entries.items():
            out[j] = out.get(j, 0) + (b if i % 2 == 0 else -b)
        return {j: v for j, v in out.items() if v}


def ideal_from_supports(n: int, supports) -> MonomialIdeal:
    """Build the ideal on n variables, keeping only inclusion-minimal
    generator supports.

    Supports of minimal-support codewords are already incomparable, so
    for those inputs the filter is a no-op.
    """
    if n == 0:
        raise EmptyAmbient("no variables")
    mask_all = (1 << n) - 1
    seen = set()
    for s in supports:
        if s & ~mask_all:
            raise ValueError(f"support {bin(s)} outside ambient of size {n}")
        seen.add(s)
    minimal: list[int] = []
    for s in sorted(seen, key=lambda m: (m.bit_count(), m)):
        if not any(g & s == g for g in minimal):
            minimal.append(s)
    return MonomialIdeal(n, tuple(sorted(minimal, key=lambda w: word_to_string(w, n))))


def restricted_faces(v: SimplicialComplexView, w: int) -> dict[int, list[int]]:
    """All faces contained in the vertex mask w, grouped by dimension.

    The empty face appears under dimension -1 whenever it is a face
    (always, unless the ideal contains the constant monomial).
    """
    by_dim: dict[int, list[int]] = {}
    sub = w
    while True:
        if v.is_face(sub):
            by_dim.setdefault(sub.bit_count() - 1, []).append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & w
    for faces in by_dim.values():
        faces.sort()
    return by_dim


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
        index = {m: i for i, m in enumerate(by_size[s - 1])}
        basis: dict[int, int] = {}
        r = 0
        for c in cols:
            v = 0
            m = c
            while m:
                low = m & -m
                v |= 1 << index[c ^ low]
                m ^= low
            while v:
                t = v.bit_length() - 1
                row = basis.get(t)
                if row is None:
                    basis[t] = v
                    r += 1
                    break
                v ^= row
        ranks[s] = r
    return ranks


def _modp_boundary_ranks(by_size: list[list[int]], p: int) -> list[int]:
    """Boundary ranks over GF(p) for odd p, dense signed elimination."""
    top = len(by_size) - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        cols = by_size[s]
        if not cols:
            break
        index = {m: i for i, m in enumerate(by_size[s - 1])}
        nrows = len(by_size[s - 1])
        reduced: list[list[int]] = []
        pivots: list[int] = []
        for c in cols:
            vec = [0] * nrows
            sign = 1
            m = c
            while m:
                low = m & -m
                vec[index[c ^ low]] = sign % p
                sign = -sign
                m ^= low
            for row, piv in zip(reduced, pivots):
                coef = vec[piv]
                if coef:
                    inv = pow(row[piv], -1, p)
                    mult = (coef * inv) % p
                    for t in range(nrows):
                        vec[t] = (vec[t] - mult * row[t]) % p
            piv = next((t for t, x in enumerate(vec) if x), None)
            if piv is not None:
                reduced.append(vec)
                pivots.append(piv)
        ranks[s] = len(reduced)
    return ranks


def reduced_homology_dims(faces_by_dim: dict[int, list[int]], char: int = 2) -> dict[int, int]:
    """Dimensions of the reduced homology of a downward-closed family.

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
    for faces in by_size:
        faces.sort()
    try:
        if char == 2:
            ranks = _gf2_boundary_ranks(by_size)
        else:
            ranks = _modp_boundary_ranks(by_size, char)
    except KeyError as missing:
        raise ValueError(f"family not downward closed: missing face {missing}")
    out: dict[int, int] = {}
    for s, faces in enumerate(by_size):
        h = len(faces) - ranks[s] - ranks[s + 1]
        if h:
            out[s - 1] = h
    return out


def _nonface_table(n: int, gens) -> bytearray:
    """nonface[mask] = 1 iff mask contains some generator."""
    table = bytearray(1 << n)
    genset = set(gens)
    if 0 in genset:
        table[0] = 1
    for mask in range(1, 1 << n):
        if mask in genset:
            table[mask] = 1
            continue
        m = mask
        while m:
            low = m & -m
            if table[mask ^ low]:
                table[mask] = 1
                break
            m ^= low
    return table


def _covered_table(n: int, gens) -> list[int]:
    """covered[W] = union of all generators contained in W."""
    table = [0] * (1 << n)
    genset = set(gens)
    for w in range(1, 1 << n):
        u = w if w in genset else 0
        m = w
        while m:
            low = m & -m
            u |= table[w ^ low]
            m ^= low
        table[w] = u
    return table


def _sweep_chunk(n: int, gens: tuple[int, ...], char: int,
                 start: int, stop: int, audit: bool) -> dict[tuple[int, int], int]:
    """Accumulate Hochster contributions of vertex sets in [start, stop)."""
    nonface = _nonface_table(n, gens)
    covered = _covered_table(n, gens)
    table: dict[tuple[int, int], int] = {}
    for w in range(max(start, 1), stop):
        if covered[w] != w:
            continue  # some vertex uncovered: the restriction is a cone
        j = w.bit_count()
        by_size: list[list[int]] = [[] for _ in range(j + 1)]
        sub = w
        while True:
            if not nonface[sub]:
                by_size[sub.bit_count()].append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & w
        if char == 2:
            ranks = _gf2_boundary_ranks(by_size)
        else:
            for faces in by_size:
                faces.sort()
            ranks = _modp_boundary_ranks(by_size, char)
        for s in range(j + 1):
            f = len(by_size[s])
            h = f - ranks[s] - ranks[s + 1]
            if audit and (h < 0 or ranks[s] > f):
                raise TheoremViolation(
                    f"inconsistent ranks at W={bin(w)} size {s}")
            if h:
                key = (j - s, j)  # homological degree i = j - (s-1) - 1
                table[key] = table.get(key, 0) + h
        if audit:
            f_alt = sum((1 if s % 2 == 0 else -1) * len(by_size[s])
                        for s in range(j + 1))
            h_alt = 0
            for s in range(j + 1):
                h = len(by_size[s]) - ranks[s] - ranks[s + 1]
                h_alt += h if s % 2 == 0 else -h
            if f_alt != h_alt:
                raise TheoremViolation(
                    f"Euler mismatch at W={bin(w)}: faces {f_alt} vs homology {h_alt}")
    return table


def betti_table_hochster(ideal: MonomialIdeal, char: int = 2,
                         processes: int = 1, audit: bool = False) -> BettiTable:
    """Graded Betti table of R/I from homology of restricted complexes.

    char selects the coefficient field (2 uses the packed kernel; odd
    characteristics are exposed for cross-checks at small n).  processes
    caps the worker processes: the vertex-set sweep is split into
    min(processes, CPU count, 2^n - 1) contiguous chunks, one per worker,
    merged by summation, which cannot change the result.  audit
    re-verifies the Euler characteristic of every restricted complex
    touched.
    """
    n = ideal.n
    if n > size_cap():
        raise CapExceeded(f"2^{n} sweep exceeds cap {size_cap()}")
    table: dict[tuple[int, int], int] = {}
    if 0 not in ideal.gens:
        table[(0, 0)] = 1  # W = empty set: homology of {empty face} in degree -1
    workers = min(processes, os.cpu_count() or 1, (1 << n) - 1)
    if workers <= 1:
        part = _sweep_chunk(n, ideal.gens, char, 1, 1 << n, audit)
        for key, val in part.items():
            table[key] = table.get(key, 0) + val
        return BettiTable(table)
    bounds = [1 + (((1 << n) - 1) * t) // workers for t in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_sweep_chunk, n, ideal.gens, char, lo, hi, audit)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        for fut in futures:
            for key, val in fut.result().items():
                table[key] = table.get(key, 0) + val
    return BettiTable(table)


def min_shift_sequence(t: BettiTable) -> list[tuple[int, int]]:
    """(i, smallest j with beta_{i,j} != 0) for each i = 1..pd."""
    mins: dict[int, int] = {}
    for (i, j) in t.entries:
        if i >= 1 and (i not in mins or j < mins[i]):
            mins[i] = j
    return [(i, mins[i]) for i in sorted(mins)]


def min_shifts(t: BettiTable) -> tuple[int, ...]:
    """Just the shift values of min_shift_sequence."""
    return tuple(j for _, j in min_shift_sequence(t))


def taylor_pair_minimum(ideal: MonomialIdeal) -> int:
    """Smallest second-step shift of the Taylor resolution: the minimum
    support-union size over generator pairs."""
    gens = ideal.gens
    if len(gens) < 2:
        raise TooFewGenerators("need at least two generators")
    best = ideal.n + 1
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            size = (gens[a] | gens[b]).bit_count()
            if size < best:
                best = size
    return best
