"""Square-free monomial ideals, restricted complexes, reduced simplicial
homology, and graded Betti tables via vertex-set sweeps.

The Betti table of R/I is accumulated from the reduced homology of the
complex restricted to each vertex subset W: homology in degree d lands at
(i, j) = (|W| - d - 1, |W|).  Only W in the lcm lattice of the generators
(the unions of generator supports) can contribute: any other W has a
vertex in no generator inside W, so its restriction is a cone.  The sweep
visits that lattice and nothing else.

Homology is computed over GF(2) from boundary-matrix ranks with packed
int rows.  restricted_faces and the sweep share one face enumeration
and one homology step; reduced_homology_dims is the checked public
entry to that step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, EmptyAmbient, TheoremViolation, TooFewGenerators, size_cap
from .gf2 import inclusion_minimal, rank_of_words


@dataclass(frozen=True)
class MonomialIdeal:
    """Square-free monomial ideal given by its minimal generator supports."""

    n: int
    gens: tuple[int, ...]


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


def ideal_from_supports(n: int, supports) -> MonomialIdeal:
    """Build the ideal on n variables, keeping only inclusion-minimal
    generator supports.

    Supports of minimal-support codewords are already incomparable, so
    for those inputs the filter is a no-op.
    """
    if n == 0:
        raise EmptyAmbient("no variables")
    mask_all = (1 << n) - 1
    supports = set(supports)
    for s in supports:
        if s & ~mask_all:
            raise ValueError(f"support {bin(s)} outside ambient of size {n}")
    return MonomialIdeal(n, inclusion_minimal(supports, n))


def _nonface_table(n: int, gens, ground: int) -> bytearray:
    """nonface[m] = 1 iff m contains some generator, filled for every mask
    m inside ground (entries outside ground stay 0).

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
    by_size = _faces_by_size(w, _nonface_table(ideal.n, ideal.gens, w))
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


def betti_table_hochster(ideal: MonomialIdeal, audit: bool = False) -> BettiTable:
    """Graded Betti table of R/I over GF(2) from homology of restricted
    complexes.

    The sum runs over the lcm lattice of the generators, the empty set
    included (it gives beta_{0,0} = 1 unless the ideal is the whole
    ring).  audit re-verifies the ranks and the Euler characteristic of
    every restricted complex touched.
    """
    n = ideal.n
    if n > size_cap():
        raise CapExceeded(f"2^{n} sweep exceeds cap {size_cap()}")
    nonface = _nonface_table(n, ideal.gens, (1 << n) - 1)
    lcms = {0}
    for g in ideal.gens:
        lcms |= {u | g for u in lcms}
    table: dict[tuple[int, int], int] = {}
    for w in lcms:
        j = w.bit_count()
        by_size = _faces_by_size(w, nonface)
        for s, h in enumerate(_homology_by_size(by_size, audit)):
            if h:
                key = (j - s, j)  # homological degree i = j - (s-1) - 1
                table[key] = table.get(key, 0) + h
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


def min_pair_union(masks) -> int:
    """Smallest |a | b| over pairs of distinct positions in masks.

    Over GF(2) the support of span{a, b} is a | b, so over nonzero
    codewords this is d_2, and over generators it is the smallest
    second-step shift of the Taylor resolution.  Masks are scanned by
    ascending weight: a pair's union is at least the heavier mask, so the
    scan stops at the first mask as heavy as the best union so far.
    """
    masks = sorted(masks, key=int.bit_count)
    if len(masks) < 2:
        raise TooFewGenerators(f"need at least two words, got {len(masks)}")
    best = max(masks).bit_length() + 1  # above any union
    for i, b in enumerate(masks):
        if b.bit_count() >= best:
            break
        for a in masks[:i]:
            size = (a | b).bit_count()
            if size < best:
                best = size
    return best
