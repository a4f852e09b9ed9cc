"""Square-free monomial ideals and their graded Betti tables via
Hochster's formula, summed over the lcm lattice.

Reduced homology of the complex restricted to a vertex set W, in degree
d, lands at (i, j) = (|W| - d - 1, |W|).  Only W in the lcm lattice (the
unions of generator supports) can contribute: any other W has a vertex in
no generator inside W, so its restriction is a cone.

Each restriction is reduced by its lowest vertex v: it is del_v union the
contractible cone v * lk_v, so its reduced homology is H(del_v, lk_v) by
excision (the acyclic matching F <-> F | v of discrete Morse theory).  The
cells are the faces F inside W - v with F | v a nonface, found among
2^(|W|-1) submasks; boundary ranks are taken over GF(2) on packed int
rows.  The nonface table behind those tests is one packed OR transform
over all 2^n masks.  The sum of 2^(|W|-1) over the lattice, the sweep's
cost, is checked against MASK_BUDGET while the lattice grows.

The minimal shifts m_i (the smallest j with beta_{i,j} != 0) need far
less than the whole table.  In a minimal free resolution the
differential's entries lie in the maximal ideal, so a basis element of
F_i in degree j maps onto some basis element of F_{i-1} of degree
j' < j: beta_{i,j} != 0 forces beta_{i-1,j'} != 0.  Hence m_1 < m_2 < ...
fill the degrees 1..pd with no gap, and pd is their count.  Swept by
ascending |W| = j with t shifts found, only degree t + 1 can first
appear at size j, at one cell level s = j - t - 1; hochster_min_shifts
walks the lattice that way and stops at the first W of each size with
homology there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, EmptyAmbient, TheoremViolation, TooFewGenerators, size_cap
from .gf2 import (_BLOCK_BITS, _indicator_blocks, _subset_transform, inclusion_minimal,
                  rank_of_words)

# Sweeps past this many submask visits are refused up front.  One visit
# costs about 0.45 us, so the budget is about 30 s of sweep.
MASK_BUDGET = 1 << 26


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


def _nonface_table(n: int, gens) -> bytes:
    """nonface[m] = 1 iff the mask m contains some generator, for all 2^n
    masks: the generator indicator pushed up to every superset by one OR
    transform on packed blocks of byte fields, O(n 2^n) field updates."""
    bits = min(_BLOCK_BITS, n)
    blocks = _indicator_blocks(gens, n, bits)
    _subset_transform(blocks, bits, 8, lambda lo, hi, ones: lo | hi)
    return b"".join([x.to_bytes(1 << bits, "little") for x in blocks])


def _lcm_lattice(gens) -> set[int]:
    """Every union of generator supports, the empty set included;
    CapExceeded once the sum of 2^(|W|-1) over it passes MASK_BUDGET."""
    lcms = {0}
    masks = 0
    for g in gens:
        grown = {u | g for u in lcms}
        grown -= lcms
        masks += sum(1 << (w.bit_count() - 1) for w in grown)
        if masks > MASK_BUDGET:
            raise CapExceeded(
                f"Hochster sweep needs at least {masks:.2e} submask visits "
                f"(budget {MASK_BUDGET:.2e} = 2^{MASK_BUDGET.bit_length() - 1})")
        lcms |= grown
    return lcms


def _relative_homology(w: int, nonface: bytes, audit: bool,
                       lo: int = 0, hi: int | None = None) -> list[int]:
    """h[s - lo] for s = lo..hi (every level when hi is None): the
    dimension of the reduced homology of the complex restricted to the
    nonempty vertex mask w, in degree s - 1, from the cells of
    H(del_v, lk_v); the boundary drops the facets that lie in lk_v.

    Only the cells of sizes lo - 1 .. hi + 1 are kept, the ones the two
    boundary ranks around each level of the window need.  audit checks
    the whole complex, so it needs the whole window.
    """
    v = w & -w
    rest = w ^ v
    top = rest.bit_count()
    if hi is None:
        hi = top
    below = lo - 1
    above = hi + 1
    cells: list[list[int]] = [[] for _ in range(top + 1)]
    sub = rest
    while True:
        if not nonface[sub] and nonface[sub | v]:
            size = sub.bit_count()
            if below <= size <= above:
                cells[size].append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & rest
    # Cells are closed upward, not downward: a level may be empty below a
    # non-empty one, so empty levels are skipped, not a stopping point.
    ranks = [0] * (top + 2)
    for s in range(max(lo, 1), min(above, top) + 1):
        if not cells[s] or not cells[s - 1]:
            continue
        get = {m: 1 << i for i, m in enumerate(cells[s - 1])}.get

        def boundary(c: int) -> int:
            col = 0
            m = c
            while m:
                low = m & -m
                col |= get(c ^ low, 0)
                m ^= low
            return col

        ranks[s] = rank_of_words(map(boundary, cells[s]))
    hs = [len(cells[s]) - ranks[s] - ranks[s + 1] for s in range(lo, hi + 1)]
    if audit:
        _audit_relative(w, nonface, cells, ranks, hs)
    return hs


def _audit_relative(w: int, nonface: bytes, cells: list[list[int]],
                    ranks: list[int], hs: list[int]) -> None:
    """TheoremViolation unless the ranks fit the cell counts, the Euler
    characteristic of the cells matches their homology, and the cells'
    alternating count equals that of all faces inside w."""
    euler = 0  # sum of (-1)^s (c - h); zero when the ranks are consistent
    cell_chi = 0
    for s, level in enumerate(cells):
        c, h = len(level), hs[s]
        if h < 0 or ranks[s] > c:
            raise TheoremViolation(f"inconsistent ranks at cell size {s}")
        euler += c - h if s % 2 == 0 else h - c
        cell_chi += -c if s % 2 else c
    if euler:
        raise TheoremViolation(
            f"Euler mismatch: cells and homology differ by {euler}")
    face_chi = 0
    sub = w
    while True:
        if not nonface[sub]:
            face_chi += -1 if sub.bit_count() % 2 else 1
        if sub == 0:
            break
        sub = (sub - 1) & w
    if cell_chi != face_chi:
        raise TheoremViolation(
            f"relative Euler mismatch on {bin(w)}: cells give {cell_chi}, "
            f"faces give {face_chi}")


def _sweep_tables(ideal: MonomialIdeal) -> tuple[set[int], bytes]:
    """The lcm lattice and the nonface table a sweep runs on, after the
    size cap and, while the lattice grows, MASK_BUDGET."""
    if ideal.n > size_cap():
        raise CapExceeded(f"2^{ideal.n} sweep exceeds cap {size_cap()}")
    lcms = _lcm_lattice(ideal.gens)
    return lcms, _nonface_table(ideal.n, ideal.gens)


def betti_table_hochster(ideal: MonomialIdeal, audit: bool = False) -> BettiTable:
    """Graded Betti table of R/I over GF(2) from homology of restricted
    complexes.

    The sum runs over the lcm lattice of the generators, the empty set
    included (it gives beta_{0,0} = 1 unless the ideal is the whole
    ring).  A lattice whose sweep would pass MASK_BUDGET submask visits
    raises CapExceeded before any homology is computed.  audit re-checks
    the ranks and the Euler characteristics of every set touched, and
    that the minimal shifts rise through the degrees 1..pd with no gap.
    """
    lcms, nonface = _sweep_tables(ideal)
    table: dict[tuple[int, int], int] = {}
    if not nonface[0]:  # W = {}: the empty face, unless the ideal is (1)
        table[(0, 0)] = 1
    lcms.discard(0)
    for w in lcms:
        j = w.bit_count()
        for s, h in enumerate(_relative_homology(w, nonface, audit)):
            if h:
                key = (j - s, j)  # homological degree i = j - (s-1) - 1
                table[key] = table.get(key, 0) + h
    result = BettiTable(table)
    if audit:
        shifts = min_shifts(result)
        if len(shifts) != result.pd or any(a >= b for a, b in zip(shifts, shifts[1:])):
            raise TheoremViolation(
                f"minimal shifts {list(shifts)} of the Betti table "
                f"{result.sorted_triples()} leave a gap below pd = {result.pd} "
                f"or fail to increase")
    return result


def hochster_min_shifts(ideal: MonomialIdeal, audit: bool = False) -> tuple[int, ...]:
    """The minimal shifts of the Betti table of R/I, one per homological
    degree 1..pd, without the rest of the table.

    The lcm lattice is swept by ascending size j.  With t shifts found,
    only degree t + 1 can first appear at size j (see the module
    docstring), that is the homology at cell level s = j - t - 1, and
    the first W of size j where it is nonzero settles the shift.  The
    same MASK_BUDGET refusal applies.  audit also builds the audited
    full table and raises TheoremViolation unless its minimal shifts
    are these.
    """
    lcms, nonface = _sweep_tables(ideal)
    by_size: dict[int, list[int]] = {}
    for w in lcms:
        if w:
            by_size.setdefault(w.bit_count(), []).append(w)
    shifts: list[int] = []
    for j in sorted(by_size):
        s = j - len(shifts) - 1
        # beta_{i,W} is at most the number of i-sets of generators with
        # union W (Taylor), so the sets holding the most generators go first.
        ws = sorted(by_size[j], key=lambda w: -sum(g & w == g for g in ideal.gens))
        if any(_relative_homology(w, nonface, False, s, s)[0] for w in ws):
            shifts.append(j)
    if audit:
        full = betti_table_hochster(ideal, audit=True)
        if min_shifts(full) != tuple(shifts) or full.pd != len(shifts):
            raise TheoremViolation(
                f"targeted sweep gives minimal shifts {shifts}, the full "
                f"Betti table {list(min_shifts(full))} with pd = {full.pd}")
    return tuple(shifts)


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
