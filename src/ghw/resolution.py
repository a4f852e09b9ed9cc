"""Square-free monomial ideals and their graded Betti tables via
Hochster's formula, summed over the lcm lattice.

Reduced homology of the complex restricted to a vertex set W, in degree
d, lands at (i, j) = (|W| - d - 1, |W|).  Only W in the lcm lattice (the
unions of generator supports) can contribute: any other W has a vertex in
no generator inside W, so its restriction is a cone.

Every W gets its own nonface table, 2^|W| one-bit fields in W's
coordinates built from the generators inside W by one packed OR
transform.  Its homology comes from discrete Morse theory first, and
from boundary ranks only where that cannot decide:

* Certificate.  Starting from the faces of W, the element matching
  F <-> F | u pairs the cells without u with those with u, for each
  vertex u of W in ascending order, each step a few bitwise operations
  per block of the table.  A sequence of element matchings is acyclic
  (Jonsson, Simplicial Complexes of Graphs, 2008, Sec. 4), so the
  homology is that of a complex on the c_s critical cells of each size s
  (Forman 1998): c_s = 0 gives h_s = 0, and c_{s-1} = c_{s+1} = 0 gives
  h_s = c_s.  The counts are popcounts, and no cell is listed.
* Fallback.  A level the counts leave open comes from one vertex v: the
  restriction is del_v union the contractible cone v * lk_v, so its
  reduced homology is H(del_v, lk_v) by excision, the first matching
  alone.  Any vertex works; the kernel takes the one that leaves the
  fewest cells, the faces F inside W - v with F | v a nonface, lists
  them and computes the boundary ranks over GF(2).
* Audit.  Under audit every W gets its ranks, and TheoremViolation is
  raised unless each level the certificate decided agrees with them.

The sum of 2^(|W|-1) over the lattice is checked against MASK_BUDGET
while the lattice grows.

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

from types import MappingProxyType

from .errors import (SIZE_CAP, CapExceeded, EmptyAmbient, LengthCapExceeded, TheoremViolation,
                     TooFewGenerators)
from .gf2 import (_BLOCK_BITS, Frozen, _levels, _ones, _or_closure, inclusion_minimal,
                  rank_of_words)

# A size bound: a sweep whose lcm lattice has a sum of 2^(|W|-1) past this
# is refused up front, before any homology.  The sum counts no operation of
# the kernel (a W costs a 2^|W|-bit table, its critical-cell counts and,
# where they cannot decide, the ranks of its cells); it stays fixed so that
# the refused inputs, and their messages, stay fixed.
MASK_BUDGET = 1 << 26


class MonomialIdeal(Frozen):
    """Square-free monomial ideal given by its minimal generator supports."""

    _fields = ("n", "gens")


class BettiTable(Frozen):
    """Sparse graded Betti numbers: entries[(i, j)] = beta_{i,j} > 0, a
    read-only view of a copy of the given dict."""

    _fields = ("entries",)

    def __init__(self, entries: dict[tuple[int, int], int]):
        for (i, j), beta in entries.items():
            if beta <= 0:
                raise ValueError(f"nonpositive count at ({i}, {j})")
        object.__setattr__(self, "entries", MappingProxyType(dict(entries)))

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
    for those inputs the filter is a no-op.  More than SIZE_CAP variables
    raise LengthCapExceeded.
    """
    if n == 0:
        raise EmptyAmbient("no variables")
    if n > SIZE_CAP:
        raise LengthCapExceeded(f"{n} variables exceed cap {SIZE_CAP}")
    mask_all = (1 << n) - 1
    supports = set(supports)
    for s in supports:
        if s & ~mask_all:
            raise ValueError(f"support {bin(s)} outside ambient of size {n}")
    return MonomialIdeal(n, inclusion_minimal(supports, n))


def _nonface_table(n: int, gens) -> list[int]:
    """nonface[m] = 1 iff the mask m contains some generator, for all 2^n
    masks, as packed blocks of one-bit fields (bit x of block i is the
    mask i * 2^bits + x): the OR closure of the generator indicator
    (gf2._or_closure), one shift-OR per coordinate inside each block and
    one OR per pair of blocks across them."""
    bits = min(_BLOCK_BITS, n)
    low = (1 << bits) - 1
    blocks = [0] * (1 << (n - bits))
    for g in gens:
        blocks[g >> bits] |= 1 << (g & low)
    _or_closure(blocks, bits, 1)
    return blocks


def _own_table(w: int, gens) -> list[int]:
    """The nonface table of the complex restricted to the vertex mask w,
    in w's own coordinates: the i-th lowest vertex of w is local bit i,
    and only the generators inside w count."""
    inside = []
    for g in gens:
        if g & w == g:
            x = 0
            while g:
                low = g & -g
                x |= 1 << (w & (low - 1)).bit_count()  # low's place in w
                g ^= low
            inside.append(x)
    return _nonface_table(w.bit_count(), inside)


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


def _cells(table: list[int], bits: int, v: int) -> list[tuple[int, int]]:
    """(i, c) for each block i of a local nonface table without vertex v:
    bit x of c is set iff the local mask i * 2^bits + x is a face and adding
    v makes it a nonface, that is iff it is a cell of H(del_v, lk_v)."""
    if v < bits:
        shift = 1 << v
        keep = _ones(bits, 1, v)
        return [(i, x >> shift & ~x & keep) for i, x in enumerate(table)]
    bit = 1 << (v - bits)
    return [(i, table[i | bit] & ~x) for i, x in enumerate(table) if not i & bit]


def _fewest_cells(table: list[int], bits: int, k: int) -> int:
    """The vertex of the k local vertices whose excision leaves the fewest
    cells, the lowest one on a tie.

    Nonfaces are closed upward, so the cells of v, the faces x without v
    with x | v a nonface, number N_v - (N - N_v) for N nonfaces of which
    N_v hold v: the fewest cells are where the fewest nonfaces hold v.
    """
    held = [0] * k
    low = [(1 << v, _ones(bits, 1, v)) for v in range(bits)]
    for i, x in enumerate(table):
        for v, (shift, keep) in enumerate(low):
            held[v] += (x >> shift & keep).bit_count()
        if i:
            size = x.bit_count()
            for v in range(bits, k):
                if i >> (v - bits) & 1:
                    held[v] += size
    return held.index(min(held))


def _critical(table: list[int], bits: int, order) -> list[int]:
    """The critical cells of a sequence of element matchings on a local
    nonface table, as packed one-bit blocks like the table's.

    The cells start as the faces.  For each vertex u in order, a face F
    without u is paired with F | u, and both leave the cells, wherever
    both are still cells; inside a block that is a shift by u's field
    offset, across blocks it pairs block i with block i | u's bit.  The
    first step is the excision of u.
    """
    every = _ones(bits, 1)
    cells = [~x & every for x in table]
    for u in order:
        if u < bits:
            shift = 1 << u
            keep = _ones(bits, 1, u)
            for i, c in enumerate(cells):
                pairs = c & (c >> shift) & keep
                cells[i] = c ^ (pairs | pairs << shift)
        else:
            bit = 1 << (u - bits)
            for i in range(len(cells)):
                if not i & bit:
                    pairs = cells[i] & cells[i | bit]
                    cells[i] ^= pairs
                    cells[i | bit] ^= pairs
    return cells


def _certified(table: list[int], bits: int, k: int, lo: int, hi: int) -> list[int | None]:
    """h[s - lo] for s = lo..hi where the critical cells of the element
    matchings of every vertex, in ascending order, decide it, and None
    where they do not.

    The matchings form one acyclic matching, so the homology is that of a
    complex with c_s cells at each size s: h_s = 0 when c_s = 0, and
    h_s = c_s when c_{s-1} = c_{s+1} = 0, since no boundary then enters or
    leaves size s.  Only the counts of sizes lo - 1 .. hi + 1 are taken.
    """
    cells = _critical(table, bits, range(k))
    levels = _levels(bits)
    counts = [0] * (hi - lo + 3)  # c_s for s = lo - 1 .. hi + 1
    for i, c in enumerate(cells):
        if c:
            off = i.bit_count()  # the size a block's masks take from its index
            for s in range(max(lo - 1, off), min(hi + 1, off + bits) + 1):
                counts[s - lo + 1] += (c & levels[s - off]).bit_count()
    return [None if c and (below or above) else c
            for below, c, above in zip(counts, counts[1:], counts[2:])]


def _relative_homology(w: int, gens, audit: bool,
                       lo: int = 0, hi: int | None = None) -> list[int]:
    """h[s - lo] for s = lo..hi (every level when hi is None): the
    dimension of the reduced homology of the complex of the generators
    restricted to the nonempty vertex mask w, in degree s - 1.

    The critical cells of the element matchings (_certified) decide most
    levels; the rest come from the boundary ranks of _ranked.  audit
    computes every level from the ranks, and raises TheoremViolation
    unless each level the cells decided agrees.
    """
    k = w.bit_count()
    bits = min(_BLOCK_BITS, k)
    table = _own_table(w, gens)
    if hi is None:
        hi = k - 1
    hs = _certified(table, bits, k, lo, hi)
    if audit:
        ranked = _ranked(w, table, bits, k, 0, k - 1, True)[lo:hi + 1]
        for s, (h, r) in enumerate(zip(hs, ranked), lo):
            if h is not None and h != r:
                raise TheoremViolation(
                    f"Morse certificate on {bin(w)} gives {h} at cell size {s}, "
                    f"the boundary ranks {r}")
        return ranked
    undecided = [s for s, h in enumerate(hs, lo) if h is None]
    if undecided:
        first = undecided[0]
        ranked = _ranked(w, table, bits, k, first, undecided[-1], False)
        for s in undecided:
            hs[s - lo] = ranked[s - first]
    return hs


def _ranked(w: int, table: list[int], bits: int, k: int, lo: int, hi: int,
            audit: bool) -> list[int]:
    """h[s - lo] for s = lo..hi, from the cells of H(del_v, lk_v) for the
    vertex v that leaves the fewest; the boundary drops the facets that
    lie in lk_v.

    Only the cells of sizes lo - 1 .. hi + 1 are listed, the ones the two
    boundary ranks around each level of the window need.  audit checks
    the whole complex, so it needs the whole window.
    """
    v = _fewest_cells(table, bits, k)
    top = k - 1
    below = lo - 1
    above = hi + 1
    levels = _levels(bits)
    cells: list[list[int]] = [[] for _ in range(top + 1)]
    for i, c in _cells(table, bits, v):
        if not c:
            continue
        off = i.bit_count()  # the size a block's masks take from its index
        base = i << bits
        for s in range(max(below, off), min(above, top, off + bits) + 1):
            level = cells[s]
            m = c & levels[s - off]
            while m:
                x = m.bit_length() - 1
                m ^= 1 << x
                level.append(base | x)
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
        _audit_relative(w, table, cells, ranks, hs)
    return hs


def _audit_relative(w: int, table: list[int], cells: list[list[int]],
                    ranks: list[int], hs: list[int]) -> None:
    """TheoremViolation unless the ranks fit the cell counts, the Euler
    characteristic of the cells matches their homology, and the cells'
    alternating count equals that of all faces inside w, read off w's own
    nonface table."""
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
    bits = min(_BLOCK_BITS, w.bit_count())
    every = _ones(bits, 1)
    odd = sum(_levels(bits)[1::2])  # the masks of odd size, fields disjoint
    face_chi = 0
    for i, x in enumerate(table):
        faces = ~x & every
        chi = faces.bit_count() - 2 * (faces & odd).bit_count()
        face_chi += -chi if i.bit_count() % 2 else chi
    if cell_chi != face_chi:
        raise TheoremViolation(
            f"relative Euler mismatch on {bin(w)}: cells give {cell_chi}, "
            f"faces give {face_chi}")


def betti_table_hochster(ideal: MonomialIdeal, audit: bool = False) -> BettiTable:
    """Graded Betti table of R/I over GF(2) from homology of restricted
    complexes.

    The sum runs over the lcm lattice of the generators, the empty set
    included (it gives beta_{0,0} = 1 unless the ideal is the whole
    ring).  A lattice whose sum of 2^(|W|-1) passes MASK_BUDGET
    raises CapExceeded before any homology is computed.  audit takes the
    ranks of every set touched and re-checks them, the Euler
    characteristics and the Morse certificate, and that the minimal
    shifts rise through the degrees 1..pd with no gap.
    """
    lcms = _lcm_lattice(ideal.gens)
    table: dict[tuple[int, int], int] = {}
    if 0 not in ideal.gens:  # W = {}: the empty face, unless the ideal is (1)
        table[(0, 0)] = 1
    lcms.discard(0)
    for w in lcms:
        j = w.bit_count()
        for s, h in enumerate(_relative_homology(w, ideal.gens, audit)):
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
    the first W of size j where it is nonzero settles the shift.  A W
    that holds t generators or fewer cannot have it (Taylor's bound), so
    the sweep never computes one.  The same MASK_BUDGET refusal applies.
    audit also builds the audited full table and raises TheoremViolation
    unless its minimal shifts are these.
    """
    by_size: dict[int, list[int]] = {}
    for w in _lcm_lattice(ideal.gens):
        if w:
            by_size.setdefault(w.bit_count(), []).append(w)
    # holders[v] has bit i set iff generator i holds vertex v: the
    # generators inside W are those that no vertex outside W holds.
    holders = [0] * ideal.n
    for i, g in enumerate(ideal.gens):
        for v in range(ideal.n):
            if g >> v & 1:
                holders[v] |= 1 << i
    every = (1 << ideal.n) - 1

    def inside(w: int) -> int:
        out = 0
        m = every ^ w
        while m:
            low = m & -m
            out |= holders[low.bit_length() - 1]
            m ^= low
        return len(ideal.gens) - out.bit_count()

    shifts: list[int] = []
    for j in sorted(by_size):
        t = len(shifts)
        # beta_{t+1,W} is at most the number of (t+1)-sets of generators
        # inside W (Taylor): the sets holding the most generators go first,
        # and none holding t or fewer can add degree t + 1.
        held = {w: inside(w) for w in by_size[j]}
        for w in sorted(by_size[j], key=lambda w: -held[w]):
            if held[w] <= t:
                break
            if _relative_homology(w, ideal.gens, False, j - t - 1, j - t - 1)[0]:
                shifts.append(j)
                break
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
