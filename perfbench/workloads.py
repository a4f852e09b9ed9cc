"""Workload definitions: seeded inputs, the CLI jobs that run on them, and
the checks each job's output must pass.

The program under test only ever receives matrix files and argv.  Every
expected value is either a frozen reference from the test suite
(``tests/known_codes.py``, read, never edited) or computed here by this
file's own GF(2) code from a proven cross-route identity, never by
calling into ``ghw``.
"""

from __future__ import annotations

import random
import runpy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Why each workload exists; BENCHMARK.json carries the same one-liners.
# A third workload holding only the search job was dropped: on a shared
# 2-CPU host its run-to-run spread (IQR 22-25% of the median over 10 runs)
# reached the 0.25 bound.  The job now rides in "pinned", so its per-call
# costs are still measured.
WHY = {
    "pinned": "published examples: Hochster sweeps on [14,9] ideals, 10,085 tiny "
              "n=7 Groebner calls, plus a seeded search over 100 small [10,5] codes",
    "large": "one fixed random [18,9] and [20,10] code, seeded basis: "
             "Groebner and the subset oracle at the top of their reach; no Hochster call",
}

SEARCH_N, SEARCH_K, SEARCH_TRIALS = 10, 5, 100
LARGE_SHAPES = {"small": (18, 9), "big": (20, 10)}


# --- GF(2) on int bitmasks; bit i is coordinate i+1 ------------------------

def word(text: str) -> int:
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def bits(w: int, n: int) -> str:
    return "".join("1" if (w >> i) & 1 else "0" for i in range(n))


def xor_basis(rows) -> dict[int, int]:
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return basis


def in_span(basis: dict[int, int], v: int) -> bool:
    """Parity check: v reduces to 0 against the generator basis."""
    while v:
        top = v.bit_length() - 1
        if top not in basis:
            return False
        v ^= basis[top]
    return True


def span(rows) -> list[int]:
    words = [0]
    for r in rows:
        words += [w ^ r for w in words]
    return words


@dataclass(frozen=True)
class Reference:
    """Facts about one [n, k] code, derived here from its codewords."""

    n: int
    k: int
    basis: dict[int, int]
    words: tuple[int, ...]  # every nonzero codeword
    d1: int  # minimum weight
    d2: int  # smallest support of a 2-dim subcode = min |a | b| over pairs

    @classmethod
    def of(cls, rows, n: int) -> "Reference":
        basis = xor_basis(rows)
        words = tuple(w for w in span(basis.values()) if w)
        d1 = min(w.bit_count() for w in words)
        d2 = n + 1
        for i, a in enumerate(words):
            for b in words[i + 1:]:
                u = (a | b).bit_count()
                if u < d2:
                    d2 = u
        return cls(n, len(basis), basis, words, d1, d2)


def random_code(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """Uniform k x n matrix, redrawn while rank-deficient or degenerate."""
    full = (1 << n) - 1
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        support = 0
        for r in rows:
            support |= r
        if support == full and len(xor_basis(rows)) == k:
            return rows


def write_matrix(path: Path, rows, n: int) -> None:
    path.write_text("".join(" ".join(bits(r, n)) + "\n" for r in rows))


# --- checks: each returns None or a message --------------------------------

def _expect(cond: bool, msg: str) -> str | None:
    return None if cond else msg


def check_hierarchy(ghw: list[int], ref: Reference) -> str | None:
    """Shape of a weight hierarchy plus the three values known here."""
    if len(ghw) != ref.k:
        return f"hierarchy has {len(ghw)} entries, expected k={ref.k}"
    if any(a >= b for a, b in zip(ghw, ghw[1:])):
        return f"hierarchy {ghw} not strictly increasing"
    if any(d > ref.n - ref.k + h for h, d in enumerate(ghw, start=1)):
        return f"hierarchy {ghw} breaks the Singleton bound"
    if ghw[0] != ref.d1 or (ref.k >= 2 and ghw[1] != ref.d2):
        return f"d1,d2 = {ghw[:2]}, expected {ref.d1},{ref.d2}"
    # d_k is the size of the code's support
    support = 0
    for w in ref.words:
        support |= w
    return _expect(ghw[-1] == support.bit_count(), f"d_k = {ghw[-1]} != |supp C|")


def check_testset(words: list[int], ref: Reference) -> str | None:
    """Proven: test-set words are codewords, the lightest has weight d1,
    and the smallest pair union is d2."""
    if len(words) < 2:
        return "test set has fewer than two words"
    if not all(in_span(ref.basis, w) for w in words):
        return "test-set word outside the code"
    if min(w.bit_count() for w in words) != ref.d1:
        return "test-set minimum weight != d1"
    pair_min = min((a | b).bit_count()
                   for i, a in enumerate(words) for b in words[i + 1:])
    return _expect(pair_min == ref.d2, f"test-set pair minimum {pair_min} != d2 {ref.d2}")


def check_gb(res: dict, ref: Reference) -> str | None:
    """The test set is exactly the words lead + trail of the basis binomials,
    each of minimal support, and satisfies check_testset."""
    words = [word(w) for w in res["test_set"]]
    if set(words) != {word(lead) ^ word(trail) for lead, trail in res["squarefree_binomials"]}:
        return "test set is not the set of binomial words"
    if any(c != w and c & w == c for w in words for c in ref.words):
        return "test-set word without minimal support"
    return check_testset(words, ref)


def check_decode(res: dict, received: int, ref: Reference) -> str | None:
    decoded = word(res["decoded"])
    leader = word(res["coset_leader"])
    if not in_span(ref.basis, decoded):
        return "decoded word fails the parity check"
    if leader != received ^ decoded or res["error_weight"] != leader.bit_count():
        return "coset leader inconsistent with received and decoded words"
    nearest = min([received.bit_count()] + [(received ^ c).bit_count() for c in ref.words])
    return _expect(leader.bit_count() == nearest,
                   f"error weight {leader.bit_count()} > distance {nearest} to the code")


def check_search(res: dict) -> str | None:
    """Counts add up, and every flagged code has the proven shape: its
    hierarchy checks out and the test-set shifts are exact at i = 1, 2."""
    if res["evaluated"] + res["skipped_rank_deficient"] + res["skipped_degenerate"] != SEARCH_TRIALS:
        return "search counts do not add up to the trials"
    if res["evaluated"] < 1 or res["flagged_count"] != len(res["flagged"]):
        return "search evaluated nothing or miscounted flags"
    for f in res["flagged"]:
        ref = Reference.of([word(r.replace(" ", "")) for r in f["matrix"]], SEARCH_N)
        msg = check_hierarchy(f["ghw"], ref)
        if msg is None and f["minshift_testset"][:2] != f["ghw"][:2]:
            msg = "test-set shifts not exact at i = 1, 2"
        if msg is not None or ref.k != SEARCH_K:
            return f"flagged {f['trial']}: {msg}"
    return None


# --- jobs and workloads ----------------------------------------------------

@dataclass(frozen=True)
class Job:
    kind: str  # verify, betti, resolution, testset, oracle, gb, decode, search
    argv: tuple[str, ...]  # arguments after ``python -m ghw.cli``
    check: Callable[[dict], str | None]  # receives the document's result


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    matrices: tuple[str, ...]  # files loaded by the set-up measurement


def _pinned(root: Path, seed: int, out: Path) -> Workload:
    kc = runpy.run_path(str(root / "tests" / "known_codes.py"))
    fx = root / "tests" / "fixtures"

    def verify(name: str, ghw, ts_minshifts=None) -> Job:
        def check(res):
            if tuple(res["ghw"]) != tuple(ghw):
                return f"{name}: ghw {res['ghw']} != {list(ghw)}"
            if not all(res["checks"].values()):
                return f"{name}: failed checks {res['checks']}"
            if tuple(res["minshift_full"]) != tuple(ghw):
                return f"{name}: circuit-ideal min shifts != ghw"
            if ts_minshifts is not None and tuple(res["minshift_testset"]) != tuple(ts_minshifts):
                return f"{name}: test-set min shifts {res['minshift_testset']}"
            return None
        # --seed drives the sampled set lemma inside verify
        return Job("verify", ("verify", str(fx / f"{name}.txt"), "--seed", str(seed)), check)

    def union_check(res):
        got = {(e["i"], e["j"]): e["beta"] for e in res["betti"]}
        return _expect(got == kc["HAMMING74_UNION_BETTI"], f"union Betti table {got}")

    def code149_ghw(res):
        return _expect(tuple(res["ghw"]) == kc["CODE149_GHW"], f"resolution ghw {res['ghw']}")

    def code149_testset(res):
        values = tuple(e["value"] for e in res["entries"])
        return _expect(values == kc["CODE149_GHW"], f"test-set shifts {values}")

    c149 = str(fx / "code149.txt")
    jobs = (
        verify("toy63", kc["TOY63_GHW"]),
        verify("hamming74", kc["HAMMING74_GHW"]),
        verify("code107", kc["CODE107_GHW"], kc["CODE107_TESTSET_MINSHIFTS"]),
        verify("code149", kc["CODE149_GHW"], kc["CODE149_GHW"]),
        Job("betti", ("betti", str(fx / "hamming74.txt"), "--ideal", "union-testsets",
                      "--all-orders"), union_check),
        Job("resolution", ("ghw", c149, "--route", "resolution"), code149_ghw),
        Job("testset", ("ghw", c149, "--route", "testset"), code149_testset),
        Job("search", ("search", "--n", str(SEARCH_N), "--k", str(SEARCH_K),
                       "--trials", str(SEARCH_TRIALS), "--seed", str(seed)), check_search),
    )
    names = ("toy63", "hamming74", "code107", "code149")
    return Workload("pinned", jobs, tuple(str(fx / f"{m}.txt") for m in names))


def change_of_basis(rng: random.Random, rows) -> tuple[int, ...]:
    """Another generator matrix of the same code: the rows times a random
    invertible matrix.  Coordinates keep their order, because the oracle's
    subset sweep stops at a point that depends on it."""
    while True:
        mix = [rng.getrandbits(len(rows)) for _ in rows]
        if len(xor_basis(mix)) == len(rows):
            break
    out = []
    for m in mix:
        r = 0
        for i, row in enumerate(rows):
            if (m >> i) & 1:
                r ^= row
        out.append(r)
    return tuple(out)


def _large(root: Path, seed: int, out: Path) -> Workload:
    base = random.Random("large")  # the codes: one fixed draw per shape
    rng = random.Random(f"large:{seed}")  # their generator matrices, and the word
    refs, paths = {}, {}
    for tag, (n, k) in LARGE_SHAPES.items():
        rows = change_of_basis(rng, random_code(base, n, k))
        paths[tag] = out / f"random{n}_{k}.txt"
        write_matrix(paths[tag], rows, n)
        refs[tag] = Reference.of(rows, n)
    n_small = LARGE_SHAPES["small"][0]
    received = rng.getrandbits(n_small)
    (out / "decode_word.txt").write_text(bits(received, n_small) + "\n")

    def oracle(tag):
        return Job("oracle", ("ghw", str(paths[tag]), "--route", "oracle"),
                   lambda res: check_hierarchy(res["ghw"], refs[tag]))

    jobs = (
        Job("gb", ("gb", str(paths["big"])), lambda res: check_gb(res, refs["big"])),
        Job("decode", ("decode", str(paths["small"]), bits(received, n_small)),
            lambda res: check_decode(res, received, refs["small"])),
        oracle("small"),
        oracle("big"),
    )
    return Workload("large", jobs, (str(paths["small"]), str(paths["big"])))


MAKERS = {"pinned": _pinned, "large": _large}


def build(name: str, root: Path, seed: int, out: Path) -> Workload:
    return MAKERS[name](root, seed, out)
