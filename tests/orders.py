"""Order helpers that only the tests use: every priority order, a seeded
sample of them, and d_2 read off one order's test set."""

import math
import random
from itertools import permutations

from ghw import TermOrder, min_pair_union, reduced_groebner_basis, test_set


def all_priority_orders(n: int):
    """Every deglex and degrevlex order over all priority permutations."""
    for kind in ("deglex", "degrevlex"):
        for perm in permutations(range(n)):
            yield TermOrder(kind, perm)


def sample_orders(n: int, count: int, seed: int) -> list[TermOrder]:
    """Deterministic sample of distinct degree-compatible orders (2 * n! at most)."""
    count = min(count, 2 * math.factorial(n))
    rng = random.Random(seed)
    out: list[TermOrder] = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < 50 * count + 100:
        attempts += 1
        kind = rng.choice(("deglex", "degrevlex"))
        perm = list(range(n))
        rng.shuffle(perm)
        order = TermOrder(kind, tuple(perm))
        if (kind, order.priority) not in seen:
            seen.add((kind, order.priority))
            out.append(order)
    return out


def d2_from_testset(c, o: TermOrder) -> int:
    """d_2 as the smallest support-union size over test-set pairs."""
    basis, _ = reduced_groebner_basis(c, o)
    return min_pair_union(test_set(basis, c))
