"""Span recorder for the traced in-process run.

Each listed public function of ``ghw`` is wrapped from outside: the
original is captured once, and the wrapper is bound in every module
namespace that holds it, because ``cli`` and ``analysis`` import these
functions by name and a patch of the defining module alone would miss
their calls.  A span is (name, start, end, parent span, job id, counts);
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from math import comb


def _subsets_bound(_, seq):
    """Subsets the ascending oracle sweep may visit: sum_{s <= d_k} C(n, s)."""
    return (sum(comb(seq.n, s) for s in range(seq.values[-1] + 1)),)


# layer -> (work counters, function of (bound arguments, return value) giving
# their values).  Every layer also reports calls and self_s.
LAYERS = {
    "gf2.rref": ((), None),
    "io.load_matrix": ((), None),
    "io.dumps_document": ((), None),
    "codes.minimal_support_codewords": (
        ("codewords", "minimal"), lambda a, r: (1 << a["c"].k, len(r))),
    "codes.ghw_hierarchy": (("subsets_bound",), _subsets_bound),
    "codes.ghw_bruteforce": ((), None),
    "resolution.ideal_from_supports": (("gens",), lambda a, r: (len(r.gens),)),
    "resolution.betti_table_hochster": (
        ("masks", "gens", "betti_total"),
        lambda a, r: (1 << a["ideal"].n, len(a["ideal"].gens), sum(r.entries.values()))),
    "groebner.reduced_groebner_basis": (
        ("masks", "binomials", "cosets"),
        lambda a, r: (1 << r[0].n, len(r[0].binomials), len(r[1].leaders))),
    "groebner.test_set": (("words",), lambda a, r: (len(r),)),
    "groebner.decode": ((), None),
    "analysis.verify_code": ((), None),
    # computed, not observed: every pair of nonzero codewords
    "analysis.second_weight_witness": (
        ("pairs",), lambda a, r: (comb((1 << a["c"].k) - 1, 2),)),
    "analysis.check_symmetric_difference_lemma": ((), None),
    "analysis.union_testsets": (("orders",), lambda a, r: (len(a["orders"]),)),
    "analysis.counterexample_search": (
        ("evaluated", "skipped"),
        lambda a, r: (r.evaluated, r.skipped_rank_deficient + r.skipped_degenerate)),
    "cli.main": ((), None),
}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    return [f"{layer}.{c}" for layer, (counters, _) in LAYERS.items()
            for c in ("calls", "self_s") + counters]


class Tracer:
    """Installs and removes the wrappers; collects spans while installed."""

    def __init__(self):
        ghw_modules = [importlib.import_module(f"ghw.{m}")
                       for m in ("gf2", "io", "codes", "resolution", "groebner",
                                 "analysis", "cli")]
        ghw_modules.append(importlib.import_module("ghw"))
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[int] = []
        self._bindings = []  # (module, attribute, original, wrapper)
        for layer, (_, counts) in LAYERS.items():
            mod, fn = layer.split(".")
            original = getattr(sys.modules[f"ghw.{mod}"], fn)
            wrapper = self._wrap(layer, original, counts)
            holders = [(m, attr) for m in ghw_modules
                       for attr, val in vars(m).items() if val is original]
            self._bindings += [(m, attr, original, wrapper) for m, attr in holders]

    def _wrap(self, layer, original, counts):
        signature = inspect.signature(original)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                ret = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.job, ())
            if counts is not None:
                values = counts(signature.bind(*args, **kwargs).arguments, ret)
                spans[idx] = spans[idx][:5] + (values,)
            return ret

        return wrapper

    def __enter__(self):
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, original, _ in self._bindings:
            setattr(m, attr, original)
        self.job = None


def layer_totals(spans) -> dict[str, float]:
    """calls, self_s (span minus the child spans it covers) and summed
    work counts for every listed layer, zero where never called."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: 0.0 if name.endswith(".self_s") else 0 for name in metric_names()}
    for idx, (name, start, end, _, _, counts) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - child_time[idx]
        for key, val in zip(LAYERS[name][0], counts):
            out[f"{name}.{key}"] += val
    return out
