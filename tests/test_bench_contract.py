"""The traced benchmark run wraps public functions by name and reads their
arguments by parameter name (perfbench/spans.py).  Run small CLI jobs of
every kind under its Tracer, so a rename or signature change that would
break ``perfbench/run.py --trace 1`` fails here first."""

import contextlib
import importlib
import io
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
TOY = str(FIXTURES / "toy63.txt")
REP31 = str(FIXTURES / "rep31.txt")

JOBS = [
    ("verify", TOY),
    ("ghw", TOY, "--route", "resolution"),
    ("betti", TOY, "--ideal", "union-testsets",
     "--order", "degrevlex:1,2,3,4,5,6", "--order", "deglex:6,5,4,3,2,1"),
    ("betti", TOY, "--ideal", "union-testsets", "--all-orders"),
    ("gb", REP31),
    ("decode", REP31, "110"),
    ("search", "--n", "6", "--k", "3", "--trials", "2", "--seed", "1"),
]

# Called by none of the jobs above: the CLI never asks for a single d_h.
NOT_RUN = {"codes.ghw_bruteforce"}


def test_every_traced_layer_reports_calls_and_counters():
    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
    layers = spans["LAYERS"]
    tracer = spans["Tracer"]()
    with tracer:
        cli = importlib.import_module("ghw.cli")
        for job, argv in enumerate(JOBS):
            tracer.job = job
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0, argv
    totals = spans["layer_totals"](tracer.spans)
    assert set(totals) == set(spans["metric_names"]())

    ran = {span[0] for span in tracer.spans}
    assert ran == set(layers) - NOT_RUN
    for layer, (counters, _) in layers.items():
        if layer in NOT_RUN:
            continue
        assert totals[f"{layer}.calls"] >= 1, layer
        assert totals[f"{layer}.self_s"] >= 0, layer
        for span in tracer.spans:
            if span[0] == layer:
                assert len(span[5]) == len(counters), layer
    assert totals["analysis.counterexample_search.evaluated"] >= 1
    assert totals["resolution.betti_table_hochster.gens"] >= 1
    assert totals["groebner.reduced_groebner_basis.cosets"] >= 1
