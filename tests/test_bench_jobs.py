"""Every job of the benchmark (perfbench/workloads.py) exits 0 and passes
its own output check, run in-process on the inputs the benchmark builds
for seed 1.  A result the benchmark would count as incorrect fails here."""

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

from ghw import cli

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))


@pytest.mark.parametrize("name", sorted(WORKLOADS["MAKERS"]))
def test_benchmark_jobs_pass_their_checks(name, tmp_path):
    workload = WORKLOADS["build"](name, ROOT, 1, tmp_path)
    assert workload.jobs
    for job in workload.jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(job.argv)) == 0, job.argv
        assert job.check(json.loads(out.getvalue())["result"]) is None, job.argv
