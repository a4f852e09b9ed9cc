"""Benchmark of the ghw command-line tool.

    python3 perfbench/run.py --workload {pinned,large,all} --seed N
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout.  With --trace 0 every job is one fresh
``python -m ghw.cli ...`` process, run closed-loop by a single client (the
next job starts only after the previous one has exited), cycling through
the workload's jobs while the next one is expected to end within --seconds;
every job runs at least once; times are scaled to reference seconds
(see end_to_end()).  With --trace 1 the same jobs run in this
process, alternating an untraced and a traced pass, and the traced pass
records a span around every call into the listed public functions of each
module.

Every job's output is checked (see workloads.py).  The last line of stdout
is one JSON object: correct, attempted, failed, and the metrics named in
BENCHMARK.json with their units.  Inputs, job outputs and the spans go to
perfbench/out/<workload>-<seed>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path.cwd()
SETUP_REPEATS = 11
# Reported times are reference seconds: seconds on a host on which
# calibrate() takes CALIB_REF_S (see end_to_end()).
CALIB_REF_S = 0.05
JOB_TIMEOUT_S = 120
JOB_KINDS = ("verify", "betti", "resolution", "testset", "oracle", "gb", "decode", "search")
LAUNCHER = """\
import json, os, signal, sys, time
pid = 0
def kill_job(*_):
    if pid:
        os.kill(pid, signal.SIGKILL)
def stop(*_):
    kill_job()
    if pid:
        os.waitpid(pid, 0)
    sys.exit(143)
signal.signal(signal.SIGALRM, kill_job)
signal.signal(signal.SIGTERM, stop)
for line in sys.stdin:
    req = json.loads(line)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    files = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
             (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
             (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=files)
    signal.alarm(req["timeout"])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    pid = 0
    print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
"""
SETUP_CODE = """\
import sys
import ghw.cli
from ghw.codes import Code
from ghw.io import load_matrix
for path in sys.argv[1:]:
    Code.from_generator(load_matrix(path))
"""


class Run:
    """One workload run: outputs are checked and failures counted."""

    def __init__(self, workload: workloads.Workload, out: Path):
        self.workload = workload
        self.out = out
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[int, str] = {}

    def record(self, idx: int, rc: int, text: str) -> None:
        """Check one job's exit code and document; count a failure."""
        self.attempted += 1
        job = self.workload.jobs[idx]
        msg = f"exit code {rc}" if rc != 0 else self._check(idx, job, text)
        if msg is not None:
            self.failures.append(f"{' '.join(job.argv)}: {msg}")

    def _check(self, idx, job, text):
        try:
            doc = json.loads(text)
            result = doc["result"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable document: {exc!r}"
        stable = {k: v for k, v in doc.items() if k not in ("timing", "params")}
        digest = hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()
        if self._digests.setdefault(idx, digest) != digest:
            return "document differs from the first repeat"
        try:
            return job.check(result)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed result: {exc!r}"


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Launcher:
    """A bare interpreter that starts each child process for this one and
    reports its wall time, exit code and max RSS.

    Linux charges a child the RSS high-water mark of the memory it was
    forked from, so a child started from this process would be charged this
    process's own peak (over 20 MB, more than a small job uses).  The
    launcher is a ``python -S`` holding next to nothing.  Resource use comes
    from wait4 on each child alone: RUSAGE_CHILDREN would carry the largest
    RSS of any earlier job into every later one.
    """

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        return self

    def run(self, cmd: list[str], stdout: Path) -> tuple[float, int, float]:
        """(wall seconds, exit code, max RSS in MB) of one child process."""
        request = {"argv": cmd, "stdout": str(stdout),
                   "stderr": str(stdout.with_suffix(".err")), "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        wall, rc, maxrss_kb = json.loads(reply)
        return wall, rc, maxrss_kb / 1024

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self.proc.terminate()  # the launcher kills its running child first
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work like the program's own:
    a keyed sort of bitmasks, bit counting and dict look-ups.  It runs in
    this process between the children, so it sees the host's speed at about
    the time each child ran."""
    start = time.perf_counter()
    masks = sorted(range(1 << 16), key=lambda a: (a.bit_count(), -a))
    seen: dict[int, int] = {}
    for a in masks:
        seen.setdefault((a & 0x5A5A).bit_count() ^ (a >> 9), a)
    return time.perf_counter() - start


def measure_setup(run: Run, launcher: Launcher, calib: list[float]) -> float:
    """Median wall time of a fresh interpreter importing ghw.cli and
    building the workload's codes: the fixed cost of every CLI call."""
    cmd = [sys.executable, "-c", SETUP_CODE, *run.workload.matrices]
    launcher.run(cmd, run.out / "setup.out")  # warm-up: writes bytecode caches
    walls = []
    for _ in range(SETUP_REPEATS):
        calib.append(calibrate())
        wall, rc, _ = launcher.run(cmd, run.out / "setup.out")
        run.attempted += 1
        if rc != 0:
            run.failures.append(f"set-up exited with {rc}")
        walls.append(wall)
    return statistics.median(walls)


def end_to_end(run: Run, seconds: float) -> dict:
    """wall_s and setup_s in reference seconds: as measured, times
    CALIB_REF_S over the median of the calibrations taken before every
    child.  A slow spell of the shared host slows the calibrations too, so
    the scaling takes out most of the host's drift from run to run."""
    jobs = run.workload.jobs
    calib: list[float] = []
    last_wall = [0.0] * len(jobs)
    peak_mb = 0.0
    log = []
    with Launcher() as launcher:
        setup_s = measure_setup(run, launcher, calib)
        deadline = time.perf_counter() + seconds
        i = 0
        # every job once, then more rounds while the next job is expected to fit
        while i < len(jobs) or time.perf_counter() + last_wall[i % len(jobs)] < deadline:
            idx = i % len(jobs)
            stdout = run.out / f"job{idx}.json"
            calib.append(calibrate())
            wall, rc, rss_mb = launcher.run(
                [sys.executable, "-m", "ghw.cli", *jobs[idx].argv], stdout)
            run.record(idx, rc, stdout.read_text(errors="replace"))
            last_wall[idx] = wall
            peak_mb = max(peak_mb, rss_mb)
            log.append({"job": idx, "kind": jobs[idx].kind, "wall_s": wall,
                        "max_rss_mb": rss_mb, "calib_s": calib[-1]})
            i += 1
    (run.out / "jobs.json").write_text(json.dumps(log, indent=1) + "\n")
    # one pass over the job list, each job at its median over the repeats
    wall_s = sum(statistics.median(e["wall_s"] for e in log if e["job"] == idx)
                 for idx in range(len(jobs)))
    calib_s = statistics.median(calib)
    print(f"{run.workload.name}: as measured, wall {wall_s:.4f} s, set-up {setup_s:.4f} s; "
          f"calibration median {calib_s:.4f} s", file=sys.stderr)
    scale = CALIB_REF_S / calib_s
    return {"wall_s": wall_s * scale, "setup_s": setup_s * scale, "peak_rss_mb": peak_mb}


def in_process_pass(run: Run, cli, tracer=None, pass_no: int = 0) -> dict[str, float]:
    """Run every job once through cli.main here; seconds per job kind."""
    per_kind = dict.fromkeys(JOB_KINDS, 0.0)
    for idx, job in enumerate(run.workload.jobs):
        if tracer is not None:
            tracer.job = f"{pass_no}:{idx}"
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(job.argv))
            except Exception as exc:  # a crash is this job's failure, not the run's
                buf = io.StringIO(repr(exc))
                rc = -1
        per_kind[job.kind] += time.perf_counter() - start
        run.record(idx, rc, buf.getvalue())
    return per_kind


def per_layer(run: Run, seconds: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import ghw.cli as cli

    tracer = spans.Tracer()
    untraced, traced, totals, recorded, calib = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    while not traced or time.perf_counter() + round_s < deadline:
        round_start = time.perf_counter()
        calib.append(calibrate())
        untraced.append(in_process_pass(run, cli))
        start = time.perf_counter()
        with tracer:
            in_process_pass(run, cli, tracer, len(traced))
        traced.append(time.perf_counter() - start)
        round_s = time.perf_counter() - round_start
        totals.append(spans.layer_totals(tracer.spans))
        base = len(recorded)  # parents index this pass's spans; make them global
        recorded += [(n, s, e, p + base if p >= 0 else -1, j, c)
                     for n, s, e, p, j, c in tracer.spans]
        tracer.spans.clear()
    with open(run.out / "spans.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job", "counts"],
                   "spans": recorded}, fh)

    metrics = {}
    for name in totals[0]:
        values = [t[name] for t in totals]
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                run.failures.append(f"work count {name} differs between passes: {values}")
            metrics[name] = values[0]
    metrics["host.calib_s"] = statistics.median(calib)  # the host's speed meanwhile
    metrics["trace_overhead_s"] = (statistics.median(traced)
                                   - statistics.median(sum(p.values()) for p in untraced))
    for kind in JOB_KINDS:
        metrics[f"jobs.{kind}_s"] = statistics.median(p[kind] for p in untraced)
    search_s = metrics["jobs.search_s"]
    metrics["jobs.codes_per_s"] = (
        metrics["analysis.counterexample_search.evaluated"] / search_s if search_s else 0.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    out = ROOT / "perfbench" / "out" / f"{name}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    run = Run(workloads.build(name, ROOT, seed, out), out)
    values = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    wanted = spec["per_layer" if trace else "end_to_end"]
    for msg in run.failures:
        print(f"FAIL {name}: {msg}", file=sys.stderr)
    for m in wanted:
        print(f"{name:8s} {m['name']:50s} {values[m['name']]:>16.6g} {m['unit']}", file=sys.stderr)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    names = list(workloads.MAKERS)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    missing = [f for f in ("src/ghw/cli.py", "tests/known_codes.py", "tests/fixtures/code149.txt")
               if not (ROOT / f).is_file()]
    if missing:
        print(f"run.py: not a ghw checkout ({', '.join(missing)} missing); "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so children get killed

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
    else:
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace), spec)
                   for w in names}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
