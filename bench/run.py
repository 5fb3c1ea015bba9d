"""kvacert benchmark: end-to-end CLI workloads, and a traced in-process run per layer.

Run from the root of a checkout::

    python3 bench/run.py --workload cli-instances --seed 1 --seconds 25 --trace 0

Without ``--workload`` every workload runs in turn.  With ``--trace 0`` each
job is a fresh ``python -m kvacert.cli ...`` process (``src`` on the path),
forked by ``launcher.py`` and run one at a time by a single client in a
closed loop, all on one CPU.  Job times are scaled to a reference speed by a
calibration timed on that CPU around each job.  The run repeats the
workload's whole job list while the next pass still fits in ``--seconds``
and prints the end-to-end metrics.  With ``--trace 1`` the job list runs in
this process through ``kvacert.cli.main`` with the wrappers of
``tracing.py`` installed, and the per-layer metrics are printed.  Every
job's output is checked either way.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: workloads listed in BENCHMARK.json; ``known-defects`` fails on purpose and is extra
MEASURED = ("constants-scan", "obstructions-paper", "obstructions-standard", "cli-instances")

#: seconds the calibration of ``launcher.py`` takes on the reference machine (a
#: 2-CPU Xeon VM in a quiet minute); job times are scaled by this over the
#: calibration measured around each job, on the same CPU
CAL_REFERENCE_S = 0.001
#: interpreter start-up and import samples taken before a traced run
SETUP_SAMPLES = 15
#: seconds between two import samples of an untraced run
SETUP_INTERVAL_S = 0.5
#: in-process per-job times printed, slowest first (covers every ladder rung)
SLOWEST_JOBS = 13

END_TO_END_UNITS = {
    "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    name: ("bytes" if name.endswith("_bytes") else
           "count" if name in tracing.COUNT_METRICS else
           "ratio" if name.endswith("_ratio") else "s")
    for name in tracing.layer_metrics([], Counter())
} | {"cli.interpreter_s": "s", "cli.import_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"}


def job_env() -> dict:
    """The environment of every child: only ``src`` on the path, no PYTHON* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


class JobResult(NamedTuple):
    code: int | None  # None: killed at the timeout
    stdout: bytes
    seconds: float  # at the reference speed, see CAL_REFERENCE_S
    raw_seconds: float
    rss_mb: float


class Launcher:
    """Runs jobs through ``launcher.py``, a small process that forks each of them."""

    def __init__(self) -> None:
        self.out_path = OUT_DIR / f"job-{os.getpid()}.out"
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=job_env(), cwd=ROOT)

    def run(self, argv: list[str], timeout_s: float) -> JobResult:
        """Run one child to exit."""
        self.proc.stdin.write(json.dumps([argv, timeout_s, str(self.out_path)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        code, seconds, rss_kib, calibration = json.loads(line)
        return JobResult(code, self.out_path.read_bytes(), seconds * CAL_REFERENCE_S / calibration,
                         seconds, rss_kib / 1024)

    def job(self, job) -> JobResult:
        return self.run([sys.executable, "-m", "kvacert.cli", *job.args], job.timeout_s)

    def time_import(self) -> float:
        """Seconds from a fresh interpreter to a finished ``import kvacert.cli``."""
        result = self.run([sys.executable, "-c", "import kvacert.cli"], 30)
        if result.code != 0:
            sys.exit(f"bench: import kvacert.cli failed with exit {result.code}")
        return result.seconds

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.out_path.unlink(missing_ok=True)


def setup_samples() -> tuple[list[float], list[float]]:
    """Wall times of a bare interpreter and of ``import kvacert.cli``, interleaved."""
    with Launcher() as launcher:
        launcher.time_import()  # byte-compile once
        bare, setup = [], []
        for _ in range(SETUP_SAMPLES):
            bare.append(launcher.run([sys.executable, "-c", "pass"], 30).seconds)
            setup.append(launcher.time_import())
    return bare, setup


def passes(seconds: float, run_pass):
    """Call ``run_pass()`` at least once, and again while the next call still fits."""
    start = time.perf_counter()
    results = [run_pass()]
    last = time.perf_counter() - start
    while time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        results.append(run_pass())
        last = time.perf_counter() - t
    return results


class Tally:
    """Jobs attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, job, exit_code, stdout, goldens) -> None:
        self.attempted += 1
        err = workloads.check_output(job, exit_code, stdout, goldens)
        if err:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{job.key}: {err}")


def measure_end_to_end(jobs, seconds, goldens, tally) -> tuple[dict, dict, list[str]]:
    setup, rss = [], []
    next_setup = 0.0

    def run_pass():
        nonlocal next_setup
        results, job_s = [], []
        for job in jobs:
            result = launcher.job(job)
            results.append(result)
            job_s.append(result.seconds)
            rss.append(result.rss_mb)
            if time.perf_counter() >= next_setup:  # set-up samples spread over the run
                setup.append(launcher.time_import())
                next_setup = time.perf_counter() + SETUP_INTERVAL_S
        for job, result in zip(jobs, results):
            tally.record(job, result.code, result.stdout, goldens)
        p90 = statistics.quantiles(job_s, n=10, method="inclusive")[-1]
        raw = sum(r.raw_seconds for r in results)
        return sum(job_s), statistics.median(job_s), p90, raw

    # The wall time of a pass is the time the client waits on its jobs.
    # Percentiles are taken per pass, then the median over passes, so that
    # they do not depend on how many passes fit into the run.
    with Launcher() as launcher:
        launcher.time_import()  # byte-compile once
        walls, p50s, p90s, raw_walls = zip(*passes(seconds, run_pass))
    return {
        "wall_s": statistics.median(walls),
        "job_p50_ms": 1000 * statistics.median(p50s),
        "job_p90_ms": 1000 * statistics.median(p90s),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
    }, {"passes": len(walls), "job_samples": len(rss), "setup_samples": len(setup),
        "unnormalised_wall_s": round(statistics.median(raw_walls), 4)}, []


def import_program():
    sys.path.insert(0, str(SRC))
    import kvacert.cli  # noqa: F401  (loads every kvacert module the wrappers patch)

    return sys.modules["kvacert.cli"].main


def run_in_process(main, jobs, goldens, tally, tracer=None) -> list[float]:
    """One pass of the job list through ``kvacert.cli.main``; returns each job's seconds."""
    import click
    caches = [f for n, m in list(sys.modules.items()) if n.startswith("kvacert")
              for f in vars(m).values() if hasattr(f, "cache_clear")]
    results, job_s = [], []
    for job_id, job in enumerate(jobs, 1):
        for cache in caches:  # every job starts cold, as a fresh process would
            cache.cache_clear()
        buf = io.StringIO()

        def call(job=job, buf=buf):
            try:
                with contextlib.redirect_stdout(buf):
                    return main(list(job.args), standalone_mode=False)
            except click.ClickException as exc:  # what the CLI reports as a usage error
                return exc.exit_code

        start = time.perf_counter()
        code = tracer.job_span(job_id, call) if tracer else call()
        job_s.append(time.perf_counter() - start)
        stdout = buf.getvalue().encode()
        if tracer:
            tracer.counts["cli.output_bytes"] += len(stdout)
        results.append((job, code, stdout))
    for job, code, stdout in results:
        tally.record(job, code, stdout, goldens)
    return job_s


def measure_traced(workload, seed, jobs, seconds, goldens, tally) -> tuple[dict, dict, list[str]]:
    bare, setup = setup_samples()
    main = import_program()
    untraced, traced, figures = [], [], []
    first = None

    def run_pair():
        nonlocal first
        untraced.append(run_in_process(main, jobs, goldens, tally))
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(run_in_process(main, jobs, goldens, tally, tracer))
        figures.append(tracing.layer_metrics(tracer.spans, tracer.counts))
        first = first or tracer

    passes(seconds, run_pair)
    if first.unwrapped:
        print(f"bench: not in the program, so not traced: {first.unwrapped}", file=sys.stderr)
    for name in tracing.COUNT_METRICS:
        if len({f[name] for f in figures}) != 1:
            tally.failed += 1
            tally.reasons.append(f"count {name} differs between traced passes")
    metrics = {name: (figures[0][name] if name in tracing.COUNT_METRICS
                      else statistics.median(f[name] for f in figures))
               for name in figures[0]}
    metrics["cli.interpreter_s"] = statistics.median(bare)
    metrics["cli.import_s"] = statistics.median(setup) - metrics["cli.interpreter_s"]
    metrics["trace.wall_s"] = statistics.median(map(sum, traced))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(map(sum, untraced))
    write_spans(workload, seed, jobs, first)
    return metrics, {"passes": len(traced), "spans_per_pass": len(first.spans)}, \
        slowest_jobs(jobs, untraced, traced)


def slowest_jobs(jobs, untraced, traced) -> list[str]:
    """In-process seconds per job key, untraced and traced (medians), slowest first."""
    per_key = defaultdict(lambda: ([], []))
    for passes_, side in ((untraced, 0), (traced, 1)):
        for job_s in passes_:
            for job, seconds in zip(jobs, job_s):
                per_key[job.key][side].append(seconds)
    rows = sorted(((statistics.median(u), statistics.median(t), key)
                   for key, (u, t) in per_key.items()), reverse=True)
    return [f"job {u:9.4f} s untraced {t:9.4f} s traced  {key}"
            for u, t, key in rows[:SLOWEST_JOBS]]


def write_spans(workload, seed, jobs, tracer) -> None:
    """The spans and counts of the first traced pass, as gzipped JSON under ``out/``."""
    with gzip.open(OUT_DIR / f"spans-{workload}.json.gz", "wt") as f:
        json.dump({"workload": workload, "seed": seed, "jobs": [job.key for job in jobs],
                   "columns": ["id", "parent", "name", "start_ns", "end_ns", "job"],
                   "spans": tracer.spans, "counts": tracer.counts,
                   "unwrapped": tracer.unwrapped}, f, separators=(",", ":"))


def run_workload(workload, seed, seconds, trace, goldens) -> tuple[dict, Tally]:
    jobs = workloads.build_jobs(workload, seed)
    tally = Tally()
    if trace:
        metrics, info, notes = measure_traced(workload, seed, jobs, seconds, goldens, tally)
        units = PER_LAYER_UNITS
    else:
        metrics, info, notes = measure_end_to_end(jobs, seconds, goldens, tally)
        units = END_TO_END_UNITS
    ratio = tally.failed / tally.attempted
    print(f"workload {workload}  seed {seed}  trace {trace}  jobs/pass {len(jobs)}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6f} {units[name]}")
    print(f"  {'failed_ratio':44s} {ratio:14.6f} ratio  ({tally.failed}/{tally.attempted})")
    for note in notes:
        print(f"  {note}")
    for reason in tally.reasons:
        print(f"    failed: {reason}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kvacert" / "cli.py").is_file():
        print(f"bench: {SRC / 'kvacert'} not found; run from a kvacert checkout", file=sys.stderr)
        return 2
    if args.trace and args.workload == "known-defects":
        print("bench: known-defects has jobs that must be killed; it runs untraced only",
              file=sys.stderr)
        return 2
    # One CPU for this process, the launcher and every job, so that the
    # calibration measures the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    goldens = workloads.load_goldens()
    names = [args.workload] if args.workload != "all" else (
        [*MEASURED, "known-defects"] if not args.trace else list(MEASURED))
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, tally = run_workload(name, args.seed, args.seconds, args.trace, goldens)
        attempted += tally.attempted
        failed += tally.failed
        metrics.update(m if len(names) == 1 else {f"{name}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
