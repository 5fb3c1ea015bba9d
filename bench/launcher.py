"""Runs the benchmark's jobs one at a time, from a small process.

A child's peak resident set (``ru_maxrss``) includes the memory of the
process that forked it, because the count starts before ``exec``.  The
benchmark process grows as it checks outputs, so ``run.py`` forks every job
from this process instead, which stays small and keeps the same size.

Around every job it also times a fixed piece of exact arithmetic on the
same CPU.  Other tenants of the host change that CPU's speed from second to
second; the calibration lets ``run.py`` take that change out of job times.

Protocol: one JSON line per job on stdin, ``[argv, timeout_s, out_path]``.
The job runs with stdout written to ``out_path``.  The answer on stdout is
``[exit code, or null if killed at the timeout, seconds, peak RSS in KiB,
calibration seconds]``, the last being the mean of the calibrations just
before and just after the job.
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction


def calibrate() -> float:
    """Median seconds of a fixed sum of fractions: this CPU's speed just now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(argv, timeout_s, out_path):
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # a late kill() is now a no-op
        timer.cancel()
        timer.join()
    return [None if killed.is_set() else proc.returncode, elapsed, usage.ru_maxrss]


if __name__ == "__main__":
    before = calibrate()
    for line in sys.stdin:
        result = run(*json.loads(line))
        after = calibrate()
        print(json.dumps(result + [(before + after) / 2]), flush=True)
        before = after
