"""Record the golden outputs of every fixed job into ``goldens.json``.

Run from the root of a checkout, at the commit whose outputs are the
reference::

    python3 bench/record_goldens.py

Each job runs as a fresh ``python -m kvacert.cli`` process.  A golden is the
exit code, the SHA-256 of stdout and, for searches and scans, the witness
count or the number of grid points scanned.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    goldens = {}
    with run.Launcher() as launcher:
        for job in workloads.golden_jobs():
            result = launcher.job(job)
            goldens[job.key] = workloads.golden_record(job, result.code, result.stdout)
            print(job.key, goldens[job.key], flush=True)
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
