"""Tests of the benchmark itself: its counts repeat exactly, and its output checks bite.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import run
import tracing
import workloads

GOLDENS = workloads.load_goldens()


def traced_pass(jobs) -> tuple[dict, run.Tally]:
    main = run.import_program()
    tally = run.Tally()
    tracer = tracing.Tracer()
    with tracer.installed():
        run.run_in_process(main, jobs, GOLDENS, tally, tracer)
    assert tracer.unwrapped == []
    return tracing.layer_metrics(tracer.spans, tracer.counts), tally


def counts(metrics: dict) -> dict:
    return {name: metrics[name] for name in tracing.COUNT_METRICS}


def mixed_jobs(seed: int):
    """cli-instances plus one job of each heavier kind, kept small for a unit test."""
    return (workloads.build_jobs("cli-instances", seed)
            + [workloads.CONSTANTS_LADDER[0], workloads.obstructions_job(3, 3, 4, 10, "standard")])


def test_counts_repeat_for_the_same_seed():
    first, tally1 = traced_pass(mixed_jobs(5))
    second, tally2 = traced_pass(mixed_jobs(5))
    assert tally1.failed == tally2.failed == 0, tally1.reasons + tally2.reasons
    assert counts(first) == counts(second)
    assert first["blowup.bs_condition3.calls"] > 0
    assert first["constants.pipeline_certs.calls"] > 0


def test_seed_changes_the_generated_jobs():
    keys = [[job.key for job in workloads.build_jobs("cli-instances", seed)] for seed in (1, 1, 2)]
    assert keys[0] == keys[1] != keys[2]
    assert len(keys[0]) >= 100


# Work done by fixed instances at the commit that recorded the goldens.  An
# algorithmic change moves these on purpose and updates them with its reason.
PINNED = [
    (workloads.obstructions_job(12, 12, 2, 28), {
        "blowup.search_obstruction.calls": 1,
        "blowup.search_obstruction.witnesses": 0,
        "blowup.bs_condition3.calls": 14,
    }),
    (workloads.obstructions_job(3, 3, 2, 4, "standard"), {
        "blowup.search_obstruction.calls": 1,
        "blowup.search_obstruction.witnesses": 78,
        "blowup.bs_condition3.calls": 3868,
    }),
    (workloads.CONSTANTS_LADDER[0], {
        "constants.pipeline_certs.calls": 68,
        "exactmath.poly_positive_on_ray.calls": 550,
        "exactmath.ray.shift-coeffs": 442,
        "exactmath.ray.endpoint": 108,
        "exactmath.ray.sturm": 0,
        "exactmath.Poly.shift.calls": 550,
    }),
]


@pytest.mark.parametrize("job,expected", PINNED, ids=[job.key for job, _ in PINNED])
def test_pinned_counts(job, expected):
    metrics, tally = traced_pass([job])
    assert tally.failed == 0, tally.reasons
    assert {name: metrics[name] for name in expected} == expected


def test_known_defects_are_expected_to_fail():
    check_c, check_delta, refusal = workloads.KNOWN_DEFECTS
    assert workloads.expected_check_exit(check_c.params) == 1
    assert workloads.expected_check_exit(check_delta.params) == 1
    assert workloads.check_output(refusal, None, b"", GOLDENS) is not None
    assert workloads.check_output(refusal, 2, b"", GOLDENS) is None


def test_independent_constants():
    assert workloads.expected_ceiling(2) == Fraction(954, 1000)
    assert workloads.expected_delta(Fraction(887, 1000), 2) == Fraction(178, 1000)


def test_tampered_witness_is_rejected():
    job = workloads.obstructions_job(3, 3, 2, 4)
    witness = {"d_s": {"a": 0, "b": 1}, "mults": [0, 0, 0, 0], "nd": 3, "d2": 0}
    assert workloads._witness_error(witness, job.params) is None
    assert workloads._witness_error(dict(witness, d2=1), job.params) is not None
    assert workloads._witness_error(dict(witness, nd=4), job.params) is not None
