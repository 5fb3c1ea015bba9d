"""Recorded certificate records that later rewrites of ``constants`` must reproduce.

``cert_records.json`` maps a call to the ``repr`` of what it returned.  The
calls cover certified and refuted records: the pipeline and its four
c-dependent certificates at kmin 2 and 3 and c in {8, 887, 888, 954}/1000
(g-positivity at three slacks), the two fixed records and the default scan.
No certificate takes a t0 below 3, and none is undecided from 3 on;
``TestNoUndecidedClaims`` in ``test_constants.py`` checks the undecided status
on the record builder itself.  A ``repr`` carries every field, ``polys`` with their shifts and
methods included, so equal strings mean equal records.

Run as a script, the module writes the table anew::

    PYTHONPATH=src python tests/test_cert_records.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from kvacert.constants import (
    c_max_search,
    case1_cert,
    g_positive_cert,
    interval_containment_cert,
    lhs_increasing_cert,
    n2_chain_cert,
    pipeline_certs,
    z1_decreasing_cert,
)

GOLDEN = Path(__file__).parent / "cert_records.json"

CS = [Fraction(n, 1000) for n in (8, 887, 888, 954)]
T0S = (3, 4)  # kmin 2 and 3
DELTAS = (Fraction(1, 10**6), Fraction(178, 1000), Fraction(5))


def calls() -> dict:
    """Every recorded call, by its name, as a thunk."""
    out = {}
    for t0 in T0S:
        for c in CS:
            for f in (pipeline_certs, n2_chain_cert, case1_cert, interval_containment_cert):
                out[f"{f.__name__}({c}, t0={t0})"] = lambda f=f, c=c, t0=t0: f(c, t0)
            for delta in DELTAS:
                out[f"g_positive_cert({c}, {delta}, t0={t0})"] = (
                    lambda c=c, delta=delta, t0=t0: g_positive_cert(c, delta, t0))
    out["z1_decreasing_cert()"] = z1_decreasing_cert
    out["lhs_increasing_cert()"] = lhs_increasing_cert
    out["c_max_search()"] = c_max_search
    return out


RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_every_call():
    assert list(RECORDED) == list(calls())
    assert len(RECORDED) == 59


def test_golden_covers_every_status():
    statuses = {status for text in RECORDED.values()
                for status in ("certified", "refuted", "undecided") if f"'{status}'" in text}
    assert statuses == {"certified", "refuted"}


@pytest.mark.parametrize("name", list(calls()))
def test_record_matches_golden(name):
    assert repr(calls()[name]()) == RECORDED[name]


if __name__ == "__main__":
    table = {name: repr(thunk()) for name, thunk in calls().items()}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
