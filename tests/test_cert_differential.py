"""Differential tests: the integer-built certificates of ``kvacert.constants`` against the oracle.

``fraction_certs`` holds the Fraction-built forms of the grid-point
certificates that ``constants`` replaced.  For every drawn c in (0, 1), slack
delta and binding t0 both must return records with the same ``repr`` (every
field, the ray certificates with their shifts and methods included), or raise
the same error.  A scan of the grid from the oracle's ceiling down, with the
oracle's ``pipeline_certs`` at every point, checks ``c_max_search`` the same way.
"""

from fractions import Fraction
from math import floor

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_certs
from kvacert import constants

unit_cs = st.fractions(min_value=0, max_value=1, max_denominator=10**5).filter(
    lambda c: 0 < c < 1)
deltas = st.one_of(
    st.sampled_from([Fraction(1, 10**6), Fraction(178, 1000), Fraction(5)]),
    st.fractions(min_value=0, max_value=20, max_denominator=10**4).filter(bool),
)
t0s = st.integers(-3, 12)


def outcome(f, *args) -> str:
    """``repr`` of what ``f(*args)`` returns, or of the error it raises."""
    try:
        return repr(f(*args))
    except (ValueError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same(name, *args):
    assert outcome(getattr(constants, name), *args) == outcome(getattr(fraction_certs, name),
                                                                  *args)


class TestCertificatesAgainstFractionOracle:
    @settings(max_examples=300, deadline=None)
    @given(unit_cs, t0s)
    def test_c_only_certificates(self, c, t0):
        for name in ("n2_chain_cert", "case1_cert", "interval_containment_cert"):
            assert_same(name, c, t0)

    @settings(max_examples=300, deadline=None)
    @given(unit_cs, deltas, t0s)
    def test_g_positive(self, c, delta, t0):
        assert_same("g_positive_cert", c, delta, t0)

    @settings(max_examples=300, deadline=None)
    @given(unit_cs, st.integers(3, 12))
    # each pinned c_max (grids 1/1000, 1/10000, 1/100000) and the grid point above it: the
    # slack floors to 178|176, 177|176 and 177|176 thousandths and the verdict flips, so a
    # floor off by one shows at once
    @example(Fraction(887, 1000), 3)
    @example(Fraction(888, 1000), 3)
    @example(Fraction(8877, 10000), 3)
    @example(Fraction(8878, 10000), 3)
    @example(Fraction(3551, 4000), 3)
    @example(Fraction(11097, 12500), 3)
    def test_pipeline(self, c, t0):
        assert_same("pipeline_certs", c, t0)

    def test_t0_below_three_refused(self):
        # the binding t0 = kmin + 1 of the theorem is at least 3; at t0 = -1 this c would
        # make 1000 * slack = 0.99999..., and at t0 = 1 the z_2 margin has a negative radicand
        c, delta = Fraction(7283, 7297), Fraction(178, 1000)
        for t0 in range(-3, 3):
            assert_same("pipeline_certs", c, t0)
            for name, args in (("n2_chain_cert", (c,)), ("case1_cert", (c,)),
                               ("interval_containment_cert", (c,)), ("g_positive_cert", (c, delta)),
                               ("pipeline_certs", (c,)), ("delta_raw_at", (c,))):
                assert outcome(getattr(constants, name), *args, t0) == (
                    f"ValueError: k = {t0 - 1} is below the theorem's floor k >= 2"), name

    def test_fixed_points_reach_every_branch(self):
        # fixed points that reach each branch of pipeline_certs at least once
        reasons = set()
        for c, t0 in ((Fraction(1, 1000), 3), (Fraction(999, 1000), 3), (Fraction(1991, 2000), 3),
                      (Fraction(887, 1000), 3), (Fraction(888, 1000), 3), (Fraction(1, 2), 1)):
            assert_same("pipeline_certs", c, t0)
            result = outcome(constants.pipeline_certs, c, t0)
            reasons |= {r for r in ("radicand not positive", "raw slack not positive",
                                    "slack floors to zero", "'certified'", "'refuted'",
                                    "ValueError") if r in result}
        assert len(reasons) == 6


def oracle_scan(grid_step: Fraction, kmin: int):
    """(scanned, c_max, delta_max, records) of the oracle's scan from its ceiling down.

    Each grid point is ``n * grid_step``, one oracle ``pipeline_certs`` call; the
    records are the ceiling's, then the winner's, as ``c_max_search`` reports them
    around its two records that do not depend on the grid.
    """
    ceiling, ceiling_record = fraction_certs.ceiling_with_cert(kmin)
    scanned = 0
    for n in range(floor(ceiling / grid_step), 0, -1):
        c = n * grid_step
        scanned += 1
        ok, delta, certs = fraction_certs.pipeline_certs(c, kmin + 1)
        if ok:
            return scanned, c, delta, [ceiling_record, *certs]
    return scanned, None, None, [ceiling_record]


class TestScanAgainstOracle:
    # steps with a numerator other than 1 build grid points n * num / den that need reducing
    @settings(max_examples=30, deadline=None)
    @given(st.builds(Fraction, st.integers(1, 9), st.integers(10, 10**4)), st.integers(2, 6))
    @example(Fraction(3, 7000), 2)
    @example(Fraction(1, 10000), 2)
    @example(Fraction(7, 10), 2)  # one point, infeasible
    @example(Fraction(9, 9998), 6)
    def test_c_max_search(self, grid_step, kmin):
        report = constants.c_max_search(grid_step, kmin)
        scanned, c_max, delta_max, records = oracle_scan(grid_step, kmin)
        assert (report.scanned, report.c_max, report.delta_max) == (scanned, c_max, delta_max)
        assert repr([report.per_constraint[0], *report.per_constraint[3:]]) == repr(records)
