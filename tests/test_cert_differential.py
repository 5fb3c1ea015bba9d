"""Differential tests: the integer-built certificates of ``kvacert.constants`` against the oracle.

``fraction_certs`` holds the Fraction-built forms of the grid-point
certificates that ``constants`` replaced.  For every drawn c in (0, 1), slack
delta and binding t0 both must return records with the same ``repr`` (every
field, the ray certificates with their shifts and methods included), or raise
the same error.
"""

from fractions import Fraction

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
                    "ValueError: t0 must be at least 3"), name

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
