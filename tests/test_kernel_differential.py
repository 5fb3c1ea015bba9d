"""Differential tests: the integer kernel of ``kvacert.exactmath`` against the Fraction kernel.

``fraction_kernel`` holds the Fraction implementation that the integer one
replaced.  For every input both must give identical coefficients, values,
Taylor shifts and surd floors.  Ray-positivity results are identical wherever
the Fraction kernel decided by the Taylor shift; where it fell back to Sturm
root counting, the integer kernel leaves the claim ``undecided`` and carries
the same shifted coefficients.  A sympy expansion is a third, independent
oracle for the Taylor shift.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_kernel import FracPoly, positive_on_ray, quad_floor, quad_sign
from kvacert.constants import _slack, ceiling_from_n2, pipeline_certs
from kvacert.exactmath import Poly, QuadExpr, poly_positive_on_ray, quad_floor_milli

rats = st.fractions(min_value=-40, max_value=40, max_denominator=12)
coefficients = st.one_of(st.just(Fraction(0)), st.integers(-20, 20).map(Fraction), rats)


@st.composite
def coefficient_lists(draw):
    """Ascending coefficients: free ones or a product of linear factors, maybe zero-padded."""
    if draw(st.booleans()):
        cs = draw(st.lists(coefficients, max_size=7))
    else:
        cs = [draw(rats.filter(bool))]
        for root in draw(st.lists(rats, max_size=5)):
            cs = [Fraction(0)] + cs  # multiply by t ...
            for i, c in enumerate(cs[1:]):
                cs[i] -= root * c  # ... and subtract root times the old product
    return cs + [Fraction(0)] * draw(st.integers(0, 2))


points = st.one_of(
    st.integers(-6, 9).map(Fraction),
    st.fractions(min_value=-6, max_value=9, max_denominator=16),
)


def ray_result(p: Poly, t0: Fraction) -> tuple:
    r = poly_positive_on_ray(p, t0)
    return r.positive, r.method, r.shifted.coeffs, r.counterexample


def oracle_ray_result(f: FracPoly, t0: Fraction) -> tuple:
    """The Fraction kernel's result, with a Sturm decision read as ``undecided``."""
    positive, method, _, point, _ = positive_on_ray(f, t0)
    if method == "sturm":
        positive, method, point = False, "undecided", None
    return positive, method, f.shift(t0).coeffs, point


class TestPolyAgainstFractionKernel:
    @settings(max_examples=300, deadline=None)
    @given(coefficient_lists(), coefficient_lists(), points)
    def test_coeffs_arithmetic_and_values(self, cs, ds, t):
        p, q = Poly(cs), Poly(ds)
        f, g = FracPoly(cs), FracPoly(ds)
        assert p.coeffs == f.coeffs
        assert p.den > 0 and gcd(p.den, *p.num) == 1 and p.num[-1:] != (0,)
        pairs = [
            (p + q, f + g), (p - q, f - g), (p * q, f * g), (-p, -f),
            (p.scale(t), f.scale(t)), (p.derivative(), f.derivative()),
        ]
        for mine, theirs in pairs:
            assert mine.coeffs == theirs.coeffs
            assert mine == Poly(theirs.coeffs)
        assert p(t) == f(t)
        assert p.is_zero == f.is_zero
        num, den = [c.numerator for c in cs], t.denominator
        assert Poly.over(num, den) == Poly([Fraction(n, den) for n in num])

    @settings(max_examples=300, deadline=None)
    @given(coefficient_lists(), points)
    def test_shift(self, cs, t0):
        shifted = Poly(cs).shift(t0)
        assert shifted.coeffs == FracPoly(cs).shift(t0).coeffs
        assert shifted(0) == Poly(cs)(t0)

    @settings(max_examples=300, deadline=None)
    @given(coefficient_lists(), st.integers(-12, 12))
    def test_shift_by_int(self, cs, n):
        # an integer t0, as in every pipeline shift, takes the path without rescaling
        p = Poly(cs)
        assert p.shift(n) == p.shift(Fraction(n))
        assert p.shift(n).coeffs == FracPoly(cs).shift(Fraction(n)).coeffs
        # the shift keeps its integers as they come: they must already be in lowest terms
        assert p.shift(n) == Poly(p.shift(n).coeffs)

    @settings(max_examples=300, deadline=None)
    @given(coefficient_lists(), points)
    def test_positive_on_ray(self, cs, t0):
        p, f = Poly(cs), FracPoly(cs)
        if p.is_zero:
            for decide, poly in ((poly_positive_on_ray, p), (positive_on_ray, f)):
                with pytest.raises(ValueError):
                    decide(poly, t0)
            return
        assert ray_result(p, t0) == oracle_ray_result(f, t0)

    def test_every_method_is_exercised(self):
        cases = [([1, 2, 1], 0), ([-1, 0, 1], 0), ([8, -6, 1], 0), ([5, -4, 1], 0)]
        methods, oracle_methods = set(), set()
        for cs, t0 in cases:
            result = ray_result(Poly(cs), Fraction(t0))
            assert result == oracle_ray_result(FracPoly(cs), Fraction(t0))
            methods.add((result[0], result[1]))
            oracle_methods.add(positive_on_ray(FracPoly(cs), Fraction(t0))[:2])
        assert methods == {(True, "shift-coeffs"), (False, "endpoint"), (False, "undecided")}
        # both Sturm outcomes of the Fraction kernel map to undecided
        assert {(False, "sturm"), (True, "sturm")} <= oracle_methods


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestShiftAgainstSympy:
    @settings(max_examples=200, deadline=None)
    @given(cs=coefficient_lists(), t0=points)
    def test_shift_matches_expansion(self, sympy, cs, t0):
        x = sympy.Symbol("x")
        expr = sum((sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(cs)),
                   sympy.Integer(0))
        shifted = sympy.Poly(sympy.expand(expr.subs(x, x + sympy.Rational(t0.numerator,
                                                                         t0.denominator))), x)
        expected = [Fraction(int(c.p), int(c.q)) for c in reversed(shifted.all_coeffs())]
        while expected and expected[-1] == 0:
            expected.pop()
        assert list(Poly(cs).shift(t0).coeffs) == expected


surd_parts = st.one_of(
    st.integers(-30, 30).map(Fraction),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4),
)
radicands = st.one_of(
    st.fractions(min_value=0, max_value=10**4, max_denominator=10**3),  # mostly irrational roots
    st.fractions(min_value=0, max_value=100, max_denominator=50).map(lambda r: r * r),  # squares
)


class TestFloorAgainstFractionKernel:
    @settings(max_examples=500, deadline=None)
    @given(surd_parts, surd_parts, radicands)
    def test_floor(self, p, q, s):
        assert QuadExpr(p, q, s).floor() == quad_floor(p, q, s)

    @settings(max_examples=300, deadline=None)
    @given(surd_parts, surd_parts, radicands)
    def test_sign(self, p, q, s):
        assert QuadExpr(p, q, s).sign() == quad_sign(p, q, s)

    @settings(max_examples=300, deadline=None)
    @given(surd_parts, surd_parts, radicands)
    def test_floor_milli(self, p, q, s):
        # quad_floor_milli scales p and q by 1000 without the general QuadExpr product
        e = QuadExpr(p, q, s)
        if e.sign() >= 0:
            assert quad_floor_milli(e) == Fraction(quad_floor(1000 * p, 1000 * q, s), 1000)
            assert quad_floor_milli(e) == Fraction((e * 1000).floor(), 1000)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-50, 50), surd_parts, st.fractions(min_value=0, max_value=50,
                                                          max_denominator=30))
    def test_floor_at_integer_values(self, n, q, r):
        # p + q*sqrt(r^2) == n exactly, and values just below and above n
        p = n - q * r
        for eps in (Fraction(0), Fraction(1, 10**9), Fraction(-1, 10**9)):
            assert QuadExpr(p + eps, q, r * r).floor() == quad_floor(p + eps, q, r * r)
            # at n = 0 the sign needs the exact comparison p^2 = q^2 s
            e = QuadExpr(p - n + eps, q, r * r)
            assert e.sign() == quad_sign(e.p, e.q, e.s)

    def test_floor_of_every_scanned_slack(self):
        # The floors the constants scan takes at kmin 2..11 (t0 = kmin + 1): 1000 * delta_raw(c)
        # on the whole 1/1000 grid, and on the 1/10000 grid from the ceiling down to 85/100.
        # That point is feasible, so no scan goes below it.  The pipeline floors the slack on
        # integers (_slack); the Fraction kernel floors the surd.
        for t0 in range(3, 13):
            assert pipeline_certs(Fraction(85, 100), t0)[0]
            top = int(ceiling_from_n2(t0 - 1) * 10000)
            grid = ([Fraction(n, 1000) for n in range(1, 1000)]
                    + [Fraction(n, 10000) for n in range(8500, top + 1)])
            for c in grid:
                radicand, slack, milli = _slack(c, t0)
                assert radicand == c - Fraction(t0 * t0, 16 * (t0 * t0 + 3) ** 2)
                if slack is None:
                    assert radicand <= 0 and milli is None  # radicand not positive
                    continue
                assert slack == QuadExpr(-t0, t0 / c, radicand)
                e = slack * 1000
                floor = quad_floor(e.p, e.q, e.s)
                assert e.floor() == floor
                assert milli == (floor if quad_sign(e.p, e.q, e.s) > 0 else None)
