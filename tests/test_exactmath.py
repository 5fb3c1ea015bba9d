"""Exact arithmetic layer: rationals, surds, ray-positivity certificates."""

import random
from fractions import Fraction

import pytest

from kvacert.exactmath import (
    Poly,
    QuadExpr,
    as_rat,
    decimal_str,
    frac_str,
    poly_positive_on_ray,
    quad_floor_milli,
)

MILLI = Fraction(1, 1000)


class TestAsRat:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rat(0.5)


class TestQuadSign:
    def test_sqrt27_minus_one_positive(self):
        assert QuadExpr(-1, 1, 27).sign() == 1

    def test_five_below_sqrt27(self):
        # 5 - sqrt(27) < 0, hence 6 - sqrt(27) < 1: the lower Hodge root at
        # t = 3 is below 1
        assert QuadExpr(5, -1, 27).sign() == -1
        assert QuadExpr(-5, 1, 27).sign() == 1

    def test_zero_expression(self):
        assert QuadExpr(0, 0, 5).sign() == 0

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadExpr(1, 1, -1)

    def test_exact_cancellation(self):
        # 3 - 2*sqrt(9/4) = 0
        assert QuadExpr(3, -2, Fraction(9, 4)).sign() == 0

    def test_agrees_with_rational_evaluation_on_perfect_squares(self):
        rng = random.Random(7151)
        for _ in range(10_000):
            p = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            root = Fraction(rng.randint(0, 30), rng.randint(1, 10))
            value = p + q * root  # rational because s = root^2 is a perfect square
            expected = (value > 0) - (value < 0)
            assert QuadExpr(p, q, root * root).sign() == expected


class TestQuadFloorMilli:
    def test_exact_multiple_kept(self):
        assert quad_floor_milli(QuadExpr(Fraction(1, 2))) == Fraction(500, 1000)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quad_floor_milli(QuadExpr(-1, 0, 0))

    def test_bracket_property_bulk(self):
        # floor <= e < floor + 1/1000, both sides decided by exact signs
        rng = random.Random(99331)
        checked = 0
        while checked < 10_000:
            p = Fraction(rng.randint(0, 4000), rng.randint(1, 100))
            q = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
            s = Fraction(rng.randint(0, 900), rng.randint(1, 10))
            e = QuadExpr(p, q, s)
            if e.sign() < 0:
                continue
            f = quad_floor_milli(e)
            assert e.cmp_rat(f) >= 0
            assert e.cmp_rat(f + MILLI) < 0
            checked += 1

    def test_floor_of_surds(self):
        assert QuadExpr(0, 1, 2).floor() == 1
        assert QuadExpr(0, -1, 2).floor() == -2
        assert QuadExpr(Fraction(-7, 2)).floor() == -4


class TestQuadArithmetic:
    def test_same_radicand_product(self):
        # (1 + sqrt(3))(2 - sqrt(3)) = -1 + sqrt(3)
        out = QuadExpr(1, 1, 3) * QuadExpr(2, -1, 3)
        assert (out.p, out.q, out.s) == (-1, 1, 3)

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            QuadExpr(0, 1, 2) + QuadExpr(0, 1, 3)

    def test_rational_scaling(self):
        e = (QuadExpr(-3, Fraction(3, 2), 5) * 2) + 6
        assert (e.p, e.q, e.s) == (0, 3, 5)

    def test_constructor_coerces_and_normalises(self):
        rng = random.Random(37)
        for _ in range(200):
            p, q, s = (Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3))
            s = abs(s)
            e = QuadExpr(p, q, s)
            assert all(type(x) is Fraction for x in (e.p, e.q, e.s))
            assert e == QuadExpr(str(p), str(q), str(s))
            if p.denominator == 1:
                assert e == QuadExpr(p.numerator, q, s)
            if q == 0 or s == 0:  # a zero q or s zeroes both
                assert (e.q, e.s) == (0, 0) and e == QuadExpr(p)
        assert QuadExpr(3, 0, 5) == QuadExpr("3", 2, "0") == QuadExpr(Fraction(3))
        assert repr(QuadExpr(1, 1, 2)) == (
            "QuadExpr(p=Fraction(1, 1), q=Fraction(1, 1), s=Fraction(2, 1))")
        for s in (-1, "-1/2", Fraction(-3, 7)):
            with pytest.raises(ValueError, match="negative radicand"):
                QuadExpr(1, 1, s)
        with pytest.raises(TypeError):
            QuadExpr(1, 0.5, 2)

    def test_bounds_contain_value(self):
        e = QuadExpr(1, 2, 7)
        lo, hi = e.bounds()
        assert e.cmp_rat(lo) >= 0 and e.cmp_rat(hi) <= 0
        assert 0 < hi - lo <= Fraction(2, 10**12)


class TestPolyPositiveOnRay:
    def test_quadratic_from_root_comparison(self):
        # (t^2-t-1)^2 vs t^4-2t^3 clears to t^2-2t-1; positive from t = 3 on
        res = poly_positive_on_ray(Poly([-1, -2, 1]), 3)
        assert res.positive and res.method == "shift-coeffs"
        # p(3+u) = u^2 + 4u + 2, expanded by hand
        assert res.shifted == Poly([2, 4, 1])

    def test_negative_cubic_refuted_at_endpoint(self):
        res = poly_positive_on_ray(Poly([0, 0, 0, -2]), 3)
        assert not res.positive
        assert res.counterexample == 3
        assert res.method == "endpoint" and res.shifted == Poly([-54, -54, -18, -2])

    def test_monomial(self):
        res = poly_positive_on_ray(Poly([0, 1]), 1)
        assert res.positive

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_positive_on_ray(Poly([]), 0)

    def test_undecided_without_coefficient_proof(self):
        # t^2 - 6t + 10 has no real roots but a negative shifted coefficient at 0
        p = Poly([10, -6, 1])
        res = poly_positive_on_ray(p, 0)
        assert (res.positive, res.method, res.counterexample) == (False, "undecided", None)
        assert res.shifted == p  # the certificate is carried even when it decides nothing
        assert poly_positive_on_ray(p, 3).method == "shift-coeffs"  # p(3+u) = u^2 + 1

    def test_dip_between_two_roots_is_undecided(self):
        # (t-2)(t-4): positive at 0, dips negative on (2, 4); no counterexample is claimed
        res = poly_positive_on_ray(Poly([8, -6, 1]), 0)
        assert (res.positive, res.method, res.counterexample) == (False, "undecided", None)

    def test_irrational_root_counterexample(self):
        # t^2 - 10: first root sqrt(10), refutation point beyond it
        p = Poly([-10, 0, 1])
        res = poly_positive_on_ray(p, 1)
        assert not res.positive
        assert p(res.counterexample) <= 0

    def test_root_counting(self):
        # (t-2)(t-4) has two roots above 0, one above 3 and none above 5
        p = Poly([8, -6, 1])
        assert poly_positive_on_ray(p, 0).method == "undecided"  # p(0) > 0, u coefficient < 0
        assert [poly_positive_on_ray(p, t0).positive for t0 in (0, 3, 4, 5)] == [
            False, False, False, True]
        assert poly_positive_on_ray(p, 4 + Fraction(1, 1000)).positive

    def test_verdicts_never_contradicted_by_dense_sampling(self):
        # sampling can only refute a positivity claim, never confirm one
        rng = random.Random(424242)
        for _ in range(200):
            coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
            p = Poly(coeffs)
            if p.is_zero:
                continue
            t0 = Fraction(rng.choice([0, 1, 3]))
            res = poly_positive_on_ray(p, t0)
            sampled_nonpositive = None
            for i in range(0, 1001):
                t = t0 + Fraction(i, 10)
                if p(t) <= 0:
                    sampled_nonpositive = t
                    break
            if res.positive:
                assert sampled_nonpositive is None
            elif res.counterexample is not None:
                assert p(res.counterexample) <= 0


class TestPolyAlgebra:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0, 0]).is_zero

    def test_shift_round_trip(self):
        p = Poly([3, -1, Fraction(5, 7), 2])
        q = p.shift(Fraction(9, 4))
        for t in (0, 1, Fraction(-3, 2)):
            assert q(t) == p(t + Fraction(9, 4))

    def test_product_degree_and_values(self):
        p, q = Poly([1, 1]), Poly([-1, 1])
        assert (p * q) == Poly([-1, 0, 1])

    def test_over_normalises_and_leaves_its_argument_alone(self):
        num = [2, 4, 0]
        assert Poly.over(num, 6) == Poly([Fraction(1, 3), Fraction(2, 3)])
        assert num == [2, 4, 0]

    @pytest.mark.parametrize("den", [0, -1, -6])
    def test_over_rejects_a_denominator_that_is_not_positive(self, den):
        with pytest.raises(ValueError, match="denominator must be positive"):
            Poly.over([1, 2], den)


class TestRendering:
    def test_decimal_six_places(self):
        assert decimal_str(Fraction(1, 3)) == "0.333333"
        assert decimal_str(Fraction(-1, 8)) == "-0.125000"
        assert decimal_str(Fraction(15, 10**7)) == "0.000002"  # half away from zero
        assert decimal_str(Fraction(-15, 10**7)) == "-0.000002"
        assert decimal_str(-12345678) == "-12345678.000000"

    def test_decimal_agrees_with_divmod_rounding(self):
        # the rendering it replaced: divmod, then one up when the remainder is half or more
        rng = random.Random(61)
        for _ in range(5000):
            x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**7))
            scaled = abs(x) * 10**6
            q, r = divmod(scaled.numerator, scaled.denominator)
            digits = str(q + (2 * r >= scaled.denominator)).rjust(7, "0")
            assert decimal_str(x) == f"{'-' if x < 0 else ''}{digits[:-6]}.{digits[-6:]}"

    def test_frac_str_always_has_denominator(self):
        assert frac_str(Fraction(36)) == "36/1"
        assert frac_str(Fraction(178, 1000)) == "89/500"

    def test_quad_approx_str(self):
        assert QuadExpr(6, -1, 27).approx_str() == "0.803848"
