"""The constants pipeline: slack derivation, inequality certificates, grid scan."""

import random
from contextlib import suppress
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_certs
import test_cert_records
from kvacert import constants, exactmath
from kvacert.blowup import certify_instance, search_obstruction
from kvacert.constants import (
    C_MAX_DEFAULT,
    DELTA_DEFAULT,
    SCAN_BUDGET,
    CertRecord,
    ConstantsReport,
    SearchTooLarge,
    c_max_search,
    case1_cert,
    case_ds2_zero_cert,
    ceiling_from_n2,
    delta_raw,
    delta_raw_at,
    g_positive_cert,
    interval_containment_cert,
    lhs_increasing_cert,
    margin_fields,
    n2_chain_cert,
    pipeline_certs,
    render_margin,
    sigma_bound,
    standard_discrepancies,
    z1_decreasing_cert,
    z_roots,
)
from kvacert.exactmath import Poly, QuadExpr, quad_floor_milli
from kvacert.hyperell import DivisorClass

C = C_MAX_DEFAULT  # 887/1000
RADICAND_AT_3 = C - Fraction(9, 2304)  # c - t^2/(16 (t^2+3)^2) at t = 3


class TestDeltaRaw:
    def test_surd_structure(self):
        e = delta_raw(C)
        assert (e.p, e.q, e.s) == (-3, 3 / C, RADICAND_AT_3)

    def test_floors_to_the_published_slack(self):
        assert quad_floor_milli(delta_raw(C)) == DELTA_DEFAULT

    def test_unfloored_value_bracket(self):
        # strictly between 0.1783 and 0.1784: the excess over 0.178 sits in
        # the fourth decimal place
        e = delta_raw(C)
        assert e.cmp_rat(Fraction(1783, 10000)) > 0
        assert e.cmp_rat(Fraction(1784, 10000)) < 0
        assert e.cmp_rat(DELTA_DEFAULT) > 0

    def test_neighbors_floor_lower(self):
        assert quad_floor_milli(delta_raw(Fraction(888, 1000))) == Fraction(176, 1000)
        assert quad_floor_milli(delta_raw(Fraction(889, 1000))) == Fraction(174, 1000)

    def test_near_degenerate_radicand_gives_negative_slack(self):
        c = Fraction(9, 2304) + Fraction(1, 10**9)
        assert delta_raw(c).cmp_rat(Fraction(-29, 10)) < 0  # close to -3

    def test_nonpositive_radicand_rejected(self):
        with pytest.raises(ValueError):
            delta_raw(Fraction(9, 2304))
        with pytest.raises(ValueError):
            delta_raw(Fraction(3, 2))


class TestSlackMonotonicity:
    def test_certified(self):
        rec = lhs_increasing_cert()
        assert rec.certified

    def test_derivative_numerator_at_binding_t(self):
        rec = lhs_increasing_cert()
        assert rec.polys[0].value_at_t0 == 2 * 3 * (3 * 3 - 3) == 36

    def test_f3_bracket(self):
        f3 = lhs_increasing_cert().details["f3"]
        assert f3.cmp_rat(Fraction(10593, 10000)) > 0
        assert f3.cmp_rat(Fraction(10595, 10000)) < 0

    def test_slack_exceeds_published_value_at_binding_t(self):
        rec = lhs_increasing_cert()
        assert rec.margin.sign() > 0


class TestCeiling:
    def test_default_ceiling(self):
        # binding t = 3: (1 - c) * 288 >= 13 gives c <= 275/288, milli floor 954
        assert Fraction(1) - Fraction(13, 288) == Fraction(275, 288)
        assert floor(Fraction(275, 288) * 1000) == 954
        assert ceiling_from_n2(2) == Fraction(954, 1000)

    def test_next_milli_fails_at_binding_case(self):
        assert (1 - Fraction(955, 1000)) * 288 < 13

    def test_kmin_three(self):
        # binding t = 4: (1 - c) * 2 * 19^2 >= 17 gives c <= 705/722
        assert floor((1 - Fraction(17, 722)) * 1000) == 976
        assert ceiling_from_n2(3) == Fraction(976, 1000)

    def test_kmin_below_two_rejected(self):
        with pytest.raises(ValueError):
            ceiling_from_n2(1)

    def test_records_agree_with_the_fraction_oracle(self):
        for kmin in range(2, 41):
            assert repr(constants._ceiling_with_cert(kmin)) == repr(
                fraction_certs.ceiling_with_cert(kmin)), kmin


class TestN2Chain:
    def test_margin_at_binding_case(self):
        rec = n2_chain_cert(C)
        assert rec.certified
        assert rec.margin == (1 - C) * 288 - 13 == Fraction(2443, 125)

    def test_reproduces_chain_value(self):
        # (1-c) * 2 * ((k+1)^2+3)^2 at k = 2 with 1-c = 113/1000
        rec = n2_chain_cert(C)
        lhs = rec.margin + rec.details["rhs_at_t0"]
        assert lhs == Fraction(113, 1000) * 288 == Fraction(4068, 125)

    def test_refuted_near_one(self):
        rec = n2_chain_cert(Fraction(999, 1000))
        assert not rec.certified
        assert rec.counterexample == 3
        assert rec.margin == Fraction(1, 1000) * 288 - 13 < 0


class TestCase1:
    def test_certified_at_default_constant(self):
        rec = case1_cert(C)
        assert rec.certified
        assert rec.margin == Fraction(113, 1000) * 288 - 25 == Fraction(943, 125)

    def test_chain_lhs_value(self):
        rec = case1_cert(C)
        assert rec.margin + rec.details["rhs_at_t0"] == Fraction(4068, 125)  # 32.544

    def test_threshold_between_ceiling_and_default(self):
        # the constraint flips between 913/1000 and 914/1000; in particular it
        # never binds the returned constant (which g-positivity caps earlier)
        assert case1_cert(Fraction(913, 1000)).certified
        rec = case1_cert(Fraction(914, 1000))
        assert not rec.certified and rec.counterexample == 3

    def test_refuted_at_95_hundredths(self):
        # (1 - 95/100) * 288 = 14.4 < 25 = (2k+1)^2 at k = 2
        rec = case1_cert(Fraction(95, 100))
        assert not rec.certified
        assert rec.margin == Fraction(5, 100) * 288 - 25 == Fraction(-53, 5)
        assert rec.counterexample == 3


class TestIsotropicCase:
    def test_minimal_admissible_d(self):
        rec = case_ds2_zero_cert(2, 10)
        assert rec.certified
        assert rec.details["d_plus_2"] == 12 and rec.details["t2_plus_3"] == 12
        assert rec.details["d_plus_2"] > rec.details["t2"] == 9

    def test_k_three(self):
        rec = case_ds2_zero_cert(3, 17)
        assert rec.details["d_plus_2"] == 19 == rec.details["t2_plus_3"]
        assert rec.details["d_plus_2"] > rec.details["t2"] == 16

    def test_hypothesis_boundary_rejected(self):
        with pytest.raises(ValueError):
            case_ds2_zero_cert(2, 9)


class TestZRoots:
    def test_values_at_binding_t(self):
        z1, z2 = z_roots(3)
        assert (z1.p, z1.q, z1.s) == (6, -1, 27)
        assert (z2.p, z2.q, z2.s) == (6, 1, 27)
        assert z1.cmp_rat(1) < 0  # the lower root is below 1
        assert z1.cmp_rat(Fraction(803, 1000)) > 0 and z1.cmp_rat(Fraction(805, 1000)) < 0
        assert z2.cmp_rat(Fraction(1119, 100)) > 0 and z2.cmp_rat(Fraction(1120, 100)) < 0

    def test_double_root_at_two(self):
        z1, z2 = z_roots(2)
        assert z1.q == 0 and z2.q == 0
        assert z1.p == z2.p == 2

    def test_substitution_residual_vanishes_for_rational_t(self):
        rng = random.Random(31337)
        for _ in range(50):
            t = Fraction(rng.randint(2, 40), rng.randint(1, 7)) + 2  # any rational >= 2
            z1, z2 = z_roots(t)
            for z in (z1, z2):
                residual = z * z + (2 * t - 2 * t * t) * z + t * t
                assert residual.sign() == 0

    def test_small_t_rejected(self):
        with pytest.raises(ValueError):
            z_roots(Fraction(3, 2))


class TestZ1Decreasing:
    def test_cleared_difference_is_minus_two_t_cubed(self):
        rec = z1_decreasing_cert()
        assert rec.certified
        assert -rec.polys[0].poly == Poly([0, 0, 0, -2])


class TestIntervalContainment:
    def test_certified_at_default_constant(self):
        rec = interval_containment_cert(C)
        assert rec.certified
        # the z_1 side clears to t^2 - 2t - 1, which is 2 at t = 3
        assert rec.polys[0].value_at_t0 == 2

    def test_z2_quadratic_matches_direct_expansion(self):
        rec = interval_containment_cert(C)
        w = (1 - C) / C
        expected = Poly([-1, -2 * (1 + w), 1 - w * w])
        z2_cert = rec.polys[1]
        assert z2_cert.poly == expected
        assert rec.margin == expected(3)

    def test_z2_surd_margin_recomputed(self):
        margin = interval_containment_cert(C).details["z2_surd_margin_at_t0"]
        assert (margin.p, margin.q, margin.s) == (6 - 9 / C, 1, 27)
        assert margin.cmp_rat(Fraction(104, 100)) > 0
        assert margin.cmp_rat(Fraction(106, 100)) < 0

    def test_refuted_when_threshold_outgrows_upper_root(self):
        # at c = 45/100 the threshold t^2/c grows like 2.22 t^2, beyond z_2 ~ 2t^2
        rec = interval_containment_cert(Fraction(45, 100))
        assert not rec.certified
        w = (1 - Fraction(45, 100)) / Fraction(45, 100)
        assert 1 - w * w < 0  # negative leading coefficient of the cleared form

    def test_lower_root_threshold(self):
        # containment needs z_2(3) > 9/c, i.e. c > 6 - sqrt(27) ~ 0.8038
        assert interval_containment_cert(Fraction(81, 100)).certified
        assert not interval_containment_cert(Fraction(80, 100)).certified


class TestGPositivity:
    def test_exact_margin_at_certified_pair(self):
        rec = g_positive_cert(C, DELTA_DEFAULT)
        assert rec.certified
        expected = Fraction(288000, 887) - Fraction(1589, 89) ** 2
        assert expected == Fraction(41643073, 7025927)
        assert rec.margin == expected

    def test_rounding_sensitivity(self):
        rec = g_positive_cert(C, Fraction(176, 1000))
        assert not rec.certified
        assert rec.counterexample == 3

    def test_fails_at_nine_tenths_with_its_floored_slack(self):
        c = Fraction(9, 10)
        slack = quad_floor_milli(delta_raw(c))
        assert slack == Fraction(155, 1000)
        rec = g_positive_cert(c, slack)
        assert not rec.certified and rec.counterexample == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            g_positive_cert(Fraction(3, 2), DELTA_DEFAULT)
        with pytest.raises(ValueError):
            g_positive_cert(C, 0)


class TestSigmaBound:
    def test_default_slack(self):
        value = sigma_bound(3, DELTA_DEFAULT)
        assert value == Fraction(1500, 89)
        assert floor(value) == 16

    def test_large_slack(self):
        assert sigma_bound(3, 3) == 1

    def test_k_three(self):
        assert floor(sigma_bound(4, DELTA_DEFAULT)) == 22

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sigma_bound(2, DELTA_DEFAULT)
        with pytest.raises(ValueError):
            sigma_bound(3, 0)


class TestFloor:
    # every entry below the theorem's floor k >= 2 (t0 = k+1 >= 3) is refused by _at alone,
    # so each gives the one message, the words of point_bound's warning
    @pytest.mark.parametrize("call", [
        (pipeline_certs, C, 2),
        (n2_chain_cert, C, 2),
        (case1_cert, C, 2),
        (interval_containment_cert, C, 2),
        (g_positive_cert, C, DELTA_DEFAULT, 2),
        (delta_raw_at, C, 2),
        (c_max_search, constants.GRID_STEP_DEFAULT, 1),
        (ceiling_from_n2, 1),
        (case_ds2_zero_cert, 1, 10),
        (sigma_bound, 2, DELTA_DEFAULT),
        (search_obstruction, DivisorClass(3, 3), 1, 4),
    ], ids=lambda call: call[0].__name__)
    def test_one_message(self, call):
        entry, *args = call
        with pytest.raises(ValueError) as info:
            entry(*args)
        assert str(info.value) == "k = 1 is below the theorem's floor k >= 2"


class TestPipeline:
    def test_default_scan_reproduces_published_constants(self):
        report = c_max_search()
        assert report.c_max == C
        assert report.delta_max == DELTA_DEFAULT
        assert report.c_ceiling == Fraction(954, 1000)
        assert report.feasible
        assert report.scanned == 954 - 887 + 1
        assert all(rec.certified for rec in report.per_constraint)

    def test_reported_max_is_grid_maximum(self):
        # every milli grid point above the winner fails some certificate
        for n in range(888, 955):
            ok, _, _ = pipeline_certs(Fraction(n, 1000), 3)
            assert not ok, f"c = {n}/1000 unexpectedly passed"
        ok, delta, _ = pipeline_certs(C, 3)
        assert ok and delta == DELTA_DEFAULT

    def test_next_two_grid_points_fail_g_positivity(self):
        for n in (888, 889):
            ok, _, certs = pipeline_certs(Fraction(n, 1000), 3)
            assert not ok
            failing = [rec.id for rec in certs if not rec.certified]
            assert failing == ["g-positive"]
            g = next(rec for rec in certs if rec.id == "g-positive")
            assert g.counterexample == 3

    def test_ten_thousandth_grid(self):
        # the floor of c* ~ 0.8877545 at grid step 1/10000
        report = c_max_search(Fraction(1, 10000))
        assert report.c_max == Fraction(8877, 10000)
        assert report.delta_max == Fraction(177, 1000)
        assert report.scanned == 664

    def test_coarse_grid_is_infeasible(self):
        # on the 1/10 grid, 9/10 fails g-positivity with its floored slack and
        # 8/10 already violates the interval containment (8/10 < 6 - sqrt(27))
        report = c_max_search(Fraction(1, 10), 2)
        assert not report.feasible
        assert report.c_max is None and report.delta_max is None

    def test_kmin_three_scan(self):
        report = c_max_search(Fraction(1, 1000), 3)
        assert report.c_ceiling == Fraction(976, 1000)
        assert report.c_max == Fraction(926, 1000)
        assert report.delta_max == Fraction(150, 1000)

    def test_verified_at_the_defaults_needs_the_published_constants(self):
        report = c_max_search()
        assert report.verified
        for field, value in (("c_max", Fraction(886, 1000)), ("delta_max", Fraction(177, 1000)),
                             ("c_ceiling", Fraction(955, 1000))):
            off = report._replace(**{field: value})
            assert off.feasible and not off.verified, field

    def test_verified_elsewhere_means_feasible(self):
        kmin_three = c_max_search(Fraction(1, 1000), 3)
        assert kmin_three.c_max != C and kmin_three.verified
        coarse = c_max_search(Fraction(1, 10), 2)
        assert not coarse.feasible and not coarse.verified
        assert c_max_search(Fraction(1, 10000), 2).verified  # c_max 8871/10000

    @pytest.mark.parametrize("c", [Fraction(3), Fraction(1), Fraction(0), Fraction(-1, 2)])
    def test_c_outside_unit_interval_rejected(self, c):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            pipeline_certs(c)

    def test_nonpositive_radicand_reported(self):
        # 1/1000 - 9/2304 < 0: the slack surd is undefined at t = 3
        ok, delta, certs = pipeline_certs(Fraction(1, 1000))
        assert not ok and delta is None
        [rec] = certs
        assert (rec.id, rec.status) == ("delta-positive", "refuted")
        assert rec.details["reason"] == "radicand not positive"
        assert rec.margin == Fraction(1, 1000) - Fraction(9, 2304)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            c_max_search(Fraction(0), 2)
        with pytest.raises(ValueError):
            c_max_search(Fraction(1, 1000), 1)

    @pytest.mark.parametrize("step,points", [
        (Fraction(1, 10**6), 954_000),
        (Fraction(1, 10**8), 95_400_000),
        (Fraction(1, 10**400), 954 * 10**397),
    ])
    def test_oversized_grid_refused_before_scanning(self, step, points):
        with pytest.raises(SearchTooLarge) as info:
            c_max_search(step)
        assert info.value.estimate == points
        assert f"{points} grid points exceed the budget of {SCAN_BUDGET}" in str(info.value)

    def test_budget_counts_points_below_the_ceiling(self, monkeypatch):
        # the default grid has floor(954/1000 / (1/1000)) = 954 points below the ceiling
        monkeypatch.setattr(constants, "SCAN_BUDGET", 954)
        assert c_max_search().c_max == C
        monkeypatch.setattr(constants, "SCAN_BUDGET", 953)
        with pytest.raises(SearchTooLarge):
            c_max_search()

    def test_every_step_of_a_hundred_thousandth_is_within_budget(self):
        # the ceiling is below 1 for every kmin
        for kmin in (2, 3, 10, 100, 10**4):
            assert floor(ceiling_from_n2(kmin) * 10**5) <= SCAN_BUDGET


def count_calls(monkeypatch, targets) -> dict:
    """Wrap each ``owner.name`` of ``targets`` with a counter; the counts, by name."""
    counts = {name: 0 for _, name in targets}

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return counts


class TestScanWork:
    """The work of the scan, counted as ``bench/test_bench.py`` pins it.

    Every grid point whose slack floors above zero decides 8 ray claims, each
    by one Taylor shift, and the default scan makes 68 such points plus the 6
    claims of its three records that do not depend on the grid: 550 in all.
    A change that skips or repeats a shift fails here.  Each point also calls
    ``_slack`` and the four public certificates whose spans the benchmark's
    tracer times, so a point that stops calling one of them fails here too.
    A scan calls ``_slack`` at no other place: the slack of 887/1000 that
    ``lhs_increasing_cert`` and ``standard_discrepancies`` read is derived once, at import.
    """

    CERTS = ("n2_chain_cert", "case1_cert", "interval_containment_cert", "g_positive_cert")

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, [(constants, "pipeline_certs"),
                                         (constants, "poly_positive_on_ray"),
                                         (exactmath.Poly, "shift"),
                                         (constants, "_slack"),
                                         *[(constants, name) for name in self.CERTS]])

    def expected(self, points, rays, slacks):
        return {"pipeline_certs": points, "poly_positive_on_ray": rays, "shift": rays,
                "_slack": slacks, **dict.fromkeys(self.CERTS, points)}

    @pytest.mark.parametrize("c", [C, Fraction(888, 1000), Fraction(8879, 10000)])
    def test_one_point(self, calls, c):
        _, delta, _ = constants.pipeline_certs(c, 3)
        assert delta > 0
        assert calls == self.expected(1, 8, 1)

    def test_default_scan(self, calls):
        assert c_max_search().scanned == 68
        assert calls == self.expected(68, 550, 68)

    # the two fine-grid rungs of the benchmark's ladder that scan the most points
    @pytest.mark.parametrize("kmin, points, rays", [(2, 664, 5318), (3, 495, 3966)])
    def test_fine_grid_scan(self, calls, kmin, points, rays):
        assert c_max_search(Fraction(1, 10000), kmin).scanned == points
        assert calls == self.expected(points, rays, points)


class TestOneClaimFormat:
    """Every ray claim is an integer row of ``constants._CLAIMS``, cleared by ``_claim``.

    So no certificate builds a polynomial by ``Poly`` arithmetic: the operators
    below are reached by the Fraction oracle and the benchmark's tracer, not by
    the constants pipeline.
    """

    ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "scale", "derivative")

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, [(Poly, name) for name in self.ARITHMETIC])

    @pytest.mark.parametrize("kmin", [2, 3])
    @pytest.mark.parametrize("step", [Fraction(1, 1000), Fraction(1, 10000)])
    def test_scan(self, calls, kmin, step):
        assert c_max_search(step, kmin).feasible
        assert calls == dict.fromkeys(self.ARITHMETIC, 0)

    @pytest.mark.parametrize("c", [C, Fraction(888, 1000)])
    def test_one_point(self, calls, c):
        pipeline_certs(c)
        assert calls == dict.fromkeys(self.ARITHMETIC, 0)

    def test_fixed_records(self, calls):
        assert z1_decreasing_cert().certified and lhs_increasing_cert().certified
        assert calls == dict.fromkeys(self.ARITHMETIC, 0)

    def test_every_row_is_a_claim_of_a_certificate(self):
        decided = {name for claims, _, _ in constants._CERTS.values() for name, _ in claims}
        assert set(constants._CLAIMS) - decided == set()


class TestDetailsRestateNothing:
    """No ``details`` value of a record restates another field of the same record.

    A value restates a field when it equals, in type and value, the record's
    margin, a ray's t0 or value at t0, or a ray's polynomial or its negation,
    or the margin plus or minus another numeric detail of the record.  Nor is
    a ray record's side conditions a copy: it is its ``_CERTS`` row's tuple.
    """

    @staticmethod
    def restated(rec) -> list[str]:
        # (the detail a field is derived from, or None; the field)
        fields = [(None, rec.margin)]
        for ray in rec.polys:
            fields += [(None, f) for f in (ray.t0, ray.value_at_t0, ray.poly, -ray.poly)]
        numbers = (Fraction, QuadExpr)
        if isinstance(rec.margin, numbers):
            for other, x in rec.details.items():
                if isinstance(x, numbers):
                    with suppress(ValueError):  # two surds of different radicands do not add
                        fields += [(other, rec.margin + x), (other, rec.margin - x)]
        return [key for key, value in rec.details.items()
                if any(src != key and (type(value), value) == (type(f), f) for src, f in fields)]

    def records(self):
        """The records of the golden's calls, and the ceilings it does not hold."""
        for thunk in test_cert_records.calls().values():
            out = thunk()
            if isinstance(out, CertRecord):
                yield out
            elif isinstance(out, ConstantsReport):
                yield from out.per_constraint
            else:
                yield from out[2]  # pipeline_certs
        for kmin in range(3, 6):
            yield constants._ceiling_with_cert(kmin)[1]

    def test_no_detail_restates_its_record(self):
        assert [(rec.id, key) for rec in self.records() for key in self.restated(rec)] == []

    def test_side_conditions_are_the_rows_texts(self):
        rays = [rec for rec in self.records() if rec.id in constants._CERTS]
        assert all(rec.side_conditions is constants._CERTS[rec.id][2] for rec in rays)
        assert {rec.id for rec in rays if rec.side_conditions} == {
            "z-interval-containment", "z1-decreasing", "lhs-increasing"}


class TestNoUndecidedClaims:
    """For t0 >= 3, every ray claim of the pipeline is decided by its Taylor shift.

    This is why dropping the Sturm fallback changed no verdict: whenever the
    constant term p(t0) is positive, so is every other shifted coefficient.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        c=st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda c: 0 < c < 1),
        delta=st.one_of(st.fractions(min_value=0, max_value=50, max_denominator=10**4),
                        st.integers(1, 10**6).map(lambda n: Fraction(1, n))).filter(bool),
        t0=st.integers(3, 200),
    )
    def test_certificates_never_undecided(self, c, delta, t0):
        records = [n2_chain_cert(c, t0), case1_cert(c, t0), interval_containment_cert(c, t0),
                   g_positive_cert(c, delta, t0), *pipeline_certs(c, t0)[2]]
        for rec in records:
            assert rec.status != "undecided", rec.id
            assert all(claim.method != "undecided" for claim in rec.polys), rec.id

    def test_undecided_claim_is_not_refuted(self, monkeypatch):
        # no certificate leaves a claim undecided, so the record builder is asked directly,
        # for a certificate of one temporary row: t^2 - 7t + 13 is 1 at t0 = 3 and its shift
        # is u^2 - u + 1, whose constant term is positive but whose u coefficient is not,
        # so nothing is decided
        row = (((13,), (-7,), (1,)), 0)
        monkeypatch.setitem(constants._CLAIMS, "undecided", row)
        monkeypatch.setitem(constants._TERMS, "undecided", constants._terms(*row))
        monkeypatch.setitem(constants._CERTS, "undecided", constants._row(("undecided",)))
        rec = constants._ray_record("undecided", 3)
        assert rec.status == "undecided" and not rec.certified
        assert (rec.margin, rec.counterexample) == (1, None)
        [claim] = rec.polys
        assert claim.method == "undecided"
        assert claim.shifted == Poly([1, -1, 1])


class TestDiscrepancies:
    def test_threshold_entry_present_with_exact_value(self):
        report = c_max_search()
        entry = {d.id: d for d in report.discrepancies}["z2-threshold-value"]
        # z_2(3) - 9/c = 6 - 9000/887 + sqrt(27)
        assert (entry.exact.p, entry.exact.q, entry.exact.s) == (Fraction(-3678, 887), 1, 27)
        assert entry.exact.cmp_rat(Fraction(104, 100)) > 0
        assert entry.exact.cmp_rat(Fraction(106, 100)) < 0
        assert set(entry.alternatives) == {"z2(3) - 9/c", "z2'(3) - 9/c", "z2'(3) - 6/c*3"}

    def test_all_expected_entries_present(self):
        ids = {d.id for d in standard_discrepancies()}
        assert ids == {
            "z2-threshold-value",
            "f-argument",
            "z1-derivative-sign",
            "lsq-lower-bound-factor",
        }

    def test_z1_derivative_recomputation(self):
        entry = next(d for d in standard_discrepancies() if d.id == "z1-derivative-sign")
        assert entry.exact.sign() == -1  # the true z_1'(3) = 5 - sqrt(27) < 0


class TestMarginRendering:
    def test_fields_and_rendering(self):
        surd = QuadExpr(6, -1, 27)
        assert margin_fields(None) == (None, None)
        assert margin_fields(Fraction(-53, 5)) == ("-53/5", "-10.600000")
        assert margin_fields(surd) == ("6 + -1*sqrt(27)", "0.803848")
        assert render_margin(None) == "n/a"
        assert render_margin(Fraction(-53, 5)) == "-53/5 (~ -10.600000)"
        assert render_margin(surd) == "6 + -1*sqrt(27) (~ 0.803848)"


class TestCertifyInstance:
    #: the README's certified instance: (12, 12), k = 2, d = 10, r = 28
    INSTANCE = (DivisorClass(12, 12), 2, 10, 28)

    def test_certified_at_the_published_constants(self):
        assert certify_instance(*self.INSTANCE, C, DELTA_DEFAULT).certified

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(-1)])
    def test_nonpositive_delta_rejected(self, delta):
        # the argument bounds sum m_i by (k+1)/delta, which needs delta > 0
        with pytest.raises(ValueError, match="^delta must be positive$"):
            certify_instance(*self.INSTANCE, C, delta)

    @pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(5, 4)])
    def test_c_outside_unit_interval_rejected(self, c):
        with pytest.raises(ValueError, match=r"^c must lie in \(0, 1\)$"):
            certify_instance(*self.INSTANCE, c, DELTA_DEFAULT)


class TestGeneralizedBindingCase:
    def test_slack_at_kmin_three_binding_point(self):
        # t0 = 4: the radicand is c - 16/(16 * 19^2) = c - 1/361
        e = delta_raw_at(Fraction(926, 1000), 4)
        assert e.s == Fraction(926, 1000) - Fraction(1, 361)
        assert quad_floor_milli(e) == Fraction(150, 1000)
