"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value is either exact (zero tolerance) or an exact
rational bracket decided by sign tests.
"""

import functools
import itertools
import json
import random
import time
from fractions import Fraction
from math import floor

from kvacert.blowup import (
    BlowupClass,
    blowup_intersect,
    certify_instance,
    n_class,
    search_obstruction,
)
from kvacert.constants import (
    C_MAX_DEFAULT,
    DELTA_DEFAULT,
    c_max_search,
    delta_raw,
    g_positive_cert,
    pipeline_certs,
    z1_decreasing_cert,
    z_roots,
)
from kvacert.exactmath import Poly, QuadExpr, quad_floor_milli
from kvacert.hyperell import DivisorClass, intersect, self_intersection
from test_cli import invoke

DELTA = Fraction(178, 1000)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {number} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "constants self-verification")
def test_constants_reproduced_exactly():
    start = time.monotonic()
    report = c_max_search()
    elapsed = time.monotonic() - start
    assert report.c_max == Fraction(887, 1000)
    assert report.delta_max == Fraction(178, 1000)
    assert report.c_ceiling == Fraction(954, 1000)
    assert elapsed < 10.0, f"constants pipeline took {elapsed:.1f}s"


@criterion(2, "neighborhood refutation at 888 and 889")
def test_next_grid_points_fail_exactly():
    for n in (888, 889):
        c = Fraction(n, 1000)
        slack = quad_floor_milli(delta_raw(c))
        # independent exact evaluation of g(3) = (2/c)*144 - (1 + 3/slack)^2
        oracle = Fraction(2, 1) / c * 144 - (1 + 3 / slack) ** 2
        assert oracle < 0
        rec = g_positive_cert(c, slack)
        assert not rec.certified
        assert rec.counterexample == 3
        assert rec.margin == oracle
        ok, _, certs = pipeline_certs(c, 3)
        assert not ok
        assert [r.id for r in certs if not r.certified] == ["g-positive"]


@criterion(3, "exact brackets for f(3) and z1(3)")
def test_surd_brackets_via_sign_tests():
    c = C_MAX_DEFAULT
    f3 = QuadExpr(0, 1 / c, c - Fraction(9, 2304))
    assert (f3 - Fraction(10593, 10000)).sign() == 1
    assert (Fraction(10595, 10000) - f3).sign() == 1
    z1, _ = z_roots(3)
    assert (z1 - Fraction(803, 1000)).sign() == 1
    assert (Fraction(805, 1000) - z1).sign() == 1


@criterion(4, "exact positivity margin of g at the certified pair")
def test_g_margin_exact():
    # oracle: g(3) = 288000/887 - (1 + 3000/178)^2 with 1 + 3000/178 = 1589/89
    assert 1 + Fraction(3000, 178) == Fraction(1589, 89)
    oracle = Fraction(288000, 887) - Fraction(1589, 89) ** 2
    assert oracle == Fraction(41643073, 7025927)
    rec = g_positive_cert(C_MAX_DEFAULT, DELTA_DEFAULT)
    assert rec.certified
    assert rec.margin == oracle
    assert Fraction(59, 10) < oracle < Fraction(6)


@criterion(5, "discrepancy report contains the recomputed threshold gap")
def test_discrepancy_entry():
    report = c_max_search()
    entry = {d.id: d for d in report.discrepancies}["z2-threshold-value"]
    # z_2(3) - (1000/887)*9 = -3678/887 + sqrt(27), far from the quoted 0.001
    assert (entry.exact - Fraction(104, 100)).sign() == 1
    assert (Fraction(106, 100) - entry.exact).sign() == 1
    assert "0.001" in entry.quoted


def _theorem_instances():
    instances = [(12, 12, 2, 10, 28)]
    for k in (2, 3, 4):
        d = (k + 1) ** 2 + 1
        a_min = d + 2
        for a in (a_min, a_min + 1, a_min + 3):
            for b in (a, a + 2):
                l2 = 2 * a * b
                r_max = floor(Fraction(887, 1000) * l2 / (k + 1) ** 2)
                for r in (2, r_max):
                    inst = (a, b, k, d, r)
                    if r >= 2 and inst not in instances:
                        instances.append(inst)
    return instances[:21]


@criterion(6, "obstruction oracle on 21 instances plus the witness instance")
def test_obstruction_oracle():
    start = time.monotonic()
    instances = _theorem_instances()
    assert len(instances) == 21 and instances[0] == (12, 12, 2, 10, 28)
    for a, b, k, d, r in instances:
        # the instance is certified: its hypotheses and certificate checks hold
        assert certify_instance(DivisorClass(a, b), k, d, r, C_MAX_DEFAULT, DELTA).certified
        assert a >= d + 2 and b >= d + 2
        assert 2 <= r <= floor(Fraction(887, 1000) * 2 * a * b / (k + 1) ** 2)
        for formula in ("paper", "standard"):
            witnesses = search_obstruction(DivisorClass(a, b), k, r, DELTA, formula=formula)
            assert witnesses == [], (a, b, k, d, r, formula)
    for formula in ("paper", "standard"):
        witnesses = search_obstruction(DivisorClass(3, 3), 2, 4, DELTA, formula=formula)
        hits = [w for w in witnesses if (w.d_s.a, w.d_s.b, sum(w.mults)) == (1, 1, 1)]
        assert len(hits) == 1 and hits[0].nd == 3 and hits[0].d2 == 1
        assert hits[0].mults == (1, 0, 0, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"obstruction searches took {elapsed:.1f}s"


@criterion(7, "lattice property suite")
def test_lattice_properties():
    # the pairing itself, hyperell.intersect, over all 441^2 pairs of the box [-10, 10]^2
    coords = [(a, b) for a in range(-10, 11) for b in range(-10, 11)]
    classes = {xy: DivisorClass(*xy) for xy in coords}
    pairing = {(x, z): intersect(classes[x], classes[z]) for x in coords for z in coords}

    # the closed form a1 b2 + a2 b1, symmetry and the rank-2 index inequality
    # (d.e)^2 >= d^2 e^2, each on every pair
    for (x, z), p in pairing.items():
        assert p == x[0] * z[1] + z[0] * x[1], (x, z)
        assert p == pairing[z, x], (x, z)
        assert p * p >= pairing[x, x] * pairing[z, z], (x, z)

    # bilinearity on the box: P(0, z) = 0, and P(x + e_i, z) = P(x, z) + P(e_i, z) for every x
    # and x + e_i in the box; walking from 0 by unit steps then gives
    # P(x + y, z) = P(x, z) + P(y, z) whenever x, y and x + y lie in the box, and symmetry
    # carries it to the second argument
    for z in coords:
        assert pairing[(0, 0), z] == 0, z
        for e in ((1, 0), (0, 1)):
            for x in coords:
                step = (x[0] + e[0], x[1] + e[1])
                if step in classes:
                    assert pairing[step, z] == pairing[x, z] + pairing[e, z], (x, e, z)

    # blow-up index inequality on 10^4 random classes with r <= 4
    rng = random.Random(5117)
    checked = 0
    for _ in range(10_000):
        r = rng.randint(0, 4)
        x = BlowupClass(
            DivisorClass(rng.randint(-5, 5), rng.randint(-5, 5)),
            tuple(rng.randint(-5, 5) for _ in range(r)),
        )
        y = BlowupClass(
            DivisorClass(rng.randint(-5, 5), rng.randint(-5, 5)),
            tuple(rng.randint(-5, 5) for _ in range(r)),
        )
        x2 = blowup_intersect(x, x)
        if x2 > 0:
            assert x2 * blowup_intersect(y, y) <= blowup_intersect(x, y) ** 2
            checked += 1
    assert checked > 1000

    # adjoint-square identity N^2 = L^2 - (k+1)^2 r on a (k <= 6, r <= 50) grid
    for k in range(0, 7):
        for r in range(0, 51):
            for aa, bb in itertools.product((-5, -1, 0, 1, 3, 5), repeat=2):
                l_s = DivisorClass(aa, bb)
                n = n_class(l_s, k, r)
                assert blowup_intersect(n, n) == self_intersection(l_s) - (k + 1) ** 2 * r


def _positive_certificates():
    report = c_max_search()
    records = list(report.per_constraint)
    records.append(g_positive_cert(C_MAX_DEFAULT, DELTA_DEFAULT))
    for n in (888, 889):
        c = Fraction(n, 1000)
        records.append(g_positive_cert(c, quad_floor_milli(delta_raw(c))))
    records.append(z1_decreasing_cert())
    return records


@criterion(8, "polynomial certificate soundness")
def test_certificates_reevaluate():
    rng = random.Random(1789)
    for rec in _positive_certificates():
        for ray in rec.polys:
            if ray.method == "shift-coeffs":
                for _ in range(100):
                    t = ray.t0 + Fraction(rng.randint(0, 10**6), rng.randint(1, 10**3))
                    assert ray.poly(t) > 0
            else:
                assert ray.method == "endpoint"
                assert ray.poly(ray.t0) <= 0

    # symbolic expansion oracle for the z1-decrease cleared form, coefficients
    # frozen from the hand expansion of (2t-1)^2(t^4-2t^3) - (2t^3-3t^2)^2
    lhs = Poly([0, 0, 0, -2, 9, -12, 4])  # (2t-1)^2 (t^4 - 2t^3)
    rhs = Poly([0, 0, 0, 0, 9, -12, 4])  # (2t^3 - 3t^2)^2
    assert Poly([-1, 2]) * Poly([-1, 2]) * Poly([0, 0, 0, -2, 1]) == lhs
    assert Poly([0, 0, -3, 2]) * Poly([0, 0, -3, 2]) == rhs
    assert lhs - rhs == Poly([0, 0, 0, -2])
    assert z1_decreasing_cert().polys[0].poly == rhs - lhs


@criterion(9, "end-to-end instance certification")
def test_cli_end_to_end():
    ok = invoke(["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "28", "--json"])
    assert ok.exit_code == 0
    payload = json.loads(ok.output)
    assert payload["derived"]["N2"] == 36
    assert Fraction(payload["derived"]["seshadri_lower_sq"]) == Fraction(2007, 196)
    assert payload["verdict"] == "k-very-ample-certified"

    over = invoke(["check", "-a", "12", "-b", "12", "-k", "2", "-d", "10", "-r", "29", "--json"])
    assert over.exit_code == 1
    failed = [c["name"] for c in json.loads(over.output)["hypothesis_checks"] if not c["ok"]]
    assert failed == ["r-le-r_max"]
