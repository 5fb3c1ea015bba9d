"""The Fraction-built certificates of ``kvacert.constants``, kept as a test oracle.

Every c-dependent claim polynomial here is assembled from ``fraction_kernel``'s
``FracPoly`` values of Fraction coefficients (``scale``, sums, differences,
products, ``derivative``), every value at t0 is a ``FracPoly`` evaluation, and
the slack is floored by ``fraction_kernel``'s sign walk.  A claim becomes a
``Poly`` only to be decided by ``poly_positive_on_ray``, so no ``Poly``
arithmetic builds it.  ``kvacert.constants`` instead instantiates each claim
from its table of integer polynomials in c and 1/delta, cleared over the
numerators and denominators of c and delta.  The differential tests in
``test_cert_differential.py``, and ``TestCeiling`` in ``test_constants.py``
for the n2 ceiling, assert that both give the same ``repr``.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from fraction_kernel import FracPoly, quad_floor
from kvacert.constants import CertRecord
from kvacert.exactmath import Poly, QuadExpr, as_rat, poly_positive_on_ray

TWO_T2P3_SQ = FracPoly([18, 0, 12, 0, 2])  # 2*(t^2+3)^2
RAD_Z = FracPoly([0, 0, 0, -2, 1])  # t^4 - 2t^3
TWO_T_MINUS_1 = FracPoly([-1, 2])


def unit(c) -> Fraction:
    c = as_rat(c)
    if not (0 < c < 1):
        raise ValueError("c must lie in (0, 1)")
    return c


def positive(delta) -> Fraction:
    delta = as_rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return delta


def binding(t0: int) -> int:
    """``t0``, the theorem's binding t = k+1, which is at least 3 for every certificate."""
    if t0 < 3:
        raise ValueError(f"k = {t0 - 1} is below the theorem's floor k >= 2")
    return t0


def ray_record(id, claims, t0, side=(), margin=None, **fields) -> CertRecord:
    rays = [poly_positive_on_ray(Poly(p.coeffs), t0) for p in (*claims, *side)]
    if all(ray.method == "shift-coeffs" for ray in rays):
        status = "certified"
    elif any(ray.method == "undecided" for ray in rays):
        status = "undecided"
    else:
        status = "refuted"
    failed = next((ray for ray in rays[: len(claims)] if ray.method != "shift-coeffs"), None)
    return CertRecord(id, status, claims[-1](t0) if margin is None else margin, rays,
                      counterexample=failed.t0 if failed and failed.method == "endpoint" else None,
                      **fields)


def n2_chain_cert(c, t0: int = 3) -> CertRecord:
    c, t0 = unit(c), binding(t0)
    return ray_record("n2-chain", [TWO_T2P3_SQ.scale(1 - c) - FracPoly([1, 4])], t0,
                      details={"rhs_at_t0": Fraction(4 * t0 + 1)})


def ceiling_with_cert(kmin: int) -> tuple[Fraction, CertRecord]:
    t0 = kmin + 1
    c_exact = 1 - Fraction(4 * t0 + 1, 2 * (t0 * t0 + 3) ** 2)
    n = floor(c_exact * 1000)
    c, next_c = Fraction(n, 1000), Fraction(n + 1, 1000)
    margin = TWO_T2P3_SQ.scale(1 - c) - FracPoly([1, 4])
    details = {
        "ceiling": c,
        "exact_bound": c_exact,
        "next_candidate": next_c,
        "next_candidate_margin": (TWO_T2P3_SQ.scale(1 - next_c) - FracPoly([1, 4]))(t0),
    }
    return c, ray_record("n2-ceiling", [margin.derivative()], t0, margin=margin(t0),
                         details=details)


def case1_cert(c, t0: int = 3) -> CertRecord:
    c, t0 = unit(c), binding(t0)
    lhs = TWO_T2P3_SQ.scale(1 - c)
    rhs = TWO_T_MINUS_1 * TWO_T_MINUS_1
    return ray_record("case1-hodge", [lhs - rhs], t0, details={"rhs_at_t0": rhs(t0)})


def interval_containment_cert(c, t0: int = 3) -> CertRecord:
    c, t0 = unit(c), binding(t0)
    z1_lhs = FracPoly([-1, -1, 1])  # t^2 - t - 1
    z1_cleared = RAD_Z - z1_lhs * z1_lhs

    w = (1 - c) / c
    rhs = FracPoly([0, 1, w])  # w t^2 + t
    full = RAD_Z - rhs * rhs
    assert full.coeffs[0] == 0 and full.coeffs[1] == 0
    z2_quad = FracPoly(full.coeffs[2:])  # (1-w^2)t^2 - 2(1+w)t - 1

    t0q = Fraction(t0)
    z2_at_t0 = QuadExpr(t0q * t0q - t0q, 1, RAD_Z(t0q))
    surd_margin = z2_at_t0 - t0q * t0q / c
    return ray_record(
        "z-interval-containment", [z1_cleared, z2_quad], t0, side=[z1_lhs, rhs, RAD_Z],
        side_conditions=(
            "t^2 - t - 1 > 0 on the ray (z_1 comparison squared legitimately)",
            "((1-c)/c) t^2 + t > 0 on the ray (z_2 comparison squared legitimately)",
            "t^4 - 2t^3 >= 0 on the ray (radicand defined)",
            "t^2 > 0 (common factor removed from the z_2 form)",
        ),
        details={"z2_surd_margin_at_t0": surd_margin},
    )


def g_positive_cert(c, delta, t0: int = 3) -> CertRecord:
    c, delta, t0 = unit(c), positive(delta), binding(t0)
    lin = FracPoly([1, 1 / delta])  # 1 + t/delta
    g = TWO_T2P3_SQ.scale(1 / c) - lin * lin
    return ray_record("g-positive", [g], t0, details={"c": c, "delta": delta})


def pipeline_certs(c, t0: int = 3):
    c, t0 = unit(c), binding(t0)

    def refuted(margin, reason):
        return False, None, [CertRecord("delta-positive", "refuted", margin,
                                        details={"reason": reason})]

    radicand = c - Fraction(t0 * t0, 16 * (t0 * t0 + 3) ** 2)
    if radicand <= 0:
        return refuted(radicand, "radicand not positive")
    slack = QuadExpr(-t0, Fraction(t0) / c, radicand)
    if slack.sign() <= 0:
        return refuted(slack, "raw slack not positive")
    delta = Fraction(quad_floor(slack.p * 1000, slack.q * 1000, slack.s), 1000)
    if delta <= 0:
        return refuted(slack, "slack floors to zero at 3 decimals")
    records = [
        CertRecord("delta-positive", "certified", slack, details={"delta_floor_milli": delta}),
        n2_chain_cert(c, t0),
        case1_cert(c, t0),
        interval_containment_cert(c, t0),
        g_positive_cert(c, delta, t0),
    ]
    return all(r.certified for r in records), delta, records
