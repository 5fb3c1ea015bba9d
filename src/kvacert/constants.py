"""Exact re-derivation of every constant behind the point-count bound.

The blow-up theorem certified by this package bounds the number of points by
r <= c * L^2/(k+1)^2 and runs a positivity argument with a slack delta > 0.
Each inequality that argument needs is certified here as an exact object:

* ``delta_raw`` -- the surd t*((1/c)*sqrt(c - t^2/(16(t^2+3)^2)) - 1) whose
  3-decimal round-down is the usable slack; at the binding t = 3 and
  c = 887/1000 it floors to 178/1000.
* ``n2_chain_cert`` / ``ceiling_from_n2`` -- the requirement
  (1-c)*2(t^2+3)^2 >= 4t+1 (so that N^2 >= 4k+5) and the hard ceiling it
  imposes on c, 954/1000 at k >= 2.
* ``case1_cert`` -- the Hodge-index contradiction for candidates with
  positive square: (1-c)*2(t^2+3)^2 > (2t-1)^2.
* ``z_roots`` / ``interval_containment_cert`` -- the roots
  z = t^2 - t -+ sqrt(t^4-2t^3) of the Hodge-index quadratic
  z^2 + (2t-2t^2)z + t^2 and the containment of [1, t^2/c] in the open
  root interval (equivalently z_1(t) < 1 and z_2(t) > t^2/c).
* ``g_positive_cert`` -- positivity of
  g(t) = (2/c)(t^2+3)^2 - (1 + t/delta)^2, the constraint that actually
  binds c at 887/1000.
* ``c_max_search`` -- the grid scan that puts the pieces together and
  reports the largest feasible c together with every certificate and a
  list of recomputed values that differ from their commonly quoted forms.

Every "for all k >= kmin" claim is reduced to an exact check at the binding
t0 = kmin + 1 plus a polynomial positivity certificate on the ray
[t0, oo); see :mod:`kvacert.exactmath`.  One cached helper, ``_at``, holds
the values at t0 and is the one place that refuses the theorem's floor k >= 2.
Every ray claim is an integer row of one table, ``_CLAIMS``, and every ray
certificate a row of ``_CERTS``: its claims, side claims and side-condition
texts.  One builder, ``_ray_record``, reads a certificate's row at c (and
delta) and returns its :class:`CertRecord` with status, margin and counterexample.
Some certificate decides each claim; no ``details`` entry equals its record's
margin, a ray's t0 or value at t0, a ray's polynomial or its negation, or the
margin plus or minus another detail.
One helper, ``_slack``, derives the radicand, the slack surd and its 3-decimal
floor from the integers of c; every slack here is read off it.

This module imports no other module of the package but :mod:`kvacert.exactmath`.
The verdict on one instance of the theorem, which checks the Seshadri bound
against the constants certified here, is :func:`kvacert.blowup.certify_instance`.
"""

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, partial
from math import floor, isqrt
from types import MappingProxyType

from .exactmath import (
    Poly,
    PolyRayResult,
    QuadExpr,
    RatLike,
    as_rat,
    decimal_str,
    frac_str,
    poly_positive_on_ray,
)

#: the binding case of the main theorem: k = 2, i.e. t = k + 1 = 3
BINDING_T = 3

#: the constants reproduced by the default pipeline run, and the grid step of its scan
C_MAX_DEFAULT = Fraction(887, 1000)
DELTA_DEFAULT = Fraction(178, 1000)
GRID_STEP_DEFAULT = Fraction(1, 1000)

#: Most grid points :func:`c_max_search` scans.  A step of 1/100000 or larger
#: stays within it for every kmin, because the ceiling is below 1.
SCAN_BUDGET = 10**5


#: the default of the mapping fields of the records below: empty and read-only
_EMPTY: Mapping = MappingProxyType({})
#: the coefficient 1 of a surd, built once rather than coerced from an int at every point
_ONE = Fraction(1)


class SearchTooLarge(ValueError):
    """A search refused for its size.

    Either the grid of :func:`c_max_search` exceeds :data:`SCAN_BUDGET`, or an
    obstruction search exceeds a budget of :mod:`kvacert.blowup` (its estimated
    steps or the multiplicities of its witnesses); ``estimate`` is the size
    over the bound.
    """

    def __init__(self, message: str, estimate: int) -> None:
        super().__init__(message)
        self.estimate = estimate


class CertRecord(namedtuple(
        "CertRecord", "id status margin polys side_conditions details counterexample",
        defaults=(None, (), (), _EMPTY, None))):
    """One certified (or refuted) inequality, with everything needed to re-check it."""

    __slots__ = ()
    id: str
    status: str  # "certified" | "refuted" | "undecided", see _ray_record
    margin: Fraction | QuadExpr | None
    polys: Sequence[PolyRayResult]
    side_conditions: Sequence[str]
    details: Mapping
    counterexample: Fraction | None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


class Discrepancy(namedtuple("Discrepancy", "id quoted recomputed exact note alternatives",
                             defaults=(None, "", _EMPTY))):
    """A quoted value that exact recomputation does not reproduce."""

    __slots__ = ()
    id: str
    quoted: str
    recomputed: str
    exact: QuadExpr | Fraction | None
    note: str
    alternatives: Mapping[str, str]


class ConstantsReport(namedtuple(
        "ConstantsReport",
        "c_max delta_max c_ceiling per_constraint discrepancies grid_step kmin feasible scanned")):
    """Outcome of the constants pipeline: the constants plus their certificates."""

    __slots__ = ()
    c_max: Fraction | None
    delta_max: Fraction | None
    c_ceiling: Fraction
    per_constraint: list[CertRecord]
    discrepancies: list[Discrepancy]
    grid_step: Fraction
    kmin: int
    feasible: bool
    scanned: int

    @property
    def verified(self) -> bool:
        """The verdict of ``constants verify``.

        At the default grid step 1/1000 and kmin 2 the scan must reproduce
        c_max = 887/1000, delta_max = 178/1000 and the ceiling 954/1000
        exactly; at any other setting a feasible constant suffices.
        """
        if (self.grid_step, self.kmin) == (GRID_STEP_DEFAULT, 2):
            return (self.c_max, self.delta_max, self.c_ceiling) == (
                C_MAX_DEFAULT, DELTA_DEFAULT, Fraction(954, 1000))
        return self.feasible


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def _unit(c: RatLike, name: str = "c") -> Fraction:
    """``c`` as a Fraction; it must lie in (0, 1)."""
    if type(c) is not Fraction:
        c = as_rat(c)
    n, d = c.as_integer_ratio()
    if not 0 < n < d:
        raise ValueError(f"{name} must lie in (0, 1)")
    return c


def _positive(delta: RatLike) -> Fraction:
    """``delta`` as a Fraction; it must be positive."""
    delta = as_rat(delta)
    if delta.numerator <= 0:
        raise ValueError("delta must be positive")
    return delta


class _AtT0(namedtuple("_AtT0", "t minus_t t2 f two_t2p3_sq n2_rhs case1_rhs rad_z")):
    """The values at t0 that no grid point changes."""

    __slots__ = ()
    t: Fraction  # t0 itself
    minus_t: Fraction  # -t0, the rational part of the slack surd
    t2: int  # t0^2
    f: int  # 4(t0^2+3): the radicand c - t0^2/(16(t0^2+3)^2) is c - t2/f^2
    two_t2p3_sq: Fraction  # 2(t0^2+3)^2
    n2_rhs: Fraction  # 4t0 + 1
    case1_rhs: Fraction  # (2t0 - 1)^2
    rad_z: Fraction  # t0^4 - 2t0^3


@lru_cache(maxsize=128)  # bounded, since t0 is the caller's; a scan uses one
def _at(t0: int) -> _AtT0:
    """The values at t0, the theorem's binding t = k+1; the one refusal of a k below 2."""
    if t0 < 3:
        raise ValueError(f"k = {t0 - 1} is below the theorem's floor k >= 2")
    t2 = t0 * t0
    return _AtT0(Fraction(t0), Fraction(-t0), t2, 4 * (t2 + 3), *map(Fraction, (
        2 * (t2 + 3) ** 2, 4 * t0 + 1, (2 * t0 - 1) ** 2, t2 * (t2 - 2 * t0))))


def _slack(c: Fraction, t0: int) -> tuple[Fraction, QuadExpr | None, int | None]:
    """(radicand, slack, m) at c = n/d and t0 >= 3, with m = floor(1000 * slack).

    With f = 4(t0^2+3) the radicand c - t0^2/f^2 is r/(d f^2) for the integer
    r = n f^2 - d t0^2, and the slack is t0*(sqrt(z)/w - 1) for z = d*r and
    w = n*f.  So the slack is positive iff z > w^2, and then
    floor(1000 * slack) = floor(1000 t0 sqrt(z)/w) - 1000 t0 takes one integer
    square root.  The slack is None unless r > 0, and m is None unless the
    slack is positive.
    """
    n, d = c.as_integer_ratio()
    at = _at(t0)
    f2 = at.f * at.f
    r = n * f2 - d * at.t2
    radicand = Fraction(r, d * f2)
    if r <= 0:
        return radicand, None, None
    slack = QuadExpr(at.minus_t, Fraction(t0 * d, n), radicand)
    z, w = d * r, n * at.f
    if z <= w * w:
        return radicand, slack, None
    # floor(1000 t0 sqrt(z)/w) = floor(sqrt(y))//w for y = (1000 t0)^2 z
    return radicand, slack, isqrt(10**6 * at.t2 * z) // w - 1000 * t0


def delta_raw_at(c: RatLike, t0: int) -> QuadExpr:
    """Seshadri slack t0*((1/c)*sqrt(c - t0^2/(16(t0^2+3)^2)) - 1) at a binding t0 >= 3."""
    c = _unit(c)
    radicand, slack, _ = _slack(c, t0)
    if slack is None:
        raise ValueError(f"radicand {radicand} is not positive at c = {c}")
    return slack


def delta_raw(c: RatLike) -> QuadExpr:
    """The slack surd at the binding case t = 3 (minimality in t is certified separately)."""
    return delta_raw_at(c, BINDING_T)


#: The slack at c = 887/1000 and t = 3, and f(3) = sqrt(radicand)/c, the factor of the slack
#: t*(f(t) - 1): derived once, for ``lhs_increasing_cert`` and ``standard_discrepancies``.
_SLACK_DEFAULT = delta_raw(C_MAX_DEFAULT)
_F3 = QuadExpr(0, 1 / C_MAX_DEFAULT, _SLACK_DEFAULT.s)


#: Every ray claim: name -> (rows, den), the claim sum(rows[i] t^i)/x_den.
#: rows[i][m] is the coefficient of t^i x_m, x_m = c^j delta^-k for m = j + 3k (i <= 4, j, k <= 2).
_CLAIMS = {
    "n2-chain": (((17, -18), (-4,), (12, -12), (), (2, -2)), 0),  # (1-c)*2(t^2+3)^2 - (4t+1)
    "n2-ceiling": (((-4,), (24, -24), (), (8, -8)), 0),  # its t-derivative (1-c)(8t^3+24t) - 4
    "case1-hodge": (((17, -18), (4,), (8, -12), (), (2, -2)), 0),  # ... - (2t-1)^2
    "z2": (((0, 0, -1), (0, -2), (-1, 2)), 2),  # ((2c-1)t^2 - 2ct - c^2)/c^2
    "z2-side": (((), (0, 1), (1, -1)), 1),  # ((1-c)t^2 + ct)/c = w t^2 + t
    # (2(t^2+3)^2 - c(1 + t/delta)^2)/c = g(t)
    "g-positive": (((18, -1), (0, 0, 0, 0, -2), (12, 0, 0, 0, 0, 0, 0, -1), (), (2,)), 1),
    "z1-cleared": (((-1,), (-2,), (1,)), 0),  # t^4-2t^3 - (t^2-t-1)^2 = t^2-2t-1: z_1(t) < 1
    "z1-lhs": (((-1,), (-1,), (1,)), 0),  # t^2 - t - 1
    "rad-z": (((), (), (), (-2,), (1,)), 0),  # t^4 - 2t^3, the radicand of the roots z_1, z_2
    "z1-decreasing": (((), (), (), (2,)), 0),  # (2t^3-3t^2)^2 - (2t-1)^2 (t^4-2t^3) = 2t^3
    "2t-1": (((-1,), (2,)), 0),
    "2t^3-3t^2": (((), (), (-3,), (2,)), 0),
    "lhs-increasing": (((), (-6,), (), (2,)), 0),  # 2t^3 - 6t = 2t(t^2-3)
}


def _terms(rows, den) -> tuple[list[tuple[int, int, int]], int, int, int, int]:
    """A claim as the form :func:`_claim` sums: (terms (a, i, col), den col, J, K, degree + 1).

    J and K are the claim's own degrees in c and in 1/delta, and x_m sits in
    column j + (J+1) k of the products that clear them.
    """
    entries = [(a, i, m) for i, row in enumerate(rows) for m, a in enumerate(row) if a]
    ms = [m for _, _, m in entries] + [den]
    jmax, kmax = max(m % 3 for m in ms), max(m // 3 for m in ms)
    cols = [m % 3 + (jmax + 1) * (m // 3) for m in ms]
    return [(a, i, col) for (a, i, _), col in zip(entries, cols)], cols[-1], jmax, kmax, len(rows)


_TERMS = {name: _terms(rows, den) for name, (rows, den) in _CLAIMS.items()}


def _claim(name: str, c: Fraction | None = None, delta: Fraction | None = None) -> Poly:
    """Claim ``name`` at c = n/d (and delta = p/q), cleared to its own degrees J and K.

    The column of x_m = c^j delta^-k is d^J p^K x_m = n^j d^(J-j) q^k p^(K-k).
    """
    terms, den, jmax, kmax, size = _TERMS[name]
    n, d = c.as_integer_ratio() if jmax else (1, 1)
    x = [d, n] if jmax == 1 else [d * d, n * d, n * n] if jmax == 2 else [1]
    if kmax:
        p, q = delta.as_integer_ratio()
        x = [u * v for v in ([p, q] if kmax == 1 else [p * p, q * p, q * q]) for u in x]
    num = [0] * size
    for a, i, m in terms:
        num[i] += a * x[m]
    return Poly.over(num, x[den])


#: the claims free of c, built once
_FIXED = {name: _claim(name) for name, (_, _, jmax, kmax, _) in _TERMS.items() if not jmax + kmax}


def _row(claims: tuple[str, ...], side: tuple[str, ...] = (), texts: tuple[str, ...] = ()):
    """A row of ``_CERTS``: (claims then side claims as (name, Poly if free of c), last, texts)."""
    return tuple((name, _FIXED.get(name)) for name in claims + side), len(claims) - 1, texts


#: Every ray certificate: id -> the row of its claims, side claims and side-condition texts.
#: A side claim decides each side condition that is not evident.
_CERTS = {
    **{id: _row((id,)) for id in ("n2-chain", "n2-ceiling", "case1-hodge", "g-positive")},
    "z-interval-containment": _row(("z1-cleared", "z2"), ("z1-lhs", "z2-side", "rad-z"), (
        "t^2 - t - 1 > 0 on the ray (z_1 comparison squared legitimately)",
        "((1-c)/c) t^2 + t > 0 on the ray (z_2 comparison squared legitimately)",
        "t^4 - 2t^3 >= 0 on the ray (radicand defined)",
        "t^2 > 0 (common factor removed from the z_2 form)",
    )),
    "z1-decreasing": _row(("z1-decreasing",), ("2t-1", "2t^3-3t^2", "rad-z"), (
        "2t-1 > 0 on the ray (squaring preserves the order)",
        "2t^3-3t^2 > 0 on the ray (right side nonnegative before squaring)",
        "t^4-2t^3 >= 0 on the ray (radicand defined)",
    )),
    "lhs-increasing": _row(("lhs-increasing",), (), (
        "(t^2+3)^3 > 0 (cleared denominator is positive)",)),
}

#: a CertRecord from the tuple of its fields, without the namedtuple's Python-level ``__new__``
_record = partial(tuple.__new__, CertRecord)


def _ray_record(id: str, t0: RatLike, c: Fraction | None = None, delta: Fraction | None = None,
                margin: Fraction | QuadExpr | None = None,
                details: Mapping = _EMPTY) -> CertRecord:
    """The record of "every claim and side claim of ``_CERTS[id]`` is positive on [t0, oo)".

    ``polys`` holds the ray certificates of the claims, then of the side claims,
    all decided in one pass.  The record is certified if every one is positive
    (method ``"shift-coeffs"``), undecided if one is left undecided, and refuted
    otherwise.  Unless given, the margin is the last claim at t0, read off its
    certificate: the shifted polynomial's constant term is p(t0), so no claim is
    evaluated twice.  The counterexample is t0 if a claim, not a side claim, is
    the first to fail and is refuted at its endpoint; the side conditions are
    the row's texts.
    """
    claims, last, texts = _CERTS[id]
    rays = []
    status, counterexample = "certified", None
    for i, (name, fixed) in enumerate(claims):
        ray = poly_positive_on_ray(fixed or _claim(name, c, delta), t0)
        rays.append(ray)
        if ray.method == "undecided":
            status = "undecided"
        elif ray.method == "endpoint" and status == "certified":
            status, counterexample = "refuted", ray.t0 if i <= last else None
    if margin is None:
        margin = rays[last].value_at_t0
    return _record((id, status, margin, rays, texts, details, counterexample))


def n2_chain_cert(c: RatLike, t0: int = BINDING_T) -> CertRecord:
    """Certify (1-c)*2*(t^2+3)^2 >= 4t+1 for all t >= t0 (gives N^2 >= 4k+5)."""
    c, at = _unit(c), _at(t0)
    return _ray_record("n2-chain", at.t, c, details={"rhs_at_t0": at.n2_rhs})


def case1_cert(c: RatLike, t0: int = BINDING_T) -> CertRecord:
    """Certify (1-c)*2*(t^2+3)^2 > (2t-1)^2 for all t >= t0.

    This is the contradiction closing the positive-square case: a candidate
    with D^2 > 0 would force N^2 <= (N.D)^2 <= (2k+1)^2 while
    N^2 >= (1-c)*L^2 >= (1-c)*2((k+1)^2+3)^2.
    """
    c, at = _unit(c), _at(t0)
    return _ray_record("case1-hodge", at.t, c, details={"rhs_at_t0": at.case1_rhs})


def case_ds2_zero_cert(k: int, d: int) -> CertRecord:
    """Certify the contradiction for isotropic candidates, (k+1)^2+3 <= d+2 > (k+1)^2.

    An isotropic obstruction class would need d+2 <= L.D_S <= (k+1)^2 while
    d+2 >= (k+1)^2+3; the two bounds are incompatible for every admissible d.
    """
    t2 = _at(k + 1).t2
    if d < t2 + 1:
        raise ValueError(f"d must exceed (k+1)^2 = {t2}")
    gap = d + 2 - t2
    return CertRecord(
        id="case-ds2-zero",
        status="certified",
        margin=Fraction(gap),
        details={"d_plus_2": d + 2, "t2_plus_3": t2 + 3, "t2": t2},
    )


def z_roots(t: RatLike) -> tuple[QuadExpr, QuadExpr]:
    """Both roots t^2 - t -+ sqrt(t^4 - 2t^3) of z^2 + (2t-2t^2)z + t^2.

    The substitution residual is recomputed exactly and must vanish.
    """
    t = as_rat(t)
    if t < 2:
        raise ValueError("t must be at least 2 (nonnegative radicand)")
    p = t * t - t
    s = t**4 - 2 * t**3
    roots = (QuadExpr(p, -1, s), QuadExpr(p, 1, s))
    for q in (-1, 1):
        # (p + q*sqrt(s))^2 + (2t-2t^2)(p + q*sqrt(s)) + t^2, split by radical part
        rational_part = p * p + q * q * s + (2 * t - 2 * t * t) * p + t * t
        surd_part = q * (2 * p + 2 * t - 2 * t * t)
        if rational_part != 0 or surd_part != 0:
            raise AssertionError("root substitution residual is nonzero")
    return roots


def z1_decreasing_cert() -> CertRecord:
    """Certify that the lower root z_1(t) = t^2 - t - sqrt(t^4-2t^3) decreases for t >= 3.

    Clearing the radical from z_1'(t) < 0 amounts to
    (2t-1)^2 (t^4-2t^3) < (2t^3-3t^2)^2; the difference of the two sides is
    exactly -2t^3, so positivity of 2t^3 on the ray settles it.
    """
    return _ray_record("z1-decreasing", BINDING_T)


def lhs_increasing_cert() -> CertRecord:
    """Certify that the slack t*((1/c)*sqrt(c - t^2/(16(t^2+3)^2)) - 1) grows with t.

    The radicand grows iff t^2/(t^2+3)^2 shrinks; clearing the (positive)
    denominator (t^2+3)^3 from the negated derivative leaves 2t(t^2-3),
    which is positive on t >= 3.  The remaining factor t*(f(t)-1) is a
    product of positive increasing functions once f(3) > 1 is checked,
    which is done exactly: f(3) lies in (1.0593, 1.0595) at c = 887/1000,
    and the slack itself exceeds 178/1000 there.
    """
    f3_lo = _F3.cmp_rat(Fraction(10593, 10000)) > 0
    f3_hi = _F3.cmp_rat(Fraction(10595, 10000)) < 0
    slack_above = _SLACK_DEFAULT.cmp_rat(DELTA_DEFAULT) > 0
    record = _ray_record(
        "lhs-increasing", BINDING_T, margin=_SLACK_DEFAULT - DELTA_DEFAULT,
        details={"f3": _F3, "f3_bracket": (Fraction(10593, 10000), Fraction(10595, 10000))},
    )
    return record if f3_lo and f3_hi and slack_above else record._replace(status="refuted")


def ceiling_from_n2(kmin: int = 2) -> Fraction:
    """Largest 3-decimal c with (1-c)*2((k+1)^2+3)^2 >= 4k+5 for every k >= kmin."""
    value, _ = _ceiling_with_cert(kmin)
    return value


def _ceiling_with_cert(kmin: int) -> tuple[Fraction, CertRecord]:
    t0 = kmin + 1
    at = _at(t0)
    c_exact = 1 - at.n2_rhs / at.two_t2p3_sq
    n = floor(c_exact * 1000)
    c = Fraction(n, 1000)
    binding_margin = _claim("n2-chain", c)(t0)
    next_margin = _claim("n2-chain", Fraction(n + 1, 1000))(t0)
    record = _ray_record(
        "n2-ceiling", t0, c, margin=binding_margin,
        details={
            "ceiling": c,
            "exact_bound": c_exact,
            "next_candidate": Fraction(n + 1, 1000),
            "next_candidate_margin": next_margin,
        },
    )
    if binding_margin < 0 or not record.certified or next_margin >= 0:
        raise RuntimeError("ceiling certificate failed unexpectedly")
    return c, record


def interval_containment_cert(c: RatLike, t0: int = BINDING_T) -> CertRecord:
    """Certify [1, t^2/c] inside the open root interval (z_1(t), z_2(t)) for t >= t0.

    Two radical-cleared claims, each with its squaring side conditions:

    * z_1(t) < 1  <=>  t^2 - 2t - 1 > 0 (after squaring t^2-t-1 < sqrt(rad));
    * z_2(t) > t^2/c  <=>  (1-w^2)t^2 - 2(1+w)t - 1 > 0 with w = (1-c)/c
      (after squaring sqrt(rad) > w t^2 + t and dividing by t^2 > 0).

    The radicand t0^4 - 2t0^3 is positive at every t0 that :func:`_at` admits.
    """
    c, at = _unit(c), _at(t0)
    n, d = c.as_integer_ratio()
    # z_2(t0) - t0^2/c with z_2(t0) = t0^2 - t0 + sqrt(t0^4 - 2t0^3)
    surd_margin = QuadExpr(Fraction((at.t2 - t0) * n - at.t2 * d, n), _ONE, at.rad_z)
    return _ray_record("z-interval-containment", at.t, c,
                       details={"z2_surd_margin_at_t0": surd_margin})


def g_positive_cert(c: RatLike, delta: RatLike, t0: int = BINDING_T) -> CertRecord:
    """Certify g(t) = (2/c)(t^2+3)^2 - (1 + t/delta)^2 > 0 for all t >= t0.

    This is the binding constraint: the large-square case of the
    obstruction analysis fails precisely when g stays positive, and the
    3-decimal round-down of the slack makes or breaks it.
    """
    c, delta = _unit(c), _positive(delta)
    return _ray_record("g-positive", _at(t0).t, c, delta, details={"c": c, "delta": delta})


def sigma_bound(t: int, delta: RatLike) -> Fraction:
    """Enumeration ceiling t/delta for the total multiplicity of a candidate, at t = k+1 >= 3."""
    return _at(t).t / _positive(delta)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def pipeline_certs(c: RatLike, t0: int = BINDING_T) -> tuple[bool, Fraction | None, list[CertRecord]]:
    """Evaluate one grid point: derive the floored slack, then run all certificates.

    Returns (feasible, floored delta, certificate records).  The slack is
    rounded down to 3 decimals before it enters the g-positivity check;
    reproducing the canonical constants requires exactly this protocol.
    The radicand's sign, the slack's sign and the 3-decimal floor are decided
    on the integers of c by :func:`_slack`, with one integer square root; the
    records still carry the radicand and the slack surd exactly.  :func:`_at`
    refuses a ``t0`` below 3.
    """
    c = _unit(c)
    radicand, slack, milli = _slack(c, t0)
    if not milli:
        margin, reason = ((radicand, "radicand not positive") if slack is None
                          else (slack, "raw slack not positive") if milli is None
                          else (slack, "slack floors to zero at 3 decimals"))
        return False, None, [_record(("delta-positive", "refuted", margin, (), (),
                                      {"reason": reason}, None))]
    delta = Fraction(milli, 1000)
    records = [
        _record(("delta-positive", "certified", slack, (), (), {"delta_floor_milli": delta}, None)),
        n2 := n2_chain_cert(c, t0),
        case1 := case1_cert(c, t0),
        interval := interval_containment_cert(c, t0),
        g := g_positive_cert(c, delta, t0),
    ]
    feasible = n2.status == case1.status == interval.status == g.status == "certified"
    return feasible, delta, records


def c_max_search(grid_step: RatLike = GRID_STEP_DEFAULT, kmin: int = 2) -> ConstantsReport:
    """Scan c downward from the N^2-ceiling and return the largest feasible c.

    Every grid point is evaluated independently (the floored slack is not
    monotone in c, so no point may be skipped).  An empty feasible set is
    reported, not raised.  A grid with more than :data:`SCAN_BUDGET` points
    below the ceiling raises :class:`SearchTooLarge` before any point is
    scanned.
    """
    grid_step = _unit(grid_step, "grid_step")
    t0 = kmin + 1
    ceiling, ceiling_rec = _ceiling_with_cert(kmin)

    scanned = 0
    winner: tuple[Fraction, Fraction, list[CertRecord]] | None = None
    num, den = grid_step.numerator, grid_step.denominator
    n = floor(ceiling / grid_step)
    if n > SCAN_BUDGET:
        raise SearchTooLarge(
            f"constants scan too large: {n} grid points exceed the budget of {SCAN_BUDGET}; "
            "use a larger grid step", n)
    while n >= 1:
        c = Fraction(n * num, den)
        scanned += 1
        ok, delta, certs = pipeline_certs(c, t0)
        if ok:
            assert delta is not None
            winner = (c, delta, certs)
            break
        n -= 1

    per_constraint: list[CertRecord] = [ceiling_rec, lhs_increasing_cert(), z1_decreasing_cert()]
    if winner is not None:
        per_constraint.extend(winner[2])
    return ConstantsReport(
        c_max=winner[0] if winner else None,
        delta_max=winner[1] if winner else None,
        c_ceiling=ceiling,
        per_constraint=per_constraint,
        discrepancies=standard_discrepancies(),
        grid_step=grid_step,
        kmin=kmin,
        feasible=winner is not None,
        scanned=scanned,
    )


# ---------------------------------------------------------------------------
# recomputed values that differ from their commonly quoted forms
# ---------------------------------------------------------------------------


def standard_discrepancies() -> list[Discrepancy]:
    """Exact recomputation of the handful of quoted intermediate values that differ.

    These never feed a verdict; the pipeline certifies the statements the
    argument actually needs and records the quoted forms here, with every
    plausible reading recomputed rather than silently picking one.
    """
    c = C_MAX_DEFAULT
    z2_3 = QuadExpr(6, 1, 27)  # z_2(3) = 6 + sqrt(27)
    z2p_3 = QuadExpr(5, 1, 27)  # z_2'(3) = 5 + 27/sqrt(27) = 5 + sqrt(27)
    z1p_3 = QuadExpr(5, -1, 27)  # z_1'(3) = 5 - sqrt(27)
    threshold_3 = 9 / c  # (1/c) t^2 at t = 3

    value_main = z2_3 - threshold_3
    alt_deriv = z2p_3 - threshold_3
    # the label's reading: 6/c*3 = 18/c; the derivative of t^2/c at 3 is 6/c
    alt_deriv_lin = z2p_3 - 2 * Fraction(3) / c * 3

    return [
        Discrepancy(
            id="z2-threshold-value",
            quoted="z_2 minus the threshold evaluates to approximately 0.001 at t = 3",
            recomputed=f"z_2(3) - 9/c = {value_main.approx_str()}",
            exact=value_main,
            note=(
                "The quoted display mixes a derivative with an underived term; "
                "none of the three natural readings evaluates near 0.001."
            ),
            alternatives={
                "z2(3) - 9/c": value_main.approx_str(),
                "z2'(3) - 9/c": alt_deriv.approx_str(),
                "z2'(3) - 6/c*3": alt_deriv_lin.approx_str(),
            },
        ),
        Discrepancy(
            id="f-argument",
            quoted="f(2) is approximately 1.0594",
            recomputed=f"f(3) = {_F3.approx_str()} (the binding argument is t = 3)",
            exact=_F3,
            note="Index slip: the evaluation is at the binding t = 3, not t = 2.",
        ),
        Discrepancy(
            id="z1-derivative-sign",
            quoted="z_1'(t) = -1 + 2t - (3t^2-2t^3)/sqrt(t^4-2t^3)",
            recomputed=(
                f"as printed the expression equals {QuadExpr(5, 1, 27).approx_str()} at t = 3; "
                f"the actual z_1'(3) = {z1p_3.approx_str()} < 0"
            ),
            exact=z1p_3,
            note=(
                "The printed radical term has its sign flipped (it reads as z_2'); "
                "the decrease of z_1 is certified from the cleared form instead."
            ),
        ),
        Discrepancy(
            id="lsq-lower-bound-factor",
            quoted="2(d+2)^2 >= ((k+1)^2+3)^2",
            recomputed=(
                "the argument uses L^2 >= 2((k+1)^2+3)^2, which holds since "
                "d+2 >= (k+1)^2+3; at k=2, d=10 both sides of the used form are 288"
            ),
            exact=Fraction(288),
            note="The quoted display is weaker by a factor 2 than the inequality actually used.",
        ),
    ]


def margin_fields(value: Fraction | QuadExpr | None) -> tuple[str | None, str | None]:
    """(exact, approximate) strings of a margin or recomputed value; (None, None) for none."""
    if value is None:
        return None, None
    if isinstance(value, QuadExpr):
        return str(value), value.approx_str()
    return frac_str(value), decimal_str(value)


def render_margin(value: Fraction | QuadExpr | None) -> str:
    """Uniform exact+approximate rendering for report margins."""
    if value is None:
        return "n/a"
    exact, approx = margin_fields(value)
    return f"{exact} (~ {approx})"
