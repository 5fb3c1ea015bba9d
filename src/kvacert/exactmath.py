"""Exact scalar arithmetic: rationals, quadratic surds and ray-positivity certificates.

Everything that feeds a verdict is computed in exact arithmetic over Q
(arbitrary-precision integers underneath).  Floating point never enters a
decision anywhere in this package; the only approximate output is decimal
rendering for reports, and that goes through integer square roots.

Three layers live here:

* rationals -- plain :class:`fractions.Fraction` (normalized, positive
  denominator, gcd 1 -- exactly the invariants we need).
* ``QuadExpr`` -- numbers of the form p + q*sqrt(s) with rational p, q and
  rational s >= 0.  Signs are decided by case analysis, floors by one
  integer square root, decimal brackets by integer square roots; never by
  float evaluation.
* ``Poly`` + :func:`poly_positive_on_ray` -- certificates that a rational
  polynomial is strictly positive on a ray [t0, oo).  A ``Poly`` is stored
  as integer numerators over one common denominator, so its arithmetic and
  its Taylor shift (integer synthetic division) run on ints.  The one
  certificate is the shift p(t0 + u): nonnegative coefficients with a
  positive constant term prove positivity, a constant term p(t0) <= 0
  refutes it, and anything else is left undecided, never certified.

``QuadExpr`` and ``Poly``, like the package's other value types, build on
:class:`Value`: immutable ``__slots__`` classes compared by field value.
The package's records are ``collections.namedtuple`` subclasses.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

RatLike = Fraction | int | str


def as_rat(x: RatLike) -> Fraction:
    """Coerce an int, Fraction or exact string ("887/1000", "0.887") to Fraction.

    Floats are rejected on purpose: their binary rounding would silently
    poison exact comparisons.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _num_den(x: RatLike) -> tuple[int, int]:
    if type(x) is int:
        return x, 1
    x = as_rat(x)
    return x.numerator, x.denominator


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sqrt_bounds(s: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket lo <= sqrt(s) < hi with hi - lo <= 10**-digits."""
    n, d = s.numerator, s.denominator
    scale = 10**digits
    a = isqrt(n * d * scale * scale)
    den = d * scale
    return Fraction(a, den), Fraction(a + 1, den)


class Value:
    """Base of the immutable value types: equal and hashed by their ``__slots__`` fields.

    A subclass names its fields in ``__slots__`` and sets them once, in
    ``__init__``, through ``object.__setattr__``; assigning or deleting a field
    afterwards raises :class:`AttributeError`.  Instances of different classes
    are never equal, and values are not ordered.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")

    # copy and pickle
    def __getstate__(self) -> dict:
        return dict(zip(self.__slots__, self._key()))

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class QuadExpr(Value):
    """Exact number p + q*sqrt(s), rational p and q, rational radicand s >= 0."""

    __slots__ = ("p", "q", "s")

    def __init__(self, p: RatLike, q: RatLike = Fraction(0), s: RatLike = Fraction(0)) -> None:
        p, q, s = as_rat(p), as_rat(q), as_rat(s)
        if s.numerator < 0:
            raise ValueError(f"negative radicand: {s}")
        if not q.numerator or not s.numerator:
            q, s = Fraction(0), Fraction(0)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        Cases on the signs of p and q; only when they disagree is the
        comparison p^2 vs q^2*s needed (both sides of p = -q*sqrt(s) are
        then nonnegative, so squaring is legitimate).  Denominators are
        positive, so the comparison runs on numerators cross-multiplied.
        """
        a, b = self.p.numerator, self.p.denominator
        e, f = self.q.numerator, self.q.denominator
        sp, sq = _sign(a), _sign(e)
        if sq == 0 or sp == sq:
            return sp
        if sp == 0:
            return sq  # s > 0 here, so sqrt(s) > 0
        s = self.s
        d = a * a * f * f * s.denominator - e * e * s.numerator * b * b
        if d == 0:
            return 0
        return sp if d > 0 else sq

    # -- arithmetic (closed only for a shared radicand) --------------------

    def _coerce(self, other) -> "QuadExpr | None":
        if isinstance(other, QuadExpr):
            return other
        try:
            return QuadExpr(as_rat(other))
        except TypeError:
            return None

    def __add__(self, other) -> "QuadExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.q != 0 and o.q != 0 and self.s != o.s:
            raise ValueError(f"radicands differ: {self.s} vs {o.s}")
        s = self.s if self.q != 0 else o.s
        return QuadExpr(self.p + o.p, self.q + o.q, s)

    __radd__ = __add__

    def __neg__(self) -> "QuadExpr":
        return QuadExpr(-self.p, -self.q, self.s)

    def __sub__(self, other) -> "QuadExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QuadExpr":
        return (-self) + other

    def __mul__(self, other) -> "QuadExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.q != 0 and o.q != 0:
            if self.s != o.s:
                raise ValueError(f"radicands differ: {self.s} vs {o.s}")
            return QuadExpr(
                self.p * o.p + self.q * o.q * self.s,
                self.p * o.q + self.q * o.p,
                self.s,
            )
        s = self.s if self.q != 0 else o.s
        return QuadExpr(self.p * o.p, self.p * o.q + self.q * o.p, s)

    __rmul__ = __mul__

    def cmp_rat(self, r: RatLike) -> int:
        """Exact sign of self - r."""
        return (self - as_rat(r)).sign()

    def bounds(self, digits: int = 12) -> tuple[Fraction, Fraction]:
        """Rational bracket lo <= value <= hi with width <= |q| * 10**-digits."""
        if self.q == 0:
            return self.p, self.p
        lo_s, hi_s = _sqrt_bounds(self.s, digits)
        a, b = self.p + self.q * lo_s, self.p + self.q * hi_s
        return (a, b) if a <= b else (b, a)

    def floor(self) -> int:
        """Exact floor from one integer square root.

        Over integers the value is (a + b*sqrt(r))/d with d > 0 and
        r = num(s)*den(s).  With z = b^2 r, floor((a + sqrt(z))/d) is
        (a + isqrt(z)) // d; for b < 0 the ceiling of sqrt(z) is subtracted.
        """
        p, q, s = self.p, self.q, self.s
        if q == 0:
            return p.numerator // p.denominator
        qd_sd = q.denominator * s.denominator
        a = p.numerator * qd_sd
        b = q.numerator * p.denominator
        z = b * b * s.numerator * s.denominator
        root = isqrt(z)
        if b < 0:
            root = -root - (root * root != z)
        return (a + root) // (p.denominator * qd_sd)

    def approx_str(self, places: int = 6) -> str:
        """Decimal rendering to `places` digits (approximate, display only)."""
        lo, hi = self.bounds(places + 6)
        return decimal_str((lo + hi) / 2, places)

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        return f"{self.p} + {self.q}*sqrt({self.s})"


def quad_floor_milli(e: QuadExpr) -> Fraction:
    """Largest n/1000 (n a nonnegative integer) with n/1000 <= e.

    This is the 3-decimal round-down used throughout the constants
    pipeline.  Requires e >= 0.
    """
    if e.sign() < 0:
        raise ValueError("quad_floor_milli requires a nonnegative input")
    # 1000*e term by term, without the general QuadExpr product
    n = QuadExpr(1000 * e.p, 1000 * e.q, e.s).floor()
    return Fraction(n, 1000)


def decimal_str(x: RatLike, places: int = 6) -> str:
    """Fixed-point decimal string of a rational, rounded half away from zero."""
    x = as_rat(x)
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10**places
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    digits = str(q).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def frac_str(x: RatLike) -> str:
    """Canonical "num/den" rendering of a rational (always with denominator)."""
    x = as_rat(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Polynomials over Q and positivity on rays
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)  # bounded, since the degree is the caller's; a scan uses degrees 1 to 4
def _shift_steps(n: int) -> tuple[int, ...]:
    """The steps of Horner's synthetic division at degree n: step j sets s[j] += a * s[j+1].

    Pass i = 0..n-1 runs j from n-1 down to i, n(n+1)/2 steps in all; the
    nested loops become one flat loop over this tuple.
    """
    return tuple(j for i in range(n) for j in range(n - 1, i - 1, -1))


class Poly(Value):
    """Univariate polynomial over Q: integer numerators ``num`` over one denominator ``den``.

    Coefficients ascend; trailing zeros are stripped and (num, den) is in
    lowest terms with den > 0, so equal polynomials have equal fields (the
    zero polynomial is ``((), 1)``); other modules use :meth:`over` or ``coeffs``
    (the Fractions), not the fields.  Arithmetic, evaluation and the Taylor shift
    run on the integers and normalise once by a gcd; a shift by an integer needs none.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[RatLike]):
        cs = [c if type(c) is int else as_rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: Sequence[int], den: int) -> None:
        g = gcd(den, *num)
        num = tuple(num) if g == 1 else tuple([n // g for n in num])
        while num and num[-1] == 0:
            num = num[:-1]
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den // g)

    @classmethod
    def over(cls, num: Sequence[int], den: int) -> "Poly":
        """The polynomial sum(num[i] t^i)/den of integers, normalised; den must be positive."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        out = object.__new__(cls)
        out._set(num, den)
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __call__(self, t: RatLike) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        a, b = _num_den(t)
        # homogeneous Horner: sum num[i] a^i b^(n-i), over den * b^n
        acc, bk = self.num[-1], 1
        for c in reversed(self.num[:-1]):
            bk *= b
            acc = acc * a + c * bk
        return Fraction(acc, self.den * bk)

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = self.num, other.num
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        num = [x * fa for x in a]
        for i, y in enumerate(b):
            num[i] += y * fb
        return Poly.over(num, den)

    def __neg__(self) -> "Poly":
        return Poly.over([-n for n in self.num], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a == 0:
                continue
            for j, b in enumerate(other.num):
                out[i + j] += a * b
        return Poly.over(out, self.den * other.den)

    def scale(self, r: RatLike) -> "Poly":
        r = as_rat(r)
        return Poly.over([r.numerator * n for n in self.num], r.denominator * self.den)

    def derivative(self) -> "Poly":
        return Poly.over([i * n for i, n in enumerate(self.num) if i > 0], self.den)

    def shift(self, t0: RatLike) -> "Poly":
        """Taylor shift: the polynomial u -> p(t0 + u).

        With t0 = a/b, the integer polynomial m(x) = b^n num(x/b) is shifted
        by a with Horner's synthetic division, m(a + v) = sum s_j v^j; then
        p(t0 + u) = sum s_j b^j u^j / (den b^n).  An integer t0 (b = 1) needs
        no rescaling, and its result is already in lowest terms.
        """
        num = self.num
        if not num:
            return self
        a, b = (t0.numerator, t0.denominator) if type(t0) is Fraction else _num_den(t0)
        n = len(num) - 1
        s = list(num) if b == 1 else [c * b ** (n - i) for i, c in enumerate(num)]
        for j in _shift_steps(n):
            s[j] += a * s[j + 1]
        if b == 1:
            # a shift by an integer is unimodular: it keeps the gcd and the leading coefficient
            out = object.__new__(Poly)
            object.__setattr__(out, "num", tuple(s))
            object.__setattr__(out, "den", self.den)
            return out
        return Poly.over([c * b**j for j, c in enumerate(s)], self.den * b**n)


class PolyRayResult(namedtuple("PolyRayResult", "positive poly t0 method shifted counterexample",
                                defaults=(None,))):
    """Outcome of a strict-positivity query "p(t) > 0 for all t >= t0".

    ``shifted`` is the certificate, the Taylor shift u -> p(t0 + u), and
    ``method`` names which of its three readings decided the query:

    * ``"shift-coeffs"``: every shifted coefficient is nonnegative and the
      constant term p(t0) is positive, so p > 0 on the ray (``positive``);
    * ``"endpoint"``: the constant term p(t0) is <= 0, so the claim is
      refuted at ``counterexample`` = t0;
    * ``"undecided"``: p(t0) > 0 but some shifted coefficient is negative.
      ``positive`` is False and the claim is never certified; no
      counterexample is claimed either.
    """

    __slots__ = ()
    positive: bool
    poly: Poly
    t0: Fraction
    method: str
    shifted: Poly
    counterexample: Fraction | None

    @property
    def value_at_t0(self) -> Fraction:
        """p(t0), read off the certificate: the constant term of the shift."""
        return Fraction(self.shifted.num[0], self.shifted.den)


def poly_positive_on_ray(p: Poly, t0: RatLike) -> PolyRayResult:
    """Decide whether p(t) > 0 for every t >= t0 from the signs of p(t0 + u).

    Exact and sound, not complete: a shift with a negative coefficient but a
    positive constant term is ``"undecided"``.
    """
    if not p.num:
        raise ValueError("zero polynomial")
    if type(t0) is not Fraction:
        t0 = as_rat(t0)
    shifted = p.shift(t0)
    num = shifted.num
    # den > 0, so the numerators carry the signs; the constant term is p(t0)
    if num[0] <= 0:
        return PolyRayResult(False, p, t0, "endpoint", shifted, t0)
    if min(num) >= 0:
        return PolyRayResult(True, p, t0, "shift-coeffs", shifted, None)
    return PolyRayResult(False, p, t0, "undecided", shifted, None)
