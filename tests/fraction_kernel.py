"""The Fraction kernel that ``kvacert.exactmath`` replaced, kept as a test oracle.

``FracPoly`` stores a polynomial as a tuple of Fractions and Taylor-shifts it
by the binomial expansion; ``positive_on_ray`` is the shift-then-Sturm
decision procedure on top of it; ``quad_floor`` floors p + q*sqrt(s) by a
decimal bracket and a walk of exact sign tests.  Nothing here imports the
package, so the differential tests compare two independent implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Iterable, Union

RatLike = Union[Fraction, int, str]


def as_rat(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def quad_sign(p: Fraction, q: Fraction, s: Fraction) -> int:
    """Exact sign of p + q*sqrt(s), s >= 0."""
    if q == 0 or s == 0:
        return _sign(p)
    if p == 0:
        return _sign(q)
    sp, sq = _sign(p), _sign(q)
    if sp == sq:
        return sp
    d = p * p - q * q * s
    if d == 0:
        return 0
    return sp if d > 0 else sq


def quad_floor(p: Fraction, q: Fraction, s: Fraction) -> int:
    """Exact floor of p + q*sqrt(s): a decimal bracket seeds a walk of sign tests."""
    if q == 0 or s == 0:
        return p.numerator // p.denominator
    digits = 2 + len(str(abs(q.numerator) // q.denominator))
    scale = 10**digits
    a = isqrt(s.numerator * s.denominator * scale * scale)
    lo_s, hi_s = Fraction(a, s.denominator * scale), Fraction(a + 1, s.denominator * scale)
    lo = min(p + q * lo_s, p + q * hi_s)
    n = lo.numerator // lo.denominator
    while quad_sign(p - (n + 1), q, s) >= 0:
        n += 1
    while quad_sign(p - n, q, s) < 0:
        n -= 1
    return n


@dataclass(frozen=True)
class FracPoly:
    """Univariate polynomial over Q as a tuple of Fractions, trailing zeros stripped."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RatLike]):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, t: RatLike) -> Fraction:
        t = as_rat(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "FracPoly") -> "FracPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return FracPoly(x + y for x, y in zip(a, b))

    def __neg__(self) -> "FracPoly":
        return FracPoly(-c for c in self.coeffs)

    def __sub__(self, other: "FracPoly") -> "FracPoly":
        return self + (-other)

    def __mul__(self, other: "FracPoly") -> "FracPoly":
        if self.is_zero or other.is_zero:
            return FracPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FracPoly(out)

    def scale(self, r: RatLike) -> "FracPoly":
        r = as_rat(r)
        return FracPoly(r * c for c in self.coeffs)

    def derivative(self) -> "FracPoly":
        return FracPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def shift(self, t0: RatLike) -> "FracPoly":
        """Taylor shift: the polynomial u -> p(t0 + u)."""
        t0 = as_rat(t0)
        out = [Fraction(0)] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j in range(k + 1):
                out[j] += c * comb(k, j) * t0 ** (k - j)
        return FracPoly(out)


def _poly_divmod(a: FracPoly, b: FracPoly) -> tuple[FracPoly, FracPoly]:
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 1)
    rem = list(a.coeffs)
    db, lb = b.degree, b.lc()
    while len(rem) - 1 >= db and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        f = rem[-1] / lb
        q[k] = f
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= f * c
        rem.pop()
    return FracPoly(q), FracPoly(rem)


def _poly_gcd(a: FracPoly, b: FracPoly) -> FracPoly:
    while not b.is_zero:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return a.scale(1 / a.lc())


def _squarefree(p: FracPoly) -> FracPoly:
    g = _poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = _poly_divmod(p, g)
    assert r.is_zero
    return q


def _sturm_chain(p: FracPoly) -> list[FracPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, r = _poly_divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
    return [q for q in chain if not q.is_zero]


def _variations(values: Iterable[Fraction]) -> int:
    nz = [v for v in values if v != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if (a > 0) != (b > 0))


def _variations_at(chain: list[FracPoly], x: Fraction) -> int:
    return _variations([q(x) for q in chain])


def _variations_at_inf(chain: list[FracPoly]) -> int:
    return _variations([q.lc() for q in chain])


def _count_roots_in(chain: list[FracPoly], a: Fraction, b: Fraction) -> int:
    # distinct roots in the half-open interval (a, b]
    return _variations_at(chain, a) - _variations_at(chain, b)


def _isolate_first_root(sf: FracPoly, chain: list[FracPoly], t0: Fraction) -> tuple[Fraction, Fraction]:
    hi = t0 + 1
    while _count_roots_in(chain, t0, hi) == 0:
        hi = t0 + (hi - t0) * 2
    lo = t0
    while hi - lo > Fraction(1, 1 << 12):
        mid = (lo + hi) / 2
        if _count_roots_in(chain, lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _find_nonpositive_point(
    p: FracPoly, t0: Fraction, lo: Fraction, hi: Fraction
) -> Fraction | None:
    for cand in (hi, (lo + hi) / 2, hi + 1):
        if cand >= t0 and p(cand) <= 0:
            return cand
    # walk outward: past an odd-order root the sign flip must show up
    step = Fraction(1)
    t = hi
    for _ in range(64):
        t = t + step
        if p(t) <= 0:
            return t
        step *= 2
    return None


def positive_on_ray(p: FracPoly, t0: RatLike) -> tuple:
    """(positive, method, shifted, counterexample, counterexample_interval) of "p > 0 on [t0, oo)"."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    t0 = as_rat(t0)
    shifted = p.shift(t0)
    if shifted.coeffs[0] > 0 and all(c >= 0 for c in shifted.coeffs):
        return True, "shift-coeffs", shifted, None, None
    if p(t0) <= 0:
        return False, "endpoint", None, t0, None
    sf = _squarefree(p)
    chain = _sturm_chain(sf)
    n_roots = _variations_at(chain, t0) - _variations_at_inf(chain)
    if n_roots == 0:
        return True, "sturm", None, None, None
    lo, hi = _isolate_first_root(sf, chain, t0)
    point = _find_nonpositive_point(p, t0, lo, hi)
    return False, "sturm", None, point, (lo, hi)
