"""Divisor arithmetic on blow-ups, the verdict on one instance, and the obstruction search.

Classes on the blow-up at r points are written pi^*F - sum m_i E_i with the
usual exceptional relations E_i^2 = -1, E_i.E_j = 0, pi^*F.E_i = 0.  The
base class F is a :class:`DivisorClass` (a, b), whose numbers are the same on
every surface type, so no function here takes the type.  On top of the
arithmetic this module provides:

* the adjoint-style class N = pi^*L - (k+1) sum E_i whose positivity drives
  the k-very-ampleness argument,
* the exact square of the multi-point Seshadri lower bound
  sqrt(L^2/r) * sqrt(1 - 1/(8r)) for an ample L,
* :func:`certify_instance`, the verdict on one instance of the theorem: its
  hypotheses, the Seshadri bound against k+1+delta, and (c, delta) against
  the constants that :mod:`kvacert.constants` certifies; and
  :func:`point_bound`, the rule of ``max-r`` built on it,
* the numerical part of the Beltrametti-Sommese obstruction condition
  N.D - k - 1 <= D^2 < N.D/2 < k+1, and
* a brute-force oracle enumerating every obstruction candidate inside the
  a-priori bounds that the positivity argument provides.

The package's modules import one another in one direction:
``exactmath`` <- ``hyperell``, ``constants`` <- ``blowup`` <- ``cli``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from math import floor, gcd, isqrt

from .constants import (C_MAX_DEFAULT, DELTA_DEFAULT, SearchTooLarge, _positive, _unit,
                        pipeline_certs, sigma_bound)
from .exactmath import RatLike, Value, as_rat, frac_str
from .hyperell import DivisorClass, intersect, is_ample, self_intersection


class BlowupClass(Value):
    """Class pi^*(base) - sum mults[i] * E_i on the blow-up at r = len(mults) points."""

    __slots__ = ("base", "mults")

    def __init__(self, base: DivisorClass, mults: Iterable[int]) -> None:
        mults = tuple(mults)
        if not all(isinstance(m, int) for m in mults):
            raise TypeError("multiplicities must be integers")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mults", mults)

    @property
    def r(self) -> int:
        return len(self.mults)


def blowup_intersect(x: BlowupClass, y: BlowupClass) -> int:
    """Intersection on the blow-up: base pairing minus sum of mult products."""
    if x.r != y.r:
        raise ValueError(f"mismatched number of blown-up points: {x.r} vs {y.r}")
    return intersect(x.base, y.base) - sum(m * n for m, n in zip(x.mults, y.mults))


def n_class(l_s: DivisorClass, k: int, r: int) -> BlowupClass:
    """The class pi^*L - (k+1) sum E_i; its square is L^2 - (k+1)^2 r."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r < 0:
        raise ValueError("r must be nonnegative")
    return BlowupClass(l_s, (k + 1,) * r)


def _ample(l_s: DivisorClass) -> None:
    """The theorem's polarization is ample: a class that is not raises :class:`ValueError`."""
    if not is_ample(l_s):
        raise ValueError(f"class ({l_s.a},{l_s.b}) is not ample (need a > 0 and b > 0)")


def seshadri_lower_sq(l_s: DivisorClass, r: int) -> Fraction:
    """Exact square of the Seshadri lower bound at r very general points.

    The bound is sqrt(L^2/r) * sqrt(1 - 1/(8r)); its square is the rational
    L^2 * (8r - 1) / (8 r^2), which is what exact comparisons consume.  ``l_s``
    must be ample and ``r`` at least 1; otherwise :class:`ValueError` is raised.
    """
    _ample(l_s)
    if r < 1:
        raise ValueError("r must be at least 1")
    return Fraction(self_intersection(l_s) * (8 * r - 1), 8 * r * r)


def star_holds(l_s: DivisorClass, r: int, k: int, delta: RatLike) -> bool:
    """Exact test: Seshadri lower bound exceeds k + 1 + delta (squared when that is >= 0)."""
    delta = as_rat(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    threshold = k + 1 + delta
    square = seshadri_lower_sq(l_s, r)
    return threshold < 0 or square > threshold * threshold


@cache
def _certified_constants() -> tuple[Fraction, Fraction]:
    """(c, delta) certified by the pipeline at the default constant, once per process."""
    feasible, delta, _ = pipeline_certs(C_MAX_DEFAULT)
    if not feasible:
        raise RuntimeError("the default constant failed its certificates unexpectedly")
    return C_MAX_DEFAULT, delta


class InstanceCertificate(namedtuple(
        "InstanceCertificate", "hypothesis_checks certificate_checks l2 r_max n2"
                               " seshadri_lower_sq threshold_sq star")):
    """The verdict on one theorem instance, with every check and number behind it.

    Each check is a (name, ok, detail) triple.  The instance is certified
    only when every hypothesis check and every certificate check is ok.
    """

    __slots__ = ()
    hypothesis_checks: list[tuple[str, bool, str]]
    certificate_checks: list[tuple[str, bool, str]]
    l2: int
    r_max: int
    n2: int
    seshadri_lower_sq: Fraction | None
    threshold_sq: Fraction
    star: bool | None

    @property
    def certified(self) -> bool:
        return all(ok for _, ok, _ in self.hypothesis_checks + self.certificate_checks)

    @property
    def verdict(self) -> str:
        return "k-very-ample-certified" if self.certified else "hypotheses-not-met"


def certify_instance(
    l_s: DivisorClass, k: int, d: int, r: int, c: RatLike, delta: RatLike
) -> InstanceCertificate:
    """Decide whether pi^*L - k*sum(E_i) is certified k-very ample at r points.

    Here L = l_s = (a, b).  The hypotheses are k >= 2, d > (k+1)^2, a, b >= d+2 and
    2 <= r <= r_max, where r_max = floor(c*L^2/(k+1)^2) for an ample L and 0
    for a class that is not.  The certificate checks are the Seshadri condition
    sqrt(L^2/r)*sqrt(1-1/(8r)) > k+1+delta, which fails for a class L that is
    not ample, and c and delta at most the pair (887/1000, 178/1000) that
    :func:`pipeline_certs` certifies.
    ``c`` must lie in (0, 1) and ``delta`` must be positive (the argument
    bounds sum m_i by (k+1)/delta); otherwise :class:`ValueError` is raised.
    """
    c, delta = _unit(c), _positive(delta)
    a, b = l_s.a, l_s.b
    l2 = self_intersection(l_s)
    t = k + 1
    ample = is_ample(l_s)  # and then L^2 = 2ab > 0
    r_max = floor(c * l2 / (t * t)) if k >= 0 and ample else 0
    hypotheses = [
        ("k-ge-2", k >= 2, f"k = {k}"),
        ("d-gt-(k+1)^2", d > t * t, f"d = {d}, (k+1)^2 = {t * t}"),
        ("a-ge-d+2", a >= d + 2, f"a = {a}, d+2 = {d + 2}"),
        ("b-ge-d+2", b >= d + 2, f"b = {b}, d+2 = {d + 2}"),
        ("r-ge-2", r >= 2, f"r = {r}"),
        ("r-le-r_max", r <= r_max, f"r = {r}, r_max = floor(c*L^2/(k+1)^2) = {r_max}"),
    ]
    threshold = t + delta
    threshold_sq = threshold * threshold
    ses_sq = star = None
    if r >= 1 and ample:
        ses_sq = seshadri_lower_sq(l_s, r)
        star = star_holds(l_s, r, k, delta)
    ses = frac_str(ses_sq) if ses_sq is not None else "none (needs r >= 1 and an ample class)"
    # any bound exceeds a negative threshold, so its square says nothing there
    beat = (f"k+1+delta = {frac_str(threshold)} < 0" if threshold < 0
            else f"(k+1+delta)^2 = {frac_str(threshold_sq)}")
    c_cert, delta_cert = _certified_constants()
    certificates = [
        ("star", bool(star), f"Seshadri lower bound^2 = {ses}, {beat}"),
        ("c-certified", c <= c_cert, f"c = {frac_str(c)}, certified c_max = {frac_str(c_cert)}"),
        ("delta-certified", delta <= delta_cert,
         f"delta = {frac_str(delta)}, certified delta_max = {frac_str(delta_cert)}"),
    ]
    return InstanceCertificate(hypotheses, certificates, l2, r_max, l2 - t * t * r, ses_sq,
                               threshold_sq, star)


def point_bound(l_s: DivisorClass, k: int, c: RatLike) -> tuple[int, int, list[str]]:
    """L^2, r_max = floor(c * L^2/(k+1)^2), and a warning per check that no d and r pass.

    Those are the checks of :func:`certify_instance` that fail at the smallest
    d and r their own bounds allow, d = (k+1)^2+1 and r = 2: each of them only
    gets harder as d and r grow.  ``c`` must lie in (0, 1) and ``k`` must be
    nonnegative, and ``l_s`` ample; otherwise :class:`ValueError` is raised.
    """
    _ample(l_s)
    c = _unit(c)
    if k < 0:
        raise ValueError("k must be nonnegative")
    d = (k + 1) ** 2 + 1
    cert = certify_instance(l_s, k, d, 2, c, DELTA_DEFAULT)
    failed = {name for name, ok, _ in cert.hypothesis_checks + cert.certificate_checks if not ok}
    warnings = [text for names, text in (
        ({"k-ge-2"}, f"k = {k} is below the theorem's floor k >= 2"),
        ({"c-certified"}, f"c = {frac_str(c)} exceeds the certified c_max ="
                          f" {frac_str(C_MAX_DEFAULT)}; check does not certify at this c"),
        ({"r-le-r_max"}, f"r_max = {cert.r_max} is below the theorem's floor r >= 2"),
        ({"a-ge-d+2", "b-ge-d+2"}, "full hypotheses also need a, b >= d+2 > (k+1)^2+2;"
                                   f" here that means >= {d + 2}"),
    ) if names & failed]
    return cert.l2, cert.r_max, warnings


def bs_condition3(nd: int, d2: int, k: int) -> bool:
    """Numerical obstruction condition: nd - k - 1 <= d2 < nd/2 < k + 1.

    All-integer form; the middle strictness is 2*d2 < nd, written d2 + d2 < nd,
    so no fractions appear.  k is assumed nonnegative.  The three comparisons
    have no side effects, so their order does not change the value.  The middle
    one goes first because it decides most calls: over the benchmark's ladders
    86-87% of the calls meet the lower bound and fail the middle one (3,690,833
    of 4,234,656 under the standard formula, 642,342 of 744,266 under the paper
    formula), and those are then decided by one comparison, not two.  The last
    comparison follows from the other two, so only witnesses reach it.
    """
    return d2 + d2 < nd and nd - k - 1 <= d2 and nd < 2 * k + 2


class ObstructionWitness(namedtuple("ObstructionWitness", "d_s mults nd d2")):
    """A candidate (D_S, multiplicities) whose numbers satisfy the obstruction condition."""

    __slots__ = ()
    d_s: DivisorClass
    mults: tuple[int, ...]
    nd: int
    d2: int


#: Largest search :func:`search_obstruction` attempts, in steps of
#: :func:`_search_estimate`.  A step costs about 95-110 ns (2-CPU Xeon VM, Python
#: 3.11.7), so the slowest accepted search, (1,1) at k=2, r=1, delta=1/860 under
#: the paper formula (29,996,382 steps), takes 2.8-3.3 s of CPU.
SEARCH_BUDGET = 3 * 10**7

#: Largest output :func:`search_obstruction` returns, in multiplicities: every
#: witness carries r of them.  The largest output in the README, (3,3) at k=8,
#: r=40 under the standard formula, is 2339 witnesses x 40 = 93,560.
OUTPUT_BUDGET = 10**6

#: The D^2 conventions of :func:`search_obstruction` (see its ``formula``).
FORMULAS = ("paper", "standard")


def _search_estimate(a: int, b: int, t: int, parts: int, m_max: int) -> int:
    """Closed-form upper bound on the search's steps: condition tests and table bits.

    Rows (M, alpha) number sum_M (floor(t(M+1)/b) + 1).  Each row holds at most
    floor((t-1)/a) + 1 values of beta with 1 <= N.D <= t, and each such cell
    has one condition test per D^2 option of M.  With at most one part there
    is one option and no table, so the bound is the cells.  With more, sum
    m_i^2 over j <= parts parts takes values of the parity of M in [M^2/j,
    M^2], at most as many as for M = m_max, and the table of those values
    holds at most n^2 + 1 bits per entry (j, n).  Its build does one shift
    and one OR of at most that many bits per entry, so the table term bounds
    the build's work as well as its size.  The search walks lines of
    constant N.D, not rows, but it visits the same cells with the same tests,
    so the bound holds as it is: each seed is a cell it tests anyway, and it
    reads the windows of only the rows with alpha < a/gcd(a, b), never more
    rows than counted here.
    """
    rows = t * (m_max + 1) * (m_max + 2) // (2 * b) + m_max + 1
    cells = rows * ((t - 1) // a + 1)
    if parts <= 1:
        return cells
    options = m_max * m_max * (parts - 1) // (2 * parts) + 1
    table_bits = (parts + 1) * (m_max * (m_max + 1) * (2 * m_max + 1) // 6 + m_max + 1)
    return cells * options + table_bits


class _SquareSums:
    """Achievable values of sum(m_i^2) over partitions, as integer bitsets.

    ``reach[j][n]`` has bit q set when some partition of n into at most j
    parts has sum(m_i^2) = q.  A partition into exactly j parts, less 1 from
    each part, is one of n-j into at most j parts whose square sum is 2n-j
    lower, so ``reach[j][n] = reach[j-1][n] | reach[j][n-j] << (2n-j)`` for
    n >= j: one shift and one OR per entry.
    """

    def __init__(self, max_parts: int, max_sum: int) -> None:
        prev = [1] + [0] * max_sum  # no parts: only the empty partition of 0
        self.reach = [prev]
        for j in range(1, max_parts + 1):
            row = prev[:j]  # n < j has fewer than j parts anyway
            for n in range(j, max_sum + 1):
                row.append(prev[n] | row[n - j] << (2 * n - j))
            self.reach.append(row)
            prev = row

    def values(self, n: int, parts: int) -> list[int]:
        """The achievable values for n into at most ``parts`` parts, ascending."""
        # sum m_i^2 >= ceil(n^2/parts) (Cauchy-Schwarz) and has the parity of n
        # (m^2 = m mod 2), so only every other bit from the first such value can be set
        low = -(-n * n // parts) if parts else 0
        low += (low - n) & 1
        bits = bin(self.reach[parts][n] >> low)[-1:1:-2]
        return [q for q, bit in zip(range(low, n * n + 1, 2), bits) if bit == "1"]

    def representative(self, q: int, n: int, parts: int) -> tuple[int, ...]:
        """The lexicographically largest descending partition achieving value q.

        Greedy: take the largest p whose remainder n-p can still reach q-p^2 in
        one part fewer.  No remaining part can exceed p, since a larger one
        could have been taken first.  The scan starts at the Cauchy-Schwarz
        bound on the other parts, p^2 + (n-p)^2/(parts-1) <= q, whose largest
        root is at most min(n, sqrt(q)); q = n is reached only by n ones.
        """
        rep = []
        while q > n:
            row = self.reach[parts - 1]
            p = (n + isqrt((parts - 1) * (parts * q - n * n))) // parts
            while not row[n - p] >> (q - p * p) & 1:
                p -= 1
            rep.append(p)
            n, q, parts = n - p, q - p * p, parts - 1
        return tuple(rep) + (1,) * n


def search_obstruction(
    l_s: DivisorClass,
    k: int,
    r: int,
    delta: RatLike = DELTA_DEFAULT,
    formula: str = "paper",
) -> list[ObstructionWitness]:
    """Enumerate all numerical obstruction candidates within the a-priori bounds.

    Candidates are classes D = pi^*D_S - sum m_i E_i with D_S = (alpha, beta)
    in the nonzero effective cone and m_i >= 0.  The positivity argument
    confines any obstruction to

        sum m_i <= (k+1)/delta      and      L.D_S <= (k+1)(1 + sum m_i),

    and ampleness of N forces N.D >= 1; the enumeration covers exactly that
    box and reports every candidate satisfying the numerical condition of
    :func:`bs_condition3`.  An empty result certifies non-existence within
    the bounds.

    With t = k+1 and M = sum m_i, N.D = L.D_S - t*M, so the two bounds on
    L.D_S = a*beta + b*alpha leave 1 <= N.D <= t.  For each total M the walk
    runs along the lines of constant N.D, a*beta + b*alpha = N.D + t*M.  With
    g = gcd(a, b), p = a/g and q = b/g, the step (alpha, beta) -> (alpha + p,
    beta - q) keeps N.D, so every cell lies on the line of exactly one seed
    cell with alpha < p.  The seeds are the beta windows of those first rows,
    with rest = t*M - b*alpha:

        max(0, floor(rest/a) + 1) <= beta <= floor((rest + t)/a)

    and a line runs from its seed until beta would turn negative.  Along it
    D_S^2 = 2*alpha*beta changes by a difference that falls by 4pq a step, so
    D_S^2 is stepped by addition, and (alpha, beta) is recovered only for a
    witness.  The cells are exactly those of the row windows, but only the p
    rows (at most) with alpha < p are read for seeds.  Both conventions below
    run this walk: each line is walked once per D^2 option of M, with one
    condition test per cell, and the formula sets only the number of parts.

    Multiplicity vectors are represented up to permutation by sorted
    multisets.  Only sum(m_i) enters N.D; for D^2 the two supported
    conventions differ:

    * ``formula="paper"``: D^2 = D_S^2 - (sum m_i)^2, the standard formula
      with all of M on one point: one part, one option M^2 and the single
      representative (M, 0, ..., 0) per sum.
    * ``formula="standard"``: D^2 = D_S^2 - sum m_i^2.  Distinct multisets
      with equal sum now give distinct numbers, so every achievable value
      of sum(m_i^2) (over partitions into at most r parts) is enumerated.
      The values come from one bitset table per search (:class:`_SquareSums`,
      polynomial in M; none for one part); a witness carries the
      lexicographically largest descending partition achieving its value.

    The discrepancy between the two conventions is deliberate and surfaced
    to callers; it is never resolved silently.  Lemma: with the same arguments,
    the ``paper`` witnesses are the ``standard`` witnesses whose ``mults`` have
    at most one nonzero entry, in the same order.  Only the partition (M)
    reaches the option M^2, so both walks test the same cells with it, and its
    representative is (M, 0, ..., 0).

    A k below the theorem's floor is refused by :func:`sigma_bound`, before r.
    Raises :class:`SearchTooLarge`, before any work, when the closed-form
    bound of :func:`_search_estimate` on the walk's steps (condition tests,
    and table bits when there is a table) exceeds :data:`SEARCH_BUDGET`; it
    depends on the formula only through the number of parts.  The walk
    records witnesses without their multiplicity vectors; those are padded
    to length r only afterwards, and only when the output, witnesses x r
    multiplicities, is within :data:`OUTPUT_BUDGET` (else
    :class:`SearchTooLarge` again).
    """
    sigma = sigma_bound(k + 1, delta)  # raises unless k >= 2 and delta > 0
    if r < 0:
        raise ValueError("r must be nonnegative")
    if formula not in FORMULAS:
        raise ValueError(f"unknown D^2 formula variant: {formula!r}")
    _ample(l_s)
    a, b = l_s.a, l_s.b

    t = k + 1
    m_max = floor(sigma) if r >= 1 else 0
    # the paper formula is the standard one with all of M on one point: one part, one option
    parts = min(r if formula == "standard" else 1, m_max)
    estimate = _search_estimate(a, b, t, parts, m_max)
    if estimate > SEARCH_BUDGET:
        raise SearchTooLarge(
            f"obstruction search too large: estimated {estimate} steps exceed the budget "
            f"of {SEARCH_BUDGET}; use a larger delta or a smaller k", estimate)
    table = _SquareSums(parts, m_max) if parts > 1 else None

    g = gcd(a, b)
    p, q = a // g, b // g
    curve = 4 * p * q  # along a line, each step of D_S^2 is 4pq below the last
    condition = bs_condition3
    found = []  # (alpha, beta, M, D^2, N.D, D^2 option)
    for m_sum in range(0, m_max + 1):
        options = (m_sum * m_sum,) if table is None else table.values(m_sum, min(parts, m_sum))
        # N.D = a*beta - rest, and 1 <= N.D <= t is the window of the row (M, alpha)
        rest = t * m_sum
        for alpha in range(0, min(p, (rest + t) // b + 1)):
            for beta in range(rest // a + 1 if rest >= 0 else 0, (rest + t) // a + 1):
                # the seed (alpha, beta) opens the line; its j-th cell is (alpha + jp, beta - jq)
                nd, first = a * beta - rest, 2 * (p * beta - q * alpha - p * q)
                ds2 = 2 * alpha * beta
                steps = range(first, first - curve * (beta // q + 1), -curve)
                if len(options) > 1:  # walked once per option: a list iterates faster
                    steps = list(steps)
                for option in options:
                    d2 = ds2 - option
                    for step in steps:
                        if condition(nd, d2, k):
                            j = (first - step) // curve
                            found.append((alpha + j * p, beta - j * q, m_sum, d2, nd, option))
                        d2 += step
            rest -= b
    size = len(found) * r
    if size > OUTPUT_BUDGET:
        raise SearchTooLarge(
            f"obstruction search output too large: {len(found)} witnesses x {r} "
            f"multiplicities = {size} exceed the bound of {OUTPUT_BUDGET}; use a smaller r",
            size)

    # (alpha, beta, M, D^2) is unique per witness, so this is the witness order
    found.sort()
    mults_of = {}  # (M, D^2 option) -> multiplicity vector padded to length r
    witnesses = []
    for alpha, beta, m_sum, d2, nd, sq in found:
        mults = mults_of.get((m_sum, sq))
        if mults is None:
            if table is not None:
                rep = table.representative(sq, m_sum, min(parts, m_sum))
            else:
                rep = (m_sum,) if m_sum else ()
            mults = mults_of[m_sum, sq] = rep + (0,) * (r - len(rep))
        witnesses.append(ObstructionWitness(DivisorClass(alpha, beta), mults, nd, d2))
    return witnesses
