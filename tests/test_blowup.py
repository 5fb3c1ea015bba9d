"""Blow-up arithmetic, Seshadri bound, obstruction condition and search oracle."""

import itertools
import random
import time
from collections import defaultdict
from fractions import Fraction
from math import floor
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kvacert.blowup as blowup_module
from kvacert.blowup import (
    OUTPUT_BUDGET,
    SEARCH_BUDGET,
    BlowupClass,
    ObstructionWitness,
    SearchTooLarge,
    _search_estimate,
    _SquareSums,
    blowup_intersect,
    bs_condition3,
    certify_instance,
    n_class,
    point_bound,
    search_obstruction,
    seshadri_lower_sq,
    star_holds,
)
from kvacert.constants import C_MAX_DEFAULT
from kvacert.hyperell import DivisorClass, intersect, self_intersection

DELTA = Fraction(178, 1000)


class TestBlowupIntersect:
    def test_adjoint_class_square(self):
        n = n_class(DivisorClass(12, 12), 2, 28)
        assert n.mults == (3,) * 28
        assert blowup_intersect(n, n) == 288 - 9 * 28 == 36

    def test_no_exceptional_part(self):
        x = BlowupClass(DivisorClass(2, 3), ())
        y = BlowupClass(DivisorClass(1, 4), ())
        assert blowup_intersect(x, y) == intersect(x.base, y.base)

    def test_adjoint_against_candidate(self):
        n = n_class(DivisorClass(3, 3), 2, 4)
        d = BlowupClass(DivisorClass(1, 1), (1, 0, 0, 0))
        assert blowup_intersect(n, d) == 6 - 3 * 1 == 3

    def test_mismatched_point_count_rejected(self):
        with pytest.raises(ValueError):
            blowup_intersect(
                BlowupClass(DivisorClass(1, 1), (1,)), BlowupClass(DivisorClass(1, 1), (1, 1))
            )

    def test_pullback_only(self):
        assert n_class(DivisorClass(12, 12), 2, 0).mults == ()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            n_class(DivisorClass(1, 1), -1, 3)
        with pytest.raises(ValueError):
            n_class(DivisorClass(1, 1), 2, -1)

    def test_square_identity_small_grid(self):
        for k in range(0, 7):
            for r in range(0, 21):
                for a, b in ((1, 1), (5, 3), (-2, 4)):
                    l_s = DivisorClass(a, b)
                    n = n_class(l_s, k, r)
                    assert blowup_intersect(n, n) == self_intersection(l_s) - (k + 1) ** 2 * r

    def test_hodge_index_on_blowup_lattice(self):
        # signature (1, r+1): whenever x^2 > 0, x^2 y^2 <= (x.y)^2
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
            if x2 <= 0:
                continue
            assert x2 * blowup_intersect(y, y) <= blowup_intersect(x, y) ** 2
            checked += 1
        assert checked > 1000


class TestSeshadriLowerBound:
    def test_polarization_at_28_points(self):
        # L^2 (8r-1) / (8 r^2) with L^2 = 288, r = 28
        expected = Fraction(288 * (8 * 28 - 1), 8 * 28 * 28)
        assert expected == Fraction(2007, 196)
        assert seshadri_lower_sq(DivisorClass(12, 12), 28) == expected

    def test_smallest_case(self):
        assert seshadri_lower_sq(DivisorClass(1, 1), 1) == Fraction(7, 4)

    def test_decreasing_in_r(self):
        one = seshadri_lower_sq(DivisorClass(12, 12), 1)
        two = seshadri_lower_sq(DivisorClass(12, 12), 2)
        assert (one, two) == (Fraction(252), Fraction(135))
        assert one > two

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            seshadri_lower_sq(DivisorClass(12, 12), 0)
        with pytest.raises(ValueError):
            seshadri_lower_sq(DivisorClass(0, 5), 3)


class TestAmpleness:
    """Every library entry that takes the polarization alone refuses one that is not ample."""

    def test_one_message_for_every_entry(self):
        for (a, b), call in (((-1, -1), lambda l_s: seshadri_lower_sq(l_s, 1)),
                             ((-5, -5), lambda l_s: point_bound(l_s, 2, Fraction(887, 1000))),
                             ((0, 4), lambda l_s: search_obstruction(l_s, 2, 2))):
            with pytest.raises(ValueError) as info:
                call(DivisorClass(a, b))
            assert str(info.value) == f"class ({a},{b}) is not ample (need a > 0 and b > 0)"

    def test_instance_without_ample_class_fails_star(self):
        # L^2 = 800 > 0, but (-20,-20) is not ample, so there is no Seshadri bound to check
        # and no r_max read off L^2
        cert = certify_instance(DivisorClass(-20, -20), 2, 10, 2, Fraction(887, 1000), DELTA)
        assert cert.seshadri_lower_sq is None and cert.star is None
        assert cert.l2 == 800 and cert.r_max == 0
        assert cert.hypothesis_checks[-1] == (
            "r-le-r_max", False, "r = 2, r_max = floor(c*L^2/(k+1)^2) = 0")
        name, ok, detail = cert.certificate_checks[0]
        assert (name, ok) == ("star", False)
        assert "none (needs r >= 1 and an ample class)" in detail
        assert not cert.certified


class TestStarCondition:
    def test_holds_at_the_certified_instance(self):
        assert star_holds(DivisorClass(12, 12), 28, 2, DELTA)

    def test_holds_with_zero_slack(self):
        assert star_holds(DivisorClass(12, 12), 28, 2, 0)

    def test_fails_for_small_polarization(self):
        assert not star_holds(DivisorClass(3, 3), 28, 2, 0)

    def test_any_bound_exceeds_a_negative_threshold(self):
        # k + 1 + delta = -4 < 3.2 ~ the bound, although 3.2^2 < (-4)^2
        assert star_holds(DivisorClass(12, 12), 28, -5, 0)
        with pytest.raises(ValueError):
            star_holds(DivisorClass(0, 4), 28, -5, 0)


class TestObstructionCondition:
    def test_window_membership(self):
        assert bs_condition3(3, 1, 2)

    def test_strict_middle_inequality(self):
        assert not bs_condition3(6, 2, 2)  # nd/2 = 3 is not < 3

    def test_negative_square_window(self):
        assert bs_condition3(1, -1, 2)

    def test_clause_order_on_a_small_grid(self):
        for nd, d2, k in itertools.product(range(-15, 16), range(-15, 16), range(-3, 13)):
            assert bs_condition3(nd, d2, k) is _lower_bound_first(nd, d2, k), (nd, d2, k)

    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
           st.integers(-10**30, 10**30))
    def test_clause_order_on_large_integers(self, nd, d2, k):
        assert bs_condition3(nd, d2, k) is _lower_bound_first(nd, d2, k)


def _lower_bound_first(nd, d2, k):
    """The clause order bs_condition3 replaced: lower bound, then middle, then upper."""
    return nd - k - 1 <= d2 and 2 * d2 < nd and nd < 2 * k + 2


def _brute_force_witnesses(a, b, k, r, delta, formula):
    """Independent oracle: enumerate raw multiplicity r-tuples, no multiset tricks.

    Same candidate model as the search (effective cone, sum m_i <= (k+1)/delta,
    L.D_S <= (k+1)(1+sum), N.D >= 1), but with every m-vector spelled out.
    """
    t = k + 1
    m_max = floor(Fraction(t) / delta) if r >= 1 else 0
    found = set()
    coord_cap = t * (1 + m_max)
    # r-tuples up to permutation: both N.D and D^2 are symmetric in the m_i,
    # so enumerating sorted tuples spells out every distinct vector
    m_vectors = list(itertools.combinations_with_replacement(range(m_max + 1), r))
    for alpha in range(0, coord_cap + 1):
        for beta in range(0, coord_cap + 1):
            if (alpha, beta) == (0, 0):
                continue
            lds = a * beta + b * alpha
            for mvec in m_vectors:
                m_sum = sum(mvec)
                if m_sum > m_max or lds > t * (1 + m_sum):
                    continue
                nd = lds - t * m_sum
                if nd < 1:
                    continue
                if formula == "paper":
                    d2 = 2 * alpha * beta - m_sum * m_sum
                else:
                    d2 = 2 * alpha * beta - sum(m * m for m in mvec)
                if bs_condition3(nd, d2, k):
                    found.add((alpha, beta, tuple(sorted(mvec, reverse=True)), nd, d2))
    return found


class TestSearchOracle:
    def test_certified_instance_is_clear_both_formulas(self):
        for formula in ("paper", "standard"):
            assert search_obstruction(DivisorClass(12, 12), 2, 28, DELTA, formula=formula) == []

    def test_small_instance_matches_raw_enumeration_paper(self):
        # the paper convention sees only the total multiplicity, so compare
        # the raw r-tuple enumeration with the search on collapsed keys
        got = {
            (w.d_s.a, w.d_s.b, sum(w.mults), w.nd, w.d2)
            for w in search_obstruction(DivisorClass(3, 3), 2, 4, DELTA)
        }
        raw = _brute_force_witnesses(3, 3, 2, 4, DELTA, "paper")
        assert got == {(al, be, sum(m), nd, d2) for (al, be, m, nd, d2) in raw}

    def test_small_instance_matches_raw_enumeration_standard(self):
        got = {
            (w.d_s.a, w.d_s.b, w.nd, w.d2)
            for w in search_obstruction(DivisorClass(3, 3), 2, 4, DELTA, formula="standard")
        }
        raw = _brute_force_witnesses(3, 3, 2, 4, DELTA, "standard")
        assert got == {(al, be, nd, d2) for (al, be, _m, nd, d2) in raw}
        # and every representative multiset the search reports is realizable
        reported = {
            (w.d_s.a, w.d_s.b, w.mults, w.nd, w.d2)
            for w in search_obstruction(DivisorClass(3, 3), 2, 4, DELTA, formula="standard")
        }
        assert reported <= raw

    def test_expected_witness_present(self):
        witnesses = search_obstruction(DivisorClass(3, 3), 2, 4, DELTA)
        target = ObstructionWitness(DivisorClass(1, 1), (1, 0, 0, 0), nd=3, d2=1)
        assert target in witnesses

    def test_no_points_no_witnesses(self):
        assert search_obstruction(DivisorClass(12, 12), 2, 0, DELTA) == []

    def test_deterministic_and_sorted(self):
        first = search_obstruction(DivisorClass(3, 3), 2, 4, DELTA, formula="standard")
        second = search_obstruction(DivisorClass(3, 3), 2, 4, DELTA, formula="standard")
        assert first == second
        key = lambda w: (w.d_s.a, w.d_s.b, sum(w.mults), w.d2, w.mults)
        assert first == sorted(first, key=key)

    def test_every_witness_rechecks(self):
        for formula in ("paper", "standard"):
            for w in search_obstruction(DivisorClass(3, 3), 2, 4, DELTA, formula=formula):
                assert bs_condition3(w.nd, w.d2, 2)
                assert len(w.mults) == 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            search_obstruction(DivisorClass(3, 3), 1, 4, DELTA)
        with pytest.raises(ValueError):
            search_obstruction(DivisorClass(3, 3), 2, 4, Fraction(0))
        with pytest.raises(ValueError):
            search_obstruction(DivisorClass(0, 3), 2, 4, DELTA)
        with pytest.raises(ValueError):
            search_obstruction(DivisorClass(3, 3), 2, 4, DELTA, formula="other")


class TestPaperFormula:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 15), st.integers(1, 15), st.integers(2, 4), st.integers(1, 8),
           st.fractions(Fraction(1, 20), 2, max_denominator=50))
    def test_paper_formula_is_the_one_part_standard_formula(self, a, b, k, r, delta):
        # D_S^2 - (sum m_i)^2 is D_S^2 - sum m_i^2 with all of M on one point
        try:
            paper = search_obstruction(DivisorClass(a, b), k, r, delta, "paper")
            one_part = search_obstruction(DivisorClass(a, b), k, 1, delta, "standard")
        except SearchTooLarge:
            return
        assert [w._replace(mults=w.mults[:1]) for w in paper] == one_part
        assert all(not any(w.mults[1:]) for w in paper)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 40), st.integers(1, 40), st.integers(0, 300),
           st.fractions(Fraction(1, 40), 2, max_denominator=100))
    def test_empty_on_the_theorems_domain(self, k, da, db, r, delta):
        """No paper witness when a, b >= t^2 + 1, t = k+1, for every r and delta.

        Let s = alpha + beta and M = sum m_i.  The search box has N.D = L.D_S - tM <= t,
        and a witness has D^2 >= N.D - t >= 1 - t.  Since L.D_S >= (t^2 + 1) s, the box
        gives tM >= (t^2 + 1) s - t, so M >= ts - 1 + s/t, hence M >= ts when s >= 1
        (M is an integer).
        * alpha = 0 or beta = 0: D^2 = -M^2 <= -t^2 < 1 - t.
        * alpha, beta >= 1, so s >= 2: D^2 = 2 alpha beta - M^2 <= s^2/2 - t^2 s^2,
          which is below 1 - t because (t^2 - 1/2) s^2 >= 4t^2 - 2 > t - 1.
        Only a, b >= t^2 + 1 is used: not r, not delta, and not the theorem's a, b >= d + 2.
        """
        t = k + 1
        l_s = DivisorClass(t * t + da, t * t + db)
        assert search_obstruction(l_s, k, r, delta, "paper") == []

    @pytest.mark.parametrize("formula, k, largest, domain", [
        pytest.param("paper", 2, 5, 10, id="2-5-10"),
        pytest.param("paper", 3, 7, 17, id="3-7-17"),
        pytest.param("paper", 4, 11, 26, id="4-11-26"),
        pytest.param("standard", 2, 7, 12, id="standard-2-7-12"),
        pytest.param("standard", 3, 13, 19, id="standard-3-13-19"),
        pytest.param("standard", 4, 21, 28, id="standard-4-21-28"),
    ])
    def test_largest_square_class_with_witnesses(self, formula, k, largest, domain):
        # the bounds of the test above and of TestStandardFormula are not vacuous, nor sharp:
        # witnesses on (a, a) stop well below the domain's smallest a.  For the paper formula
        # at r = 1 that is (k+1)^2 + 1; for the standard formula at r in {2, r_max//2, r_max}
        # it is the theorem's a = d + 2 = (k+1)^2 + 3, with r_max = floor(c L^2/(k+1)^2)
        t = k + 1
        assert domain == t * t + (1 if formula == "paper" else 3)

        def points(a):
            r_max = floor(C_MAX_DEFAULT * 2 * a * a / (t * t))
            return (1,) if formula == "paper" else (2, r_max // 2, r_max)

        assert search_obstruction(DivisorClass(largest, largest), k, points(largest)[-1], DELTA,
                                  formula)
        for a in range(largest + 1, domain + 1):
            for r in points(a):
                assert search_obstruction(DivisorClass(a, a), k, r, DELTA, formula) == [], (a, r)


@st.composite
def _certified_instances(draw):
    """(class, k, d, r, delta) on the theorem's domain: d in [t^2+1, t^2+4], a and b in
    [d+2, d+14] and r in [2, r_max], at the certified c and one of two slacks."""
    k = draw(st.integers(2, 4))
    t = k + 1
    d = draw(st.integers(t * t + 1, t * t + 4))
    l_s = DivisorClass(draw(st.integers(d + 2, d + 14)), draw(st.integers(d + 2, d + 14)))
    r_max = floor(C_MAX_DEFAULT * self_intersection(l_s) / (t * t))
    return l_s, k, d, draw(st.integers(2, r_max)), draw(st.sampled_from([DELTA, Fraction(1, 10)]))


class TestStandardFormula:
    @settings(max_examples=100, deadline=None)
    @given(_certified_instances())
    def test_no_witness_where_the_theorem_certifies(self, instance):
        # the paper formula is empty here by TestPaperFormula's proof; the standard formula
        # has no such proof yet, so this samples it
        l_s, k, d, r, delta = instance
        assume(certify_instance(l_s, k, d, r, C_MAX_DEFAULT, delta).certified)
        for formula in ("paper", "standard"):
            assert search_obstruction(l_s, k, r, delta, formula) == [], formula


def _square_sum_options(m_sum: int, max_parts: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Distinct values of sum(m_i^2) over partitions of m_sum into <= max_parts parts.

    Returns (value, representative partition) pairs sorted by value, read from
    one ``_SquareSums`` table; the representative is the lexicographically
    largest descending partition.
    """
    parts = min(max_parts, m_sum)
    table = _SquareSums(parts, m_sum)
    return tuple((q, table.representative(q, m_sum, parts)) for q in table.values(m_sum, parts))


class TestSquareSumOptions:
    def test_partitions_of_four(self):
        assert _square_sum_options(4, 4) == (
            (4, (1, 1, 1, 1)),
            (6, (2, 1, 1)),
            (8, (2, 2)),
            (10, (3, 1)),
            (16, (4,)),
        )

    def test_part_count_cap(self):
        # at most 2 parts: 1+1+1+1 and 2+1+1 disappear
        assert _square_sum_options(4, 2) == ((8, (2, 2)), (10, (3, 1)), (16, (4,)))

    def test_values_match_their_representatives(self):
        for m_sum in range(1, 12):
            for cap in (1, 2, 3, 8):
                for value, parts in _square_sum_options(m_sum, cap):
                    assert sum(parts) == m_sum
                    assert len(parts) <= cap
                    assert sum(p * p for p in parts) == value

    def test_values_match_the_whole_entry_decode(self):
        table = _SquareSums(40, 40)
        for n in range(0, 41):
            for parts in range(0, n + 1):
                assert table.values(n, parts) == _every_bit_values(table, n, parts), (n, parts)

    def test_one_part_has_the_single_value_n_squared(self):
        table = _SquareSums(1, 561)
        for n in range(0, 562):
            assert table.values(n, 1) == [n * n], n

    def test_representatives_are_lexicographic_maxima(self):
        # brute force: every descending partition, grouped by sum of squares
        for m_sum in range(0, 21):
            partitions = list(_partitions(m_sum, m_sum))
            for cap in range(0, m_sum + 2):
                best: dict[int, tuple[int, ...]] = {}
                for parts in partitions:
                    if len(parts) <= cap:
                        value = sum(p * p for p in parts)
                        best[value] = max(best.get(value, parts), parts)
                assert _square_sum_options(m_sum, cap) == tuple(sorted(best.items())), (m_sum, cap)


def _every_bit_values(table, n, parts):
    """The decode values() replaced: every bit of the entry, from bit 0, through bin()."""
    bits = bin(table.reach[parts][n])[:1:-1]
    return [q for q, bit in enumerate(bits) if bit == "1"]


def _partitions(n, max_part):
    """Every partition of n into parts <= max_part, each as a descending tuple."""
    if n == 0:
        yield ()
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _partition_walk_options(m_sum, max_parts):
    """The partition walk the bitset table replaced: first hit in descending-lex order."""
    reps = {}

    def walk(rest, max_part, parts_left, acc, sq):
        if rest == 0:
            reps.setdefault(sq, acc)
            return
        if parts_left == 0:
            return
        for first in range(min(rest, max_part), 0, -1):
            walk(rest - first, first, parts_left - 1, acc + (first,), sq + first * first)

    walk(m_sum, m_sum, min(max_parts, m_sum), (), 0)
    return tuple(sorted(reps.items()))


def _box_walk_search(a, b, k, r, delta, formula, condition):
    """The box walk the beta window replaced: every beta up to the L.D_S cap."""
    t = k + 1
    m_max = floor(Fraction(t) / delta) if r >= 1 else 0
    witnesses = []
    for m_sum in range(0, m_max + 1):
        if m_sum == 0:
            q_options = ((0, ()),)
        elif formula == "paper":
            q_options = ((m_sum * m_sum, (m_sum,)),)
        else:
            q_options = _partition_walk_options(m_sum, min(r, m_sum))
        bound = t * (1 + m_sum)
        for alpha in range(0, bound // b + 1):
            rest = bound - b * alpha
            for beta in range(0, rest // a + 1):
                if alpha == 0 and beta == 0:
                    continue
                nd = a * beta + b * alpha - t * m_sum
                if nd < 1:
                    continue
                for sq, parts in q_options:
                    d2 = 2 * alpha * beta - sq
                    if condition(nd, d2, k):
                        mults = parts + (0,) * (r - len(parts))
                        witnesses.append(
                            ObstructionWitness(DivisorClass(alpha, beta), mults, nd, d2)
                        )
    witnesses.sort(key=lambda w: (w.d_s.a, w.d_s.b, sum(w.mults), w.d2, w.mults))
    return witnesses


def _assert_walks_agree(a, b, k, r, delta, formula) -> int:
    """The search and the box walk report the same witnesses from the same condition tests.

    Returns the number of condition tests each made.
    """
    calls = defaultdict(int)

    def counting(name):
        def condition(nd, d2, k):
            calls[name] += 1
            return bs_condition3(nd, d2, k)
        return condition

    with mock.patch.object(blowup_module, "bs_condition3", counting("window")):
        got = search_obstruction(DivisorClass(a, b), k, r, delta, formula=formula)
    want = _box_walk_search(a, b, k, r, delta, formula, counting("box"))
    case = (a, b, k, r, delta, formula)
    assert got == want, case
    assert calls["window"] == calls["box"], case
    return calls["window"]


@st.composite
def _search_cases(draw):
    """(a, b, k, r, delta, formula) whose box walk stays small.

    a and b reach 3t, so rows with a one-cell or empty window (a > t) and
    totals M with only the alpha = 0 row (b > t(M+1)) occur, and so do rows
    with rest = t*M - b*alpha < 0.  delta is drawn through m_max = floor(t/delta):
    down to t/80 under the paper formula, when a and b keep the box small.
    """
    k = draw(st.integers(2, 4))
    t = k + 1
    a, b = draw(st.integers(1, 3 * t)), draw(st.integers(1, 3 * t))
    r = draw(st.integers(0, 6))
    formula = draw(st.sampled_from(["paper", "standard"]))
    # the largest m_max, up to a cap, whose box of (t(M+1)/b + 1)(t(M+1)/a + 1) cells
    # per total M <= m_max stays within 20,000 cells
    m_cap, cells = 0, 0
    while m_cap < (80 if formula == "paper" else 16):
        cells += (t * (m_cap + 2) // b + 1) * (t * (m_cap + 2) // a + 1)
        if cells > 20000:
            break
        m_cap += 1
    m = draw(st.integers(0, m_cap))
    # t/delta = m + s/q lies in [m, m+1), so m_max = m when r >= 1
    q = draw(st.integers(2, 6))
    s = draw(st.integers(0 if m else 1, q - 1))
    return a, b, k, r, Fraction(t * q, m * q + s), formula


class TestSearchAgainstBoxWalk:
    # a or b above t = k+1, as in (7, 2), (12, 12) and (30, 5), leaves rows whose
    # beta window is empty (lo > hi) and, at r = 0, searches with no witness at all;
    # (6, 4) has gcd 2, so its lines of constant N.D step by (3, -2)
    GRID = [
        (a, b, k, r, delta)
        for a, b in ((1, 1), (1, 3), (2, 2), (3, 3), (5, 4), (6, 4), (7, 2), (12, 12), (30, 5))
        for k in (2, 3)
        for r in (0, 1, 2, 4, 7)
        for delta in (DELTA, Fraction(1, 3), Fraction(1))
    ]

    @pytest.mark.parametrize("formula", ["paper", "standard"])
    def test_identical_witnesses_and_condition_tests(self, formula):
        for a, b, k, r, delta in self.GRID:
            calls = _assert_walks_agree(a, b, k, r, delta, formula)
            t = k + 1
            m_max = floor(Fraction(t) / delta) if r >= 1 else 0
            assert calls <= _search_estimate(a, b, t, r, m_max, formula)

    @settings(max_examples=150, deadline=None)
    @given(_search_cases())
    @example((3, 3, 2, 0, DELTA, "paper"))  # r = 0: only the M = 0 rows
    @example((3, 3, 2, 0, DELTA, "standard"))
    @example((7, 2, 2, 4, Fraction(1, 2), "paper"))  # a > t: windows of at most one cell
    @example((7, 2, 2, 4, Fraction(1, 2), "standard"))
    @example((2, 10, 2, 3, Fraction(3, 2), "paper"))  # b > t(M+1) for every M <= 2
    @example((2, 10, 2, 3, Fraction(3, 2), "standard"))
    @example((9, 9, 2, 3, Fraction(3, 50), "paper"))  # m_max = 50
    @example((9, 9, 2, 3, Fraction(3, 50), "standard"))
    @example((4, 5, 4, 4, Fraction(5, 40), "paper"))  # lines step by (4, -5), m_max = 40
    @example((4, 5, 4, 4, Fraction(5, 12), "standard"))
    # r = 1: every M has the single option M^2, the top bit of its table entry; m_max = 40
    @example((3, 3, 2, 1, Fraction(3, 40), "standard"))
    # b > t(M+1) for every M <= m_max: one row per M, with an empty window, where a walk
    # of all t = 2001 lines per M would visit about 22.5 million (the standard formula's
    # table keeps m_max at 600 and r at 1)
    @example((10**9, 10**9 + 1, 2000, 3, DELTA, "paper"))
    @example((10**9, 10**9 + 1, 2000, 1, Fraction(2001, 600), "standard"))
    def test_drawn_searches(self, case):
        _assert_walks_agree(*case)


class TestSearchBudget:
    def test_oversized_search_is_refused_promptly(self):
        start = time.monotonic()
        with pytest.raises(SearchTooLarge) as info:
            search_obstruction(DivisorClass(12, 12), 2, 28, Fraction(1, 10_000_000))
        assert info.value.estimate > SEARCH_BUDGET
        assert str(info.value.estimate) in str(info.value)
        assert time.monotonic() - start < 1.0

    def test_standard_table_counts_towards_the_budget(self):
        # no cell in the window for a huge polarization, but the D^2 table alone is too big
        with pytest.raises(SearchTooLarge):
            search_obstruction(DivisorClass(10**6, 10**6), 2, 10**6, Fraction(1, 1000),
                               formula="standard")

    def test_paper_cells_are_weighted(self):
        # 162,099,012 cells of one D^2 option: about 20 s of search, refused up front
        t, m_max = 3, 6000
        assert _search_estimate(1, 1, t, 5, m_max, "paper") == 18 * 162_099_012
        start = time.monotonic()
        with pytest.raises(SearchTooLarge):
            search_obstruction(DivisorClass(1, 1), 2, 5, Fraction(1, 2000))
        assert time.monotonic() - start < 1.0

    def test_standard_cells_count_one_step_per_option(self):
        # (12,12), k=100, r=1: both formulas run the same code, one pass per line with one
        # D^2 option, but only a paper cell weighs PAPER_CELL_STEPS.  So the standard
        # search (450 witnesses, run by CI) is accepted and the paper search is refused.
        m_max = floor(101 / DELTA)  # 567
        standard = _search_estimate(12, 12, 101, 1, m_max, "standard")
        paper = _search_estimate(12, 12, 101, 1, m_max, "paper")
        assert (standard, paper) == (134_091_659, 220_428_054)
        assert standard <= SEARCH_BUDGET < paper
        with pytest.raises(SearchTooLarge) as info:
            search_obstruction(DivisorClass(12, 12), 100, 1, DELTA)
        assert info.value.estimate == paper

    def test_output_is_bounded_in_witnesses_times_r(self):
        # (3,3) at k=2 has 5 paper witnesses whatever r is: 5 x 200,000 = OUTPUT_BUDGET
        witnesses = search_obstruction(DivisorClass(3, 3), 2, 200_000)
        assert len(witnesses) * 200_000 == OUTPUT_BUDGET
        assert all(len(w.mults) == 200_000 for w in witnesses)
        assert ([w._replace(mults=w.mults[:4]) for w in witnesses]
                == search_obstruction(DivisorClass(3, 3), 2, 4))
        with pytest.raises(SearchTooLarge) as info:
            search_obstruction(DivisorClass(3, 3), 2, 200_001)
        assert info.value.estimate == 5 * 200_001
        assert str(OUTPUT_BUDGET) in str(info.value)

    def test_largest_known_instance_is_far_below_the_budget(self):
        # (3,3) at k=8, r=40 under the standard formula: m_max = floor(9/0.178) = 50
        assert 10 * _search_estimate(3, 3, 9, 40, 50, "standard") <= SEARCH_BUDGET
