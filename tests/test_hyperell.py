"""The rank-2 lattice: surface registry, intersection form, positivity predicates."""

from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvacert.hyperell import (
    DivisorClass,
    intersect,
    is_ample,
    is_nonzero_effective_cone,
    kva_sufficient,
    self_intersection,
    surface_by_id,
    surface_table,
)

EXPECTED_TABLE = [
    (1, "Z2", (2, 2, 2, 2), 2, 2, "A/2, B"),
    (2, "Z2xZ2", (2, 2, 2, 2), 2, 4, "A/2, B/2"),
    (3, "Z4", (2, 4, 4), 4, 4, "A/4, B"),
    (4, "Z4xZ2", (2, 4, 4), 4, 8, "A/4, B/2"),
    (5, "Z3", (3, 3, 3), 3, 3, "A/3, B"),
    (6, "Z3xZ3", (3, 3, 3), 3, 9, "A/3, B/3"),
    (7, "Z6", (2, 3, 6), 6, 6, "A/6, B"),
]


def _group_order(name: str) -> int:
    # independent reading of gamma from the group name, e.g. "Z4xZ2" -> 8
    order = 1
    for factor in name.split("x"):
        assert factor.startswith("Z")
        order *= int(factor[1:])
    return order


class TestSurfaceTable:
    def test_seven_rows_exact(self):
        rows = surface_table()
        assert len(rows) == 7
        # the fields are the keys of ``kvacert surfaces --json``, in its order
        assert rows[0]._fields == ("id", "group", "multiplicities", "mu", "gamma", "basis")
        got = [(s.id, s.group, s.multiplicities, s.mu, s.gamma, s.basis) for s in rows]
        assert got == EXPECTED_TABLE

    def test_mu_is_lcm_of_multiplicities(self):
        for s in surface_table():
            assert s.mu == lcm(*s.multiplicities)

    def test_gamma_is_group_order(self):
        for s in surface_table():
            assert s.gamma == _group_order(s.group)

    def test_selected_rows(self):
        s1, s4, s7 = surface_by_id(1), surface_by_id(4), surface_by_id(7)
        assert (s1.group, s1.multiplicities, s1.mu, s1.gamma) == ("Z2", (2, 2, 2, 2), 2, 2)
        assert (s4.group, s4.multiplicities, s4.mu, s4.gamma) == ("Z4xZ2", (2, 4, 4), 4, 8)
        assert (s7.group, s7.multiplicities, s7.mu, s7.gamma) == ("Z6", (2, 3, 6), 6, 6)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown surface type id: 8 \(valid: 1\.\.7\)$"):
            surface_by_id(8)


class TestIntersectionForm:
    def test_basis_pairing_is_one(self):
        assert intersect(DivisorClass(1, 0), DivisorClass(0, 1)) == 1

    def test_polarization_square(self):
        assert intersect(DivisorClass(12, 12), DivisorClass(12, 12)) == 288

    def test_basis_vectors_isotropic(self):
        assert intersect(DivisorClass(1, 0), DivisorClass(1, 0)) == 0

    def test_self_intersection_is_2ab(self):
        assert self_intersection(DivisorClass(12, 12)) == 288
        assert self_intersection(DivisorClass(1, 0)) == 0
        assert self_intersection(DivisorClass(-1, 1)) == -2

    def test_self_intersection_matches_pairing(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                d = DivisorClass(a, b)
                assert self_intersection(d) == intersect(d, d)

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_symmetry(self, a1, b1, a2, b2):
        d1, d2 = DivisorClass(a1, b1), DivisorClass(a2, b2)
        assert intersect(d1, d2) == intersect(d2, d1)

    @given(*(st.integers(-30, 30) for _ in range(6)))
    def test_bilinearity(self, a1, b1, a2, b2, a3, b3):
        d1, d2, d3 = DivisorClass(a1, b1), DivisorClass(a2, b2), DivisorClass(a3, b3)
        assert intersect(DivisorClass(a1 + a2, b1 + b2), d3) == intersect(d1, d3) + intersect(d2, d3)

    @given(*(st.integers(-30, 30) for _ in range(4)))
    def test_hodge_index_identity(self, a1, b1, a2, b2):
        # (d.e)^2 - d^2 e^2 = (a1 b2 - a2 b1)^2 >= 0: the rank-2 form is hyperbolic
        d, e = DivisorClass(a1, b1), DivisorClass(a2, b2)
        gap = intersect(d, e) ** 2 - self_intersection(d) * self_intersection(e)
        assert gap == (a1 * b2 - a2 * b1) ** 2
        assert gap >= 0


class TestPositivityPredicates:
    def test_ample_iff_both_positive(self):
        assert is_ample(DivisorClass(1, 1))
        assert not is_ample(DivisorClass(0, 5))
        assert not is_ample(DivisorClass(-1, 3))

    def test_effective_cone(self):
        assert is_nonzero_effective_cone(DivisorClass(0, 1))
        assert not is_nonzero_effective_cone(DivisorClass(0, 0))
        assert not is_nonzero_effective_cone(DivisorClass(-1, 2))

    def test_kva_sufficient_boundary(self):
        assert kva_sufficient(DivisorClass(4, 4), 2)
        assert not kva_sufficient(DivisorClass(4, 3), 2)
        assert kva_sufficient(DivisorClass(12, 12), 2)

    def test_kva_sufficient_rejects_negative_k(self):
        with pytest.raises(ValueError):
            kva_sufficient(DivisorClass(4, 4), -1)

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_ample_implies_positive_square_and_cone(self, a, b):
        d = DivisorClass(a, b)
        if is_ample(d):
            assert self_intersection(d) > 0
            assert is_nonzero_effective_cone(d)

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 8))
    def test_kva_sufficient_implies_ample(self, a, b, k):
        d = DivisorClass(a, b)
        if kva_sufficient(d, k):
            assert is_ample(d)
