"""The rank-2 numerical lattice of a bielliptic (hyperelliptic) surface.

Divisor classes modulo numerical equivalence form a rank-2 lattice with an
isotropic basis.  In the normalized basis (A/mu, (mu/gamma)B) the pairing of
the two generators is A*B/gamma = 1, so every one of the seven surface types
shares the intersection matrix [[0, 1], [1, 0]]; the type only contributes
its row of ``surface_table()``, which ``kvacert surfaces`` prints as it is.  A
class is therefore the pair (a, b) alone, on every type: no number derived
from it depends on the type.
The canonical class is numerically trivial on these surfaces, so it never
appears explicitly.
"""

from __future__ import annotations

from collections import namedtuple

from .exactmath import Value


class SurfaceType(namedtuple("SurfaceType", "id group multiplicities mu gamma basis")):
    """One of the seven Bagnera-de Franchis classes of bielliptic surfaces.

    ``group`` names the acting group and ``multiplicities`` are those of the
    singular fibres; ``mu`` is their lcm, ``gamma`` the order of the group, and
    ``basis`` labels the basis A/mu, (mu/gamma)B of the numerical lattice.  The
    fields are the keys of ``kvacert surfaces --json``, in its order.
    """

    __slots__ = ()
    id: int
    group: str
    multiplicities: tuple[int, ...]
    mu: int
    gamma: int
    basis: str


_SURFACES = (
    SurfaceType(1, "Z2", (2, 2, 2, 2), 2, 2, "A/2, B"),
    SurfaceType(2, "Z2xZ2", (2, 2, 2, 2), 2, 4, "A/2, B/2"),
    SurfaceType(3, "Z4", (2, 4, 4), 4, 4, "A/4, B"),
    SurfaceType(4, "Z4xZ2", (2, 4, 4), 4, 8, "A/4, B/2"),
    SurfaceType(5, "Z3", (3, 3, 3), 3, 3, "A/3, B"),
    SurfaceType(6, "Z3xZ3", (3, 3, 3), 3, 9, "A/3, B/3"),
    SurfaceType(7, "Z6", (2, 3, 6), 6, 6, "A/6, B"),
)


def surface_table() -> list[SurfaceType]:
    """All seven surface types, in id order."""
    return list(_SURFACES)


def surface_by_id(type_id: int) -> SurfaceType:
    for s in _SURFACES:
        if s.id == type_id:
            return s
    raise ValueError(f"unknown surface type id: {type_id}"
                     f" (valid: {_SURFACES[0].id}..{_SURFACES[-1].id})")


class DivisorClass(Value):
    """Numerical class a*(A/mu) + b*(mu/gamma)*B, integer coordinates, on any surface type."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        if not isinstance(a, int) or not isinstance(b, int):
            raise TypeError("divisor coordinates must be integers")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number a1*b2 + a2*b1 (the hyperbolic form [[0,1],[1,0]])."""
    return d1.a * d2.b + d2.a * d1.b


def self_intersection(d: DivisorClass) -> int:
    """Self-intersection 2ab."""
    return 2 * d.a * d.b


def is_ample(d: DivisorClass) -> bool:
    """Ampleness criterion on these surfaces: both coordinates positive."""
    return d.a > 0 and d.b > 0


def is_nonzero_effective_cone(d: DivisorClass) -> bool:
    """Nonzero class with nonnegative coordinates.

    This is the numerical-effectivity cone over which obstruction
    candidates are enumerated; no section computation is involved.
    """
    return d.a >= 0 and d.b >= 0 and (d.a, d.b) != (0, 0)


def kva_sufficient(d: DivisorClass, k: int) -> bool:
    """Sufficient numerical condition for k-very ampleness on the base surface.

    A class with a >= k+2 and b >= k+2 is k-very ample (Mella-Palleschi).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return d.a >= k + 2 and d.b >= k + 2
