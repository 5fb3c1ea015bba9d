"""The value types and records: field-value equality, immutability, validation.

``QuadExpr``, ``Poly``, ``DivisorClass`` and ``BlowupClass`` are ``__slots__``
classes on :class:`kvacert.exactmath.Value`; the records are ``collections.namedtuple``
subclasses with ``__slots__ = ()``.
"""

import copy
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest

from kvacert.blowup import BlowupClass, InstanceCertificate, ObstructionWitness
from kvacert.constants import CertRecord, ConstantsReport, Discrepancy, _AtT0
from kvacert.exactmath import Poly, PolyRayResult, QuadExpr
from kvacert.hyperell import DivisorClass, SurfaceType

#: (class, field values, the same values with one field changed)
VALUES = [
    (QuadExpr, (1, 2, 3), (1, 2, 5)),
    (Poly, ([1, 2, Fraction(1, 3)],), ([1, 2],)),
    (DivisorClass, (1, 2), (1, 3)),
    (BlowupClass, (DivisorClass(1, 2), (1, 0)), (DivisorClass(1, 2), (0, 1))),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]

RECORDS = [SurfaceType, PolyRayResult, ObstructionWitness, CertRecord, Discrepancy,
           ConstantsReport, InstanceCertificate]


@pytest.mark.parametrize("cls,args,other", VALUES, ids=IDS)
class TestValueTypes:
    def test_equality_and_hash_follow_the_fields(self, cls, args, other):
        x, y = cls(*args), cls(*args)
        assert x is not y
        assert x == y and not (x != y)
        assert hash(x) == hash(y)
        assert x != cls(*other)
        assert len({x, y, cls(*other)}) == 2

    def test_other_types_are_not_equal(self, cls, args, other):
        x = cls(*args)
        fields = tuple(getattr(x, name) for name in cls.__slots__)
        assert x.__eq__(fields) is NotImplemented
        assert x != fields and x != object() and x != args

    def test_not_ordered(self, cls, args, other):
        with pytest.raises(TypeError):
            cls(*args) < cls(*other)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, args, other):
        x = cls(*args)
        for name in cls.__slots__:
            before = getattr(x, name)
            with pytest.raises(AttributeError):
                setattr(x, name, before)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) is before
        with pytest.raises(AttributeError):
            x.extra = 1

    def test_copy_and_pickle_keep_the_value(self, cls, args, other):
        x = cls(*args)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x and hash(y) == hash(x)


def test_normalised_fields_compare_equal():
    assert QuadExpr(1, 0, 5) == QuadExpr(1) == QuadExpr(Fraction(1), 3, 0)
    assert QuadExpr(1) != 1 and QuadExpr(1) != Fraction(1)
    assert Poly([1, 2, 0]) == Poly([Fraction(2, 2), "2"])
    assert BlowupClass(DivisorClass(1, 1), [2, 1]) == BlowupClass(DivisorClass(1, 1), (2, 1))
    assert BlowupClass(DivisorClass(1, 1), iter([2, 1])).mults == (2, 1)


# the negative radicand is rejected in test_exactmath
@pytest.mark.parametrize("make,error", [
    (lambda: QuadExpr(0.5), TypeError),
    (lambda: Poly([0.5]), TypeError),
    (lambda: DivisorClass(1.0, 2), TypeError),
    (lambda: BlowupClass(DivisorClass(1, 1), (1.0,)), TypeError),
], ids=["float-p", "float-coeff", "float-coord", "float-mult"])
def test_validation(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_defaults_are_not_shared_mutable_objects(cls):
    for name, default in cls._field_defaults.items():
        assert isinstance(default, (type(None), str, tuple, MappingProxyType)), name


@pytest.mark.parametrize("cls", [*RECORDS, _AtT0], ids=lambda cls: cls.__name__)
def test_records_have_no_instance_dict(cls):
    record = cls._make(range(len(cls._fields)))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1
    for same in (pickle.loads(pickle.dumps(record)), record._replace()):
        assert type(same) is cls and same == record
    # the annotated fields, for readers and tools, are the tuple's fields
    assert tuple(cls.__annotations__) == cls._fields


def test_record_defaults():
    rec = CertRecord("id", "certified")
    assert rec.polys == () and rec.side_conditions == () and rec.details == {}
    with pytest.raises(TypeError):
        rec.details["x"] = 1
    with pytest.raises(AttributeError):
        rec.status = "refuted"
    assert Discrepancy("id", "quoted", "recomputed").alternatives == {}
