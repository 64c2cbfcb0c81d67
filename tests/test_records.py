"""The package's records share one constructor, equality and immutability
through `scalar.Frozen`: a record is declared by its `__slots__`."""

from fractions import Fraction as F

import pytest
from test_structure import replace

from qstruct.characterize import AuxSequences, Classification, PearsonData, PredicateRecord
from qstruct.families import FamilySpec, MomentVector, OPSTable, TTRRSpec
from qstruct.poly import Poly
from qstruct.report import Check, Report
from qstruct.scalar import Frozen, QContext
from qstruct.structure import FiveTermExpansion, StructureFit

RECORDS = (
    StructureFit,
    FiveTermExpansion,
    AuxSequences,
    PearsonData,
    PredicateRecord,
    Classification,
    FamilySpec,
    MomentVector,
    Check,
    Report,
)


def values_for(cls):
    """One distinct value per field, so that no two fields agree."""
    return tuple(f"{cls.__name__}.{name}" for name in cls.__slots__)


def test_every_record_without_its_own_init_is_covered():
    package = [cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("qstruct.")]
    shared = {cls for cls in package if "__init__" not in vars(cls)}
    assert shared == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_declared_by_its_slots(cls):
    fields, values = cls.__slots__, values_for(cls)
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    assert [getattr(record, name) for name in fields] == list(values)

    # every field takes part in ==, and the tests' replace helper rebuilds
    for name in fields:
        changed = replace(record, **{name: object()})
        assert changed != record and record != changed
        assert replace(changed, **{name: getattr(record, name)}) == record

    # a record never equals another class with the same fields
    twin = type("Twin", (Frozen,), {"__slots__": fields})(*values)
    subclass = type("Sub", (cls,), {"__slots__": ()})(*values)
    for other in (twin, subclass):
        assert record != other and other != record
    assert record != values
    with pytest.raises(TypeError):
        hash(record)

    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})
    required = fields[: len(fields) - len(cls._defaults)]
    if required:
        with pytest.raises(TypeError, match=f"missing required arguments: {required[0]}"):
            cls(**dict(zip(fields[1:], values[1:])))
    # the optional fields take their defaults
    given = dict(zip(required, values))
    assert cls(**given) == cls(*values[: len(required)], *cls._defaults)

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == list(values)


def test_records_that_build_their_data_compare_by_their_public_fields():
    b, c = (F(0), F(1, 2), F(3)), (F(1), F(2))
    ttrr = TTRRSpec(b, c)
    assert ttrr == TTRRSpec(b, c)  # a distinct object with the same fields
    assert ttrr != TTRRSpec(b, c, "other") and ttrr != TTRRSpec(b, (F(1), F(3)))
    table = OPSTable(ttrr, 2)
    assert table == OPSTable(TTRRSpec(b, c), 2) and table != OPSTable(ttrr, 1)
    table.polys  # the private slots hold what was built, and are not fields
    assert table == OPSTable(ttrr, 2) and "_built" not in repr(table)
    for value in (ttrr, table, FamilySpec("q-hermite")):
        with pytest.raises(TypeError):
            hash(value)
    # QContext and Poly keep their own equality, and stay hashable
    assert hash(QContext(F(1, 2))) == hash(QContext("1/2"))
    assert hash(Poly((1, 2))) == hash(Poly.from_ints([2, 4], 2))
