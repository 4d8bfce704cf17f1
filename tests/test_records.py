"""Value semantics of every record class: fields, equality, hashing, immutability."""

from fractions import Fraction

import pytest

from microset.baire import SampleSpec
from microset.ball import BallSpec
from microset.cells import Box, CoverSeq, DigitalSet, Point, Record
from microset.covers import CoverReport, GreedyFailure
from microset.dust import (
    DustSpec,
    DustTree,
    GapTable,
    SurvivorCertificate,
    generate,
)
from microset.geometry import HBracket

F = Fraction
_BOX = Box(((F(0), F(1, 3)),))
_SPEC = DustSpec(n=1, b=3, depth=1)

# keyword arguments in declared field order, each value already in normal form
SAMPLES = [
    (Point, {"coords": (F(1, 2), F(1))}),
    (Box, {"intervals": ((F(0), F(1, 3)), (F(1, 9), F(2, 9)))}),
    (DigitalSet, {"n": 1, "b": 3, "m": 1, "cells": ((0,), (2,))}),
    (HBracket, {"lo": F(0), "hi": F(1, 2), "sample_depth": 1, "width_cap": F(1)}),
    (CoverSeq, {"n": 1, "eps": F(1, 2), "strong": True, "pieces": (_BOX,)}),
    (CoverReport, {"first_violation": (1, "budget"), "uncovered_witness": None}),
    (GreedyFailure, {"reason": "budget-infeasible", "position": 2, "uncovered": 3}),
    (BallSpec, {"n": 1, "boxes": (_BOX,)}),
    (DustSpec, {"n": 1, "b": 3, "depth": 2}),
    (DustTree, {"spec": _SPEC, "levels": generate(_SPEC).levels}),
    (GapTable, {"depth": 1, "volume": (F(1, 3),), "leftover": (F(1, 9),),
                "sibling_gap": (F(1, 3),), "level_gap": (F(1, 3),)}),
    (SurvivorCertificate, {"depth": 1, "checked_prefix": 0, "survivor_word": (1,), "level_counts": (2,)}),
    (SampleSpec, {"seed": 1, "n": 1, "b": 3, "depth": 1, "density": F(1, 2)}),
]

CASES = pytest.mark.parametrize("cls, kwargs", SAMPLES, ids=[cls.__name__ for cls, _ in SAMPLES])


def test_every_record_class_has_a_sample():
    assert {cls for cls, _ in SAMPLES} == set(Record.__subclasses__())
    assert len(SAMPLES) == 13


@CASES
def test_positional_and_keyword_construction_agree(cls, kwargs):
    assert cls._fields == tuple(kwargs)
    by_name, by_place = cls(**kwargs), cls(*kwargs.values())
    assert by_name == by_place and by_name is not by_place
    assert hash(by_name) == hash(by_place)
    assert {by_name, by_place} == {by_name}
    assert all(getattr(by_name, name) == value for name, value in kwargs.items())
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(by_name) == f"{cls.__qualname__}({fields})"


def test_equality_is_by_value_within_one_class():
    assert DustSpec(1, 3, 2) == DustSpec(n=1, b=3, depth=2)
    assert DustSpec(1, 3, 2) != DustSpec(1, 3, 3)


def test_records_of_different_classes_are_never_equal():
    records = [cls(**kwargs) for cls, kwargs in SAMPLES]
    for a in records:
        for b in records:
            assert (a == b) is (a is b)
        assert a != tuple(a._values())

    class Forged(DustSpec):
        pass

    # same fields, same values, another class
    assert Forged._fields == DustSpec._fields
    assert Forged(1, 3, 2) != DustSpec(1, 3, 2)
    assert DustSpec(1, 3, 2) != Forged(1, 3, 2)
    assert SurvivorCertificate(1, 2, (1,), (2,)) != SurvivorCertificate(1, 3, (1,), (2,))


@CASES
def test_records_are_frozen(cls, kwargs):
    record = cls(**kwargs)
    name, value = next(iter(kwargs.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == value and not hasattr(record, "extra")


@CASES
def test_missing_or_unknown_argument_is_a_type_error(cls, kwargs):
    first, *_ = kwargs
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in kwargs.items() if name != first})
    with pytest.raises(TypeError):
        cls(**kwargs, extra=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), 1)
    with pytest.raises(TypeError):
        cls(kwargs[first], **kwargs)


def test_records_refuse_inconsistent_fields():
    gaps = dict(SAMPLES)[GapTable]
    cert = dict(SAMPLES)[SurvivorCertificate]
    inconsistent = [
        (GapTable, {**gaps, "volume": ()}),  # a column without depth entries
        (GapTable, {**gaps, "depth": 2}),
        (GapTable, {**gaps, "level_gap": (F(1, 2),)}),  # not the running minimum of sibling_gap
        (GapTable, {"depth": 2, "volume": (F(1, 3), F(1, 9)), "leftover": (F(0), F(0)),
                    "sibling_gap": (F(1, 3), F(1, 9)), "level_gap": (F(1, 3), F(1, 3))}),
        (CoverReport, {"first_violation": (1, "coverage"), "uncovered_witness": None}),
        (CoverReport, {"first_violation": (1,), "uncovered_witness": (0,)}),
        (SurvivorCertificate, {**cert, "depth": 0, "level_counts": ()}),
        (SurvivorCertificate, {**cert, "checked_prefix": -1}),
        (SurvivorCertificate, {**cert, "level_counts": ()}),  # short
        (SurvivorCertificate, {**cert, "level_counts": (2, 4)}),  # long
        (SurvivorCertificate, {**cert, "level_counts": (0,)}),  # a level without survivor
    ]
    for cls, kwargs in inconsistent:
        with pytest.raises(ValueError):
            cls(**kwargs)



def test_digital_set_refuses_cell_indices_that_are_not_ints():
    # int() would truncate 1.5, fold True into 1 and parse "2"
    for n, cells in ((1, [(1.5,)]), (1, [(True,)]), (2, [("2", 1)])):
        with pytest.raises(ValueError, match="cell indices must be ints"):
            DigitalSet(n, 3, 2, cells)
    assert DigitalSet(1, 3, 2, [(1,), (0,)]).cells == ((0,), (1,))
