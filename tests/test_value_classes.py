"""The value contract of the package's record classes: immutable, equal by
class and field tuple, hashed by the field tuple, ``Name(field=...)``
reprs, and pickle/copy round trips."""

import ast
import copy
import math
import pickle
from pathlib import Path

import pytest

import smaxplus
from smaxplus import (
    ZERO,
    ArcPiece,
    BoxSet,
    BrokenLine,
    MetricId,
    PointPiece,
    ProjectionResult,
    RaySet,
    SElem,
    SegmentSet,
    Sign,
    SVector,
    point_on_ray,
)
from smaxplus.algebra import _trusted_selem
from smaxplus.metrics import _trusted_svector

PM = ((Sign.PLUS, Sign.MINUS),)

# per class: its fields in constructor order, a value, a value that differs
# in one field, and the value's repr
CASES = {
    MetricId: (("combine", "base"), MetricId("sum", 1), MetricId("sum", 2), "rho21"),
    RaySet: (
        ("plus", "minus", "balanced"),
        RaySet(plus=((1, 2),), balanced=((0, 0),)),
        RaySet(plus=((1, 3),), balanced=((0, 0),)),
        "RaySet(plus=((1.0, 2.0),), minus=(), balanced=((0.0, 0.0),))",
    ),
    BoxSet: (
        ("factors",),
        BoxSet((RaySet(minus=((0, 1),)),)),
        BoxSet((RaySet(minus=((0, 2),)),)),
        "BoxSet(factors=(RaySet(plus=(), minus=((0.0, 1.0),), balanced=()),))",
    ),
    BrokenLine: (
        ("chart", "vertices", "breakpoint_params", "length"),
        BrokenLine(PM, ((1.0,), (-1.0,)), (0.5,), 2.0),
        BrokenLine(PM, ((1.0,), (-1.0,)), (0.5,), 2.5),
        "BrokenLine(chart=((<Sign.PLUS: '+'>, <Sign.MINUS: '-'>),), "
        "vertices=((1.0,), (-1.0,)), breakpoint_params=(0.5,), length=2.0)",
    ),
    PointPiece: (
        ("point",),
        PointPiece(SVector((SElem.pos(1),))),
        PointPiece(SVector((SElem.neg(1),))),
        "PointPiece(point=(p:1))",
    ),
    ArcPiece: (
        ("chart", "start", "end", "closed_lo", "closed_hi"),
        ArcPiece(PM, (1.0,), (-1.0,), True, False),
        ArcPiece(PM, (1.0,), (-1.0,), True, True),
        "ArcPiece(chart=((<Sign.PLUS: '+'>, <Sign.MINUS: '-'>),), start=(1.0,), "
        "end=(-1.0,), closed_lo=True, closed_hi=False)",
    ),
    SegmentSet: (
        ("pieces",),
        SegmentSet((PointPiece(SVector((ZERO,))),)),
        SegmentSet((PointPiece(SVector((SElem.pos(0),))),)),
        "SegmentSet(pieces=(PointPiece(point=(eps)),))",
    ),
    ProjectionResult: (
        ("points", "distance", "is_singleton"),
        ProjectionResult((SElem.pos(1),), 0.5, True),
        ProjectionResult((SElem.pos(1),), 0.25, True),
        "ProjectionResult(points=(p:1,), distance=0.5, is_singleton=True)",
    ),
}

CLASSES = list(CASES)
ids = [cls.__name__ for cls in CLASSES]


def field_tuple(value):
    return tuple(getattr(value, name) for name in CASES[type(value)][0])


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_equality_by_class_and_fields(cls):
    _, value, other, _ = CASES[cls]
    rebuilt = cls(*field_tuple(value))
    assert rebuilt == value and not rebuilt != value
    assert value != other and not value == other
    assert value != field_tuple(value)
    for cls2 in CLASSES:
        if cls2 is not cls:
            assert value != CASES[cls2][1]


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_hash_is_the_field_tuple_hash(cls):
    _, value, _, _ = CASES[cls]
    assert hash(value) == hash(field_tuple(value))
    assert hash(cls(*field_tuple(value))) == hash(value)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_repr(cls):
    _, value, _, text = CASES[cls]
    assert repr(value) == text


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_assign_and_delete_raise(cls):
    fields, value, _, _ = CASES[cls]
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert field_tuple(value) == field_tuple(CASES[cls][1])


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_pickle_and_copy_round_trip(cls):
    _, value, _, _ = CASES[cls]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_keyword_construction(cls):
    fields, value, _, _ = CASES[cls]
    assert cls(**dict(zip(fields, field_tuple(value)))) == value


def test_ray_set_defaults_and_keywords_canonicalise():
    assert RaySet() == RaySet((), (), ()) and RaySet().is_empty
    s = RaySet(minus=[(2, 3), (1, 2)])
    assert (s.plus, s.minus, s.balanced) == ((), ((1.0, 3.0),), ())
    assert RaySet(balanced=((4, 5),), plus=((1, 2),)) == RaySet(((1, 2),), (), ((4, 5),))
    # a degenerate origin interval moves to the balanced ray, or goes when a
    # fatter interval already holds the origin
    assert RaySet(plus=((0, 0),)) == RaySet(balanced=((0.0, 0.0),))
    assert RaySet(plus=((0, 0),), minus=((0, 1),)) == RaySet(minus=((0.0, 1.0),))
    with pytest.raises(ValueError):
        RaySet(plus=((2, 1),))
    with pytest.raises(ValueError):
        BoxSet(())
    with pytest.raises(ValueError):
        MetricId("mean", 1)


def test_no_module_imports_dataclasses():
    # the value classes are hand-written: dataclasses (and the inspect/ast
    # chain it imports) stays off the import path of every CLI call
    package = Path(smaxplus.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


def test_public_constructors_still_check():
    # the trusted constructors are private; every public way in validates
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            point_on_ray(Sign.PLUS, bad)
    with pytest.raises(ValueError):
        SElem(Sign.PLUS, math.inf)
    with pytest.raises(ValueError):
        SVector(())
    with pytest.raises(TypeError):
        SVector((1.0,))


def test_trusted_values_match_their_validated_twins():
    elems = [(_trusted_selem(s, t), SElem(s, t))
             for s, t in ((Sign.PLUS, 0.5), (Sign.MINUS, -700.25), (Sign.BALANCED, math.log(3.0)))]
    coords = tuple(e for e, _ in elems)
    pairs = elems + [(_trusted_svector(coords), SVector(coords))]
    for value, twin in pairs:
        assert type(value) is type(twin)
        assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
        assert value.to_json() == twin.to_json()
        for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(again) is type(twin)
            assert again == twin and hash(again) == hash(twin)
