"""Every ``from_json`` reader refuses malformed input with a ``ValueError``
that names what is wrong, or a ``KeyError`` for a missing key: the CLI
reports both as a domain error, and no other exception may escape."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaxplus import (
    D2,
    ZERO,
    BoxSet,
    BrokenLine,
    ProjectionResult,
    RaySet,
    SElem,
    SegmentSet,
    SVector,
    geometric_segment,
    project_box,
    project_ray,
    semimodule_segment,
)

A = SVector((SElem.pos(1), SElem.neg(0.5)))
B = SVector((SElem.neg(2), ZERO))
BOX = BoxSet((RaySet(plus=((1, 2),)), RaySet(balanced=((0, 1),))))
# per reader, values it reads back, which the fuzzing below breaks
VALID = {
    SElem: [SElem.pos(1).to_json(), ZERO.to_json()],
    SVector: [A.to_json()],
    RaySet: [RaySet(plus=((1, 2),), minus=((0, math.inf),)).to_json()],
    BoxSet: [BOX.to_json()],
    BrokenLine: [geometric_segment(A, B).to_json()],
    SegmentSet: [semimodule_segment(A, B).to_json()],
    ProjectionResult: [
        project_ray(SElem.pos(1), RaySet(plus=((0.5, 1),), minus=((0.5, 1),))).to_json(),
        project_box(A, BOX, D2).to_json(),
    ],
}
READERS = list(VALID)


def _keys(value):
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


KEYS = sorted(set().union(*(_keys(v) for values in VALID.values() for v in values)))
scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from(["+", "-", "o", "-inf", "inf", "point", "arc", "abc", ""]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


def _paths(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, item in items:
        yield from _paths(item, path + (step,))


@st.composite
def broken(draw, reader):
    """A value ``reader`` reads back with one node replaced by any JSON value."""
    value = copy.deepcopy(draw(st.sampled_from(VALID[reader])))
    path = draw(st.sampled_from(list(_paths(value))))
    new = draw(json_values)
    if not path:
        return new
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    return value


@pytest.mark.parametrize("reader", READERS, ids=[reader.__name__ for reader in READERS])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_malformed_json_raises_value_or_key_error(reader, data):
    value = data.draw(broken(reader) | json_values)
    try:
        reader.from_json(value)
    except (ValueError, KeyError):
        pass


@pytest.mark.parametrize(
    "reader, value, message",
    [
        (SElem, {"sign": "+", "exp": "abc"}, "exp must be a number or \"-inf\", got 'abc'"),
        (SElem, {"sign": "+", "exp": [1]}, 'exp must be a number or "-inf", got [1]'),
        (SElem, {"sign": "+", "exp": None}, 'exp must be a number or "-inf", got None'),
        (SElem, {"sign": "+", "exp": {}}, 'exp must be a number or "-inf", got {}'),
        (SElem, {"sign": "+", "exp": True}, 'exp must be a number or "-inf", got True'),
        (SVector, {"coords": [{"sign": "-", "exp": "inf"}]}, "exp must be a number or \"-inf\", got 'inf'"),
        (ProjectionResult, {"points": [{"sign": "+", "exp": {}}], "distance": 1, "singleton": True},
         'exp must be a number or "-inf", got {}'),
        (BoxSet, [], "a box must be an object, got list"),
        (SegmentSet, [], "a segment set must be an object, got list"),
        (SegmentSet, {"pieces": 5}, "pieces must be a list of pieces, got 5"),
        (SegmentSet, {"pieces": [5]}, "a piece must be an object, got int"),
    ],
)
def test_malformed_json_errors_name_the_value(reader, value, message):
    with pytest.raises(ValueError) as err:
        reader.from_json(value)
    assert str(err.value) == message
