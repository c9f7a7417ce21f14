"""A hypothesis fuzz of ``cli.main`` over argv and input files: every call
exits 0, 1 or 2; exit 1 writes one ``{"error": ...}`` object to stderr and
nothing to stdout; and no exception escapes as a traceback."""

import contextlib
import io
import json
import math
import sys
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaxplus.cli import main

# exponents and interval ends at the edges of the float range and beyond it
EXPS = st.sampled_from([0, 5e-324, 1e308, 10**400, -10**400, 700, -700, 746, -746, 1, -0.0, "-inf"])
ENDS = st.sampled_from([0, 5e-324, 1, 700, 746, 1e308, 10**400, "inf"])
WRONG = st.sampled_from([None, True, "x", [], {}, [1], {"a": 1}, -1])
SIGNS = st.sampled_from(["+", "-", "o"])
# chart values of arc ends, on either chart ray and at the origin
CHART_VALUES = st.sampled_from([0, -0.0, 1, -1, 0.5, -2, 5e-324, -5e-324, 1e308, -1e308])


def _inputs(exp, end, interval, n):
    """Queries (elements and vectors) and sets (ray sets and boxes, and for
    ``n`` = 1 segment sets) of ``n`` coordinates, built from these leaves."""
    elems = st.fixed_dictionaries({"sign": SIGNS, "exp": exp})
    vectors = st.fixed_dictionaries({"coords": st.lists(elems, min_size=n, max_size=n)})
    ray_sets = st.dictionaries(st.sampled_from(["plus", "minus", "balanced"]),
                               st.lists(interval(end), min_size=1, max_size=2), min_size=1)
    boxes = st.fixed_dictionaries({"factors": st.lists(ray_sets, min_size=n, max_size=n)})
    if n == 1:
        one = st.lists(CHART_VALUES, min_size=1, max_size=1)
        chart = st.lists(st.lists(SIGNS, min_size=2, max_size=2), min_size=1, max_size=1)
        arcs = st.fixed_dictionaries({"kind": st.just("arc"), "chart": chart, "start": one, "end": one,
                                      "closed_lo": st.booleans(), "closed_hi": st.booleans()})
        points = st.fixed_dictionaries({"kind": st.just("point"), "point": vectors})
        segment_sets = st.fixed_dictionaries({"pieces": st.lists(arcs | points, min_size=1, max_size=3)})
        return elems | vectors, ray_sets | boxes | segment_sets
    return vectors, boxes


def _sorted(end):
    return st.tuples(end, end).map(lambda pair: sorted(pair, key=lambda v: math.inf if v == "inf" else v))


def _any_ends(end):
    return st.lists(end, min_size=1, max_size=3)


# the same shapes with a wrong type or value at any leaf, and the ends of
# an interval in any order and number
BROKEN = st.one_of(*(shapes for n in (1, 2, 3) for shapes in _inputs(EXPS | WRONG, ENDS | WRONG, _any_ends, n)),
                   WRONG)
# a file's text, or None for a file that does not exist
NOT_JSON = st.sampled_from(["", "{", "[1,", "NaN", None])


@st.composite
def _texts(draw, valid):
    """A file's text: two times in three a valid input.  (``one_of`` would
    flatten ``BROKEN``'s branches beside the valid one and draw each alike.)"""
    kind = draw(st.integers(0, 5))
    if kind < 4:
        return json.dumps(draw(valid))
    return json.dumps(draw(BROKEN)) if kind == 4 else draw(NOT_JSON)


# coordinates -> (query texts, set texts)
TEXTS = {n: tuple(map(_texts, _inputs(EXPS, ENDS, _sorted, n))) for n in (1, 2, 3)}

TOKENS = ["1", "0", "2.5", "5e-324", "1e308", "1e400", "1" + "0" * 400, "p:700", "m:-746", "b:746",
          "eps", "-", "+", "*", "^", "(", ")", " "]
METRICS = ["rho01", "rho02", "rho11", "rho12", "rho21", "rho22", "D1", "D2", "rho33"]
# a max-combine metric samples the argmin cloud at --resolution; its default,
# 1e-3, would sample a radius-700 interval at 700,000 points
STEPS = ["0.5", "2", "0", "-1", "inf", "nan", "1e-300"]
OUTS = st.sampled_from([[], ["--out", "json"], ["--out", "svg"], ["--out", "text"]])


def _options(draw, *pairs):
    """Each (flag, values) pair, as drawn: left out where the value is None."""
    argv = []
    for flag, values in pairs:
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag] if value is True else [flag, value]
    return argv


@st.composite
def calls(draw, command):
    """argv of one call, where "A" and "B" stand for the input files, and
    the texts of those files."""
    texts = {"A": None, "B": None}
    queries, sets = TEXTS[draw(st.integers(1, 3))]
    if command == "eval":
        text = "".join(draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=8)))
        argv = [command, text, *_options(draw, ("--mode", [None, "mpa", "smpa"]))]
    elif command == "segment":
        texts = {"A": draw(queries), "B": draw(queries)}
        argv = [command, "A", "B",
                *_options(draw, ("--kind", [None, "geometric", "semimodule", "traditional"]))]
    elif command == "project":
        texts = {"A": draw(queries), "B": draw(sets)}
        metric = draw(st.sampled_from([None, *METRICS]))
        # a grid option beside a metric without a grid is an error; draw it rarely
        steps = STEPS if metric in ("rho01", "rho02") else [None] * 6 + STEPS[:2]
        argv = [command, "A", "B",
                *_options(draw, ("--metric", [metric]), ("--base", [None, None, "d1", "d2"]),
                          ("--resolution", steps), ("--max-magnitude", [None] * 4 + STEPS))]
    else:
        texts["A"] = draw(sets)
        argv = [command, "A",
                *_options(draw, ("--chebyshev", [None, True]), ("--connected", [None, True]),
                          ("--convex", [None, "traditional", "geometric", "semimodule", "box"]))]
    return argv + draw(OUTS), texts


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@pytest.mark.parametrize("command", ["eval", "segment", "project", "check"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_call_exits_0_1_or_2_without_a_traceback(fuzz_dir, command, data):
    argv, texts = data.draw(calls(command))
    for name, text in texts.items():
        (fuzz_dir / name).unlink(missing_ok=True)
        if text is not None:
            (fuzz_dir / name).write_text(text, encoding="utf-8")
    argv = [str(fuzz_dir / arg) if arg in texts else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(), \
            mock.patch.object(sys, "stdin", io.StringIO()):  # eval - reads its expression there
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert out == "" and err.endswith("}\n") and err.count("\n") == 1, (argv, err)
        error = json.loads(err)
        assert list(error) == ["error"] and isinstance(error["error"], str), (argv, err)
    elif code == 0:
        assert err == "", (argv, err)
        if argv[-1] == "svg":
            ET.fromstring(out)
        else:
            json.loads(out)
