"""Command dispatch, exit codes, and output round-trips."""

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import smaxplus
from smaxplus import (BoxSet, BrokenLine, MagnitudeRangeWarning, ProjectionResult, RaySet, SElem, SegmentSet,
                      SVector, project_ray)
from smaxplus.cli import main
from smaxplus.svg import Scene, render_projection_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    a = write(
        "a.json",
        {
            "coords": [
                {"sign": "+", "exp": 0},
                {"sign": "-", "exp": math.log(3)},
                {"sign": "o", "exp": math.log(2)},
            ]
        },
    )
    b = write(
        "b.json",
        {
            "coords": [
                {"sign": "-", "exp": 0},
                {"sign": "o", "exp": 0},
                {"sign": "+", "exp": 0},
            ]
        },
    )
    triple = write("triple.json", {"plus": [[1, 1]], "minus": [[1, 1]], "balanced": [[1, 1]]})
    x = write("x.json", {"sign": "o", "exp": "-inf"})
    p1 = write("p1.json", {"sign": "+", "exp": 1})
    m0 = write("m0.json", {"sign": "-", "exp": 0})
    return {"a": a, "b": b, "triple": triple, "x": x, "p1": p1, "m0": m0, "write": write}


class TestEval:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "eval", "--mode", "mpa", "2 + (3^5 + 2^-1) * 1 + eps^2")
        assert code == 0
        assert json.loads(out) == {"sign": "+", "exp": 16}
        assert SElem.from_json(json.loads(out)) == SElem.pos(16)

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "eval", "2 +")
        assert code == 1
        assert "error" in json.loads(err)

    def test_mode_violation(self, capsys):
        code, _, err = run(capsys, "eval", "--mode", "mpa", "p:1")
        assert code == 1
        assert "mpa" in json.loads(err)["error"]

    @pytest.mark.parametrize("depth", [300, 10000])
    def test_deep_nesting_exit_code(self, capsys, depth):
        code, out, err = run(capsys, "eval", "(" * depth + "1" + ")" * depth)
        assert code == 1 and out == ""
        assert "nested too deeply" in json.loads(err)["error"]

    def test_huge_power_exit_code(self, capsys):
        code, out, err = run(capsys, "eval", "2.5 ^ 1" + "0" * 400)
        assert code == 1 and out == ""
        assert "error" in json.loads(err)

    def test_huge_product_exit_code(self, capsys):
        # the huge int exponent of the power cannot be added to a float one
        source = "2 ^ 1" + "0" * 400 + " * 1.5"
        code, out, err = run(capsys, "eval", source)
        assert code == 1 and out == ""
        assert json.loads(err)["error"].endswith(f"(at position {source.index('*')})")

    def test_integer_literal_too_long_exit_code(self, capsys):
        code, out, err = run(capsys, "eval", "2 ^ 1" + "0" * 4400)
        assert code == 1 and out == ""
        assert "integer literal too long" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["-1e5"], {"sign": "+", "exp": -100000.0}),
            (["-1e5+2"], {"sign": "+", "exp": 2}),
            (["--mode", "mpa", "-2e0"], {"sign": "+", "exp": -2.0}),
            (["-1e5", "--mode", "mpa"], {"sign": "+", "exp": -100000.0}),
            (["-.5"], {"sign": "+", "exp": -0.5}),
        ],
    )
    def test_a_leading_minus_literal_is_the_expression(self, capsys, argv, expected):
        # '-' then a digit or '.' starts the expression, not an option
        code, out, err = run(capsys, "eval", *argv)
        assert (code, json.loads(out), err) == (0, expected, "")

    def test_other_leading_minus_arguments_stay_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "-x"])
        assert exc.value.code == 2
        assert "required: expression" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["eval", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: smaxplus eval")


class TestSegment:
    def test_geometric_round_trip(self, capsys, files):
        code, out, _ = run(capsys, "segment", "--kind", "geometric", files["a"], files["b"])
        assert code == 0
        line = BrokenLine.from_json(json.loads(out))
        assert line.length == pytest.approx(math.sqrt(29), rel=1e-12)
        assert list(line.breakpoint_params) == pytest.approx([0.5, 2 / 3, 0.75], abs=1e-12)

    def test_semimodule_round_trip(self, capsys, files):
        code, out, _ = run(capsys, "segment", "--kind", "semimodule", files["p1"], files["m0"])
        assert code == 0
        seg = SegmentSet.from_json(json.loads(out))
        assert len(seg.pieces) == 3

    def test_traditional_not_representable(self, capsys, files):
        p0 = files["write"]("p0.json", {"sign": "+", "exp": 0})
        code, out, _ = run(capsys, "segment", "--kind", "traditional", p0, files["m0"])
        assert code == 0
        assert json.loads(out) == {"representable": False}
        code, out, _ = run(capsys, "segment", "--kind", "traditional", p0, files["m0"], "--out", "text")
        assert code == 0
        assert json.loads(out) == {"representable": False}
        code, out, err = run(capsys, "segment", "--kind", "traditional", p0, files["m0"], "--out", "svg")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "the traditional segment of these endpoints is not representable"}

    def test_traditional_round_trip(self, capsys, files):
        code, out, _ = run(capsys, "segment", "--kind", "traditional", files["p1"], files["p1"])
        assert code == 0
        seg = SegmentSet.from_json(json.loads(out))
        assert len(seg.pieces) == 1

    @pytest.mark.parametrize("out", ["json", "svg", "text"])
    def test_geometric_length_beyond_the_float_range(self, capsys, files, out):
        # the squared chart differences overflow float **; the length
        # saturates with a warning instead of a traceback
        a = files["write"]("huge_a.json", {"coords": [{"sign": "+", "exp": 800}, {"sign": "-", "exp": 1}]})
        b = files["write"]("huge_b.json", {"coords": [{"sign": "-", "exp": 2}, {"sign": "o", "exp": 805}]})
        with pytest.warns(MagnitudeRangeWarning) as record:
            code, text, err = run(capsys, "segment", "--kind", "geometric", a, b, "--out", out)
        assert (code, err) == (0, "")
        assert "geometric length overflows the float range; saturating" in {str(w.message) for w in record}
        if out == "svg":
            assert text.startswith("<?xml")
        else:
            assert BrokenLine.from_json(json.loads(text)).length == sys.float_info.max

    def test_saturated_breakpoints_stay_inside_the_open_interval(self, capsys, files):
        a = files["write"]("huge_a.json", {"coords": [{"sign": "+", "exp": 800}, {"sign": "-", "exp": 1}]})
        b = files["write"]("huge_b.json", {"coords": [{"sign": "-", "exp": 2}, {"sign": "o", "exp": 805}]})
        with pytest.warns(MagnitudeRangeWarning):
            code, text, _ = run(capsys, "segment", "--kind", "geometric", a, b)
        assert code == 0
        line = json.loads(text)
        assert len(line["t"]) == 2 and 0.0 < line["t"][0] < line["t"][1] < 1.0
        assert line["vertices"][1][1] == 0.0 and line["vertices"][2][0] == 0.0
        assert line["length"] == sys.float_info.max

    def test_saturated_svg_is_finite(self, capsys, files):
        # the scene's extent once overflowed to inf, and the view box to nan
        a = files["write"]("huge_a.json", {"coords": [{"sign": "+", "exp": 800}, {"sign": "-", "exp": 1}]})
        b = files["write"]("huge_b.json", {"coords": [{"sign": "-", "exp": 2}, {"sign": "o", "exp": 805}]})
        with pytest.warns(MagnitudeRangeWarning):
            code, text, err = run(capsys, "segment", "--kind", "geometric", a, b, "--out", "svg")
        assert (code, err) == (0, "")
        root = ET.fromstring(text.encode("utf-8"))
        view_box = [float(v) for v in root.get("viewBox").split()]
        assert len(view_box) == 4 and all(map(math.isfinite, view_box))
        numbers = []
        for node in root.iter():
            for name, value in node.attrib.items():
                if name in ("x1", "y1", "x2", "y2", "cx", "cy", "r"):
                    numbers.append(float(value))
                elif name == "points":
                    numbers.extend(float(v) for pair in value.split() for v in pair.split(","))
                elif name == "transform":
                    numbers.extend(float(v) for v in value[len("translate("):-1].split())
        assert len(numbers) > 100 and all(map(math.isfinite, numbers))

    def test_dimension_mismatch_is_domain_error(self, capsys, files):
        code, _, err = run(capsys, "segment", files["a"], files["p1"])
        assert code == 1
        assert "mismatch" in json.loads(err)["error"]

    @pytest.mark.parametrize("huge", [10**400, -10**400], ids=["above", "below"])
    @pytest.mark.parametrize("kind", ["semimodule", "geometric", "traditional"])
    def test_int_exponent_beyond_the_float_range(self, capsys, files, kind, huge):
        # next to a float exponent the semimodule sweep cannot add or subtract
        # it, and says which coordinate; the other kinds take its radius
        a = files["write"]("huge_int.json", {"coords": [{"sign": "+", "exp": huge}, {"sign": "-", "exp": 1.5}]})
        b = files["write"]("units.json", {"coords": [{"sign": "+", "exp": 0}, {"sign": "-", "exp": 0}]})
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            code, out, err = run(capsys, "segment", "--kind", kind, a, b)
        if kind == "semimodule":
            assert code == 1 and out == ""
            assert json.loads(err)["error"].startswith("coordinate 0: ")
        else:
            assert (code, err) == (0, "")
            json.loads(out)


class TestProject:
    def test_ray_set_projection(self, capsys, files):
        code, out, _ = run(capsys, "project", files["x"], files["triple"], "--base", "d2")
        assert code == 0
        result = ProjectionResult.from_json(json.loads(out))
        assert len(result.points) == 3
        assert result.distance == pytest.approx(1.0)

    def test_box_projection(self, capsys, files):
        box = files["write"](
            "box.json",
            {
                "factors": [
                    {"plus": [[1, 1]], "minus": [[1, 1]], "balanced": [[1, 1]]},
                    {"plus": [[1, 1]], "minus": [[1, 1]], "balanced": [[1, 1]]},
                ]
            },
        )
        xx = files["write"](
            "xx.json", {"coords": [{"sign": "o", "exp": "-inf"}, {"sign": "o", "exp": "-inf"}]}
        )
        code, out, _ = run(capsys, "project", xx, box, "--metric", "rho12")
        assert code == 0
        assert len(json.loads(out)["points"]) == 9

    def test_int_query_exponent_below_the_float_range(self, capsys, files):
        # the query's radius underflows to the origin with a warning
        x = files["write"]("tiny.json", {"sign": "+", "exp": -10**400})
        with pytest.warns(MagnitudeRangeWarning, match="underflow"):
            code, out, err = run(capsys, "project", x, files["triple"])
        assert (code, err) == (0, "")
        assert json.loads(out)["distance"] == 1.0

    def test_empty_set_domain_error(self, capsys, files):
        empty = files["write"]("empty.json", {"plus": [], "minus": [], "balanced": []})
        code, _, err = run(capsys, "project", files["x"], empty)
        assert code == 1
        assert "empty" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["check", "project"])
def test_an_int_interval_end_beyond_the_float_range_is_named(capsys, files, command):
    # the end used to escape as an OverflowError traceback
    huge = files["write"]("huge_set.json", {"plus": [[1, 10**400]]})
    argv = ["check", huge] if command == "check" else ["project", files["p1"], huge]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"].endswith("(ValueError: bad interval: its high end lies beyond the float range)")


def test_a_vector_query_on_a_ray_set_is_a_domain_error(capsys, files):
    query = files["write"]("q2.json", {"coords": [{"sign": "+", "exp": 0}, {"sign": "-", "exp": 1}]})
    code, out, err = run(capsys, "project", query, files["triple"])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "a ray set expects a one-coordinate query"}


def test_metric_with_a_ray_set_is_a_domain_error(capsys, files):
    # a ray set is projected under --base; a --metric it would ignore is refused
    code, out, err = run(capsys, "project", files["x"], files["triple"], "--metric", "rho12")
    assert code == 1 and out == ""
    assert "--metric" in json.loads(err)["error"]


@pytest.mark.parametrize("metric", ["rho12", "rho02", "D1"])
def test_base_with_a_metric_is_a_domain_error(capsys, files, metric):
    # the metric code names its own base, so a --base beside it would be
    # ignored; it used to print the --metric answer
    box = files["write"]("box.json", {"factors": [{"plus": [[1, 2]]}, {"minus": [[0.5, 3]]}]})
    xx = files["write"]("xx.json", {"coords": [{"sign": "+", "exp": 1.5}, {"sign": "+", "exp": 0}]})
    code, out, err = run(capsys, "project", xx, box, "--metric", metric, "--base", "d1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "--base applies to ray sets and the default box metric; --metric names its own base"
    }


def test_base_alone_picks_the_default_box_metric(capsys, files):
    box = files["write"]("box.json", {"factors": [{"plus": [[1, 2]]}, {"minus": [[0.5, 3]]}]})
    xx = files["write"]("xx.json", {"coords": [{"sign": "+", "exp": 1.5}, {"sign": "+", "exp": 0}]})
    for base, code in (("d1", "rho11"), ("d2", "rho12")):
        result = run(capsys, "project", xx, box, "--base", base)
        assert result[0] == 0 and result == run(capsys, "project", xx, box, "--metric", code)
    assert run(capsys, "project", xx, box) == run(capsys, "project", xx, box, "--base", "d2")


@pytest.mark.parametrize(
    "target, extra",
    [
        ("triple", ["--resolution", "0.5", "--max-magnitude", "0.1"]),
        ("triple", ["--max-magnitude", "0.1"]),
        ("box", ["--metric", "rho12", "--resolution", "0.5"]),
        ("box", ["--resolution", "0.5"]),
    ],
    ids=["ray-set", "ray-set-bound-only", "euclid-box", "default-metric-box"],
)
def test_grid_options_without_a_grid_are_a_domain_error(capsys, files, target, extra):
    # only the max-combine metric builds a grid; elsewhere the options
    # would be ignored, so they are refused
    sets = {"triple": files["triple"], "box": files["write"]("box.json", {"factors": [{"plus": [[1, 2]]}]})}
    query = files["x"] if target == "triple" else files["write"]("q.json", {"coords": [{"sign": "+", "exp": 0}]})
    code, out, err = run(capsys, "project", query, sets[target], *extra)
    assert code == 1 and out == ""
    assert "--resolution" in json.loads(err)["error"]


class TestMaxCombine:
    QUERY = {"coords": [{"sign": "+", "exp": 4.2}, {"sign": "+", "exp": 0}]}

    def test_grid_bound_fits_the_inputs(self, capsys, files):
        # the query lies inside the box; a grid cut at e**3 put it 46.6 away
        x = files["write"]("q.json", self.QUERY)
        box = files["write"]("box.json", {"factors": [{"plus": [[10, 100]]}, {"plus": [[0.5, 2]]}]})
        code, out, _ = run(capsys, "project", x, box, "--metric", "rho02", "--resolution", "0.01")
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(0.0, abs=0.01)

    def test_box_beyond_the_default_bound(self, capsys, files):
        x = files["write"]("q.json", self.QUERY)
        box = files["write"]("box.json", {"factors": [{"plus": [[30, 40]]}, {"plus": [[25, 26]]}]})
        code, out, _ = run(capsys, "project", x, box, "--metric", "rho02", "--resolution", "0.01")
        assert code == 0
        assert json.loads(out)["points"]


@pytest.mark.parametrize(
    "payload",
    [{"sign": "+", "exp": "abc"}, [{"sign": "+", "exp": 1}], {"sign": "+", "exp": True}],
    ids=["string-exp", "top-level-array", "bool-exp"],
)
def test_malformed_query_is_a_domain_error(capsys, files, payload):
    query = files["write"]("bad.json", payload)
    code, out, err = run(capsys, "project", query, files["triple"])
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert "error" in json.loads(err)


@pytest.mark.parametrize("command", ["project", "segment", "check"])
def test_deeply_nested_json_is_a_domain_error(capsys, files, command):
    # the JSON decoder recurses once per nesting level
    deep = files["write"]("deep.json", [])
    Path(deep).write_text("[" * 100000 + "]" * 100000)
    argv = {"project": [files["x"], deep], "segment": [files["p1"], deep], "check": [deep]}
    code, out, err = run(capsys, command, *argv[command])
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert "nested too deeply" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "command, payloads",
    [
        ("check", {"set": {"plus": [[1, 2]], "minsu": [[3, 4]]}}),
        ("project", {"set": {"factors": [{"plus": [[1, 2]]}], "factor": []}}),
        ("project", {"set": {"factors": [{"plus": [[1, 2]], "balance": [[0, 1]]}]}}),
        ("project", {"query": {"coords": [{"sign": "+", "exp": 1}], "cords": []}}),
        ("project", {"query": {"coords": [{"sign": "+", "exp": 1, "exq": 2}]}}),
    ],
    ids=["check-ray-set", "project-box", "project-box-factor", "project-vector", "project-element"],
)
def test_unknown_json_keys_are_a_domain_error(capsys, files, command, payloads):
    # a misspelt key was silently dropped: the first set passed as connected
    query = files["write"]("q.json", payloads.get("query", {"coords": [{"sign": "+", "exp": 0}]}))
    target = files["write"]("s.json", payloads.get("set", {"factors": [{"plus": [[1, 2]]}]}))
    argv = [target] if command == "check" else [query, target]
    code, out, err = run(capsys, command, *argv)
    assert code == 1 and out == ""
    assert "unknown keys" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"plus": [[1, 2, 3]]}, "plus interval must be a [lo, hi] pair, got [1, 2, 3]"),
        ({"plus": 5}, "plus must be a list of [lo, hi] pairs, got 5"),
        ({"factors": [{"plus": [[1, 2]]}, {"minus": [[1]]}]}, "minus interval must be a [lo, hi] pair, got [1]"),
    ],
    ids=["interval", "ray", "box-factor"],
)
@pytest.mark.parametrize("command", ["check", "project"])
def test_set_shape_errors_are_named(capsys, files, command, payload, message):
    target = files["write"]("s.json", payload)
    argv = [target] if command == "check" else [files["p1"], target]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": f"{target}: not a ray set or box (ValueError: {message})"}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"coords": 5}, "coords must be a list of elements, got 5"),
        ([1, 2], "an element must be an object, got list"),
        ({"coords": [5]}, "an element must be an object, got int"),
        ({"coords": [[{"sign": "+", "exp": 0}]]}, "an element must be an object, got list"),
        ({"sign": "+", "exp": "abc"}, "exp must be a number or \"-inf\", got 'abc'"),
    ],
    ids=["coords", "list", "coordinate", "nested", "exp"],
)
def test_vector_shape_errors_are_named(capsys, files, payload, message):
    query = files["write"]("q.json", payload)
    code, out, err = run(capsys, "project", query, files["triple"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": f"{query}: not an element or vector (ValueError: {message})"}


def test_vector_shape_error_has_no_traceback(files):
    query = files["write"]("q.json", {"coords": 5})
    env = dict(os.environ, PYTHONPATH=str(Path(smaxplus.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "smaxplus.cli", "project", query, files["triple"]],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert "coords must be a list of elements, got 5" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_early_exits_quietly(files, unbuffered):
    # a box answer of about 100 kB, more than a pipe holds, so the write
    # meets the closed pipe whenever the reader closes it
    query = files["write"]("q.json", {"coords": [{"sign": "+", "exp": 2}, {"sign": "+", "exp": 0.4}]})
    box = files["write"]("box.json", {"factors": [{"plus": [[1, 2]]}, {"plus": [[1, 2]]}]})
    env = dict(os.environ, PYTHONPATH=str(Path(smaxplus.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "smaxplus.cli", "project", query, box, "--metric", "rho02", "--resolution", "0.001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{"distance'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    code = proc.wait()
    assert err == ""
    # the output goes out through the binary layer in full, so the closed
    # pipe surfaces as EPIPE, buffered or not
    assert code == 1


@pytest.mark.parametrize("command", ["check", "project"])
def test_non_numeric_interval_ends_are_a_domain_error(capsys, files, command):
    target = files["write"]("s.json", {"plus": [[True, 2]]})
    argv = [target] if command == "check" else [files["p1"], target]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (1, "")
    message = 'plus interval ends must be numbers or "inf" as hi, got [True, 2]'
    assert json.loads(err) == {"error": f"{target}: not a ray set or box (ValueError: {message})"}


def test_malformed_segment_set_is_a_domain_error(capsys, files):
    # an arc whose chart, start and end lengths differ is refused by
    # SegmentSet.from_json, and the CLI's set reader names that error
    arc = {"kind": "arc", "chart": [["+", "-"]], "start": [1.0, 2.0], "end": [3.0],
           "closed_lo": True, "closed_hi": True}
    with pytest.raises(ValueError, match="one length"):
        SegmentSet.from_json({"pieces": [arc]})
    target = files["write"]("seg.json", {"pieces": [arc]})
    message = "arc chart, start and end must have one length, got 1, 2 and 1"
    for argv in (["check", target], ["project", files["p1"], target]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": f"{target}: not a segment set (ValueError: {message})"}


class TestProjectSegmentSets:
    """``smaxplus project`` reads what ``smaxplus segment`` prints, and
    projects a one-coordinate segment set through ``project_ray``."""

    @pytest.mark.parametrize(
        "kind, b, expected",
        [
            ("geometric", {"sign": "-", "exp": 1}, {"d1": ("eps", 1.0), "d2": ("eps", 1.0)}),
            ("semimodule", {"sign": "-", "exp": 1},
             {"d1": ("b:1", 1.718281828459045), "d2": ("b:1", 1.718281828459045)}),
            ("traditional", {"sign": "+", "exp": 0},
             {"d1": ("p:0.0", 1.7320508075688772), "d2": ("p:0.0", 2.0)}),
        ],
    )
    def test_a_printed_segment_is_a_target(self, capsys, files, kind, b, expected):
        b = files["write"]("b1.json", b)
        code, seg, _ = run(capsys, "segment", "--kind", kind, files["p1"], b)
        assert code == 0
        target = files["write"]("seg.json", json.loads(seg))
        query = files["write"]("q.json", {"sign": "o", "exp": 0})
        for base, (point, distance) in expected.items():
            code, out, err = run(capsys, "project", query, target, "--base", base)
            assert (code, err) == (0, ""), base
            result = ProjectionResult.from_json(json.loads(out))
            assert [str(p) for p in result.points] == [point] and result.distance == distance, base

    def test_an_unrepresentable_traditional_segment_is_no_set(self, capsys, files):
        m1 = files["write"]("m1.json", {"sign": "-", "exp": 1})
        _, seg, _ = run(capsys, "segment", "--kind", "traditional", files["p1"], m1)
        target = files["write"]("seg.json", json.loads(seg))
        code, out, err = run(capsys, "project", files["x"], target)
        assert (code, out) == (1, "")
        assert "unknown keys ['representable']" in json.loads(err)["error"]

    def test_svg_draws_the_segment_set_and_the_arrows(self, capsys, files):
        m1 = files["write"]("m1.json", {"sign": "-", "exp": 1})
        _, seg, _ = run(capsys, "segment", files["p1"], m1)
        target = files["write"]("seg.json", json.loads(seg))
        query = files["write"]("q.json", {"sign": "o", "exp": 0})
        code, out, err = run(capsys, "project", query, target, "--out", "svg")
        assert (code, err) == (0, "")
        root = ET.fromstring(out)
        # the geodesic's two legs as polylines, and one arrow to the origin
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 2
        assert out.count('stroke="#2ca02c"') == 1 and out.count('fill="#2ca02c"') == 2

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--metric", "rho12"], "--metric applies to boxes; a segment set takes --base"),
            (["--resolution", "0.5"], "--resolution and --max-magnitude apply to max-combine box metrics only"),
            (["--max-magnitude", "5"], "--resolution and --max-magnitude apply to max-combine box metrics only"),
        ],
        ids=["metric", "resolution", "max-magnitude"],
    )
    def test_box_options_are_refused(self, capsys, files, extra, message):
        target = files["write"]("seg.json", _OPEN_ARC)
        code, out, err = run(capsys, "project", files["p1"], target, *extra)
        assert (code, out, json.loads(err)) == (1, "", {"error": message})

    def test_line_only_errors(self, capsys, files):
        line = files["write"]("seg.json", _OPEN_ARC)
        plane = files["write"]("seg2.json", {"pieces": [{"kind": "point", "point": json.loads(
            Path(files["a"]).read_text())}]})
        for query, target, message in [
            (files["a"], line, "a segment set expects a one-coordinate query"),
            (files["p1"], plane, "segment projection is defined on the line only"),
            # the infimum sits at the arc's open end p:0
            (files["x"], line, "nearest-point infimum is not attained in the segment set"),
        ]:
            code, out, err = run(capsys, "project", query, target)
            assert (code, out, json.loads(err)) == (1, "", {"error": message}), message

    def test_check_refuses_a_segment_set(self, capsys, files):
        target = files["write"]("seg.json", _OPEN_ARC)
        code, out, err = run(capsys, "check", target)
        assert (code, out, json.loads(err)) == (1, "", {"error": "check decides ray sets and boxes, not segment sets"})


# the plus stretch (1, 2]: a one-coordinate segment set with an open end
_OPEN_ARC = {"pieces": [{"kind": "arc", "chart": [["+", "+"]], "start": [1.0], "end": [2.0],
                         "closed_lo": False, "closed_hi": True}]}


def test_malformed_set_is_a_domain_error(capsys, files):
    bad = files["write"]("bad_set.json", [[1, 2]])
    code, _, err = run(capsys, "check", bad)
    assert code == 1
    assert "error" in json.loads(err)


class TestCheck:
    def test_chebyshev_report(self, capsys, files):
        code, out, _ = run(capsys, "check", "--chebyshev", files["triple"])
        assert code == 0
        assert json.loads(out) == {"chebyshev": False, "connected": False}

    def test_full_report(self, capsys, files):
        star = files["write"]("star.json", {"plus": [[0, 1]], "minus": [[0, 3]], "balanced": []})
        code, out, _ = run(capsys, "check", star)
        got = json.loads(out)
        assert got["connected"] and got["chebyshev"] and got["geometrically_convex"]
        assert not got["traditionally_convex"]
        assert not got["semimodule_convex"]

    def test_convex_flag(self, capsys, files):
        code, out, _ = run(capsys, "check", "--convex", "semimodule", files["triple"])
        assert json.loads(out) == {"semimodule_convex": True}


CHECK_INPUTS = {
    "triple": {"plus": [[1, 1]], "minus": [[1, 1]], "balanced": [[1, 1]]},
    "star": {"plus": [[0, 1]], "minus": [[0, 3]]},
    "origin": {"balanced": [[0, 0]]},
    "gapped": {"plus": [[1, 2], [3, 4]]},
    "single": {"minus": [[1, "inf"]]},
    "empty": {},
    "box_disconnected": {"factors": [{"plus": [[1, 2]]}, {"plus": [[1, 2], [3, 4]]}]},
    "box_connected": {"factors": [{"plus": [[0, 1]], "minus": [[0, 2]]}, {"balanced": [[1, 2]]}]},
    "box_one_convex": {"factors": [{"plus": [[1, 2]]}]},
    "box_empty_factor": {"factors": [{"plus": [[1, 2]]}, {}]},
}
CHECK_FLAGS = [
    "",
    "--chebyshev",
    "--connected",
    "--convex traditional",
    "--convex geometric",
    "--convex semimodule",
    "--convex box",
    "--chebyshev --connected",
    "--chebyshev --convex semimodule",
    "--connected --convex geometric",
    "--connected --convex box",
    "--chebyshev --convex box",
]
# the report of each input under each flag set, in CHECK_FLAGS order, or the
# error it exits 1 with; captured from the CLI before the set decisions were
# rewritten as one predicate table
CHECK_EXPECTED = {
    "triple": [
        {"chebyshev": False, "connected": False, "geometrically_convex": False,
         "semimodule_convex": True, "traditionally_convex": False},
        {"chebyshev": False, "connected": False},
        {"connected": False},
        {"traditionally_convex": False},
        {"geometrically_convex": False},
        {"semimodule_convex": True},
        {"chebyshev": False, "connected": False, "geometrically_convex": False,
         "semimodule_convex": True, "traditionally_convex": False},
        {"chebyshev": False, "connected": False},
        {"chebyshev": False, "connected": False, "semimodule_convex": True},
        {"connected": False, "geometrically_convex": False},
        {"connected": False},
        {"chebyshev": False, "connected": False},
    ],
    "star": [
        {"chebyshev": True, "connected": True, "geometrically_convex": True,
         "semimodule_convex": False, "traditionally_convex": False},
        {"chebyshev": True, "connected": True},
        {"connected": True},
        {"traditionally_convex": False},
        {"geometrically_convex": True},
        {"semimodule_convex": False},
        {"chebyshev": True, "connected": True, "geometrically_convex": True,
         "semimodule_convex": False, "traditionally_convex": False},
        {"chebyshev": True, "connected": True},
        {"chebyshev": True, "connected": True, "semimodule_convex": False},
        {"connected": True, "geometrically_convex": True},
        {"connected": True},
        {"chebyshev": True, "connected": True},
    ],
    "origin": [
        {"chebyshev": True, "connected": True, "geometrically_convex": True,
         "semimodule_convex": True, "traditionally_convex": True},
        {"chebyshev": True, "connected": True},
        {"connected": True},
        {"traditionally_convex": True},
        {"geometrically_convex": True},
        {"semimodule_convex": True},
        {"chebyshev": True, "connected": True, "geometrically_convex": True,
         "semimodule_convex": True, "traditionally_convex": True},
        {"chebyshev": True, "connected": True},
        {"chebyshev": True, "connected": True, "semimodule_convex": True},
        {"connected": True, "geometrically_convex": True},
        {"connected": True},
        {"chebyshev": True, "connected": True},
    ],
    "gapped": [
        {"chebyshev": False, "connected": False, "geometrically_convex": False,
         "semimodule_convex": False, "traditionally_convex": False},
        {"chebyshev": False, "connected": False},
        {"connected": False},
        {"traditionally_convex": False},
        {"geometrically_convex": False},
        {"semimodule_convex": False},
        {"chebyshev": False, "connected": False, "geometrically_convex": False,
         "semimodule_convex": False, "traditionally_convex": False},
        {"chebyshev": False, "connected": False},
        {"chebyshev": False, "connected": False, "semimodule_convex": False},
        {"connected": False, "geometrically_convex": False},
        {"connected": False},
        {"chebyshev": False, "connected": False},
    ],
    "single": [
        {"chebyshev": True, "connected": True, "geometrically_convex": True,
         "semimodule_convex": True, "traditionally_convex": True},
        {"chebyshev": True, "connected": True},
        {"connected": True},
        {"traditionally_convex": True},
        {"geometrically_convex": True},
        {"semimodule_convex": True},
        {"chebyshev": True, "connected": True, "geometrically_convex": True,
         "semimodule_convex": True, "traditionally_convex": True},
        {"chebyshev": True, "connected": True},
        {"chebyshev": True, "connected": True, "semimodule_convex": True},
        {"connected": True, "geometrically_convex": True},
        {"connected": True},
        {"chebyshev": True, "connected": True},
    ],
    "empty": ["empty set"] * 12,
    "box_disconnected": [
        {"box_semimodule_convex": False, "chebyshev": False, "connected": False},
        {"chebyshev": False, "connected": False},
        {"connected": False},
        "box sets support --convex box only",
        "box sets support --convex box only",
        "box sets support --convex box only",
        {"box_semimodule_convex": False},
        {"chebyshev": False, "connected": False},
        "box sets support --convex box only",
        "box sets support --convex box only",
        {"box_semimodule_convex": False, "connected": False},
        {"box_semimodule_convex": False, "chebyshev": False, "connected": False},
    ],
    "box_connected": [
        {"box_semimodule_convex": False, "chebyshev": True, "connected": True},
        {"chebyshev": True, "connected": True},
        {"connected": True},
        "box sets support --convex box only",
        "box sets support --convex box only",
        "box sets support --convex box only",
        {"box_semimodule_convex": False},
        {"chebyshev": True, "connected": True},
        "box sets support --convex box only",
        "box sets support --convex box only",
        {"box_semimodule_convex": False, "connected": True},
        {"box_semimodule_convex": False, "chebyshev": True, "connected": True},
    ],
    "box_one_convex": [
        {"box_semimodule_convex": True, "chebyshev": True, "connected": True},
        {"chebyshev": True, "connected": True},
        {"connected": True},
        "box sets support --convex box only",
        "box sets support --convex box only",
        "box sets support --convex box only",
        {"box_semimodule_convex": True},
        {"chebyshev": True, "connected": True},
        "box sets support --convex box only",
        "box sets support --convex box only",
        {"box_semimodule_convex": True, "connected": True},
        {"box_semimodule_convex": True, "chebyshev": True, "connected": True},
    ],
    "box_empty_factor": [
        "empty set",
        "empty set",
        "empty set",
        "box sets support --convex box only",
        "box sets support --convex box only",
        "box sets support --convex box only",
        "empty set",
        "empty set",
        "box sets support --convex box only",
        "box sets support --convex box only",
        "empty set",
        "empty set",
    ],
}


@pytest.mark.parametrize("name", list(CHECK_INPUTS))
def test_check_matrix(capsys, files, name):
    path = files["write"](f"{name}.json", CHECK_INPUTS[name])
    for flags, expected in zip(CHECK_FLAGS, CHECK_EXPECTED[name], strict=True):
        code, out, err = run(capsys, "check", *flags.split(), path, "--out", "json")
        if isinstance(expected, dict):
            assert (code, out, err) == (0, json.dumps(expected, sort_keys=True) + "\n", ""), flags
        else:
            assert (code, out, err) == (1, "", json.dumps({"error": expected}) + "\n"), flags


class TestSvg:
    def test_deterministic_bytes(self, capsys, files):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "segment", "--kind", "semimodule", files["p1"], files["m0"], "--out", "svg"
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("<?xml")
        assert "<svg" in outputs[0] and "</svg>" in outputs[0]

    def test_projection_svg(self, capsys, files):
        code, out, _ = run(capsys, "project", files["x"], files["triple"], "--out", "svg")
        assert code == 0
        assert out.count("<circle") >= 4  # query plus three nearest points

    @pytest.mark.parametrize(
        "query, ray_set, strokes",
        [
            (1, {"plus": [[5, 6]]}, [(120, 5.0, 6.0)]),
            (1, {"plus": [[1, 2]], "minus": [[20, 30]]}, [(120, 1.0, 2.0), (240, 20.0, 30.0)]),
            (1, {"plus": [[10, "inf"]]}, [(120, 10.0, 40.0)]),
            (1, {"plus": [[1, "inf"]], "minus": [[20, 30]]}, [(120, 1.0, 120.0), (240, 20.0, 30.0)]),
            (1, {"plus": [[1, "inf"]], "minus": [[2, "inf"]], "balanced": [[3, "inf"]]},
             [(120, 1.0, 12.0), (240, 2.0, 12.0), (0, 3.0, 12.0)]),
            # the query is its own nearest point, at e**5 = 148.413159
            (5, {"plus": [[1, "inf"]]}, [(120, 1.0, 593.652636)]),
        ],
        ids=["far", "far-after-near", "unbounded-far", "unbounded-before-far", "three-unbounded",
             "unbounded-before-a-far-member"],
    )
    def test_set_intervals_are_strokes_at_their_radii(self, capsys, files, query, ray_set, strokes):
        # a finite interval is drawn from end to end at any radius; every
        # unbounded one is cut at four times the extent, the largest of 1
        # and every finite radius drawn (interval ends, the low ends of
        # unbounded intervals, the query and its nearest points), so it
        # reaches beyond all of them
        x = files["write"]("q.json", {"sign": "+", "exp": query})
        path = files["write"]("far.json", ray_set)
        code, out, _ = run(capsys, "project", x, path, "--out", "svg")
        assert code == 0
        assert _set_strokes(out) == [strokes]
        assert 'fill="#1f77b4"' not in out  # no interval collapsed to a dot
        # a nearest point's dot lies on a stroke of its ray, and so does the
        # query's where the query is a member
        _, result, _ = run(capsys, "project", x, path)
        member = json.loads(result)["distance"] == 0
        dots = [(size, angle, radius) for fill, size, angle, radius in _dots(out)[0] if fill == "#2ca02c"]
        assert len(dots) == 1 + len(json.loads(result)["points"])
        for size, angle, radius in dots:
            if size == 0.04 or member:
                assert any(a == angle and lo <= radius <= hi for a, lo, hi in strokes), (angle, radius)

    def test_an_unbounded_factor_interval_reaches_beyond_the_other_factor(self, capsys, files):
        cases = [
            ([{"plus": [[1, "inf"]]}, {"minus": [[20, 30]]}], 3, [[(120, 1.0, 120.0)], [(240, 20.0, 30.0)]]),
            ([{"plus": [[1, "inf"]]}, {"minus": [[2, "inf"]]}], 0, [[(120, 1.0, 8.0)], [(240, 2.0, 8.0)]]),
        ]
        for factors, minus_exp, strokes in cases:
            box = files["write"]("box.json", {"factors": factors})
            query = files["write"]("q2.json", {"coords": [{"sign": "+", "exp": 0},
                                                           {"sign": "-", "exp": minus_exp}]})
            code, out, _ = run(capsys, "project", query, box, "--out", "svg")
            assert code == 0
            assert _set_strokes(out) == strokes, factors

    @pytest.mark.parametrize(
        "query, ray_set",
        [(SElem.pos(5), RaySet(plus=((1, math.inf),))),
         (SElem.pos(1), RaySet(plus=((1, math.inf),), minus=((2, math.inf),), balanced=((3, math.inf),)))],
        ids=["far-member", "three-unbounded"],
    )
    def test_the_picture_does_not_depend_on_the_call_order(self, query, ray_set):
        x, box = SVector((query,)), BoxSet((ray_set,))
        points = [SVector((p,)) for p in project_ray(query, ray_set).points]
        scene = Scene(1)
        scene.add_projection(x, points)
        scene.add_box_set(box)
        reordered, cli_order = scene.render(), render_projection_svg(x, points, box)
        assert reordered != cli_order
        assert _panel_contents(reordered) == _panel_contents(cli_order)
        assert ET.fromstring(reordered).get("viewBox") == ET.fromstring(cli_order).get("viewBox")

    def test_two_coordinate_scene(self, capsys, files):
        aa = files["write"](
            "aa.json", {"coords": [{"sign": "+", "exp": 0}, {"sign": "-", "exp": 1}]}
        )
        bb = files["write"](
            "bb.json", {"coords": [{"sign": "-", "exp": 1}, {"sign": "+", "exp": 0}]}
        )
        code, out, _ = run(capsys, "segment", "--kind", "semimodule", aa, bb, "--out", "svg")
        assert code == 0
        assert out.count("<g transform=") == 2


def _set_strokes(svg: str):
    """Per panel, the set strokes as (angle in degrees, radius from, radius
    to), in drawing order."""
    panels = []
    for g in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}g"):
        drawn = []
        for line in g.iter("{http://www.w3.org/2000/svg}line"):
            if line.get("stroke") == "#1f77b4":
                z1 = complex(float(line.get("x1")), -float(line.get("y1")))
                z2 = complex(float(line.get("x2")), -float(line.get("y2")))
                angle = round(math.degrees(math.atan2(z2.imag, z2.real))) % 360
                drawn.append((angle, round(abs(z1), 6), round(abs(z2), 6)))
        panels.append(drawn)
    return panels


def _dots(svg: str):
    """Per panel, the dots as (fill, dot radius, angle in degrees, radius),
    sorted."""
    panels = []
    for g in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}g"):
        drawn = []
        for dot in g.iter("{http://www.w3.org/2000/svg}circle"):
            z = complex(float(dot.get("cx")), -float(dot.get("cy")))
            angle = round(math.degrees(math.atan2(z.imag, z.real))) % 360
            drawn.append((dot.get("fill"), float(dot.get("r")), angle, round(abs(z), 6)))
        panels.append(sorted(drawn))
    return panels


def _panel_contents(svg: str):
    """Per panel, every element drawn in it, in text form and sorted."""
    return [sorted(map(ET.tostring, g)) for g in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}g")]


def test_output_to_a_stream_without_a_binary_layer(capsys, files):
    # redirect_stdout(StringIO) has no buffer: the text write takes it all
    argv = ["segment", "--kind", "semimodule", files["a"], files["b"], "--out", "text"]
    _, expected, _ = run(capsys, *argv)
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(argv)
    assert code == 0
    assert stream.getvalue() == expected and len(expected) > 1000


def test_a_set_read_from_stdin(capsys, monkeypatch, files):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"plus": [[1, 2]], "minus": [[3, 4]]})))
    code, out, err = run(capsys, "check", "-", "--connected")
    assert (code, json.loads(out), err) == (0, {"connected": False}, "")


def test_check_refuses_svg_output(capsys, files):
    code, out, err = run(capsys, "check", files["triple"], "--out", "svg")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "svg output is not available for this command"}


@pytest.mark.parametrize("command", ["segment", "project"])
def test_svg_of_three_coordinates_is_refused(capsys, files, command):
    box = files["write"]("box3.json", {"factors": [{"plus": [[1, 2]]}] * 3})
    argv = [files["a"], files["b"]] if command == "segment" else [files["a"], box]
    code, out, err = run(capsys, command, *argv, "--out", "svg")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "SVG rendering supports one or two coordinates only"}


def test_box_projection_svg(capsys, files):
    box = files["write"](
        "box2.json", {"factors": [{"plus": [[1, 2]]}, {"minus": [[0, 1]], "balanced": [[3, 3]]}]}
    )
    query = files["write"]("q2.json", {"coords": [{"sign": "+", "exp": 0}, {"sign": "o", "exp": 0}]})
    code, out, err = run(capsys, "project", query, box, "--metric", "rho12", "--out", "svg")
    assert (code, err) == (0, "")
    root = ET.fromstring(out)
    assert len(root.findall("{http://www.w3.org/2000/svg}g")) == 2
    # the query and its one nearest point in each panel, joined by an arrow
    assert out.count('fill="#2ca02c"') == 4 and out.count('stroke="#2ca02c"') == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--seed", "1", "1"],
        ["segment", "--resolution", "0.1", "a.json", "b.json"],
        ["check", "--max-magnitude", "5", "set.json"],
    ],
    ids=["eval-seed", "segment-resolution", "check-max-magnitude"],
)
def test_grid_options_only_where_a_grid_is_built(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_no_oracle_subcommand(files):
    # the grid oracle is a test-only reference; the CLI does not expose it
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "connected", files["triple"], "--resolution", "0.01", "--max-magnitude", "5"])
    assert exc.value.code == 2


# the package's exports, by home module
OLD_EXPORTS = {
    "algebra": """EPS SElem Sign UNIT ZERO ext_oplus ext_otimes ext_power parts s_abs s_minus
        s_oplus s_otimes s_power scalar_mul""",
    "boxmax": "project_box_max",
    "connectivity": "component_count components isolated_points",
    "exprs": "ExprError eval_expr",
    "metrics": """D1 D2 MagnitudeRangeWarning MetricId SVector THETA d1 d2 magnitude
        parse_metric_id phi phi_n rho""",
    "pairs": """Pair balance_rel classify equiv_rel lift pair_balance pair_minus pair_norm
        pair_oplus pair_otimes""",
    "projection": """ProjectionResult distance_to_set find_multipoint_witness project_box
        project_ray""",
    "raysets": """BoxSet RaySet is_box_semimodule_convex is_chebyshev is_connected
        is_geometrically_convex is_semimodule_convex is_traditionally_convex point_on_ray
        ray_components""",
    "segments": """ArcPiece BrokenLine ChartError PointPiece SegmentSet as_segment_set chart_for
        d_segment_contains geometric_segment psi psi_inverse semimodule_segment
        traditional_segment vec_oplus vec_scale""",
}


def _newly_loaded(body: str, *argv: str) -> set:
    """The modules a fresh interpreter loads while running ``body``."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{body}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(smaxplus.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_neither_numpy_nor_scipy(files):
    # every module of the package stands alone, the CLI and max-combine
    # boxes included; numpy and scipy are test dependencies
    loaded = _newly_loaded(
        "import importlib, pkgutil, smaxplus\n"
        "names = [m.name for m in pkgutil.walk_packages(smaxplus.__path__, 'smaxplus.')]\n"
        "assert 'smaxplus.cli' in names\n"
        "[importlib.import_module(name) for name in names]\n"
        "from smaxplus import BoxSet, RaySet, SElem, SVector, project_box_max\n"
        "ball = RaySet(plus=((0, 1),), minus=((0, 1),))\n"
        "r = project_box_max(SVector((SElem.pos(0), SElem.neg(1))), BoxSet((ball, ball)), 1, 0.1)\n"
        "assert len(r.points) > 1"
    )
    assert "smaxplus.svg" in loaded and not loaded & {"numpy", "scipy"}

    # the import path of a cold CLI call: no dataclasses (nor the inspect
    # and ast it imports), and only the modules the subcommand runs
    heavy = {"dataclasses", "inspect", "ast"}
    loaded = _newly_loaded("import smaxplus.cli")
    assert "smaxplus.cli" in loaded and not loaded & heavy
    assert not any(m.startswith("smaxplus.") for m in loaded - {"smaxplus.cli"})
    loaded = _newly_loaded("from smaxplus.cli import main\nmain(['eval', '1'])")
    assert {m for m in loaded if m.startswith("smaxplus")} == {
        "smaxplus", "smaxplus.cli", "smaxplus.algebra", "smaxplus.exprs"}
    assert not loaded & heavy
    loaded = _newly_loaded("from smaxplus.cli import main\nmain(['segment', *sys.argv[1:]])",
                           files["a"], files["b"])
    assert "smaxplus.segments" in loaded and not loaded & heavy
    assert not loaded & {"smaxplus.exprs", "smaxplus.projection"}
    loaded = _newly_loaded("from smaxplus.cli import main\nmain(['check', sys.argv[1]])",
                           files["triple"])
    assert {m for m in loaded if m.startswith("smaxplus")} == {
        "smaxplus", "smaxplus.cli", "smaxplus.algebra", "smaxplus.raysets"}
    assert not loaded & heavy

    # code a call does not run stays unloaded, so uncompiled: a segment's
    # SVG needs neither ray sets nor connectivity, only a max-combine box
    # loads its sampler, and no subcommand loads the pair algebra
    query = files["write"]("q2.json", {"coords": [{"sign": "+", "exp": 2}, {"sign": "+", "exp": 0.4}]})
    box = files["write"]("box2.json", {"factors": [{"plus": [[1, 2]]}, {"plus": [[1, 2]]}]})
    point = {"kind": "point", "point": {"coords": [{"sign": "-", "exp": 0}]}}
    segment = files["write"]("seg.json", {"pieces": [point]})
    calls = {
        "eval": ["eval", "1"],
        "segment": ["segment", "--kind", "semimodule", files["p1"], files["m0"]],
        "segment-svg": ["segment", files["p1"], files["m0"], "--out", "svg"],
        "ray": ["project", files["p1"], files["triple"]],
        "segment-set": ["project", files["p1"], segment],
        "rho12": ["project", query, box, "--metric", "rho12"],
        "rho02": ["project", query, box, "--metric", "rho02", "--resolution", "0.25"],
        "check": ["check", files["triple"]],
    }
    loaded = {
        name: _newly_loaded("from smaxplus.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
        for name, argv in calls.items()
    }
    assert "smaxplus.svg" in loaded["segment-svg"]
    assert not loaded["segment-svg"] & {"smaxplus.raysets", "smaxplus.connectivity"}
    assert "smaxplus.boxmax" in loaded["rho02"] and "smaxplus.boxmax" not in loaded["rho12"]
    # a segment-set file loads the segments layer for its reader only
    assert "smaxplus.segments" in loaded["segment-set"] and "smaxplus.segments" not in loaded["ray"]
    assert not loaded["segment-set"] & {"smaxplus.connectivity", "smaxplus.boxmax", "smaxplus.svg"}
    assert not any("smaxplus.pairs" in modules for modules in loaded.values())

    # the lazy package: the old names, each the object of its home module,
    # and its submodules as attributes
    loaded = _newly_loaded("import smaxplus\nassert smaxplus.raysets.RaySet")
    assert "smaxplus.raysets" in loaded and "smaxplus.segments" not in loaded
    loaded = _newly_loaded("import smaxplus\nassert smaxplus.segments.SegmentSet")
    assert "smaxplus.segments" in loaded and "smaxplus.raysets" not in loaded
    namespace = {}
    exec("from smaxplus import *", namespace)
    del namespace["__builtins__"]
    homes = {name: module for module, names in OLD_EXPORTS.items() for name in names.split()}
    assert set(namespace) == set(homes) == set(smaxplus.__all__) <= set(dir(smaxplus))
    for name, module in homes.items():
        assert namespace[name] is vars(importlib.import_module(f"smaxplus.{module}"))[name]
