"""Command-line front end.

Exit codes: 0 on success, 2 on usage errors (argparse), 1 on domain errors
(empty sets, dimension mismatches, parse failures), with a machine-readable
``{"error": ...}`` object on stderr for the latter.  When the reader closes
stdout before the output is written (``smaxplus ... | head -c 10``), the
process exits 1 quietly, as CPython does on a broken pipe: no traceback and
no error object, since the reader asked for no more.  Unbuffered or not,
the output goes out through the binary layer of stdout in full, so a
closed pipe is always seen.

Each subcommand imports the package modules it runs when it runs, so a
process loads only those, besides ``smaxplus`` and this module:

* ``eval``: ``algebra`` and ``exprs``;
* ``segment``: ``algebra``, ``metrics`` and ``segments``, and ``svg`` for
  ``--out svg``;
* ``project``: ``algebra``, ``metrics``, ``raysets`` and ``projection``,
  ``segments`` for a segment set or a geodesic, ``boxmax`` for a
  max-combine metric (``rho01``, ``rho02``), and ``svg`` and ``segments``
  for ``--out svg``;
* ``check``: ``algebra`` and ``raysets``, and ``segments`` for a segment
  set or a geodesic, which it refuses.

No subcommand loads ``pairs`` or ``connectivity``.  Where no bytecode cache
is written (``PYTHONDONTWRITEBYTECODE=1``, or a read-only checkout), every
call compiles each module it loads from source, so what a call does not
load it does not compile either.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Callable, Optional


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _malformed(path: str, what: str, exc: Exception) -> ValueError:
    return ValueError(f"{path}: not {what} ({type(exc).__name__}: {exc})")


# the JSON boundary: wrong types and shapes become domain errors here, so
# main() reports them as {"error": ...} instead of a traceback
_SHAPE_ERRORS = (TypeError, KeyError, IndexError, AttributeError, ValueError)


def _load_vector(path: str):
    from .algebra import SElem
    from .metrics import SVector

    data = _load_json(path)
    try:
        if isinstance(data, dict) and "coords" in data:
            return SVector.from_json(data)
        return SVector((SElem.from_json(data),))
    except _SHAPE_ERRORS as exc:
        raise _malformed(path, "an element or vector", exc) from None


def _load_set(path: str):
    """A ray set, a box, or a segment set: the ``pieces`` JSON of a
    semimodule or traditional segment, or a geodesic's JSON, viewed through
    ``as_segment_set``.  Only a segment set or a geodesic loads
    ``segments``."""
    data = _load_json(path)
    if isinstance(data, dict) and ("pieces" in data or "vertices" in data):
        from .segments import BrokenLine, SegmentSet, as_segment_set

        try:
            if "pieces" in data:
                return SegmentSet.from_json(data)
            return as_segment_set(BrokenLine.from_json(data))
        except _SHAPE_ERRORS as exc:
            raise _malformed(path, "a segment set" if "pieces" in data else "a geodesic", exc) from None
    from .raysets import BoxSet, RaySet

    try:
        if isinstance(data, dict) and "factors" in data:
            return BoxSet.from_json(data)
        return RaySet.from_json(data)
    except _SHAPE_ERRORS as exc:
        raise _malformed(path, "a ray set or box", exc) from None


def _emit(args, payload, svg: Optional[Callable[[], str]] = None) -> str:
    """The output text; ``svg`` renders the SVG and is called only for
    ``--out svg``."""
    if args.out == "svg":
        if svg is None:
            raise ValueError("svg output is not available for this command")
        return svg()
    if args.out == "text":
        return json.dumps(payload, indent=2, sort_keys=True)
    return json.dumps(payload, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smaxplus",
        description="Signed max-plus arithmetic, segments, convexity checks and projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", choices=("json", "svg", "text"), default="json")

    p_eval = sub.add_parser("eval", help="evaluate a max-plus expression")
    p_eval.add_argument("expression", help="expression text, or '-' to read stdin")
    # an argument that starts with '-' and then a digit or '.' is the
    # expression, as Python 3.13's argparse has it: before 3.13 only a plain
    # negative number was, so -1e5 or -1e5+2 read as an unknown option
    p_eval._negative_number_matcher = re.compile(r"-\.?\d")
    p_eval.add_argument("--mode", choices=("mpa", "smpa"), default="smpa")
    add_out(p_eval)

    p_seg = sub.add_parser("segment", help="compute a segment between two vectors")
    p_seg.add_argument("--kind", choices=("geometric", "semimodule", "traditional"), default="geometric")
    p_seg.add_argument("a", help="path to the first endpoint JSON")
    p_seg.add_argument("b", help="path to the second endpoint JSON")
    add_out(p_seg)

    p_proj = sub.add_parser("project", help="nearest points of a query in a set")
    p_proj.add_argument("x", help="path to the query JSON (element or vector)")
    p_proj.add_argument("set", help="path to the set JSON (ray set, box, segment set or geodesic)")
    p_proj.add_argument("--metric", default=None, help="rho<k><j>, D1 or D2 (boxes)")
    # None means d2; --base is refused beside --metric, whose code names a base
    p_proj.add_argument("--base", choices=("d1", "d2"), default=None)
    add_out(p_proj)
    # None takes project_box_max's defaults: its argmin cloud is sampled 1e-3
    # apart and nothing is truncated
    p_proj.add_argument("--resolution", type=float, default=None)
    p_proj.add_argument("--max-magnitude", dest="max_magnitude", type=float, default=None)

    p_check = sub.add_parser("check", help="connectedness / convexity / Chebyshev decisions")
    p_check.add_argument("set", help="path to the set JSON")
    p_check.add_argument("--chebyshev", action="store_true")
    p_check.add_argument("--connected", action="store_true")
    p_check.add_argument(
        "--convex",
        choices=("traditional", "geometric", "semimodule", "box"),
        default=None,
    )
    add_out(p_check)

    return parser


def _cmd_eval(args) -> str:
    from .exprs import eval_expr

    source = sys.stdin.read() if args.expression == "-" else args.expression
    value = eval_expr(source, args.mode)
    return _emit(args, value.to_json())


def _cmd_segment(args) -> str:
    from .segments import geometric_segment, semimodule_segment, traditional_segment

    a = _load_vector(args.a)
    b = _load_vector(args.b)
    if args.kind == "geometric":
        seg = geometric_segment(a, b)
        payload = seg.to_json()
    elif args.kind == "semimodule":
        seg = semimodule_segment(a, b)
        payload = seg.to_json()
    else:
        seg = traditional_segment(a, b)
        if seg is None:
            if args.out == "svg":
                raise ValueError("the traditional segment of these endpoints is not representable")
            return _emit(args, {"representable": False})
        payload = seg.to_json()
        payload["representable"] = True

    def svg():
        from .svg import render_segment_svg

        return render_segment_svg(seg)

    return _emit(args, payload, svg=svg)


def _cmd_project(args) -> str:
    from .metrics import MetricId, SVector, parse_metric_id
    from .projection import project_box, project_ray
    from .raysets import BoxSet, RaySet

    x = _load_vector(args.x)
    target = _load_set(args.set)
    base = 1 if args.base == "d1" else 2
    gridless = "--resolution and --max-magnitude apply to max-combine box metrics only"
    grid_given = args.resolution is not None or args.max_magnitude is not None
    if not isinstance(target, BoxSet):
        # a line set: a ray set, or a segment set of one coordinate
        kind = "ray set" if isinstance(target, RaySet) else "segment set"
        if args.metric is not None:
            raise ValueError(f"--metric applies to boxes; a {kind} takes --base")
        if grid_given:
            raise ValueError(gridless)
        if len(x) != 1:
            raise ValueError(f"a {kind} expects a one-coordinate query")
        result = project_ray(x[0], target, base)
    else:
        if args.metric is not None and args.base is not None:
            raise ValueError("--base applies to ray sets and the default box metric; "
                             "--metric names its own base")
        mid = parse_metric_id(args.metric) if args.metric else MetricId("euclid", base)
        if mid.combine == "max":
            from .boxmax import project_box_max

            result = project_box_max(x, target, mid.base, args.resolution, args.max_magnitude)
        elif grid_given:
            raise ValueError(gridless)
        else:
            result = project_box(x, target, mid)

    def svg():
        from .svg import render_projection_svg

        if isinstance(target, BoxSet):
            return render_projection_svg(x, list(result.points), target)
        points = [SVector((p,)) for p in result.points]
        return render_projection_svg(x, points, BoxSet((target,)) if isinstance(target, RaySet) else target)

    return _emit(args, result.to_json(), svg=svg)


# the report key each --convex choice selects
_CONVEX_KEYS = {"traditional": "traditionally_convex", "geometric": "geometrically_convex",
                "semimodule": "semimodule_convex", "box": "box_semimodule_convex"}


def _cmd_check(args) -> str:
    from . import raysets as rs

    target = _load_set(args.set)
    if not isinstance(target, (rs.BoxSet, rs.RaySet)):
        raise ValueError("check decides ray sets and boxes, not segment sets")
    if isinstance(target, rs.BoxSet):
        if args.convex not in (None, "box"):
            raise ValueError("box sets support --convex box only")

        def connected(A):
            return all(rs.is_connected(f) for f in A.factors)

        # a box is Chebyshev under the sum and Euclidean combines iff every factor is
        table = {"box_semimodule_convex": rs.is_box_semimodule_convex,
                 "connected": connected, "chebyshev": connected}
    else:
        table = {"connected": rs.is_connected, "chebyshev": rs.is_chebyshev,
                 "traditionally_convex": rs.is_traditionally_convex,
                 "geometrically_convex": rs.is_geometrically_convex,
                 "semimodule_convex": rs.is_semimodule_convex}
    # a selected key the set kind lacks is dropped; selecting none prints all
    asked = {"chebyshev": args.chebyshev, "connected": args.chebyshev or args.connected,
             _CONVEX_KEYS.get(args.convex): True}
    keys = [key for key in table if asked.get(key)] or list(table)
    return _emit(args, {key: table[key](target) for key in keys})


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout in full, encoded as the text layer would
    encode it, through the binary layer and looping until every byte is out.
    Unbuffered (``PYTHONUNBUFFERED=1``) that layer is a raw file, whose
    write can be short; the text layer would drop the count of a short
    write to a closed pipe, and the process would exit 0 with its output
    cut.  A stream with no binary layer takes the text write."""
    stream = getattr(sys.stdout, "buffer", None)
    if stream is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    sys.stdout.flush()  # whatever the text layer holds goes first
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[stream.write(data):]
    stream.flush()


_DISPATCH = {
    "eval": _cmd_eval,
    "segment": _cmd_segment,
    "project": _cmd_project,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _DISPATCH[args.command](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    try:
        _write_stdout(output if output.endswith("\n") else output + "\n")
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): exit quietly, as CPython
        # does on EPIPE, with stdout on devnull so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
