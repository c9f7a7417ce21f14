"""The four workloads: a seeded list of operations, each with the check of
its result.

An operation is one call into smaxplus (in process) or one ``python -m
smaxplus.cli`` process (``cli-cold``).  A check returns True when the result
was verified, False for a failed operation (a result the program's contract
rules out, such as no witness for a disconnected set), and raises
``CheckError`` for a wrong result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks as C
import inputs as I

HERE = Path(__file__).resolve().parent


class Op:
    __slots__ = ("group", "fn", "args", "check")

    def __init__(self, group, fn, args, check):
        self.group = group
        self.fn = fn
        self.args = args
        self.check = check


def svector(S, v):
    return S.SVector(tuple(selem(S, e) for e in v))


def selem(S, e):
    return S.SElem(S.Sign(e[0]), S.EPS if e[1] is None else e[1])


def ray_set(S, rs: dict):
    return S.RaySet(plus=rs["+"], minus=rs["-"], balanced=rs["o"])


# --- segment-sweep --------------------------------------------------------------

# pairs per dimension (the worked example adds one more n = 2 pair); the
# n = 8 group holds the median operation near its 43rd percentile, and is
# large so that this percentile barely depends on the seed
SEGMENT_COUNTS = ((2, 7), (4, 8), (8, 40), (16, 8), (32, 3))


def _segment_op(semimodule_segment, components, geometric_segment, a, b):
    seg = semimodule_segment(a, b)
    return seg, components(seg), geometric_segment(a, b)


def segment_sweep(S, rng, ctx):
    ops = []

    def add(a, b, worked=False):
        lams = I.scaling_params(rng, a, b)

        def check(res):
            seg, comps, line = res
            sj = seg.to_json()
            C.check_semimodule(a, b, lams, sj)
            C.check_components(sj, comps)
            if worked:
                C.check_worked_example(comps)
            C.check_geometric(a, b, line.to_json())
            return True

        args = (S.semimodule_segment, S.components, S.geometric_segment,
                svector(S, a), svector(S, b))
        ops.append(Op(f"n{len(a)}", _segment_op, args, check))

    add(C.WORKED_A, C.WORKED_B, worked=True)
    for n, count in SEGMENT_COUNTS:
        for _ in range(count):
            add(*I.segment_pair(rng, n))
    return ops


# --- projection-mix ---------------------------------------------------------------

SHAPES = ("single", "star", "gapped", "split")
DISCONNECTED = ("gapped", "split")
# project_ray is 1000 of 1454 operations, so the median falls at about the
# 73rd percentile of that group, well inside it
MIX = {"ray": 1000, "predicates": 100, "witness": 100, "box": 150, "eval": 100}
BOX_DIMS = (1, 2, 4, 8)
BOX_METRICS = ("rho11", "rho12", "rho21", "rho22")


def _predicates(is_chebyshev, is_semimodule_convex, is_traditionally_convex,
                is_geometrically_convex, C_):
    return {
        "chebyshev": is_chebyshev(C_),
        "semimodule_convex": is_semimodule_convex(C_),
        "traditionally_convex": is_traditionally_convex(C_),
        "geometrically_convex": is_geometrically_convex(C_),
    }


def projection_mix(S, rng, ctx):
    ops = []
    for i in range(MIX["ray"]):
        rs = I.ray_set(rng, SHAPES[i % 4])
        x = I.rand_elem(rng, zero_p=0.05)
        base = 1 + i % 2
        ops.append(Op("ray", S.project_ray, (selem(S, x), ray_set(S, rs), base),
                      lambda r, x=x, rs=rs, base=base:
                      C.check_project_ray(x, rs, base, r.to_json()) or True))
    preds = (S.is_chebyshev, S.is_semimodule_convex, S.is_traditionally_convex,
             S.is_geometrically_convex)
    for i in range(MIX["predicates"]):
        rs = I.ray_set(rng, SHAPES[i % 4])
        ops.append(Op("predicates", _predicates, preds + (ray_set(S, rs),),
                      lambda r, rs=rs: C.check_predicates(rs, r) or True))

    def witness(rs, base):
        ops.append(Op("witness", S.find_multipoint_witness, (ray_set(S, rs), base),
                      lambda r: C.check_witness(rs, base, None if r is None else r.to_json())))

    for i in range(MIX["witness"]):
        witness(I.ray_set(rng, DISCONNECTED[i % 2]), 1 + (i // 2) % 2)
    for rs in I.WIDE_WITNESS_SETS:
        witness(rs, 2)
    for i in range(MIX["box"]):
        n = BOX_DIMS[i % 4]
        code = BOX_METRICS[(i // 4) % 4]
        how = "euclid" if code[3] == "1" else "sum"
        base = int(code[4])
        factors = [I.ray_set(rng, SHAPES[(i + j) % 4]) for j in range(n)]
        x = tuple(I.rand_elem(rng, zero_p=0.05) for _ in range(n))
        box = S.BoxSet(tuple(ray_set(S, f) for f in factors))
        ops.append(Op("box", S.project_box, (svector(S, x), box, S.parse_metric_id(code)),
                      lambda r, x=x, f=factors, how=how, base=base:
                      C.check_project_box(x, f, how, base, r.to_json()) or True))
    for i in range(MIX["eval"]):
        mode = ("mpa", "smpa")[i % 2]
        text, value = I.expression(rng, mode)
        ops.append(Op("eval", S.eval_expr, (text, mode),
                      lambda r, v=value: C.check_eval(v, r.to_json()) or True))
    return ops


# --- max-box --------------------------------------------------------------------------

# the two-coordinate group (40 of 52) holds the median; the bands bound the
# grid points scored per operation (one coordinate scores only its argmins)
MAXBOX_COUNTS = ((1, 12, (1, 10)), (2, 40, (100, 200)))
MAXBOX_RESOLUTION = 1e-2


def max_box(S, rng, ctx):
    ops = []
    for n, count, band in MAXBOX_COUNTS:
        for i in range(count):
            base = 1 + i % 2
            x, factors, bound = I.box_max_instance(rng, n, base, MAXBOX_RESOLUTION, band)
            box = S.BoxSet(tuple(ray_set(S, f) for f in factors))
            args = (svector(S, x), box, base, MAXBOX_RESOLUTION, bound)
            ops.append(Op(f"n{n}", S.project_box_max, args,
                          lambda r, x=x, f=factors, base=base:
                          C.check_box_max(x, f, base, MAXBOX_RESOLUTION, r.to_json()) or True))
    return ops


# --- cli-cold ---------------------------------------------------------------------------


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, cwd, env, profile_to=None):
    """One CLI process; returns (exit code, stdout bytes).  With
    ``profile_to`` the process runs under cProfile and dumps its stats
    there."""
    if profile_to is None:
        cmd = [sys.executable, "-m", "smaxplus.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "profile_child.py"), profile_to, *argv]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout


def _stdout_json(res):
    code, out = res
    if code != 0:
        raise C.CheckError(f"cli exit code {code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise C.CheckError(f"cli stdout is not JSON: {exc}") from None


def _stdout_svg(res):
    code, out = res
    if code != 0:
        raise C.CheckError(f"cli exit code {code}")
    C.check_svg(out.decode("utf-8"))
    return True


def write_cli_inputs(rng, tmp: Path):
    """Input files for the CLI calls (two coordinates at most); returns the
    calls as (argv, check) pairs."""
    def dump(name, data):
        (tmp / name).write_text(json.dumps(data), encoding="utf-8")
        return name

    def vec_json(v):
        return {"coords": [C.elem_json(e) for e in v]}

    a, b = I.segment_pair(rng, 2)
    lams = I.scaling_params(rng, a, b)
    ta = tuple((s, rng.uniform(I.EXP_LO, I.EXP_HI)) for s in rng.sample(C.RAYS, 2))
    tb = tuple((s, rng.uniform(I.EXP_LO, I.EXP_HI)) for s, _ in ta)
    x1 = I.rand_elem(rng)
    rs = I.ray_set(rng, "gapped")
    x2 = (I.rand_elem(rng), I.rand_elem(rng))
    factors = [I.ray_set(rng, "gapped"), I.ray_set(rng, "star")]
    dump("a.json", vec_json(a))
    dump("b.json", vec_json(b))
    dump("ta.json", vec_json(ta))
    dump("tb.json", vec_json(tb))
    dump("x1.json", C.elem_json(x1))
    dump("set.json", I.ray_set_json(rs))
    dump("x2.json", vec_json(x2))
    dump("box.json", {"factors": [I.ray_set_json(f) for f in factors]})

    calls = []
    for mode in ("mpa", "smpa"):
        text, value = I.expression(rng, mode)
        if text.startswith("-"):
            text = f"({text})"  # argparse would read a leading '-' as an option
        calls.append((["eval", "--mode", mode, text],
                      lambda r, v=value: C.check_eval(v, _stdout_json(r)) or True))

    def check_segment(kind, r):
        seg = _stdout_json(r)
        if kind == "geometric":
            C.check_geometric(a, b, seg)
        elif kind == "semimodule":
            C.check_semimodule(a, b, lams, seg)
        else:
            C.check_traditional(ta, tb, seg)
        return True

    for kind in ("geometric", "semimodule", "traditional"):
        ends = ("a.json", "b.json") if kind != "traditional" else ("ta.json", "tb.json")
        calls.append((["segment", "--kind", kind, *ends],
                      lambda r, k=kind: check_segment(k, r)))
        calls.append((["segment", "--kind", kind, *ends, "--out", "svg"], _stdout_svg))
    for base in ("d1", "d2"):
        calls.append((["project", "x1.json", "set.json", "--base", base],
                      lambda r, b_=int(base[1]): C.check_project_ray(x1, rs, b_, _stdout_json(r)) or True))
    for code in ("rho12", "rho22"):
        how = "euclid" if code[3] == "1" else "sum"
        calls.append((["project", "x2.json", "box.json", "--metric", code],
                      lambda r, how=how: C.check_project_box(x2, factors, how, 2, _stdout_json(r)) or True))
    calls.append((["check", "set.json"], lambda r: C.check_predicates(rs, _stdout_json(r)) or True))
    return calls


def cli_cold(S, rng, ctx):
    calls = write_cli_inputs(rng, ctx.tmp)
    env = cli_env(ctx.root)
    ops = []
    for argv, check in calls:
        # one group: any call imports the whole package, so one warm-up
        # call writes the bytecode cache of a fresh checkout
        ops.append(Op("cli", run_cli, (argv, str(ctx.tmp), env), check))
    return ops


WORKLOADS = {
    "cli-cold": cli_cold,
    "segment-sweep": segment_sweep,
    "projection-mix": projection_mix,
    "max-box": max_box,
}
