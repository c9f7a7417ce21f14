"""Per-layer metrics for the traced run (``--trace 1``).

Two parts.  The workload's own passes run under the stdlib profiler,
grouped by smaxplus module plus one ``external`` bucket (the standard
library, numpy, the benchmark's loop, and the ``__init__``/``__eq__``
methods that ``dataclasses`` generates, whose code has no source file).
Then each layer's public functions are timed directly from here, on seeded
inputs that are the same for every workload, with dimension curves at
n in {2, 8, 32, 128}.  Timings are calibrated like the end-to-end ones
(see calib.py): in-process calls against the reference loop, fresh
interpreters against the reference process.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import math
import pstats
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks as C
import inputs as I
import workloads as W
from calib import LoopCalibration, ProcessCalibration

MODULES = ("package", "algebra", "exprs", "metrics", "raysets", "segments",
           "projection", "oracle", "svg", "cli", "external")
DIMS = (2, 8, 32, 128)
_LOOP = LoopCalibration()
LAYER_SEED = 20170822  # layer inputs do not depend on --seed, so every run times the same calls


def _module_of(filename: str) -> str:
    path = Path(filename)
    if path.parent.name == "smaxplus" and path.suffix == ".py":
        return "package" if path.stem == "__init__" else path.stem
    return "external"


def profile_metrics(stats: pstats.Stats, ops: int) -> dict:
    calls = dict.fromkeys(MODULES, 0)
    self_s = dict.fromkeys(MODULES, 0.0)
    for (filename, _, _), (_, nc, tt, _, _) in stats.stats.items():
        mod = _module_of(filename)
        calls[mod] += nc
        self_s[mod] += tt
    out = {}
    for mod in MODULES:
        out[f"{mod}.calls_per_op"] = calls[mod] / ops
        out[f"{mod}.self_ms_per_op"] = self_s[mod] * 1e3 / ops
    return out


def profiled_pass(ops, prof, cal, cli_tmp=None):
    """Run every operation once under the profiler ``prof``; returns the
    pass's calibrated time.  With ``cli_tmp`` each operation is a profiled
    CLI process instead, and ``prof`` is the list that collects their stats
    files."""
    clock = time.perf_counter
    before = cal.sample()
    t_pass = clock()
    if cli_tmp is None:
        prof.enable()
        for op in ops:
            op.fn(*op.args)
        prof.disable()
    else:
        for op in ops:
            path = cli_tmp / f"p{len(prof)}.prof"
            op.fn(*op.args, profile_to=str(path))
            prof.append(path)
    wall = clock() - t_pass
    return wall * cal.factor(before + cal.sample())


def traced(ops, args, ctx, untraced_ops_per_s: float, cal) -> dict:
    """Profiled passes of the workload for half the run, then the layer
    timings."""
    walls = []
    start = time.monotonic()
    if args.workload == "cli-cold":
        files = []
        while not walls or time.monotonic() - start < args.seconds / 2:
            walls.append(profiled_pass(ops, files, cal, cli_tmp=ctx.tmp))
        stats = pstats.Stats(*[str(f) for f in files])
    else:
        prof = cProfile.Profile()
        while not walls or time.monotonic() - start < args.seconds / 2:
            walls.append(profiled_pass(ops, prof, cal))
        stats = pstats.Stats(prof)
    n_ops = len(ops) * len(walls)
    traced_ops_per_s = n_ops / sum(walls)
    out = profile_metrics(stats, n_ops)
    out["trace.ops_per_s"] = traced_ops_per_s
    out["trace.overhead_pct"] = (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0
    out.update(layer_metrics(ctx))
    return out


# --- timing helpers ----------------------------------------------------------------


def per_call(fn, arglist, reps: int = 5, min_s: float = 0.02) -> float:
    """Median over ``reps`` rounds of the reference-seconds per call, a
    round calling ``fn`` on every argument tuple enough times to last
    ``min_s``."""
    t0 = time.perf_counter()
    for a in arglist:
        fn(*a)
    once = time.perf_counter() - t0
    loops = max(1, int(min_s / max(once, 1e-9)))
    times = []
    for _ in range(reps):
        before = _LOOP.sample()
        t0 = time.perf_counter()
        for _ in range(loops):
            for a in arglist:
                fn(*a)
        dt = (time.perf_counter() - t0) / (loops * len(arglist))
        times.append(dt * _LOOP.factor(before + _LOOP.sample()))
    return statistics.median(times)


def rounds(fn, arglist, reps: int):
    """Median over ``reps`` rounds of the reference-seconds per call, with
    no warm-up call (for calls long enough that one round is a
    measurement), and the last round's results."""
    times = []
    for _ in range(reps):
        before = _LOOP.sample()
        t0 = time.perf_counter()
        res = [fn(*a) for a in arglist]
        dt = (time.perf_counter() - t0) / len(arglist)
        times.append(dt * _LOOP.factor(before + _LOOP.sample()))
    return statistics.median(times), res


def _process_seconds(cmd, env, reps: int = 5) -> float:
    """Median calibrated wall time of a fresh interpreter running ``cmd``,
    or of what it prints when it prints a number."""
    cal = ProcessCalibration(env)
    vals = []
    ref = cal.sample()
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *cmd], env=env, capture_output=True,
                              timeout=60, check=True)
        dt = time.perf_counter() - t0
        after = cal.sample()
        vals.append((float(proc.stdout) if proc.stdout.strip() else dt) * cal.factor(ref + after))
        ref = after
    return statistics.median(vals)


# --- the layers ---------------------------------------------------------------------


def layer_metrics(ctx) -> dict:
    import smaxplus as S
    from smaxplus import cli, svg

    rng = random.Random(LAYER_SEED)
    out = {}
    us, ms = 1e6, 1e3
    env = W.cli_env(ctx.root)

    # cli: a bare interpreter, a fresh import, and in-process main(argv)
    out["cli.interp_ms"] = _process_seconds(["-c", "pass"], env) * ms
    out["cli.import_ms"] = _process_seconds(
        ["-c", "import time; t = time.perf_counter(); import smaxplus; "
               "print(time.perf_counter() - t)"], env) * ms
    tmp = ctx.tmp / "layers"
    tmp.mkdir(exist_ok=True)
    calls = W.write_cli_inputs(rng, tmp)
    wanted = {"eval": ["eval", "--mode", "smpa"], "segment": ["segment", "--kind", "semimodule"],
              "project": ["project", "x2.json"], "check": ["check"]}
    for name, prefix in wanted.items():
        argv = next(a for a, _ in calls if a[:len(prefix)] == prefix and "svg" not in a)
        argv = [str(tmp / a) if a.endswith(".json") else a for a in argv]

        def run_main(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"cli.main({argv}) failed")

        out[f"cli.main_ms.{name}"] = per_call(run_main, [()], min_s=0.05) * ms

    # exprs and svg
    exprs = [(I.expression(rng, mode)[0], mode) for mode in ("mpa", "smpa") * 16]
    out["exprs.eval_us"] = per_call(S.eval_expr, exprs) * us
    a2, b2 = (W.svector(S, v) for v in I.segment_pair(rng, 2))
    seg2 = S.semimodule_segment(a2, b2)
    line2 = S.geometric_segment(a2, b2)
    box2 = S.BoxSet(tuple(W.ray_set(S, I.ray_set(rng, "gapped")) for _ in range(2)))
    proj = S.project_box(a2, box2, S.D2)
    renders = [(svg.render_segment_svg, (seg2,)), (svg.render_segment_svg, (line2,)),
               (svg.render_projection_svg, (a2, list(proj.points), box2))]
    out["svg.render_us"] = per_call(lambda f, a: f(*a), renders) * us

    # algebra and metrics
    elems = [W.selem(S, I.rand_elem(rng)) for _ in range(64)]
    raw = [(S.Sign(e[0]), e[1]) for e in (I.rand_elem(rng) for _ in range(64))]
    pairs = list(zip(elems, elems[1:] + elems[:1]))
    out["algebra.selem_us"] = per_call(S.SElem, raw) * us
    out["algebra.s_oplus_us"] = per_call(S.s_oplus, pairs) * us
    out["algebra.s_otimes_us"] = per_call(S.s_otimes, pairs) * us
    out["metrics.d2_us"] = per_call(S.d2, pairs) * us
    for n in DIMS:
        vecs = [(S.D2, W.svector(S, [I.rand_elem(rng) for _ in range(n)]),
                 W.svector(S, [I.rand_elem(rng) for _ in range(n)])) for _ in range(4)]
        out[f"metrics.rho_us.n{n}"] = per_call(S.rho, vecs) * us

    # raysets and projection
    sets = [W.ray_set(S, I.ray_set(rng, W.SHAPES[i % 4])) for i in range(64)]
    out["raysets.is_connected_us"] = per_call(S.is_connected, [(c,) for c in sets]) * us
    out["raysets.is_semimodule_convex_us"] = per_call(
        S.is_semimodule_convex, [(c,) for c in sets]) * us
    rays = [(W.selem(S, I.rand_elem(rng)), c, 1 + i % 2) for i, c in enumerate(sets)]
    out["projection.project_ray_us"] = per_call(S.project_ray, rays) * us
    gaps = [(W.ray_set(S, I.ray_set(rng, W.DISCONNECTED[i % 2])), 1 + i % 2) for i in range(32)]
    out["projection.witness_us"] = per_call(S.find_multipoint_witness, gaps) * us
    for n in DIMS:
        boxes = []
        for _ in range(4):
            box = S.BoxSet(tuple(W.ray_set(S, I.ray_set(rng, W.SHAPES[j % 4])) for j in range(n)))
            boxes.append((W.svector(S, [I.rand_elem(rng) for _ in range(n)]), box, S.D2))
        out[f"projection.project_box_us.n{n}"] = per_call(S.project_box, boxes) * us

    # segments: one sample at n = 128, where one call takes seconds
    pieces = comps = pairs_done = 0
    for n in DIMS:
        count, reps = {2: (8, 5), 8: (4, 5), 32: (2, 3), 128: (1, 1)}[n]
        ends = [tuple(W.svector(S, v) for v in I.segment_pair(rng, n)) for _ in range(count)]
        out[f"segments.geometric_us.n{n}"] = per_call(S.geometric_segment, ends) * us
        t, segs = rounds(S.semimodule_segment, ends, reps)
        out[f"segments.semimodule_us.n{n}"] = t * us
        t, groups = rounds(S.components, [(s,) for s in segs], reps)
        out[f"segments.components_us.n{n}"] = t * us
        pieces += sum(len(s.pieces) for s in segs)
        comps += sum(len(g) for g in groups)
        pairs_done += len(segs)
    out["segments.pieces_per_op"] = pieces / pairs_done
    out["segments.components_per_op"] = comps / pairs_done

    # oracle: the max-combine grid projection, on bands like max-box's
    grid_points = boxes_done = 0
    for n, _, band in W.MAXBOX_COUNTS:
        cases = []
        for i in range(4):
            base = 1 + i % 2
            x, factors, bound = I.box_max_instance(rng, n, base, W.MAXBOX_RESOLUTION, band)
            box = S.BoxSet(tuple(W.ray_set(S, f) for f in factors))
            cases.append((W.svector(S, x), box, base, W.MAXBOX_RESOLUTION, bound))
            grid_points += grid_size(factors, W.MAXBOX_RESOLUTION, bound)
            boxes_done += 1
        out[f"oracle.project_box_max_ms.n{n}"] = per_call(S.project_box_max, cases, reps=3) * ms
    out["oracle.grid_points_per_op"] = grid_points / boxes_done
    return out


def grid_size(factors, resolution: float, bound: float) -> int:
    """Points of the full product grid: per interval, steps of
    ``resolution`` from the low end plus the clipped high end, the origin
    counted once per factor."""
    total = 1
    for rs in factors:
        count = 0
        origin = False
        for ivs in rs.values():
            for lo, hi in C.merged(ivs):
                hi = min(hi, bound)
                if hi < lo:
                    continue
                steps = math.floor((hi - lo) / resolution)
                count += steps + 1 + (lo + steps * resolution != hi)
                if lo == 0.0:
                    count -= origin
                    origin = True
        total *= count
    return total
