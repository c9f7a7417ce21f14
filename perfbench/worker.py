"""One benchmark process: set up a workload, run timed passes over its
operations, check every result, and print one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

``run.py`` starts this process and times its set-up from the outside; the
process prints ``time.monotonic()`` at the moment its first timed operation
would start.  The loop is closed: one caller, one operation at a time, no
threads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

import workloads
from calib import LoopCalibration, ProcessCalibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


class Context:
    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp


# calibration slot: the reference loop runs between slots of operations
# lasting at least this long (an operation that takes longer is a slot of
# its own); short slots follow the machine's speed changes within a pass
SLOT_S = 0.05
# latencies kept for the median: a preallocated ring, so the process's
# memory does not grow with the number of passes
RING_SAMPLES = 1 << 18


class Ring:
    """The most recent calibrated latencies; slot ``j`` holds operation
    ``j % len(ops)``."""

    def __init__(self, n_ops: int):
        self.size = n_ops * max(1, RING_SAMPLES // n_ops)
        self.data = array("d", bytes(8 * self.size))
        self.count = 0

    def add(self, v: float) -> None:
        self.data[self.count % self.size] = v
        self.count += 1

    def values(self):
        return self.data[:min(self.count, self.size)]


def run_pass(ops, lat: Ring, cal):
    """Run every operation once, timing each; returns the results, the
    pass's wall time and its calibrated time (see calib.py).  The reference
    runs before and after every slot, outside the timed region."""
    results = []
    clock = time.perf_counter
    wall = cal_wall = 0.0
    ref = cal.sample()
    i, n = 0, len(ops)
    while i < n:
        chunk = []
        t_slot = clock()
        while i < n and clock() - t_slot < SLOT_S:
            op = ops[i]
            t0 = clock()
            r = op.fn(*op.args)
            chunk.append(clock() - t0)
            results.append(r)
            i += 1
        slot = clock() - t_slot
        after = cal.sample()
        f = cal.factor(ref + after)
        ref = after
        wall += slot
        cal_wall += slot * f
        for v in chunk:
            lat.add(v * f)
    return results, wall, cal_wall


class Checker:
    """Checks the first pass against the benchmark's own computations and
    every later pass against the first (outputs are deterministic)."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None
        self.status = None  # per op: True verified, False failed operation
        self.errors = []

    def check(self, results) -> None:
        if self.first is None:
            self.first = results
            self.status = []
            for op, r in zip(self.ops, results):
                try:
                    self.status.append(bool(op.check(r)))
                except Exception as exc:  # any checker failure is a wrong result
                    self.status.append(True)
                    self.errors.append(f"{op.group}: {type(exc).__name__}: {exc}")
            return
        for op, r, f in zip(self.ops, results, self.first):
            if r != f:
                self.errors.append(f"{op.group}: result differs from the first pass")

    @property
    def failed_per_pass(self) -> int:
        return sum(1 for s in self.status if not s)


def setup(args):
    """Everything before the first timed operation: import, inputs,
    warm-up.  Returns (ops, context)."""
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ctx = Context(ROOT, tmp)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "cli-cold":
        S = None  # the CLI runs in its own processes; this one never imports smaxplus
    else:
        import smaxplus as S
    rng = random.Random(args.seed)
    ops = workloads.WORKLOADS[args.workload](S, rng, ctx)
    random.Random(args.seed + 1).shuffle(ops)
    # warm-up: the first operation of each group, once, untimed (for the CLI
    # this also writes the package's bytecode cache on a fresh checkout)
    seen = set()
    for op in ops:
        if op.group not in seen:
            seen.add(op.group)
            op.fn(*op.args)
    return ops, ctx


def timed(ops, seconds: float, checker: Checker, lat: Ring, cal, min_passes: int = 2):
    walls, cal_walls = [], []
    start = time.monotonic()
    while True:
        results, wall, cal_wall = run_pass(ops, lat, cal)
        walls.append(wall)
        cal_walls.append(cal_wall)
        checker.check(results)
        del results
        if len(walls) >= min_passes and time.monotonic() - start >= seconds:
            return walls, cal_walls


def group_p50(ops, lat) -> dict:
    by = {}
    n = len(ops)
    for i, v in enumerate(lat):
        by.setdefault(ops[i % n].group, []).append(v)
    return {g: statistics.median(v) * 1e3 for g, v in sorted(by.items())}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    ops, ctx = setup(args)
    lat = Ring(len(ops))
    ready = time.monotonic()
    env = dict(os.environ)
    # set-up is a whole process, so it is calibrated against the reference
    # process, run once before the spawn (by run.py) and once here
    ref_after = ProcessCalibration(env).sample()
    try:
        if args.setup_only:
            print(json.dumps({"ready": ready, "ref_after": ref_after}))
            return 0
        out = {"ready": ready, "ref_after": ref_after, "ops_per_pass": len(ops)}
        cli = args.workload == "cli-cold"
        cal = ProcessCalibration(env) if cli else LoopCalibration()
        checker = Checker(ops)
        seconds = args.seconds / 2 if args.trace else args.seconds
        walls, cal_walls = timed(ops, seconds, checker, lat, cal)
        attempted = len(ops) * len(walls)
        out.update(
            passes=len(walls),
            attempted=attempted,
            failed=checker.failed_per_pass * len(walls),
            ops_per_s=attempted / sum(cal_walls),
            latency_ms_p50=statistics.median(lat.values()) * 1e3,
            raw_ops_per_s=attempted / sum(walls),
            group_p50_ms=group_p50(ops, lat.values()),
            pass_wall_ms=[w * 1e3 for w in walls],
            pass_cal_ms=[w * 1e3 for w in cal_walls],
        )
        # the reference processes are far smaller than a CLI process, so the
        # peak over children is a CLI call's
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        if args.trace:
            import layers

            out["trace"] = layers.traced(ops, args, ctx, out["ops_per_s"], cal)
        import selftest

        checker.errors += selftest.run()
        out["errors"] = checker.errors
        out["correct"] = not checker.errors
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
