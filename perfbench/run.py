"""The smaxplus benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ./src.
Workloads: cli-cold, segment-sweep, projection-mix, max-box (see README.md).

Set-up is timed from outside: this process starts the worker several times
with ``--setup-only`` and once for the measured run, and takes the median
of the times from spawning a worker to its first timed operation.  Every
time reported is calibrated against a reference (see calib.py).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it, and
``perfbench/out/<workload>-seed<N>-trace<T>.json``, record the machine, the
versions and the raw figures of the run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import ProcessCalibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "segment-sweep", "projection-mix", "max-box")
SETUP_PROBES = 4  # plus the measured worker's own set-up: a median of 5
WORKER_TIMEOUT_S = 150


class RunError(Exception):
    pass


def cpu_steal_s() -> float:
    """Steal time of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_hash() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown (not a git checkout)"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"


def version_of(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def spawn_worker(args, env, extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    cal = ProcessCalibration(env)
    before = cal.sample()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["raw_setup_s"] = out["ready"] - t0
    out["setup_s"] = out["raw_setup_s"] * cal.factor(before + out["ref_after"])
    return out


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ops_per_s"):
        return "1/s"
    if "_us" in name:
        return "us"
    if "_ms" in name:
        return "ms"
    return "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "smaxplus" / "__init__.py").is_file():
        print(f"no smaxplus package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED="0")
    info = {
        "git": git_hash(),
        "python": platform.python_version(),
        "numpy": version_of("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_steal_s_before": cpu_steal_s(),
        "loadavg_before": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        probes = [spawn_worker(args, env, ["--setup-only"]) for _ in range(SETUP_PROBES)]
        res = spawn_worker(args, env, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 1
    setups = [pr["setup_s"] for pr in probes] + [res["setup_s"]]
    info["raw_setup_s"] = statistics.median([pr["raw_setup_s"] for pr in probes] + [res["raw_setup_s"]])
    info["raw_ops_per_s"] = res["raw_ops_per_s"]
    info["cpu_steal_s_after"] = cpu_steal_s()
    info["loadavg_after"] = os.getloadavg()[0]

    if args.trace:
        values = res["trace"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["ops_per_s"],
            "latency_ms.p50": res["latency_ms_p50"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = {"setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": v, "unit": units.get(name) or unit_of(name)}
               for name, v in values.items()}
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    record = {"run": info, "setup_samples_s": setups, "worker": res, "result": result}
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for err in res["errors"][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
