"""Fixed reference workloads that measure how fast this machine runs right
now, and the calibration of every reported time against them.

Wall times on a shared machine drift by up to 2x between seconds; a timing
divided by a reference's time, measured right around it, drifts far less.
Work inside this process is set against a pure-Python loop of the kind of
work smaxplus does (small frozen objects, tuples, dict lookups, float math,
calls).  Whole processes (set-up, CLI calls) are set against a fresh
interpreter that imports numpy: loading a large package with compiled
extensions is what their time mostly goes to, and numpy is a dependency,
not part of the program.  Neither reference touches smaxplus, so no change
to the program can move them.

Reported times are in reference-seconds: a wall time t taken while the
reference ran in r seconds is reported as t * nominal / r, the time the
same work takes on a machine where the reference runs in its nominal time
(about this 2-vCPU machine's figure at a quiet moment).
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

REF_S = 0.002  # nominal time of the reference loop
REF_PROCESS_S = 0.25  # nominal time of the reference process
REF_PROCESS = [sys.executable, "-c", "import numpy"]


@dataclass(frozen=True)
class _Elem:
    tag: str
    exp: float

    def __post_init__(self):
        if not isinstance(self.exp, float):
            raise TypeError("exp must be a float")


def _work(n: int) -> float:
    tags = ("+", "-", "o")
    index = {}
    acc = 0.0
    prev = _Elem("+", 0.0)
    for i in range(n):
        e = _Elem(tags[i % 3], (i % 17) * 0.25)
        key = (e.tag, i % 11)
        index[key] = index.get(key, 0.0) + math.exp(-e.exp)
        if e.tag == prev.tag or e.exp > prev.exp:
            acc += abs(e.exp - prev.exp)
        prev = e
    return acc + len(index)


def reference_seconds(reps: int = 2, n: int = 1500) -> list:
    """Wall times of ``reps`` runs of the reference loop."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _work(n)
        out.append(time.perf_counter() - t0)
    return out


def reference_process_seconds(env) -> list:
    """Wall time of one run of the reference process."""
    t0 = time.perf_counter()
    subprocess.run(REF_PROCESS, env=env, capture_output=True, timeout=60, check=True)
    return [time.perf_counter() - t0]


class LoopCalibration:
    """For work in this process: the reference loop, twice per sample."""

    def sample(self) -> list:
        return reference_seconds()

    def factor(self, samples) -> float:
        """Multiply a wall time taken between ``samples`` by this to get
        reference-seconds."""
        return REF_S / statistics.median(samples)


class ProcessCalibration:
    """For whole processes: one run of the reference process per sample."""

    def __init__(self, env):
        self.env = env

    def sample(self) -> list:
        return reference_process_seconds(self.env)

    def factor(self, samples) -> float:
        return REF_PROCESS_S / statistics.median(samples)
