"""Compare the answers of this checkout with those of another revision, on
seeded cases, one suite at a time.

    python tests/data/differential.py --base REV --suite eval [--cases 200000] [--seed 1]

It exports ``src`` of the base revision (``_revision.exported``), runs the
suite's cases through both trees in two child processes, each importing the
package from its own tree, and compares their records line by line.  It
prints the number of cases whose records differ, with the first few, and
exits 1 when any differ or a child fails.  pytest does not collect it.

A suite is an entry of ``SUITES``: a function ``cases(count, seed)`` that
yields the cases, and a function ``record(case)`` that returns what one tree
makes of one case as a JSON-able dict.  Both run in each child, from this
checkout's copy of this file, so both trees read the same cases; only the
package differs.  A new suite (projection, ray sets, segments) adds one
entry.

Suites:

* ``eval``: seeded sources, each evaluated in both modes.  Half are
  well-formed expressions of 1 to 12 leaves, whose literals are small
  ints, halves, floats, exponent notation, ``eps``, signed literals, floats
  near the float maximum and the smallest subnormal, literals beyond the
  float range in either direction and long integers, with integer powers
  (zero, negative and long ones too) and assorted whitespace.  The other
  half are strings of up to 25 tokens and stray characters joined with
  or without a space.  The record holds, per mode, the value's
  ``to_json``, ``repr`` and exponent type (an int exponent too long for
  ``str`` as its ``hex``), or the error's class, message and ``pos``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from _revision import ROOT, exported

# --- eval -------------------------------------------------------------------------

MODES = ("mpa", "smpa")
_WIDE = ["1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308", "9e307", "-9e307",
         "5e-324", "-5e-324", "2.5e-308", "1e400", "-1e400", "1" + "0" * 30, "-" + "9" * 400]
_SMALL = ["0", "-0", "0.0", "-0.0", ".5", "-.25", "2.", "1E1", "3", "-2", "1.5", "-2.5"]
_POWERS = ["0", "1", "2", "3", "5", "-1", "-2", "-3", "1" + "0" * 20, "1" + "0" * 400]
_TOKENS = ["+", "*", "^", "(", ")", "eps", "p:1", "m:2.5", "b:-3", "1", "-2", "0.5", "1e308", "-1e308",
           "p:-1e308", "m:1e308", "1e400", "-1e400", "1" + "0" * 30, "p:", "e", "$", "\t", "\n", "-1", "0",
           "3", "^ 3", "^ -1"]


def _ws(rng) -> str:
    return rng.choice(["", "", " ", " ", " ", "  ", "\t", "\n"])


def _literal(rng) -> str:
    r = rng.random()
    if r < 0.08:
        return "eps"
    if r < 0.3:
        number = rng.choice(_WIDE)
    elif r < 0.5:
        number = rng.choice(_SMALL)
    elif r < 0.75:
        number = str(rng.randint(-12, 12) / 2)
    else:
        number = repr(rng.uniform(-4.0, 4.0))
    return number if rng.random() < 0.5 else rng.choice("pmb") + ":" + number


def _powered(rng, text: str) -> str:
    while rng.random() < 0.25:
        text = f"{text}{_ws(rng)}^{_ws(rng)}{rng.choice(_POWERS)}"
    return text


def _expression(rng, leaves: int) -> str:
    if leaves == 1:
        return _powered(rng, _literal(rng))
    k = rng.randint(1, leaves - 1)
    text = f"{_expression(rng, k)}{_ws(rng)}{rng.choice('+*')}{_ws(rng)}{_expression(rng, leaves - k)}"
    if rng.random() < 0.4:
        text = _powered(rng, f"({_ws(rng)}{text}{_ws(rng)})")
    return text


def eval_cases(count: int, seed: int):
    rng = random.Random(seed)
    for k in range(count):
        if k % 2:
            yield "".join(rng.choice(_TOKENS) + rng.choice(("", " ")) for _ in range(rng.randint(0, 25)))
        else:
            yield _expression(rng, rng.randint(1, 12))


def eval_record(source: str) -> dict:
    from smaxplus.exprs import eval_expr

    out = {"source": source}
    for mode in MODES:
        try:
            value = eval_expr(source, mode)
        except ValueError as exc:
            out[mode] = {"class": type(exc).__name__, "message": str(exc), "pos": getattr(exc, "pos", None)}
            continue
        exp = value.exp
        try:
            out[mode] = {"json": value.to_json(), "repr": repr(value), "type": type(exp).__name__}
        except ValueError:  # an int exponent with more digits than str() allows
            out[mode] = {"sign": value.sign._value_, "hex": hex(exp), "type": type(exp).__name__}
    return out


SUITES = {"eval": (eval_cases, eval_record)}
SHOWN = 3  # differing cases printed in full

# --- driver ------------------------------------------------------------------------


def emit(suite: str, count: int, seed: int) -> None:
    cases, record = SUITES[suite]
    for case in cases(count, seed):
        sys.stdout.write(json.dumps(record(case), sort_keys=True) + "\n")


def _child(src: Path, suite: str, count: int, seed: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(src)}
    args = [sys.executable, __file__, "--emit", "--suite", suite, "--cases", str(count), "--seed", str(seed)]
    return subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True)


def _shorten(text: str, limit: int = 300) -> str:
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def compare(base: str, suite: str, count: int, seed: int) -> int:
    with exported(base, "src") as tree:
        children = [_child(tree / "src", suite, count, seed), _child(ROOT / "src", suite, count, seed)]
        differ = 0
        for k, (old, new) in enumerate(zip(*(child.stdout for child in children))):
            if old == new:
                continue
            differ += 1
            if differ <= SHOWN:
                print(f"case {k} differs:\n  base: {_shorten(old.rstrip())}\n  this: {_shorten(new.rstrip())}")
        # a child that stopped early ends the loop; closing the pipes ends the other
        for child in children:
            child.stdout.close()
        codes = [child.wait() for child in children]
    if codes != [0, 0]:
        print(f"a child process failed: exit codes {codes} (base, this checkout)")
        return 1
    print(f"{differ} of {count} {suite} cases differ between {base} and this checkout (seed {seed})")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="the revision to compare against")
    parser.add_argument("--suite", required=True, choices=sorted(SUITES))
    parser.add_argument("--cases", type=int, default=200000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit(args.suite, args.cases, args.seed)
    else:
        sys.exit(compare(args.base, args.suite, args.cases, args.seed))
