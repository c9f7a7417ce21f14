"""Regenerate ``eval_golden.json``: seeded expressions with the
``to_json()`` of their value, and hand-picked invalid and edge inputs with
the exception each raises.

Two groups of cases:

* ``seeded``: expressions with 1, 2, 8 and 20 leaves, in both modes (in
  ``mpa`` mode with bare numbers and ``eps`` only), mixing integer,
  half-integer, float and exponent-notation literals, ``eps``, signed
  literals, parentheses, integer powers (negative and zero ones too) and
  space, tab, newline or no whitespace between tokens.  Each (mode, leaf
  count) group holds 75 expressions with a value; a seeded expression that
  fails on the way (a negative power of ``eps``, say) is kept too, with its
  error like an edge case.
* ``edge``: malformed input and inputs at the parser's limits, each with
  its exception class, message and ``pos``.  For nesting too deep to
  parse, ``pos`` is stored as null and only the class and message prefix
  are pinned: when the corpus was captured the parser reported where it
  was when the recursion limit hit, which depended on the caller's stack
  depth.  It is now the first parenthesis beyond ``exprs.MAX_DEPTH``,
  which ``tests/test_exprs.py`` pins.

The stored results were captured from the per-token ``re.match`` tokenizer
and the ``_Parser`` class, and the recursive descent and then the one-loop
evaluator that replaced them reproduced every entry.  One entry has been
regenerated since, on purpose: ``1e308 * 1e308`` raised a bare
``ValueError`` with no position, and now raises ``ExprError`` at the
``*`` (position 6), as an overflowing power already did at its exponent.
Regenerate only when a change of output is intended, and say why.

``outcome`` computes a stored case's ``result`` or ``error`` from its stored
source and mode.  The build stores what it returns, and
``tests/test_eval_golden.py`` compares it with the file.

    PYTHONPATH=src python tests/data/make_eval_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from smaxplus.exprs import ExprError, eval_expr

OUT = Path(__file__).with_name("eval_golden.json")
SEED = 20170913
LEAF_COUNTS = (1, 2, 8, 20)
PER_GROUP = 75  # valid cases per (mode, leaf count): 4 x 2 x 75 = 600
DEPTH_ERROR = "expression nested too deeply"

EDGE_SOURCES = [
    # malformed input
    ("2 + $", "smpa"),
    ("2 +", "smpa"),
    ("2 ^", "smpa"),
    ("(2 + 1", "smpa"),
    ("(2 + 1 ", "smpa"),
    ("2 + 1)", "smpa"),
    ("()", "smpa"),
    ("2 2", "smpa"),
    ("+ 1", "smpa"),
    ("1 * * 2", "smpa"),
    ("2 ^ 1.5", "smpa"),
    ("2 ^ eps", "smpa"),
    ("2 ^ (1)", "smpa"),
    ("2 ^ p:1", "smpa"),
    ("2 ^ +", "smpa"),
    ("epsilon", "smpa"),
    ("eps2", "smpa"),
    ("p:x", "smpa"),
    ("q:1", "smpa"),
    ("1 - 2", "smpa"),
    ("1 -2", "smpa"),
    ("1 + 2 $ + (", "smpa"),
    ("1 ++ 2", "smpa"),
    ("1 + 2", "smpa"),
    ("1 + é", "smpa"),
    # modes and inverses
    ("p:2 + 1", "mpa"),
    ("1 + m:2", "mpa"),
    ("(1 * b:0)", "mpa"),
    ("eps ^ -1", "smpa"),
    ("eps ^ -1", "mpa"),
    ("b:2 ^ -1", "smpa"),
    ("eps ^ 0", "smpa"),
    ("b:2 ^ 0", "smpa"),
    ("m:3 ^ -3", "smpa"),
    ("2", "nope"),
    # limits
    ("(" * 1000 + "1" + ")" * 1000, "smpa"),
    ("(" * 100 + "1" + ")" * 100, "smpa"),
    ("1" + "0" * 4300, "smpa"),
    ("1" + "0" * 4299, "smpa"),
    ("m:-" + "7" * 5000, "smpa"),
    ("2 ^ 1" + "0" * 4400, "smpa"),
    ("2.5 ^ 1" + "0" * 400, "smpa"),
    ("2 ^ 1" + "0" * 400, "smpa"),
    ("1e308 * 1e308", "smpa"),
    # whitespace and empty input
    ("", "smpa"),
    ("   ", "smpa"),
    ("\t1\t+\n2\n", "smpa"),
    ("\n(\tp:1 *\tm:2 )\r\n^ 3", "smpa"),
    ("1\x0c+\x0b2", "mpa"),
    ("  eps  ", "mpa"),
]


def _number(rng: random.Random) -> str:
    style = rng.randrange(7)
    if style == 0:
        return str(rng.randint(-5, 5))
    if style == 1:
        return str(rng.randint(-12, 12) / 2)
    if style == 2:
        return repr(round(rng.uniform(-4.0, 4.0), rng.randint(1, 6)))
    if style == 3:
        return f"{rng.randint(1, 9)}e{rng.randint(-2, 1)}"
    if style == 4:
        return rng.choice([".5", "-.25", "2.", "-3.", "1E1", "0", "-0", "0.0"])
    if style == 5:
        return repr(rng.uniform(-3.0, 3.0))
    return str(rng.randint(-40, 40))


def _leaf(rng: random.Random, mode: str) -> str:
    r = rng.random()
    if r < 0.08:
        return "eps"
    if mode == "smpa" and r < 0.55:
        return rng.choice("pmb") + ":" + _number(rng)
    return _number(rng)


def _ws(rng: random.Random) -> str:
    return rng.choice(["", "", " ", " ", " ", "  ", "\t", "\n"])


def _powers(rng: random.Random, text: str) -> str:
    while rng.random() < 0.2:
        k = rng.choice([0, 1, 2, 3, -1, -2, 5])
        text = f"{text}{_ws(rng)}^{_ws(rng)}{k}"
    return text


def _expr(rng: random.Random, n: int, mode: str) -> str:
    if n == 1:
        return _powers(rng, _leaf(rng, mode))
    k = rng.randint(1, n - 1)
    op = rng.choice("+*")
    text = f"{_expr(rng, k, mode)}{_ws(rng)}{op}{_ws(rng)}{_expr(rng, n - k, mode)}"
    if rng.random() < 0.4:
        text = _powers(rng, f"({_ws(rng)}{text}{_ws(rng)})")
    return text


def outcome(entry) -> dict:
    """The value's JSON, or the exception's class, message and position;
    a nesting-depth error keeps only its message (see above)."""
    try:
        return {"result": eval_expr(entry["source"], entry["mode"]).to_json()}
    except ValueError as exc:
        error = {"class": type(exc).__name__, "message": str(exc), "pos": getattr(exc, "pos", None)}
        if error["message"] == f"{DEPTH_ERROR} (at position {error['pos']})":
            error["message"], error["pos"] = DEPTH_ERROR, None
        return {"error": error}


def main() -> None:
    rng = random.Random(SEED)
    entries = []
    for mode in ("mpa", "smpa"):
        for n in LEAF_COUNTS:
            valid = 0
            while valid < PER_GROUP:
                entry = {"group": "seeded", "leaves": n, "mode": mode, "source": _expr(rng, n, mode)}
                entry.update(outcome(entry))
                valid += "result" in entry
                entries.append(entry)
    for source, mode in EDGE_SOURCES:
        entry = {"group": "edge", "mode": mode, "source": source}
        entries.append({**entry, **outcome(entry)})
    OUT.write_text(json.dumps(entries, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
