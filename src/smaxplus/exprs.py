"""Expression evaluation for max-plus arithmetic.

Grammar (ASCII, whitespace insensitive)::

    expr    := term ('+' term)*
    term    := power ('*' power)*
    power   := atom ('^' INT)*
    atom    := literal | '(' expr ')'
    literal := 'eps' | 'p:' NUM | 'm:' NUM | 'b:' NUM | NUM

``+`` is tropical addition (max), ``*`` tropical multiplication (plus) and
``^`` the tropical power; power binds tighter than ``*``, which binds tighter
than ``+``.  A bare number denotes the plus-signed element (the embedding of
the plain max-plus semiring), ``p:``/``m:``/``b:`` force a sign tag and
``eps`` is the zero element.  In ``mpa`` mode only bare numbers and ``eps``
are admitted.

The source is read in one ``findall`` scan that yields the token texts
only; a stray character matches as an empty text, so one ``"" in texts``
finds it, and it is reported before anything else.  One loop then
evaluates as it reads.  It keeps the running sum, the running product and
the index of the pending ``*`` of the innermost open parenthesis, and a
stack of those of the enclosing ones.  It applies each power at the
exponent's token, each product when the factor's powers end and each sum
when the term ends, the tokens where a recursive descent over the grammar
applies them, so an evaluation error comes before any later syntax error.
Errors are located by token index; a position is taken only for the error
raised, by a ``finditer`` over the same pattern.

The loop combines (sign, exp) pairs, the fields of an ``SElem``, through the
pair forms of the signed operations in ``algebra`` (``_se_oplus``,
``_se_otimes``, ``_se_power``), and builds one ``SElem``, from the final
pair.  The pair forms of a product and a power return the raw exponent,
and the loop normalizes it: a float exponent that leaves the float range
in either direction is refused, at the literal, the ``*`` or the power's
exponent, with "not a valid magnitude exponent: inf" (or ``-inf``).  So an
underflow such as ``p:-1e308 * p:-1e308`` is an error, as the overflow
``1e308 * 1e308`` is, and never the zero element.

Parentheses nest at most ``MAX_DEPTH`` deep.  The loop does not recurse, so
this is a limit on the input, not a stack budget.  It stays so that the
accepted language and its errors do not depend on how the evaluator is
written (a recursive one needs the bound), and it bounds the stack of open
parentheses.  A source with more than that many ``(`` is scanned for the
first one nested deeper, and the token list is cut there: an error the
loop meets before it is reported as it is, and reaching it is "expression
nested too deeply" at that position.  Other sources pay one ``count``.
"""

from __future__ import annotations

import re
from itertools import accumulate
from math import isfinite
from typing import List, Optional

from .algebra import BALANCED, EPS, MINUS, PLUS, SElem, _se_oplus, _se_otimes, _se_power


class ExprError(ValueError):
    """Parse or mode failure, carrying the offending source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Fail(Exception):
    """A failure at a token index, which eval_expr turns into an ExprError
    at that token's position."""


_NUM = r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# one match per token or stray character, after its whitespace; only a token
# fills the group, so a stray character yields an empty text.  The token
# kinds differ in their first character, so their order only matters for
# speed (operators are the most common).
_SCAN = re.compile(rf"\s*(?:([+*^()]|[pmb]:{_NUM}|eps\b|{_NUM})|\S)")
_SIGNS = {"p": PLUS, "m": MINUS, "b": BALANCED}
_ZERO = (BALANCED, EPS)
_NOT_FINITE = "not a valid magnitude exponent: {!r}"
MAX_DEPTH = 200
_NOT_NUM = "+*^()epmb"  # first characters of the tokens that are not numbers


def _position(source: str, k: int) -> int:
    """The position of token ``k`` (a stray character counts as one), or
    ``len(source)`` for the end of input past the last."""
    for j, match in enumerate(_SCAN.finditer(source)):
        if j == k:
            return match.end() - len(match[1] or " ")
    return len(source)


def _cut_too_deep(texts: List[str]) -> Optional[int]:
    """Cut the token texts before their first ``(`` nested deeper than
    MAX_DEPTH and return its index; None (and no cut) when there is none.
    The depth is the running count of ``(`` minus ``)``: until the loop
    meets an error it equals the number of parentheses the loop has open, so
    the loop reaches the cut inside open parentheses and fails there."""
    for k, depth in enumerate(accumulate([(text == "(") - (text == ")") for text in texts])):
        if depth > MAX_DEPTH:  # first reached at a "(", the only step up
            del texts[k:]
            return k
    return None


def _integer(text: str, k: int) -> int:
    try:
        return int(text)
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits()
        raise _Fail(f"integer literal too long ({len(text.lstrip('-'))} digits)", k) from None


def _exponent(text: str, k: int):
    """A literal's magnitude exponent.  ``float`` rounds a literal beyond
    the float range to +-inf; it is refused at the literal, since ``SElem``
    would refuse inf and read -inf as the zero element."""
    if "." in text or "e" in text or "E" in text:
        value = float(text)
        if isfinite(value):
            return value
        raise _Fail(_NOT_FINITE.format(value), k)
    return _integer(text, k)


def _evaluate(texts: List[str], mode: str) -> SElem:
    """The value of the token texts, which end in the END text ``""``.
    Every pair stays normalized: a literal's exponent is finite,
    ``_se_oplus`` returns an operand or a balanced tie, and a product's or
    power's raw exponent is checked where it is made."""
    stack = []  # (total, product, star) of each enclosing parenthesis
    total = product = None  # the running sum and product; None before any
    star = i = 0  # the index of the pending '*', and of the token read
    while True:
        text = texts[i]
        while text == "(":
            stack.append((total, product, star))
            total = product = None
            i += 1
            text = texts[i]
        if text == "eps":
            value = _ZERO
        elif not text:
            raise _Fail("unexpected end of input", i)
        elif text[0] in _SIGNS:
            if mode == "mpa":
                raise _Fail("signed literal in mpa mode", i)
            value = (_SIGNS[text[0]], _exponent(text[2:], i))
        elif text[0] in _NOT_NUM:
            raise _Fail(f"unexpected token {text!r}", i)
        else:
            value = (PLUS, _exponent(text, i))
        i += 1
        text = texts[i]
        while True:  # after an operand: its powers, then what ends it
            while text == "^":
                i += 1
                text = texts[i]
                if not text:
                    raise _Fail("missing exponent", i)
                if text[0] in _NOT_NUM or "." in text or "e" in text or "E" in text:
                    raise _Fail("exponent must be an integer literal", i)
                k = _integer(text, i)
                try:
                    value = _se_power(value, k)
                except (ValueError, OverflowError) as exc:
                    # ValueError: a negative power of zero or of a balanced
                    # element; OverflowError: a huge integer k times a float
                    raise _Fail(str(exc), i) from None
                exp = value[1]
                if exp.__class__ is float and not isfinite(exp):
                    raise _Fail(_NOT_FINITE.format(exp), i)
                i += 1
                text = texts[i]
            if product is not None:
                try:
                    value = _se_otimes(product, value)
                except OverflowError as exc:
                    # a huge integer exponent plus a float one
                    raise _Fail(str(exc), star) from None
                exp = value[1]
                if exp.__class__ is float and not isfinite(exp):
                    raise _Fail(_NOT_FINITE.format(exp), star)
            if text == "*":
                product, star = value, i
                break
            product = None
            total = value if total is None else _se_oplus(total, value)
            if text == "+":
                break
            if text == ")" and stack:
                value = total
                total, product, star = stack.pop()
                i += 1
                text = texts[i]
            elif stack:
                raise _Fail("missing ')'", i)
            elif text:
                raise _Fail(f"unexpected token {text!r}", i)
            else:
                return SElem(*total)
        i += 1


def eval_expr(source: str, mode: str = "smpa") -> SElem:
    """Evaluate an expression to a signed element.

    ``mode='mpa'`` restricts literals to the plain semiring (bare numbers and
    ``eps``); the result is then the plus-signed embedding of the max-plus
    value.  ``mode='smpa'`` admits all sign tags.
    """
    if mode not in ("mpa", "smpa"):
        raise ValueError(f"unknown mode {mode!r}")
    texts = _SCAN.findall(source)
    if "" in texts:
        pos = _position(source, texts.index(""))
        raise ExprError(f"unexpected character {source[pos]!r}", pos)
    cut = _cut_too_deep(texts) if source.count("(") > MAX_DEPTH else None
    texts.append("")
    try:
        return _evaluate(texts, mode)
    except _Fail as exc:
        message, k = exc.args
        if k == cut:  # only the END text sits at the cut's index
            message = "expression nested too deeply"
        raise ExprError(message, _position(source, k)) from None
