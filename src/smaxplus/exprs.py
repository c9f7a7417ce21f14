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

The source is read in one ``findall`` scan: each match is the whitespace
before a token, then the token, a stray character or the end of the source.
A token's position is the running sum of the lengths of those groups, and a
stray character is reported at its position before any parsing.  The parser
is a recursive descent, one function per grammar rule, that pops the tokens
off a list ending in an END sentinel at ``len(source)``.

Parentheses nest at most ``MAX_DEPTH`` deep.  A source with more than that
many ``(`` is scanned for the first one nested deeper, and the token list
is cut there by an END sentinel at its position: an error the parser meets
before it is reported as it is, and reaching it is "expression nested too
deeply" at that position, whatever the caller's stack depth.  Other sources
pay one ``count``.  A ``RecursionError`` (a caller already deep in the
stack) is still reported as nesting too deep, at the token reached.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .algebra import SElem, Sign, ZERO, s_oplus, s_otimes, s_power


class ExprError(ValueError):
    """Parse or mode failure, carrying the offending source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_NUM = r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# one match per token: the whitespace before it, then the token, a stray
# character or the end of the source; the token kinds differ in their first
# character, so their order only matters for speed (operators are the most
# common)
_SCAN = re.compile(rf"(\s*)(?:([+*^()]|[pmb]:{_NUM}|eps\b|{_NUM})|(.)|\Z)")
_SIGNS = {"p": Sign.PLUS, "m": Sign.MINUS, "b": Sign.BALANCED}
# the parser recurses four frames per parenthesis level (_atom, _expr,
# _term, _power), so 200 levels take about 800 of the default recursion
# limit of 1000
MAX_DEPTH = 200
_NOT_NUM = "+*^()epmb"  # first characters of the tokens that are not numbers


def _tokenize(source: str) -> List[Tuple[str, int]]:
    """The (text, position) tokens of ``source`` in reverse order, so that
    the parser pops them, over the END sentinel ``("", len(source))``.
    Positions are the running sum of the whitespace and token lengths."""
    tokens = []
    pos = 0
    for space, text, stray in _SCAN.findall(source):
        pos += len(space)
        if stray:
            raise ExprError(f"unexpected character {stray!r}", pos)
        tokens.append((text, pos))
        if not text:
            break
        pos += len(text)
    tokens.reverse()
    return tokens


def _cut_too_deep(tokens: List[Tuple[str, int]]) -> Optional[int]:
    """Cut the reversed token list at its first ``(`` nested deeper than
    MAX_DEPTH, which becomes an END sentinel at the same position, and
    return that position; None (and no cut) when there is none.  The depth
    is the running count of ``(`` minus ``)``: until the parser meets an
    error it equals the number of parentheses the parser has open, so the
    parser reaches the cut inside open parentheses and fails there."""
    depth = 0
    for k in range(len(tokens) - 1, -1, -1):
        text = tokens[k][0]
        if text == "(":
            depth += 1
            if depth > MAX_DEPTH:
                pos = tokens[k][1]
                tokens[: k + 1] = [("", pos)]
                return pos
        elif text == ")":
            depth -= 1
    return None


def _parse_number(text: str, pos: int):
    if "." in text or "e" in text or "E" in text:
        return float(text)
    try:
        return int(text)
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits()
        raise ExprError(f"integer literal too long ({len(text.lstrip('-'))} digits)", pos) from None


def _expr(tokens: list, mode: str) -> SElem:
    value = _term(tokens, mode)
    while tokens[-1][0] == "+":
        tokens.pop()
        value = s_oplus(value, _term(tokens, mode))
    return value


def _term(tokens: list, mode: str) -> SElem:
    value = _power(tokens, mode)
    while tokens[-1][0] == "*":
        pos = tokens.pop()[1]
        factor = _power(tokens, mode)
        try:
            value = s_otimes(value, factor)
        except OverflowError as exc:
            # a huge integer exponent plus a float one
            raise ExprError(str(exc), pos) from None
    return value


def _power(tokens: list, mode: str) -> SElem:
    value = _atom(tokens, mode)
    while tokens[-1][0] == "^":
        tokens.pop()
        text, pos = tokens.pop()
        if not text:
            raise ExprError("missing exponent", pos)
        if text[0] in _NOT_NUM:
            raise ExprError("exponent must be an integer literal", pos)
        k = _parse_number(text, pos)
        if not isinstance(k, int):
            raise ExprError("exponent must be an integer literal", pos)
        try:
            value = s_power(value, k)
        except (ValueError, OverflowError) as exc:
            # OverflowError: a huge integer k times a float exponent
            raise ExprError(str(exc), pos) from None
    return value


def _atom(tokens: list, mode: str) -> SElem:
    text, pos = tokens.pop()
    if text == "(":
        value = _expr(tokens, mode)
        closing, pos = tokens.pop()
        if closing != ")":
            raise ExprError("missing ')'", pos)
        return value
    if text == "eps":
        return ZERO
    if not text:
        raise ExprError("unexpected end of input", pos)
    head = text[0]
    if head in _SIGNS:
        if mode == "mpa":
            raise ExprError("signed literal in mpa mode", pos)
        return SElem(_SIGNS[head], _parse_number(text[2:], pos))
    if head in _NOT_NUM:
        raise ExprError(f"unexpected token {text!r}", pos)
    return SElem(Sign.PLUS, _parse_number(text, pos))


def eval_expr(source: str, mode: str = "smpa") -> SElem:
    """Evaluate an expression to a signed element.

    ``mode='mpa'`` restricts literals to the plain semiring (bare numbers and
    ``eps``); the result is then the plus-signed embedding of the max-plus
    value.  ``mode='smpa'`` admits all sign tags.
    """
    if mode not in ("mpa", "smpa"):
        raise ValueError(f"unknown mode {mode!r}")
    tokens = _tokenize(source)
    cut = _cut_too_deep(tokens) if source.count("(") > MAX_DEPTH else None
    try:
        value = _expr(tokens, mode)
    except RecursionError:
        pos = tokens[-1][1] if tokens else len(source)
        raise ExprError("expression nested too deeply", pos) from None
    except ExprError as exc:
        if exc.pos == cut:  # only the sentinel sits at the cut's position
            raise ExprError("expression nested too deeply", cut) from None
        raise
    text, pos = tokens[-1]
    if text:
        raise ExprError(f"unexpected token {text!r}", pos)
    return value
