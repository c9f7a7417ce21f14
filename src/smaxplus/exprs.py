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
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from .algebra import SElem, Sign, ZERO, s_oplus, s_otimes, s_power


class ExprError(ValueError):
    """Parse or mode failure, carrying the offending source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Token(NamedTuple):
    kind: str  # NUM, SIGNED, EPS, OP, LPAREN, RPAREN
    text: str
    pos: int


_NUM = r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"""
    (?P<WS>\s+)
  | (?P<SIGNED>[pmb]:{_NUM})
  | (?P<EPS>eps\b)
  | (?P<NUM>{_NUM})
  | (?P<OP>[+*^])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


def _parse_number(text: str, pos: int):
    if "." in text or "e" in text or "E" in text:
        return float(text)
    try:
        return int(text)
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits()
        raise ExprError(f"integer literal too long ({len(text.lstrip('-'))} digits)", pos) from None


class _Parser:
    def __init__(self, tokens: List[_Token], mode: str, source_len: int):
        self.tokens = tokens
        self.mode = mode
        self.i = 0
        self.source_len = source_len

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"unexpected token {tok.text!r}", tok.pos)

    def expr(self) -> SElem:
        value = self.term()
        while (tok := self.peek()) is not None and tok.kind == "OP" and tok.text == "+":
            self.next()
            value = s_oplus(value, self.term())
        return value

    def term(self) -> SElem:
        value = self.power()
        while (tok := self.peek()) is not None and tok.kind == "OP" and tok.text == "*":
            self.next()
            value = s_otimes(value, self.power())
        return value

    def power(self) -> SElem:
        value = self.atom()
        while (tok := self.peek()) is not None and tok.kind == "OP" and tok.text == "^":
            self.next()
            etok = self.next()
            if etok is None:
                raise ExprError("missing exponent", self.source_len)
            if etok.kind != "NUM":
                raise ExprError("exponent must be an integer literal", etok.pos)
            k = _parse_number(etok.text, etok.pos)
            if not isinstance(k, int):
                raise ExprError("exponent must be an integer literal", etok.pos)
            try:
                value = s_power(value, k)
            except (ValueError, OverflowError) as exc:
                # OverflowError: a huge integer k times a float exponent
                raise ExprError(str(exc), etok.pos) from None
        return value

    def atom(self) -> SElem:
        tok = self.next()
        if tok is None:
            raise ExprError("unexpected end of input", self.source_len)
        if tok.kind == "LPAREN":
            value = self.expr()
            closing = self.next()
            if closing is None or closing.kind != "RPAREN":
                pos = closing.pos if closing is not None else self.source_len
                raise ExprError("missing ')'", pos)
            return value
        if tok.kind == "EPS":
            return ZERO
        if tok.kind == "NUM":
            return SElem(Sign.PLUS, _parse_number(tok.text, tok.pos))
        if tok.kind == "SIGNED":
            if self.mode == "mpa":
                raise ExprError("signed literal in mpa mode", tok.pos)
            sign = {"p": Sign.PLUS, "m": Sign.MINUS, "b": Sign.BALANCED}[tok.text[0]]
            return SElem(sign, _parse_number(tok.text[2:], tok.pos))
        raise ExprError(f"unexpected token {tok.text!r}", tok.pos)


def eval_expr(source: str, mode: str = "smpa") -> SElem:
    """Evaluate an expression to a signed element.

    ``mode='mpa'`` restricts literals to the plain semiring (bare numbers and
    ``eps``); the result is then the plus-signed embedding of the max-plus
    value.  ``mode='smpa'`` admits all sign tags.
    """
    if mode not in ("mpa", "smpa"):
        raise ValueError(f"unknown mode {mode!r}")
    parser = _Parser(_tokenize(source), mode, len(source))
    try:
        value = parser.expr()
    except RecursionError:
        tok = parser.peek()
        raise ExprError("expression nested too deeply", tok.pos if tok else len(source)) from None
    parser.expect_end()
    return value
