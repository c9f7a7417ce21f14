"""Expression grammar and evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaxplus import SElem, ZERO, eval_expr
from smaxplus.exprs import MAX_DEPTH, ExprError


def test_worked_example():
    got = eval_expr("2 + (3^5 + 2^-1) * 1 + eps^2", mode="mpa")
    assert got == SElem.pos(16)
    assert got.exp == 16 and isinstance(got.exp, int)


def test_signed_literals():
    assert eval_expr("p:2 + m:2") == SElem.bal(2)
    assert eval_expr("m:1.5") == SElem.neg(1.5)
    assert eval_expr("b:0 * b:2") == SElem.bal(2)
    assert eval_expr("eps") == ZERO


def test_bare_number_is_plus_embedding():
    assert eval_expr("3") == SElem.pos(3)
    assert eval_expr("-1.5") == SElem.neg(1.5) or eval_expr("-1.5") == SElem.pos(-1.5)
    # the grammar reads a leading minus as part of the number literal
    assert eval_expr("-1.5") == SElem.pos(-1.5)


def test_precedence():
    # power binds tighter than product, product tighter than sum
    assert eval_expr("1 + 2 * 3") == SElem.pos(5)
    assert eval_expr("(1 + 2) * 3") == SElem.pos(5)
    assert eval_expr("2 * 3 ^ 2") == SElem.pos(8)
    assert eval_expr("(2 * 3) ^ 2") == SElem.pos(10)


def test_mode_violation():
    with pytest.raises(ExprError) as err:
        eval_expr("p:2 + 1", mode="mpa")
    assert "mpa" in str(err.value)
    assert err.value.pos == 0
    eval_expr("2 + 1", mode="mpa")  # bare literals stay legal


def test_parse_errors_carry_position():
    with pytest.raises(ExprError) as err:
        eval_expr("2 + $")
    assert err.value.pos == 4
    with pytest.raises(ExprError):
        eval_expr("2 +")
    with pytest.raises(ExprError):
        eval_expr("(2 + 1")
    with pytest.raises(ExprError):
        eval_expr("2 2")
    with pytest.raises(ExprError):
        eval_expr("2 ^ 1.5")
    with pytest.raises(ExprError):
        eval_expr("2 ^ eps")
    with pytest.raises(ExprError):
        eval_expr("b:1 ^ -1")


def test_unknown_mode():
    with pytest.raises(ValueError):
        eval_expr("1", mode="nope")


@pytest.mark.parametrize("depth", [300, 10000])
def test_deep_nesting_is_a_parse_error(depth):
    assert eval_expr("(" * 100 + "1" + ")" * 100) == SElem.pos(1)
    with pytest.raises(ExprError, match="nested too deeply"):
        eval_expr("(" * depth + "1" + ")" * depth)


def _eval_deeper(frames: int, source: str):
    """``eval_expr`` called ``frames`` stack frames deeper; the error or the
    value."""
    if frames:
        return _eval_deeper(frames - 1, source)
    try:
        return eval_expr(source)
    except ExprError as exc:
        return str(exc), exc.pos


def test_nesting_depth_error_is_a_function_of_the_input():
    # the first "(" nested deeper than MAX_DEPTH, at any caller depth
    deep = "(" * 1000 + "1" + ")" * 1000
    for frames in (0, 1, 2, 3, 50, 100):
        assert _eval_deeper(frames, deep) == (f"expression nested too deeply (at position {MAX_DEPTH})", MAX_DEPTH)
    inner = "p:1 + " + "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1)
    # the outer "(" is level 1, so the inner ones start at level 2
    assert _eval_deeper(0, "(" + inner + ")")[1] == len("(p:1 + ") + MAX_DEPTH - 1
    # MAX_DEPTH levels parse, also from a caller 100 frames down
    at_bound = "(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH
    assert _eval_deeper(0, at_bound) == _eval_deeper(100, at_bound) == SElem.pos(2)
    # many parentheses that do not nest deeply are not cut
    assert eval_expr(" + ".join(["((1))"] * (MAX_DEPTH + 1))) == SElem.pos(1)


@pytest.mark.parametrize(
    "source, message, pos",
    [
        # an error before the deep parenthesis is reported as it is
        ("1 2" + "(" * 300, "unexpected token '2'", 2),
        ("(" * 100 + "1 2" + "(" * 300, "missing ')'", 102),
        (")" + "(" * 300, "unexpected token ')'", 0),
        ("(" * 5 + "m:1" + "(" * 300, "missing ')'", 8),
        ("(" * 50 + "eps * $" + "(" * 300, "unexpected character '$'", 56),
    ],
)
def test_errors_before_the_depth_cut_keep_their_position(source, message, pos):
    assert _eval_deeper(0, source) == (f"{message} (at position {pos})", pos)


def test_huge_power_is_a_parse_error():
    with pytest.raises(ExprError) as err:
        eval_expr("2.5 ^ 1" + "0" * 400)
    assert err.value.pos == 6
    assert eval_expr("2 ^ 1" + "0" * 400) == SElem.pos(2 * 10**400)


@pytest.mark.parametrize(
    "source, pos",
    [("2 ^ 1" + "0" * 4400, 4), ("1" + "0" * 4400, 0), ("m:-" + "7" * 5000, 0)],
    ids=["exponent", "bare", "signed"],
)
def test_integer_literal_beyond_the_int_digit_limit(source, pos):
    # int() refuses more than sys.get_int_max_str_digits() digits; the
    # literal is still an integer, not a float
    with pytest.raises(ExprError, match="integer literal too long") as err:
        eval_expr(source)
    assert err.value.pos == pos
    assert eval_expr("2 ^ 1" + "0" * 4000) == SElem.pos(2 * 10**4000)


@pytest.mark.parametrize(
    "source, message, pos",
    [
        # a stray character is reported before any evaluation error
        ("eps^-1 $", "unexpected character '$'", 7),
        # an evaluation error is reported before a later syntax error
        ("eps^-1 2", "the zero element has no multiplicative inverse", 4),
        ("b:1 * 1e308 ^ 2 )", "not a valid magnitude exponent: inf", 14),
        # the depth cut met in operator position, inside open parentheses
        ("(" * MAX_DEPTH + "1 (", "expression nested too deeply", MAX_DEPTH + 2),
        ("(" * MAX_DEPTH + "1 ^ (", "expression nested too deeply", MAX_DEPTH + 4),
    ],
)
def test_error_precedence(source, message, pos):
    assert _eval_deeper(0, source) == (f"{message} (at position {pos})", pos)


@pytest.mark.parametrize(
    "source, pos",
    [("1e400", 0), ("p:1e400", 0), ("2 + m:1e400 * 1", 4), ("1e308 * 1e308", 6), ("(1e308)^2", 8),
     ("-1e400", 0), ("p:-1e400", 0), ("p:-1e400 + m:-1e400", 0), ("p:-1e308 * p:-1e308", 9),
     ("(-1e308) ^ 3", 11)],
)
def test_float_overflow_is_a_parse_error(source, pos):
    # a literal beyond the float range fails at the literal, a product at
    # its '*', a power at its exponent; a literal below minus the float
    # maximum reads as -inf, and so do a product or a power below it, which
    # is not the zero element either
    value = "-inf" if "-1e" in source else "inf"
    with pytest.raises(ExprError, match=rf"not a valid magnitude exponent: {value} \(") as err:
        eval_expr(source)
    assert err.value.pos == pos


_TOKENS = ["+", "*", "^", "(", ")", "eps", "p:1", "m:2.5", "b:-3", "1", "-2", "0.5", "1e308", "1e400", "-1e400",
           "1" + "0" * 30, "p:", "e", "$", "\t", "\n", "-1", "0", "3"]


@settings(deadline=None, max_examples=300)
@given(
    parts=st.lists(
        st.one_of(
            st.sampled_from(_TOKENS),
            # runs of "(" around the depth limit
            st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2).map(lambda n: "(" * n),
        ),
        max_size=25,
    ),
    spaces=st.lists(st.sampled_from(["", " "]), min_size=25, max_size=25),
    mode=st.sampled_from(["mpa", "smpa"]),
)
def test_any_token_string_gives_a_value_or_a_value_error(parts, spaces, mode):
    source = "".join(part + space for part, space in zip(parts, spaces))
    try:
        assert isinstance(eval_expr(source, mode), SElem)
    except ExprError as exc:
        assert 0 <= exc.pos <= len(source)
    except ValueError:
        pass
