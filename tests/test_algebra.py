"""Scalar, pair and signed-element arithmetic."""

import copy
import itertools
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaxplus import (
    EPS,
    Pair,
    SElem,
    Sign,
    UNIT,
    ZERO,
    balance_rel,
    classify,
    equiv_rel,
    ext_oplus,
    ext_otimes,
    ext_power,
    lift,
    pair_balance,
    pair_minus,
    pair_oplus,
    pair_otimes,
    parts,
    s_abs,
    s_minus,
    s_oplus,
    s_otimes,
    s_power,
    scalar_mul,
)
from smaxplus.algebra import _se_otimes, _se_power
from smaxplus.exprs import ExprError, eval_expr

# rational magnitude grid plus the bottom element
GRID_EXPS = [-2, -1, -0.5, 0, 0.5, 1, 2]
GRID_SCALARS = [EPS] + GRID_EXPS
GRID_PAIRS = [Pair(a, b) for a in GRID_SCALARS for b in GRID_SCALARS]
GRID_ELEMS = [ZERO] + [SElem(s, e) for s in Sign for e in GRID_EXPS]

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
elems = st.builds(SElem, st.sampled_from(list(Sign)), finite) | st.just(ZERO)
# dyadic magnitudes keep float addition exact, so the semiring laws hold
# with exact equality even under randomization
dyadic = st.integers(min_value=-3200, max_value=3200).map(lambda k: k / 64)
dyadic_elems = st.builds(SElem, st.sampled_from(list(Sign)), dyadic) | st.just(ZERO)


class TestScalars:
    def test_oplus(self):
        assert ext_oplus(2, 16) == 16
        assert ext_oplus(EPS, 5) == 5
        assert ext_oplus(-1, -1) == -1
        assert ext_oplus(EPS, EPS) is EPS

    def test_otimes(self):
        assert ext_otimes(15, 1) == 16
        assert ext_otimes(EPS, 7) is EPS
        assert ext_otimes(0, 3) == 3
        assert ext_otimes(EPS, EPS) is EPS

    def test_power(self):
        assert ext_power(3, 5) == 15
        assert ext_power(2, -1) == -2
        assert ext_power(EPS, 2) is EPS
        assert ext_power(EPS, 0) == 0
        assert ext_power(5, 0) == 0
        with pytest.raises(ValueError):
            ext_power(EPS, -1)
        with pytest.raises(TypeError):
            ext_power(3, 1.5)

    def test_eps_ordering(self):
        assert EPS < 3
        assert EPS < -1e300
        assert not (EPS < EPS)
        assert 3 > EPS
        assert max(EPS, -7) == -7
        assert EPS <= 0 and EPS <= EPS
        for compare in (lambda: EPS < "a", lambda: EPS > "a", lambda: EPS <= "a"):
            with pytest.raises(TypeError):
                compare()


class TestPairs:
    def test_oplus(self):
        assert pair_oplus(Pair(1, EPS), Pair(EPS, 2)) == Pair(1, 2)
        assert pair_oplus(Pair(EPS, EPS), Pair(3, 0)) == Pair(3, 0)
        assert pair_oplus(Pair(2, 5), Pair(4, 1)) == Pair(4, 5)

    def test_otimes(self):
        assert pair_otimes(Pair(0, EPS), Pair(4, -1)) == Pair(4, -1)  # unit
        assert pair_otimes(Pair(EPS, EPS), Pair(4, -1)) == Pair(EPS, EPS)  # absorbing
        assert pair_otimes(Pair(1, 0), Pair(2, EPS)) == Pair(3, 2)

    def test_minus(self):
        assert pair_minus(Pair(1, EPS)) == Pair(EPS, 1)
        assert pair_minus(Pair(2, 2)) == Pair(2, 2)
        for u in GRID_PAIRS:
            assert pair_minus(pair_minus(u)) == u

    def test_balance(self):
        assert pair_balance(Pair(3, 1)) == Pair(3, 3)
        assert pair_balance(Pair(EPS, EPS)) == Pair(EPS, EPS)
        for u in GRID_PAIRS:
            assert pair_balance(pair_balance(u)) == pair_balance(u)

    def test_pair_identities(self):
        # balance is a projection commuting with minus; minus is an involution
        # distributing over both operations
        for u in GRID_PAIRS:
            assert pair_balance(pair_minus(u)) == pair_balance(u)
            for v in GRID_PAIRS:
                assert pair_otimes(u, pair_balance(v)) == pair_balance(pair_otimes(u, v))
                assert pair_otimes(pair_balance(u), v) == pair_balance(pair_otimes(u, v))
                assert pair_minus(pair_oplus(u, v)) == pair_oplus(pair_minus(u), pair_minus(v))
                assert pair_otimes(pair_minus(u), v) == pair_minus(pair_otimes(u, v))
                assert pair_otimes(u, pair_minus(v)) == pair_minus(pair_otimes(u, v))


class TestRelations:
    def test_balance_rel(self):
        x, z, y = 5.0, 3.0, 1.0  # x > z > y
        assert balance_rel(Pair(x, y), Pair(x, x))
        assert not balance_rel(Pair(x, y), Pair(z, x))
        for u in GRID_PAIRS:
            assert balance_rel(u, u)

    def test_balance_rel_not_transitive(self):
        x, z, y = 5.0, 3.0, 1.0
        assert balance_rel(Pair(x, y), Pair(x, x))
        assert balance_rel(Pair(x, x), Pair(z, x))
        assert not balance_rel(Pair(x, y), Pair(z, x))

    def test_equiv_rel(self):
        assert equiv_rel(Pair(3, 1), Pair(3, 0))
        assert not equiv_rel(Pair(2, 2), Pair(3, 3))
        assert equiv_rel(Pair(2, 2), Pair(2, 2))

    def test_equiv_rel_is_equivalence_on_grid(self):
        for u in GRID_PAIRS:
            assert equiv_rel(u, u)
        for u, v in itertools.product(GRID_PAIRS, GRID_PAIRS):
            assert equiv_rel(u, v) == equiv_rel(v, u)
        related = {
            u: [v for v in GRID_PAIRS if equiv_rel(u, v)] for u in GRID_PAIRS
        }
        for u in GRID_PAIRS:
            for v in related[u]:
                for w in related[v]:
                    assert equiv_rel(u, w)


class TestClassify:
    def test_examples(self):
        assert classify(Pair(3, 1)) == SElem.pos(3)
        assert classify(Pair(1, 3)) == SElem.neg(3)
        assert classify(Pair(EPS, EPS)) == ZERO

    def test_classify_respects_equivalence(self):
        for u, v in itertools.product(GRID_PAIRS, GRID_PAIRS):
            if equiv_rel(u, v):
                assert classify(u) == classify(v)

    def test_quotient_coherence(self):
        # the class map turns pair operations into signed operations
        for u, v in itertools.product(GRID_PAIRS, GRID_PAIRS):
            assert classify(pair_oplus(u, v)) == s_oplus(classify(u), classify(v))
            assert classify(pair_otimes(u, v)) == s_otimes(classify(u), classify(v))

    def test_lift_round_trip(self):
        for a in GRID_ELEMS:
            assert classify(lift(a)) == a


class TestSignedOps:
    def test_oplus_examples(self):
        assert s_oplus(SElem.pos(2), SElem.neg(2)) == SElem.bal(2)
        assert s_oplus(SElem.pos(2), SElem.neg(1)) == SElem.pos(2)
        assert s_oplus(ZERO, SElem.neg(5)) == SElem.neg(5)
        assert s_oplus(SElem.neg(5), ZERO) == SElem.neg(5)

    def test_oplus_sign_table_exhaustive(self):
        # 3 x 3 signs x {<, =, >} magnitude relations
        for sa, sb in itertools.product(Sign, Sign):
            for ea, eb in ((1, 2), (2, 2), (2, 1)):
                a, b = SElem(sa, ea), SElem(sb, eb)
                got = s_oplus(a, b)
                if ea > eb:
                    assert got == a
                elif eb > ea:
                    assert got == b
                elif sa is sb:
                    assert got == a
                else:
                    assert got == SElem(Sign.BALANCED, ea)

    def test_otimes_examples(self):
        assert s_otimes(SElem.neg(1), SElem.neg(2)) == SElem.pos(3)
        # cross-check through the pair algebra
        assert classify(pair_otimes(lift(SElem.neg(1)), lift(SElem.neg(2)))) == SElem.pos(3)
        assert s_otimes(SElem.pos(1), SElem.bal(2)) == SElem.bal(3)
        assert s_otimes(ZERO, SElem.pos(7)) == ZERO

    def test_otimes_sign_table_exhaustive(self):
        table = {
            (Sign.PLUS, Sign.PLUS): Sign.PLUS,
            (Sign.PLUS, Sign.MINUS): Sign.MINUS,
            (Sign.MINUS, Sign.PLUS): Sign.MINUS,
            (Sign.MINUS, Sign.MINUS): Sign.PLUS,
        }
        for sa, sb in itertools.product(Sign, Sign):
            for ea, eb in ((1, 2), (2, 2), (2, 1)):
                got = s_otimes(SElem(sa, ea), SElem(sb, eb))
                assert got.exp == ea + eb
                expected = table.get((sa, sb), Sign.BALANCED)
                assert got.sign is expected

    def test_minus(self):
        assert s_minus(SElem.pos(3)) == SElem.neg(3)
        assert s_minus(SElem.bal(2)) == SElem.bal(2)
        assert s_minus(s_minus(SElem.neg(7))) == SElem.neg(7)

    def test_abs(self):
        assert s_abs(SElem.neg(3)) == 3
        assert s_abs(ZERO) is EPS
        assert s_abs(SElem.bal(2)) == 2

    def test_abs_multiplicative(self):
        for a, b in itertools.product(GRID_ELEMS, GRID_ELEMS):
            assert s_abs(s_otimes(a, b)) == ext_otimes(s_abs(a), s_abs(b))

    def test_parts(self):
        assert parts(SElem.pos(3)) == (3, EPS)
        assert parts(SElem.neg(3)) == (EPS, 3)
        assert parts(SElem.bal(3)) == (3, 3)

    def test_parts_round_trip(self):
        for a in GRID_ELEMS:
            p, n = parts(a)
            rebuilt = s_oplus(classify(Pair(p, EPS)), s_minus(classify(Pair(n, EPS))))
            assert rebuilt == a

    def test_scalar_mul(self):
        assert scalar_mul(2, SElem.neg(1)) == SElem.neg(3)
        assert scalar_mul(0, SElem.bal(1.5)) == SElem.bal(1.5)
        assert scalar_mul(EPS, SElem.pos(5)) == ZERO

    def test_power(self):
        assert s_power(SElem.neg(1), 2) == SElem.pos(2)
        assert s_power(SElem.neg(1), 3) == SElem.neg(3)
        assert s_power(SElem.neg(1), -1) == SElem.neg(-1)
        assert s_power(SElem.bal(2), 2) == SElem.bal(4)
        assert s_power(ZERO, 3) == ZERO
        assert s_power(SElem.pos(5), 0) == UNIT
        with pytest.raises(ValueError):
            s_power(SElem.bal(1), -1)
        with pytest.raises(ValueError):
            s_power(ZERO, -2)
        with pytest.raises(TypeError):
            s_power(SElem.pos(1), 2.0)


class TestLaws:
    def test_grid_laws(self):
        for a in GRID_ELEMS:
            assert s_oplus(a, a) == a  # idempotent
        for a, b in itertools.product(GRID_ELEMS, GRID_ELEMS):
            assert s_oplus(a, b) == s_oplus(b, a)
            assert s_otimes(a, b) == s_otimes(b, a)
        small = [ZERO] + [SElem(s, e) for s in Sign for e in (-1, 0, 2)]
        for a, b, c in itertools.product(small, small, small):
            assert s_oplus(s_oplus(a, b), c) == s_oplus(a, s_oplus(b, c))
            assert s_otimes(s_otimes(a, b), c) == s_otimes(a, s_otimes(b, c))
            assert s_otimes(a, s_oplus(b, c)) == s_oplus(s_otimes(a, b), s_otimes(a, c))

    @settings(max_examples=300, derandomize=True)
    @given(elems, elems)
    def test_random_commutativity(self, a, b):
        assert s_oplus(a, b) == s_oplus(b, a)
        assert s_otimes(a, b) == s_otimes(b, a)

    @settings(max_examples=300, derandomize=True)
    @given(dyadic_elems, dyadic_elems, dyadic_elems)
    def test_random_associativity_distributivity(self, a, b, c):
        assert s_oplus(s_oplus(a, b), c) == s_oplus(a, s_oplus(b, c))
        assert s_otimes(s_otimes(a, b), c) == s_otimes(a, s_otimes(b, c))
        assert s_otimes(a, s_oplus(b, c)) == s_oplus(s_otimes(a, b), s_otimes(a, c))

    @settings(max_examples=200, derandomize=True)
    @given(elems)
    def test_random_neutral_elements(self, a):
        assert s_oplus(a, ZERO) == a
        assert s_otimes(a, UNIT) == a
        assert s_otimes(a, ZERO) == ZERO


class TestNormalization:
    def test_zero_collapses(self):
        assert SElem(Sign.PLUS, EPS) == ZERO
        assert SElem(Sign.MINUS, EPS) == ZERO
        assert SElem(Sign.MINUS, float("-inf")) == ZERO

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SElem(Sign.PLUS, float("nan"))
        with pytest.raises(ValueError):
            SElem(Sign.PLUS, float("inf"))

    def test_rejects_bool_exponents(self):
        with pytest.raises(TypeError):
            SElem.pos(True)
        # a JSON reader refuses a malformed value with a ValueError naming it
        with pytest.raises(ValueError, match='exp must be a number or "-inf", got False'):
            SElem.from_json({"sign": "+", "exp": False})

    def test_json_round_trip(self):
        for a in GRID_ELEMS:
            assert SElem.from_json(a.to_json()) == a
        assert ZERO.to_json() == {"sign": "o", "exp": "-inf"}


class TestConstructorRoutes:
    """``SElem`` takes an exact int or a finite exact float as it is; every
    other value goes through ``as_ext``.  These pin the values that route
    covers."""

    @pytest.mark.parametrize("sign", [True, "+", 1, None])
    def test_sign_must_be_a_sign(self, sign):
        with pytest.raises(TypeError, match="sign must be a Sign"):
            SElem(sign, 1)
        with pytest.raises(TypeError, match="sign must be a Sign"):
            SElem(sign, 1.5)

    @pytest.mark.parametrize("exp", [True, False, "1", None, 1j])
    def test_non_real_exponents_are_type_errors(self, exp):
        with pytest.raises(TypeError):
            SElem(Sign.PLUS, exp)

    @pytest.mark.parametrize("exp", [math.nan, math.inf])
    def test_nan_and_inf_are_value_errors(self, exp):
        with pytest.raises(ValueError, match="not a valid magnitude exponent"):
            SElem(Sign.MINUS, exp)

    @pytest.mark.parametrize("sign", list(Sign))
    def test_minus_inf_and_eps_give_the_balanced_zero(self, sign):
        for exp in (-math.inf, EPS):
            e = SElem(sign, exp)
            assert e == ZERO and e.exp is EPS and e.sign is Sign.BALANCED
        assert SElem(Sign.PLUS, -math.inf).sign is Sign.BALANCED

    def test_subclasses_keep_their_type(self):
        class Int(int):
            pass

        class Float(float):
            pass

        for exp in (Int(3), Float(2.5)):
            e = SElem(Sign.PLUS, exp)
            assert type(e.exp) is type(exp) and e == SElem.pos(exp + 0)
        with pytest.raises(ValueError):
            SElem(Sign.PLUS, Float("nan"))
        assert SElem(Sign.PLUS, Float("-inf")) == ZERO

    def test_numpy_scalars(self):
        np = pytest.importorskip("numpy")
        e = SElem(Sign.MINUS, np.float64(1.5))
        assert type(e.exp) is np.float64 and e == SElem.neg(1.5)
        assert SElem(Sign.PLUS, np.float64("-inf")) == ZERO
        with pytest.raises(ValueError):
            SElem(Sign.PLUS, np.float64("nan"))
        with pytest.raises(TypeError):
            SElem(Sign.PLUS, np.int64(1))

    def test_huge_int_is_kept_exactly(self):
        e = SElem(Sign.BALANCED, 10**400)
        assert type(e.exp) is int and e.exp == 10**400 and e.sign is Sign.BALANCED


class TestValueContract:
    def test_immutable(self):
        a = SElem.pos(1.0)
        with pytest.raises(AttributeError):
            a.exp = 2.0
        with pytest.raises(AttributeError):
            a.sign = Sign.MINUS
        with pytest.raises(AttributeError):
            a.other = 0
        with pytest.raises(AttributeError):
            del a.exp
        assert a == SElem.pos(1.0)

    def test_int_and_float_exponents_agree(self):
        assert SElem.pos(1) == SElem.pos(1.0)
        assert hash(SElem.pos(1)) == hash(SElem.pos(1.0))
        assert len({SElem.pos(1), SElem.pos(1.0), SElem.neg(1)}) == 2

    def test_zero_is_balanced(self):
        z = SElem(Sign.PLUS, EPS)
        assert z == ZERO and hash(z) == hash(ZERO)
        assert z.sign is Sign.BALANCED and z.is_zero

    def test_not_equal_to_a_tuple(self):
        assert SElem.pos(1.0) != (Sign.PLUS, 1.0)
        assert (Sign.PLUS, 1.0) != SElem.pos(1.0)

    def test_pickle_and_deepcopy(self):
        for a in GRID_ELEMS:
            for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
                assert b == a and type(b.exp) is type(a.exp)
        assert pickle.loads(pickle.dumps(ZERO)).exp is EPS

    def test_constructor_checks(self):
        with pytest.raises(TypeError):
            SElem("+", 1)
        with pytest.raises(TypeError):
            SElem(Sign.PLUS, "1")

    def test_sign_hash_is_identity(self):
        assert all(hash(s) == object.__hash__(s) for s in Sign)


class TestPairForms:
    """The evaluator, which runs on the (sign, exp) forms of the signed
    operations, agrees with ``s_otimes`` and ``s_power``: the same value
    with the same exponent type, or an error of the same class and message,
    except that it refuses a raw +-inf exponent at the ``*`` or the power's
    exponent.  ``s_oplus``, ``s_otimes`` and ``s_power`` wrap their pair
    forms in ``SElem``, so the forms are checked through the evaluator and
    the explicit ``s_*`` cases above."""

    FLOAT_MAX = sys.float_info.max

    def _exp(self, rng):
        kind = rng.choice((0, 1, 2, 2, 3, 4, 5))  # twice as many near the float maximum
        if kind == 0:
            return rng.randint(-3, 3)
        if kind == 1:
            return rng.choice((10**400, -10**400))
        if kind == 2:  # near +-1e308
            return rng.choice((1, -1)) * rng.choice((1e308, self.FLOAT_MAX, rng.uniform(0.5, 1.0) * self.FLOAT_MAX))
        if kind == 3:  # near +-5e-324
            return rng.choice((1, -1)) * rng.randint(0, 3) * 5e-324
        if kind == 4:
            return rng.uniform(-4.0, 4.0)
        return rng.choice((0.0, -0.0, 0.5, -2.5))

    def _elem(self, rng) -> SElem:
        return ZERO if rng.random() < 0.1 else SElem(rng.choice(list(Sign)), self._exp(rng))

    @staticmethod
    def _outcome(fn, *args):
        try:
            value = fn(*args)
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)
        return value.sign, value.exp, type(value.exp)

    PREFIX = dict(zip(Sign, "pmb"))

    def _literal(self, a: SElem) -> str:
        return "eps" if a.is_zero else f"{self.PREFIX[a.sign]}:{a.exp!r}"

    def _check_evaluator(self, source: str, form, expected, pos: int):
        """The evaluator on ``source`` refuses at ``pos`` a non-finite raw
        exponent of ``form()``, reports an ``s_*`` error there, and
        otherwise gives the ``s_*`` value."""
        try:
            raw = form()[1]
        except (ValueError, OverflowError):
            raw = None
        if isinstance(raw, float) and not math.isfinite(raw):
            expected = (ValueError, f"not a valid magnitude exponent: {raw!r}")
        if isinstance(expected[0], type):
            with pytest.raises(ExprError) as err:
                eval_expr(source)
            assert (str(err.value), err.value.pos) == (f"{expected[1]} (at position {pos})", pos)
        else:
            assert self._outcome(eval_expr, source) == expected

    def test_evaluated_products_match_s_otimes(self):
        rng = random.Random(31)
        for _ in range(3000):
            a, b = self._elem(rng), self._elem(rng)
            left = self._literal(a)
            self._check_evaluator(
                f"{left} * {self._literal(b)}", lambda: _se_otimes((a.sign, a.exp), (b.sign, b.exp)),
                self._outcome(s_otimes, a, b), len(left) + 1,
            )

    def test_evaluated_powers_match_s_power(self):
        rng = random.Random(32)
        for _ in range(3000):
            a = self._elem(rng)
            k = rng.choice((0, 1, 2, 3, -1, -2, -3, 5, 10**400, -10**400))
            source = f"({self._literal(a)}) ^ {k}"
            self._check_evaluator(
                source, lambda: _se_power((a.sign, a.exp), k), self._outcome(s_power, a, k), source.rindex(" ") + 1
            )
