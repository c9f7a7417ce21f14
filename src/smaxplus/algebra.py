"""Exact arithmetic for the max-plus semiring and its signed (symmetrized)
quotient.

Two layers:

* scalars -- the max-plus semiring over the reals extended with a bottom
  element ``EPS``: addition is ``max``, multiplication is ``+``, ``EPS`` is
  the additive zero and absorbs multiplication;
* signed elements -- the quotient of the pair algebra, where every class is
  a sign tag (plus / minus / balanced) together with a magnitude exponent.

The pair algebra itself, and the maps between pairs and signed elements,
are in ``pairs``: every CLI call loads this module, and none uses pairs.

Next to ``s_oplus``, ``s_otimes`` and ``s_power`` stand their forms on
normalized (sign, exp) tuples, ``_se_oplus``, ``_se_otimes`` and
``_se_power``, which build no element; the semimodule sweep and the
expression evaluator run on them.  The product and power forms return the
raw exponent, +-inf where a float result leaves the float range, and the
caller normalizes it.  ``s_oplus``, ``s_otimes`` and ``s_power`` wrap
their forms in ``SElem``, which refuses +inf and reads -inf as the zero
element; the evaluator refuses both.

``EPS`` is a distinct tagged value, never an IEEE ``-inf`` float, so the
semiring laws hold exactly at the zero element.  All values are immutable
and every operation is a pure function.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Tuple, Union


class _Eps:
    """Bottom element of the scalar semiring; compares below every real."""

    __slots__ = ()

    def __reduce__(self) -> str:
        # pickled and copied by name, so every copy is the module's EPS
        return "EPS"

    def __repr__(self) -> str:
        return "eps"

    def __lt__(self, other):
        if other is self:
            return False
        if isinstance(other, (int, float)):
            return True
        return NotImplemented

    def __le__(self, other):
        if other is self or isinstance(other, (int, float)):
            return True
        return NotImplemented

    def __gt__(self, other):
        if other is self or isinstance(other, (int, float)):
            return False
        return NotImplemented

    def __ge__(self, other):
        return other is self if isinstance(other, (int, float, _Eps)) else NotImplemented


EPS = _Eps()

ExtReal = Union[int, float, _Eps]


def as_ext(value) -> ExtReal:
    """Coerce a raw number into a scalar; IEEE -inf maps to ``EPS``.  ``bool``
    is rejected although Python counts it as an ``int``."""
    if value is EPS:
        return EPS
    if isinstance(value, float):
        if value == -math.inf:
            return EPS
        if not math.isfinite(value):
            raise ValueError(f"not a valid magnitude exponent: {value!r}")
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected a real number or eps, got {type(value).__name__}")


def ext_oplus(a: ExtReal, b: ExtReal) -> ExtReal:
    """Tropical addition: max, with ``EPS`` neutral."""
    if a is EPS:
        return b
    if b is EPS:
        return a
    return a if a >= b else b


def ext_otimes(a: ExtReal, b: ExtReal) -> ExtReal:
    """Tropical multiplication: ordinary addition, with ``EPS`` absorbing."""
    if a is EPS or b is EPS:
        return EPS
    return a + b


def ext_power(a: ExtReal, k: int) -> ExtReal:
    """Tropical power: ``k``-fold product, i.e. ``k * a``; ``a ** 0`` is the unit 0."""
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    if k == 0:
        return 0
    if a is EPS:
        if k < 0:
            raise ValueError("eps has no multiplicative inverse")
        return EPS
    return k * a


class Sign(Enum):
    PLUS = "+"
    MINUS = "-"
    BALANCED = "o"

    # members are singletons that compare by identity, so the identity hash
    # agrees with equality (and runs in C, unlike Enum's hash of the name)
    __hash__ = object.__hash__


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__``, through ``object.__setattr__``; only a class the library
    builds by the thousand (``SElem``, ``SVector``, ``ArcPiece``,
    ``ProjectionResult``) binds its slot descriptors' setters once in its
    module and calls those, which is about twice as fast.  A field holds
    only what the others cannot derive.
    The base supplies the rest of the value contract: assigning or deleting
    an attribute raises AttributeError; equality needs the same class and
    equal field tuples, and the hash is that of the field tuple; the repr is
    ``Name(field=value, ...)``; pickling and copying call the constructor on
    the field tuple, so the constructor takes the fields in slot order.

    The fields are the names in ``_fields``, which defaults to
    ``__slots__``.  A subclass that caches something derived from its fields
    keeps the cache in a slot that ``_fields`` leaves out: the cache takes no
    part in equality, hash, repr or pickling, and a copy, built from the
    fields, starts without it.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


# The members bound once as module constants, which function bodies read
# instead of ``Sign.PLUS`` and the like: on Python 3.10 and 3.11 the Enum
# metaclass defines ``__getattr__``, so every ``Sign.X`` read takes that
# Python-level hook (about 160 ns, against 14 ns for a global).
PLUS, MINUS, BALANCED = Sign.PLUS, Sign.MINUS, Sign.BALANCED
# the three rays of the tripod, in the order every enumeration uses
RAYS = (PLUS, MINUS, BALANCED)

_SIGN_ORDER = {sign: i for i, sign in enumerate(RAYS)}
_PREFIX = {PLUS: "p", MINUS: "m", BALANCED: "b"}


class SElem(_Record):
    """A signed max-plus element: sign tag plus magnitude exponent.

    Normalization is enforced at construction: the zero element (magnitude
    ``EPS``) is always tagged balanced, so structural equality coincides with
    algebraic equality.  Instances are immutable: assigning or deleting an
    attribute raises AttributeError.  Equality and the hash are the
    ``_Record`` ones, written out because they are hot.
    """

    __slots__ = ("sign", "exp")
    sign: Sign
    exp: ExtReal

    def __init__(self, sign: Sign, exp: ExtReal):
        # an exact int or a finite exact float is already a valid nonzero
        # exponent; every other value (bool, nan, +-inf, subclasses, EPS)
        # is checked and normalized by as_ext
        kind = exp.__class__
        if sign.__class__ is not Sign or not (kind is int or kind is float and math.isfinite(exp)):
            if not isinstance(sign, Sign):
                raise TypeError("sign must be a Sign")
            exp = as_ext(exp)
            if exp is EPS:
                sign = BALANCED
        _set_sign(self, sign)
        _set_exp(self, exp)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sign is other.sign and self.exp == other.exp

    def __hash__(self) -> int:
        return hash((self.sign, self.exp))

    @classmethod
    def pos(cls, r) -> "SElem":
        return cls(PLUS, r)

    @classmethod
    def neg(cls, r) -> "SElem":
        return cls(MINUS, r)

    @classmethod
    def bal(cls, r) -> "SElem":
        return cls(BALANCED, r)

    @property
    def is_zero(self) -> bool:
        return self.exp is EPS

    def sort_key(self) -> Tuple[int, float]:
        m = self.exp if not self.is_zero else float("-inf")
        return (_SIGN_ORDER[self.sign], m)

    def __repr__(self) -> str:
        if self.is_zero:
            return "eps"
        return f"{_PREFIX[self.sign]}:{self.exp}"

    def to_json(self) -> dict:
        return {"sign": self.sign._value_, "exp": "-inf" if self.is_zero else self.exp}

    @classmethod
    def from_json(cls, data: dict) -> "SElem":
        _check_object(data, "an element")
        exp = data["exp"]
        sign = Sign(data["sign"])
        if exp == "-inf":
            exp = EPS
        elif not _is_number(exp):
            raise ValueError(f'exp must be a number or "-inf", got {exp!r}')
        e = cls(sign, exp)
        _check_keys(data, ("sign", "exp"))
        return e


_set_sign = SElem.sign.__set__
_set_exp = SElem.exp.__set__


def _trusted_selem(sign: Sign, exp: float) -> SElem:
    """An SElem built without ``__init__``'s checks, for an exponent the
    library has just computed.  The caller guarantees what those checks
    establish: ``sign`` is a Sign and ``exp`` is a finite float, such as
    ``math.log`` of a positive finite float, or a nonzero element's own
    exponent, so the element is nonzero and needs no normalization.
    Outside input goes through ``SElem(...)``."""
    e = object.__new__(SElem)
    _set_sign(e, sign)
    _set_exp(e, exp)
    return e


def _check_object(data, what: str) -> None:
    """Reject JSON input that is not an object, naming what it should be."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")


def _check_keys(data: dict, known: Tuple[str, ...]) -> None:
    """Reject the keys of a JSON object that ``known`` does not name, which
    a ``from_json`` would otherwise silently ignore.  Callers run it after
    reading the known keys, so input that is not an object at all fails on
    the key it lacks, not here."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"unknown keys {unknown}; expected only {list(known)}")


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


ZERO = SElem(BALANCED, EPS)
UNIT = SElem(PLUS, 0)


def s_oplus(a: SElem, b: SElem) -> SElem:
    """Signed addition: larger magnitude wins; on a tie, equal signs keep the
    sign and distinct signs balance."""
    return SElem(*_se_oplus((a.sign, a.exp), (b.sign, b.exp)))


def s_otimes(a: SElem, b: SElem) -> SElem:
    """Signed multiplication: magnitudes add, signs multiply (balanced absorbs)."""
    return SElem(*_se_otimes((a.sign, a.exp), (b.sign, b.exp)))


def s_minus(a: SElem) -> SElem:
    """Flip plus and minus; balanced elements are fixed points."""
    if a.sign is PLUS:
        return SElem(MINUS, a.exp)
    if a.sign is MINUS:
        return SElem(PLUS, a.exp)
    return a


def s_abs(a: SElem) -> ExtReal:
    """Magnitude exponent of a signed element."""
    return a.exp


def parts(a: SElem) -> Tuple[ExtReal, ExtReal]:
    """Positive and negative part exponents; recombining them via signed
    addition reproduces the element."""
    if a.sign is PLUS:
        return (a.exp, EPS)
    if a.sign is MINUS:
        return (EPS, a.exp)
    return (a.exp, a.exp)


def scalar_mul(lam: ExtReal, a: SElem) -> SElem:
    """Scalar action of the max-plus semifield: shift the magnitude exponent,
    keep the sign."""
    return SElem(a.sign, ext_otimes(as_ext(lam), a.exp))


def s_power(a: SElem, k: int) -> SElem:
    """k-fold signed product.  ``a ** 0`` is the unit; negative powers invert,
    which balanced elements do not admit."""
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    return SElem(*_se_power((a.sign, a.exp), k))


# A normalized pair is (BALANCED, EPS) for zero, or has an int or finite
# float exponent.  An int beyond the float range next to a float raises
# OverflowError.


def _se_oplus(x: tuple, y: tuple) -> tuple:
    """s_oplus on (sign, exp) pairs."""
    if x[1] is EPS or y[1] is EPS:
        return y if x[1] is EPS else x
    if x[1] != y[1]:
        return x if x[1] > y[1] else y
    return x if x[0] is y[0] else (BALANCED, x[1])


def _se_otimes(x: tuple, y: tuple) -> tuple:
    """s_otimes on (sign, exp) pairs, with the raw exponent sum."""
    if x[1] is EPS or y[1] is EPS:
        return (BALANCED, EPS)
    sx, sy = x[0], y[0]
    return (BALANCED if sx is BALANCED or sy is BALANCED else PLUS if sx is sy else MINUS, x[1] + y[1])


def _se_power(x: tuple, k: int) -> tuple:
    """s_power on a (sign, exp) pair and an int ``k``, with the raw
    exponent ``k * exp``."""
    if k == 0:
        return (PLUS, 0)
    sign, exp = x
    if exp is EPS:
        if k < 0:
            raise ValueError("the zero element has no multiplicative inverse")
        return x
    if sign is BALANCED:
        if k < 0:
            raise ValueError("balanced elements have no multiplicative inverse")
    elif sign is MINUS and k % 2 == 0:
        sign = PLUS
    return (sign, k * exp)
