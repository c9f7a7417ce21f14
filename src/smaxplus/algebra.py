"""Exact arithmetic for the max-plus semiring, its pair algebra, and the
signed (symmetrized) quotient.

Three layers:

* scalars -- the max-plus semiring over the reals extended with a bottom
  element ``EPS``: addition is ``max``, multiplication is ``+``, ``EPS`` is
  the additive zero and absorbs multiplication;
* pairs -- componentwise max with a convolution-style product, a component
  swap (the formal minus) and a balance operator;
* signed elements -- the quotient of the pair algebra, where every class is
  a sign tag (plus / minus / balanced) together with a magnitude exponent.

``EPS`` is a distinct tagged value, never an IEEE ``-inf`` float, so the
semiring laws hold exactly at the zero element.  All values are immutable
and every operation is a pure function.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Tuple, Union


class _Eps:
    """Bottom element of the scalar semiring; compares below every real."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_Eps":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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


class Pair(NamedTuple):
    """Element of the pair algebra over the extended scalars."""

    first: ExtReal
    second: ExtReal


def pair_oplus(u: Pair, v: Pair) -> Pair:
    return Pair(ext_oplus(u.first, v.first), ext_oplus(u.second, v.second))


def pair_otimes(u: Pair, v: Pair) -> Pair:
    a, b = u
    c, d = v
    return Pair(
        ext_oplus(ext_otimes(a, c), ext_otimes(b, d)),
        ext_oplus(ext_otimes(a, d), ext_otimes(b, c)),
    )


def pair_minus(u: Pair) -> Pair:
    """Formal minus: swap the components (an involution)."""
    return Pair(u.second, u.first)


def pair_norm(u: Pair) -> ExtReal:
    """Max of the two components."""
    return ext_oplus(u.first, u.second)


def pair_balance(u: Pair) -> Pair:
    """Balance operator: both components become the pair norm."""
    n = pair_norm(u)
    return Pair(n, n)


def balance_rel(u: Pair, v: Pair) -> bool:
    """Cross-sum relation ``a + d_max = b + c_max``; reflexive and symmetric
    but not transitive."""
    return ext_oplus(u.first, v.second) == ext_oplus(u.second, v.first)


def equiv_rel(u: Pair, v: Pair) -> bool:
    """The quotient relation: the cross-sum relation restricted to pairs with
    distinct components, identity elsewhere."""
    if u.first != u.second and v.first != v.second:
        return balance_rel(u, v)
    return u == v


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
    ``__init__`` (through ``object.__setattr__`` or the slot descriptors).
    The base supplies the rest of the value contract: assigning or deleting
    an attribute raises AttributeError; equality needs the same class and
    equal field tuples, and the hash is that of the field tuple; the repr is
    ``Name(field=value, ...)``; pickling and copying call the constructor on
    the field tuple, so the constructor takes the fields in slot order.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


# the three rays of the tripod, in the order every enumeration uses
RAYS = (Sign.PLUS, Sign.MINUS, Sign.BALANCED)

_SIGN_ORDER = {sign: i for i, sign in enumerate(RAYS)}


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
        if not isinstance(sign, Sign):
            raise TypeError("sign must be a Sign")
        exp = as_ext(exp)
        if exp is EPS:
            sign = Sign.BALANCED
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
        return cls(Sign.PLUS, r)

    @classmethod
    def neg(cls, r) -> "SElem":
        return cls(Sign.MINUS, r)

    @classmethod
    def bal(cls, r) -> "SElem":
        return cls(Sign.BALANCED, r)

    @property
    def is_zero(self) -> bool:
        return self.exp is EPS

    def sort_key(self) -> Tuple[int, float]:
        m = self.exp if not self.is_zero else float("-inf")
        return (_SIGN_ORDER[self.sign], m)

    def __repr__(self) -> str:
        if self.is_zero:
            return "eps"
        prefix = {Sign.PLUS: "p", Sign.MINUS: "m", Sign.BALANCED: "b"}[self.sign]
        return f"{prefix}:{self.exp}"

    def to_json(self) -> dict:
        return {"sign": self.sign._value_, "exp": "-inf" if self.is_zero else self.exp}

    @classmethod
    def from_json(cls, data: dict) -> "SElem":
        exp = data["exp"]
        if exp == "-inf":
            exp = EPS
        e = cls(Sign(data["sign"]), exp)
        _check_keys(data, ("sign", "exp"))
        return e


_set_sign = SElem.sign.__set__
_set_exp = SElem.exp.__set__


def _trusted_selem(sign: Sign, exp: float) -> SElem:
    """An SElem built without ``__init__``'s checks, for an exponent the
    library has just computed.  The caller guarantees what those checks
    establish: ``sign`` is a Sign and ``exp`` is a finite float, such as
    ``math.log`` of a positive finite float, so the element is nonzero and
    needs no normalization.  Outside input goes through ``SElem(...)``."""
    e = object.__new__(SElem)
    _set_sign(e, sign)
    _set_exp(e, exp)
    return e


def _check_keys(data: dict, known: Tuple[str, ...]) -> None:
    """Reject the keys of a JSON object that ``known`` does not name, which
    a ``from_json`` would otherwise silently ignore.  Callers run it after
    reading the known keys, so input that is not an object at all fails on
    the key it lacks, not here."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"unknown keys {unknown}; expected only {list(known)}")

ZERO = SElem(Sign.BALANCED, EPS)
UNIT = SElem(Sign.PLUS, 0)


def classify(u: Pair) -> SElem:
    """The signed element represented by a pair: the dominant component wins
    the sign, ties are balanced."""
    a, b = u
    if a is EPS and b is EPS:
        return ZERO
    if b is EPS or (a is not EPS and a > b):
        return SElem(Sign.PLUS, a)
    if a is EPS or a < b:
        return SElem(Sign.MINUS, b)
    return SElem(Sign.BALANCED, a)


def lift(a: SElem) -> Pair:
    """A canonical pair representative of a signed element."""
    if a.sign is Sign.PLUS:
        return Pair(a.exp, EPS)
    if a.sign is Sign.MINUS:
        return Pair(EPS, a.exp)
    return Pair(a.exp, a.exp)


def s_oplus(a: SElem, b: SElem) -> SElem:
    """Signed addition: larger magnitude wins; on a tie, equal signs keep the
    sign and distinct signs balance."""
    if a.exp is EPS:
        return b
    if b.exp is EPS:
        return a
    if a.exp > b.exp:
        return a
    if b.exp > a.exp:
        return b
    if a.sign is b.sign:
        return a
    return SElem(Sign.BALANCED, a.exp)


def s_otimes(a: SElem, b: SElem) -> SElem:
    """Signed multiplication: magnitudes add, signs multiply (balanced absorbs)."""
    mag = ext_otimes(a.exp, b.exp)
    if a.sign is Sign.BALANCED or b.sign is Sign.BALANCED:
        sign = Sign.BALANCED
    elif a.sign is b.sign:
        sign = Sign.PLUS
    else:
        sign = Sign.MINUS
    return SElem(sign, mag)


def s_minus(a: SElem) -> SElem:
    """Flip plus and minus; balanced elements are fixed points."""
    if a.sign is Sign.PLUS:
        return SElem(Sign.MINUS, a.exp)
    if a.sign is Sign.MINUS:
        return SElem(Sign.PLUS, a.exp)
    return a


def s_abs(a: SElem) -> ExtReal:
    """Magnitude exponent of a signed element."""
    return a.exp


def parts(a: SElem) -> Tuple[ExtReal, ExtReal]:
    """Positive and negative part exponents; recombining them via signed
    addition reproduces the element."""
    if a.sign is Sign.PLUS:
        return (a.exp, EPS)
    if a.sign is Sign.MINUS:
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
    if k == 0:
        return UNIT
    if a.is_zero:
        if k < 0:
            raise ValueError("the zero element has no multiplicative inverse")
        return ZERO
    if a.sign is Sign.BALANCED:
        if k < 0:
            raise ValueError("balanced elements have no multiplicative inverse")
        sign = Sign.BALANCED
    elif a.sign is Sign.MINUS and k % 2 == 1:
        sign = Sign.MINUS
    else:
        sign = Sign.PLUS
    return SElem(sign, k * a.exp)
