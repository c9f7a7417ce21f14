"""The pair algebra over the max-plus scalars, and the map between pairs and
signed elements.

Componentwise max with a convolution-style product, a component swap (the
formal minus) and a balance operator; the signed elements of ``algebra``
are the quotient of this algebra, where every class is a sign tag together
with a magnitude exponent.  ``classify`` takes a pair to its class and
``lift`` a class to a canonical pair.  No subcommand of the CLI uses the
pair algebra, so it lives apart from the signed arithmetic every call
loads.
"""

from __future__ import annotations

from typing import NamedTuple

from ..algebra import BALANCED, EPS, MINUS, PLUS, ZERO, ExtReal, SElem, ext_oplus, ext_otimes


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


def classify(u: Pair) -> SElem:
    """The signed element represented by a pair: the dominant component wins
    the sign, ties are balanced."""
    a, b = u
    if a is EPS and b is EPS:
        return ZERO
    if b is EPS or (a is not EPS and a > b):
        return SElem(PLUS, a)
    if a is EPS or a < b:
        return SElem(MINUS, b)
    return SElem(BALANCED, a)


def lift(a: SElem) -> Pair:
    """A canonical pair representative of a signed element."""
    if a.sign is PLUS:
        return Pair(a.exp, EPS)
    if a.sign is MINUS:
        return Pair(EPS, a.exp)
    return Pair(a.exp, a.exp)
