"""Exact rational scalars used throughout the solver core.

Arc values, resource amounts, window bounds and aggregation weights are
all ``fractions.Fraction`` instances, so feasibility tests, bound
comparisons and the Pareto-equality test of the bounding phase are
exact. A dedicated sentinel stands for the "+infinity" aggregation
weight, whose meaning is "order paths by resource alone"; it is never
used in arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union


class _PlusInfinity:
    """Sentinel aggregation weight: maximize resource, ignore value."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "PLUS_INF"


PLUS_INF = _PlusInfinity()

#: An aggregation weight: a nonnegative rational, or the resource-only sentinel.
Weight = Union[Fraction, _PlusInfinity]

RatLike = Union[int, str, Fraction]

#: An exact rational as integers: ``(numerator, denominator)``, in lowest
#: terms with a positive denominator.
Ratio = tuple[int, int]


class NotDecimal(ValueError):
    """A rational with no finite decimal expansion, so no decimal text."""


#: The exponent of a decimal string, as ``Fraction`` reads it.
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z").search

# Most exponent digits rat accepts: Fraction("1e99999999") would build a
# 10**8-digit integer.
_MAX_EXPONENT_DIGITS = 4


def rat(x: RatLike) -> Fraction:
    """Parse a rational from an int, a Fraction, a ``"num/den"`` string or a
    decimal string.

    Decimal strings are converted exactly ("0.15" -> 3/20); floats are
    rejected on purpose, they are how exactness gets lost. So is a
    decimal exponent of more than four digits.
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        m = _EXPONENT(x)
        if m is not None and len(m[1].replace("_", "").lstrip("0")) > _MAX_EXPONENT_DIGITS:
            raise ValueError(f"not a rational: {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {x!r}") from exc
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def rat_str(q: Fraction) -> str:
    """Canonical ``num/den`` encoding, used for all emitted JSON."""
    return f"{q.numerator}/{q.denominator}"


def floor_rat(q: Fraction) -> Fraction:
    """Largest integer <= q, as a Fraction."""
    return Fraction(q.numerator // q.denominator)


def decimal_str(q: Fraction) -> str:
    """Render q as an exact decimal string.

    Only defined when the reduced denominator is of the form 2^a * 5^b;
    everything the hydro front-end emits satisfies that because its data
    arrives as decimal text.
    """
    den = q.denominator
    e2 = e5 = 0
    while den % 2 == 0:
        den //= 2
        e2 += 1
    while den % 5 == 0:
        den //= 5
        e5 += 1
    if den != 1:
        raise NotDecimal(f"{q} has no finite decimal representation")
    digits = max(e2, e5)
    scaled = q.numerator * (10**digits // q.denominator)
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + body
    return f"{sign}{body[:-digits]}.{body[-digits:]}"
