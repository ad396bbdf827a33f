"""Exact rational scalars.

All arithmetic in this package runs over the rationals, represented by
``fractions.Fraction``: lowest terms, positive denominator, arbitrary
precision. Strings serialize as "p/q", with "/q" omitted when q = 1,
which is exactly ``str(Fraction)``.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


class IdentityError(ArithmeticError):
    """An identity that a certificate rests on failed on exact values. The
    command line exits 1 on it, where any other ArithmeticError (a division
    by zero, say) is a parameter error and exits 2."""


def scalar(value) -> Fraction:
    """Coerce an int, string "p/q", or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q" (or "p") into a Fraction. Rejects floats and empty input."""
    text = text.strip()
    if not text:
        raise ValueError("empty scalar string")
    if any(c in text for c in ".eE") and not text.lstrip("+-").isdigit():
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def format_scalar(value: Fraction) -> str:
    """Serialize a Fraction as "p/q", omitting "/q" when the denominator is 1.
    The digits come from Decimal, which is exact for an int and has no
    limit on their number, where str(int) stops at 4300 by default."""
    value = Fraction(value)
    num = str(Decimal(value.numerator))
    return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


def quantum_int(m: int, q: Fraction) -> Fraction:
    """The quantum integer [m]_q = 1 + q + ... + q^(m-1); [0]_q = 0."""
    if m < 0:
        raise ValueError("quantum integer needs m >= 0")
    total = Fraction(0)
    power = Fraction(1)
    for _ in range(m):
        total += power
        power *= q
    return total
