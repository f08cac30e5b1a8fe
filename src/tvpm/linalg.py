"""Exact rational scalars and points.

Every numeric quantity in this package is a ``fractions.Fraction``:
arbitrary-precision integers underneath, always reduced, denominator always
positive.  There is deliberately no floating-point code path anywhere, so
every comparison and equality test in the package is exact.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

Scalar = Fraction
Point = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# ASCII digits only: ``\d`` would also accept every other Unicode digit.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")


def parse_scalar(token: str) -> Fraction:
    """Parse a rational literal: ``p/q`` or a bare integer ``p``.

    The sign, if any, sits on the numerator and the denominator must be a
    positive integer.  Anything else (floats, exponents, whitespace inside
    the token) is rejected.
    """
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not a rational literal: {excerpt(token)}")
    num, _, den = token.partition("/")
    p = int_literal(num, token)
    q = int_literal(den, token) if den else 1
    if q == 0:
        raise ValueError(f"zero denominator: {excerpt(token)}")
    return Fraction(p, q)


def int_literal(digits: str, token: Optional[str] = None) -> int:
    """``int(digits)`` for a string of ASCII digits with an optional sign.

    Python refuses to convert integers longer than its int-string limit
    (``sys.get_int_max_str_digits()``, 4300 digits by default); that refusal
    becomes a ``ValueError`` naming the limit and a short excerpt of
    ``token``, the literal ``digits`` came from (``digits`` itself if None).
    """
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"{excerpt(token or digits)} is over the {limit}-digit limit for integers"
        ) from None


def excerpt(token: str) -> str:
    """``repr(token)``, cut to its first 20 characters and its length when
    longer, so that a message quoting it stays one short line."""
    if len(token) <= 20:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def format_scalar(value: Fraction) -> str:
    """Canonical text for a rational: reduced ``p/q``, bare ``p`` when q = 1.

    A numerator or denominator over the int-string limit, text that
    ``parse_scalar`` could not read back, is a ``ValueError`` naming it.
    """
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"a number over the {limit}-digit limit for integers"
        ) from None


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def common_denominator(values: Iterable[Fraction]) -> int:
    """The least ``q > 0`` that makes ``q * v`` an integer for every value."""
    return lcm(*{v.denominator for v in values})


def scaled(values: Iterable[Fraction], q: int) -> list[int]:
    """``q * v`` for each value, as integers; ``q`` must be a multiple of
    every denominator (``common_denominator`` gives the least one)."""
    return [v.numerator * (q // v.denominator) if v else 0 for v in values]
