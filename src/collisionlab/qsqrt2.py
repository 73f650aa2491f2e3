"""Exact arithmetic in the real quadratic field Q(sqrt(2)).

All exact-mode amplitudes live here: a value is a + b*sqrt(2) with
arbitrary-precision rationals a, b.  The field is closed under the gate
entries we need (signed permutations, Hadamard-type 1/sqrt(2) factors,
rational diffusion entries), equality is decidable, and the real embedding
gives a total order, so norm and probability checks can be exact.

This module also owns how exact numbers are written down: int_form and
QSqrt2.over convert a batch of values to and from integer pairs over one
shared denominator, the form every exact kernel computes in, and
format_fraction writes a rational as the "p/q" text of files and reports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, Fraction]
SQRT2 = 1.4142135623730951  # float(sqrt 2), the real embedding's constant


class QSqrt2:
    """Exact number a + b*sqrt(2), with Fraction components a and b."""

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def sqrt2() -> "QSqrt2":
        return QSqrt2(0, 1)

    @staticmethod
    def inv_sqrt2() -> "QSqrt2":
        """1/sqrt(2) = sqrt(2)/2, the Hadamard entry."""
        return QSqrt2(0, Fraction(1, 2))

    @staticmethod
    def inv_sqrt2_power(k: int) -> "QSqrt2":
        """2^(-k/2): 1/2^(k/2) for even k, sqrt(2)/2^((k+1)/2) for odd k."""
        if k % 2 == 0:
            return QSqrt2(Fraction(1, 1 << (k // 2)))
        return QSqrt2(0, Fraction(1, 1 << ((k + 1) // 2)))

    @staticmethod
    def over(A: int, B: int, D: int) -> "QSqrt2":
        """(A + B sqrt(2)) / D from integers; the inverse of int_form."""
        return QSqrt2(Fraction(A, D), Fraction(B, D))

    @staticmethod
    def float_over(A, B, D: int):
        """float(QSqrt2.over(A, B, D)) without the Fractions: int true
        division rounds A / D as float(Fraction(A, D)) does.  Elementwise
        on integer arrays A and B, with the same bits where each element
        is a Python int (object arrays), or where the elements and D are
        below 2^53 and so convert to floats exactly (int64 arrays)."""
        return A / D + (B / D) * SQRT2

    @staticmethod
    def coerce(value: "QSqrt2 | RationalLike") -> "QSqrt2":
        if isinstance(value, QSqrt2):
            return value
        return QSqrt2(value)

    # -- ring/field operations --------------------------------------------

    def __add__(self, other):
        other = QSqrt2.coerce(other)
        return QSqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = QSqrt2.coerce(other)
        return QSqrt2(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return QSqrt2.coerce(other) - self

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __mul__(self, other):
        other = QSqrt2.coerce(other)
        return QSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QSqrt2.coerce(other)
        # (a - b*sqrt2)(a + b*sqrt2) = a^2 - 2 b^2, nonzero for nonzero
        # elements because sqrt(2) is irrational.
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return QSqrt2(
            (self.a * other.a - 2 * self.b * other.b) / norm,
            (self.b * other.a - self.a * other.b) / norm,
        )

    def __rtruediv__(self, other):
        return QSqrt2.coerce(other) / self

    def square(self) -> "QSqrt2":
        return self * self

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} has a nonzero sqrt(2) part")
        return self.a

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * SQRT2

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- comparisons (real embedding, decided exactly) ----------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QSqrt2(other)
        if not isinstance(other, QSqrt2):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def sign(self) -> int:
        """Sign of the real value a + b*sqrt(2), computed exactly."""
        return sign(self.a, self.b)

    def __lt__(self, other):
        return (self - QSqrt2.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - QSqrt2.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QSqrt2.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - QSqrt2.coerce(other)).sign() >= 0

    # -- serialization -------------------------------------------------------

    def to_strings(self) -> list[str]:
        """["p/q", "r/s"] for the rational and sqrt(2) parts."""
        return [format_fraction(self.a), format_fraction(self.b)]

    @staticmethod
    def from_strings(pair) -> "QSqrt2":
        if len(pair) != 2:
            raise ValueError(f"expected [a, b] entry, got {pair!r}")
        return QSqrt2(parse_fraction(pair[0]), parse_fraction(pair[1]))

    def __repr__(self):
        if self.b == 0:
            return f"QSqrt2({self.a})"
        return f"QSqrt2({self.a} + {self.b}*sqrt2)"


ZERO = QSqrt2(0)
ONE = QSqrt2(1)


def sign(a: RationalLike, b: RationalLike) -> int:
    """Sign of a + b*sqrt(2) for rationals or integers a, b, exactly."""
    if b == 0:
        return -1 if a < 0 else (0 if a == 0 else 1)
    if a == 0:
        return -1 if b < 0 else 1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Opposite signs: compare a^2 against 2 b^2.
    if a > 0:  # b < 0: positive iff a^2 > 2 b^2
        return 1 if a * a > 2 * b * b else -1
    return 1 if 2 * b * b > a * a else -1  # a < 0, b > 0


def int_form(values: Iterable[QSqrt2]) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(A, B), ...]) with each value as (A + B sqrt(2)) / D.

    D is the lcm of every component denominator, so sums and products of
    the values are integer sums and products over a power of D.  Each
    distinct object is converted once; the list keeps the values alive,
    so their ids stay unique while it is read.
    """
    values = list(values)
    distinct = {id(v): v for v in values}.values()
    D = math.lcm(*{v.a.denominator for v in distinct}, *{v.b.denominator for v in distinct})
    pair = {
        id(v): (v.a.numerator * (D // v.a.denominator), v.b.numerator * (D // v.b.denominator))
        for v in distinct
    }
    return D, [pair[id(v)] for v in values]


def format_fraction(f: Fraction) -> str:
    """Serialize as "p/q" with the denominator always present."""
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(s: str) -> Fraction:
    return Fraction(s)
