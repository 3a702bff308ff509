"""Exact complex scalars with rational real and imaginary parts.

All polynomial coefficients in this package are instances of
:class:`ComplexRational`, so ring arithmetic, involution, and normal forms
are exact.  Floating point enters only at the numeric boundary (character
values, quadrature, matrix factorizations).
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Union

from .errors import AlgebraError, UnsupportedError

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "ComplexRational"]

FLOAT_OVERFLOW = "floating point overflow: the value is too large for a float"


def ratio_to_float(x: int, den: int) -> float:
    """x / den for ints x and den > 0 as the correctly rounded float (int
    true division), or AlgebraError when it lies outside the float range."""
    try:
        return x / den
    except OverflowError:
        raise AlgebraError(FLOAT_OVERFLOW) from None


def to_float(q: RationalLike) -> float:
    """``float(q)``, from its numerator and denominator, or AlgebraError
    when q lies outside the float range."""
    return ratio_to_float(q.numerator, q.denominator)


def sqrt_to_float(q: RationalLike) -> float:
    """The square root of an exact q >= 0 as a float, never rounded up.

    In the float range this is ``math.sqrt(float(q))``.  When q itself is
    past it, the root is the integer square root of floor(q), rounded down
    to a float, so a root that fits is found and a lower bound stays one;
    a root past the float range is AlgebraError.
    """
    try:
        return math.sqrt(float(q))
    except OverflowError:
        root = math.isqrt(math.floor(q))
        value = to_float(root)
        return value if int(value) <= root else math.nextafter(value, 0.0)


def power(base, n: int, one, mul=operator.mul):
    """base**n for an int n >= 0 by square-and-multiply with ``mul``,
    starting from one."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def rational_literal(q: RationalLike) -> str:
    """``str(q)``, or UnsupportedError when q has more digits than the
    interpreter converts to text (``sys.get_int_max_str_digits()``)."""
    try:
        return str(q)
    except ValueError:
        raise UnsupportedError(
            f"exact value too long to print: it has more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's limit "
            f"for integer string conversion") from None


class ComplexRational:
    """A complex number a + b*i with a, b exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        # a Fraction is immutable, so one is kept as it is, not copied
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ComplexRational is immutable")

    @staticmethod
    def coerce(value: ScalarLike) -> "ComplexRational":
        if (o := _operand(value)) is None:
            raise TypeError(
                f"cannot interpret {value!r} as an exact complex scalar")
        return o

    # ---- arithmetic ----

    # Operands other than int, Fraction and ComplexRational give
    # NotImplemented, so e.g. ComplexRational(2) * p defers to p.__rmul__.

    def __add__(self, other: ScalarLike) -> "ComplexRational":
        if (o := _operand(other)) is None:
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "ComplexRational":
        if (o := _operand(other)) is None:
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "ComplexRational":
        if (o := _operand(other)) is None:
            return NotImplemented
        return ComplexRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other: ScalarLike) -> "ComplexRational":
        if (o := _operand(other)) is None:
            return NotImplemented
        return ComplexRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "ComplexRational":
        if (o := _operand(other)) is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __pow__(self, n: int) -> "ComplexRational":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, n, ONE)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def one_norm(self) -> Fraction:
        """|Re| + |Im|, an exact upper bound for the modulus."""
        return abs(self.re) + abs(self.im)

    # ---- predicates and conversions ----

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        re, im = self.re, self.im
        try:
            return complex(re.numerator / re.denominator, im.numerator / im.denominator)
        except OverflowError:
            raise AlgebraError(FLOAT_OVERFLOW) from None

    def literal(self) -> str:
        """Canonical source spelling: "3", "-1/2", or "(a+bi)"."""
        re = rational_literal(self.re)
        if self.im == 0:
            return re
        sign = "+" if self.im >= 0 else "-"
        return f"({re}{sign}{rational_literal(abs(self.im))}i)"

    def __repr__(self) -> str:
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return self.literal()


def _operand(value: object) -> ComplexRational | None:
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction)):
        return ComplexRational(value)
    return None


def to_numerators(values) -> tuple[int, list[int], list[int]]:
    """(den, re, im) with each value (re[k] + im[k]*i) / den, den the lcm
    of every part's denominator, so gcd(den, *re, *im) == 1."""
    parts = [(v.re, v.im) if isinstance(v, ComplexRational) else (v, 0)
             for v in values]
    den = math.lcm(*(q.denominator for pair in parts for q in pair))
    return (den, [x.numerator * (den // x.denominator) for x, _ in parts],
            [y.numerator * (den // y.denominator) for _, y in parts])


def from_numerators(den: int, re, im) -> list[ComplexRational]:
    """The values (re[k] + im[k]*i) / den, each part in lowest terms."""
    return [ComplexRational(Fraction(x, den), Fraction(y, den))
            for x, y in zip(re, im)]


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
