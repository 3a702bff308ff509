import math
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gelfand_lab import ComplexRational
from gelfand_lab.errors import AlgebraError, UnsupportedError
from gelfand_lab.scalars import (from_numerators, ratio_to_float, rational_literal,
                                 sqrt_to_float, to_float, to_numerators)

from helpers import disk

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.builds(ComplexRational, fractions, fractions)
wide = st.fractions(max_denominator=10 ** 30)
exact_values = st.lists(st.one_of(st.integers(), wide,
                                  st.builds(ComplexRational, wide, wide),
                                  st.just(0), st.just(ComplexRational(0))),
                        max_size=8)


def test_construction_and_parts():
    c = ComplexRational(Fraction(1, 2), Fraction(-3, 4))
    assert c.re == Fraction(1, 2)
    assert c.im == Fraction(-3, 4)
    assert ComplexRational(3).im == 0
    assert ComplexRational(3, 0).is_real()
    assert not c.is_real()
    assert ComplexRational(0).is_zero()


def test_coerce():
    assert ComplexRational.coerce(3) == ComplexRational(3)
    assert ComplexRational.coerce(Fraction(1, 3)) == ComplexRational(Fraction(1, 3))
    c = ComplexRational(1, 2)
    assert ComplexRational.coerce(c) is c
    with pytest.raises(TypeError):
        ComplexRational.coerce(0.5)


def test_immutable():
    c = ComplexRational(1, 2)
    with pytest.raises(AttributeError):
        c.re = Fraction(2)


@given(scalars, scalars)
def test_arithmetic_matches_complex(a, b):
    for op in ("__add__", "__sub__", "__mul__"):
        exact = getattr(a, op)(b)
        approx = getattr(complex(a), op)(complex(b))
        assert abs(complex(exact) - approx) < 1e-9


@given(scalars, scalars)
def test_division_round_trip(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


@given(scalars)
def test_conjugate_involutive(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).is_real()
    assert a.abs2() == a.re * a.re + a.im * a.im


@given(scalars, scalars)
def test_one_norm_sub_laws(a, b):
    assert (a + b).one_norm() <= a.one_norm() + b.one_norm()
    assert (a * b).one_norm() <= a.one_norm() * b.one_norm()


def test_power():
    i = ComplexRational(0, 1)
    assert i ** 2 == ComplexRational(-1)
    assert i ** 0 == ComplexRational(1)
    c = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    assert c ** 3 == c * c * c
    product = ComplexRational(1)
    for n in range(12):
        assert c ** n == product
        product = product * c


def test_operators_defer_to_polynomials():
    p = disk().gen("z") + ComplexRational(1, -1)
    two = ComplexRational(2)
    assert two * p == 2 * p
    assert two + p == 2 + p
    assert two - p == 2 - p
    for bad in (0.5, "2", p):
        with pytest.raises(TypeError):
            two / bad
    with pytest.raises(TypeError):
        two * 0.5


def test_float_conversion_out_of_range():
    assert complex(ComplexRational(Fraction(1, 3), -2)) == complex(1 / 3, -2)
    for big in (ComplexRational(10 ** 400), ComplexRational(0, -10 ** 400)):
        with pytest.raises(AlgebraError, match="floating point overflow"):
            complex(big)


def _float_or_overflow(q):
    try:
        return repr(float(q))
    except OverflowError:
        return "overflow"


wide_ints = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.integers(-2 ** 1100, 2 ** 1100))


@given(wide_ints, wide_ints.map(lambda d: abs(d) + 1), st.integers(1, 10 ** 6))
@example(2 ** 1024 - 2 ** 970, 1, 1)  # the float maximum's rounding boundary
@example(2 ** 1024 - 2 ** 971, 1, 3)
@example(-(10 ** 400), 3, 1)
@example(1, 2 ** 1075, 5)  # the smallest subnormal's rounding boundary
def test_float_conversion_matches_float_of_fraction(x, den, k):
    """to_float, ratio_to_float and complex() divide the numerators and
    round as float(Fraction) does; past the float range they raise."""
    q = Fraction(x, den)
    want = _float_or_overflow(q)
    results = []
    for convert in (lambda: to_float(q), lambda: ratio_to_float(x * k, den * k),
                    lambda: complex(ComplexRational(q, -q)).real,
                    lambda: complex(ComplexRational(-q, q)).imag):
        try:
            results.append(repr(convert()))
        except AlgebraError as exc:
            assert "floating point overflow" in str(exc)
            results.append("overflow")
    assert results == [want] * 4


def test_sqrt_of_exact_square():
    rng = Random(11)
    for _ in range(200):
        q = Fraction(rng.randrange(10 ** rng.randrange(1, 30)), rng.randrange(1, 10 ** 6))
        assert sqrt_to_float(q) == math.sqrt(float(q))
    # past the float range only the square: the root is found, never rounded up
    for q in (Fraction(10 ** 400), Fraction(10 ** 400 + 1, 3), Fraction(2 ** 1100 - 1),
              Fraction(3 ** 700, 7), Fraction(2) ** 2047):
        root = sqrt_to_float(q)
        assert Fraction(root) ** 2 <= q
        assert root == pytest.approx(math.exp(math.log(q.numerator) / 2
                                              - math.log(q.denominator) / 2), rel=1e-12)
    with pytest.raises(AlgebraError, match="floating point overflow"):
        sqrt_to_float(Fraction(10 ** 700))


def test_literals():
    assert ComplexRational(3).literal() == "3"
    assert ComplexRational(Fraction(-1, 2)).literal() == "-1/2"
    assert ComplexRational(1, 2).literal() == "(1+2i)"
    assert ComplexRational(0, Fraction(-1, 2)).literal() == "(0-1/2i)"


def test_literal_past_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    at_limit = Fraction(1, 10 ** (limit - 1))
    assert rational_literal(at_limit) == str(at_limit)
    past = ComplexRational(1, Fraction(1, 10 ** limit))
    message = f"too long to print: it has more than {limit} digits"
    with pytest.raises(UnsupportedError, match=message):
        past.literal()
    with pytest.raises(UnsupportedError, match=message):
        rational_literal(-(10 ** limit))


def test_equality_with_numbers_and_hash():
    assert ComplexRational(3) == 3
    assert ComplexRational(Fraction(1, 2)) == Fraction(1, 2)
    assert ComplexRational(1, 1) != 1
    assert hash(ComplexRational(Fraction(3, 4))) == hash(Fraction(3, 4))
    d = {ComplexRational(2): "a"}
    assert d[ComplexRational(2)] == "a"


def test_random_field_laws():
    rng = Random(7)
    for _ in range(200):
        a = ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        b = ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        c = ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(exact_values)
def test_numerators_round_trip_over_the_least_denominator(values):
    den, re, im = to_numerators(values)
    assert from_numerators(den, re, im) == values
    parts = [q for v in map(ComplexRational.coerce, values) for q in (v.re, v.im)]
    assert den == math.lcm(*(q.denominator for q in parts))
    assert all(type(x) is int for x in re + im)
    assert math.gcd(den, *re, *im) == 1


def test_numerators_of_nothing():
    assert to_numerators([]) == (1, [], [])
    assert from_numerators(1, [], []) == []
    assert to_numerators([Fraction(-1, 6), ComplexRational(0, Fraction(3, 4))]) \
        == (12, [-2, 0], [0, 9])
