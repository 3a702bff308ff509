"""The integer form every StarPoly keeps beside its terms.

``StarPoly.int_form`` is ``(den, {mono: (re, im)})`` in the
``scalars.to_numerators`` format.  Sums, products, powers, the involution
and ``Morphism.apply`` compute on it, so after every operation it must be
``to_numerators`` of the terms, in the terms' order and in lowest terms.
``Morphism.apply`` is checked against the term-by-term ``substitute`` it
replaced.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gelfand_lab as gl
from gelfand_lab import ComplexRational, Morphism
from gelfand_lab.algebra import StarPoly, substitute
from gelfand_lab.errors import UnsupportedError
from gelfand_lab.scalars import to_numerators

from helpers import CIRCLE, DISK, LINE, SPHERE

TARGETS = {
    "circle": CIRCLE,
    "sphere": SPHERE,
    "nil": "algebra Nil ; generator x, y : selfadjoint ; relation x^3 ; relation y^2 ;",
}
SOURCES = {
    "line": LINE,
    "disk": DISK,
    "pair": "algebra Pair ; generator a : selfadjoint ; generator b : free ;",
}
PARSED = {name: gl.parse_presentation(text) for name, text in {**TARGETS, **SOURCES}.items()}

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
scalars = st.builds(ComplexRational, small_fractions, small_fractions)


def elements(pres, max_exponent=3, max_size=4):
    monos = st.tuples(*[st.integers(0, max_exponent)] * len(pres.generators))
    return st.dictionaries(monos, scalars, max_size=max_size).map(pres.poly)


def assert_canonical(p):
    """int_form is to_numerators of the terms, in their order, gcd 1."""
    den, table = p.int_form
    assert list(table) == [m for m, _ in p.terms]
    coeffs = [c for _, c in p.terms]
    assert (den, [x for x, _ in table.values()], [y for _, y in table.values()]) \
        == to_numerators(coeffs)
    assert den > 0 and all(x or y for x, y in table.values())
    assert math.gcd(den, *(x for pair in table.values() for x in pair)) == 1


@st.composite
def operands(draw):
    pres = PARSED[draw(st.sampled_from(sorted(PARSED)))]
    # degree <= 6 on three generators keeps a**3 under MAX_POWER_TERMS
    return pres, draw(elements(pres, max_exponent=2)), draw(elements(pres, max_exponent=2)), \
        draw(scalars), draw(st.integers(0, 2))


HALF_X = {(1,): ComplexRational(Fraction(1, 2))}


@settings(max_examples=60, deadline=None)
@given(operands())
# x/2 + x/2 is x: the sum over den 2 has the common factor 2
@example((PARSED["line"], PARSED["line"].poly(HALF_X), PARSED["line"].poly(HALF_X),
          ComplexRational(2), 2))
def test_int_form_is_canonical_after_every_operation(case):
    pres, a, b, c, n = case
    results = [a, b, a + b, a - b, -a, a * c, c * a, a + c, c - a, a * b, a ** n,
               StarPoly(pres, a.terms), gl.parse_poly(gl.format_poly(a), pres)]
    if pres.is_star:
        results.append(a.involute())
    for p in results:
        assert_canonical(p)
    assert a * b == b * a and (a + b) - b == a and a ** n * a == a ** (n + 1)


@st.composite
def morphism_cases(draw):
    target = PARSED[draw(st.sampled_from(sorted(TARGETS)))]
    source = PARSED[draw(st.sampled_from(sorted(SOURCES)))]
    images = [draw(elements(target, max_exponent=2, max_size=3))
              for _ in source.generators]
    return Morphism.create(source, target, images), \
        draw(elements(source, max_exponent=5, max_size=5))


@settings(max_examples=60, deadline=None)
@given(morphism_cases())
def test_apply_matches_term_by_term_substitution(case):
    f, a = case
    try:
        expected = substitute(a.terms, f.images, f.target.zero())
    except UnsupportedError:  # a power of an image is past MAX_POWER_TERMS
        with pytest.raises(UnsupportedError, match="power expansion"):
            f.apply(a)
        return
    image = f.apply(a)
    assert image == expected
    assert_canonical(image)



def test_apply_checks_the_power_cap_before_expanding():
    disk, sphere = PARSED["disk"], PARSED["sphere"]
    x, y = sphere.gen("x"), sphere.gen("y")
    f = Morphism.create(disk, sphere, [x ** 2 * y ** 3, x])
    with pytest.raises(UnsupportedError, match=r"C\(5\*5 \+ 3, 3\) monomials"):
        f.apply(disk.gen("z") ** 5)
