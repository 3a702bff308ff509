"""The integer form that is every StarPoly's one stored normal form.

``StarPoly.int_form`` is ``(den, {mono: (re, im)})`` in the
``scalars.to_numerators`` format.  Sums, products, powers and the
involution compute on it, so after every operation it must be canonical:
descending graded-lex, irreducible, no zero entry, in lowest terms.
Equality, hashing and the queries read it, and ``terms`` is derived from
it, so each must agree with the derived terms.  ``Morphism.apply`` is
checked against an expansion of the image tables with no rewriting,
normalized once.
"""

import math
import time
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gelfand_lab as gl
from gelfand_lab import ComplexRational, Morphism
from gelfand_lab.algebra import (MAX_POWER_TERMS, StarPoly, grlex_key, mono_divides,
                                 normalize_table)
from gelfand_lab.errors import UnsupportedError
from gelfand_lab.scalars import ONE, ZERO, to_numerators

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
    """int_form is descending graded-lex and irreducible, and it is
    to_numerators of the terms, in their order, gcd 1."""
    den, table = p.int_form
    assert list(table) == sorted(table, key=grlex_key, reverse=True)
    assert not any(mono_divides(rule.lead, m) for rule in p.pres.rules() for m in table)
    assert list(table) == [m for m, _ in p.terms]
    coeffs = [c for _, c in p.terms]
    assert (den, [x for x, _ in table.values()], [y for _, y in table.values()]) \
        == to_numerators(coeffs)
    assert den > 0 and all(x or y for x, y in table.values())
    assert math.gcd(den, *(x for pair in table.values() for x in pair)) == 1


def assert_queries_agree(p):
    """==, hash and the queries that read int_form agree with the terms."""
    pres, terms = p.pres, p.terms
    again = pres.poly(p.as_table())
    assert p == again and hash(p) == hash(again)
    assert p.is_zero() == (not terms)
    assert p.degree() == (sum(terms[0][0]) if terms else -1)
    for m, c in terms:
        assert p.coeff(m) == c
    absent = (p.degree() + 1,) * len(pres.generators)
    assert p.coeff(absent) == ZERO
    assert p.constant_term() == dict(terms).get((0,) * len(pres.generators), ZERO)


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
    results = [a, b, a + b, a - b, a - a, -a, a * c, c * a, a + c, c - a, a * b, a ** n,
               StarPoly(pres, a.terms), gl.parse_poly(gl.format_poly(a), pres),
               pres.zero(), pres.one()]
    if pres.is_star:
        results.append(a.involute())
    for p in results:
        assert_canonical(p)
        assert_queries_agree(p)
    assert a * b == b * a and (a + b) - b == a and a ** n * a == a ** (n + 1)


@st.composite
def morphism_cases(draw):
    target = PARSED[draw(st.sampled_from(sorted(TARGETS)))]
    source = PARSED[draw(st.sampled_from(sorted(SOURCES)))]
    images = [draw(elements(target, max_exponent=2, max_size=3))
              for _ in source.generators]
    return Morphism.create(source, target, images), \
        draw(elements(source, max_exponent=5, max_size=5))


def expand_without_rewriting(f, a):
    """The image of a as a raw table: each term times its generators'
    image tables, multiplied out in ComplexRational with no rewriting."""
    total = {}
    for mono, coeff in a.terms:
        table = {(0,) * len(f.target.generators): coeff}
        for img, e in zip(f.images, mono):
            for _ in range(e):
                product = {}
                for m, c in table.items():
                    for n, d in img.terms:
                        key = tuple(map(add, m, n))
                        product[key] = product.get(key, ZERO) + c * d
                table = product
        for m, c in table.items():
            total[m] = total.get(m, ZERO) + c
    return total


def past_power_cap(f, a):
    """True when some image is raised to an exponent e in use with
    C(e * deg + k, k) > MAX_POWER_TERMS on k target generators."""
    k = len(f.target.generators)
    return any(e and img.degree() > 0
               and math.comb(e * img.degree() + k, k) > MAX_POWER_TERMS
               for mono in a.as_table() for img, e in zip(f.images, mono))


# the cap's edge on the sphere: C(22 + 3, 3) = 2300 passes, C(23 + 3, 3) = 2600 not
Y_ON_SPHERE = Morphism.create(PARSED["line"], PARSED["sphere"], [PARSED["sphere"].gen("y")])


@settings(max_examples=60, deadline=None)
@given(morphism_cases())
@example((Y_ON_SPHERE, PARSED["line"].poly({(22,): ONE})))
@example((Y_ON_SPHERE, PARSED["line"].poly({(23,): ONE})))
def test_apply_matches_term_by_term_substitution(case):
    f, a = case
    if past_power_cap(f, a):
        with pytest.raises(UnsupportedError, match="power expansion"):
            f.apply(a)
        return
    image = f.apply(a)
    expected, _ = normalize_table(f.target.rules(), expand_without_rewriting(f, a))
    assert image.terms == expected
    assert image == StarPoly(f.target, expected)
    assert_canonical(image)


def test_apply_of_a_constant_image_squares():
    # a degree-0 image is not capped; its powers come by square-and-multiply
    line = PARSED["line"]
    f = Morphism.create(line, line, [line.scalar(2)])
    start = time.perf_counter()
    assert f.apply(line.poly({(10**5,): ONE})) == line.scalar(2 ** 10**5)
    assert time.perf_counter() - start < 1.0



def test_apply_checks_the_power_cap_before_expanding():
    disk, sphere = PARSED["disk"], PARSED["sphere"]
    x, y = sphere.gen("x"), sphere.gen("y")
    f = Morphism.create(disk, sphere, [x ** 2 * y ** 3, x])
    with pytest.raises(UnsupportedError, match=r"C\(5\*5 \+ 3, 3\) monomials"):
        f.apply(disk.gen("z") ** 5)
