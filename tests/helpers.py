"""Seeded random builders shared across the suite.

Every function takes an explicit random.Random so failures replay exactly.
"""

from fractions import Fraction
from random import Random

from gelfand_lab import (ComplexRational, Morphism, StarPresentation,
                         parse_presentation, validate_character)

LINE = "algebra Line ; generator x : selfadjoint ;"
DISK = "algebra Disk ; generator z : free ;"
NIL = "algebra Nil ; generator x : selfadjoint ; relation x^2 ;"
CIRCLE = "algebra Circle ; generator z : free ; relation z*adj(z) - 1 ;"
SPHERE = ("algebra Sphere ; generator x, y, z : selfadjoint ; "
          "relation x^2 + y^2 + z^2 - 1 ;")


def line() -> StarPresentation:
    return parse_presentation(LINE)


def disk() -> StarPresentation:
    return parse_presentation(DISK)


def nil() -> StarPresentation:
    return parse_presentation(NIL)


def circle() -> StarPresentation:
    return parse_presentation(CIRCLE)


def sphere() -> StarPresentation:
    return parse_presentation(SPHERE)


def plain(text: str = "algebra P ; generator x : free ;") -> StarPresentation:
    return parse_presentation(text, mode="algebra")


def rand_fraction(rng: Random, span: int = 8, max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_scalar(rng: Random, span: int = 8) -> ComplexRational:
    return ComplexRational(rand_fraction(rng, span), rand_fraction(rng, span))


def rand_real_scalar(rng: Random, span: int = 8) -> ComplexRational:
    return ComplexRational(rand_fraction(rng, span))


def rand_poly(pres: StarPresentation, rng: Random, max_degree: int = 4,
              max_terms: int = 5):
    n = len(pres.generators)
    table = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(n)] += 1
        table[tuple(mono)] = rand_scalar(rng)
    return pres.poly(table)


def rand_character(pres: StarPresentation, rng: Random, span: int = 8):
    """A random exact character of a relation-free presentation."""
    values = {}
    for i, g in enumerate(pres.generators):
        a = pres.adjoint[i]
        if a is None:
            values[g] = rand_scalar(rng, span)
        elif a == i:
            values[g] = rand_real_scalar(rng, span)
        elif a > i:
            v = rand_scalar(rng, span)
            values[g] = v
            values[pres.generators[a]] = v.conjugate()
    return validate_character(pres, values)


def rand_morphism(source: StarPresentation, target: StarPresentation,
                  rng: Random, max_degree: int = 2,
                  max_terms: int = 3) -> Morphism:
    """A random morphism out of a relation-free source; *-compatible when
    both sides carry an involution."""
    images = {}
    for i, g in enumerate(source.generators):
        a = source.adjoint[i]
        if a is not None and a < i:
            continue
        img = rand_poly(target, rng, max_degree, max_terms)
        images[g] = img
        if a is not None and a > i:
            images[source.generators[a]] = img.involute()
    star = source.is_star and target.is_star
    return Morphism.create(source, target, images, star=star)
