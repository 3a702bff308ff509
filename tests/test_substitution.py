"""The one substitution loop and the one square-and-multiply, against the
per-caller loops they replaced.

``algebra.substitute`` evaluates a character's transform (exact and float),
a morphism's image and the coefficient bound; ``scalars.power`` raises
polynomials and scalars to powers.  The references below are the loops each
caller used to run on its own, kept verbatim so the shared code is checked
against them on random inputs: exact results must be ``==``, float results
``repr``-equal (same operations in the same order, signed zeros included).
"""

import cmath
import math
from fractions import Fraction
from random import Random

import pytest

import gelfand_lab as gl
from gelfand_lab import CompactBox, ComplexRational, Morphism
from gelfand_lab.errors import MorphismError, UnsupportedError

from helpers import (circle, disk, line, rand_character, rand_fraction,
                     rand_poly, rand_scalar, sphere)

PRESENTATIONS = {"line": line, "disk": disk, "circle": circle, "sphere": sphere}


# ---------------------------------------------------------------------------
# references: the loops that substitute and power replaced
# ---------------------------------------------------------------------------

def reference_eval_exact(terms, values):
    total = ComplexRational(0)
    for mono, coeff in terms:
        acc = coeff
        for i, e in enumerate(mono):
            if e:
                acc = acc * (values[i] ** e)
        total = total + acc
    return total


def reference_eval_float(terms, values):
    total_f = 0j
    for mono, coeff in terms:
        acc_f = complex(coeff)
        for i, e in enumerate(mono):
            if e:
                acc_f *= values[i] ** e
        total_f += acc_f
    return total_f


def reference_apply_table(f, table):
    total = f.target.zero()
    for mono, coeff in table.items():
        factor = f.target.one()
        for i, e in enumerate(mono):
            if e:
                factor = factor * (f.images[i] ** e)
        total = total + factor * coeff
    return total


def reference_coefficient_bound(a, box):
    gen_bounds = [box.modulus_bound(i) for i in range(len(a.pres.generators))]
    total = Fraction(0)
    for mono, coeff in a.terms:
        piece = coeff.one_norm()
        for i, e in enumerate(mono):
            if e:
                piece *= gen_bounds[i] ** e
        total += piece
    return total


def reference_power(base, n, one):
    result = one
    for _ in range(n):
        result = result * base
    return result


# ---------------------------------------------------------------------------
# random characters on the line, disk, circle and sphere
# ---------------------------------------------------------------------------

def exact_character(name, pres, rng):
    """A random exact character; circle and sphere points are rational
    points from the inverse stereographic projection."""
    if name in ("line", "disk"):
        return rand_character(pres, rng)
    if name == "circle":
        t = rand_fraction(rng)
        d = 1 + t * t
        z = ComplexRational((1 - t * t) / d, 2 * t / d)
        return gl.validate_character(pres, {"z": z})
    u, v = rand_fraction(rng), rand_fraction(rng)
    d = 1 + u * u + v * v
    point = (2 * u / d, 2 * v / d, (u * u + v * v - 1) / d)
    return gl.validate_character(
        pres, {g: ComplexRational(c) for g, c in zip("xyz", point)})


def rand_float(rng):
    """Mostly random floats, sometimes a signed zero."""
    return rng.choice([0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-3, 3)])


def float_character(name, pres, rng):
    if name == "line":
        values = {"x": complex(rand_float(rng), 0.0)}
    elif name == "disk":
        values = {"z": complex(rand_float(rng), rand_float(rng))}
    elif name == "circle":
        values = {"z": cmath.exp(1j * rng.uniform(-math.pi, math.pi))}
    else:
        vec = [rng.gauss(0, 1) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in vec))
        values = {g: complex(c / norm, 0.0) for g, c in zip("xyz", vec)}
    char = gl.validate_character(pres, values)
    assert not char.exact
    return char


# ---------------------------------------------------------------------------
# gelfand_eval
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_exact_eval_matches_reference_loop(name):
    rng = Random(101)
    pres = PRESENTATIONS[name]()
    for _ in range(60):
        a = rand_poly(pres, rng, max_degree=5, max_terms=6)
        p = exact_character(name, pres, rng)
        value = gl.gelfand_eval(a, p)
        assert isinstance(value, ComplexRational)
        assert value == reference_eval_exact(a.terms, p.values)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_float_eval_is_bit_identical_to_reference_loop(name):
    rng = Random(202)
    pres = PRESENTATIONS[name]()
    for _ in range(120):
        a = rand_poly(pres, rng, max_degree=5, max_terms=6)
        p = float_character(name, pres, rng)
        assert repr(gl.gelfand_eval(a, p)) == \
            repr(reference_eval_float(a.terms, p.values))


def test_float_eval_sum_starts_from_positive_zero():
    # the only term is -1 * (0+0j) = (-0+0j); added to the starting 0j it
    # gives 0j, where a sum seeded with the first term would keep the -0.0
    pres = line()
    a = gl.parse_poly("-x", pres)
    p = gl.validate_character(pres, {"x": 0.0})
    assert repr(gl.gelfand_eval(a, p)) == \
        repr(reference_eval_float(a.terms, p.values)) == "0j"


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source_name", ["line", "disk"])
@pytest.mark.parametrize("target_name", sorted(PRESENTATIONS))
def test_morphism_apply_matches_reference_loop(source_name, target_name):
    rng = Random(303)
    source = PRESENTATIONS[source_name]()
    target = PRESENTATIONS[target_name]()
    for _ in range(15):
        images = [rand_poly(target, rng, max_degree=2, max_terms=3)
                  for _ in source.generators]
        f = Morphism.create(source, target, images)
        a = rand_poly(source, rng, max_degree=4, max_terms=5)
        assert f.apply(a) == reference_apply_table(f, a.as_table())


@pytest.mark.parametrize("target_name", sorted(PRESENTATIONS))
def test_morphism_apply_with_shared_powers_matches_reference_loop(target_name):
    # every exponent of z and of adj(z) appears in several terms, so apply
    # reads most image powers from its table
    rng = Random(808)
    source, target = disk(), PRESENTATIONS[target_name]()
    for _ in range(10):
        images = [rand_poly(target, rng, max_degree=2, max_terms=3)
                  for _ in source.generators]
        f = Morphism.create(source, target, images)
        exponents = rng.sample(range(5), 3)
        a = source.poly({(i, j): ComplexRational(rng.randint(1, 5), rng.randint(-5, 5))
                         for i in exponents for j in exponents})
        assert f.apply(a) == reference_apply_table(f, a.as_table())


def test_morphism_apply_past_the_power_cap_raises_the_message_of_pow():
    disk_pres, sphere_pres = disk(), sphere()
    x, y = sphere_pres.gen("x"), sphere_pres.gen("y")
    image = x ** 2 * y ** 3
    f = Morphism.create(disk_pres, sphere_pres, [image, x])
    z, adj_z = disk_pres.gen(0), disk_pres.gen(1)
    with pytest.raises(UnsupportedError) as want:
        image ** 5
    with pytest.raises(UnsupportedError) as got:
        f.apply(z ** 5 + z ** 5 * adj_z + z ** 2)
    assert str(got.value) == str(want.value)
    assert "exceeds the cap of 2500" in str(got.value)


def circle_images(target, rng):
    """Images of (z, adj(z)) in the circle: c * w^k, which kills
    z*adj(z) - 1 exactly when |c| = 1, or a random element."""
    w = target.gen("z")
    unit = rng.choice([ComplexRational(1), ComplexRational(-1),
                       ComplexRational(0, 1), ComplexRational(3, 4),
                       ComplexRational(Fraction(3, 5), Fraction(4, 5))])
    if rng.random() < 0.25:
        img = rand_poly(target, rng, max_degree=2, max_terms=3)
    else:
        img = w ** rng.randint(0, 3) * unit
    return [img, img.involute()]


def sphere_images(target, rng):
    """Images of (x, y, z) in the sphere: a signed permutation of the
    coordinates kills the relation, a scaled one does not."""
    gens = [target.gen(g) for g in "xyz"]
    rng.shuffle(gens)
    images = [g * rng.choice([1, -1]) for g in gens]
    if rng.random() < 0.3:
        images[rng.randrange(3)] *= ComplexRational(rng.choice([2, Fraction(1, 2)]))
    if rng.random() < 0.2:
        images[rng.randrange(3)] = rand_poly(target, rng, max_degree=2, max_terms=2)
    return images


@pytest.mark.parametrize("name", ["circle", "sphere"])
def test_morphism_create_relation_check_matches_reference_loop(name):
    rng = Random(404)
    pres = PRESENTATIONS[name]()
    make_images = circle_images if name == "circle" else sphere_images
    accepted = rejected = 0
    for _ in range(40):
        images = tuple(make_images(pres, rng))
        unchecked = Morphism(pres, pres, images, star=False)
        killed = [reference_apply_table(unchecked, dict(rel)).is_zero()
                  for rel in pres.relations]
        if all(killed):
            f = Morphism.create(pres, pres, images)
            assert f.images == images
            accepted += 1
        else:
            with pytest.raises(MorphismError,
                               match=f"relation {killed.index(False)}$"):
                Morphism.create(pres, pres, images)
            rejected += 1
    assert accepted and rejected


# ---------------------------------------------------------------------------
# coefficient bound (boxes need relation-free presentations)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["line", "disk"])
def test_coefficient_bound_matches_reference_loop(name):
    rng = Random(505)
    pres = PRESENTATIONS[name]()
    axes = sum(n for _, n in gl.axis_layout(pres))
    for _ in range(60):
        intervals = [sorted((rand_fraction(rng), rand_fraction(rng)))
                     for _ in range(axes)]
        box = CompactBox.from_intervals(pres, intervals)
        a = rand_poly(pres, rng, max_degree=5, max_terms=6)
        bound = gl.coefficient_bound(a, box)
        assert isinstance(bound, Fraction)
        assert bound == reference_coefficient_bound(a, box)


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_poly_power_matches_repeated_products(name):
    rng = Random(606)
    pres = PRESENTATIONS[name]()
    for _ in range(4):
        # rand_poly draws complex coefficients
        a = rand_poly(pres, rng, max_degree=2, max_terms=3)
        for n in range(12):
            assert a ** n == reference_power(a, n, pres.one())


def test_scalar_power_matches_repeated_products():
    rng = Random(707)
    for _ in range(20):
        c = rand_scalar(rng)
        for n in range(12):
            assert c ** n == reference_power(c, n, ComplexRational(1))
