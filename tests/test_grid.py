"""The exact seminorm grid maximum against character evaluation.

``seminorm_on_box`` evaluates a polynomial subject on the corner of the grid
and extends longer axes by forward differences.  The reference here
evaluates the subject with ``gelfand_eval`` at every point of
``box.grid_points(resolution)``; the squared maxima must be equal as
Fractions, and the upper end must be the coefficient bound.

This file imports no numpy, so it also runs where numpy is not installed:
the exact grid must not need it.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gelfand_lab as gl
from gelfand_lab import ComplexRational, CompactBox

from helpers import disk, line, plain

GRID_PRESENTATIONS = {
    "line": line,
    "disk": disk,
    "pair": lambda: gl.parse_presentation("algebra Pair ; generator z, w : free ;"),
    "plain": plain,  # algebra mode: x has no adjoint partner
    "mixed": lambda: gl.parse_presentation(
        "algebra Mixed ; generator x : selfadjoint ; generator z : free ;"),
}

grid_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7]))
grid_widths = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2, 7),
                               Fraction(1), Fraction(5, 2)])


@st.composite
def grid_cases(draw):
    pres = GRID_PRESENTATIONS[draw(st.sampled_from(sorted(GRID_PRESENTATIONS)))]()
    dim = sum(n for _, n in gl.axis_layout(pres))
    intervals = [(lo, lo + draw(grid_widths))
                 for lo in draw(st.lists(grid_fractions, min_size=dim, max_size=dim))]
    monos = st.tuples(*[st.integers(0, 3)] * len(pres.generators))
    table = draw(st.dictionaries(
        monos, st.builds(ComplexRational, grid_fractions, grid_fractions), max_size=4))
    # a generator is extended from its corner, its first d + 1 points per
    # axis for d the largest p + q of its factors, when the corner is at
    # most half of the axis: exponents up to 3 give d <= 6, so resolutions
    # up to 12 reach that on one- and two-axis boxes
    resolution = draw(st.integers(2, 12 if dim <= 2 else 4))
    return pres.poly(table), CompactBox.from_intervals(pres, intervals), resolution


def assert_grid_bracket_exact(a, box, resolution):
    est = gl.seminorm_on_box(a, box, resolution=resolution)
    assert est.lower_sq == max(gl.gelfand_eval(a, p).abs2()
                               for p in box.grid_points(resolution))
    assert est.upper_exact == gl.coefficient_bound(a, box)


@given(grid_cases())
def test_seminorm_grid_matches_character_evaluation(case):
    assert_grid_bracket_exact(*case)


@pytest.mark.parametrize("pres_name, poly, box, resolution", [
    ("line", "0", "x = [-1, 2]", 5),
    ("disk", "(3/7-2i)", "z = [-1, 1] x [0, 1/2]", 4),
    ("line", "x^3 - 1/3*x + 2", "x = [1/3, 1/3]", 4),
    ("disk", "z^2*adj(z) + 1/7*z - (0+1/3i)", "z = [-1/3, 2/7] x [1/7, 2/3]", 6),
    ("pair", "z*adj(w) + w^2 - 1/2", "z = [-1, 1/3] x [0, 2/7] ; w = [1, 1] x [-1/7, 1]", 2),
    ("plain", "x^2 + (0+1i)*x - 1/3", "x = [-1/3, 1/2] x [1/7, 1]", 5),
    # a corner of d + 1 points per axis, extended by forward differences
    ("line", "x^8 - 3*x^5 + 1/3*x - 2/7", "x = [-2/3, 5/7]", 257),
    ("disk", "(2-1i)*z^2*adj(z) + z - 1/3", "z = [-1/2, 1] x [-1/3, 2/7]", 4),
    ("disk", "(2-1i)*z^2*adj(z) + z - 1/3", "z = [-1/2, 1] x [-1/3, 2/7]", 3),
    ("disk", "(2-1i)*z^2*adj(z) + z - 1/3", "z = [-1/2, 1] x [-1/3, 2/7]", 11),
    ("pair", "w*adj(w) - (1/3+1i)*w", "z = [-1, 1] x [0, 1] ; w = [-1/2, 1/3] x [1/7, 1]", 6),
    ("line", "x^3 - 1/3*x + 2", "x = [1/3, 1/3]", 9),
    ("disk", "z^2 - adj(z) + (0+1/2i)", "z = [1/3, 1/3] x [-1, 2/7]", 7),
    ("pair", "z^3*adj(z) + (1-1/2i)*w*adj(w) - 1/2",
     "z = [-1/2, 1/3] x [-1, 2/7] ; w = [-1/3, 1] x [0, 1/7]", 6),
    ("pair", "z*adj(z) + (1-1/2i)*w^2 - 1/2",
     "z = [-1/2, 1/3] x [-1, 2/7] ; w = [-1/3, 1] x [0, 1/7]", 6),
    ("plain", "x^2 + (0+1i)*x - 1/3", "x = [-1/3, 1/2] x [1/7, 1]", 9),
    ("mixed", "x^2*z - (1/2+1i)*adj(z)*x + 1/3", "x = [-1, 1/2] ; z = [0, 2/7] x [-1/3, 1]", 6),
    ("mixed", "x*z^2*adj(z) - 1/3*x + adj(z)", "x = [-1, 1/2] ; z = [0, 2/7] x [-1/3, 1]", 6),
], ids=["zero", "constant", "degenerate", "thirds-sevenths", "pair-res2", "unpaired",
        "line-degree8-res257", "res-equals-corner", "res-below-corner", "disk-extended",
        "constant-axes", "zero-width-extended", "zero-width-axis", "pair-one-extended",
        "pair-equal-corners", "unpaired-extended", "mixed-pair-extended",
        "mixed-line-extended"])
def test_seminorm_grid_edge_cases(pres_name, poly, box, resolution):
    pres = GRID_PRESENTATIONS[pres_name]()
    assert_grid_bracket_exact(gl.parse_poly(poly, pres), gl.parse_box(box, pres),
                              resolution)
