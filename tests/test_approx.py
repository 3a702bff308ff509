import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import gelfand_lab as gl
from gelfand_lab import ComplexRational, CompactBox, TargetFunction, approx
from gelfand_lab.errors import AlgebraError, UnsupportedError

from helpers import circle, disk, line, plain, rand_poly

# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


def test_seminorm_known_values():
    p = line()
    box = gl.parse_box("x = [0, 2]", p)
    a = gl.parse_poly("x^2 - 1", p)
    est = gl.seminorm_on_box(a, box, resolution=33)
    # grid contains both endpoints; the sup is 3 at x = 2
    assert est.lower == 3.0
    assert est.exact
    assert est.upper_exact == 5  # |−1| + |1| * 2^2
    assert est.lower <= est.upper


def test_seminorm_bracketing_random():
    rng = Random(51)
    p = line()
    d = disk()
    boxes = [gl.parse_box("x = [-1, 1]", p),
             gl.parse_box("x = [0, 3]", p),
             gl.parse_box("z = [-1, 1] x [-1, 1]", d)]
    for box in boxes:
        for _ in range(40):
            a = rand_poly(box.pres, rng, max_degree=4, max_terms=4)
            est = gl.seminorm_on_box(a, box, resolution=9)
            assert est.lower <= est.upper * (1 + 1e-12)
            finer = gl.seminorm_on_box(a, box, resolution=17)
            # 17 = 2*9 - 1 nests the coarse grid, so the lower bound
            # cannot decrease
            assert finer.lower_sq >= est.lower_sq
            assert finer.upper == est.upper


def test_seminorm_sub_laws_exact():
    rng = Random(53)
    p = line()
    box = gl.parse_box("x = [-2, 2]", p)
    for _ in range(60):
        a = rand_poly(p, rng, max_degree=3, max_terms=3)
        b = rand_poly(p, rng, max_degree=3, max_terms=3)
        ua = gl.seminorm_on_box(a, box, resolution=5).upper_exact
        ub = gl.seminorm_on_box(b, box, resolution=5).upper_exact
        us = gl.seminorm_on_box(a + b, box, resolution=5).upper_exact
        up = gl.seminorm_on_box(a * b, box, resolution=5).upper_exact
        assert us <= ua + ub
        assert up <= ua * ub


def test_seminorm_rejects_relation_boxes():
    with pytest.raises(UnsupportedError):
        gl.parse_box("x = [0, 1]", gl.parse_presentation(
            "algebra N ; generator x : selfadjoint ; relation x^2 ;"))


def test_seminorm_of_target_function():
    f = gl.catalog_target("square")
    box = gl.parse_box("t = [0, 1]",
                       gl.parse_presentation(
                           "algebra T ; generator t : selfadjoint ;"))
    est = gl.seminorm_on_box(f, box, resolution=101)
    assert est.lower == pytest.approx(1.0)
    assert est.lower <= est.upper


def reference_target_grid_max(f, box, resolution):
    """The float grid maximum point by point, as first written: numpy
    coordinates, Python abs and max (which skips NaN)."""
    axes = [np.linspace(float(lo), float(hi), resolution) for lo, hi in box.intervals]
    best = 0.0
    for point in itertools.product(*axes):
        best = max(best, abs(f.fn(tuple(point))))
    return best


@pytest.mark.parametrize("f, box, resolution, block", [
    (gl.catalog_target("exp"), "t1 = [-1/3, 5/7]", 1001, None),
    (TargetFunction("wave", 1, fn=lambda p: complex(math.cos(7 * p[0]), p[0] ** 3)),
     "t1 = [-1, 2]", 999, 100),
    (TargetFunction("hole", 1, fn=lambda p: math.nan if 0.3 < p[0] < 0.4 else p[0]),
     "t1 = [0, 1]", 101, None),
    (TargetFunction("plane", 2, fn=lambda p: complex(math.sin(p[0]) * p[1], p[0] - p[1])),
     "t1 = [-1/3, 5/7] ; t2 = [1/5, 3]", 57, 1000),
    (TargetFunction("cube", 3, fn=lambda p: p[0] * p[1] - abs(p[2] - 0.5)),
     "t1 = [0, 1] ; t2 = [-1, 1] ; t3 = [1/7, 2]", 13, None),
], ids=["line", "line-complex-blocks", "line-nan", "plane-blocks", "cube"])
def test_seminorm_of_target_matches_point_loop(monkeypatch, f, box, resolution, block):
    # bit equality, also when the grid is evaluated in several blocks
    if block is not None:
        monkeypatch.setattr(approx, "GRID_BLOCK", block)
    names = ", ".join(f"t{i + 1}" for i in range(f.dim))
    box = gl.parse_box(box, gl.parse_presentation(
        f"algebra T ; generator {names} : selfadjoint ;"))
    est = gl.seminorm_on_box(f, box, resolution=resolution)
    assert est.lower == est.upper == reference_target_grid_max(f, box, resolution)


def test_seminorm_of_target_magnitude_is_python_abs():
    # np.abs on complex arrays differs from abs(complex) in the last bit on
    # about a third of random values; the grid maximum must not
    rng = Random(67)
    box = gl.parse_box("t = [0, 1]", gl.parse_presentation(
        "algebra T ; generator t : selfadjoint ;"))
    for _ in range(500):
        z = complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.randint(-5, 5)
        est = gl.seminorm_on_box(TargetFunction("z", 1, fn=lambda p: z), box, resolution=2)
        assert est.lower == abs(z)


# ---------------------------------------------------------------------------
# Bernstein approximation
# ---------------------------------------------------------------------------

def test_catalog_targets():
    for name in ("square", "abs-shift", "exp"):
        f = gl.catalog_target(name)
        assert f.dim == 1
    with pytest.raises(UnsupportedError, match="catalog"):
        gl.catalog_target("mystery")


def test_bernstein_degree_two_square_closed_form():
    f = gl.catalog_target("square")
    result = gl.bernstein_approx(f, 2)
    expected = gl.parse_poly("1/2*t + 1/2*t^2", result.pres)
    assert result.poly == expected
    assert result.error.lower == 0.125
    assert result.error.upper == 0.125


def test_bernstein_interpolates_endpoints():
    for name in ("square", "abs-shift", "exp"):
        f = gl.catalog_target(name)
        result = gl.bernstein_approx(f, 5)
        for t in (0.0, 1.0):
            got = result.evaluate((t,))
            assert abs(got - f.fn((t,))) < 1e-12


def test_bernstein_monotone_error_on_abs_shift():
    f = gl.catalog_target("abs-shift")
    errors = []
    for n in (4, 16, 64):
        result = gl.bernstein_approx(f, n, error_resolution=2001)
        errors.append(result.error.lower)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < errors[0] / 2


def test_bernstein_exact_evaluation_agrees_with_poly():
    f = gl.catalog_target("square")
    result = gl.bernstein_approx(f, 4)
    # the expanded polynomial and the stable evaluator agree
    for k in range(5):
        t = Fraction(k, 4)
        char = gl.validate_character(result.pres, {"t": ComplexRational(t)})
        exact = gl.gelfand_eval(result.poly, char)
        stable = result.evaluate((float(t),))
        assert abs(complex(exact) - stable) < 1e-10


def test_bernstein_two_dimensional():
    f = TargetFunction(
        name="product", dim=2,
        fn=lambda p: p[0] * p[1],
        exact_fn=lambda p: p[0] * p[1])
    result = gl.bernstein_approx(f, 3, error_resolution=41)
    # bilinear targets are reproduced exactly by tensor Bernstein operators
    assert result.error.lower < 1e-12
    expected = gl.parse_poly("t1*t2", result.pres)
    assert result.poly == expected


@pytest.mark.parametrize("f, n", [
    (TargetFunction(
        "kinked-2d", 2, fn=lambda p: complex(1 + abs(p[0] - 1 / 3), p[0] * p[1] ** 2),
        exact_fn=lambda p: ComplexRational(1 + abs(p[0] - Fraction(1, 3)), p[0] * p[1] ** 2)),
     7),
    (TargetFunction("kinked-3d", 3, fn=lambda p: 2 + abs(p[0] - p[1]) - p[2] ** 2,
                    exact_fn=lambda p: 2 + abs(p[0] - p[1]) - p[2] ** 2), 4),
])
def test_bernstein_evaluate_agrees_with_poly_on_several_axes(f, n):
    # both targets have real part >= 1 on the cube, and so has B_n f (a
    # positive operator that keeps constants), so a relative bound is safe
    result = gl.bernstein_approx(f, n, error_resolution=5)
    names = result.pres.generators
    coords = [Fraction(0), Fraction(2, 7), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    for point in itertools.product(coords, repeat=f.dim):
        char = gl.validate_character(
            result.pres, {g: ComplexRational(t) for g, t in zip(names, point)})
        exact = complex(gl.gelfand_eval(result.poly, char))
        stable = result.evaluate(tuple(float(t) for t in point))
        assert abs(stable - exact) <= 1e-12 * abs(exact)
    for wrong in ((0.5,) * (f.dim - 1), (0.5,) * (f.dim + 1)):
        with pytest.raises(AlgebraError, match=f"expected {f.dim} coordinates"):
            result.evaluate(wrong)


def test_bernstein_evaluate_reuses_the_binomials():
    # 100 evaluations at degree 1024 used to rebuild C(1024, k) each time,
    # about 3 s in all; the binomials now come with the result
    result = gl.bernstein_approx(gl.catalog_target("abs-shift"), 1024, error_resolution=2)
    points = [0.0, 1 / 3, 0.5, 0.7071, 1.0]
    start = time.perf_counter()
    for k in range(100):
        result.evaluate((points[k % len(points)],))
    assert time.perf_counter() - start < 1
    combs = approx._binomials(1024)
    for t in points:
        rebuilt = approx._contract([approx._basis_matrix(combs, np.array([t]))], result.nodes)
        assert result.evaluate((t,)) == rebuilt.item()


def test_bernstein_rejects_bad_requests():
    f = gl.catalog_target("square")
    with pytest.raises(AlgebraError):
        gl.bernstein_approx(f, 0)
    big = TargetFunction(name="big", dim=4, fn=lambda p: 0.0)
    with pytest.raises(UnsupportedError):
        gl.bernstein_approx(big, 2)
    for resolution in (-1, 0, 1):
        with pytest.raises(AlgebraError, match="resolution"):
            gl.bernstein_approx(f, 2, error_resolution=resolution)
        with pytest.raises(AlgebraError, match="resolution"):
            gl.density_witness(f, 0.1, error_resolution=resolution)
        # the degree search starts at 4: these run no approximation at all
        for max_degree in (0, 3):
            with pytest.raises(AlgebraError, match="resolution"):
                gl.density_witness(f, 0.1, max_degree=max_degree,
                                   error_resolution=resolution)


def test_bernstein_node_cap_raises_before_any_node():
    calls = []
    cube = TargetFunction("cube", 3, fn=lambda p: calls.append(p) or 0.0)
    # 1025^3 nodes: the degree, the error grid and the basis are in range
    with pytest.raises(UnsupportedError, match="node tensor of 1025\\^3 nodes"):
        gl.bernstein_approx(cube, approx.MAX_BERNSTEIN_DEGREE)
    assert calls == []
    # 256^2 nodes is the cap
    with pytest.raises(UnsupportedError, match="257\\^2 nodes"):
        gl.bernstein_approx(TargetFunction("plane", 2, fn=lambda p: 0.0), 256)


def test_function_grid_cap_raises_before_any_point():
    calls = []
    f = TargetFunction("probe", 1, fn=lambda p: calls.append(p) or 0.0)
    box = CompactBox.from_intervals(line(), [(0, 1)])
    over = approx.MAX_GRID_POINTS + 1
    with pytest.raises(UnsupportedError, match=f"grid of {over}\\^1 points"):
        gl.seminorm_on_box(f, box, resolution=over)
    with pytest.raises(UnsupportedError, match="grid of 2000\\^2 points"):
        gl.seminorm_on_box(TargetFunction("plane", 2, fn=lambda p: 0.0),
                           CompactBox.from_intervals(disk(), [(0, 1), (0, 1)]), 2000)
    assert calls == []


def test_three_axis_error_grid_is_one_block():
    # the 3-axis contraction order depends on the operand shapes, and a
    # block of fewer rows moves the last bits: under the caps every 3-axis
    # error grid is one row block
    degree = max(d for d in range(1, 100) if (d + 1) ** 3 <= approx.MAX_BERNSTEIN_NODES)
    resolution = max(r for r in range(2, 1000) if r ** 3 <= approx.MAX_ERROR_GRID)
    assert (degree, resolution) == (39, 161)
    assert approx.GRID_BLOCK // (degree + 1) >= resolution


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   complex(1.0, math.nan), complex(math.inf, 0.0)])
def test_bernstein_node_values_must_be_finite(value):
    f = TargetFunction("spike", 1, fn=lambda p: value if p[0] == 0.5 else 1.0)
    with pytest.raises(AlgebraError, match=r"'spike' is .* at the node \(0\.5,\)"):
        gl.bernstein_approx(f, 4)


def test_bernstein_error_grid_memory():
    # the float error grid goes in row blocks: at degree 1024 the whole
    # 10001 x 1025 basis matrix took 236 MiB
    tracemalloc.start()
    try:
        gl.bernstein_approx(gl.catalog_target("exp"), approx.MAX_BERNSTEIN_DEGREE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 10 ** 6


def reference_basis(n, points):
    """The Bernstein basis as first written, end columns set apart with
    np.where: a frozen copy, so that approx._basis_matrix is checked against
    a formula other than its own.  It stays numpy, whose pow differs from
    Python's ** in the last bits."""
    ks = np.arange(n + 1)
    combs = np.array([float(math.comb(n, k)) for k in ks])
    t = points.reshape(-1, 1)
    with np.errstate(invalid="ignore"):
        left = np.where(ks == 0, 1.0, t ** ks)
        right = np.where(ks == n, 1.0, (1.0 - t) ** (n - ks))
    return combs * left * right


@pytest.mark.parametrize("n, resolution", [(1, 10001), (7, 10001), (128, 10001),
                                           (1024, 2001)])
def test_basis_matrix_matches_frozen_formula(n, resolution):
    # bit equality, also at the ends, outside [0, 1] and at NaN
    points = np.concatenate([np.linspace(0.0, 1.0, resolution),
                             [-0.5, 1.5, math.nan]])
    with np.errstate(over="ignore"):  # C(1024, k) * 1.5^k
        got = approx._basis_matrix(approx._binomials(n), points)
        want = reference_basis(n, points)
    assert np.array_equal(got, want, equal_nan=True)


def reference_bernstein(f, n, intervals, resolution):
    """Expansion by per-term ComplexRational multiply-adds, and the float
    error grid on the whole basis matrix, indexed point by point: the tables
    the integer contraction and the blocked error grid must reproduce
    exactly."""
    box_iv = [(Fraction(lo), Fraction(hi)) for lo, hi in intervals]
    nodes = {}
    for key in itertools.product(range(n + 1), repeat=f.dim):
        mapped = tuple(lo + (hi - lo) * Fraction(k, n) for (lo, hi), k in zip(box_iv, key))
        if f.exact_fn is not None:
            nodes[key] = ComplexRational.coerce(f.exact_fn(mapped))
        else:
            c = complex(f.fn(tuple(float(x) for x in mapped)))
            nodes[key] = ComplexRational(Fraction(c.real), Fraction(c.imag))
    tensor = dict(nodes)
    for axis in range(f.dim):
        contracted = {}
        for key, val in tensor.items():
            k = key[axis]
            for m in range(k, n + 1):
                e = math.comb(n, k) * math.comb(n - k, m - k) * (-1) ** (m - k)
                new_key = key[:axis] + (m,) + key[axis + 1:]
                contracted[new_key] = contracted.get(new_key, ComplexRational(0)) + val * e
        tensor = contracted

    axes01 = [np.linspace(0.0, 1.0, resolution) for _ in range(f.dim)]
    tensor_f = np.zeros((n + 1,) * f.dim, dtype=complex)
    for key, val in nodes.items():
        tensor_f[key] = complex(val)
    spec = {1: "pi,i->p", 2: "pi,qj,ij->pq", 3: "pi,qj,rk,ijk->pqr"}[f.dim]
    approx_vals = np.einsum(spec, *(reference_basis(n, ax) for ax in axes01), tensor_f)
    error = 0.0
    for idx in itertools.product(range(resolution), repeat=f.dim):
        mapped = tuple(float(lo) + (float(hi) - float(lo)) * axes01[axis][i]
                       for axis, ((lo, hi), i) in enumerate(zip(box_iv, idx)))
        error = max(error, abs(complex(f.fn(mapped)) - approx_vals[idx]))
    return tensor, error


def nan_between_nodes(p):
    # NaN at the grid points 0.31 to 0.34 of a 101-point grid, which no node
    # of degree 8 on [0, 1] reaches
    return math.nan if 0.3 < p[0] < 0.35 else math.cos(3 * p[0])


# rel: relative tolerance on the float error, 0 for bit equality.  The 3-axis
# grid contracts one axis at a time, the reference in one 7-index einsum, so
# float nodes on the cube are held to 1e-12.  block: GRID_BLOCK for the run,
# small enough to split the first axis in several row blocks.
@pytest.mark.parametrize("f, n, intervals, resolution, rel, block", [
    (gl.catalog_target("abs-shift"), 9, [(Fraction(-1, 3), Fraction(5, 7))], 101, 0, None),
    (gl.catalog_target("exp"), 7, [(Fraction(1, 2), 3)], 101, 0, None),
    (TargetFunction("mixed", 2, fn=lambda p: complex(p[0] * p[1], p[0] - p[1]),
                    exact_fn=lambda p: ComplexRational(p[0] * p[1], p[0] - p[1])),
     4, [(Fraction(-1, 3), Fraction(2, 7)), (Fraction(1, 5), 3)], 21, 0, None),
    (TargetFunction("wave", 2, fn=lambda p: math.sin(p[0]) + 1j * p[1] ** 2),
     5, [(-1, 2), (Fraction(1, 3), Fraction(4, 3))], 21, 0, None),
    (TargetFunction("kink", 3, fn=lambda p: complex(abs(p[0] - p[1]), p[0] * p[2]),
                    exact_fn=lambda p: ComplexRational(abs(p[0] - p[1]), p[0] * p[2])),
     3, [(0, 1), (Fraction(-2, 3), Fraction(1, 2)), (1, 2)], 9, 0, None),
    (TargetFunction("cube", 3, fn=lambda p: complex(math.sin(p[0]) * p[1], p[2] ** 2)),
     3, [(0, 1), (Fraction(-2, 3), Fraction(1, 2)), (1, 2)], 23, 1e-12, None),
    (TargetFunction("zero", 2, fn=lambda p: 0.0, exact_fn=lambda p: Fraction(0)),
     5, [(0, 1), (Fraction(1, 3), 2)], 7, 0, None),
    (gl.catalog_target("abs-shift"), 300, [(Fraction(-1, 3), Fraction(5, 7))], 201, 0, None),
    (gl.catalog_target("exp"), 65, [(0, 1)], None, 0, None),
    (gl.catalog_target("abs-shift"), 128, [(0, 1)], None, 0, None),
    (TargetFunction("wave", 2, fn=lambda p: math.sin(p[0]) + 1j * p[1] ** 2),
     5, [(-1, 2), (Fraction(1, 3), Fraction(4, 3))], 41, 0, 60),
    (TargetFunction("hole", 1, fn=nan_between_nodes), 8, [(0, 1)], 101, 0, None),
], ids=["line-exact", "line-float-nodes", "plane-exact", "plane-float-nodes",
        "cube-exact", "cube-float-nodes", "plane-all-zero", "line-exact-300",
        "line-default-65", "line-default-128", "plane-row-blocks",
        "line-nan-between-nodes"])
def test_bernstein_matches_reference_expansion(monkeypatch, f, n, intervals,
                                               resolution, rel, block):
    if block is not None:
        monkeypatch.setattr(approx, "GRID_BLOCK", block)
    result = gl.bernstein_approx(f, n, intervals=intervals, error_resolution=resolution)
    if resolution is None:
        resolution = result.error.resolution
    table, error = reference_bernstein(f, n, intervals, resolution)
    assert result.poly == result.pres.poly(table)
    assert result.error.lower == (pytest.approx(error, rel=rel) if rel else error)


def test_density_witness():
    f = gl.catalog_target("abs-shift")
    result = gl.density_witness(f, epsilon=0.05, error_resolution=501)
    assert result is not None
    assert result.error.upper <= 0.05
    assert gl.density_witness(f, epsilon=1e-9, max_degree=8,
                              error_resolution=101) is None


@pytest.mark.parametrize("epsilon, max_degree, degree", [
    (0.04, 7, 7),  # 4 misses (1/16), 8 is past the cap, 7 meets it (1/28)
    (0.1, 3, 3),  # the doubling never starts: 3 is the only degree tried
    (0.07, 7, 4),  # 4 meets it first
    (0.03, 7, None),  # 7 misses, and so does every smaller degree
])
def test_density_witness_tries_the_max_degree_last(epsilon, max_degree, degree):
    # on the square, B_n f - f = t(1 - t)/n, whose sup is 1/(4n)
    f = gl.catalog_target("square")
    result = gl.density_witness(f, epsilon, max_degree=max_degree)
    assert (result and result.degree) == degree


@pytest.mark.parametrize("max_degree", [0, -5])
def test_density_witness_rejects_max_degree_below_one(max_degree):
    with pytest.raises(AlgebraError, match=f"at least 1, not {max_degree}"):
        gl.density_witness(gl.catalog_target("square"), 0.1, max_degree=max_degree)


def test_tabulated_target():
    values = [0.0, 0.5, 1.0, 0.5, 0.0]
    f = gl.tabulated_target(values, name="tent")
    assert f.fn((0.5,)) == pytest.approx(1.0)
    assert f.fn((0.25,)) == pytest.approx(0.5)
    result = gl.bernstein_approx(f, 8, error_resolution=201)
    assert result.error.lower <= result.error.upper


# ---------------------------------------------------------------------------
# Wirtinger derivatives
# ---------------------------------------------------------------------------

def test_wirtinger_basic_rules():
    d = disk()
    z, az = d.gen("z"), d.gen("adj(z)")
    assert gl.wirtinger_dzbar(z ** 3).is_zero()
    assert gl.wirtinger_dzbar(az) == d.one()
    assert gl.wirtinger_dzbar(z * az) == z
    assert gl.wirtinger_dzbar(az ** 2) == az * 2
    assert gl.is_holomorphic_image(z ** 5 + z * 2 + 1)
    assert not gl.is_holomorphic_image(z + az)


def test_wirtinger_is_a_derivation():
    rng = Random(59)
    d = disk()
    for _ in range(40):
        a = rand_poly(d, rng, max_degree=3, max_terms=3)
        b = rand_poly(d, rng, max_degree=3, max_terms=3)
        left = gl.wirtinger_dzbar(a * b)
        right = gl.wirtinger_dzbar(a) * b + a * gl.wirtinger_dzbar(b)
        assert left == right


def test_wirtinger_finite_difference_cross_check():
    rng = Random(61)
    d = disk()
    under = gl.underlying(d)  # z and adj(z) become independent coordinates
    h = 1e-5
    for _ in range(20):
        a = rand_poly(d, rng, max_degree=4, max_terms=4)
        da = gl.wirtinger_dzbar(a)
        a_u = gl.reinterpret(a, under)
        da_u = gl.reinterpret(da, under)
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

        def at(zv, wv, poly):
            c = gl.validate_character(under, {"z": zv, "adj(z)": wv})
            return complex(gl.gelfand_eval(poly, c))

        numeric = (at(z0, w0 + h, a_u) - at(z0, w0 - h, a_u)) / (2 * h)
        symbolic = at(z0, w0, da_u)
        scale = max(1.0, abs(symbolic))
        assert abs(numeric - symbolic) < 1e-5 * scale


def test_wirtinger_pair_resolution_errors():
    with pytest.raises(AlgebraError):
        gl.wirtinger_dzbar(plain().gen("x"))
    with pytest.raises(AlgebraError, match="free generator"):
        gl.wirtinger_dzbar(line().gen("x"), pair="x")
    with pytest.raises(UnsupportedError, match="relation"):
        gl.wirtinger_dzbar(circle().gen("z"))
    two = gl.parse_presentation(
        "algebra Two ; generator z, w : free ;")
    with pytest.raises(AlgebraError, match="pair"):
        gl.wirtinger_dzbar(two.gen("z"))  # ambiguous without a name
    assert gl.wirtinger_dzbar(two.gen("adj(w)"), pair="w") == two.one()
