import math
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gelfand_lab as gl
from gelfand_lab import ComplexRational
from gelfand_lab.algebra import mono_involute, mono_mul, raw_involute, raw_mul
from gelfand_lab.errors import AlgebraError, GnsError, StateError, UnsupportedError
from gelfand_lab.scalars import ONE
from gelfand_lab.spectrum import eval_terms

from helpers import circle, disk, line, nil, rand_poly, rand_scalar

# ---------------------------------------------------------------------------
# test-local oracle: plain-Fraction Gram-Schmidt over a Hankel moment matrix.
# Shares no code with the library; used to check the GNS basis independently.
# ---------------------------------------------------------------------------

GAUSSIAN_MOMENTS = [Fraction(m) for m in (1, 0, 1, 0, 3, 0, 15, 0, 105, 0, 945)]

# He_0..He_5 and their squared norms n! under the Gaussian moments
HERMITE = [
    [1],
    [0, 1],
    [-1, 0, 1],
    [0, -3, 0, 1],
    [3, 0, -6, 0, 1],
    [0, 15, 0, -10, 0, 1],
]


def _dot(u, v, gram):
    n = len(u)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def oracle_orthonormal(moments, size):
    gram = [[moments[i + j] for j in range(size)] for i in range(size)]
    kept, norms, out = [], [], []
    for j in range(size):
        v = [Fraction(int(i == j)) for i in range(size)]
        for u, n2 in zip(kept, norms):
            c = _dot(u, v, gram) / n2
            v = [vi - c * ui for vi, ui in zip(v, u)]
        n2 = _dot(v, v, gram)
        if n2 == 0:
            continue
        kept.append(v)
        norms.append(n2)
        scale = math.sqrt(float(n2))
        out.append([float(c) / scale for c in v])
    return out


def test_oracle_matches_frozen_hermite_table():
    got = oracle_orthonormal(GAUSSIAN_MOMENTS, 6)
    for n, row in enumerate(HERMITE):
        norm = math.sqrt(math.factorial(n))
        for k in range(6):
            expected = (row[k] / norm) if k < len(row) else 0.0
            assert got[n][k] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# states and expectations
# ---------------------------------------------------------------------------

def test_gaussian_moments_frozen():
    st = gl.gaussian_state(line())
    x = line().gen("x")
    for k, m in enumerate(GAUSSIAN_MOMENTS):
        assert gl.expect(st, x ** k) == ComplexRational(m)


def test_gaussian_moments_are_double_factorials_and_hold_no_table():
    st = gl.gaussian_state(line())
    x = line().gen("x")
    for k in range(61):
        # E(x^(2j)) = (2j)! / (2^j j!), the number of pairings of 2j points
        j = k // 2
        want = 0 if k % 2 else math.factorial(k) // (2 ** j * math.factorial(j))
        assert st.moment((k,)) == ComplexRational(want)
        assert gl.expect(st, x ** k) == ComplexRational(want)
    assert st.moment((300,)) == ComplexRational(math.factorial(300)
                                                // (2 ** 150 * math.factorial(150)))

    def closure_values(fn, seen):
        for cell in getattr(fn, "__closure__", None) or ():
            value = cell.cell_contents
            if callable(value) and id(value) not in seen:
                seen.add(id(value))
                yield from closure_values(value, seen)
            yield value

    held = [v for fn in (st.moment, st.functional)
            for v in closure_values(fn, set())]
    assert held and not any(isinstance(v, (list, dict)) for v in held)


def test_gaussian_state_errors():
    with pytest.raises(StateError, match="self-adjoint"):
        gl.gaussian_state(disk())
    two = gl.parse_presentation("algebra T ; generator x, y : selfadjoint ;")
    with pytest.raises(StateError, match="unique"):
        gl.gaussian_state(two)
    st = gl.gaussian_state(two, "x")
    assert gl.expect(st, two.gen("x") ** 2) == ComplexRational(1)
    with pytest.raises(StateError, match="covers only"):
        gl.expect(st, two.gen("y"))
    with pytest.raises(StateError, match="not self-adjoint"):
        gl.gaussian_state(disk(), "z")


def test_atomic_state_exact_expectations():
    p = line()
    st = gl.atomic_state(p, [({"x": ComplexRational(1)}, Fraction(1, 3)),
                             ({"x": ComplexRational(-2)}, Fraction(2, 3))])
    x = p.gen("x")
    assert gl.expect(st, x) == ComplexRational(Fraction(1, 3) - Fraction(4, 3))
    assert gl.expect(st, x ** 2) == ComplexRational(3)
    assert st.exact


def test_atomic_state_weight_validation():
    p = line()
    atoms = [({"x": ComplexRational(0)}, Fraction(1, 2))]
    with pytest.raises(StateError, match="sum"):
        gl.atomic_state(p, atoms)
    st = gl.atomic_state(p, atoms, rescale=True)
    assert gl.expect(st, p.one()) == ComplexRational(1)
    with pytest.raises(StateError, match="positive"):
        gl.atomic_state(p, [({"x": ComplexRational(0)}, Fraction(-1))])


def test_quadrature_uniform_moments():
    p = line()
    box = gl.parse_box("x = [0, 1]", p)
    st = gl.quadrature_state(p, box, "uniform", order=8)
    x = p.gen("x")
    for k in range(16):  # order 8 integrates degree <= 15 exactly
        got = gl.expect(st, x ** k)
        assert got.real == pytest.approx(1.0 / (k + 1), abs=1e-12)
        assert abs(got.imag) < 1e-15


def test_quadrature_density_normalization():
    p = line()
    box = gl.parse_box("x = [0, 2]", p)
    st = gl.quadrature_state(p, box, "uniform", order=4)
    assert gl.expect(st, p.one()).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(StateError, match="sum"):
        gl.quadrature_state(p, box, lambda pt: 1.0, order=4)
    rescaled = gl.quadrature_state(p, box, lambda pt: 1.0, order=4,
                                   rescale=True)
    assert gl.expect(rescaled, p.one()).real == pytest.approx(1.0)
    with pytest.raises(StateError, match="catalog"):
        gl.quadrature_state(p, box, "triangular", order=4)


def test_quadrature_caps():
    line_box = gl.parse_box("x = [0, 1]", line())
    order = gl.states.MAX_QUADRATURE_ORDER
    with pytest.raises(UnsupportedError, match=f"order {order + 1} exceeds the cap of {order}"):
        gl.quadrature_state(line(), line_box, "uniform", order + 1)
    disk_box = gl.parse_box("z = [0, 1] x [0, 1]", disk())
    side = math.isqrt(gl.states.MAX_QUADRATURE_NODES)
    at_cap = gl.quadrature_state(disk(), disk_box, "uniform", side)
    assert gl.expect(at_cap, disk().one()).real == pytest.approx(1.0)
    with pytest.raises(UnsupportedError, match=f"rule of {side + 1}\\^2 nodes exceeds"):
        gl.quadrature_state(disk(), disk_box, "uniform", side + 1)


def test_state_presentation_guards():
    st = gl.gaussian_state(line())
    with pytest.raises(StateError):
        gl.expect(st, disk().gen("z"))
    with pytest.raises(StateError, match="wrong presentation"):
        gl.atomic_state(line(), [(gl.validate_character(
            nil(), {"x": ComplexRational(0)}), Fraction(1))])


def test_positivity_and_cauchy_schwarz():
    rng = Random(71)
    p = line()
    atomic = gl.atomic_state(p, [({"x": ComplexRational(1)}, Fraction(1, 2)),
                                 ({"x": ComplexRational(-1)}, Fraction(1, 2))])
    gaussian = gl.gaussian_state(p)
    box = gl.parse_box("x = [-1, 1]", p)
    quad = gl.quadrature_state(p, box, "uniform", order=6)
    for state in (atomic, gaussian):
        for _ in range(50):
            a = rand_poly(p, rng, max_degree=3, max_terms=3)
            b = rand_poly(p, rng, max_degree=3, max_terms=3)
            na = gl.expect(state, a.involute() * a)
            nb = gl.expect(state, b.involute() * b)
            cross = gl.expect(state, a.involute() * b)
            assert na.is_real() and na.re >= 0
            assert cross.abs2() <= na.re * nb.re
    for _ in range(50):
        a = rand_poly(p, rng, max_degree=3, max_terms=3)
        na = gl.expect(quad, a.involute() * a)
        assert na.real >= -1e-10
        assert abs(na.imag) < 1e-10


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def test_exact_gns_work_bounds_the_rank_by_the_support(monkeypatch):
    two = gl.parse_state("state atomic { (x = 1/3) : 1/2 ; (x = -1/3) : 1/2 }", line())
    ring = gl.parse_state("state atomic { (z = (3/5+4/5i) ; adj(z) = (3/5-4/5i)) : 1 }",
                          circle())
    gaussian = gl.gaussian_state(line())
    # the cap admits the largest Gaussian basis
    assert gl.gns_basis(gl.gram_matrix(gaussian, 159)).rank() == 160
    monkeypatch.setattr(gl.states, "MAX_GNS_WORK", 0)
    for state, degree, count in [(two, 4, r"5\^2 \* 2 \* \d+\^2"),
                                 (gaussian, 4, r"5\^2 \* 5 \* 8\^2"),
                                 (ring, 1, r"3\^2 \* 1 \* \d+\^2 \* 4")]:
        with pytest.raises(UnsupportedError, match=f"exact GNS work {count} exceeds"):
            gl.gns_basis(gl.gram_matrix(state, degree))


def test_gram_matrix_gaussian_is_hankel():
    st = gl.gaussian_state(line())
    model = gl.gram_matrix(st, 5)
    assert model.exact
    assert model.basis == tuple((k,) for k in range(6))
    for i in range(6):
        for j in range(6):
            assert model.gram[i][j] == ComplexRational(GAUSSIAN_MOMENTS[i + j])


def test_gram_matrix_two_point_frozen():
    p = line()
    st = gl.atomic_state(p, [({"x": ComplexRational(1)}, Fraction(1, 2)),
                             ({"x": ComplexRational(-1)}, Fraction(1, 2))])
    model = gl.gram_matrix(st, 2)
    expected = [[1, 0, 1], [0, 1, 0], [1, 0, 1]]
    for i in range(3):
        for j in range(3):
            assert model.gram[i][j] == ComplexRational(expected[i][j])


def test_gram_consistency_with_expectations():
    rng = Random(73)
    st = gl.gaussian_state(line())
    model = gl.gram_matrix(st, 4)
    n = len(model.basis)
    for _ in range(25):
        coeffs = [rand_scalar(rng, span=3) for _ in range(n)]
        poly = line().zero()
        for c, i in zip(coeffs, range(n)):
            poly = poly + model.basis_poly(i) * c
        direct = gl.expect(st, poly.involute() * poly)
        quadratic = sum(
            (coeffs[i].conjugate() * model.gram[i][j] * coeffs[j]
             for i in range(n) for j in range(n)),
            ComplexRational(0))
        assert direct == quadratic


def test_gram_degree_zero():
    st = gl.gaussian_state(line())
    model = gl.gns_basis(gl.gram_matrix(st, 0))
    assert model.gram[0][0] == ComplexRational(1)
    assert model.rank() == 1
    assert model.null_space == ()


def test_negative_degree_is_a_validation_error():
    # an unusable request, not a mathematical rejection: AlgebraError, and
    # no GnsError, so the CLI exits 1 rather than 2
    with pytest.raises(AlgebraError, match="degree must be nonnegative") as exc:
        gl.gram_matrix(gl.gaussian_state(line()), -1)
    assert not isinstance(exc.value, GnsError)


def test_model_queries_need_completion():
    st = gl.gaussian_state(line())
    model = gl.gram_matrix(st, 2)
    with pytest.raises(GnsError):
        model.rank()
    with pytest.raises(GnsError):
        model.null_polys()


# ---------------------------------------------------------------------------
# GNS basis
# ---------------------------------------------------------------------------

def test_gns_hermite_matches_oracle():
    st = gl.gaussian_state(line())
    model = gl.gns_basis(gl.gram_matrix(st, 5))
    assert model.rank() == 6
    assert model.null_space == ()
    oracle = oracle_orthonormal(GAUSSIAN_MOMENTS, 6)
    for got, want in zip(model.orthonormal, oracle):
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12


def test_gns_two_point_quotient():
    p = line()
    support = [gl.validate_character(p, {"x": ComplexRational(v)}) for v in (1, -1)]
    st = gl.atomic_state(p, [(char, Fraction(1, 2)) for char in support])
    model = gl.gns_basis(gl.gram_matrix(st, 4))
    assert model.rank() == 2
    nulls = model.null_polys()
    rendered = {gl.format_poly(q) for q in nulls}
    assert rendered == {"x^2 - 1", "x^3 - x", "x^4 - 1"}
    # null vectors vanish at every support point
    for q in nulls:
        for char in support:
            assert gl.gelfand_eval(q, char) == ComplexRational(0)


def test_gns_null_vectors_are_monic():
    p = line()
    st = gl.atomic_state(p, [({"x": ComplexRational(1)}, Fraction(1, 2)),
                             ({"x": ComplexRational(-1)}, Fraction(1, 2))])
    model = gl.gns_basis(gl.gram_matrix(st, 2))
    (vec,) = model.null_space
    assert vec[-1] == ComplexRational(1)


def test_gns_rank_counts_support():
    p = line()
    pts = [ComplexRational(-1), ComplexRational(0), ComplexRational(1)]
    st = gl.atomic_state(p, [({"x": v}, Fraction(1, 3)) for v in pts])
    model = gl.gns_basis(gl.gram_matrix(st, 3))
    assert model.rank() == 3
    assert len(model.null_space) == 1


def test_gns_orthonormality_exact_state():
    st = gl.gaussian_state(line())
    model = gl.gns_basis(gl.gram_matrix(st, 5))
    G = np.array([[complex(v) for v in row] for row in model.gram])
    B = np.array(model.orthonormal).T
    gram_on_basis = B.conj().T @ G @ B
    assert np.max(np.abs(gram_on_basis - np.eye(model.rank()))) < 1e-10


def test_gns_float_path_matches_shifted_legendre():
    p = line()
    box = gl.parse_box("x = [0, 1]", p)
    st = gl.quadrature_state(p, box, "uniform", order=8)
    model = gl.gns_basis(gl.gram_matrix(st, 3))
    assert not model.exact
    assert model.rank() == 4
    assert model.null_space == ()
    s3, s5, s7 = math.sqrt(3), math.sqrt(5), math.sqrt(7)
    legendre = [
        [1.0, 0.0, 0.0, 0.0],
        [-s3, 2 * s3, 0.0, 0.0],
        [s5, -6 * s5, 6 * s5, 0.0],
        [-s7, 12 * s7, -30 * s7, 20 * s7],
    ]
    for got, want in zip(model.orthonormal, legendre):
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-8


# ---------------------------------------------------------------------------
# multiplication operators
# ---------------------------------------------------------------------------

def test_multiplication_hermite_tridiagonal():
    st = gl.gaussian_state(line())
    model = gl.gns_basis(gl.gram_matrix(st, 5))
    M = gl.multiplication_operator(model, "x")
    assert M.shape == (6, 6)
    for i in range(6):
        for j in range(6):
            expected = math.sqrt(max(i, j)) if abs(i - j) == 1 else 0.0
            assert abs(M[i, j] - expected) < 1e-10


def test_multiplication_two_point_swap():
    p = line()
    st = gl.atomic_state(p, [({"x": ComplexRational(1)}, Fraction(1, 2)),
                             ({"x": ComplexRational(-1)}, Fraction(1, 2))])
    model = gl.gns_basis(gl.gram_matrix(st, 4))
    M = gl.multiplication_operator(model, "x")
    assert M.shape == (2, 2)
    assert np.max(np.abs(M - np.array([[0, 1], [1, 0]]))) < 1e-12
    eigs = sorted(np.linalg.eigvalsh(M))
    assert eigs == pytest.approx([-1.0, 1.0], abs=1e-8)


def test_multiplication_eigenvalues_recover_support():
    p = line()
    pts = [Fraction(-3, 2), Fraction(0), Fraction(2)]
    st = gl.atomic_state(
        p, [({"x": ComplexRational(v)}, Fraction(1, 3)) for v in pts])
    model = gl.gns_basis(gl.gram_matrix(st, 4))
    M = gl.multiplication_operator(model, "x")
    eigs = sorted(np.linalg.eigvalsh(M))
    assert eigs == pytest.approx([float(v) for v in sorted(pts)], abs=1e-8)


def test_multiplication_legendre_jacobi():
    p = line()
    box = gl.parse_box("x = [0, 1]", p)
    st = gl.quadrature_state(p, box, "uniform", order=8)
    model = gl.gns_basis(gl.gram_matrix(st, 3))
    M = gl.multiplication_operator(model, "x")
    off = [1 / (2 * math.sqrt(3)), 1 / math.sqrt(15),
           3 / (2 * math.sqrt(35))]
    for i in range(4):
        for j in range(4):
            if i == j:
                expected = 0.5
            elif abs(i - j) == 1:
                expected = off[min(i, j)]
            else:
                expected = 0.0
            assert abs(M[i, j] - expected) < 1e-8


def test_multiplication_auto_completes_model():
    st = gl.gaussian_state(line())
    fresh = gl.gram_matrix(st, 2)
    M = gl.multiplication_operator(fresh, "x")
    assert M.shape == (3, 3)
    assert abs(M[0, 1] - 1.0) < 1e-10


def test_multiplication_generator_index_checked():
    model = gl.gns_basis(gl.gram_matrix(gl.gaussian_state(line()), 2))
    assert np.array_equal(gl.multiplication_operator(model, 0),
                          gl.multiplication_operator(model, "x"))
    for bad in (5, -1, "y"):
        with pytest.raises(AlgebraError):
            gl.multiplication_operator(model, bad)


# ---------------------------------------------------------------------------
# moment table against the per-entry reference
# ---------------------------------------------------------------------------

SPHERE = ("algebra Sphere ; generator x, y, t : selfadjoint ; "
          "relation x^2 + y^2 + t^2 - 1 ;")
CIRCLE = "algebra Circle ; generator z : free ; relation z*adj(z) - 1 ;"


def reference_gram(state, degree):
    """E(adj(m_i) * m_j), one normalized product per entry."""
    pres = state.pres
    basis = pres.monomials_up_to(degree)
    rows = []
    for mi in basis:
        inv = raw_involute(list(pres.adjoint), {mi: ONE})
        rows.append([gl.expect(state, pres.poly(raw_mul(inv, {mj: ONE})))
                     for mj in basis])
    if state.exact:
        return tuple(tuple(row) for row in rows)
    arr = np.array([[complex(v) for v in row] for row in rows], dtype=complex)
    return (arr + arr.conj().T) / 2.0


def reference_operator(model, generator):
    """Compression of multiplication by ``generator``, entry by entry."""
    pres = model.pres
    g_table = pres.gen(generator).as_table()
    n = len(model.basis)
    pairing = np.zeros((n, n), dtype=complex)
    for k, mk in enumerate(model.basis):
        g_mk = raw_mul(g_table, {mk: ONE})
        for l, ml in enumerate(model.basis):
            inv = raw_involute(list(pres.adjoint), {ml: ONE})
            product = pres.poly(raw_mul(inv, g_mk))
            pairing[l, k] = complex(gl.expect(model.state, product))
    b = np.array(model.orthonormal, dtype=complex).T
    return b.conj().T @ pairing @ b


def _atomic(pres_text, points, exact):
    pres = gl.parse_presentation(pres_text)
    weight = Fraction(1, len(points))
    atoms = []
    for point in points:
        if not exact:
            point = {g: complex(v) for g, v in point.items()}
        atoms.append((point, weight))
    return gl.atomic_state(pres, atoms)


def _q(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


MOMENT_CASES = {
    "line": (lambda exact: _atomic("algebra L ; generator x : selfadjoint ;",
                                   [{"x": _q(v)} for v in ("-1", "1/3", "2", "5/2")],
                                   exact), 5),
    "disk": (lambda exact: _atomic("algebra D ; generator z : free ;",
                                   [{"z": _q("1/2", "-1/3")}, {"z": _q(-1, 2)},
                                    {"z": _q(0, "3/4")}], exact), 3),
    "circle": (lambda exact: _atomic(CIRCLE,
                                     [{"z": _q("3/5", "4/5")}, {"z": _q(-1)},
                                      {"z": _q("5/13", "-12/13")}], exact), 3),
    "sphere": (lambda exact: _atomic(SPHERE,
                                     [{"x": _q("3/5"), "y": _q("4/5"), "t": _q(0)},
                                      {"x": _q("2/3"), "y": _q("-2/3"), "t": _q("1/3")},
                                      {"x": _q(0), "y": _q(0), "t": _q(-1)}], exact), 2),
}


def _check_against_reference(state, degree):
    model = gl.gns_basis(gl.gram_matrix(state, degree))
    expected = reference_gram(state, degree)
    if state.exact:
        assert model.gram == expected
    else:
        assert np.array_equal(model.gram, expected)
    for g in model.pres.generators:
        assert np.array_equal(gl.multiplication_operator(model, g),
                              reference_operator(model, g))
    return model


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("case", sorted(MOMENT_CASES))
def test_moment_table_matches_reference_atomic(case, exact):
    build, degree = MOMENT_CASES[case]
    state = build(exact)
    assert state.exact is exact
    _check_against_reference(state, degree)


def test_moment_table_matches_reference_gaussian():
    model = _check_against_reference(gl.gaussian_state(line()), 8)
    # 81 Gram entries hold 17 distinct moments; the operator adds x^17
    assert len(model.basis) ** 2 == 81
    assert len(model.moments) == 18


@pytest.mark.parametrize("box, order, degree", [
    ("x = [-1, 2]", 7, 5),
    ("z = [-1, 1] x [0, 1/2]", 4, 2),
], ids=["line", "disk"])
def test_moment_table_matches_reference_quadrature(box, order, degree):
    pres = line() if box.startswith("x") else disk()
    state = gl.quadrature_state(pres, gl.parse_box(box, pres), "uniform", order)
    _check_against_reference(state, degree)


def test_moment_tables_are_per_model():
    st = gl.gaussian_state(line())
    first, second = gl.gram_matrix(st, 2), gl.gram_matrix(st, 2)
    assert first.moments is not second.moments
    completed = gl.gns_basis(first)
    assert completed.moments is first.moments
    gl.multiplication_operator(completed, "x")
    assert len(first.moments) == 6 and len(second.moments) == 5


# ---------------------------------------------------------------------------
# keyed matrices against one moment and one complex() per entry
# ---------------------------------------------------------------------------

def per_entry_matrix(state, basis, w):
    """E(adj(m_i) * w * m_j) as complex, with one ``state.moment`` and one
    ``complex()`` per entry."""
    adjoint = state.pres.adjoint
    n = len(basis)
    return np.array([[complex(state.moment(mono_mul(mono_mul(mono_involute(adjoint, mi), w), mj)))
                      for mj in basis] for mi in basis], dtype=complex).reshape(n, n)


def per_entry_operator(model, generator):
    idx = model.pres.generator_index(generator)
    gen = tuple(int(i == idx) for i in range(len(model.pres.generators)))
    n = len(model.basis)
    b = np.array(model.orthonormal, dtype=complex).reshape(model.rank(), n).T
    return b.conj().T @ per_entry_matrix(model.state, model.basis, gen) @ b


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert repr(got) == repr(want)


MIXED_ATOMS = [({"z": _q("1/2", "-1/3")}, Fraction(1, 4)),
               ({"z": complex(-0.75, 0.1)}, Fraction(1, 4)),
               ({"z": _q(0, "3/4")}, Fraction(1, 4)),
               ({"z": complex(0.3, -0.9)}, Fraction(1, 4))]

FLOAT_CASES = {
    "quadrature-line": (lambda: gl.quadrature_state(
        line(), gl.parse_box("x = [-1, 2]", line()), "uniform", 7), 5),
    "quadrature-disk": (lambda: gl.quadrature_state(
        disk(), gl.parse_box("z = [-1, 1] x [0, 1/2]", disk()), "uniform", 4), 2),
    "mixed-atoms": (lambda: gl.atomic_state(disk(), MIXED_ATOMS), 2),
}


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_float_gram_and_operators_match_per_entry_conversion(case):
    build, degree = FLOAT_CASES[case]
    state = build()
    assert not state.exact
    model = gl.gns_basis(gl.gram_matrix(state, degree))
    gram = per_entry_matrix(state, model.basis, (0,) * len(state.pres.generators))
    _same_bits(model.gram, (gram + gram.conj().T) / 2.0)
    for g in state.pres.generators:
        _same_bits(gl.multiplication_operator(model, g), per_entry_operator(model, g))


@pytest.mark.parametrize("case, degree", [("line", 5), ("disk", 3), ("circle", 4),
                                          ("gaussian", 9)])
def test_exact_operators_match_per_entry_conversion(case, degree):
    state = gl.gaussian_state(line()) if case == "gaussian" else MOMENT_CASES[case][0](True)
    model = gl.gns_basis(gl.gram_matrix(state, degree))
    for g in state.pres.generators:
        _same_bits(gl.multiplication_operator(model, g), per_entry_operator(model, g))


def test_mixed_atoms_convert_float_terms_once_and_keep_exact_terms():
    # exact atoms of a float state take the exact coefficients, float atoms
    # the complex ones; each atom's value is then converted to complex
    state = gl.atomic_state(disk(), MIXED_ATOMS)
    chars = [gl.validate_character(disk(), point) for point, _ in MIXED_ATOMS]
    assert [c.exact for c in chars] == [True, False, True, False]
    rng = Random(29)
    for _ in range(20):
        a = rand_poly(disk(), rng, max_degree=4, max_terms=4)
        want = 0j
        for char, (_, w) in zip(chars, MIXED_ATOMS):
            v = eval_terms([a.terms], [char.values], char.exact)[0][0]
            want = want + complex(v) * float(w)
        got = state.expect(a)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


# ---------------------------------------------------------------------------
# State.moment on raw monomials against the functional on the normal form
# ---------------------------------------------------------------------------

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def rational_atomic_states(draw):
    """An exact atomic state on the line, the disk or the circle, and a raw
    monomial that the circle's rule z*adj(z) -> 1 may reduce."""
    kind = draw(st.sampled_from(["line", "disk", "circle"]))
    pres = {"line": line, "disk": disk, "circle": circle}[kind]()
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        if kind == "line":
            point = {"x": ComplexRational(draw(small_rationals))}
        elif kind == "disk":
            point = {"z": ComplexRational(draw(small_rationals), draw(small_rationals))}
        else:  # the rational point ((1 - t^2) + 2t i) / (1 + t^2) of the circle
            t = draw(small_rationals)
            point = {"z": ComplexRational((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))}
        atoms.append((point, draw(st.integers(1, 4))))
    mono = tuple(draw(st.integers(0, 6)) for _ in pres.generators)
    return gl.atomic_state(pres, atoms, rescale=True), mono


@given(rational_atomic_states())
def test_exact_point_moment_equals_functional(case):
    state, mono = case
    value = state.moment(mono)
    assert isinstance(value, ComplexRational)
    assert value == state.functional(state.pres.poly({mono: ONE}))


@st.composite
def float_point_states(draw):
    """A uniform quadrature state, or float atoms beside which exact atoms
    may sit, on the line or the disk."""
    pres = draw(st.sampled_from([line, disk]))()
    axes = 1 if pres.generators == ("x",) else 2
    if draw(st.booleans()):
        spans = []
        for _ in range(axes):
            lo, width = draw(small_rationals), draw(st.integers(1, 3))
            spans.append(f"[{lo}, {lo + width}]")
        box = gl.parse_box(f"{pres.generators[0]} = {' x '.join(spans)}", pres)
        state = gl.quadrature_state(pres, box, "uniform", draw(st.integers(1, 5)))
    else:
        coords = st.floats(min_value=-3, max_value=3, allow_nan=False)
        atoms = [({pres.generators[0]: complex(draw(coords), draw(coords) if axes == 2 else 0)},
                  Fraction(1))
                 for _ in range(draw(st.integers(1, 4)))]
        atoms += [({pres.generators[0]: ComplexRational(
                       draw(small_rationals), draw(small_rationals) if axes == 2 else 0)},
                   Fraction(1))
                  for _ in range(draw(st.integers(0, 2)))]
        state = gl.atomic_state(pres, atoms, rescale=True)
    return state, tuple(draw(st.integers(0, 7)) for _ in pres.generators)


@given(float_point_states())
def test_float_point_moment_is_bit_identical(case):
    state, mono = case
    assert not state.exact
    value = state.moment(mono)
    expected = state.functional(state.pres.poly({mono: ONE}))
    assert (value.real.hex(), value.imag.hex()) == \
        (expected.real.hex(), expected.imag.hex())


@st.composite
def float_point_batches(draw):
    """A float point state and a batch of raw monomials whose exponents come
    from at most three values, so keys share power-table entries."""
    state, _ = draw(float_point_states())
    exponents = draw(st.lists(st.integers(0, 7), min_size=1, max_size=3))
    key = st.tuples(*[st.sampled_from(exponents)] * len(state.pres.generators))
    return state, draw(st.lists(key, min_size=2, max_size=8))


@given(float_point_batches())
def test_float_batch_is_bit_identical_to_the_functional(case):
    state, keys = case
    values = state.moments(keys)
    assert len(values) == len(keys)
    for key, value in zip(keys, values):
        expected = state.functional(state.pres.poly({key: ONE}))
        assert (value.real.hex(), value.imag.hex()) == \
            (expected.real.hex(), expected.imag.hex())


def test_gaussian_moment_reduces_under_rules():
    # x^3 -> x, so E(x^4) is E(x^2) = 1, not the raw Gaussian moment 3
    pres = gl.parse_presentation("algebra R ; generator x : selfadjoint ; relation x^3 - x ;")
    state = gl.gaussian_state(pres)
    assert state.moment((4,)) == 1 and state.moment((3,)) == 0
    assert gl.gaussian_state(line()).moment((4,)) == 3


def test_float_atoms_under_rules_use_the_normal_form():
    # a float atom meets z*adj(z) = 1 only within tolerance, so E(z*adj(z))
    # is read off the normal form 1, not off the raw product
    z = complex(0.6, 0.8000000000000002)
    state = gl.atomic_state(circle(), [({"z": z}, 1)])
    assert state.moment((1, 1)) == 1
    assert z * z.conjugate() != 1


# ---------------------------------------------------------------------------
# exact Gram-Schmidt against the inner-product reference
# ---------------------------------------------------------------------------

def reference_gns_exact(gram):
    """Gram-Schmidt with an explicit G-inner product per projection and per
    squared length; returns (null space, orthonormal vectors)."""
    n = len(gram)

    def dot(u, gv):
        return sum((u[i].conjugate() * gv[i] for i in range(n)
                    if not u[i].is_zero()), ComplexRational(0))

    ortho, null = [], []
    for j in range(n):
        v = [ComplexRational(int(i == j)) for i in range(n)]
        gv = [gram[i][j] for i in range(n)]
        for u, gu, n2 in ortho:
            c = dot(u, gv) / n2
            if not c.is_zero():
                v = [vi - c * ui for vi, ui in zip(v, u)]
                gv = [gvi - c * gui for gvi, gui in zip(gv, gu)]
        norm2 = dot(v, gv)
        assert norm2.is_real() and norm2.re >= 0
        if norm2.re == 0:
            null.append(tuple(v))
        else:
            ortho.append((v, gv, norm2.re))
    orthonormal = tuple(
        tuple(complex(c) / float(n2) ** 0.5 for c in v) for v, _, n2 in ortho)
    return tuple(null), orthonormal


def _random_atomic(rng):
    pres = line() if rng.random() < 0.5 else disk()
    count = rng.randint(1, 6)
    # repeated support points shrink the rank and so exercise the null space
    points = [rand_scalar(rng, span=3)
              for _ in range(rng.randint((count + 1) // 2, count))]
    atoms = []
    for _ in range(count):
        v = rng.choice(points)
        value = ComplexRational(v.re) if pres.generators == ("x",) else v
        atoms.append(({pres.generators[0]: value}, Fraction(1, count)))
    degree = rng.randint(1, 6) if pres.generators == ("x",) else rng.randint(1, 2)
    return gl.atomic_state(pres, atoms), degree


def _random_disk_atomic(rng):
    """Complex atoms on the disk, some repeated, at degree up to 3."""
    points = [rand_scalar(rng, span=3) for _ in range(rng.randint(1, 3))]
    count = rng.randint(len(points) + 1, 6)
    atoms = [({"z": points[k % len(points)]}, Fraction(1, count))
             for k in range(count)]
    return gl.atomic_state(disk(), atoms), rng.randint(1, 3)


@pytest.mark.parametrize("seed", range(12))
def test_gns_exact_matches_inner_product_reference(seed):
    rng = Random(seed)
    case = sorted(MOMENT_CASES)[seed % len(MOMENT_CASES)]
    build, case_degree = MOMENT_CASES[case]
    cases = [_random_atomic(rng), _random_atomic(rng),
             (gl.gaussian_state(line()), rng.randint(0, 10)),
             (gl.gaussian_state(line()), 40 - 3 * seed),
             _random_disk_atomic(rng), (build(True), case_degree + seed % 2)]
    for state, degree in cases:
        model = gl.gns_basis(gl.gram_matrix(state, degree))
        null, orthonormal = reference_gns_exact(model.gram)
        assert model.null_space == null
        assert model.orthonormal == orthonormal


UNITS = [ComplexRational(1), ComplexRational(0, 1), ComplexRational(-1),
         ComplexRational(0, -1)]


def _rotate(z, k):
    """i^k * z, exactly, for a float or an exact complex."""
    if isinstance(z, ComplexRational):
        return UNITS[k % 4] * z
    for _ in range(k % 4):
        z = complex(-z.imag, z.real)
    return z


def _twist_vectors(vectors):
    """Each vector v with last nonzero slot j as i^(j - a) * v[a]."""
    out = []
    for v in vectors:
        j = max(a for a, c in enumerate(v) if c)
        out.append(tuple(_rotate(c, j - a) for a, c in enumerate(v)))
    return tuple(out)


@pytest.mark.parametrize("seed", range(6))
def test_gns_exact_real_update_matches_complex_update(seed):
    # D^H G D with D = diag(i^k) turns the odd off-diagonals of a real Gram
    # matrix imaginary, so it takes the complex update; its vectors are the
    # real ones times i^(j - a), and the floats only swap and negate
    rng = Random(seed)
    points = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(rng.randint(2, 5))]
    state = gl.atomic_state(line(), [({"x": _q(p)}, 1) for p in points], rescale=True)
    model = gl.gram_matrix(state, rng.randint(1, 6))
    n = len(model.basis)
    twisted = tuple(tuple(_rotate(model.gram[a][b], b - a) for b in range(n))
                    for a in range(n))
    assert all(z.is_real() for row in model.gram for z in row)
    assert not all(z.is_real() for row in twisted for z in row)
    real = gl.gns_basis(model)
    general = gl.gns_basis(replace(model, gram=twisted))
    assert general.null_space == _twist_vectors(real.null_space)
    assert general.orthonormal == _twist_vectors(real.orthonormal)


def _hand_built(gram):
    """An exact model over the line whose Gram matrix is given as is."""
    size = len(gram)
    st = gl.gaussian_state(line())
    gram = tuple(tuple(ComplexRational(*entry) for entry in row) for row in gram)
    return gl.GnsModel(st, size - 1, tuple((d,) for d in range(size)), gram)


@pytest.mark.parametrize("gram, value", [
    ([[(1,), (2,)], [(2,), (1,)]], "-3"),
    ([[(Fraction(1, 2),), (1,)], [(1,), (Fraction(1, 3),)]], "-5/3"),
    ([[(2,), (0, 1), (0,)], [(0, -1), (Fraction(1, 3),), (0,)],
      [(0,), (0,), (1,)]], "-1/6"),
], ids=["integer", "rational", "complex"])
def test_gns_exact_rejects_indefinite_gram(gram, value):
    with pytest.raises(GnsError, match=r"^Gram matrix is not positive "
                       rf"semidefinite: squared length {value} at basis slot 1$"):
        gl.gns_basis(_hand_built(gram))


@pytest.mark.parametrize("gram", [
    [[(1, 1)]],
    [[(Fraction(1, 2),), (0,)], [(0,), (Fraction(1, 3), Fraction(1, 5))]],
], ids=["first", "second"])
def test_gns_exact_rejects_non_real_pivot(gram):
    with pytest.raises(GnsError, match="non-real squared length"):
        gl.gns_basis(_hand_built(gram))


def test_gns_exact_squared_length_below_float_range():
    # the variance 10^-400 / 4 of the two atoms is exact but underflows
    state = gl.atomic_state(line(), [
        ({"x": _q(0)}, Fraction(1, 2)),
        ({"x": _q(Fraction(1, 10 ** 200))}, Fraction(1, 2))])
    with pytest.raises(AlgebraError, match="underflow"):
        gl.gns_basis(gl.gram_matrix(state, 1))


def test_gns_exact_orthonormal_coefficient_past_float_range():
    # x - mean over a standard deviation of 10^-120 / 2: about 2e320
    state = gl.atomic_state(line(), [
        ({"x": _q(10 ** 200)}, Fraction(1, 2)),
        ({"x": _q(10 ** 200 + Fraction(1, 10 ** 120))}, Fraction(1, 2))])
    with pytest.raises(AlgebraError, match="overflow"):
        gl.gns_basis(gl.gram_matrix(state, 1))


def test_gns_basis_cap(monkeypatch):
    monkeypatch.setattr(gl.states, "MAX_GNS_BASIS", 10)
    st = gl.gaussian_state(line())
    assert len(gl.gram_matrix(st, 9).basis) == 10
    with pytest.raises(gl.UnsupportedError,
                       match="up to degree 10 exceeds the cap of 10"):
        gl.gram_matrix(st, 10)
    # the disk has 10 monomials of degree <= 3 and 15 of degree <= 4
    atomic = gl.atomic_state(disk(), [({"z": _q(1, 1)}, 1)])
    assert len(gl.gram_matrix(atomic, 3).basis) == 10
    with pytest.raises(gl.UnsupportedError, match="exceeds the cap of 10"):
        gl.gram_matrix(atomic, 4)


def test_gns_basis_cap_counts_irreducible_monomials():
    # 1, z^k and adj(z)^k: the circle has 2d + 1 basis monomials at degree d
    st = gl.atomic_state(circle(), [({"z": _q(1)}, 1)])
    assert len(gl.gram_matrix(st, 79).basis) == 159
    start = time.perf_counter()
    for degree in (80, 10 ** 9):
        with pytest.raises(gl.UnsupportedError,
                           match=f"up to degree {degree} exceeds the cap of 160"):
            gl.gram_matrix(st, degree)
    # the walk stops after 161 monomials, before any moment is read
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# Hermitian checks in gram_matrix, positivity in gns_basis
# ---------------------------------------------------------------------------

def _moment_rule_state(moments, exact):
    """A state on the line with E(x^k) = moments[k], built around the checks
    that the public constructors make."""
    value = ComplexRational if exact else complex
    return gl.State("analytic", line(), exact, False, "moment rule",
                    lambda a: None, lambda keys: [value(*moments[mono[0]]) for mono in keys])


@pytest.mark.parametrize("moments", [
    [(1,), (0, 1), (1,)],  # Gram [[1, i], [i, 1]]
    [(1,), (0,), (0, 1)],  # Gram [[1, 0], [0, i]]
], ids=["off-diagonal", "diagonal"])
@pytest.mark.parametrize("exact, message", [
    (True, "Gram matrix is not Hermitian"),
    (False, "Gram matrix is not Hermitian within tolerance"),
], ids=["exact", "float"])
def test_gram_matrix_rejects_non_hermitian_moments(moments, exact, message):
    st = _moment_rule_state(moments, exact)
    with pytest.raises(GnsError, match=f"^{message}$"):
        gl.gram_matrix(st, 1)


@pytest.mark.parametrize("exact, message", [
    (True, "squared length -1 at basis slot 1$"),
    (False, r"eigenvalue .*-1\.0"),
], ids=["exact", "float"])
def test_gns_basis_rejects_indefinite_gram(exact, message):
    # Gram [[1, 0], [0, -1]]: gram_matrix builds it, gns_basis rejects it
    st = _moment_rule_state([(1,), (0,), (-1,)], exact)
    model = gl.gram_matrix(st, 1)
    assert model.null_space is None
    match = f"^Gram matrix is not positive semidefinite: {message}"
    with pytest.raises(GnsError, match=match):
        gl.gns_basis(model)
    with pytest.raises(GnsError, match=match):
        gl.multiplication_operator(model, "x")


@pytest.mark.parametrize("adj_z, hermitian", [((0, 1), False), ((0, -1), True)],
                         ids=["i", "minus-i"])
@pytest.mark.parametrize("exact, message", [
    (True, "Gram matrix is not Hermitian"),
    (False, "Gram matrix is not Hermitian within tolerance"),
], ids=["exact", "float"])
def test_gram_matrix_checks_free_pairs(adj_z, hermitian, exact, message):
    # E(z) = i and E(adj(z)) = adj_z: the Gram entry (adj(z), 1) must be the
    # conjugate of the entry (z, 1), and the involute of the key z is the key
    # adj(z) in the other exponent slot
    value = ComplexRational if exact else complex
    moments = {(0, 0): (1,), (1, 0): (0, 1), (0, 1): adj_z}
    st = gl.State("analytic", disk(), exact, False, "moment rule", lambda a: None,
                  lambda keys: [value(*moments.get(mono, (0,))) for mono in keys])
    if hermitian:
        assert len(gl.gram_matrix(st, 1).basis) == 3
    else:
        with pytest.raises(GnsError, match=f"^{message}$"):
            gl.gram_matrix(st, 1)


@pytest.mark.parametrize("case, degree", [("gaussian", 4), ("disk", 2)])
def test_gns_exact_gram_with_separate_equal_values(monkeypatch, case, degree):
    # gram_matrix shares one object per moment; a hand-built Gram may hold
    # equal values as separate objects, or share them by value.  Both states
    # have many zero moments; the disk's Gram is complex.
    state = gl.gaussian_state(line()) if case == "gaussian" else gl.atomic_state(
        disk(), [({"z": _q("1/2", "1/2")}, 1), ({"z": _q("-1/2", "-1/2")}, 1)], rescale=True)
    model = gl.gram_matrix(state, degree)
    separate = tuple(tuple(ComplexRational(z.re, z.im) for z in row) for row in model.gram)
    by_value: dict = {}
    shared = tuple(tuple(by_value.setdefault(z, z) for z in row) for row in model.gram)
    assert len({id(z) for row in separate for z in row}) == len(model.basis) ** 2
    assert len(by_value) < len({id(z) for row in model.gram for z in row})
    variants = [model, replace(model, gram=separate), replace(model, gram=shared)]
    completed = [gl.gns_basis(m) for m in variants]
    for other in completed[1:]:
        assert other.null_space == completed[0].null_space
        assert repr(other.orthonormal) == repr(completed[0].orthonormal)
    monkeypatch.setattr(gl.states, "MAX_GNS_WORK", 0)
    messages = set()
    for m in variants:
        with pytest.raises(UnsupportedError, match="^exact GNS work ") as info:
            gl.gns_basis(m)
        messages.add(str(info.value))
    assert len(messages) == 1
    assert (" * 4 exceeds" in messages.pop()) == (case == "disk")
