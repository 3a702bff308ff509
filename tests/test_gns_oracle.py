"""Exact GNS models against the entry-by-entry construction.

``gram_matrix`` evaluates each distinct moment once and checks Hermitian
symmetry once per distinct raw product monomial.  The reference here does
neither: it evaluates ``state.moment`` on the raw product monomial of every
entry, checks every pair of entries, and feeds that Gram matrix, whose
entries are all separate objects, to ``gns_basis``.  Gram matrices, null
spaces and the repr of the orthonormal vectors must be equal.

This file imports no numpy, so it also runs where numpy is not installed:
exact Gram matrices and GNS bases must not need it.
"""

import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gelfand_lab as gl
from gelfand_lab import ComplexRational
from gelfand_lab.algebra import mono_involute, mono_mul
from gelfand_lab.errors import GnsError
from gelfand_lab.scalars import ONE

from helpers import CIRCLE, circle, disk, line, rand_poly


def per_entry_gram(state, basis):
    """The Gram matrix with one moment evaluation per entry, and whether
    every entry (i, j) is the conjugate of entry (j, i)."""
    adjoint = state.pres.adjoint
    gram = tuple(tuple(state.moment(mono_mul(mono_involute(adjoint, mi), mj))
                       for mj in basis) for mi in basis)
    n = len(basis)
    hermitian = all(gram[i][j] == gram[j][i].conjugate()
                    for i in range(n) for j in range(i, n))
    return gram, hermitian


def check_against_per_entry(state, degree):
    model = gl.gram_matrix(state, degree)
    gram, hermitian = per_entry_gram(state, model.basis)
    assert hermitian
    assert model.gram == gram
    completed = gl.gns_basis(model)
    reference = gl.gns_basis(replace(model, gram=gram, moments={}))
    assert completed.null_space == reference.null_space
    assert repr(completed.orthonormal) == repr(reference.orthonormal)
    return completed


def _q(re, im=0):
    return ComplexRational(Fraction(re), Fraction(im))


def _atomic(pres, points):
    return gl.atomic_state(pres, [(point, 1) for point in points], rescale=True)


CASES = {
    "line": (lambda: _atomic(line(), [{"x": _q(v)} for v in ("-1", "1/3", "2", "5/2")]),
             (0, 1, 3, 5, 8)),
    "disk": (lambda: _atomic(disk(), [{"z": _q("1/2", "-1/3")}, {"z": _q(-1, 2)},
                                      {"z": _q(0, "3/4")}]), (0, 1, 2, 3)),
    "circle": (lambda: _atomic(circle(), [{"z": _q("3/5", "4/5")}, {"z": _q(-1)},
                                          {"z": _q("5/13", "-12/13")}]), (1, 2, 4, 6)),
    "gaussian": (lambda: gl.gaussian_state(line()), (0, 2, 5, 9, 14)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_model_matches_per_entry_construction(case):
    build, degrees = CASES[case]
    state = build()
    for degree in degrees:
        check_against_per_entry(state, degree)


def test_per_entry_gram_repeats_values_the_model_shares():
    # the model's Gram holds one object per distinct raw product monomial,
    # the reference's one per entry
    state = CASES["circle"][0]()
    model = check_against_per_entry(state, 3)
    shared = {id(z) for row in model.gram for z in row}
    assert len(shared) == len(model.moments) < len(model.basis) ** 2
    assert model.rank() == 3


# ---------------------------------------------------------------------------
# moment batches against one moment per key
# ---------------------------------------------------------------------------

BATCH_CASES = {
    **{name: build for name, (build, _) in CASES.items()},
    "gaussian-rules": lambda: gl.gaussian_state(gl.parse_presentation(
        "algebra R ; generator x : selfadjoint ; relation x^3 - x ;")),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_exact_batch_equals_per_monomial_moments(case):
    # keys repeat each exponent across the batch, so the power tables are
    # shared; on the circle most keys reduce, z*adj(z) being 1
    state = BATCH_CASES[case]()
    pres = state.pres
    keys = list(product((0, 1, 3, 4, 7), repeat=len(pres.generators)))
    Random(31).shuffle(keys)
    batch = state.moments(keys)
    assert all(isinstance(v, ComplexRational) for v in batch)
    assert batch == [state.moment(key) for key in keys]
    assert batch == [state.functional(pres.poly({key: ONE})) for key in keys]
    assert state.moments([]) == []


def _exact_rule(pres, moments):
    """An exact state with E(m) = moments[m] (0 off the table), built around
    the checks that the public constructors make."""
    return gl.State("analytic", pres, True, False, "moment rule", lambda a: None,
                    lambda keys: [ComplexRational(*moments.get(mono, (0,))) for mono in keys])


@pytest.mark.parametrize("moments", [
    {(0, 0): (1,), (1, 0): (1,), (0, 1): (2,)},  # real parts differ
    {(0, 0): (1,), (1, 1): (1, 1)},  # E(adj(z)*z) = 1 + i
], ids=["disk-pair-real", "disk-self-involute"])
def test_exact_gram_rejects_non_hermitian_moments(moments):
    # the line cases and a pair with equal imaginary parts are in
    # test_states_gns.py, beside their float twins
    with pytest.raises(GnsError, match="^Gram matrix is not Hermitian$"):
        gl.gram_matrix(_exact_rule(disk(), moments), 1)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def rational_atoms(draw):
    """The line, the disk or the circle, and 1 to 5 rational atoms on it
    with integer weights."""
    kind = draw(st.sampled_from(["line", "disk", "circle"]))
    pres = {"line": line, "disk": disk, "circle": circle}[kind]()
    atoms = []
    for _ in range(draw(st.integers(1, 5))):
        if kind == "line":
            point = {"x": ComplexRational(draw(small_rationals))}
        elif kind == "disk":
            point = {"z": ComplexRational(draw(small_rationals), draw(small_rationals))}
        else:  # the rational point ((1 - t^2) + 2t i) / (1 + t^2) of the circle
            t = draw(small_rationals)
            point = {"z": ComplexRational((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))}
        atoms.append((point, draw(st.integers(1, 4))))
    return pres, atoms


@st.composite
def rational_atomic_states(draw):
    """An exact atomic state with 1 to 5 rational atoms on the line, the
    disk or the circle, and a degree."""
    pres, atoms = draw(rational_atoms())
    degree = draw(st.integers(0, {"Line": 6, "Disk": 2, "Circle": 4}[pres.name]))
    return gl.atomic_state(pres, atoms, rescale=True), degree


@given(rational_atomic_states())
def test_rational_atoms_match_per_entry_construction(case):
    state, degree = case
    check_against_per_entry(state, degree)


# ---------------------------------------------------------------------------
# the exact functional against evaluation at each atom
# ---------------------------------------------------------------------------

@given(rational_atoms(), st.randoms(use_true_random=False))
def test_exact_functional_is_the_weighted_point_evaluation(case, rng):
    # expect and moment read E off the state's own moment batch; the oracle
    # evaluates the normal form at each atom by gelfand_eval and weighs it.
    # On the circle the raw monomial may reduce, z*adj(z) being 1
    pres, atoms = case
    state = gl.atomic_state(pres, atoms, rescale=True)
    total = sum(w for _, w in atoms)
    chars = [(gl.validate_character(pres, point), Fraction(w, total)) for point, w in atoms]

    def oracle(a):
        return sum((gl.gelfand_eval(a, char) * w for char, w in chars), ComplexRational(0))

    a = rand_poly(pres, rng, max_degree=6)
    assert state.expect(a) == oracle(a)
    mono = tuple(rng.randint(0, 6) for _ in pres.generators)
    assert state.moment(mono) == oracle(pres.poly({mono: ONE}))


def test_exact_models_load_no_numpy():
    # a fresh interpreter in which any import of numpy raises ImportError
    code = (
        'import sys; sys.modules["numpy"] = None\n'
        "import gelfand_lab as gl\n"
        f"pres = gl.parse_presentation({CIRCLE!r})\n"
        'state = gl.parse_state("state atomic { (z = (3/5+4/5i)) : 1/2 ; (z = -1) : 1/2 }", pres)\n'
        "print(gl.gns_basis(gl.gram_matrix(state, 3)).rank(),\n"
        "      gl.gns_basis(gl.gram_matrix(gl.gaussian_state(gl.parse_presentation(\n"
        '          "algebra L ; generator x : selfadjoint ;")), 6)).rank())\n')
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "7"]
