"""States and the GNS construction on presented *-algebras.

A state is a unital positive linear functional, held as one closure.
Atomic states (finite convex combinations of characters, exact when the
support is rational) and quadrature states (a box with a density, by tensor
Gauss-Legendre rules) are weighted point evaluations; analytic states apply
a moment rule such as the standard Gaussian, which is densely defined
rather than compactly supported, but still exact on every polynomial.

The GNS model is built degree by degree: the Gram matrix of the pairing
E(adj(a) * b) on irreducible monomials up to the chosen degree, its null
space (the zero-length directions that the quotient removes), and an
orthonormal basis of the complement.  Every entry is read from a per-model
moment table, so each distinct moment is evaluated once, on the raw
product monomial, in one batch per matrix (``State.moments``).  On exact
states everything up to the final normalization square roots is rational
arithmetic, so null vectors like x^2 - 1 come out exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, islice
from operator import mul
from typing import Callable, Mapping, Sequence, Union

from . import spectrum
from .algebra import (Monomial, StarPoly, StarPresentation, Terms, _layout, grlex_key,
                      mono_involute, normalize_table)
from .errors import AlgebraError, GnsError, StateError, check_cap, require_numpy
from .scalars import (FLOAT_OVERFLOW, ONE, ZERO, ComplexRational, from_numerators,
                      power, ratio_to_float, to_float, to_numerators)
from .spectrum import Character, CompactBox, axis_layout, eval_terms, format_value

Value = Union[ComplexRational, complex]

PSD_TOLERANCE = 1e-10
NULL_THRESHOLD = 1e-9
# Largest GNS basis, counted on the irreducible monomials the basis walk
# yields.  At the cap, `gns` of the Gaussian state on the line (degree 159)
# ends in about 3 s on a 2-vCPU VM.
MAX_GNS_BASIS = 160
# Largest exact Gram-Schmidt work n^2 * r * B^2: n basis monomials, r a bound
# on the rank (the support size of a point state, else n), B the bit length
# of the Gram's common denominator plus that of its largest numerator, and
# four times that on a complex Gram.  Atomic states on the line and the
# circle (2 to 40 atoms, degrees 40 to 159) took 0.8 to 1.3 ps per unit
# above 5e12 on a 2-vCPU VM, so a run at the cap ends in about 7 to 12 s;
# the Gaussian state at degree 159 counts 4.9e12.
MAX_GNS_WORK = 2**43
# Largest Gauss-Legendre order of a quadrature state, and largest node count
# order^axes of its tensor rule.  leggauss(2048) takes 0.7 to 1.7 s and
# 96 MB peak RSS (4.2 s and 290 MB at 4096).  At the caps, `gns` at the
# largest basis MAX_GNS_BASIS admits took 1.5 to 4.5 s on one to six axes
# on a 2-vCPU VM, each under 200 MB peak RSS.
MAX_QUADRATURE_ORDER = 2048
MAX_QUADRATURE_NODES = 2**12


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class State:
    kind: str  # report label only: atomic | quadrature | analytic
    pres: StarPresentation
    exact: bool
    densely_defined: bool
    source: str  # canonical state text, read back by parse_state
    functional: Callable[[StarPoly], Value]  # a -> E(a)
    # raw monomials -> E of each, in one call
    moments: Callable[[Sequence[Monomial]], list[Value]]
    support: int | None = None  # support points, which bound every Gram rank

    def expect(self, a: StarPoly) -> Value:
        return expect(self, a)

    def moment(self, mono: Monomial) -> Value:
        """E on one raw monomial."""
        return self.moments([mono])[0]


def _point_state(kind: str, pres: StarPresentation, source: str,
                 points: Sequence[Character],
                 weights: Sequence[Union[Fraction, float]]) -> State:
    """E(a) = sum of w * a(p) over weighted points; exact when every point is."""
    if all(p.exact for p in points):
        batch = _exact_point_batch(tuple(zip(points, weights)))
        return State(kind, pres, True, False, source, lambda a: _combine(a.terms, batch),
                     batch, len(points))
    pairs = tuple(zip(points, map(float, weights)))

    # the exact points and the float points each take one ``eval_terms``
    # call per batch, so each point's powers are computed once per batch
    groups = {ex: [char.values for char, _ in pairs if char.exact == ex]
              for ex in (True, False)}

    def values(batch: Sequence[Terms]) -> list[complex]:
        """E on each terms list of a batch."""
        at = {ex: iter(eval_terms(batch, group, ex)) for ex, group in groups.items() if group}
        sums = [0j] * len(batch)
        for char, w in pairs:
            totals = next(at[char.exact])
            if char.exact:
                totals = map(complex, totals)
            sums = [s + v * w for s, v in zip(sums, totals)]
        return sums

    # float points need not satisfy the relations exactly
    normal_form = _normal_form(pres)
    return State(kind, pres, False, False, source, lambda a: values([a.terms])[0],
                 lambda keys: values(list(map(normal_form, keys))), len(pairs))


def _combine(terms: Terms, batch: Callable[[Sequence[Monomial]], list[ComplexRational]]
             ) -> ComplexRational:
    """The sum of c * E(m) over the terms, with E on every m from one call
    of an exact batch: an exact state's functional on a.terms."""
    return sum(map(mul, (c for _, c in terms), batch([m for m, _ in terms])), ZERO)


def _normal_form(pres: StarPresentation) -> Callable[[Monomial], Terms]:
    """m -> the terms of the normal form of the raw monomial m, which are
    ((m, 1),) when the presentation has no rules."""
    rules = pres.rules()
    if not rules:
        return lambda mono: ((mono, ONE),)
    return lambda mono: normalize_table(rules, {mono: ONE})[0]


def _exact_point_batch(pairs: Sequence[tuple[Character, Fraction]]):
    """E on a batch of raw monomials at exact points.

    An exact character satisfies every relation exactly, so its value on m
    is its value on the normal form of m.  Every point value is held once
    as Gaussian-integer numerators over one common denominator D, and each
    weight as an integer W_p over one common denominator W, so
    E(m) = sum of W_p * prod(num_i ** e_i) / (W * D ** |m|).  Each call
    tabulates the powers num_i ** e of every point for the (i, e) its batch
    uses; the tables live for that call.
    """
    k = len(pairs[0][0].values)
    den, re, im = to_numerators(chain.from_iterable(char.values for char, _ in pairs))
    nums = list(zip(re, im))
    w_den = math.lcm(*(w.denominator for _, w in pairs))
    points = [(w.numerator * (w_den // w.denominator), nums[j * k:(j + 1) * k])
              for j, (_, w) in enumerate(pairs)]

    def batch(keys: Sequence[Monomial]) -> list[ComplexRational]:
        used = sorted({(i, e) for key in keys for i, e in enumerate(key)}
                      | {(i, 0) for i in range(k)})
        tables = []
        for weight, point in points:
            table = {}
            # sorted, so (i, 0) starts each generator and each later power
            # comes from the one before it
            for i, e in used:
                table[i, e] = p = power(point[i], e - done, p, _gauss_mul) if e else (1, 0)
                done = e
            tables.append((weight, table))
        out = []
        for key in keys:
            factors = [(i, e) for i, e in enumerate(key) if e]
            re_sum = im_sum = 0
            for x, table in tables:
                y = 0
                for f in factors:
                    a, b = table[f]
                    x, y = x * a - y * b, x * b + y * a
                re_sum += x
                im_sum += y
            out.append(from_numerators(w_den * den ** sum(key), [re_sum], [im_sum])[0])
        return out

    return batch


def _gauss_mul(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def atomic_state(pres: StarPresentation,
                 atoms: Sequence[tuple[Union[Character, Mapping[str, Value]],
                                       Union[Fraction, int]]],
                 rescale: bool = False) -> State:
    """A convex combination of point evaluations with rational weights."""
    if not pres.is_star:
        raise StateError("states are defined on *-presentations")
    if not atoms:
        raise StateError("atomic state needs at least one support point")
    resolved: list[tuple[Character, Fraction]] = []
    for point, weight in atoms:
        w = Fraction(weight)
        if w <= 0:
            raise StateError("atomic weights must be positive")
        char = point if isinstance(point, Character) \
            else spectrum.validate_character(pres, point)
        if char.pres != pres:
            raise StateError("support point lives over the wrong presentation")
        resolved.append((char, w))
    total = sum(w for _, w in resolved)
    if total != 1:
        if not rescale:
            raise StateError(f"atomic weights sum to {total}, not 1 "
                             f"(pass rescale=True to normalize)")
        resolved = [(c, w / total) for c, w in resolved]
    parts = []
    for char, w in resolved:
        assigns = " ; ".join(f"{g} = {format_value(v)}"
                             for g, v in zip(pres.generators, char.values))
        parts.append(f"({assigns}) : {w}")
    source = "state atomic { " + " ; ".join(parts) + " }"
    chars, weights = zip(*resolved)
    return _point_state("atomic", pres, source, chars, weights)


def quadrature_state(pres: StarPresentation, box: CompactBox,
                     density: Union[str, Callable[[tuple[float, ...]], float]],
                     order: int, rescale: bool = False) -> State:
    """Integration against a density on a box, by tensor Gauss-Legendre.

    The density must be normalized: node weights times density values must
    sum to 1 within 1e-12 (the rule integrates polynomials of degree up to
    2*order - 1 exactly, so for polynomial densities this is a real check,
    not a float formality).
    """
    if not pres.is_star:
        raise StateError("states are defined on *-presentations")
    if box.pres != pres:
        raise StateError("quadrature box lives over the wrong presentation")
    if order < 1:
        raise StateError("quadrature order must be at least 1")
    check_cap(f"quadrature order {order}", order, MAX_QUADRATURE_ORDER)
    check_cap(f"quadrature rule of {order}^{len(box.intervals)} nodes",
              order ** len(box.intervals), MAX_QUADRATURE_NODES)
    if isinstance(density, str):
        if density != "uniform":
            raise StateError(f"unknown density {density!r}; the catalog has "
                             f"'uniform', or pass a callable")
        volume = to_float(box.volume())
        if volume == 0:  # or below the float range
            raise StateError("the uniform density needs a box of positive "
                             "volume")
        inv_vol = 1.0 / volume
        name, density_fn = density, lambda _point: inv_vol
    else:
        name, density_fn = getattr(density, "__name__", "callable"), density
    np = require_numpy()
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    per_axis: list[list[tuple[float, float]]] = []
    for lo, hi in box.intervals:
        lo_f, hi_f = to_float(lo), to_float(hi)
        mid = (lo_f + hi_f) / 2.0
        half = (hi_f - lo_f) / 2.0
        per_axis.append([(mid + half * t, half * w)
                         for t, w in zip(base_nodes, base_weights)])
    nodes: list[Character] = []
    weights: list[float] = []
    stack: list[tuple[tuple[float, ...], float]] = [((), 1.0)]
    for axis in per_axis:
        stack = [(pt + (x,), w * wx) for pt, w in stack for x, wx in axis]
    for point, w in stack:
        w *= float(density_fn(point))
        nodes.append(spectrum.character_from_axes(pres, point, exact=False))
        weights.append(w)
    total = sum(weights)
    if abs(total - 1.0) > 1e-12:
        if not rescale:
            raise StateError(f"quadrature weights sum to {total!r}, not 1; "
                             f"normalize the density or pass rescale=True")
        weights = [w / total for w in weights]
    spans = " x ".join(f"[{lo}, {hi}]" for lo, hi in box.intervals)
    source = f'state density "{name}" on {spans} order {order}'
    return _point_state("quadrature", pres, source, nodes, weights)


def gaussian_state(pres: StarPresentation, generator: str | None = None) -> State:
    """Standard Gaussian moments on one self-adjoint generator.

    Densely defined: there is no compact support box, but every polynomial
    still has an exact expectation: m_k is the double factorial (k - 1)!!
    for even k and 0 for odd k, computed on each call, so the state holds
    no table.
    """
    if not pres.is_star:
        raise StateError("states are defined on *-presentations")
    selfadj = [gi for gi, n in axis_layout(pres) if n == 1]
    if generator is None:
        if len(selfadj) != 1:
            raise StateError("name the generator: the presentation does not "
                             "have a unique self-adjoint generator")
        idx = selfadj[0]
    else:
        idx = pres.generator_index(generator)
        if idx not in selfadj:
            raise StateError(f"generator {generator!r} is not self-adjoint")

    def rule(keys: Sequence[Monomial]) -> list[ComplexRational]:
        stray = {i for key in keys for i, e in enumerate(key) if e} - {idx}
        if stray:
            raise StateError(f"moment rule has no value for generator "
                             f"{pres.generators[min(stray)]!r}; the Gaussian rule "
                             f"covers only {pres.generators[idx]!r}")
        return [ZERO if k % 2 else ComplexRational(math.prod(range(k - 1, 0, -2)))
                for k in (key[idx] for key in keys)]

    # the rule reads the raw monomial itself; under rules it reads the
    # terms of the normal form.  The terms of an element are irreducible,
    # so the functional reads them with the rule alone
    normal_form = _normal_form(pres)
    moments = (lambda keys: [_combine(normal_form(key), rule) for key in keys]) \
        if pres.rules() else rule
    return State("analytic", pres, True, True, f"state gaussian({pres.generators[idx]})",
                 lambda a: _combine(a.terms, rule), moments)


def expect(state: State, a: StarPoly) -> Value:
    """The expectation E(a); exact for atomic-rational and analytic states."""
    if a.pres != state.pres:
        raise StateError("element lives over the wrong presentation")
    return state.functional(a)


# ---------------------------------------------------------------------------
# GNS model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GnsModel:
    """Gram data of a state on monomials up to a degree, plus (after
    :func:`gns_basis`) the null space and an orthonormal residual basis.

    Coefficient vectors are indexed by ``basis`` (irreducible monomials in
    ascending graded-lex order).  Exact models keep the Gram matrix and null
    vectors in rational arithmetic; orthonormal coefficients are floats in
    either case because normalization divides by square roots.

    ``moments`` maps a raw (unnormalized) product monomial to the state's
    value on it; it belongs to this model, and the operators extend it.
    """

    state: State
    degree: int
    basis: tuple[Monomial, ...]
    gram: object  # tuple of tuples of ComplexRational, or complex ndarray
    null_space: tuple[tuple, ...] | None = None
    orthonormal: tuple[tuple[complex, ...], ...] | None = None
    moments: dict[Monomial, Value] = field(default_factory=dict, repr=False)

    @property
    def pres(self) -> StarPresentation:
        return self.state.pres

    @property
    def exact(self) -> bool:
        return self.state.exact

    def basis_poly(self, index: int) -> StarPoly:
        return self.pres.poly({self.basis[index]: ONE})

    def rank(self) -> int:
        if self.orthonormal is None:
            raise GnsError("rank is available after gns_basis")
        return len(self.orthonormal)

    def null_polys(self) -> list[StarPoly]:
        if self.null_space is None:
            raise GnsError("null space is available after gns_basis")
        if not self.exact:
            raise GnsError("null vectors of a floating model are coefficient "
                           "vectors, not exact polynomials")
        out = []
        for vec in self.null_space:
            table = {m: c for m, c in zip(self.basis, vec) if not c.is_zero()}
            out.append(self.pres.poly(table))
        return out


def _pairing(state: State, moments: dict[Monomial, Value], basis: Sequence[Monomial],
             w: Monomial) -> tuple[list[list[int]], dict[int, Value]]:
    """Rows i, columns j: the code of the raw product monomial
    adj(m_i) * w * m_j, the key of that entry's moment; and the moment at
    each distinct code.

    Monomials are coded at one ``algebra._layout`` wide enough for every
    product, so each product is one addition, and only the distinct codes
    are decoded back to monomials.  The keys not yet in the moment table go
    to the state as one batch.
    """
    top = 2 * max(map(sum, basis), default=0) + sum(w)
    layout = _layout(len(w), top.bit_length())
    code = layout.code
    adjoint = state.pres.adjoint
    rights = [code(mj) for mj in basis]
    shift = code(w)
    codes = [[left + right for right in rights]
             for left in (code(mono_involute(adjoint, mi)) + shift for mi in basis)]
    keys = {c: layout.mono(c) for c in dict.fromkeys(chain.from_iterable(codes))}
    new = [key for key in keys.values() if key not in moments]
    moments.update(zip(new, state.moments(new)))
    return codes, {c: moments[key] for c, key in keys.items()}


def _complex_matrix(codes: list[list[int]], values: dict[int, Value]) -> np.ndarray:
    """The complex array of the moments at ``codes``, one ``complex()`` per
    distinct code."""
    np = require_numpy()
    slots = {c: k for k, c in enumerate(values)}
    array = np.array([complex(v) for v in values.values()], dtype=complex)
    index = np.array([[slots[c] for c in row] for row in codes], dtype=np.intp)
    return array[index].reshape(len(codes), len(codes))


def gram_matrix(state: State, degree: int) -> GnsModel:
    """Gram matrix of E(adj(a) b) on irreducible monomials up to ``degree``.

    Entry (i, j) is the moment of the raw monomial adj(m_i) * m_j.  It is
    checked Hermitian here and positive semidefinite in :func:`gns_basis`.
    """
    if degree < 0:
        raise AlgebraError("degree must be nonnegative")
    basis = list(islice(state.pres._irreducible(degree), MAX_GNS_BASIS + 1))
    check_cap(f"GNS basis of irreducible monomials up to degree {degree}",
              len(basis), MAX_GNS_BASIS)
    basis = tuple(sorted(basis, key=grlex_key))
    n = len(basis)
    moments: dict[Monomial, Value] = {}
    codes, values = _pairing(state, moments, basis, (0,) * len(state.pres.generators))
    if state.exact:
        # the key of entry (j, i) is the involute of the key of (i, j), so
        # one check per distinct key covers every pair of entries; a key
        # that is its own involute needs a real moment
        adjoint = state.pres.adjoint
        hermitian = all(v.re == u.re and v.im == -u.im for v, u in (
            (v, moments[mono_involute(adjoint, key)]) for key, v in moments.items()))
        if not hermitian:
            raise GnsError("Gram matrix is not Hermitian")
        gram = tuple(tuple(map(values.__getitem__, row)) for row in codes)
        return GnsModel(state, degree, basis, gram, moments=moments)
    np = require_numpy()
    arr = _complex_matrix(codes, values)
    scale = max(1.0, float(np.max(np.abs(arr)))) if n else 1.0
    if n and float(np.max(np.abs(arr - arr.conj().T))) > PSD_TOLERANCE * scale:
        raise GnsError("Gram matrix is not Hermitian within tolerance")
    arr = (arr + arr.conj().T) / 2.0
    return GnsModel(state, degree, basis, arr, moments=moments)


def _gns_exact(model: GnsModel) -> GnsModel:
    gram = model.gram
    n = len(model.basis)
    # scale * G is a matrix of Gaussian integers, flat in row-major order,
    # so column j is g_re[j::n], g_im[j::n].  Its entries are moments, few
    # of them distinct, so each distinct value is converted once.  Entries
    # are told apart by identity: gram_matrix shares one object per moment,
    # and equal values held twice only repeat in to_numerators, which
    # leaves the lcm and every numerator as they are.
    distinct = {id(z): z for z in chain.from_iterable(gram)}
    slots = {key: k for k, key in enumerate(distinct)}
    scale, d_re, d_im = to_numerators(distinct.values())
    real = not any(d_im)
    rank = min(n, model.state.support or n)
    bits = scale.bit_length() + max((abs(x).bit_length() for x in d_re + d_im), default=0)
    check_cap(f"exact GNS work {n}^2 * {rank} * {bits}^2{'' if real else ' * 4'}",
              n * n * rank * bits * bits * (1 if real else 4), MAX_GNS_WORK)
    index = [slots[id(z)] for z in chain.from_iterable(gram)]
    g_re = [d_re[k] for k in index]
    g_im = [d_im[k] for k in index]
    # The current vector v and its image scale * G v are held as one list
    # of 2n Gaussian-integer numerators (re and im parts) over a positive
    # den.  G is Hermitian and the kept vectors u are G-orthogonal, so the
    # projection coefficient of v on u is conj((G u)[j]) / (G u)[slot of u],
    # here conj(u[n + j]) / pivot, and the squared length of v is v[n + j].
    # On a real G every imaginary numerator stays 0, so only v_re moves.
    zeros = [0] * (2 * n)
    ortho: list[tuple[list[int], list[int], int, int]] = []
    null: list[tuple[ComplexRational, ...]] = []
    for j in range(n):
        v_re = [int(i == j) for i in range(n)] + g_re[j::n]
        v_im = zeros if real else [0] * n + g_im[j::n]
        den = 1
        for u_re, u_im, u_den, pivot in ortho:
            c_re, c_im = u_re[n + j], -u_im[n + j]
            if not (c_re or c_im):
                continue
            # v - c u over the least common multiple of den and pivot * u_den
            u_scale = pivot * u_den
            g = math.gcd(den, u_scale)
            keep, take = u_scale // g, den // g
            t_re, t_im = take * c_re, take * c_im
            den *= keep
            if real:
                v_re = [keep * x - t_re * y for x, y in zip(v_re, u_re)]
                g = math.gcd(den, *v_re)
            else:
                v_re, v_im = (
                    [keep * x - t_re * y + t_im * z for x, y, z in zip(v_re, u_re, u_im)],
                    [keep * x - t_re * z - t_im * y for x, y, z in zip(v_im, u_re, u_im)])
                g = math.gcd(den, *v_re, *v_im)
            if g > 1:
                den //= g
                v_re = [x // g for x in v_re]
                if not real:
                    v_im = [x // g for x in v_im]
        if v_im[n + j]:
            raise GnsError("Gram pairing produced a non-real squared length")
        pivot = v_re[n + j]
        if pivot < 0:
            raise GnsError("Gram matrix is not positive semidefinite: "
                           f"squared length {Fraction(pivot, den * scale)} "
                           f"at basis slot {j}")
        if pivot == 0:
            null.append(tuple(from_numerators(den, v_re[:n], v_im[:n])))
        else:
            ortho.append((v_re, v_im, den, pivot))
    orthonormal = []
    for u_re, u_im, u_den, pivot in ortho:
        length = ratio_to_float(pivot, u_den * scale) ** 0.5
        if not length:
            raise AlgebraError("floating point underflow: a squared length "
                               "of the GNS basis is below the float range")
        row = tuple(complex(ratio_to_float(x, u_den), ratio_to_float(y, u_den)) / length
                    for x, y in zip(u_re[:n], u_im[:n]))
        if not all(map(cmath.isfinite, row)):
            raise AlgebraError(FLOAT_OVERFLOW)
        orthonormal.append(row)
    return replace(model, null_space=tuple(null), orthonormal=tuple(orthonormal))


def _gns_float(model: GnsModel) -> GnsModel:
    np = require_numpy()
    gram = model.gram
    n = len(model.basis)
    eigs = np.linalg.eigvalsh(gram) if n else [0.0]
    scale = max(1.0, float(eigs[-1]))
    if eigs[0] < -PSD_TOLERANCE * scale:
        raise GnsError(f"Gram matrix is not positive semidefinite: "
                       f"eigenvalue {eigs[0]!r}")
    ortho: list[tuple[np.ndarray, np.ndarray, float]] = []
    null: list[tuple[complex, ...]] = []
    for j in range(n):
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        gv = gram[:, j].copy()
        for u, gu, n2 in ortho:
            c = complex(np.vdot(u, gv)) / n2
            if c:
                v -= c * u
                gv -= c * gu
        norm2 = complex(np.vdot(v, gv)).real
        if norm2 < -PSD_TOLERANCE * scale:
            raise GnsError("Gram matrix is not positive semidefinite: "
                           f"squared length {norm2!r} at basis slot {j}")
        if norm2 <= NULL_THRESHOLD * scale:
            lead = v[j]
            null.append(tuple(v / lead))
        else:
            ortho.append((v, gv, norm2))
    orthonormal = tuple(tuple(u / norm2 ** 0.5) for u, _, norm2 in ortho)
    return replace(model, null_space=tuple(null), orthonormal=orthonormal)


def gns_basis(model: GnsModel) -> GnsModel:
    """Split the monomial basis into null directions and an orthonormal rest.

    Gram-Schmidt runs in ascending graded-lex order, so each vector is the
    corresponding monomial minus its projection onto everything earlier; a
    vector of squared length zero is a null direction and keeps unit leading
    coefficient (e.g. the two-point state at +-1 yields x^2 - 1 on the nose).
    Exact models detect zero exactly; floating models use a relative
    threshold against the largest eigenvalue.  Positivity is decided here
    alone: a negative squared length or lowest eigenvalue raises GnsError.
    """
    if model.null_space is not None:
        return model
    return _gns_exact(model) if model.exact else _gns_float(model)


def multiplication_operator(model: GnsModel, generator: Union[int, str]) -> np.ndarray:
    """Matrix of multiplication by a generator on the orthonormal basis.

    Entry (i, j) is E(adj(b_i) g b_j).  Products of top-degree basis vectors
    with the generator leave the truncation degree, so the last row and
    column see moments beyond 2 * degree: the matrix is the compression of
    the true operator onto the model space, and its final row/column carries
    that truncation leakage rather than hiding it.
    """
    np = require_numpy()
    completed = gns_basis(model)
    idx = completed.pres.generator_index(generator)
    n = len(completed.basis)
    gen = tuple(int(i == idx) for i in range(len(completed.pres.generators)))
    pairing = _complex_matrix(*_pairing(completed.state, completed.moments,
                                        completed.basis, gen))
    # columns are basis vectors; the shape holds for an empty basis too
    b = np.array(completed.orthonormal, dtype=complex).reshape(completed.rank(), n).T
    return b.conj().T @ pairing @ b
