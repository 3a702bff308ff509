"""Seminorms on boxes, Bernstein approximation, Wirtinger derivatives.

The sup-seminorm of a transform over a box is bracketed from below by a grid
maximum and from above by coefficient bounding.  Both sides are exact for
polynomial subjects: grid points are rational characters, and the upper bound
multiplies coefficient 1-norms by per-generator modulus bounds in Fraction
arithmetic, which makes subadditivity and submultiplicativity of the reported
upper bounds theorems rather than floating point accidents.

Bernstein approximation returns an exact polynomial (node values are embedded
into rational coefficients) together with an error estimate measured against
a numerically stable evaluator; high-degree expanded coefficients are huge
and alternating, so the expanded form is never used for numeric evaluation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

from . import algebra, spectrum
from .algebra import MODE_STAR, StarPoly, StarPresentation
from .errors import AlgebraError, UnsupportedError, check_cap, require_numpy
from .scalars import (ComplexRational, from_numerators, sqrt_to_float, to_float,
                      to_numerators)
from .spectrum import CompactBox, coefficient_bound

# Size caps, each checked before its table is allocated.  At each cap the
# largest accepted request of catalog shape (a polynomial of degree <= 8)
# ends in under 10 s and 450 MB on a 2-vCPU VM.
MAX_GRID_TABLE = 2 ** 19  # one generator's grid table: resolution^axes points
MAX_GRID_POINTS = 2 ** 21  # seminorm grid: resolution^dim points
MAX_BERNSTEIN_DEGREE = 1024  # a power of two, so the doubling search reaches it
MAX_ERROR_GRID = 2 ** 22  # Bernstein error grid: resolution^dim points
MAX_BASIS_ENTRIES = 2 ** 24  # Bernstein basis matrix: resolution*(degree + 1)
MAX_BERNSTEIN_NODES = 2 ** 16  # Bernstein node tensor: (degree + 1)^dim

# Float grid work done at once, not a cap: the Bernstein error grid builds
# the basis of its first axis in row blocks of at most GRID_BLOCK entries,
# and a float grid maximum evaluates its target on at most GRID_BLOCK points.
GRID_BLOCK = 2 ** 16


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeminormEstimate:
    """Bracketing of a sup-seminorm: a grid lower bound and an upper bound.

    For exact subjects (``exact``) the upper bound is certified by
    coefficient bounding, and the fields lower_sq (the exact squared grid
    maximum) and upper_exact (the exact bound) back the floats.  For float
    subjects both ends are the same float grid maximum, which certifies
    nothing about the points between the grid nodes.
    """

    lower: float
    upper: float
    resolution: int
    lower_sq: Fraction | None = None
    upper_exact: Fraction | None = None

    @property
    def exact(self) -> bool:
        return self.upper_exact is not None


@dataclass(frozen=True)
class TargetFunction:
    """A numeric target for approximation, defined on a box.

    ``fn`` takes a point as a tuple of floats.  ``exact_fn``, when present,
    evaluates the same function on rational points in exact arithmetic, which
    lets Bernstein coefficients stay exactly representable.  A target has no
    declared modulus of continuity, so its seminorm estimates are grid
    maxima, not certified bounds.
    """

    name: str
    dim: int
    fn: Callable[[tuple[float, ...]], Union[float, complex]]
    exact_fn: Callable[[tuple[Fraction, ...]], Union[Fraction, ComplexRational]] | None = None


def catalog_target(name: str) -> TargetFunction:
    """Built-in univariate targets: "square", "abs-shift", "exp"."""
    if name == "square":
        return TargetFunction("square", 1, lambda t: t[0] * t[0],
                              exact_fn=lambda t: t[0] * t[0])
    if name == "abs-shift":
        return TargetFunction("abs-shift", 1, lambda t: abs(t[0] - 0.5),
                              exact_fn=lambda t: abs(t[0] - Fraction(1, 2)))
    if name == "exp":
        return TargetFunction("exp", 1, lambda t: math.exp(t[0]))
    raise UnsupportedError(f"unknown catalog target {name!r}")


def tabulated_target(values: Sequence[float], name: str = "tabulated") -> TargetFunction:
    """Piecewise-linear interpolant of uniformly spaced samples on [0, 1]."""
    if len(values) < 2:
        raise AlgebraError("tabulated target needs at least two samples")
    ys = [float(v) for v in values]

    def fn(t: tuple[float, ...]) -> float:
        x = min(max(t[0], 0.0), 1.0) * (len(ys) - 1)
        k = min(int(x), len(ys) - 2)
        frac = x - k
        return ys[k] * (1.0 - frac) + ys[k + 1] * frac

    return TargetFunction(name, 1, fn)


def _grid_max_abs2(a: StarPoly, box: CompactBox, resolution: int) -> Fraction:
    """Exact maximum of |transform of a|^2 over ``box.grid_points(resolution)``.

    Runs on Python integers: with D the common denominator of every axis
    start and step, grid coordinates are the integers lo*D + k*step*D, and
    with L the common denominator of the coefficients, term m scaled by
    D**(deg - |m|) makes the value at every point N / (L * D**deg) for a
    Gaussian integer N.  The largest |N|^2 is divided once at the end.

    Along each axis of a generator, N is a polynomial in the grid index of
    degree at most d, the largest p + q of the generator's factors
    v^p * conj(v)^q, so its values at the first d + 1 points, the corner,
    fix the rest.  The generator with the smallest d is extended from its
    corner by forward differences (``_extended_max``) when the corner is
    at most half of each of its axes; power tables evaluate N on that
    corner at every grid point of the other generators.  Otherwise, and
    for the other generators, power tables evaluate N at every grid point.
    """
    widest = max((n for _, n in spectrum.axis_layout(box.pres)), default=0)
    check_cap(f"grid table of {resolution}^{widest} points for one generator",
              resolution ** widest, MAX_GRID_TABLE)
    check_cap(f"grid of {resolution}^{box.dimension()} points",
              resolution ** box.dimension(), MAX_GRID_POINTS)
    if a.is_zero():
        return Fraction(0)
    pres = a.pres
    lcd, coeffs = a.int_form
    den, ends, _ = to_numerators(q for lo, hi in box.intervals
                                 for q in (lo, (hi - lo) / (resolution - 1)))
    axis_ends = iter(zip(ends[::2], ends[1::2]))

    # One group per axis generator (the adjoint partner takes conj(v)).
    # ``partials`` lists the distinct factors v^p * conj(v)^q of the terms
    # as (p, q), or (p,) for a generator without a distinct partner.
    groups = []
    for gi, spans in box.by_generator():
        starts = [next(axis_ends) for _ in spans]
        partner = pres.adjoint[gi]
        slots = (gi,) if partner is None or partner == gi else (gi, partner)
        partials = sorted({tuple(m[i] for i in slots) for m in coeffs})
        if partials == [(0,) * len(slots)]:
            continue  # the transform is constant along these axes
        groups.append((max(map(sum, partials)) + 1, slots, partials, starts))
    groups.sort(key=lambda g: -g[0])  # the smallest corner goes last
    size = groups[-1][0] if groups else resolution
    axes = len(groups[-1][3]) if 2 * size <= resolution else 0
    block = size ** axes if axes else 0  # values on the extended generator's corner

    deg = a.degree()
    terms = []
    for m, (cr, ci) in coeffs.items():
        scale = den ** (deg - sum(m))
        ids = tuple(partials.index(tuple(m[i] for i in slots))
                    for _, slots, partials, _ in groups)
        terms.append((cr * scale, ci * scale, ids))

    lengths = [resolution] * len(groups)
    if block:
        lengths[-1] = size
    tables = []
    for length, (_, slots, partials, starts) in zip(lengths, groups):
        coords = [[x0 + k * dx for k in range(length)] for x0, dx in starts]
        if len(coords) == 1:
            points = [(x, 0) for x in coords[0]]
        else:
            points = list(itertools.product(*coords))
        top = max(max(p) for p in partials)
        table = []
        for re, im in points:
            powers = [(1, 0)]
            for _ in range(top):
                pr, pi = powers[-1]
                powers.append((pr * re - pi * im, pr * im + pi * re))
            row = []
            for p in partials:
                wr, wi = powers[p[0]]
                if len(p) == 2:  # times the conjugate of the q-th power
                    qr, qi = powers[p[1]]
                    wr, wi = wr * qr + wi * qi, wi * qr - wr * qi
                row.append((wr, wi))
            table.append(row)
        tables.append(table)

    best = 0
    corner_re, corner_im = [], []
    for rows in itertools.product(*tables):
        nr = ni = 0
        for cr, ci, ids in terms:
            for row, k in zip(rows, ids):
                wr, wi = row[k]
                cr, ci = cr * wr - ci * wi, cr * wi + ci * wr
            nr += cr
            ni += ci
        best = max(best, nr * nr + ni * ni)
        if block:
            corner_re.append(nr)
            corner_im.append(ni)
            if len(corner_re) == block:  # a whole corner, at one point of the rest
                best = max(best, _extended_max(corner_re, corner_im, axes,
                                               resolution))
                corner_re, corner_im = [], []
    return Fraction(best, (lcd * den ** deg) ** 2)


def _extended_max(re: list[int], im: list[int], axes: int, resolution: int) -> int:
    """Largest re^2 + im^2 on the grid of one generator, ``axes`` axes of
    ``resolution`` points, from its values re + i*im on the corner, the
    first len(re) ** (1 / axes) points of each axis, in C order.

    One axis extends the real and the imaginary parts as scalars.  Two
    axes extend the rows of the corner (the real parts, then the imaginary
    parts, of one row) elementwise along the first axis into the columns
    of a table of ``size * resolution`` points, then those columns along
    the second, each column straight into the maximum.
    """
    def top(re, im):
        return max(map(operator.add, map(operator.mul, re, re),
                       map(operator.mul, im, im)))

    if axes == 1:
        return top(list(_extend(re, resolution)), list(_extend(im, resolution)))

    def add(u, v):
        return list(map(operator.add, u, v))

    def sub(u, v):
        return list(map(operator.sub, u, v))

    size = math.isqrt(len(re))
    rows = [re[k:k + size] + im[k:k + size] for k in range(0, size * size, size)]
    table = [0] * (2 * size * resolution)  # real parts, then imaginary parts
    for k, row in enumerate(_extend(rows, resolution, add, sub)):
        table[k::resolution] = row
    half = size * resolution
    columns = [table[k:k + resolution] + table[half + k:half + k + resolution]
               for k in range(0, half, resolution)]
    return max(top(c[:resolution], c[resolution:])
               for c in _extend(columns, resolution, add, sub))


def _extend(values: Sequence, resolution: int, add: Callable | None = None,
            sub: Callable = operator.sub) -> Iterator:
    """The values at 0, 1, ..., resolution - 1 of the polynomial of degree
    below len(values) that takes ``values`` at 0, 1, ....

    Forward differences: the leading differences of ``values`` are each the
    first entry of one lazy ``itertools.accumulate``, stacked so that every
    further value costs len(values) - 1 additions at C level, by
    ``accumulate``'s own addition on scalars.  With ``add`` and ``sub``
    elementwise on lists, the values are slices extended together.
    """
    firsts = []
    for _ in range(len(values) - 1):
        firsts.append(values[0])
        values = list(map(sub, values[1:], values[:-1]))
    run = itertools.repeat(values[0], resolution - len(firsts))
    for first in reversed(firsts):
        run = itertools.accumulate(run, add, initial=first)
    return run


def seminorm_on_box(subject: Union[StarPoly, TargetFunction], box: CompactBox,
                    resolution: int = 33) -> SeminormEstimate:
    """Bracket sup over the box of |subject|.

    Polynomial subjects are evaluated exactly on the rational grid; the upper
    bound comes from coefficient bounding and the exact invariant
    lower <= upper is re-verified before rounding to floats.  Function
    subjects get their float grid maximum as both ends, an uncertified
    estimate.
    """
    if resolution < 2:
        raise AlgebraError("seminorm needs a grid resolution of at least 2")
    if isinstance(subject, StarPoly):
        upper_exact = coefficient_bound(subject, box)
        max_sq = _grid_max_abs2(subject, box, resolution)
        if max_sq > upper_exact * upper_exact:
            raise AssertionError("grid maximum exceeded its certified bound")
        lower = sqrt_to_float(max_sq)
        upper = to_float(upper_exact)
        if lower > upper:  # float rounding at an exactly attained bound
            lower = upper
        return SeminormEstimate(lower, upper, resolution, max_sq, upper_exact)
    if subject.dim != box.dimension():
        raise AlgebraError("target dimension does not match the box")
    check_cap(f"grid of {resolution}^{subject.dim} points",
              resolution ** subject.dim, MAX_GRID_POINTS)
    np = require_numpy()
    coords = [np.linspace(float(lo), float(hi), resolution).tolist()
              for lo, hi in box.intervals]
    best = _grid_max_abs(subject.fn, coords)
    return SeminormEstimate(best, best, resolution)


def _grid_max_abs(fn: Callable[[tuple[float, ...]], Union[float, complex]],
                  coords: list[list[float]], approx: np.ndarray | None = None,
                  best: float = 0.0) -> float:
    """The larger of best and max |fn(p_i) - approx[i]| over the grid points.

    ``coords`` holds one list of Python floats per axis; ``fn`` is called
    once per point, in C order, on a tuple of them.  ``approx``, when given,
    is a flat complex array in the same order.  A NaN difference is skipped,
    as ``max`` skips it.  The magnitude is ``np.hypot``, which matches
    Python's ``abs(complex)`` to the bit; numpy's vectorized complex
    ``np.abs`` does not.
    """
    np = require_numpy()
    points = itertools.product(*coords)
    for start in itertools.count(0, GRID_BLOCK):
        values = [fn(p) for p in itertools.islice(points, GRID_BLOCK)]
        if not values:
            return best
        diff = np.array(values, dtype=complex)
        if approx is not None:
            diff -= approx[start:start + len(values)]
        best = float(np.fmax.reduce(np.hypot(diff.real, diff.imag), initial=best))


# ---------------------------------------------------------------------------
# Bernstein approximation
# ---------------------------------------------------------------------------

def _coordinate_presentation(dim: int) -> StarPresentation:
    names = ["t"] if dim == 1 else [f"t{i + 1}" for i in range(dim)]
    return StarPresentation.assemble(
        "cube", MODE_STAR, names, tuple(range(dim)), [])


def _binomials(n: int) -> np.ndarray:
    """C(n, k) as floats for k = 0..n, finite for every n <= 1024."""
    np = require_numpy()
    return np.array([float(math.comb(n, k)) for k in range(n + 1)])


def _basis_matrix(combs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rows: Bernstein basis values (b_{n,0}(t), ..., b_{n,n}(t)).

    ``combs`` is ``_binomials(n)``.  Direct products of nonnegative factors;
    no cancellation, so this stays accurate where the expanded monomial
    form would be hopeless.  numpy's ``pow`` gives x**0 == 1 for every x,
    NaN included, so the end columns need no special case.  Python's ``**``
    is no substitute: where numpy's ``pow`` runs SIMD code their last bits
    differ.
    """
    np = require_numpy()
    n = len(combs) - 1
    ks = np.arange(n + 1)
    t = points.reshape(-1, 1)
    with np.errstate(invalid="ignore"):
        basis = t ** ks
        right = (1.0 - t) ** (n - ks)
    basis *= combs
    basis *= right
    return basis


def _contract(bases: Sequence[np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """The one float evaluator of the Bernstein form: the node tensor
    contracted with one ``_basis_matrix`` per axis, values in C order."""
    np = require_numpy()
    spec = {1: "pi,i->p", 2: "pi,qj,ij->pq", 3: "pi,qj,rk,ijk->pqr"}[nodes.ndim]
    # three axes contract one at a time; a single 7-index loop took seconds
    return np.einsum(spec, *bases, nodes, optimize=nodes.ndim == 3)


@dataclass(frozen=True, eq=False)
class BernsteinResult:
    """Exact Bernstein polynomial plus a stable evaluator and error report.

    The polynomial lives on normalized coordinates over [0, 1]^d; when the
    approximation box is not the unit cube the target is sampled through the
    affine map onto it.  ``nodes`` holds the node values as complex floats,
    a tensor of shape (degree + 1,) * d, and ``combs`` is
    ``_binomials(degree)``, kept for :meth:`evaluate`.
    """

    poly: StarPoly
    degree: int
    nodes: np.ndarray
    error: SeminormEstimate
    combs: np.ndarray

    @property
    def pres(self) -> StarPresentation:
        return self.poly.pres

    def evaluate(self, point: Sequence[float]) -> complex:
        """Stable evaluation at a point of the unit cube."""
        dim = self.nodes.ndim
        if len(point) != dim:
            raise AlgebraError(f"expected {dim} coordinates")
        np = require_numpy()
        bases = [_basis_matrix(self.combs, np.array([float(t)])) for t in point]
        return _contract(bases, self.nodes).item()


def bernstein_approx(f: TargetFunction, n: int,
                     intervals: Sequence[tuple[Fraction, Fraction]] | None = None,
                     error_resolution: int | None = None) -> BernsteinResult:
    """Degree-n tensor Bernstein approximation of f on a box.

    Returns the exact expanded polynomial in normalized [0, 1]^d coordinates
    (one self-adjoint generator per axis), interpolating f at the corners,
    together with a grid error estimate of |f - result| computed with the
    stable evaluator.
    """
    if n < 1:
        raise AlgebraError("Bernstein degree must be at least 1")
    check_cap(f"Bernstein degree {n}", n, MAX_BERNSTEIN_DEGREE)
    dim = f.dim
    if not 1 <= dim <= 3:
        raise UnsupportedError("Bernstein approximation supports 1 to 3 axes")
    if error_resolution is None:
        error_resolution = {1: 10001, 2: 101, 3: 23}[dim]
    elif error_resolution < 2:
        raise AlgebraError("Bernstein error grid needs a resolution of at least 2")
    check_cap(f"Bernstein error grid of {error_resolution}^{dim} points",
              error_resolution ** dim, MAX_ERROR_GRID)
    check_cap(f"Bernstein basis matrix of {error_resolution}*{n + 1} entries",
              error_resolution * (n + 1), MAX_BASIS_ENTRIES)
    if intervals is None:
        box_iv = [(Fraction(0), Fraction(1))] * dim
    else:
        box_iv = [(Fraction(lo), Fraction(hi)) for lo, hi in intervals]
        if len(box_iv) != dim:
            raise AlgebraError("interval count does not match target dimension")
    check_cap(f"Bernstein node tensor of {n + 1}^{dim} nodes",
              (n + 1) ** dim, MAX_BERNSTEIN_NODES)
    np = require_numpy()

    # node values, exactly when the target supports it
    axis_nodes = [[lo + (hi - lo) * Fraction(k, n) for k in range(n + 1)]
                  for lo, hi in box_iv]
    exact_vals: list[ComplexRational] = []
    for mapped in itertools.product(*axis_nodes):
        if f.exact_fn is not None:
            raw = f.exact_fn(mapped)
        else:
            point = tuple(float(x) for x in mapped)
            c = complex(f.fn(point))
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise AlgebraError(f"target {f.name!r} is {c} at the node {point}; "
                                   "Bernstein node values must be finite")
            raw = ComplexRational(Fraction(c.real), Fraction(c.imag))
        exact_vals.append(raw if isinstance(raw, ComplexRational) else ComplexRational(raw))

    # On each axis B_n f = sum_m C(n, m) * (D^m f)(node 0) * t^m, with D the
    # forward difference over the nodes.  The map is real-linear, so the
    # real and imaginary numerators (the leading axis) go through together.
    den, re, im = to_numerators(exact_vals)
    tensor = np.array([re, im], dtype=object).reshape((2,) + (n + 1,) * dim)
    for axis in range(1, dim + 1):
        rows = []
        for m in range(n + 1):
            rows.append(tensor.take(0, axis=axis) * math.comb(n, m))
            tensor = np.diff(tensor, axis=axis)
        tensor = np.stack(rows, axis=axis)
    nonzero = (tensor[0] != 0) | (tensor[1] != 0)
    coeffs = from_numerators(den, tensor[0][nonzero], tensor[1][nonzero])
    pres = _coordinate_presentation(dim)
    poly = pres.poly(dict(zip(map(tuple, np.argwhere(nonzero).tolist()), coeffs)))

    # error of |f - B| on a grid, via the stable evaluator, in row blocks
    # of the first axis so that no basis block passes GRID_BLOCK entries.
    # Under the caps a 3-axis grid is one block (161 rows of 40 entries at
    # most): its contraction order depends on the operand shapes, and a
    # smaller block would move the last bits.
    node_vals = np.array([complex(v) for v in exact_vals]).reshape((n + 1,) * dim)
    combs = _binomials(n)
    ax01 = np.linspace(0.0, 1.0, error_resolution)
    others = [_basis_matrix(combs, ax01)] * (dim - 1) if dim > 1 else []
    (lo, hi), *rest = [(float(lo), float(hi)) for lo, hi in box_iv]
    coords = [(a + (b - a) * ax01).tolist() for a, b in rest]
    rows = GRID_BLOCK // (n + 1)
    best = 0.0
    for start in range(0, error_resolution, rows):
        ts = ax01[start:start + rows]
        approx_vals = _contract([_basis_matrix(combs, ts), *others], node_vals)
        best = _grid_max_abs(f.fn, [(lo + (hi - lo) * ts).tolist(), *coords],
                             approx_vals.ravel(), best)
    error = SeminormEstimate(best, best, error_resolution)
    return BernsteinResult(poly, n, node_vals, error, combs)


def density_witness(f: TargetFunction, epsilon: float,
                    max_degree: int = 256,
                    error_resolution: int | None = None) -> BernsteinResult | None:
    """The first of degrees 4, 8, 16, ... and then ``max_degree`` whose
    Bernstein approximant is within epsilon, or None.  On a convex target
    B_n f decreases toward f, so a miss at max_degree is a miss below it."""
    if not 0 < epsilon < math.inf:
        raise AlgebraError(f"approximation epsilon must be positive and finite, "
                           f"not {epsilon}")
    if error_resolution is not None and error_resolution < 2:
        raise AlgebraError("Bernstein error grid needs a resolution of at least 2")
    if max_degree < 1:
        raise AlgebraError(f"Bernstein search needs a max degree of at least 1, "
                           f"not {max_degree}")
    check_cap(f"Bernstein search up to degree {max_degree}", max_degree,
              MAX_BERNSTEIN_DEGREE)
    n = 4
    while True:
        result = bernstein_approx(f, min(n, max_degree), error_resolution=error_resolution)
        if result.error.lower < epsilon:
            return result
        if n >= max_degree:
            return None
        n *= 2


# ---------------------------------------------------------------------------
# Wirtinger derivative
# ---------------------------------------------------------------------------

def _resolve_pair(pres: StarPresentation, pair: Union[int, str, None]) -> tuple[int, int]:
    if not pres.is_star:
        raise AlgebraError("Wirtinger derivatives need a *-presentation")
    pairs = {gi: pres.adjoint[gi] for gi, n in spectrum.axis_layout(pres) if n == 2}
    if pair is None:
        if len(pairs) != 1:
            raise AlgebraError("presentation does not have a unique free pair; "
                               "name the generator explicitly")
        idx = next(iter(pairs))
    else:
        idx = pres.generator_index(pair)
        if idx not in pairs:
            idx = pres.adjoint[idx]  # the partner names its pair too
        if idx not in pairs:
            raise AlgebraError("Wirtinger derivative needs a free generator "
                               "with a distinct adjoint partner")
    partner = pairs[idx]
    for rel in pres.relations:
        for mono, _ in rel:
            if mono[idx] or mono[partner]:
                raise UnsupportedError(
                    "Wirtinger derivative is only defined when no relation "
                    "touches the chosen pair")
    return idx, partner


def wirtinger_dzbar(a: StarPoly, pair: Union[int, str, None] = None) -> StarPoly:
    """Formal derivative with respect to the adjoint partner of a free pair.

    On monomials z^p adj(z)^q the derivative is q z^p adj(z)^(q-1); the kernel
    consists exactly of the elements with no adjoint dependence, i.e. the
    image of the extension from the one-generator algebra.
    """
    _, partner = _resolve_pair(a.pres, pair)
    table: dict = {}
    for mono, coeff in a.terms:
        q = mono[partner]
        if q == 0:
            continue
        lowered = tuple(e - 1 if i == partner else e for i, e in enumerate(mono))
        table[lowered] = table.get(lowered, ComplexRational(0)) + coeff * q
    return a.pres.poly(table)


def is_holomorphic_image(a: StarPoly, pair: Union[int, str, None] = None) -> bool:
    """True when the adjoint-direction derivative vanishes identically."""
    return wirtinger_dzbar(a, pair).is_zero()
