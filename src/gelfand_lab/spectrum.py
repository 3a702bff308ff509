"""Characters, evaluation, and spectrum-side checks.

A character is a unital homomorphism to the complex numbers, stored as one
value per generator (adjoint partners get their own redundant slot, which
keeps evaluation uniform).  Values are either all exact complex rationals or
all machine complex numbers; the ``exact`` flag records which.

Compact pieces of the spectrum are concrete here: axis-aligned boxes in the
real coordinates of characters (one axis per self-adjoint generator, a
real/imaginary pair per free generator), and finite sample sets.  Boxes are
only available over relation-free presentations, where every box point
really is a character.
"""

from __future__ import annotations

import cmath
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import methodcaller
from typing import Iterator, Mapping, Sequence, Union

from . import algebra
from .algebra import Morphism, StarPoly, StarPresentation, Terms, format_poly
from .errors import AlgebraError, CharacterError, UnsupportedError, check_cap
from .scalars import FLOAT_OVERFLOW, ComplexRational, sqrt_to_float, to_float

Value = Union[ComplexRational, complex]

FLOAT_TOLERANCE = 1e-12
UNBOUNDED_THRESHOLD = 1e9
# characters one radical check draws; at the cap a degree-5 disk polynomial
# takes about 7 s
MAX_SAMPLES = 2 ** 15
# powers one nilpotency search takes; each power is also held to
# algebra.MAX_POWER_TERMS terms, and at both caps a dense degree-9 line
# element takes about 10 s
MAX_NILPOTENT_BOUND = 256


def _abs(v: Value) -> float:
    if isinstance(v, ComplexRational):
        return sqrt_to_float(v.abs2())
    return abs(v)


def _is_zero(v: Value, tolerance: float) -> bool:
    if isinstance(v, ComplexRational):
        return v.is_zero()
    return abs(v) <= tolerance


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """A validated point of the spectrum."""

    pres: StarPresentation
    values: tuple[Value, ...]
    exact: bool

    def value(self, which: Union[int, str]) -> Value:
        return self.values[self.pres.generator_index(which)]


def eval_terms(batch, points: Sequence[Sequence[Value]], exact: bool) -> list[list[Value]]:
    """The value of each list of (monomial, coefficient) pairs of the batch
    at each character's values of ``points``, one list per point."""
    if exact:
        return algebra.substitute(batch, points, ComplexRational(0))
    try:
        out = algebra.substitute([[(m, complex(c)) for m, c in terms] for terms in batch],
                                 points, 0j)
        if all(map(cmath.isfinite, itertools.chain.from_iterable(out))):
            return out
    except OverflowError:
        pass
    raise AlgebraError(FLOAT_OVERFLOW)


def format_value(value: Value) -> str:
    """Canonical literal of a character value: exact, or float repr."""
    if isinstance(value, ComplexRational):
        return value.literal()
    if value.imag == 0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"({value.real!r}{sign}{abs(value.imag)!r}i)"


def validate_character(pres: StarPresentation, assignment: Mapping[str, Value],
                       tolerance: float = FLOAT_TOLERANCE) -> Character:
    """Check coverage, adjoint compatibility, and every relation.

    A missing value for one half of a free pair is filled with the
    conjugate of the given half before checking.  Exact assignments are
    checked exactly; floating assignments within ``tolerance``.  Raises
    :class:`CharacterError` with the violated constraint kind: coverage,
    reality, conjugacy, or relation.
    """
    unknown = [k for k in assignment if k not in pres.generators]
    if unknown:
        raise CharacterError(f"unknown generator {unknown[0]!r} in assignment",
                             "coverage")
    assignment = pres.with_partners(assignment, methodcaller("conjugate"))
    missing = [g for g in pres.generators if g not in assignment]
    if missing:
        raise CharacterError(f"no value for generator {missing[0]!r}", "coverage")

    exact = all(isinstance(v, (int, Fraction, ComplexRational))
                for v in assignment.values())
    values: list[Value] = []
    for g in pres.generators:
        v = assignment[g]
        if exact:
            values.append(ComplexRational.coerce(v) if not isinstance(v, ComplexRational) else v)
        else:
            values.append(complex(v))

    if pres.is_star:
        for i, g in enumerate(pres.generators):
            j = pres.partner(i)
            if j == i:
                bad = (not values[i].is_real()) if exact \
                    else abs(values[i].imag) > tolerance
                if bad:
                    raise CharacterError(
                        f"self-adjoint generator {g!r} must take a real value",
                        "reality")
            elif j > i:
                expected = values[i].conjugate()
                bad = (values[j] != expected) if exact \
                    else abs(values[j] - expected) > tolerance
                if bad:
                    raise CharacterError(
                        f"value of {pres.generators[j]!r} must be the "
                        f"conjugate of the value of {g!r}", "conjugacy")

    for k, rel in enumerate(pres.relations):
        out = eval_terms([rel], [values], exact)[0][0]
        if not _is_zero(out, tolerance):
            raise CharacterError(f"relation {k} is violated by the assignment",
                                 "relation")
    return Character(pres, tuple(values), exact)


def gelfand_eval(a: StarPoly, p: Character) -> Value:
    """Evaluate the transform of ``a`` at the character ``p``.

    Exact when the character is exact (coefficients always are).
    """
    return eval_terms([_terms_over(a, p.pres)], [p.values], p.exact)[0][0]


def _terms_over(a: StarPoly, pres: StarPresentation) -> Terms:
    """a.terms, read once for evaluation at characters over pres."""
    if a.pres != pres:
        raise AlgebraError("element and character live over different presentations")
    return a.terms


def separating_generator(p: Character, q: Character) -> str | None:
    """A generator whose transform separates two distinct characters."""
    if p.pres != q.pres:
        raise AlgebraError("characters live over different presentations")
    for g, vp, vq in zip(p.pres.generators, p.values, q.values):
        if isinstance(vp, ComplexRational) and isinstance(vq, ComplexRational):
            if vp != vq:
                return g
        elif complex(vp) != complex(vq):
            return g
    return None


# ---------------------------------------------------------------------------
# functorial maps on characters
# ---------------------------------------------------------------------------

def pushforward(f: Morphism, p: Character,
                tolerance: float = FLOAT_TOLERANCE) -> Character:
    """Precompose a character with a morphism: the contravariant action on
    spectra.  For *-presentations the morphism must be *-compatible, or the
    result could fail the conjugacy constraints.  Floats are checked within
    ``tolerance``."""
    if p.pres != f.target:
        raise AlgebraError("character does not live on the morphism target")
    if f.source.is_star and f.target.is_star:
        ok, witness = algebra.is_star_hom(f)
        if not ok:
            raise AlgebraError(
                f"pushforward needs a *-morphism; involution fails at "
                f"generator {witness!r}")
    assignment = {g: gelfand_eval(img, p)
                  for g, img in zip(f.source.generators, f.images)}
    return validate_character(f.source, assignment, tolerance)


def naturality_inclusion(p: Character) -> Character:
    """View a character of a *-presentation as a character of its underlying
    algebra (the spectra inclusion; same values, fewer constraints)."""
    if not p.pres.is_star:
        raise AlgebraError("naturality inclusion starts from a *-presentation")
    under = algebra.underlying(p.pres)
    assignment = dict(zip(under.generators, p.values))
    return validate_character(under, assignment)


def extend_character_free(pres: StarPresentation, p: Character) -> Character:
    """Extend a character of an algebra-mode presentation to its free
    *-algebra: each new partner takes the conjugate value, which
    ``validate_character`` fills."""
    if pres.is_star:
        raise AlgebraError("extension starts from an algebra-mode presentation")
    if p.pres != pres:
        raise AlgebraError("character does not live on the given presentation")
    return validate_character(algebra.free_star(pres), dict(zip(pres.generators, p.values)))


def restrict_character_free(pres: StarPresentation, q: Character) -> Character:
    """Inverse of :func:`extend_character_free`: forget the partner values."""
    if pres.is_star:
        raise AlgebraError("restriction lands on an algebra-mode presentation")
    fa = algebra.free_star(pres)
    if q.pres != fa:
        raise AlgebraError("character does not live on the free *-algebra")
    assignment = {g: q.values[2 * i] for i, g in enumerate(pres.generators)}
    return validate_character(pres, assignment)


# ---------------------------------------------------------------------------
# compact pieces of the spectrum
# ---------------------------------------------------------------------------

def axis_layout(pres: StarPresentation) -> list[tuple[int, int]]:
    """The independent generators of a character, each with its axis count.

    A character is fixed by its values on these generators.  A self-adjoint
    generator has 1 real axis, its value; a free or plain generator has 2,
    the real and imaginary parts of its value.  Adjoint partners have none:
    they take the conjugate value.  Box intervals, grid and sampler points
    and quadrature nodes list their coordinates in this order.
    """
    layout: list[tuple[int, int]] = []
    for i, a in enumerate(pres.adjoint):
        if a == i:
            layout.append((i, 1))
        elif a is None or a > i:
            layout.append((i, 2))
    return layout


def character_from_axes(pres: StarPresentation,
                        point: Sequence[Fraction | float],
                        exact: bool = True) -> Character:
    layout = axis_layout(pres)
    dim = sum(n for _, n in layout)
    if len(point) != dim:
        raise AlgebraError(f"expected {dim} coordinates, got {len(point)}")
    coords = iter(point)
    values: list[Value] = [None] * len(pres.generators)  # type: ignore[list-item]
    for gi, n in layout:
        re = next(coords)
        im = next(coords) if n == 2 else 0
        v: Value = ComplexRational(re, im) if exact \
            else complex(float(re), float(im))
        values[gi] = v
        a = pres.adjoint[gi]
        if a is not None and a != gi:
            values[a] = v.conjugate()
    return Character(pres, tuple(values), exact)


@dataclass(frozen=True)
class CompactBox:
    """An axis-aligned box of characters over a relation-free presentation."""

    pres: StarPresentation
    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if self.pres.relations:
            raise UnsupportedError(
                "boxes need a relation-free presentation: with relations, "
                "box points are not all characters")
        if len(self.intervals) != sum(n for _, n in axis_layout(self.pres)):
            raise AlgebraError("interval count does not match the axis layout")
        for lo, hi in self.intervals:
            if lo > hi:
                raise AlgebraError("interval bounds out of order")

    @classmethod
    def from_intervals(cls, pres: StarPresentation,
                       intervals: Sequence[tuple[Fraction, Fraction]]) -> "CompactBox":
        return cls(pres, tuple((Fraction(lo), Fraction(hi))
                               for lo, hi in intervals))

    @classmethod
    def for_generators(cls, pres: StarPresentation,
                       by_gen: Mapping[str, Sequence[tuple[Fraction, Fraction]]],
                       ) -> "CompactBox":
        layout = axis_layout(pres)
        intervals: list[tuple[Fraction, Fraction]] = []
        for gi, n in layout:
            name = pres.generators[gi]
            if name not in by_gen:
                raise AlgebraError(f"no box bounds for generator {name!r}")
            given = by_gen[name]
            if len(given) != n:
                raise AlgebraError(
                    f"generator {name!r} needs {n} interval(s), "
                    f"got {len(given)}")
            intervals.extend(given)
        extra = set(by_gen) - {pres.generators[gi] for gi, _ in layout}
        if extra:
            raise AlgebraError(
                f"box bounds given for non-axis generator {sorted(extra)[0]!r}")
        return cls.from_intervals(pres, intervals)

    def by_generator(self) -> Iterator[
            tuple[int, tuple[tuple[Fraction, Fraction], ...]]]:
        """Each generator of ``axis_layout`` with its slice of ``intervals``."""
        pos = 0
        for gi, n in axis_layout(self.pres):
            yield gi, self.intervals[pos:pos + n]
            pos += n

    def dimension(self) -> int:
        return len(self.intervals)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for lo, hi in self.intervals:
            v *= hi - lo
        return v

    def grid_points(self, resolution: int) -> list[Character]:
        """Uniform grid including endpoints, as exact characters."""
        if resolution < 2:
            raise AlgebraError("grid resolution must be at least 2")
        axes_values: list[list[Fraction]] = []
        for lo, hi in self.intervals:
            step = (hi - lo) / (resolution - 1)
            axes_values.append([lo + k * step for k in range(resolution)])
        return [character_from_axes(self.pres, point)
                for point in itertools.product(*axes_values)]

    def modulus_bound(self, gen_index: int) -> Fraction:
        """An exact bound for |value of generator| over the box."""
        a = self.pres.adjoint[gen_index]  # a partner shares its bound
        return sum((max(abs(lo), abs(hi)) for gi, spans in self.by_generator()
                    if gi in (gen_index, a) for lo, hi in spans), Fraction(0))


def coefficient_bound(a: StarPoly, box: CompactBox) -> Fraction:
    """Certified upper bound for sup |transform of a| over the box.

    Sum of coefficient 1-norms times per-generator modulus bounds.  All
    arithmetic is exact, which keeps the bound subadditive and
    submultiplicative on the nose.
    """
    if a.pres != box.pres:
        raise AlgebraError("element and box live over different presentations")
    gen_bounds = [box.modulus_bound(i) for i in range(len(a.pres.generators))]
    # the one-norms |re| + |im| of the numerators, over lcd once at the end
    lcd, table = a.int_form
    return algebra.substitute([[(m, abs(x) + abs(y)) for m, (x, y) in table.items()]],
                              [gen_bounds], Fraction(0))[0][0] / lcd


@dataclass(frozen=True)
class SampleSet:
    """A finite set of characters standing in for a compact piece."""

    characters: tuple[Character, ...]
    label: str = "samples"

    def __post_init__(self) -> None:
        if not self.characters:
            raise AlgebraError("sample set is empty")
        pres = self.characters[0].pres
        if any(c.pres != pres for c in self.characters):
            raise AlgebraError("sample set mixes presentations")

    @property
    def pres(self) -> StarPresentation:
        return self.characters[0].pres


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

class BoxSampler:
    """Exact uniform draws from a box, each coordinate on the grid of 1024
    equal steps of its interval.  The seed is replayed on every call, so two
    calls with the same count return the same characters; callers that want
    fresh draws make a new sampler."""

    def __init__(self, box: CompactBox, seed: int) -> None:
        self.box = box
        self.seed = seed

    def sample(self, count: int) -> list[Character]:
        rng = random.Random(self.seed)
        out: list[Character] = []
        for _ in range(count):
            point = [lo + Fraction(rng.randint(0, 1024), 1024) * (hi - lo)
                     for lo, hi in self.box.intervals]
            out.append(character_from_axes(self.box.pres, point))
        return out


class GridSampler:
    """Draws from the valid characters among a finite candidate list.

    Useful over presentations with relations, where valid characters are
    scarce: candidates failing validation are dropped up front.
    """

    def __init__(self, pres: StarPresentation,
                 candidates: Sequence[Mapping[str, Value]], seed: int,
                 tolerance: float = FLOAT_TOLERANCE) -> None:
        self.pres = pres
        self.seed = seed
        valid: list[Character] = []
        for cand in candidates:
            try:
                valid.append(validate_character(pres, cand, tolerance))
            except CharacterError:
                continue
        if not valid:
            raise CharacterError("no candidate in the grid is a valid character",
                                 "relation")
        self.valid = tuple(valid)

    def sample(self, count: int) -> list[Character]:
        rng = random.Random(self.seed)
        return [self.valid[rng.randrange(len(self.valid))] for _ in range(count)]


# ---------------------------------------------------------------------------
# compactness and radical checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompactnessReport:
    subject_kind: str  # "box" | "samples"
    certified: bool
    verdict: str
    bounds: tuple[tuple[str, float], ...]
    unbounded_witnesses: tuple[str, ...]


def relative_compactness_check(subject: Union[CompactBox, SampleSet],
                               witnesses: Sequence[StarPoly],
                               threshold: float = UNBOUNDED_THRESHOLD,
                               ) -> CompactnessReport:
    """Boundedness of witness transforms over the subject.

    Boxes get certified bounds from coefficient bounding.  Sample sets only
    get observed maxima: exceeding the threshold flags the subject as not
    relatively compact at the sampled resolution, while staying below it is
    evidence, not proof.
    """
    if isinstance(subject, CompactBox):
        bounds = tuple((format_poly(w), to_float(coefficient_bound(w, subject)))
                       for w in witnesses)
        return CompactnessReport(
            "box", True,
            "relatively compact: certified bounds on every witness",
            bounds, ())
    observed: list[tuple[str, float]] = []
    exceeded: list[str] = []
    for w in witnesses:
        terms = _terms_over(w, subject.pres)
        top = max(_abs(eval_terms([terms], [p.values], p.exact)[0][0])
                  for p in subject.characters)
        name = format_poly(w)
        observed.append((name, top))
        if top > threshold:
            exceeded.append(name)
    if exceeded:
        verdict = "not relatively compact (at sampled resolution)"
    else:
        verdict = "no witness exceeded the threshold at sampled resolution"
    return CompactnessReport("samples", False, verdict, tuple(observed),
                             tuple(exceeded))


def is_nilpotent(a: StarPoly, bound: int = 16) -> tuple[bool, int | None]:
    """Search for the least n <= bound with a**n == 0 in normal form.

    The certificate is exact: normal forms are canonical, so a**n == 0 is a
    proof of nilpotency, and its failure up to the bound is a proof that no
    exponent that small works.
    """
    if bound < 1:
        raise AlgebraError(f"nilpotency bound must be at least 1, not {bound}")
    check_cap(f"nilpotency bound {bound}", bound, MAX_NILPOTENT_BOUND)
    for n, size in enumerate(a.power_sizes(bound), 1):
        if not size:
            return True, n
        check_cap(f"nilpotency search: power {n} with {size} terms",
                  size, algebra.MAX_POWER_TERMS)
    return False, None


@dataclass(frozen=True)
class RadicalReport:
    vanishes: bool
    samples: int
    max_abs: float
    witness: Character | None
    nilpotent: bool
    exponent: int | None


def radical_vanishing_check(a: StarPoly, sampler: Union[BoxSampler, GridSampler],
                            count: int = 10000,
                            tolerance: float = FLOAT_TOLERANCE,
                            nilpotent_bound: int = 16) -> RadicalReport:
    """Sampled test of transform vanishing, the radical's spectral shadow.

    One-sided: a character where the transform does not vanish certifies
    non-membership in the radical; vanishing on every sample is consistent
    with membership but proves nothing.  A nilpotency certificate, when the
    bounded search finds one, is exact.
    """
    if count < 1:
        raise AlgebraError(f"sample count must be at least 1, got {count}")
    check_cap(f"sample count {count}", count, MAX_SAMPLES)
    nilpotent, exponent = is_nilpotent(a, nilpotent_bound)
    chars = sampler.sample(count)
    terms = _terms_over(a, chars[0].pres)
    max_abs = 0.0
    witness: Character | None = None
    for p in chars:
        v = eval_terms([terms], [p.values], p.exact)[0][0]
        mag = _abs(v)
        max_abs = max(max_abs, mag)
        if witness is None and not _is_zero(v, tolerance):
            witness = p
    return RadicalReport(witness is None, len(chars), max_abs, witness,
                         nilpotent, exponent)
