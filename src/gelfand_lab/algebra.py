"""Finitely presented commutative algebras and *-algebras over exact scalars.

A presentation lists generators (with optional adjoint pairing), plus
polynomial relations oriented into rewrite rules by their graded-lex leading
monomials.  Elements are kept in normal form: no stored monomial is divisible
by the leading monomial of any relation.  All coefficient arithmetic is exact
(:class:`~gelfand_lab.scalars.ComplexRational`), so equality of elements is
decidable and every algebraic law can be tested without tolerances.

Generator pairing encodes the involution: a self-adjoint generator is its own
partner, a free generator has a distinct partner (rendered ``adj(name)``), and
in plain algebra mode generators carry no pairing at all, which is exactly
what the underlying functor forgets.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

from .errors import (
    AlgebraError,
    MorphismError,
    PresentationError,
    RewriteBudgetError,
    check_cap,
)
from .scalars import (ONE, ZERO, ComplexRational, ScalarLike, from_numerators,
                      power, rational_literal, to_numerators)

Monomial = tuple[int, ...]
Terms = tuple[tuple[Monomial, ComplexRational], ...]
RawTable = dict[Monomial, ComplexRational]
# Gaussian-integer numerators (re, im) over a denominator kept beside them
IntTable = dict[Monomial, tuple[int, int]]
IntTerms = tuple[tuple[Monomial, tuple[int, int]], ...]
# (den, table): a coefficient table in the scalars.to_numerators format
IntForm = tuple[int, IntTable]
# the same with each monomial as its code at one _Layout
CodeTable = dict[int, tuple[int, int]]
CodeTerms = tuple[tuple[int, tuple[int, int]], ...]
CodeForm = tuple[int, CodeTable]
V = TypeVar("V")

MODE_ALGEBRA = "algebra"
MODE_STAR = "star-algebra"

# division steps one normalization may take
MAX_REWRITE_STEPS = 10**6
# monomials a power can reach, C(n*deg + k, k) on k generators.  The line is
# the worst shape: at the cap (x^3 - x/2 + 2/3)^833 takes about 10 s
MAX_POWER_TERMS = 2500


# ---------------------------------------------------------------------------
# monomial helpers (graded-lex order throughout)
# ---------------------------------------------------------------------------

def grlex_key(m: Monomial) -> tuple[int, Monomial]:
    return (sum(m), m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_involute(adjoint: Sequence[int], m: Monomial) -> Monomial:
    """Swap each exponent onto the partner slot."""
    swapped = [0] * len(m)
    for i, e in enumerate(m):
        swapped[adjoint[i]] += e
    return tuple(swapped)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a divides b componentwise."""
    return all(map(le, a, b))


def mono_quotient(b: Monomial, a: Monomial) -> Monomial:
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# monomial codes: one int per monomial, integer order = graded-lex order
# ---------------------------------------------------------------------------

class _Layout:
    """Monomial codes on ``n`` generators with ``bits`` value bits a field.

    A code is one int: the total degree in the top field, and below it
    one field of bits + 1 bits per generator, generator 0 most
    significant.  While every exponent is below 2**bits no field carries
    into the next, so comparing codes compares the degree, then the
    exponents from generator 0 on: integer order is graded-lex order.
    The code of a product is the sum of the codes, that of a quotient the
    difference, and lead divides m exactly when no field of m - lead
    borrows, which the top (guard) bit of each field shows:
    ``(m + guard - lead) & guard == guard``.
    """

    __slots__ = ("bits", "mask", "shifts", "units", "guard")

    def __init__(self, n: int, bits: int) -> None:
        width = bits + 1
        self.bits, self.mask = bits, (1 << bits) - 1
        self.shifts = tuple(width * (n - 1 - i) for i in range(n))
        # the code of generator i: degree 1 and exponent 1 in field i
        self.units = tuple((1 << width * n) + (1 << s) for s in self.shifts)
        self.guard = sum(1 << (s + bits) for s in self.shifts)

    def code(self, m: Monomial) -> int:
        return sum(map(mul, m, self.units))

    def mono(self, code: int) -> Monomial:
        mask = self.mask
        return tuple([code >> s & mask for s in self.shifts])


@functools.lru_cache(maxsize=256)
def _layout(n: int, bits: int) -> _Layout:
    return _Layout(n, bits)


def _lead_degree(rules: Sequence[RewriteRule]) -> int:
    """The largest degree of a rule lead.  A call whose tables have degree
    at most ``bound`` codes at ``_layout(n, max(bound, lead degree))``:
    reduction only adds graded-lex smaller monomials, and a rule's tail is
    smaller than its lead, so no exponent the call meets exceeds that."""
    return max((sum(rule.lead) for rule in rules), default=0)


def _encode(layout: _Layout, form: IntForm) -> CodeForm:
    den, table = form
    code = layout.code
    return den, {code(m): xy for m, xy in table.items()}


def _decode(layout: _Layout, form: CodeForm) -> IntForm:
    den, table = form
    mono = layout.mono
    return den, {mono(c): xy for c, xy in table.items()}


# ---------------------------------------------------------------------------
# raw coefficient tables: dict arithmetic with no rewriting
# ---------------------------------------------------------------------------

def raw_add_into(acc: RawTable, terms: Iterable[tuple[Monomial, ComplexRational]],
                 scale: ComplexRational = ONE) -> None:
    for mono, coeff in terms:
        c = acc.get(mono, ZERO) + (coeff if scale is ONE else coeff * scale)
        if c.is_zero():
            acc.pop(mono, None)
        else:
            acc[mono] = c


def raw_mul(a: Mapping[Monomial, ComplexRational],
            b: Mapping[Monomial, ComplexRational]) -> RawTable:
    if not (a and b):
        return {}
    layout = _layout(len(next(iter(a))), (max(map(sum, a)) + max(map(sum, b))).bit_length())
    product = _int_mul(_encode(layout, _int_table(a.items())),
                       _encode(layout, _int_table(b.items())))
    return dict(_from_int_table(*_decode(layout, product)))


def raw_involute(adjoint: Sequence[int], a: Mapping[Monomial, ComplexRational]) -> RawTable:
    """Conjugate coefficients and swap each exponent onto the partner slot."""
    out: RawTable = {}
    raw_add_into(out, ((mono_involute(adjoint, m), c.conjugate()) for m, c in a.items()))
    return out


def substitute(batch: Iterable[Iterable[tuple[Monomial, object]]],
               points: Iterable[Sequence], zero) -> list[list]:
    """zero + sum of c * prod(values[i] ** e_i) over the (monomial, c) pairs
    of each terms list of the batch: one list of totals per assignment
    ``values`` of ``points``.

    The one evaluation loop: a character's transform, a morphism's image,
    the coefficient bound and a point state's moments each extend a
    generator assignment this way.  The factors of every monomial are read
    once per call; each ``values[i] ** e`` is computed once per assignment,
    by the same ``**``, and shared by the whole batch.
    """
    slots: dict[tuple[int, int], int] = {}
    prepared = [[(c, [slots.setdefault((i, e), len(slots)) for i, e in enumerate(mono) if e])
                 for mono, c in terms] for terms in batch]
    out = []
    for values in points:
        powers = [values[i] ** e for i, e in slots]
        totals = []
        for terms in prepared:
            total = zero
            for c, factors in terms:
                for f in factors:
                    c = c * powers[f]
                total = total + c
            totals.append(total)
        out.append(totals)
    return out


# ---------------------------------------------------------------------------
# integer tables: Gaussian-integer numerators over one denominator
# ---------------------------------------------------------------------------

def _int_table(items: Iterable[tuple[Monomial, ComplexRational]]) -> IntForm:
    """(den, {mono: (re, im)}) through scalars.to_numerators."""
    items = tuple(items)
    den, re, im = to_numerators(c for _, c in items)
    return den, dict(zip((m for m, _ in items), zip(re, im)))


def _from_int_table(den: int, table: IntTable) -> Terms:
    """The nonzero entries as (monomial, ComplexRational), in table order."""
    monos = [m for m, (x, y) in table.items() if x or y]
    return tuple(zip(monos, from_numerators(den, [table[m][0] for m in monos],
                                            [table[m][1] for m in monos])))


def _lowest(den: int, table: IntTable) -> IntForm:
    """(den, table) with gcd(den, *numerators) divided out."""
    g = math.gcd(den, *(x for pair in table.values() for x in pair))
    if g == 1:
        return den, table
    return den // g, {m: (x // g, y // g) for m, (x, y) in table.items()}


def _add_shifted(table: CodeTable, terms: Iterable[tuple[int, tuple[int, int]]],
                 shift: int, re: int, im: int) -> list[int]:
    """table += (re + im*i) * x^shift * terms, all over one denominator, on
    codes of one layout.

    Returns the codes new to the table.  Entries that cancel stay, as
    (0, 0), so a monomial enters the table once.
    """
    new = []
    for m, (x, y) in terms:
        m += shift
        dx, dy = re * x - im * y, re * y + im * x
        old = table.get(m)
        if old is None:
            table[m] = (dx, dy)
            new.append(m)
        else:
            table[m] = (old[0] + dx, old[1] + dy)
    return new


def _int_mul(a: CodeForm, b: CodeForm) -> CodeForm:
    """The raw product of two coded forms, over den_a * den_b."""
    (den_a, a_ints), (den_b, b_ints) = a, b
    b_terms = tuple(b_ints.items())
    table: CodeTable = {}
    for m, (x, y) in a_ints.items():
        _add_shifted(table, b_terms, m, x, y)
    return den_a * den_b, table


def _product(rules: Sequence[RewriteRule], layout: _Layout, a: CodeForm,
             b: CodeForm) -> CodeForm:
    """The normal form of a * b, in lowest terms."""
    return _reduce(rules, layout, *_int_mul(a, b))


def _combine(parts: Iterable[tuple[tuple[int, int], int, IntTable]]) -> IntForm:
    """The sum of (re + im*i) * table / den over the (re, im), den, table
    parts, over the lcm of their denominators.  Entries come out in
    descending graded-lex order, none zero, with the gcd divided out, so a
    combination of normal forms is a normal form."""
    parts = tuple(parts)
    den = math.lcm(*(d for _, d, _ in parts))
    acc: IntTable = {}
    for (re, im), d, table in parts:
        re, im = re * (den // d), im * (den // d)
        for m, (x, y) in table.items():
            dx, dy = re * x - im * y, re * y + im * x
            old = acc.get(m)
            acc[m] = (dx, dy) if old is None else (old[0] + dx, old[1] + dy)
    monos = sorted((m for m, (x, y) in acc.items() if x or y), key=grlex_key,
                   reverse=True)
    return _lowest(den, {m: acc[m] for m in monos})


def _involute_codes(layout: _Layout, adjoint: Sequence[int], table: IntTable) -> CodeTable:
    """The involution of an integer table, coded: each exponent moves to
    its partner slot and each imaginary numerator changes sign."""
    code = layout.code
    return {code(mono_involute(adjoint, m)): (x, -y) for m, (x, y) in table.items()}


def sort_terms(table: Mapping[Monomial, ComplexRational]) -> Terms:
    return tuple(sorted(
        ((m, c) for m, c in table.items() if not c.is_zero()),
        key=lambda item: grlex_key(item[0]),
        reverse=True,
    ))


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewriteRule:
    """One oriented relation: lead coefficient * lead monomial + tail = 0.

    The division loop and the confluence check read the monic tail,
    tail / coeff, as Gaussian-integer numerators ``tail_ints`` over
    ``tail_den``, fixed once by ``orient``; the tail itself is the rest of
    relation ``index`` after its lead term.  ``coded`` gives the lead and
    the monic tail as codes, encoded once per layout.
    """

    lead: Monomial
    coeff: ComplexRational
    index: int  # position in the presentation's relation list
    tail_den: int
    tail_ints: IntTerms
    _codes: dict[_Layout, tuple[int, CodeTerms]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def orient(cls, terms: Terms, index: int) -> "RewriteRule":
        """The rule of a relation sorted by descending graded-lex order."""
        (lead, coeff), tail = terms[0], terms[1:]
        monic = tail if coeff == ONE else tuple((m, c / coeff) for m, c in tail)
        den, ints = _int_table(monic)
        return cls(lead, coeff, index, den, tuple(ints.items()))

    def coded(self, layout: _Layout) -> tuple[int, CodeTerms]:
        """(lead code, monic tail by code) at the layout."""
        got = self._codes.get(layout)
        if got is None:
            code = layout.code
            got = self._codes[layout] = (
                code(self.lead), tuple((code(m), xy) for m, xy in self.tail_ints))
        return got


@dataclass(frozen=True)
class RewriteStep:
    """A recorded reduction: the reduced element changed by
    factor * x^shift * relation[rule_index]."""

    rule_index: int
    shift: Monomial
    factor: ComplexRational


def normalize_table(rules: Sequence[RewriteRule], raw: Mapping[Monomial, ComplexRational],
                    record: bool = False) -> tuple[Terms, list[RewriteStep]]:
    """Reduce a raw table to normal form under the oriented rules.

    The division algorithm: take the graded-lex largest monomial left; if
    no rule lead divides it, it is final (a reduction only adds smaller
    monomials), otherwise subtract the shifted relation of the first rule
    that divides it.  MAX_REWRITE_STEPS guards against pathologically large
    intermediate expansions.  With ``record=True`` the returned steps express
    the difference between input and output as an explicit combination of
    shifted relations, which tests replay to certify soundness.
    """
    steps: list[RewriteStep] = []
    top = max(max(map(sum, raw), default=0), _lead_degree(rules))
    layout = _layout(len(next(iter(raw), ())), top.bit_length())
    normal = _normalize(rules, layout, _int_table(raw.items()), steps if record else None)
    return _from_int_table(*normal), steps


def _normalize(rules: Sequence[RewriteRule], layout: _Layout, form: IntForm,
               steps: list[RewriteStep] | None = None) -> IntForm:
    """The normal form of an integer form: coded, reduced and decoded."""
    return _decode(layout, _reduce(rules, layout, *_encode(layout, form), steps))


def _reduce(rules: Sequence[RewriteRule], layout: _Layout, den: int, table: CodeTable,
            steps: list[RewriteStep] | None = None) -> CodeForm:
    """The division loop of normalize_table on a coded table over den,
    returning the normal form, coded, in lowest terms and descending
    graded-lex order; the steps are appended to ``steps`` when it is given.

    A heap of negated codes yields the largest monomial left.  A
    reduction only adds monomials smaller than the one it removes, so a
    popped monomial never comes back, each monomial enters the heap once,
    with the table, and an entry that cancelled to zero is skipped when
    popped: the order is that of a max scan over the nonzero entries.
    """
    guard = layout.guard
    coded = [(rule, *rule.coded(layout)) for rule in rules]
    heap = [-m for m in table]
    heapq.heapify(heap)
    normal: CodeTable = {}
    count, cap = 0, MAX_REWRITE_STEPS
    while heap:
        mono = -heapq.heappop(heap)
        re, im = table.pop(mono)
        if not (re or im):
            continue
        probe = mono + guard
        for rule, lead, tail in coded:
            if (probe - lead) & guard == guard:
                break
        else:
            normal[mono] = (re, im)
            continue
        count += 1
        if count > cap:
            raise RewriteBudgetError(
                f"normalization exceeds the cap of {cap} rewrite steps "
                f"(last rule index {rule.index})")
        shift = mono - lead
        if steps is not None:
            coeff = ComplexRational(Fraction(re, den), Fraction(im, den))
            steps.append(RewriteStep(rule.index, layout.mono(shift), coeff / rule.coeff))
        # subtract (re + im*i)/den * x^shift * (lead + tail_ints/tail_den);
        # what of tail_den the coefficient does not absorb scales the table
        g = math.gcd(re, im, rule.tail_den)
        scale = rule.tail_den // g
        if scale > 1:
            den *= scale
            table = {m: (x * scale, y * scale) for m, (x, y) in table.items()}
            normal = {m: (x * scale, y * scale) for m, (x, y) in normal.items()}
        for m in _add_shifted(table, tail, shift, -re // g, -im // g):
            heapq.heappush(heap, -m)
    return _lowest(den, normal)


def verify_rewrite_trace(pres: "StarPresentation",
                         raw: Mapping[Monomial, ComplexRational],
                         normal: Union["StarPoly", Terms],
                         steps: Sequence[RewriteStep]) -> bool:
    """Check raw - normal == sum(factor * x^shift * relation) exactly.

    The reconstruction uses raw table arithmetic only, so it does not trust
    the rewrite engine it is auditing.  ``normal`` may be the element or the
    bare term tuple that normalize_table returned.
    """
    terms = normal.terms if isinstance(normal, StarPoly) else tuple(normal)
    acc: RawTable = dict((m, c) for m, c in raw.items() if not c.is_zero())
    raw_add_into(acc, terms, scale=ComplexRational(-1))
    for step in steps:
        relation = pres.relations[step.rule_index]
        shifted = tuple((mono_mul(m, step.shift), c) for m, c in relation)
        raw_add_into(acc, shifted, scale=-step.factor)
    return not acc


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class StarPresentation:
    """A named list of generators with adjoint pairing and oriented relations.

    Structural equality (and hashing) ignores the display names: two
    presentations are equal when they have the same mode, the same pairing
    pattern, and the same relation tables.  This matches the intended
    semantics, where the underlying algebra of the one-free-pair *-algebra
    is literally a free commutative algebra on two generators, whatever the
    second generator happens to be called.
    """

    __slots__ = ("name", "mode", "generators", "adjoint", "relations",
                 "_rules", "_key", "_lead_degree")

    def __init__(self, name: str, mode: str, generators: tuple[str, ...],
                 adjoint: tuple[int | None, ...], relations: tuple[Terms, ...],
                 rules: tuple[RewriteRule, ...]) -> None:
        # use assemble(); this constructor performs no validation
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "adjoint", adjoint)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "_rules", rules)
        object.__setattr__(self, "_key", (mode, adjoint, relations))
        object.__setattr__(self, "_lead_degree", _lead_degree(rules))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StarPresentation is immutable")

    @classmethod
    def assemble(cls, name: str, mode: str, generators: Sequence[str],
                 adjoint: Sequence[int | None],
                 relation_tables: Sequence[Mapping[Monomial, ComplexRational]]
                 ) -> "StarPresentation":
        generators = tuple(generators)
        adjoint = tuple(adjoint)
        if mode not in (MODE_ALGEBRA, MODE_STAR):
            raise PresentationError(f"unknown mode {mode!r}")
        if len(set(generators)) != len(generators):
            raise PresentationError("duplicate generator name")
        for g in generators:
            if not g:
                raise PresentationError("empty generator name")
        if len(adjoint) != len(generators):
            raise PresentationError("adjoint table length mismatch")
        n = len(generators)
        if mode == MODE_ALGEBRA:
            if any(a is not None for a in adjoint):
                raise PresentationError("algebra mode admits no adjoint pairing")
        else:
            for i, a in enumerate(adjoint):
                if a is None or not (0 <= a < n) or adjoint[a] != i:
                    raise PresentationError(
                        f"adjoint pairing is not an involution at generator "
                        f"{generators[i]!r}")

        canonical: list[Terms] = []
        for table in relation_tables:
            for mono in table:
                if len(mono) != n or any(e < 0 for e in mono):
                    raise PresentationError("relation monomial has wrong shape")
            terms = sort_terms(table)
            if terms:
                canonical.append(terms)
        relations = tuple(canonical)
        rules = tuple(RewriteRule.orient(t, i) for i, t in enumerate(relations))
        pres = cls(name, mode, generators, adjoint, relations, rules)

        # one layout for both checks: an S-polynomial's degree is at most
        # its lcm's, at most twice the largest lead degree
        layout = _layout(n, (2 * pres._lead_degree).bit_length())
        # confluence first: on a non-confluent system the closure check below
        # would blame the involution for what is really an unresolved overlap
        pres._check_confluence(layout)
        if mode == MODE_STAR:
            for i, rel in enumerate(relations):
                den, table = _int_table(rel)
                if _reduce(rules, layout, den, _involute_codes(layout, adjoint, table))[1]:
                    raise PresentationError(
                        f"relation {i} is not matched under the involution; "
                        f"add its adjoint as a relation")
        return pres

    def _check_confluence(self, layout: _Layout) -> None:
        rules = self._rules
        coded = [rule.coded(layout) for rule in rules]
        for i in range(len(rules)):
            for j in range(i + 1, len(rules)):
                ri, rj = rules[i], rules[j]
                (lead_i, tail_i), (lead_j, tail_j) = coded[i], coded[j]
                lcm = mono_lcm(ri.lead, rj.lead)
                top = layout.code(lcm)
                if top == lead_i + lead_j:
                    continue  # coprime leads: the pair resolves trivially
                # the monic leads cancel, so the S-polynomial is the two
                # shifted monic tails over the lcm of their denominators
                den = math.lcm(ri.tail_den, rj.tail_den)
                s_poly: CodeTable = {}
                _add_shifted(s_poly, tail_i, top - lead_i, den // ri.tail_den, 0)
                _add_shifted(s_poly, tail_j, top - lead_j, -(den // rj.tail_den), 0)
                if _reduce(rules, layout, den, s_poly)[1]:
                    raise PresentationError(
                        f"relations {i} and {j} are not confluent: "
                        f"unresolved overlap at {lcm}")

    # ---- structural identity ----

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarPresentation):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    # ---- queries ----

    @property
    def is_star(self) -> bool:
        return self.mode == MODE_STAR

    def generator_index(self, which: Union[int, str]) -> int:
        """The slot of a generator given by name or by index."""
        if isinstance(which, int):
            if not 0 <= which < len(self.generators):
                raise AlgebraError(
                    f"generator index {which} out of range for "
                    f"{len(self.generators)} generators")
            return which
        try:
            return self.generators.index(which)
        except ValueError:
            raise AlgebraError(f"unknown generator {which!r}") from None

    def partner(self, index: int) -> int:
        a = self.adjoint[index]
        if a is None:
            raise AlgebraError(
                "generator has no adjoint partner in algebra mode")
        return a

    def generator_kind(self, index: int) -> str:
        a = self.adjoint[index]
        if a is None:
            return "plain"
        return "selfadjoint" if a == index else "free"

    def with_partners(self, given: Mapping[str, V], adjoint: Callable[[V], V]) -> dict[str, V]:
        """``given`` plus ``adjoint(value)`` for each free partner it omits.

        The involution fixes the value on adj(g) once the value on g is
        known: a character's by conjugation, a *-morphism's image by
        involution.  Self-adjoint and algebra-mode generators gain nothing.
        """
        out = dict(given)
        for g, a in zip(self.generators, self.adjoint):
            if a is not None and g in given and self.generators[a] not in given:
                out[self.generators[a]] = adjoint(given[g])
        return out

    def rules(self) -> tuple[RewriteRule, ...]:
        return self._rules

    def _layout(self, bound: int) -> _Layout:
        """The code layout of a call whose tables have degree <= bound."""
        return _layout(len(self.generators), max(bound, self._lead_degree).bit_length())

    # ---- element constructors ----

    def poly(self, table: Mapping[Monomial, ComplexRational]) -> "StarPoly":
        return self._normal(_int_table(table.items()))

    def _normal(self, form: IntForm) -> "StarPoly":
        """The element of an integer form, reduced to normal form."""
        layout = self._layout(max(map(sum, form[1]), default=0))
        return StarPoly._from_ints(self, _normalize(self._rules, layout, form))

    def zero(self) -> "StarPoly":
        return StarPoly._from_ints(self, (1, {}))

    def scalar(self, value: ScalarLike) -> "StarPoly":
        c = ComplexRational.coerce(value)
        if c.is_zero():
            return self.zero()
        unit = (0,) * len(self.generators)
        return self.poly({unit: c})

    def one(self) -> "StarPoly":
        return self.scalar(1)

    def gen(self, which: Union[int, str]) -> "StarPoly":
        idx = self.generator_index(which)
        mono = tuple(1 if i == idx else 0 for i in range(len(self.generators)))
        return self._normal((1, {mono: (1, 0)}))

    def monomials_up_to(self, degree: int) -> list[Monomial]:
        """All rule-irreducible monomials of total degree <= degree,
        ascending graded-lex."""
        return sorted(self._irreducible(degree), key=grlex_key)

    def _irreducible(self, degree: int) -> Iterator[Monomial]:
        """The rule-irreducible monomials of degree <= degree, lazily: slot by
        slot, a rule lead that ends in this slot and divides the exponents
        before it caps this one below its own, so every branch yields."""
        n = len(self.generators)
        ends: list[list[Monomial]] = [[] for _ in range(n + 1)]
        for lead in (rule.lead for rule in self._rules):
            ends[max((i + 1 for i, e in enumerate(lead) if e), default=0)].append(lead)
        mono: list[int] = []

        def walk(remaining: int) -> Iterator[Monomial]:
            slot = len(mono)
            if slot == n:
                yield tuple(mono)
                return
            top = min([remaining + 1] + [lead[slot] for lead in ends[slot + 1]
                                         if all(map(le, lead, mono))])
            for e in range(top):
                mono.append(e)
                yield from walk(remaining - e)
                mono.pop()

        # a constant relation (a lead ending before slot 0) reduces everything
        return iter(()) if ends[0] else walk(degree)

    def describe(self) -> dict:
        """Plain-data summary used by the command line reports."""
        gens = []
        for i, g in enumerate(self.generators):
            entry: dict = {"name": g, "kind": self.generator_kind(i)}
            if self.adjoint[i] is not None and self.adjoint[i] != i:
                entry["partner"] = self.generators[self.adjoint[i]]
            gens.append(entry)
        return {
            "name": self.name,
            "mode": self.mode,
            "generators": gens,
            "relations": [format_terms(self, rel) for rel in self.relations],
        }

    def __repr__(self) -> str:
        return (f"StarPresentation({self.name!r}, {self.mode}, "
                f"generators={list(self.generators)}, "
                f"relations={len(self.relations)})")


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class StarPoly:
    """An element of a presented algebra, stored in normal form.

    ``int_form`` is the normal form in the ``scalars.to_numerators``
    format, ``(den, {mono: (re, im)})``: the monomials in descending
    graded-lex order, none reducible, no entry zero, and gcd(den, *re, *im)
    == 1, so it is canonical and equality reads it.  ``terms``, the
    (monomial, coefficient) pairs in the same order, is derived from it
    when read.  Instances are immutable and hashable.
    """

    __slots__ = ("pres", "int_form")

    def __init__(self, pres: StarPresentation, terms: Terms) -> None:
        """The element sum c * m over ``terms``, (m, c) pairs in any order,
        a repeated monomial's coefficients summed, in normal form as
        ``pres.poly`` gives it."""
        table: RawTable = {}
        raw_add_into(table, terms)
        object.__setattr__(self, "pres", pres)
        object.__setattr__(self, "int_form", pres.poly(table).int_form)

    @classmethod
    def _from_ints(cls, pres: StarPresentation, form: IntForm) -> "StarPoly":
        """The element of a normal form already in ``int_form`` shape."""
        self = object.__new__(cls)
        object.__setattr__(self, "pres", pres)
        object.__setattr__(self, "int_form", form)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StarPoly is immutable")

    # ---- queries ----

    @property
    def terms(self) -> Terms:
        return _from_int_table(*self.int_form)

    def is_zero(self) -> bool:
        return not self.int_form[1]

    def degree(self) -> int:
        """Total degree; -1 for the zero element."""
        table = self.int_form[1]
        return sum(next(iter(table))) if table else -1

    def coeff(self, mono: Monomial) -> ComplexRational:
        den, table = self.int_form
        x, y = table.get(mono, (0, 0))
        return ComplexRational(Fraction(x, den), Fraction(y, den))

    def constant_term(self) -> ComplexRational:
        return self.coeff((0,) * len(self.pres.generators))

    def as_table(self) -> RawTable:
        return dict(self.terms)

    def _require_same(self, other: "StarPoly") -> None:
        if self.pres != other.pres:
            raise AlgebraError("operands live over different presentations")

    # ---- arithmetic ----

    def _plus(self, other: Union["StarPoly", ScalarLike], sign: int) -> "StarPoly":
        if not isinstance(other, StarPoly):
            other = self.pres.scalar(other)
        self._require_same(other)
        # every monomial of a sum of normal forms is irreducible already
        return StarPoly._from_ints(self.pres, _combine(
            (((1, 0), *self.int_form), ((sign, 0), *other.int_form))))

    def __add__(self, other: Union["StarPoly", ScalarLike]) -> "StarPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "StarPoly":
        den, table = self.int_form
        return StarPoly._from_ints(
            self.pres, (den, {m: (-x, -y) for m, (x, y) in table.items()}))

    def __sub__(self, other: Union["StarPoly", ScalarLike]) -> "StarPoly":
        return self._plus(other, -1)

    def __rsub__(self, other: ScalarLike) -> "StarPoly":
        return self.pres.scalar(other) - self

    def __mul__(self, other: Union["StarPoly", ScalarLike]) -> "StarPoly":
        if not isinstance(other, StarPoly):
            c_den, c_re, c_im = to_numerators([ComplexRational.coerce(other)])
            den, table = self.int_form
            return StarPoly._from_ints(self.pres, _combine(
                [((c_re[0], c_im[0]), c_den * den, table)]))
        self._require_same(other)
        rules, layout = self.pres._rules, self.pres._layout(
            max(self.degree(), 0) + max(other.degree(), 0))
        return StarPoly._from_ints(self.pres, _decode(layout, _product(
            rules, layout, _encode(layout, self.int_form), _encode(layout, other.int_form))))

    def __rmul__(self, other: ScalarLike) -> "StarPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "StarPoly":
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("polynomial exponent must be a nonnegative integer")
        # reduction never raises the degree, so no table of the expansion
        # holds more monomials than there are of degree <= n * deg
        d, k = self.degree(), len(self.pres.generators)
        if d > 0:
            check_cap(f"power expansion to C({n}*{d} + {k}, {k}) monomials",
                      math.comb(n * d + k, k), MAX_POWER_TERMS)
        # the whole square-and-multiply chain runs on codes at one width:
        # no power in it exceeds self**n
        rules, layout = self.pres._rules, self.pres._layout(max(n, 1) * max(d, 0))
        one = _reduce(rules, layout, 1, {0: (1, 0)})  # zero under a constant relation
        return StarPoly._from_ints(self.pres, _decode(layout, power(
            _encode(layout, self.int_form), n, one,
            lambda a, b: _product(rules, layout, a, b))))

    def power_sizes(self, count: int) -> Iterator[int]:
        """The term counts of the normal forms of self**1, ..., self**count,
        each power the one before times self, on codes at one width."""
        rules, layout = self.pres._rules, self.pres._layout(max(count, 1) * max(self.degree(), 0))
        base = _encode(layout, self.int_form)
        acc = _reduce(rules, layout, 1, {0: (1, 0)})
        for _ in range(count):
            acc = _product(rules, layout, acc, base)
            yield len(acc[1])

    def involute(self) -> "StarPoly":
        """The image under the involution; rejects algebra-mode elements."""
        if not self.pres.is_star:
            raise AlgebraError("underlying algebra carries no involution")
        den, table = self.int_form
        pres, layout = self.pres, self.pres._layout(max(self.degree(), 0))
        return StarPoly._from_ints(pres, _decode(layout, _reduce(
            pres._rules, layout, den, _involute_codes(layout, pres.adjoint, table))))

    # ---- identity ----

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self == self.pres.scalar(other)
        if not isinstance(other, StarPoly):
            return NotImplemented
        return self.pres == other.pres and self.int_form == other.int_form

    def __hash__(self) -> int:
        den, table = self.int_form
        return hash((self.pres, den, tuple(table.items())))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<StarPoly {self}>"


# ---------------------------------------------------------------------------
# spelling: descending graded-lex terms, explicit coefficients and
# parenthesized complex literals, so parse_poly(format_poly(p)) == p
# ---------------------------------------------------------------------------

def format_monomial(pres: StarPresentation, mono: Monomial) -> str:
    parts = []
    for name, e in zip(pres.generators, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_terms(pres: StarPresentation, terms) -> str:
    """Terms with explicit coefficients: a real one signs the term and
    shows its magnitude, a complex one is its parenthesized literal, and
    a coefficient that reads 1 is left off a monomial."""
    if not terms:
        return "0"
    unit = (0,) * len(pres.generators)
    parts = []
    for mono, coeff in terms:
        real = coeff.is_real()
        body = rational_literal(abs(coeff.re)) if real else coeff.literal()
        if mono != unit:
            monomial = format_monomial(pres, mono)
            body = monomial if body == "1" else f"{body}*{monomial}"
        parts.append(f" {'-' if real and coeff.re < 0 else '+'} {body}")
    text = "".join(parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def format_poly(p: StarPoly) -> str:
    return format_terms(p.pres, p.terms)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class Morphism:
    """A homomorphism defined by generator images, validated on relations."""

    __slots__ = ("source", "target", "images", "star")

    def __init__(self, source: StarPresentation, target: StarPresentation,
                 images: tuple[StarPoly, ...], star: bool) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "star", star)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Morphism is immutable")

    @classmethod
    def create(cls, source: StarPresentation, target: StarPresentation,
               images: Union[Mapping[str, StarPoly], Sequence[StarPoly]],
               star: bool = False) -> "Morphism":
        if isinstance(images, Mapping):
            if star and source.is_star and target.is_star:
                images = source.with_partners(images, StarPoly.involute)
            missing = [g for g in source.generators if g not in images]
            if missing:
                raise MorphismError(f"no image for generator {missing[0]!r}")
            extra = [k for k in images if k not in source.generators]
            if extra:
                raise MorphismError(f"image given for unknown generator {extra[0]!r}")
            ordered = tuple(images[g] for g in source.generators)
        else:
            ordered = tuple(images)
            if len(ordered) != len(source.generators):
                raise MorphismError(
                    f"expected {len(source.generators)} images, got {len(ordered)}")
        for img in ordered:
            if img.pres != target:
                raise MorphismError("generator image lives over the wrong presentation")
        morphism = cls(source, target, ordered, star)
        for k, rel in enumerate(source.relations):
            if not substitute([rel], [ordered], target.zero())[0][0].is_zero():
                raise MorphismError(
                    f"generator assignment does not kill relation {k}")
        if star:
            ok, witness = is_star_hom(morphism)
            if not ok:
                raise MorphismError(
                    f"assignment is not *-compatible at generator {witness!r}")
        return morphism

    def image(self, which: Union[int, str]) -> StarPoly:
        return self.images[self.source.generator_index(which)]

    def apply(self, a: StarPoly) -> StarPoly:
        if a.pres != self.source:
            raise AlgebraError("element does not live over the morphism source")
        return substitute([a.terms], [self.images], self.target.zero())[0][0]

    def __call__(self, a: StarPoly) -> StarPoly:
        return self.apply(a)

    def __repr__(self) -> str:
        kind = "*-morphism" if self.star else "morphism"
        return (f"<{kind} {self.source.name} -> {self.target.name} on "
                f"{len(self.images)} generators>")


def identity_morphism(pres: StarPresentation) -> Morphism:
    images = tuple(pres.gen(i) for i in range(len(pres.generators)))
    return Morphism(pres, pres, images, star=pres.is_star)


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner."""
    if inner.target != outer.source:
        raise MorphismError("composition mismatch: inner target != outer source")
    images = tuple(outer.apply(img) for img in inner.images)
    return Morphism(inner.source, outer.target, images,
                    star=inner.star and outer.star)


def is_star_hom(f: Morphism) -> tuple[bool, str | None]:
    """Check f(adj(g)) == adj(f(g)) on every generator.

    Returns (True, None) or (False, offending generator name).  Checking the
    generators suffices: both sides are anti-linear over conjugation and
    multiplicative, so agreement on generators extends to all elements.
    """
    if not (f.source.is_star and f.target.is_star):
        raise AlgebraError("*-compatibility needs involutions on both sides")
    for i, g in enumerate(f.source.generators):
        j = f.source.partner(i)
        if f.images[j] != f.images[i].involute():
            return False, g
    return True, None


# ---------------------------------------------------------------------------
# the free / underlying functor pair
# ---------------------------------------------------------------------------

def _lift_table(table: Terms, positions: Sequence[int], width: int) -> RawTable:
    out: RawTable = {}
    for mono, coeff in table:
        lifted = [0] * width
        for i, e in enumerate(mono):
            lifted[positions[i]] = e
        out[tuple(lifted)] = coeff
    return out


def free_star(pres: StarPresentation) -> StarPresentation:
    """Left adjoint on objects: double the generators and close the relations.

    Every generator g of the input gains a fresh partner adj(g); every
    relation is imported verbatim on the original generators and accompanied
    by its involuted copy, the minimal choice making the result a *-algebra
    presentation.
    """
    if pres.is_star:
        raise AlgebraError("free functor applies to algebra-mode presentations")
    n = len(pres.generators)
    names: list[str] = []
    adjoint: list[int | None] = []
    for i, g in enumerate(pres.generators):
        names.extend([g, f"adj({g})"])
        adjoint.extend([2 * i + 1, 2 * i])
    positions = [2 * i for i in range(n)]
    tables: list[RawTable] = []
    seen: set[Terms] = set()
    for rel in pres.relations:
        lifted = _lift_table(rel, positions, 2 * n)
        mirrored = raw_involute(adjoint, lifted)
        for table in (lifted, mirrored):
            key = sort_terms(table)
            if key not in seen:
                seen.add(key)
                tables.append(table)
    return StarPresentation.assemble(
        f"free({pres.name})", MODE_STAR, names, adjoint, tables)


def underlying(pres: StarPresentation) -> StarPresentation:
    """Right adjoint on objects: erase the adjoint pairing, keep everything
    else verbatim."""
    if not pres.is_star:
        raise AlgebraError("underlying functor applies to *-algebra presentations")
    return StarPresentation.assemble(
        f"underlying({pres.name})", MODE_ALGEBRA, pres.generators,
        (None,) * len(pres.generators),
        [dict(rel) for rel in pres.relations])


def reinterpret(a: StarPoly, pres: StarPresentation) -> StarPoly:
    """Carry a coefficient table to a presentation with the same generator
    slots (used to move elements along the identity on generators between a
    *-presentation and its underlying presentation)."""
    if len(pres.generators) != len(a.pres.generators):
        raise AlgebraError("presentations have different generator counts")
    return pres.poly(a.as_table())


def underlying_morphism(f: Morphism) -> Morphism:
    """Apply the underlying functor to a *-morphism."""
    if not (f.source.is_star and f.target.is_star):
        raise AlgebraError("underlying functor acts on *-morphisms")
    src = underlying(f.source)
    tgt = underlying(f.target)
    images = tuple(reinterpret(img, tgt) for img in f.images)
    return Morphism(src, tgt, images, star=False)


def extend_hom(f: Morphism, target: StarPresentation) -> Morphism:
    """The universal extension across the free functor.

    Given an algebra morphism f from A into the underlying algebra of a
    *-presentation B, produce the unique *-morphism from free_star(A) to B
    that restricts to f on the original generators.  The partner images are
    forced: adj(g) must go to the involute of f(g), so there is nothing to
    choose, and ``Morphism.create`` fills them.
    """
    if f.source.is_star:
        raise MorphismError("extension source must be an algebra-mode presentation")
    if not target.is_star:
        raise MorphismError("extension target must be a *-presentation")
    if f.target != underlying(target):
        raise MorphismError(
            "morphism target is not the underlying algebra of the extension target")
    images = {g: reinterpret(img, target) for g, img in zip(f.source.generators, f.images)}
    return Morphism.create(free_star(f.source), target, images, star=True)


def restrict_hom(g: Morphism, source: StarPresentation) -> Morphism:
    """Restrict a *-morphism out of free_star(source) back along the unit:
    keep the images of the original generators, viewed in the underlying
    algebra of the target."""
    if g.source != free_star(source):
        raise MorphismError("morphism source is not the free *-algebra on the "
                            "given presentation")
    tgt = underlying(g.target)
    images = tuple(reinterpret(g.images[2 * i], tgt)
                   for i in range(len(source.generators)))
    return Morphism(source, tgt, images, star=False)
