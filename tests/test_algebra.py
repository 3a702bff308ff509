import gc
import math
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gelfand_lab as gl
from gelfand_lab import (ComplexRational, Morphism, StarPresentation,
                         verify_rewrite_trace)
from gelfand_lab.algebra import (MAX_POWER_TERMS, RewriteRule, RewriteStep, _layout,
                                 grlex_key, mono_divides, mono_mul, mono_quotient,
                                 normalize_table, raw_involute, raw_mul,
                                 sort_terms)
from gelfand_lab.errors import (AlgebraError, MorphismError,
                                PresentationError, RewriteBudgetError,
                                UnsupportedError)

from helpers import (circle, disk, line, nil, plain, rand_morphism, rand_poly,
                     rand_scalar, sphere)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def test_assemble_validation():
    with pytest.raises(PresentationError):
        StarPresentation.assemble("A", "ring", ("x",), (None,), ())
    with pytest.raises(PresentationError):
        StarPresentation.assemble("A", "algebra", ("x", "x"), (None, None), ())
    with pytest.raises(PresentationError):
        StarPresentation.assemble("A", "algebra", ("",), (None,), ())
    # a free pair is fine; a broken pairing is not
    StarPresentation.assemble("A", "star-algebra", ("a", "b"), (1, 0), ())
    with pytest.raises(PresentationError):
        StarPresentation.assemble("A", "star-algebra", ("a", "b"), (1, 1), ())
    with pytest.raises(PresentationError):
        StarPresentation.assemble("A", "star-algebra", ("a",), (None,), ())


def test_star_closure_rejected():
    # z^2 = 0 alone is not a *-closed relation set over a free pair
    with pytest.raises(PresentationError, match="adjoint"):
        gl.parse_presentation(
            "algebra A ; generator z : free ; relation z^2 ;")
    # adding the mirrored relation fixes it
    pres = gl.parse_presentation(
        "algebra A ; generator z : free ; relation z^2 ; "
        "relation adj(z)^2 ;")
    assert len(pres.relations) == 2


closure_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
closure_scalars = st.builds(ComplexRational, closure_fractions, closure_fractions)


@st.composite
def closure_cases(draw):
    """(adjoint, relation tables) of star-mode presentations that are
    confluent by construction: one self-adjoint generator with one relation,
    or one free pair with one relation led by z^d and, half the time, a
    multiple of its mirror (led by adj(z)^d, a coprime lead).  The lead
    coefficient is a non-unit complex scalar; the tail is random, or on the
    line half the time the lead times a real tail, which the involution
    can match."""
    lead = draw(closure_scalars.filter(lambda c: not c.is_zero() and c != 1))
    d = draw(st.integers(0, 3))
    if draw(st.booleans()):
        adjoint, lead_mono, size = (0,), (d,), min(d, 3)  # d tail monomials
        tail_monos = st.tuples(st.integers(0, max(d - 1, 0)))
    else:
        d = max(d, 1)
        adjoint, lead_mono, size = (1, 0), (d, 0), 3
        tail_monos = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)).filter(
            lambda m: sum(m) < d)
    if adjoint == (0,) and draw(st.booleans()):
        tail = {m: lead * r for m, r in
                draw(st.dictionaries(tail_monos, closure_fractions, max_size=size)).items()}
    else:
        tail = draw(st.dictionaries(tail_monos, closure_scalars, min_size=min(size, 1),
                                    max_size=size))
    relation = {lead_mono: lead, **tail}
    tables = [relation]
    if adjoint == (1, 0) and draw(st.booleans()):
        k = draw(closure_scalars.filter(lambda c: not c.is_zero()))
        tables.append({m: k * c for m, c in raw_involute(adjoint, relation).items()})
    return adjoint, tables


@given(closure_cases())
# the involute of relation 0 is relation 1, whose monic tail (1-i)/2 * z
# has tail_den 2, and its lead numerators (1, 1) over den 2 do not absorb
# it: the division step scales den
@example(((1, 0), [
    {(2, 0): ComplexRational(Fraction(1, 2), Fraction(-1, 2)),
     (0, 1): ComplexRational(Fraction(1, 2))},
    {(0, 2): ComplexRational(Fraction(1, 2), Fraction(1, 2)),
     (1, 0): ComplexRational(Fraction(1, 2))}]))
# rejected, through a step that scales den: lead numerators (2, -4) over
# den 2 against tail_den 10
@example(((0,), [{(2,): ComplexRational(1, 2), (1,): ComplexRational(Fraction(1, 2))}]))
def test_star_closure_matches_complex_rational_reference(case):
    adjoint, tables = case
    relations = [sort_terms(t) for t in tables]
    rules = [RewriteRule.orient(rel, i) for i, rel in enumerate(relations)]
    failing = [i for i, rel in enumerate(relations)
               if normalize_table(rules, raw_involute(adjoint, dict(rel)))[0]]
    names = ("x",) if adjoint == (0,) else ("z", "w")
    if failing:
        with pytest.raises(PresentationError) as info:
            StarPresentation.assemble("S", "star-algebra", names, adjoint, tables)
        assert str(info.value) == (
            f"relation {failing[0]} is not matched under the involution; "
            f"add its adjoint as a relation")
    else:
        pres = StarPresentation.assemble("S", "star-algebra", names, adjoint, tables)
        assert pres.relations == tuple(relations)


def test_confluence_rejected():
    with pytest.raises(PresentationError, match="confluen"):
        gl.parse_presentation(
            "algebra A ; generator x : selfadjoint ; "
            "relation x^2 - 1 ; relation x^2 - 2 ;")
    with pytest.raises(PresentationError, match="confluen"):
        gl.parse_presentation(
            "algebra A ; generator x, y : free ; "
            "relation x*y - 1 ; relation x^2 ;", mode="algebra")


def test_confluent_coprime_leads_accepted():
    pres = gl.parse_presentation(
        "algebra T ; generator x, y : selfadjoint ; "
        "relation x^2 - 1 ; relation y^2 - 1 ;")
    p = gl.parse_poly("(x*y)^2", pres)
    assert p == pres.one()


def test_name_blind_structural_equality():
    a = gl.parse_presentation("algebra A ; generator z : free ;")
    b = gl.parse_presentation("algebra B ; generator w : free ;")
    assert a == b
    assert hash(a) == hash(b)
    assert a != line()
    assert line() != nil()


def test_monomials_up_to():
    assert nil().monomials_up_to(4) == [(0,), (1,)]
    assert line().monomials_up_to(3) == [(0,), (1,), (2,), (3,)]
    d = disk().monomials_up_to(2)
    assert d[0] == (0, 0)
    assert len(d) == 6
    assert d == sorted(d, key=lambda m: (sum(m), m))


# ---------------------------------------------------------------------------
# normalization and traces
# ---------------------------------------------------------------------------

def test_normalization_examples():
    pres = nil()
    assert gl.parse_poly("x^2", pres).is_zero()
    assert gl.parse_poly("x^3 + x^2 + x", pres) == gl.parse_poly("x", pres)
    c = circle()
    assert gl.parse_poly("z*adj(z)", c) == c.one()
    assert gl.parse_poly("z^2*adj(z)", c) == gl.parse_poly("z", c)


def test_rewrite_budget(monkeypatch):
    pres = StarPresentation.assemble(
        "Tiny", "star-algebra", ("x",), (0,),
        [{(2,): ComplexRational(1), (1,): ComplexRational(-1)}])
    monkeypatch.setattr(gl.algebra, "MAX_REWRITE_STEPS", 3)
    with pytest.raises(RewriteBudgetError, match=r"cap of 3 rewrite steps \(last rule index 0\)"):
        pres.poly({(50,): ComplexRational(1)})


def test_rewrite_trace_replays():
    rng = Random(11)
    for pres in (nil(), circle()):
        rules = pres.rules()
        for _ in range(40):
            raw = {}
            for _ in range(rng.randint(1, 5)):
                mono = tuple(rng.randint(0, 4)
                             for _ in pres.generators)
                raw[mono] = rand_scalar(rng)
            normal, steps = normalize_table(rules, dict(raw), record=True)
            assert verify_rewrite_trace(pres, raw, normal, steps)


def sort_and_scan_normalize(pres, raw):
    """Reference reduction: re-sort the table each step and reduce the
    largest reducible monomial by the first rule whose lead divides it.
    The lead coefficient and the tail come from the relation itself, not
    from the rule's integer form."""
    rules = pres.rules()
    table = {m: c for m, c in raw.items() if not c.is_zero()}
    steps = []
    while True:
        target = None
        for mono in sorted(table, key=grlex_key, reverse=True):
            rule = next((r for r in rules if mono_divides(r.lead, mono)), None)
            if rule is not None:
                target = (mono, rule)
                break
        if target is None:
            return sort_terms(table), steps
        mono, rule = target
        (_, lead_coeff), *tail = pres.relations[rule.index]
        coeff = table.pop(mono)
        shift = mono_quotient(mono, rule.lead)
        factor = coeff / lead_coeff
        for tm, tc in tail:
            key = mono_mul(tm, shift)
            c = table.get(key, ComplexRational(0)) - tc * factor
            if c.is_zero():
                table.pop(key, None)
            else:
                table[key] = c
        steps.append(RewriteStep(rule.index, shift, factor))


def complex_leads():
    """Algebra mode with non-unit complex leads and tail denominators 2, 3
    and 5: (2+i)/3 * (x^2 - x/2), (1-2i)/5 * (x*y - y/2) and
    (3+i)/2 * (y^3 - 2/5*y^2 + 1/3*y).  Confluent as the assembly jobs are:
    x^2 / x*y resolves, and x*y / y^3 reduces to -(y^3 - q(y))/2."""
    def scaled(lead, table):
        return {m: lead * q for m, q in table.items()}
    half, c = Fraction(1, 2), ComplexRational
    return StarPresentation.assemble("Leads", "algebra", ("x", "y"), (None, None), [
        scaled(c(Fraction(2, 3), Fraction(1, 3)), {(2, 0): 1, (1, 0): -half}),
        scaled(c(Fraction(1, 5), Fraction(-2, 5)), {(1, 1): 1, (0, 1): -half}),
        scaled(c(Fraction(3, 2), half),
               {(0, 3): 1, (0, 2): Fraction(-2, 5), (0, 1): Fraction(1, 3)}),
    ])


REFERENCE_PRESENTATIONS = {
    "circle": circle,
    "complex-leads": complex_leads,
    "sphere": sphere,
    "cubic-quartic": lambda: gl.parse_presentation(
        "algebra N ; generator x, y : selfadjoint ; relation x^3 ; relation y^4 ;"),
    "three-points": lambda: gl.parse_presentation(
        "algebra P ; generator x, y : selfadjoint ; relation x^2 - y ; "
        "relation x*y - x ; relation y^2 - y ;"),
    "five-generators": lambda: StarPresentation.assemble(
        "Multi", "star-algebra", ("x", "y1", "y2", "y3", "y4"), range(5), _assemble4_tables()),
}
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def raw_tables(draw):
    pres = REFERENCE_PRESENTATIONS[draw(st.sampled_from(sorted(REFERENCE_PRESENTATIONS)))]()
    width = len(pres.generators)
    monos = st.tuples(*[st.integers(0, 5)] * width)
    coeffs = st.builds(ComplexRational, small_fractions, small_fractions)
    return pres, draw(st.dictionaries(monos, coeffs, max_size=6))


@given(raw_tables())
# 1/7 absorbs no tail denominator, so these steps scale the table
@example((complex_leads(), {
    (3, 4): ComplexRational(Fraction(1, 7), Fraction(2, 3)),
    (0, 5): ComplexRational(Fraction(1, 2)), (2, 0): ComplexRational(3)}))
def test_division_loop_matches_sort_and_scan_reference(case):
    pres, raw = case
    normal, steps = normalize_table(pres.rules(), raw, record=True)
    assert (normal, steps) == sort_and_scan_normalize(pres, raw)
    assert verify_rewrite_trace(pres, raw, normal, steps)


# ---------------------------------------------------------------------------
# the coded kernel: one int per monomial, integer order = graded-lex order
# ---------------------------------------------------------------------------

@st.composite
def coded_monomials(draw):
    n, bits = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    monos = st.tuples(*[st.integers(0, 2 ** bits - 1)] * n)
    return _layout(n, bits), draw(st.lists(monos, min_size=1, max_size=12, unique=True))


@given(coded_monomials())
def test_code_order_is_graded_lex_order(case):
    layout, monos = case
    assert sorted(monos, key=layout.code) == sorted(monos, key=grlex_key)
    assert [layout.mono(layout.code(m)) for m in monos] == monos
    for a in monos:
        for b in monos:
            divides = (layout.code(b) + layout.guard - layout.code(a)) & layout.guard \
                == layout.guard
            assert divides == mono_divides(a, b)


def nil_ab(a, b):
    return gl.parse_presentation(f"algebra N ; generator x, y : selfadjoint ; "
                                 f"relation x^{a} ; relation y^{b} ;")


KERNEL_PRESENTATIONS = {
    "complex-leads": complex_leads,
    "circle": circle,
    "sphere": sphere,
    "nil-3-5": lambda: nil_ab(3, 5),
    "five-generators": REFERENCE_PRESENTATIONS["five-generators"],
    "free-five": lambda: gl.parse_presentation(
        "algebra F ; generator a, b, c, d, e : selfadjoint ;"),
}


def reference_product(pres, *factors):
    """The normal form of a product through raw ComplexRational tables and
    the sort-and-scan reduction."""
    table = {(0,) * len(pres.generators): ComplexRational(1)}
    for f in factors:
        table = naive_mul(table, f.as_table())
    return sort_and_scan_normalize(pres, table)[0]


@st.composite
def kernel_operands(draw):
    pres = KERNEL_PRESENTATIONS[draw(st.sampled_from(sorted(KERNEL_PRESENTATIONS)))]()
    n = len(pres.generators)
    coeffs = st.builds(ComplexRational, small_fractions, small_fractions)

    def element():
        monos = st.tuples(*[st.integers(0, 3 if n < 4 else 1)] * n)
        return pres.poly(draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3)))
    return pres, element(), element(), draw(st.integers(0, 4 if n < 4 else 2))


@settings(max_examples=60, deadline=None)
@given(kernel_operands())
def test_coded_products_and_powers_match_sort_and_scan(case):
    pres, a, b, k = case
    # the largest exponent up to k that the power cap admits
    d, n = max(a.degree(), 0), len(pres.generators)
    k = max(j for j in range(k + 1) if math.comb(j * d + n, n) <= MAX_POWER_TERMS)
    assert (a * b).terms == reference_product(pres, a, b)
    assert (a ** k).terms == reference_product(pres, *[a] * k)
    assert list(a.power_sizes(k)) == [len(reference_product(pres, *[a] * j))
                                      for j in range(1, k + 1)]


@pytest.mark.parametrize("name", sorted(KERNEL_PRESENTATIONS))
@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_coded_kernel_at_the_width_boundary(name, bits):
    # a product or power of degree 2^b - 1 fills the b value bits of the
    # width its call picks; one of degree 2^b makes the call pick b + 1
    pres = KERNEL_PRESENTATIONS[name]()
    lead_degree = max((sum(r.lead) for r in pres.rules()), default=0)
    x, last = pres.gen(0), pres.gen(len(pres.generators) - 1)
    for top in (2 ** bits - 1, 2 ** bits):
        if lead_degree > top:
            continue
        assert pres._layout(top).bits == top.bit_length()
        a = pres.poly({(top - 1,) + (0,) * (len(pres.generators) - 1): ComplexRational(1)})
        b = x + last * Fraction(1, 3) - 2
        if not a.is_zero() and a.degree() + b.degree() == top:
            assert (a * b).terms == reference_product(pres, a, b)
        c = x - last * Fraction(1, 2)
        if math.comb(top + len(pres.generators), top) <= MAX_POWER_TERMS:
            assert (c ** top).terms == reference_product(pres, *[c] * top)
        raw = {(top,) + (0,) * (len(pres.generators) - 1): ComplexRational(1, 2),
               (0,) * (len(pres.generators) - 1) + (top,): ComplexRational(-1)}
        normal, steps = normalize_table(pres.rules(), raw, record=True)
        assert (normal, steps) == sort_and_scan_normalize(pres, raw)
        assert verify_rewrite_trace(pres, raw, normal, steps)


def test_rule_codes_are_kept_per_layout():
    # an empty table carries no generator count; its call must not leave
    # codes of another layout behind for the next call at the same width
    pres = circle()
    assert normalize_table(pres.rules(), {}) == ((), [])
    assert pres.poly({(1, 1): ComplexRational(1)}) == pres.one()
    assert gl.parse_poly("z - z + z*adj(z)", pres) == pres.one()


def naive_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, ComplexRational(0)) + ca * cb
    return {m: c for m, c in out.items() if not c.is_zero()}


wide_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**30)
coefficient_tables = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(ComplexRational, wide_fractions, wide_fractions), max_size=6)
ONE_C, HALF_I = ComplexRational(1), ComplexRational(0, Fraction(1, 2))


@given(coefficient_tables, coefficient_tables)
@example({}, {(1, 0): ONE_C})
@example({(1, 0): ONE_C, (0, 1): -ONE_C}, {(1, 0): ONE_C, (0, 1): ONE_C})
@example({(1, 0): HALF_I, (0, 0): ComplexRational(0)}, {(1, 0): HALF_I, (0, 1): HALF_I})
@example({(0, 0): ComplexRational(Fraction(1, 3 ** 60), 1)},
         {(2, 1): ComplexRational(Fraction(1, 2 ** 90), Fraction(-1, 7 ** 30))})
def test_raw_mul_matches_naive_double_loop(a, b):
    product = raw_mul(a, b)
    assert product == naive_mul(a, b)
    assert all(type(c) is ComplexRational and not c.is_zero() for c in product.values())


def _assemble4_tables():
    # the shape of the assemble-4 benchmark jobs: x^2 - a*x, x*y_i - a*y_i
    # and y_i^k - q_i(y_i) with q_i(0) = 0, over x and four y_i
    a, n = Fraction(2, 3), 5
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    power = lambda i, e: tuple(e * u for u in unit[i])
    c = ComplexRational
    tables = [{power(0, 2): c(1), unit[0]: c(-a)}]
    for i in range(1, n):
        tables.append({mono_mul(unit[0], unit[i]): c(1), unit[i]: c(-a)})
        tables.append({power(i, 4): c(1), power(i, 2): c(Fraction(3, 4)),
                       unit[i]: c(Fraction(-5, 3))})
    return tables


def test_assembly_retains_no_memory():
    tables = _assemble4_tables()
    names = ("x", "y1", "y2", "y3", "y4")

    def assemble():
        return StarPresentation.assemble("Multi", "star-algebra", names,
                                         range(5), tables)
    assert len(assemble().relations) == 9
    for _ in range(20):
        assemble()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            assemble()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024


# ---------------------------------------------------------------------------
# ring and involution laws
# ---------------------------------------------------------------------------

def test_ring_laws_random():
    rng = Random(23)
    for pres in (line(), disk(), nil()):
        one = pres.one()
        zero = pres.zero()
        for _ in range(60):
            a = rand_poly(pres, rng)
            b = rand_poly(pres, rng)
            c = rand_poly(pres, rng)
            lam = rand_scalar(rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a + zero == a
            assert a - a == zero
            assert a * one == a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * lam) * b == (a * b) * lam


def test_involution_laws_random():
    rng = Random(29)
    for pres in (line(), disk(), nil(), circle()):
        for _ in range(60):
            a = rand_poly(pres, rng)
            b = rand_poly(pres, rng)
            lam = rand_scalar(rng)
            assert a.involute().involute() == a
            assert (a * b).involute() == a.involute() * b.involute()
            assert (a + b).involute() == a.involute() + b.involute()
            assert (a * lam).involute() == a.involute() * lam.conjugate()


def test_involute_rejected_in_algebra_mode():
    p = plain()
    with pytest.raises(AlgebraError):
        p.gen("x").involute()


def test_generator_index_by_name_or_checked_int():
    pres = line()
    assert pres.generator_index("x") == pres.generator_index(0) == 0
    assert pres.gen(0) == pres.gen("x")
    for bad in (3, -1, 1, "y"):
        with pytest.raises(AlgebraError):
            pres.gen(bad)
    f = gl.identity_morphism(pres)
    assert f.image(0) == f.image("x") == pres.gen("x")
    char = gl.validate_character(pres, {"x": ComplexRational(2)})
    assert char.value(0) == char.value("x") == ComplexRational(2)
    for bad in (3, -1):
        with pytest.raises(AlgebraError):
            f.image(bad)
        with pytest.raises(AlgebraError):
            char.value(bad)


def test_power_terms_cap_checked_before_expansion():
    x, n = line().gen("x"), MAX_POWER_TERMS - 1
    # on one generator x^n reaches C(n + 1, 1) = n + 1 monomials
    assert x ** n == line().poly({(n,): ComplexRational(1)})
    with pytest.raises(UnsupportedError, match="exceeds the cap of"):
        x ** MAX_POWER_TERMS
    z = disk().gen("z") + disk().gen("adj(z)") + 1
    with pytest.raises(UnsupportedError, match=r"C\(3000\*1 \+ 2, 2\)"):
        z ** 3000
    # constants and zero never grow
    assert line().scalar(2) ** 5000 == 2 ** 5000
    assert line().zero() ** 5000 == 0


def test_poly_basics():
    pres = line()
    x = pres.gen("x")
    assert (x - x).is_zero()
    assert pres.zero().degree() == -1
    assert (x * x + x).degree() == 2
    assert (x + 1).constant_term() == ComplexRational(1)
    assert x.coeff((1,)) == ComplexRational(1)
    assert x ** 3 == x * x * x
    assert x + Fraction(1, 2) == x + ComplexRational(Fraction(1, 2))
    with pytest.raises(AlgebraError):
        x + disk().gen("z")


def test_star_poly_from_terms_is_brought_to_normal_form():
    one = ComplexRational(1)
    c = circle()
    z_adjz = gl.StarPoly(c, (((1, 1), one),))  # z*adj(z) = 1 on the circle
    assert z_adjz == c.one() and gl.format_poly(z_adjz) == "1"
    ascending = gl.StarPoly(line(), (((0,), one), ((1,), one)))
    assert ascending == line().gen("x") + 1
    assert ascending.degree() == 1 and gl.format_poly(ascending) == "x + 1"
    cancelled = gl.StarPoly(line(), (((2,), ComplexRational(0)),))
    assert cancelled.is_zero() and cancelled.degree() == -1


def test_star_poly_from_terms_sums_repeated_monomials():
    one = ComplexRational(1)
    x_plus_x = gl.StarPoly(line(), (((1,), one), ((1,), one)))
    assert x_plus_x == 2 * line().gen("x") and gl.format_poly(x_plus_x) == "2*x"
    assert gl.StarPoly(line(), (((1,), one), ((1,), -one))).is_zero()


# ---------------------------------------------------------------------------
# the free / underlying adjunction
# ---------------------------------------------------------------------------

def test_free_star_structure():
    f = gl.free_star(plain())
    assert f.is_star
    assert f.generators == ("x", "adj(x)")
    assert f.adjoint == (1, 0)
    assert f == disk()  # structural equality, names aside


def test_free_doubles_and_underlying_preserves():
    for text, n in (("algebra P ; generator x : free ;", 1),
                    ("algebra P ; generator x, y : free ;", 2),
                    ("algebra P ; generator x, y, w : free ;", 3)):
        p = plain(text)
        f = gl.free_star(p)
        assert len(f.generators) == 2 * n
        u = gl.underlying(f)
        assert len(u.generators) == 2 * n
        assert all(a is None for a in u.adjoint)


def test_underlying_matches_plain_pair():
    u = gl.underlying(disk())
    two = plain("algebra P ; generator z, w : free ;")
    assert u == two


def test_free_star_lifts_relations():
    p = gl.parse_presentation("algebra P ; generator x : free ; "
                              "relation x^2 ;", mode="algebra")
    f = gl.free_star(p)
    assert len(f.relations) == 2  # x^2 and its mirror adj(x)^2
    x = f.gen("x")
    ax = f.gen("adj(x)")
    assert (x * x).is_zero()
    assert (ax * ax).is_zero()


def test_reinterpret_round_trip():
    rng = Random(31)
    star = disk()
    under = gl.underlying(star)
    for _ in range(30):
        a = rand_poly(star, rng)
        b = gl.reinterpret(a, under)
        assert b.pres == under
        assert gl.reinterpret(b, star) == a


def test_extend_hom_round_trip_and_uniqueness():
    rng = Random(37)
    source = plain("algebra P ; generator x, y : free ;")
    target = disk()
    under = gl.underlying(target)
    for _ in range(25):
        f = rand_morphism(source, under, rng)
        lifted = gl.extend_hom(f, target)
        assert lifted.source == gl.free_star(source)
        assert lifted.target == target
        ok, _ = gl.is_star_hom(lifted)
        assert ok
        back = gl.restrict_hom(lifted, source)
        assert all(p == q for p, q in zip(back.images, f.images))
        # the lift is determined on partner generators by the involution
        free_src = gl.free_star(source)
        for i, g in enumerate(free_src.generators):
            j = free_src.partner(i)
            assert lifted.image(j) == lifted.image(i).involute()


def test_extend_hom_requires_underlying_target():
    f = rand_morphism(plain(), line(), Random(1))
    with pytest.raises(MorphismError):
        gl.extend_hom(f, disk())  # target's underlying has two generators


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def test_morphism_must_kill_relations():
    src = nil()
    with pytest.raises(MorphismError, match="relation"):
        Morphism.create(src, line(), {"x": line().gen("x")}, star=True)
    ok = Morphism.create(src, nil(), {"x": nil().gen("x")}, star=True)
    assert ok.image(0) == nil().gen("x")


def test_morphism_star_validation():
    d = disk()
    z, az = d.gen("z"), d.gen("adj(z)")
    with pytest.raises(MorphismError, match="compatible"):
        Morphism.create(d, d, {"z": z, "adj(z)": z}, star=True)
    f = Morphism.create(d, d, {"z": z, "adj(z)": z}, star=False)
    ok, witness = gl.is_star_hom(f)
    assert not ok and witness == "z"
    g = Morphism.create(d, d, {"z": az, "adj(z)": z}, star=True)
    assert gl.is_star_hom(g) == (True, None)


def test_morphism_apply_and_compose():
    rng = Random(41)
    d = disk()
    f = rand_morphism(d, d, rng)
    g = rand_morphism(d, d, rng)
    h = gl.compose(g, f)
    for _ in range(20):
        a = rand_poly(d, rng, max_degree=3)
        assert h(a) == g(f(a))
        assert f(a.involute()) == f(a).involute()
    ident = gl.identity_morphism(d)
    assert gl.compose(ident, f)(d.gen("z")) == f(d.gen("z"))
    with pytest.raises(AlgebraError):
        f(line().gen("x"))


# a *-presentation (target) and, for each generator of the source, a
# character value and an image; the source declares the same names as free
# generators, as a *-presentation or as a plain algebra
PARTNER_WORLDS = {
    "disk": ("algebra Disk ; generator z : free ;",
             {"z": (ComplexRational(Fraction(3, 5), Fraction(4, 5)), "z^2 + 1/2")}),
    "two-pairs": ("algebra S ; generator z, w : free ; relation z*adj(z) + w*adj(w) - 1 ;",
                  {"z": (ComplexRational(Fraction(3, 5)), "z*w + (0+1i)"),
                   "w": (ComplexRational(0, Fraction(4, 5)), "adj(z)^2 - 1/3*w")}),
}


def _and_partners(given: dict, adjoint) -> dict:
    return {**given, **{f"adj({g})": adjoint(v) for g, v in given.items()}}


def _partner_omitted_and_given(operation: str, world: str) -> list:
    text, data = PARTNER_WORLDS[world]
    target = gl.parse_presentation(text)
    source_text = f"algebra P ; generator {', '.join(data)} : free ;"
    star_source = gl.parse_presentation(source_text)
    plain_source = gl.parse_presentation(source_text, mode="algebra")
    values = {g: v for g, (v, _) in data.items()}
    images = {g: gl.parse_poly(img, target) for g, (_, img) in data.items()}
    conjugate = ComplexRational.conjugate
    if operation == "validate_character":
        return [gl.validate_character(target, v)
                for v in (values, _and_partners(values, conjugate))]
    if operation == "Morphism.create":
        return [Morphism.create(star_source, target, im, star=True).images
                for im in (images, _and_partners(images, gl.StarPoly.involute))]
    if operation == "parse_morphism":
        omitted = " ; ".join(f"{g} -> {img}" for g, (_, img) in data.items())
        given = omitted + "".join(f" ; adj({g}) -> adj({img})" for g, (_, img) in data.items())
        return [gl.parse_morphism(t, star_source, target).images for t in (omitted, given)]
    free = gl.free_star(plain_source)
    if operation == "extend_hom":
        under = gl.underlying(target)
        f = Morphism.create(plain_source, under,
                            {g: gl.reinterpret(p, under) for g, p in images.items()})
        given = _and_partners(images, gl.StarPoly.involute)
        return [gl.extend_hom(f, target).images,
                Morphism.create(free, target, given, star=True).images]
    p = gl.validate_character(plain_source, values)
    return [gl.extend_character_free(plain_source, p),
            gl.validate_character(free, _and_partners(values, conjugate))]


@pytest.mark.parametrize("world", sorted(PARTNER_WORLDS))
@pytest.mark.parametrize("operation", ["validate_character", "Morphism.create",
                                       "parse_morphism", "extend_hom",
                                       "extend_character_free"])
def test_an_omitted_partner_gets_the_value_the_involution_forces(operation, world):
    omitted, given = _partner_omitted_and_given(operation, world)
    assert omitted == given


def test_an_omitted_partner_image_is_missing_without_star():
    w, d = gl.parse_presentation("algebra W ; generator w : free ;"), disk()
    with pytest.raises(MorphismError, match="no image for generator 'adj\\(w\\)'"):
        Morphism.create(w, d, {"w": d.gen("z")}, star=False)


def test_underlying_morphism():
    rng = Random(43)
    f = rand_morphism(disk(), disk(), rng)
    uf = gl.underlying_morphism(f)
    assert not uf.source.is_star
    a = rand_poly(disk(), rng)
    assert uf(gl.reinterpret(a, uf.source)) == gl.reinterpret(f(a), uf.target)
