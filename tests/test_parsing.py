import string
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gelfand_lab as gl
from gelfand_lab import ComplexRational
from gelfand_lab.algebra import (normalize_table, raw_add_into, raw_involute,
                                 raw_mul, sort_terms)
from gelfand_lab.cli import (canonical_box, canonical_morphism,
                             canonical_presentation)
from gelfand_lab.errors import (AlgebraError, CharacterError, GelfandError,
                                 MorphismError, ParseError, StateError)
from gelfand_lab.parsing import MAX_LITERAL_DIGITS
from gelfand_lab.scalars import ONE

from helpers import (CIRCLE, DISK, LINE, NIL, SPHERE, circle, disk, line, nil,
                     plain, rand_morphism, rand_poly, sphere)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def test_presentation_happy_paths():
    p = gl.parse_presentation(
        "algebra Mixed ;\n"
        "generator x, y : selfadjoint ;\n"
        "generator z : free ;\n"
        "relation x^2 - 1 ;\n"
        "# a comment\n"
        "relation z*adj(z) - 1 ;\n")
    assert p.generators == ("x", "y", "z", "adj(z)")
    assert p.adjoint == (0, 1, 3, 2)
    assert len(p.relations) == 2


def test_presentation_diagnostics_carry_positions():
    with pytest.raises(ParseError) as exc:
        gl.parse_presentation("algebra A ;\ngenerator x selfadjoint ;")
    assert "2:" in str(exc.value)
    with pytest.raises(ParseError, match="reserved"):
        gl.parse_presentation("algebra A ; generator adj : free ;")
    with pytest.raises(ParseError, match="twice"):
        gl.parse_presentation(
            "algebra A ; generator x : free ; generator x : free ;")
    with pytest.raises(ParseError, match="selfadjoint"):
        gl.parse_presentation("algebra A ; generator x : selfadjoint ;",
                              mode="algebra")
    with pytest.raises(ParseError, match="terminating"):
        gl.parse_presentation(
            "algebra A ; generator x : selfadjoint ; relation x^2")
    with pytest.raises(ParseError):
        gl.parse_presentation("algebra A ; generator x : spooky ;")


def test_presentation_reports_its_first_error():
    # each generator group is checked as it is read, so a duplicate comes
    # before the junk after it
    with pytest.raises(ParseError, match="^1:44: generator 'x' declared twice"):
        gl.parse_presentation(
            "algebra A ; generator x : free ; generator x : free ; junk")


@pytest.mark.parametrize("parse, text, pres", [
    (gl.parse_character, "z = 1/2 junk", circle),
    (gl.parse_box, "x = [0, 1] junk", nil),
    (gl.parse_state, "state atomic { (x = 1) : 1/3 } trailing", line),
    (gl.parse_state, "state atomic { (x = 1) : 1 } trailing", nil),
    (gl.parse_state, 'state density "uniform" on [0, 1] order 100000 junk', line),
    (gl.parse_state, "state gaussian(q) junk", line),
], ids=["invalid-character", "box-over-relations", "weights", "invalid-atom",
        "order-past-cap", "unknown-gaussian-generator"])
def test_trailing_input_comes_before_any_check(parse, text, pres):
    # the value alone is rejected when it is built; read to its end first,
    # its text is a parse error at the trailing word
    column = text.rindex(" ") + 2
    with pytest.raises(ParseError, match=f"^1:{column}: unexpected trailing input"):
        parse(text, pres())


def test_trailing_input_comes_before_the_morphism_check():
    with pytest.raises(ParseError, match="^1:8: unexpected trailing input 'junk'"):
        gl.parse_morphism("z -> x junk", circle(), line())
    with pytest.raises(MorphismError, match="does not kill relation 0"):
        gl.parse_morphism("z -> x", circle(), line())


def test_adj_resolution_over_underlying_names():
    # after forgetting the involution, adj(x) is a generator NAME, and the
    # literal spelling must keep resolving to it
    u = gl.underlying(disk())
    assert u.generators == ("z", "adj(z)")
    p = gl.parse_poly("adj(z)^2", u)
    assert p.coeff((0, 2)) == ComplexRational(1)
    # semantic involution is unavailable without a pairing
    with pytest.raises(ParseError, match="involution"):
        gl.parse_poly("adj(z + 1)", u)


def test_adj_names_read_alike_in_every_role():
    # adj(z) is the partner in star mode and a literal generator name over
    # underlying(disk); both slots are index 1, so every role reads alike
    d = disk()
    u = gl.underlying(d)
    for text in ("adj(z)", "adj(z)^2*z - 3*adj(z) + (1+1i)", "z*adj(z)"):
        assert gl.parse_poly(text, d).terms == gl.parse_poly(text, u).terms
    text = "z = (1+2i) ; adj(z) = (1-2i)"
    assert gl.parse_character(text, d).values == \
        gl.parse_character(text, u).values
    box = "z = [0, 1] x [0, 2] ; adj(z) = [0, 3] x [-1, 0]"
    assert gl.parse_box(box, u).intervals == (
        (0, 1), (0, 2), (0, 3), (-1, 0))
    with pytest.raises(AlgebraError, match=r"non-axis generator 'adj\(z\)'"):
        gl.parse_box(box, d)  # in star mode the partner has no axes
    images = "adj(z) -> adj(z)^2 ; z -> z^2"
    assert [p.terms for p in gl.parse_morphism(images, d, d).images] == \
        [p.terms for p in gl.parse_morphism(images, u, u).images]
    rng = Random(5)
    for _ in range(50):
        p = rand_poly(u, rng, max_degree=4, max_terms=5)
        assert gl.parse_poly(gl.format_poly(p), u).terms == p.terms
    # adj(NAME) names a generator only when that name exists
    for bad in ("adj(x)", "adj(w)"):
        with pytest.raises(ParseError, match="unknown generator"):
            gl.parse_character(f"{bad} = 1", line())
    assert gl.parse_poly("adj(x)", line()) == line().gen("x")


def test_adj_chains_and_semantic_fallback():
    d = disk()
    assert gl.parse_poly("adj(adj(z))", d) == d.gen("z")
    assert gl.parse_poly("adj(z^2)", d) == d.gen("adj(z)") ** 2
    assert gl.parse_poly("adj(2*z + (0+1i))", d) == \
        d.gen("adj(z)") * 2 + ComplexRational(0, -1) + d.zero()


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_grammar():
    p = line()
    assert gl.parse_poly("-x + 2", p) == p.scalar(2) - p.gen("x")
    assert gl.parse_poly("+x", p) == p.gen("x")
    assert gl.parse_poly("(x + 1)*(x - 1)", p) == p.gen("x") ** 2 - 1
    assert gl.parse_poly("x^0", p) == p.one()
    assert gl.parse_poly("3/4", p) == p.scalar(Fraction(3, 4))
    assert gl.parse_poly("(1+2i)*x", p).coeff((1,)) == ComplexRational(1, 2)
    assert gl.parse_poly("(1/2-1/3i)", p).constant_term() == \
        ComplexRational(Fraction(1, 2), Fraction(-1, 3))


def test_poly_rejects_floats_and_junk():
    p = line()
    with pytest.raises(ParseError, match="floating point"):
        gl.parse_poly("0.5*x", p)
    with pytest.raises(ParseError, match="unknown generator"):
        gl.parse_poly("y + 1", p)
    with pytest.raises(ParseError):
        gl.parse_poly("x +", p)
    with pytest.raises(ParseError):
        gl.parse_poly("x ^ -2", p)
    with pytest.raises(ParseError, match="denominator"):
        gl.parse_poly("1/0", p)
    for opener in ("(", "adj("):
        with pytest.raises(ParseError, match="nests deeper than 100"):
            gl.parse_poly(opener * 101 + "x" + ")" * 101, p)
        assert gl.parse_poly(opener * 100 + "x" + ")" * 100, p) == p.gen("x")


def test_end_of_input_diagnostics():
    p = line()
    with pytest.raises(ParseError, match=r"1:11: unexpected end of input"):
        gl.parse_poly("x + # note", p)
    with pytest.raises(ParseError, match=r"2:1: unexpected end of input"):
        gl.parse_poly("x *  # note\n", p)
    with pytest.raises(ParseError, match="unexpected token ';' in polynomial"):
        gl.parse_poly("x + ;", p)


# ---------------------------------------------------------------------------
# numeric literals
# ---------------------------------------------------------------------------

def test_number_forms():
    m = gl.parse_presentation("algebra M ; generator x, y : selfadjoint ;")
    for text, value in (("2.5", Fraction(5, 2)), ("1e-3", Fraction(1, 1000)),
                        ("1.5E+2", Fraction(150)), ("-2e2", Fraction(-200)),
                        ("+3", Fraction(3)), ("007", Fraction(7))):
        c = gl.parse_character(f"x = {text} ; y = 0.5", m)
        assert c.value("x") == float(value)
    assert gl.parse_box("x = [-1.5e1, 3/4]", line()).intervals == \
        ((Fraction(-15), Fraction(3, 4)),)
    # "1." and a bare exponent letter end the number before them
    with pytest.raises(ParseError, match="unexpected character '.'"):
        gl.parse_character("x = 1.", line())
    with pytest.raises(ParseError, match="trailing input 'e'"):
        gl.parse_character("x = 1e", line())
    assert gl.parse_poly("x^007", line()) == line().gen("x") ** 7
    with pytest.raises(ParseError, match="exact rational"):
        gl.parse_state("state atomic { (x = 1) : 1.0 }", line())


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\u09ea", "\U0001d7d8"])
def test_unicode_digits_are_unexpected(digit):
    with pytest.raises(ParseError, match="unexpected character"):
        gl.parse_poly(f"x^{digit}", line())
    with pytest.raises(ParseError, match="unexpected character"):
        gl.parse_character(f"x = {digit}", line())


def test_literal_size_cap():
    cap = MAX_LITERAL_DIGITS
    p = line()
    assert gl.parse_poly("7" * cap, p) == p.scalar(int("7" * cap))
    assert gl.parse_box(f"x = [0, 1e{cap - 1}]", p).intervals == \
        ((0, 10 ** (cap - 1)),)
    for text in ("7" * (cap + 1), f"1e{cap}", f"1.5e-{cap - 1}", "1e99999999999",
                 "1e" + "0" * cap + "1"):
        with pytest.raises(ParseError, match="too long: its digits plus exponent"):
            gl.parse_box(f"x = [0, {text}]", p)
    with pytest.raises(ParseError, match=r"1:7: numeric literal '7{20}\.\.\.7{10}'"):
        gl.parse_poly("x + 1/" + "7" * (cap + 1), p)
    # backtracking out of a complex literal keeps the size error
    with pytest.raises(ParseError, match="'1e99999' is too long"):
        gl.parse_character("x = (1e99999)", p)
    with pytest.raises(ParseError, match="'1e99999' is too long"):
        gl.parse_poly("(1 + 1e99999i) * x", disk())


FUZZ_ALPHABET = string.printable + "\u00b2\u0663\u09ea\u00bd\U0001d7d8"
fuzz_pieces = st.one_of(
    st.sampled_from(["x", "z", "adj(z)", "=", ";", ",", "[", "]", "x [",
                     "(", ")", "+", "-", "/", "i", " ", "char", "{", "}", "box"]),
    st.text(FUZZ_ALPHABET, max_size=4),
    st.text("0123456789", min_size=1, max_size=8),
    st.integers(MAX_LITERAL_DIGITS - 5, MAX_LITERAL_DIGITS + 5).map(lambda k: "9" * k),
    st.builds("{}{}e{}{}".format, st.integers(0, 99), st.sampled_from(["", ".5"]),
              st.sampled_from(["", "+", "-"]), st.integers(0, 10 ** 15)),
)
fuzz_texts = st.lists(fuzz_pieces, max_size=12).map("".join)


@settings(max_examples=300)
@given(st.sampled_from([gl.parse_character, gl.parse_box]),
       st.sampled_from([line, disk]),
       st.one_of(fuzz_texts, fuzz_texts.map("x = {}".format),
                 fuzz_texts.map("z = ({})".format),
                 st.tuples(fuzz_texts, fuzz_texts).map("x = [{0[0]}, {0[1]}]".format)))
def test_arbitrary_text_fails_cleanly_and_fast(parse, make_pres, text):
    pres = make_pres()
    start = time.perf_counter()
    try:
        parse(text, pres)
    except GelfandError:
        pass
    assert time.perf_counter() - start < 2.0


def test_round_trip_500_random():
    rng = Random(97)
    presentations = [line(), disk(),
                     plain("algebra P ; generator u, v : free ;")]
    for k in range(500):
        pres = presentations[k % len(presentations)]
        p = rand_poly(pres, rng, max_degree=5, max_terms=6)
        text = gl.format_poly(p)
        q = gl.parse_poly(text, pres)
        assert q.terms == p.terms, text


def test_format_edge_cases():
    p = line()
    assert gl.format_poly(p.zero()) == "0"
    assert gl.format_poly(p.scalar(Fraction(-3, 2))) == "-3/2"
    assert gl.format_poly(-p.gen("x")) == "-x"
    assert gl.format_poly(p.gen("x") * ComplexRational(0, 2)) == "(0+2i)*x"
    assert gl.format_poly(p.one() - p.gen("x")) == "-x + 1"


# ---------------------------------------------------------------------------
# expression trees against a raw-table reference
# ---------------------------------------------------------------------------
# A tree is ("gen", name), ("lit", scalar), ("neg"|"adj", t), ("pow", t, k) or
# ("add"|"sub"|"mul", t, u).  The reference expands it with raw table
# arithmetic and normalizes once; the parser normalizes every intermediate.

tree_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def tree_degree(t) -> int:
    kind = t[0]
    if kind == "gen":
        return 1
    if kind == "lit":
        return 0
    if kind == "pow":
        return t[2] * tree_degree(t[1])
    if kind == "mul":
        return tree_degree(t[1]) + tree_degree(t[2])
    return max(tree_degree(u) for u in t[1:])


def expr_trees(pres, max_degree=8):
    leaves = st.one_of(
        st.sampled_from(pres.generators).map(lambda g: ("gen", g)),
        st.builds(ComplexRational, tree_fractions, tree_fractions)
        .map(lambda c: ("lit", c)),
    )

    def extend(children):
        ops = [st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
               st.tuples(st.just("pow"), children, st.integers(0, 4)),
               st.tuples(st.just("neg"), children)]
        if pres.is_star:
            ops.append(st.tuples(st.just("adj"), children))
        return st.one_of(ops)

    return st.recursive(leaves, extend, max_leaves=6).filter(
        lambda t: tree_degree(t) <= max_degree)


def render(t) -> str:
    kind = t[0]
    if kind == "gen":
        return t[1]
    if kind == "lit":
        c = t[1]
        if not c.is_real():
            return c.literal()
        return str(c.re) if c.re >= 0 else f"({c.re})"
    if kind == "neg":
        return f"(-{render(t[1])})"
    if kind == "adj":
        return f"adj({render(t[1])})"
    if kind == "pow":
        return f"({render(t[1])})^{t[2]}"
    if kind == "mul":
        return f"{render(t[1])}*{render(t[2])}"
    op = " + " if kind == "add" else " - "
    return f"({render(t[1])}{op}{render(t[2])})"


def reference_table(t, pres):
    unit = (0,) * len(pres.generators)
    kind = t[0]
    if kind == "gen":
        i = pres.generators.index(t[1])
        return {tuple(int(j == i) for j in range(len(unit))): ONE}
    if kind == "lit":
        return {} if t[1].is_zero() else {unit: t[1]}
    a = reference_table(t[1], pres)
    if kind == "neg":
        return {m: -c for m, c in a.items()}
    if kind == "adj":
        return raw_involute(pres.adjoint, a)
    if kind == "pow":
        out = {unit: ONE}
        for _ in range(t[2]):
            out = raw_mul(out, a)
        return out
    b = reference_table(t[2], pres)
    if kind == "mul":
        return raw_mul(a, b)
    raw_add_into(a, b.items(), scale=ONE if kind == "add" else -ONE)
    return a


TREE_PRESENTATIONS = {"circle": circle, "sphere": sphere, "nil": nil, "disk": disk}


@st.composite
def parsed_cases(draw):
    pres = TREE_PRESENTATIONS[draw(st.sampled_from(sorted(TREE_PRESENTATIONS)))]()
    return pres, draw(expr_trees(pres))


@given(parsed_cases())
def test_parse_poly_matches_raw_reference(case):
    pres, tree = case
    text = render(tree)
    expected, _ = normalize_table(pres.rules(), reference_table(tree, pres))
    p = gl.parse_poly(text, pres)
    assert p.terms == expected, text
    assert gl.parse_poly(gl.format_poly(p), pres) == p


RELATION_FREE = {
    "disk": (DISK, "star-algebra"),
    "plane": ("algebra Plane ; generator x, y : selfadjoint ;", "star-algebra"),
    "plain": ("algebra P ; generator u, v : free ;", "algebra"),
}


@st.composite
def relation_cases(draw):
    text, mode = RELATION_FREE[draw(st.sampled_from(sorted(RELATION_FREE)))]
    free = gl.parse_presentation(text, mode)
    tree = draw(expr_trees(free, max_degree=4))
    if free.is_star:
        tree = ("add", tree, ("adj", tree))  # self-adjoint, so star-closed
    return text, free, tree


@given(relation_cases())
def test_parse_relation_matches_raw_reference(case):
    text, free, tree = case
    pres = gl.parse_presentation(f"{text} relation {render(tree)} ;", free.mode)
    expected = sort_terms(reference_table(tree, free))
    assert pres.relations == ((expected,) if expected else ())
    again = gl.parse_presentation(canonical_presentation(pres), pres.mode)
    assert again == pres and again.generators == pres.generators


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_character_forms():
    p = line()
    for text in ("x = 2", "char x = 2", "char { x = 2 }", "{ x = 2 }"):
        c = gl.parse_character(text, p)
        assert c.value("x") == ComplexRational(2)
        assert c.exact
    c = gl.parse_character("x = 2.5", p)
    assert not c.exact
    assert c.value("x") == 2.5


def test_character_partner_autofill_and_mixed():
    d = disk()
    c = gl.parse_character("z = (1+2i)", d)
    assert c.value("adj(z)") == ComplexRational(1, -2)
    c2 = gl.parse_character("adj(z) = (0+1i)", d)
    assert c2.value("z") == ComplexRational(0, -1)
    # one exact, one float entry: the whole assignment degrades to floats
    m = gl.parse_presentation(
        "algebra M ; generator x, y : selfadjoint ;")
    c3 = gl.parse_character("x = 1 ; y = 0.5", m)
    assert not c3.exact
    big = "1" + "0" * 400
    with pytest.raises(ParseError, match=f"'{big}' is too large"):
        gl.parse_character(f"x = {big} ; y = 0.5", m)
    with pytest.raises(ParseError, match=f"'{big}' is too large"):
        gl.parse_state(f"state atomic {{ (x = 1 ; y = 1/2) : 1/2 ; "
                       f"(x = {big} ; y = 0.5) : 1/2 }}", m)
    assert gl.parse_character(f"x = {big} ; y = 1/2", m).exact


def test_character_validation_errors():
    with pytest.raises(CharacterError) as exc:
        gl.parse_character("x = (0+1i)", line())
    assert exc.value.violation == "reality"
    d = disk()
    with pytest.raises(CharacterError) as exc:
        gl.parse_character("z = (1+0i) ; adj(z) = (2+0i)", d)
    assert exc.value.violation == "conjugacy"
    with pytest.raises(CharacterError) as exc:
        gl.parse_character("x = 1", nil())
    assert exc.value.violation == "relation"
    with pytest.raises(ParseError):
        gl.parse_character("q = 1", line())
    with pytest.raises(ParseError, match="twice"):
        gl.parse_character("x = 1 ; x = 2", line())
    with pytest.raises(ParseError, match="'-1e400' is too large"):
        gl.parse_character("x = -1e400", line())
    with pytest.raises(ParseError, match=r"'\(2e308\+1i\)' is too large"):
        gl.parse_character("z = (2e308+1i)", disk())


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def test_box_parse():
    b = gl.parse_box("x = [0, 1]", line())
    assert b.intervals == ((Fraction(0), Fraction(1)),)
    d = gl.parse_box("box { z = [-1, 1] x [0, 1/2] }", disk())
    assert d.intervals == ((Fraction(-1), Fraction(1)),
                           (Fraction(0), Fraction(1, 2)))
    with pytest.raises(ParseError, match="out of order"):
        gl.parse_box("x = [1, 0]", line())
    with pytest.raises(ParseError, match="twice"):
        gl.parse_box("x = [0, 1] ; x = [0, 2]", line())


def test_interval_lists_in_boxes_and_densities():
    pair = gl.parse_presentation(
        "algebra P ; generator z, w : free ; generator x : selfadjoint ;")
    b = gl.parse_box("box { z = [-1, 1] x [0, 1/2] ; x = [2, 3] ; "
                     "w = [0, 0.5]x[-2, -1] }", pair)
    assert b.intervals == ((-1, 1), (0, Fraction(1, 2)), (0, Fraction(1, 2)),
                           (-2, -1), (2, 3))
    with pytest.raises(ParseError, match="out of order"):
        gl.parse_box("z = [0, 1] x [1, 0] ; w = [0, 1] x [0, 1] ; x = [0, 1]",
                     pair)
    with pytest.raises(ParseError, match="trailing input 'x'"):
        gl.parse_box("x = [0, 1] x", line())
    with pytest.raises(AlgebraError, match="needs 2 interval"):
        gl.parse_box("z = [0, 1] ; w = [0, 1] x [0, 1] ; x = [0, 1]", pair)
    text = 'state density "uniform" on [-1, 1] x [0, 1/2] order 3'
    q = gl.parse_state(text, disk())
    assert q.source == text
    with pytest.raises(ParseError, match="out of order"):
        gl.parse_state('state density "uniform" on [0, 1] x [1, 0] order 3',
                       disk())


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_state_parse_atomic():
    s = gl.parse_state("state atomic { (x = 1) : 1/2 ; (x = -1) : 1/2 }",
                       line())
    assert s.kind == "atomic" and s.exact
    with pytest.raises(StateError, match="sum"):
        gl.parse_state("state atomic { (x = 1) : 1/3 }", line())
    with pytest.raises(CharacterError):
        gl.parse_state("state atomic { (x = 1) : 1 }", nil())


def test_state_parse_gaussian_and_density():
    for text in ("gaussian", " state gaussian ", "gaussian(x)"):
        s = gl.parse_state(text, line())
        assert s.kind == "analytic" and s.densely_defined
        assert s.source == "state gaussian(x)"
    with pytest.raises(ParseError, match="trailing"):
        gl.parse_state("gaussian x", line())
    s2 = gl.parse_state("state gaussian(x)", line())
    assert s2.source == "state gaussian(x)"
    q = gl.parse_state('state density "uniform" on [0, 2] order 6', line())
    assert q.kind == "quadrature"
    assert q.source == 'state density "uniform" on [0, 2] order 6'
    with pytest.raises(StateError, match="catalog"):
        gl.parse_state('state density "cauchy" on [0, 1] order 4', line())
    with pytest.raises(ParseError, match="state kind"):
        gl.parse_state("state magic { }", line())


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def test_morphism_parse():
    d = disk()
    f = gl.parse_morphism("z -> z^2", d, d)
    assert f.image(0) == d.gen("z") ** 2
    # the partner image was filled in by the involution
    assert f.image(1) == d.gen("adj(z)") ** 2
    ok, _ = gl.is_star_hom(f)
    assert ok
    g = gl.parse_morphism("x -> z*adj(z)", line(), d)
    assert g.image(0) == d.gen("z") * d.gen("adj(z)")
    with pytest.raises(ParseError, match="unknown source generator"):
        gl.parse_morphism("w -> z", d, d)
    with pytest.raises(ParseError, match="twice"):
        gl.parse_morphism("z -> z ; z -> z^2", d, d)


# ---------------------------------------------------------------------------
# key op value lists: one separator rule, one duplicate-key error
# ---------------------------------------------------------------------------

def _cube():
    return gl.parse_presentation("algebra P ; generator x, y, z : selfadjoint ;")


# each form: its parse, its presentation, a ";" spelling, and a repeated key
# with the line:column of its repeat
ENTRY_FORMS = {
    "character": (gl.parse_character, sphere, "x = 3/5 ; y = 4/5 ; z = 0",
                  "x = 1 ; y = 0 ; x = 0", "1:17"),
    "support-point": (lambda t, p: gl.parse_state(t, p).source, sphere,
                      "state atomic { (x = 0 ; y = 3/5 ; z = 4/5) : 1/2 ; "
                      "(x = 0 ; y = 0 ; z = -1) : 1/2 }",
                      "state atomic { (x = 1 ; x = 0) : 1 }", "1:25"),
    "box": (lambda t, p: gl.parse_box(t, p).intervals, _cube,
            "x = [-1, 1] ; y = [0, 1/2] ; z = [0.5, 1]",
            "x = [0, 1] ;\n  y = [0, 1] ; x = [0, 2]", "2:16"),
    "map": (lambda t, p: gl.parse_morphism(t, p, p).images, _cube,
            "x -> x*y + z ; y -> 1/2 ; z -> adj(z)",
            "x -> y ; y -> x ; z -> z ; x -> 1", "1:28"),
}


@pytest.mark.parametrize("form", sorted(ENTRY_FORMS))
def test_entry_lists_take_either_separator(form):
    parse, pres, semicolons, _, _ = ENTRY_FORMS[form]
    commas = semicolons.replace(" ; y", " , y").replace(" ; z", " , z")
    assert commas.count(",") > semicolons.count(",")
    assert parse(commas, pres()) == parse(semicolons, pres())


@pytest.mark.parametrize("form", sorted(ENTRY_FORMS))
def test_a_repeated_key_is_reported_at_the_key(form):
    parse, pres, _, text, where = ENTRY_FORMS[form]
    role = "source generator" if form == "map" else "generator"
    with pytest.raises(ParseError, match=f"^{where}: {role} 'x' given twice$"):
        parse(text, pres())


def test_format_value_and_character():
    assert gl.format_value(ComplexRational(Fraction(1, 2))) == "1/2"
    assert gl.format_value(complex(0.5, 0)) == "0.5"
    assert gl.format_value(complex(1.5, -2.5)) == "(1.5-2.5i)"
    c = gl.parse_character("x = 3", line())
    assert gl.format_character(c) == "char { x = 3 }"


# ---------------------------------------------------------------------------
# canonical echoes re-parse to the same object
# ---------------------------------------------------------------------------

ECHO_PRESENTATIONS = {"line": line, "disk": disk, "plain": plain}
echo_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)
echo_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def echo_points(draw, pres, exact):
    """One support point: exact rationals or floats, real where required."""
    number = echo_fractions if exact else echo_floats
    make = ComplexRational if exact else complex
    point = {}
    for i, g in enumerate(pres.generators):
        a = pres.adjoint[i]
        if a is not None and a < i:
            continue  # the partner value is forced
        im = draw(number) if a != i else 0
        point[g] = make(draw(number), im)
    return point


@st.composite
def echo_characters(draw):
    pres = ECHO_PRESENTATIONS[draw(st.sampled_from(sorted(ECHO_PRESENTATIONS)))]()
    point = draw(echo_points(pres, draw(st.booleans())))
    return gl.validate_character(pres, point)


@st.composite
def echo_boxes(draw, star_only=False, proper=False):
    names = ["line", "disk"] if star_only else sorted(ECHO_PRESENTATIONS)
    pres = ECHO_PRESENTATIONS[draw(st.sampled_from(names))]()
    intervals = []
    for _ in range(sum(n for _, n in gl.axis_layout(pres))):
        lo = draw(echo_fractions)
        width = draw(st.fractions(min_value=Fraction(1, 12) if proper else 0,
                                  max_value=4, max_denominator=12))
        intervals.append((lo, lo + width))
    return gl.CompactBox.from_intervals(pres, intervals)


@st.composite
def echo_states(draw):
    kind = draw(st.sampled_from(["atomic", "density", "gaussian"]))
    if kind == "gaussian":
        return gl.gaussian_state(line())
    if kind == "density":
        box = draw(echo_boxes(star_only=True, proper=True))
        return gl.quadrature_state(box.pres, box, "uniform", draw(st.integers(1, 4)))
    pres = disk() if draw(st.booleans()) else line()
    exact = draw(st.booleans())
    points = draw(st.lists(echo_points(pres, exact), min_size=1, max_size=4))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    return gl.atomic_state(pres, [(p, Fraction(w, sum(raw)))
                                  for p, w in zip(points, raw)])


@pytest.mark.parametrize("text,mode", [
    (LINE, "star-algebra"), (CIRCLE, "star-algebra"), (NIL, "star-algebra"),
    (SPHERE, "star-algebra"), ("algebra P ; generator u, v : free ; "
                               "relation u^2*v - 1/2 ;", "algebra"),
])
def test_canonical_presentation_round_trips(text, mode):
    pres = gl.parse_presentation(text, mode)
    again = gl.parse_presentation(canonical_presentation(pres), mode)
    assert again == pres and again.generators == pres.generators


# rand_morphism gives *-morphisms only out of free pairs
MORPHISM_PAIRS = [(disk, sphere), (disk, circle), (disk, nil), (line, plain),
                  (plain, disk), (plain, plain)]


@given(st.sampled_from(MORPHISM_PAIRS), st.integers(0, 10**6))
def test_canonical_morphism_round_trips(pair, seed):
    source, target = pair[0](), pair[1]()
    f = rand_morphism(source, target, Random(seed))
    g = gl.parse_morphism(canonical_morphism(f), source, target)
    assert g.images == f.images and g.star == f.star


@given(echo_characters())
def test_format_character_round_trips(char):
    again = gl.parse_character(gl.format_character(char), char.pres)
    assert again == char


@given(echo_boxes())
def test_canonical_box_round_trips(box):
    assert gl.parse_box(canonical_box(box), box.pres) == box


@settings(max_examples=40)
@given(echo_states())
def test_state_source_round_trips(state):
    again = gl.parse_state(state.source, state.pres)
    assert again.source == state.source
    assert (again.kind, again.exact) == (state.kind, state.exact)
    gram, gram_again = gl.gram_matrix(state, 2).gram, gl.gram_matrix(again, 2).gram
    if state.exact:
        assert gram_again == gram
    else:
        assert np.array_equal(gram_again, gram)
