"""Concrete syntax: presentations, polynomials, characters, boxes, states.

One tokenizer and one recursive-descent parser cover every textual input the
package accepts.  Diagnostics carry 1-based line:column positions.  An input
is read to its end before a character is validated or a box, state or
morphism is built from what was read.  It reads the canonical spelling
that ``algebra.format_poly`` writes (descending graded-lex terms, explicit
coefficients, parenthesized complex literals), so
``parse_poly(format_poly(p)) == p`` holds exactly for every element.

Grammar sketch::

    presentation := "algebra" IDENT ";" { genDecl | relDecl }
    genDecl      := "generator" IDENT { "," IDENT } ":" ("selfadjoint" | "free") ";"
    relDecl      := "relation" polyExpr ";"
    polyExpr     := [ "+" | "-" ] term { ("+" | "-") term }
    term         := factor { "*" factor }
    factor       := atom [ "^" NAT ]
    atom         := genRef | "adj" "(" polyExpr ")" | RAT | complexLit | "(" polyExpr ")"
    genRef       := IDENT | "adj" "(" IDENT ")"
    complexLit   := "(" NUM [ ("+" | "-") ( RAT | FLOAT ) "i" ] ")"
    entries(op, item) := [ genRef op item { sep genRef op item } [ sep ] ]
    sep          := ";" | ","
    character    := [ "char" ] ( "{" assignment "}" | assignment )
    assignment   := entries("=", value)                 (at least one entry)
    box          := [ "box" ] ( "{" boxEntries "}" | boxEntries )
    boxEntries   := entries("=", intervals)
    map          := entries("->", polyExpr)
    atomicState  := [ "state" ] "atomic" "{" [ atom { ";" atom } [ ";" ] ] "}"
    atom         := "(" assignment ")" ":" NUM
    value        := complexLit | NUM
    intervals    := interval { "x" interval }
    interval     := "[" NUM "," NUM "]"
    NUM          := [ "+" | "-" ] ( RAT | FLOAT )
    RAT          := NAT [ "/" NAT ]
    NAT          := ASCII digits [0-9]+
    FLOAT        := NAT "." NAT [ EXP ] | NAT EXP       EXP := ("e" | "E") [ "+" | "-" ] NAT

A genRef names one generator: ``adj(z)`` is the partner that a free
generator ``z`` brings along, or a generator literally called ``adj(z)``
(the ``free`` and ``underlying`` functors make such names).  In an atom,
``adj(IDENT)`` is a genRef only when ``adj(IDENT)`` is a generator; every
other ``adj(...)`` is the involution of the nested expression.  One
reader, ``Parser.entries``, reads every entries list: its keys are genRefs,
each given once, and the intervals rule is shared by box entries and
``state density ... on``.

Comments run from ``#`` to end of line.  Whether the presentation is a plain
algebra or a *-algebra is a parse-time flag, not part of the text; the header
keyword is always ``algebra``.  Floating point literals are rejected inside
polynomials, relations and state weights but accepted in character values,
support points and interval bounds, where numeric data is expected.  Every
number token converts once, in the tokenizer, to its exact value; a literal
whose digits plus exponent magnitude exceed the interpreter's int(str) digit
limit (MAX_LITERAL_DIGITS when it sets none) is an error.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, TypeVar, Union

from . import algebra, spectrum, states
# the polynomial spelling lives in algebra; it is re-exported here
from .algebra import (MODE_ALGEBRA, MODE_STAR, RawTable, StarPoly, StarPresentation,
                      format_monomial, format_poly, format_terms)
from .errors import AlgebraError, ParseError
from .scalars import ComplexRational

Value = Union[ComplexRational, complex]
T = TypeVar("T")

_PUNCT = set(";,:^*+-()={}[]/")
_NUMBER = re.compile(r"([0-9]+)(?:\.([0-9]+))?(?:[eE]([+-]?[0-9]+))?")
_STRING = re.compile(r'"[^"\n]*"')

# A literal's digits plus its exponent magnitude, and so the size of its
# exact value, are capped by the interpreter's int(str) digit limit, read at
# tokenize time.  This default stands in where the interpreter has none.
MAX_LITERAL_DIGITS = 4300

# Each level of ( ) or adj( ) costs about five interpreter frames; this
# keeps deep input far from the recursion limit.
MAX_NESTING = 100


# ── tokens ───────────────────────────────────────────────────────────────

class Token(NamedTuple):
    kind: str  # ident | nat | float | string | punct | eof
    text: str
    line: int
    col: int
    value: int | Fraction | None = None  # exact value of a nat or float token


def number_token(number: re.Match, line: int, col: int) -> Token:
    """The nat or float token of a _NUMBER match, with its exact value.

    A literal whose digits plus exponent magnitude exceed the interpreter's
    int(str) digit limit (MAX_LITERAL_DIGITS when it sets none) is a
    ParseError, so no literal builds an unbounded power of ten.  A NAT's
    value is an int, a FLOAT's the Fraction of its text (2.5 -> 5/2).
    """
    text = number.group()
    whole, fraction, exponent = number.groups()
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)() or MAX_LITERAL_DIGITS
    # testing the length first keeps int(exponent) within int()'s own cap
    if len(text) > cap or (len(whole) + len(fraction or "")
                           + abs(int(exponent or 0)) > cap):
        shown = text if len(text) <= 40 else f"{text[:20]}...{text[-10:]}"
        raise ParseError(f"numeric literal {shown!r} is too long: its digits plus "
                         f"exponent exceed {cap}", line, col)
    if fraction is None and exponent is None:
        return Token("nat", text, line, col, int(text))
    return Token("float", text, line, col, Fraction(text))


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1  # end of the lexeme at i
        if ch == "\n":
            line, col, i = line + 1, 1, j
            continue
        if ch in " \t\r":
            pass
        elif ch == "#":
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif ch == "-" and text.startswith(">", j):
            j += 1
            tokens.append(Token("punct", "->", line, col))
        elif ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
        elif ch == '"':
            if not (string := _STRING.match(text, i)):
                raise ParseError("unterminated string literal", line, col)
            j = string.end()
            tokens.append(Token("string", text[i + 1:j - 1], line, col))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
        elif number := _NUMBER.match(text, i):
            j = number.end()
            tokens.append(number_token(number, line, col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        col += j - i
        i = j
    tokens.append(Token("eof", "", line, col))
    return tokens


# ── parser ───────────────────────────────────────────────────────────────

class Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # token access

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and (text is None or tok.text == text)

    def at_word(self, word: str) -> bool:
        return self.at("ident", word)

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            tok = self.peek()
            want = text if text is not None else kind
            got = tok.text if tok.kind != "eof" else "end of input"
            self.error(f"expected {want!r}, found {got!r}", tok)
        return self.advance()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.advance()
        return None

    def error(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_done(self) -> None:
        if not self.at("eof"):
            self.error(f"unexpected trailing input {self.peek().text!r}")

    # ── presentations ────────────────────────────────────────────────

    def presentation(self, mode: str) -> StarPresentation:
        if mode not in (MODE_ALGEBRA, MODE_STAR):
            raise ParseError(f"unknown presentation mode {mode!r}")
        self.expect("ident", "algebra")
        name = self.expect("ident").text
        self.expect("punct", ";")

        adjoint: dict[str, int | None] = {}  # generator name -> partner index
        relation_spans: list[tuple[int, int]] = []
        while not self.at("eof"):
            if self.at_word("generator"):
                self.advance()
                group: list[Token] = [self.expect("ident")]
                while self.accept("punct", ","):
                    group.append(self.expect("ident"))
                self.expect("punct", ":")
                kind_tok = self.expect("ident")
                if kind_tok.text not in ("selfadjoint", "free"):
                    self.error("generator kind must be 'selfadjoint' or 'free'",
                               kind_tok)
                if kind_tok.text == "selfadjoint" and mode == MODE_ALGEBRA:
                    self.error("'selfadjoint' needs star-algebra mode; a plain "
                               "algebra has no involution", kind_tok)
                self.expect("punct", ";")
                for tok in group:
                    gname, base = tok.text, len(adjoint)
                    if gname in adjoint:
                        self.error(f"generator {gname!r} declared twice", tok)
                    if gname == "adj":
                        self.error("'adj' is reserved for the involution", tok)
                    if mode == MODE_ALGEBRA:
                        adjoint[gname] = None
                    elif kind_tok.text == "selfadjoint":
                        adjoint[gname] = base
                    else:
                        adjoint[gname] = base + 1
                        adjoint[f"adj({gname})"] = base
            elif self.at_word("relation"):
                self.advance()
                start = self.pos
                while not self.at("punct", ";") and not self.at("eof"):
                    self.advance()
                if self.at("eof"):
                    self.error("relation is missing its terminating ';'")
                relation_spans.append((start, self.pos))
                self.advance()
            else:
                self.error("expected 'generator' or 'relation'")

        # relations are read as elements of the relation-free presentation
        names, partners = list(adjoint), list(adjoint.values())
        free = StarPresentation.assemble(name, mode, names, partners, [])
        tables: list[RawTable] = []
        for start, end in relation_spans:
            sub = Parser(self.tokens[start:end] + [self.tokens[-1]])
            relation = sub.poly(free)
            sub.expect_done()
            tables.append(relation.as_table())

        return StarPresentation.assemble(name, mode, names, partners, tables)

    # ── polynomial expressions ───────────────────────────────────────

    def poly(self, pres: StarPresentation) -> StarPoly:
        negate = bool(self.accept("punct", "-"))
        if not negate:
            self.accept("punct", "+")
        value = self.term(pres)
        if negate:
            value = -value
        while self.at("punct", "+") or self.at("punct", "-"):
            op = self.advance().text
            rhs = self.term(pres)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self, pres: StarPresentation) -> StarPoly:
        value = self.factor(pres)
        while self.accept("punct", "*"):
            value = value * self.factor(pres)
        return value

    def factor(self, pres: StarPresentation) -> StarPoly:
        base = self.atom(pres)
        if self.accept("punct", "^"):
            return base ** self.nat()
        return base

    def atom(self, pres: StarPresentation) -> StarPoly:
        tok = self.peek()
        if tok.kind == "ident":
            # adj( is a genRef only as adj(NAME) naming a generator
            if tok.text == "adj" and self.at("punct", "(", 1) and not (
                    self.at("ident", ahead=2) and self.at("punct", ")", 3)
                    and f"adj({self.peek(2).text})" in pres.generators):
                self.advance()
                self.advance()
                inner = self.nested_poly(pres, tok)
                if not pres.is_star:
                    self.error("adj(...) needs an involution; this is a plain "
                               "algebra presentation", tok)
                return inner.involute()
            return pres.gen(self.gen_ref(pres.generators))
        if tok.kind == "nat":
            return pres.scalar(self.rat())
        lit = self.complex_lit()  # read with floats, then rejected if inexact
        float_tok = tok if tok.kind == "float" else lit and lit[1]
        if float_tok:
            self.error("floating point literals are not allowed in "
                       "polynomial input", float_tok)
        if lit:
            return pres.scalar(lit[0])
        if self.accept("punct", "("):
            return self.nested_poly(pres, tok)
        got = "end of input" if tok.kind == "eof" else f"token {tok.text!r}"
        self.error(f"unexpected {got} in polynomial", tok)
        raise AssertionError  # unreachable

    def nested_poly(self, pres: StarPresentation, opener: Token) -> StarPoly:
        """The polynomial after an opening "(" and its closing ")"."""
        if self.depth >= MAX_NESTING:
            self.error(f"expression nests deeper than {MAX_NESTING} levels", opener)
        self.depth += 1
        value = self.poly(pres)
        self.depth -= 1
        self.expect("punct", ")")
        return value

    def gen_ref(self, names: tuple[str, ...], role: str = "generator") -> str:
        """genRef: a generator name, spelled ``adj(NAME)`` for a partner."""
        tok = self.expect("ident")
        name = tok.text
        if name == "adj" and self.accept("punct", "("):
            name = f"adj({self.expect('ident').text})"
            self.expect("punct", ")")
        if name not in names:
            self.error(f"unknown {role} {name!r}", tok)
        return name

    # ── numeric literals ─────────────────────────────────────────────

    def nat(self) -> int:
        """NAT: exponents, quadrature orders and the parts of a RAT."""
        return self.expect("nat").value

    def rat(self) -> Fraction:
        """RAT: p or p/q, q nonzero."""
        value = Fraction(self.nat())
        if self.accept("punct", "/"):
            den_tok = self.peek()
            den = self.nat()
            if den == 0:
                self.error("zero denominator", den_tok)
            value /= den
        return value

    def num(self) -> tuple[Fraction, Token | None]:
        """NUM: the exact value, and its FLOAT token if it was written as one.

        A decimal float converts exactly (2.5 -> 5/2), but it marks the
        surrounding datum as floating point.
        """
        sign_tok = self.accept("punct", "-") or self.accept("punct", "+")
        sign = -1 if sign_tok and sign_tok.text == "-" else 1
        if self.at("float"):
            tok = self.advance()
            return sign * tok.value, tok
        return sign * self.rat(), None

    def complex_lit(self) -> tuple[ComplexRational, Token | None] | None:
        """complexLit with backtracking: None, with the position unmoved,
        when the text at "(" is not one."""
        if not self.at("punct", "("):
            return None
        save = self.pos
        try:
            self.advance()
            re, re_float = self.num()
            im, im_float = Fraction(0), None
            if self.at("punct", "+") or self.at("punct", "-"):
                im, im_float = self.num()
                self.expect("ident", "i")
            self.expect("punct", ")")
        except ParseError:
            self.pos = save
            return None
        return ComplexRational(re, im), re_float or im_float

    def scalar_value(self) -> tuple[ComplexRational, Token | None, slice]:
        """value: a complexLit or a NUM, with its first FLOAT token, if any,
        and the span of its tokens."""
        start = self.pos
        lit = self.complex_lit()
        if lit is None:
            re, float_tok = self.num()
            lit = ComplexRational(re), float_tok
        return *lit, slice(start, self.pos)

    # ── key op value lists ───────────────────────────────────────────

    def entries(self, names: tuple[str, ...], op: str, read: Callable[[], T],
                closing: str | None = None, role: str = "generator") -> dict[str, T]:
        """``key op value`` entries, separated by ";" or ",", up to the
        closing punctuation (left unread) or the end of input: a dict in
        text order.  A key is a genRef among names, given once."""
        found: dict[str, T] = {}
        while not (self.at("punct", closing) if closing else self.at("eof")):
            start = self.pos
            key = self.gen_ref(names, role)
            if key in found:
                self.error(f"{role} {key!r} given twice", self.tokens[start])
            self.expect("punct", op)
            found[key] = read()
            if not (self.accept("punct", ";") or self.accept("punct", ",")):
                break
        return found

    def braced(self, keyword: str, read: Callable[..., T], *args) -> T:
        """``keyword { ... }`` or the bare contents, the keyword optional:
        read(*args, closing) reads what stands between the braces."""
        self.accept("ident", keyword)
        if not self.accept("punct", "{"):
            return read(*args)
        found = read(*args, "}")
        self.expect("punct", "}")
        return found

    # ── characters ───────────────────────────────────────────────────

    def assignment(self, pres: StarPresentation,
                   closing: str | None = None) -> dict[str, Value]:
        """The values of a character or a support point: all exact, or
        (when any literal is a float) all converted to machine complex
        numbers."""
        literals = self.entries(pres.generators, "=", self.scalar_value, closing)
        if not literals:
            self.error("empty assignment")
        if not any(float_tok for _, float_tok, _ in literals.values()):
            return {key: value for key, (value, _, _) in literals.items()}
        return {key: self._as_float(value, span)
                for key, (value, _, span) in literals.items()}

    def _as_float(self, value: ComplexRational, span: slice) -> complex:
        try:
            return complex(value)
        except AlgebraError:
            text = "".join(tok.text for tok in self.tokens[span])
            self.error(f"numeric literal {text!r} is too large for a floating "
                       "point value", self.tokens[span.start])
            raise AssertionError  # unreachable

    def character(self, pres: StarPresentation) -> dict[str, Value]:
        return self.braced("char", self.assignment, pres)

    # ── boxes ────────────────────────────────────────────────────────

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        spans: list[tuple[Fraction, Fraction]] = []
        while True:
            self.expect("punct", "[")
            lo, _ = self.num()
            self.expect("punct", ",")
            hi, _ = self.num()
            tok = self.expect("punct", "]")
            if lo > hi:
                self.error("interval bounds out of order", tok)
            spans.append((lo, hi))
            if not (self.at_word("x") and self.at("punct", "[", 1)):
                return spans
            self.advance()

    def box(self, pres: StarPresentation) -> dict[str, list[tuple[Fraction, Fraction]]]:
        return self.braced("box", self.entries, pres.generators, "=", self.intervals)

    # ── states ───────────────────────────────────────────────────────

    def state(self, pres: StarPresentation) -> Callable[[], states.State]:
        """The builder of the state the text describes."""
        self.accept("ident", "state")
        tok = self.expect("ident")
        kind = tok.text
        if kind == "atomic":
            self.expect("punct", "{")
            atoms: list[tuple[dict[str, Value], Fraction]] = []
            while not self.at("punct", "}"):
                self.expect("punct", "(")
                values = self.assignment(pres, ")")
                self.expect("punct", ")")
                self.expect("punct", ":")
                weight, float_tok = self.num()
                if float_tok:
                    self.error("a state weight must be an exact rational", float_tok)
                atoms.append((values, weight))
                if not self.accept("punct", ";"):
                    break
            self.expect("punct", "}")
            return lambda: states.atomic_state(pres, atoms)
        if kind == "gaussian":
            generator: str | None = None
            if self.accept("punct", "("):
                generator = self.expect("ident").text
                self.expect("punct", ")")
            return lambda: states.gaussian_state(pres, generator)
        if kind == "density":
            density = self.expect("string").text
            self.expect("ident", "on")
            intervals = self.intervals()
            self.expect("ident", "order")
            order = self.nat()
            return lambda: states.quadrature_state(
                pres, spectrum.CompactBox.from_intervals(pres, intervals),
                density, order)
        self.error(f"unknown state kind {kind!r}; expected atomic, gaussian, "
                   f"or density", tok)
        raise AssertionError  # unreachable

    # ── morphisms ────────────────────────────────────────────────────

    def morphism(self, source: StarPresentation,
                 target: StarPresentation) -> dict[str, StarPoly]:
        return self.entries(source.generators, "->", lambda: self.poly(target),
                            role="source generator")


# ── public entry points ──────────────────────────────────────────────────

def _parse(text: str, read, *args):
    """Tokenize text, read one item with a Parser method, then demand the
    end of input: the one path behind every parse_* entry point."""
    parser = Parser(tokenize(text))
    result = read(parser, *args)
    parser.expect_done()
    return result


def parse_presentation(text: str, mode: str = MODE_STAR) -> StarPresentation:
    mode = {"star": MODE_STAR}.get(mode, mode)  # short alias
    return _parse(text, Parser.presentation, mode)


def parse_poly(text: str, pres: StarPresentation) -> StarPoly:
    return _parse(text, Parser.poly, pres)


def parse_character(text: str, pres: StarPresentation,
                    tolerance: float = spectrum.FLOAT_TOLERANCE) -> spectrum.Character:
    values = _parse(text, Parser.character, pres)
    return spectrum.validate_character(pres, values, tolerance=tolerance)


def parse_box(text: str, pres: StarPresentation) -> spectrum.CompactBox:
    return spectrum.CompactBox.for_generators(pres, _parse(text, Parser.box, pres))


def parse_state(text: str, pres: StarPresentation) -> states.State:
    return _parse(text, Parser.state, pres)()


def parse_morphism(text: str, source: StarPresentation,
                   target: StarPresentation) -> algebra.Morphism:
    images = _parse(text, Parser.morphism, source, target)
    return algebra.Morphism.create(source, target, images,
                                   star=source.is_star and target.is_star)


# ── formatting ───────────────────────────────────────────────────────────

def format_character(char: spectrum.Character) -> str:
    parts = [f"{g} = {spectrum.format_value(v)}"
             for g, v in zip(char.pres.generators, char.values)]
    return "char { " + " ; ".join(parts) + " }"
