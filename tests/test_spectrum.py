from fractions import Fraction
from random import Random

import pytest

import gelfand_lab as gl
from gelfand_lab import (BoxSampler, Character, CompactBox, ComplexRational,
                         GridSampler, SampleSet, spectrum)
from gelfand_lab.cli import canonical_box, canonical_presentation, main
from gelfand_lab.errors import (AlgebraError, CharacterError,
                                UnsupportedError)

from helpers import (circle, disk, line, nil, plain, rand_character,
                     rand_fraction, rand_morphism, rand_poly)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validation_violations():
    with pytest.raises(CharacterError) as exc:
        gl.validate_character(line(), {})
    assert exc.value.violation == "coverage"
    with pytest.raises(CharacterError) as exc:
        gl.validate_character(line(), {"x": ComplexRational(1),
                                       "y": ComplexRational(1)})
    assert exc.value.violation == "coverage"
    with pytest.raises(CharacterError) as exc:
        gl.validate_character(line(), {"x": ComplexRational(0, 1)})
    assert exc.value.violation == "reality"
    d = disk()
    with pytest.raises(CharacterError) as exc:
        gl.validate_character(d, {"z": ComplexRational(1, 1),
                                  "adj(z)": ComplexRational(1, 1)})
    assert exc.value.violation == "conjugacy"
    with pytest.raises(CharacterError) as exc:
        gl.validate_character(nil(), {"x": ComplexRational(2)})
    assert exc.value.violation == "relation"
    # the only character of the nilpotent line is x = 0
    c = gl.validate_character(nil(), {"x": ComplexRational(0)})
    assert c.exact


def test_validation_float_tolerance():
    c = gl.validate_character(line(), {"x": complex(2.0, 1e-14)})
    assert not c.exact
    with pytest.raises(CharacterError):
        gl.validate_character(line(), {"x": complex(2.0, 1e-6)})
    # circle: |z| = 1 within tolerance only
    ok = gl.validate_character(circle(), {"z": complex(0.6, 0.8),
                                          "adj(z)": complex(0.6, -0.8)})
    assert not ok.exact
    with pytest.raises(CharacterError):
        gl.validate_character(circle(), {"z": complex(0.6, 0.9),
                                         "adj(z)": complex(0.6, -0.9)})


def test_algebra_mode_characters_are_unconstrained():
    p = plain()
    c = gl.validate_character(p, {"x": ComplexRational(0, 5)})
    assert c.value("x") == ComplexRational(0, 5)


def test_validation_fills_missing_partner():
    c = gl.validate_character(disk(), {"z": ComplexRational(1, 2)})
    assert c.value("adj(z)") == ComplexRational(1, -2)
    assert c.exact
    # float side, filled partner keeps the float flavor
    f = gl.validate_character(disk(), {"adj(z)": complex(0.5, -0.25)})
    assert f.value("z") == complex(0.5, 0.25)
    assert not f.exact
    # a wrong explicit partner is still rejected
    with pytest.raises(CharacterError, match="conjugate"):
        gl.validate_character(disk(), {"z": ComplexRational(1, 2),
                                       "adj(z)": ComplexRational(1, 2)})


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_matches_direct_substitution():
    rng = Random(5)
    d = disk()
    for _ in range(50):
        a = rand_poly(d, rng)
        p = rand_character(d, rng)
        z = complex(p.value("z"))
        got = complex(gl.gelfand_eval(a, p))
        want = sum(complex(c) * z ** m[0] * z.conjugate() ** m[1]
                   for m, c in a.terms)
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_transform_is_star_homomorphism():
    rng = Random(9)
    d = disk()
    for _ in range(100):
        a, b = rand_poly(d, rng), rand_poly(d, rng)
        p = rand_character(d, rng)
        ea, eb = gl.gelfand_eval(a, p), gl.gelfand_eval(b, p)
        assert gl.gelfand_eval(a * b, p) == ea * eb
        assert gl.gelfand_eval(a + b, p) == ea + eb
        assert gl.gelfand_eval(a.involute(), p) == ea.conjugate()
    assert gl.gelfand_eval(d.one(), rand_character(d, rng)) == ComplexRational(1)


def test_separating_generator():
    d = disk()
    p = gl.validate_character(d, {"z": ComplexRational(1),
                                  "adj(z)": ComplexRational(1)})
    q = gl.validate_character(d, {"z": ComplexRational(2),
                                  "adj(z)": ComplexRational(2)})
    assert gl.separating_generator(p, q) == "z"
    assert gl.separating_generator(p, p) is None


# ---------------------------------------------------------------------------
# pushforward, naturality, correspondence
# ---------------------------------------------------------------------------

def test_pushforward_contravariance():
    rng = Random(13)
    d = disk()
    for _ in range(100):
        f = rand_morphism(d, d, rng)
        g = rand_morphism(d, d, rng)
        p = rand_character(d, rng)
        left = gl.pushforward(gl.compose(g, f), p)
        right = gl.pushforward(f, gl.pushforward(g, p))
        assert left.values == right.values


def test_pushforward_requires_star_morphism():
    d = disk()
    z = d.gen("z")
    f = gl.Morphism.create(d, d, {"z": z, "adj(z)": z}, star=False)
    p = rand_character(d, Random(3))
    with pytest.raises(AlgebraError, match="star|\\*-"):
        gl.pushforward(f, p)


def test_naturality_square():
    rng = Random(17)
    d = disk()
    under = gl.underlying(d)
    for _ in range(100):
        f = rand_morphism(d, d, rng)
        p = rand_character(d, rng)
        top = gl.naturality_inclusion(gl.pushforward(f, p))
        uf = gl.underlying_morphism(f)
        bottom = gl.pushforward(uf, gl.naturality_inclusion(p))
        assert top.pres == under and bottom.pres == under
        assert top.values == bottom.values


def test_free_correspondence_bijection():
    rng = Random(19)
    algebra_pres = plain("algebra P ; generator u, v : free ;")
    free = gl.free_star(algebra_pres)
    for _ in range(100):
        p = rand_character(algebra_pres, rng)
        q = gl.extend_character_free(algebra_pres, p)
        assert q.pres == free
        # partner slots carry conjugates
        for i in range(len(free.generators)):
            j = free.partner(i)
            assert q.values[j] == q.values[i].conjugate()
        back = gl.restrict_character_free(algebra_pres, q)
        assert back.values == p.values
        # and the other way around
        q2 = rand_character(free, rng)
        p2 = gl.restrict_character_free(algebra_pres, q2)
        assert gl.extend_character_free(algebra_pres, p2).values == q2.values


# ---------------------------------------------------------------------------
# boxes, samplers, compactness
# ---------------------------------------------------------------------------

def test_box_basics():
    b = CompactBox.from_intervals(line(), [(Fraction(0), Fraction(2))])
    assert b.dimension() == 1
    assert b.volume() == 2
    pts = b.grid_points(5)
    assert len(pts) == 5
    assert [p.value("x") for p in pts] == [0, Fraction(1, 2), 1,
                                           Fraction(3, 2), 2]
    assert b.modulus_bound(0) == 2


def test_box_rejects_relations():
    with pytest.raises(UnsupportedError, match="relation"):
        CompactBox.from_intervals(nil(), [(Fraction(0), Fraction(1))])


def test_box_complex_axes_and_modulus():
    d = disk()
    b = gl.parse_box("z = [-1, 2] x [0, 1]", d)
    assert b.dimension() == 2
    # bound covers |re| + |im| over the rectangle
    assert b.modulus_bound(0) == 3
    assert b.modulus_bound(1) == 3  # partner delegates
    grid = b.grid_points(3)
    assert len(grid) == 9
    assert all(p.values[1] == p.values[0].conjugate() for p in grid)


def test_coefficient_bound_known_value():
    p = line()
    a = gl.parse_poly("2*x^2 - x + 1", p)
    box = gl.parse_box("x = [-1, 1]", p)
    assert gl.coefficient_bound(a, box) == 4


def test_box_sampler_reproducible_and_valid():
    d = disk()
    box = gl.parse_box("z = [-1, 1] x [-1, 1]", d)
    s1 = BoxSampler(box, seed=42)
    s2 = BoxSampler(box, seed=42)
    a = s1.sample(20)
    b = s2.sample(20)
    assert [c.values for c in a] == [c.values for c in b]
    assert all(c.exact for c in a)
    # replay semantics: a longer draw starts with the same prefix
    longer = BoxSampler(box, seed=42).sample(40)
    assert [c.values for c in longer[:20]] == [c.values for c in a]


def test_grid_sampler_filters_candidates():
    candidates = [{"x": ComplexRational(Fraction(k, 10))}
                  for k in range(-10, 11)]
    s = GridSampler(nil(), candidates, seed=7)
    chars = s.sample(100)
    assert len(chars) == 100
    assert all(c.value("x") == 0 for c in chars)
    with pytest.raises(CharacterError, match="candidate"):
        GridSampler(nil(), [{"x": ComplexRational(1)}], seed=7)


def test_compactness_certified_box():
    p = line()
    box = gl.parse_box("x = [-2, 2]", p)
    a = gl.parse_poly("x^2 + 1", p)
    report = gl.relative_compactness_check(box, [a])
    assert report.certified
    assert report.subject_kind == "box"
    assert report.unbounded_witnesses == ()
    assert dict(report.bounds)[gl.format_poly(a)] == 5.0


def test_compactness_sampled_threshold():
    p = line()
    chars = [gl.validate_character(p, {"x": ComplexRational(k)})
             for k in range(1, 101)]
    subject = SampleSet(tuple(chars), label="integers 1..100")
    a = p.gen("x")
    default = gl.relative_compactness_check(subject, [a])
    assert not default.certified
    assert default.unbounded_witnesses == ()
    tight = gl.relative_compactness_check(subject, [a], threshold=50)
    assert gl.format_poly(a) in tight.unbounded_witnesses
    assert "not relatively compact" in tight.verdict


# ---------------------------------------------------------------------------
# nilpotency and the radical
# ---------------------------------------------------------------------------

def test_is_nilpotent():
    n = nil()
    assert gl.is_nilpotent(n.gen("x")) == (True, 2)
    assert gl.is_nilpotent(n.zero()) == (True, 1)
    assert gl.is_nilpotent(line().gen("x")) == (False, None)
    # x + x^2 over x^3 = 0
    cube = gl.parse_presentation(
        "algebra C ; generator x : selfadjoint ; relation x^3 ;")
    a = gl.parse_poly("x + x^2", cube)
    assert gl.is_nilpotent(a) == (True, 3)


@pytest.mark.parametrize("bound", [0, -1])
def test_nilpotency_bound_below_one_is_rejected(bound):
    # no power would be tried, so "not nilpotent up to the bound" says nothing
    a = nil().gen("x")
    with pytest.raises(AlgebraError, match=f"bound must be at least 1, not {bound}"):
        gl.is_nilpotent(a, bound)
    box = gl.parse_box("x = [-1, 1]", line())
    with pytest.raises(AlgebraError, match="bound must be at least 1"):
        gl.radical_vanishing_check(line().gen("x"), BoxSampler(box, seed=1), count=4,
                                   nilpotent_bound=bound)
    assert gl.is_nilpotent(a, 1) == (False, None)
    assert gl.is_nilpotent(a, 2) == (True, 2)


def test_nilpotency_search_caps_raise_at_once():
    a = gl.parse_poly("x + 1", line())
    with pytest.raises(UnsupportedError, match="nilpotency bound 257"):
        gl.is_nilpotent(a, spectrum.MAX_NILPOTENT_BOUND + 1)
    # the cap is checked before any character is drawn
    box = gl.parse_box("x = [-1, 1]", line())
    with pytest.raises(UnsupportedError, match="nilpotency bound"):
        gl.radical_vanishing_check(a, BoxSampler(box, seed=1), count=10 ** 4,
                                   nilpotent_bound=10 ** 6)
    # (x + y + 1)^n has C(n + 2, 2) terms: 2485 at n = 69, 2556 at n = 70
    b = gl.parse_poly("x + y + 1", gl.parse_presentation(
        "algebra Plane ; generator x, y : selfadjoint ;"))
    with pytest.raises(UnsupportedError, match="power 70 with 2556 terms"):
        gl.is_nilpotent(b, spectrum.MAX_NILPOTENT_BOUND)


def test_radical_vanishing_on_nil():
    candidates = [{"x": ComplexRational(Fraction(k, 7))}
                  for k in range(-7, 8)]
    sampler = GridSampler(nil(), candidates, seed=3)
    report = gl.radical_vanishing_check(nil().gen("x"), sampler, count=500)
    assert report.vanishes
    assert report.nilpotent and report.exponent == 2
    assert report.max_abs == 0.0
    assert report.witness is None


def test_radical_witness_on_line():
    box = gl.parse_box("x = [-1, 1]", line())
    sampler = BoxSampler(box, seed=11)
    report = gl.radical_vanishing_check(line().gen("x"), sampler, count=200)
    assert not report.vanishes
    assert report.witness is not None
    assert not report.nilpotent
    assert report.max_abs > 0


# ---------------------------------------------------------------------------
# the axis layout against the flat (generator, role) reference
# ---------------------------------------------------------------------------

LAYOUT_CASES = {
    "line": line,
    "disk": disk,
    "plain-pair": lambda: plain("algebra P ; generator u, v : free ;"),
    "selfadjoint-then-free": lambda: gl.parse_presentation(
        "algebra Q ; generator x : selfadjoint ; generator z : free ;"),
    "two-pairs": lambda: gl.parse_presentation(
        "algebra Pair ; generator z, w : free ;"),
}


def reference_flat_layout(pres):
    """One (generator index, role) pair per real axis; role "val" is a
    self-adjoint value, "re"/"im" split a free or plain generator."""
    axes = []
    for i in range(len(pres.generators)):
        a = pres.adjoint[i]
        if a is None:
            axes.extend([(i, "re"), (i, "im")])
        elif a == i:
            axes.append((i, "val"))
        elif a > i:
            axes.extend([(i, "re"), (i, "im")])
    return axes


def reference_character_from_axes(pres, point, exact=True):
    axes = reference_flat_layout(pres)
    if len(point) != len(axes):
        raise AlgebraError(f"expected {len(axes)} coordinates, got {len(point)}")
    parts = {}
    for (gi, role), v in zip(axes, point):
        parts.setdefault(gi, {})[role] = v
    values = [None] * len(pres.generators)
    for gi, comp in parts.items():
        if "val" in comp:
            v = ComplexRational(comp["val"]) if exact \
                else complex(float(comp["val"]), 0.0)
        else:
            v = ComplexRational(comp["re"], comp["im"]) if exact \
                else complex(float(comp["re"]), float(comp["im"]))
        values[gi] = v
        a = pres.adjoint[gi]
        if a is not None and a != gi:
            values[a] = v.conjugate()
    return tuple(values)


def reference_box_intervals(pres, by_gen):
    axes = reference_flat_layout(pres)
    needed = {}
    for gi, _ in axes:
        needed[gi] = needed.get(gi, 0) + 1
    intervals = []
    used = set()
    for gi, role in axes:
        name = pres.generators[gi]
        if name not in by_gen:
            raise AlgebraError(f"no box bounds for generator {name!r}")
        given = by_gen[name]
        if len(given) != needed[gi]:
            raise AlgebraError(
                f"generator {name!r} needs {needed[gi]} interval(s), "
                f"got {len(given)}")
        used.add(name)
        intervals.append(given[0] if role in ("val", "re") else given[1])
    extra = set(by_gen) - used
    if extra:
        raise AlgebraError(
            f"box bounds given for non-axis generator {sorted(extra)[0]!r}")
    return tuple(intervals)


def reference_modulus_bound(box, gen_index):
    a = box.pres.adjoint[gen_index]
    if a is not None and a < gen_index:
        gen_index = a
    bound = Fraction(0)
    for (gi, _), (lo, hi) in zip(reference_flat_layout(box.pres), box.intervals):
        if gi == gen_index:
            bound += max(abs(lo), abs(hi))
    return bound


def reference_canonical_box(box):
    axes = reference_flat_layout(box.pres)
    parts = []
    pos = 0
    while pos < len(axes):
        gi = axes[pos][0]
        count = 1
        while pos + count < len(axes) and axes[pos + count][0] == gi:
            count += 1
        spans = " x ".join(f"[{lo}, {hi}]"
                           for lo, hi in box.intervals[pos:pos + count])
        parts.append(f"{box.pres.generators[gi]} = {spans}")
        pos += count
    return "box { " + " ; ".join(parts) + " }"


def reference_canonical_presentation(pres):
    lines = [f"algebra {pres.name} ;"]
    for i, name in enumerate(pres.generators):
        a = pres.adjoint[i]
        if a is not None and a < i:
            continue
        kind = "selfadjoint" if a == i else "free"
        lines.append(f"generator {name} : {kind} ;")
    return "\n".join(lines)


def reference_axis_generators(pres):
    """The default ``gns`` operators: every generator but adjoint partners."""
    return [pres.generators[i] for i in range(len(pres.generators))
            if pres.adjoint[i] is None or pres.adjoint[i] >= i]


def random_by_gen(pres, rng):
    """Valid box bounds keyed by generator name, from the reference layout."""
    by_gen = {}
    for gi, _ in reference_flat_layout(pres):
        lo = rand_fraction(rng)
        by_gen.setdefault(pres.generators[gi], []).append(
            (lo, lo + abs(rand_fraction(rng))))
    return by_gen


def raised(fn, *args):
    try:
        return fn(*args)
    except AlgebraError as exc:
        return f"AlgebraError: {exc}"


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_axis_layout_groups_the_flat_reference(name):
    pres = LAYOUT_CASES[name]()
    flat = reference_flat_layout(pres)
    assert gl.axis_layout(pres) == [
        (gi, sum(1 for g, _ in flat if g == gi))
        for gi in dict.fromkeys(g for g, _ in flat)]


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_character_from_axes_matches_reference(name):
    pres = LAYOUT_CASES[name]()
    rng = Random(1010)
    dim = len(reference_flat_layout(pres))
    for _ in range(40):
        exact_point = [rand_fraction(rng) for _ in range(dim)]
        float_point = [rng.uniform(-5, 5) for _ in range(dim)]
        for point, exact in ((exact_point, True), (float_point, False)):
            char = gl.character_from_axes(pres, point, exact=exact)
            assert char.exact == exact
            assert char.values == reference_character_from_axes(pres, point, exact)
    for point in ([], [Fraction(0)] * (dim + 1)):
        assert raised(gl.character_from_axes, pres, point) == \
            raised(reference_character_from_axes, pres, point)


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_box_by_generator_matches_reference(name):
    pres = LAYOUT_CASES[name]()
    rng = Random(2020)
    for _ in range(40):
        by_gen = random_by_gen(pres, rng)
        box = CompactBox.for_generators(pres, by_gen)
        assert box.intervals == reference_box_intervals(pres, by_gen)
        for i in range(len(pres.generators)):
            assert box.modulus_bound(i) == reference_modulus_bound(box, i)
        assert canonical_box(box) == reference_canonical_box(box)
        assert gl.parse_box(canonical_box(box), pres) == box


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_for_generators_errors_match_reference(name):
    pres = LAYOUT_CASES[name]()
    by_gen = random_by_gen(pres, Random(3030))
    first = next(iter(by_gen))
    missing = {g: v for g, v in by_gen.items() if g != first}
    wrong_count = {**by_gen, first: by_gen[first] * 3}
    extra = {**by_gen, "nope": [(Fraction(0), Fraction(1))]}
    cases = [(missing, "no box bounds"), (wrong_count, "needs"),
             (extra, "non-axis generator")]
    if name in ("disk", "two-pairs"):
        cases.append(({**by_gen, "adj(z)": by_gen["z"]}, "non-axis generator"))
    for bad, fragment in cases:
        message = raised(reference_box_intervals, pres, bad)
        assert fragment in message
        assert raised(CompactBox.for_generators, pres, bad) == message


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_canonical_presentation_matches_reference(name):
    pres = LAYOUT_CASES[name]()
    text = canonical_presentation(pres)
    assert text == reference_canonical_presentation(pres)
    assert gl.parse_presentation(text, pres.mode) == pres


@pytest.mark.parametrize("name", sorted(set(LAYOUT_CASES) - {"plain-pair"}))
def test_default_gns_operators_match_reference(name, tmp_path, capsys):
    pres = LAYOUT_CASES[name]()
    path = tmp_path / "p.star"
    path.write_text(canonical_presentation(pres), encoding="utf-8")
    names = reference_axis_generators(pres)
    state = "state atomic { (" + " ; ".join(f"{g} = 0" for g in names) + ") : 1 }"
    assert main(["gns", str(path), "--state", state, "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert [line[len("multiplication by "):-1] for line in out.splitlines()
            if line.startswith("multiplication by ")] == names
