"""Batch command line around the library.

One subcommand per construction: presentation parsing, the free/underlying
functors, character checking and evaluation, pushforward of characters,
nilpotency and radical sampling, seminorm bracketing, Bernstein
approximation, Wirtinger derivatives, state checking, and the GNS build.

Reports are text by default and JSON with --json, versioned under a top
level "schema": "gelfand-lab/1".  Every JSON report carries an
"inputs_digest": the canonical rendering of each parsed input plus a
sha256 over that rendering, so identical inputs are recognizable across
runs.  With a fixed seed the whole JSON body is byte identical between
runs on one platform.

Exit codes: 0 success (verdict fields carry the science), 1 parse or
validation failure, 2 mathematical rejection (invalid character, Gram
matrix not positive semidefinite).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Sequence

from . import approx, spectrum, states
from .algebra import (Morphism, StarPresentation, format_poly, format_terms,
                      free_star, underlying)
from .errors import (CharacterError, GelfandError, GnsError, ParseError,
                     require_numpy)
from .parsing import (format_character, parse_box, parse_character,
                      parse_morphism, parse_poly, parse_presentation,
                      parse_state)
from .scalars import ComplexRational, rational_literal
from .spectrum import Character, CompactBox, format_value

SCHEMA = "gelfand-lab/1"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; here 2 is reserved for mathematical
    rejections, so usage problems exit 1 like other validation failures."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# canonical echoes and JSON helpers
# ---------------------------------------------------------------------------

def read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except ValueError as exc:  # text that is not UTF-8, or a NUL in the path
        raise ParseError(f"cannot read {path!r}: {exc}") from None


def canonical_presentation(pres: StarPresentation) -> str:
    """The presentation as grammar text, one line per generator of
    ``axis_layout`` (a free generator's partner is implied).

    The echo re-parses, in ``pres.mode``, to an equal presentation for
    every presentation a command reads from text.  The results of ``free``
    and ``underlying`` are reported with ``describe()`` instead: their
    names ``free(P)`` and ``underlying(P)`` and a declared generator
    ``adj(z)`` are outside the grammar.
    """
    lines = [f"algebra {pres.name} ;"]
    for gi, n in spectrum.axis_layout(pres):
        kind = "selfadjoint" if n == 1 else "free"
        lines.append(f"generator {pres.generators[gi]} : {kind} ;")
    for rel in pres.relations:
        lines.append(f"relation {format_terms(pres, rel)} ;")
    return "\n".join(lines)


def canonical_box(box: CompactBox) -> str:
    parts = [f"{box.pres.generators[gi]} = "
             + " x ".join(f"[{lo}, {hi}]" for lo, hi in spans)
             for gi, spans in box.by_generator()]
    return "box { " + " ; ".join(parts) + " }"


def canonical_morphism(f: Morphism) -> str:
    return " ; ".join(f"{g} -> {format_poly(img)}"
                      for g, img in zip(f.source.generators, f.images))


def value_json(v) -> object:
    """Exact values as canonical literals, floats as an [re, im] pair."""
    if isinstance(v, ComplexRational):
        return v.literal()
    c = complex(v)
    return [float(c.real), float(c.imag)]


def character_json(char: Character) -> dict:
    return {g: value_json(v)
            for g, v in zip(char.pres.generators, char.values)}


def matrix_json(m) -> list:
    return [[value_json(x) for x in row] for row in m]


def presentation_echo(pres: StarPresentation) -> dict[str, str]:
    return {"mode": pres.mode, "presentation": canonical_presentation(pres)}


def base_report(command: str, echo: dict[str, str]) -> dict:
    digest = hashlib.sha256(
        json.dumps(echo, sort_keys=True).encode("utf-8")).hexdigest()
    return {"schema": SCHEMA, "command": command,
            "inputs_digest": {**echo, "sha256": digest}}


def describe_lines(pres: StarPresentation) -> list[str]:
    described = pres.describe()
    lines = [f"presentation {pres.name} ({pres.mode})"]
    for entry in described["generators"]:
        extra = f" (partner {entry['partner']})" if "partner" in entry else ""
        lines.append(f"  generator {entry['name']} : {entry['kind']}{extra}")
    rels = described["relations"]
    if rels:
        lines.extend(f"  relation {r}" for r in rels)
    else:
        lines.append("  relations: none")
    return lines


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return _fmt_float(z.real)
    return f"({_fmt_float(z.real)}{z.imag:+.12g}i)"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load(args) -> StarPresentation:
    return parse_presentation(read_input(args.presentation),
                              mode=getattr(args, "mode", "star"))


def cmd_parse(args) -> tuple[dict, list[str], int]:
    pres = _load(args)
    report = base_report("parse", presentation_echo(pres))
    report["presentation"] = pres.describe()
    return report, describe_lines(pres), 0


def cmd_functor(args) -> tuple[dict, list[str], int]:
    """free and underlying: the input in the command's mode, then its functor."""
    source = _load(args)
    result = args.functor(source)
    report = base_report(args.command, presentation_echo(source))
    report["input"] = source.describe()
    report["result"] = result.describe()
    return report, describe_lines(result), 0


def cmd_spectrum_check(args) -> tuple[dict, list[str], int]:
    pres = _load(args)
    pres_echo = presentation_echo(pres)
    try:
        char = parse_character(args.char, pres, tolerance=args.tolerance)
    except CharacterError as exc:
        report = base_report("spectrum-check",
                             {**pres_echo, "char": args.char.strip()})
        report.update(valid=False, violation=exc.violation, detail=str(exc))
        return report, [f"invalid ({exc.violation}): {exc}"], 2
    report = base_report("spectrum-check",
                         {**pres_echo, "char": format_character(char)})
    report.update(valid=True, exact=char.exact,
                  character=character_json(char))
    return report, [f"valid: {format_character(char)}"], 0


def cmd_eval(args) -> tuple[dict, list[str], int]:
    pres = _load(args)
    poly = parse_poly(args.poly, pres)
    char = parse_character(args.char, pres, tolerance=args.tolerance)
    value = spectrum.gelfand_eval(poly, char)
    report = base_report("eval", {
        **presentation_echo(pres),
        "poly": format_poly(poly), "char": format_character(char)})
    report.update(value=value_json(value),
                  exact=isinstance(value, ComplexRational))
    return report, [f"value: {format_value(value)}"], 0


def cmd_pushforward(args) -> tuple[dict, list[str], int]:
    source = parse_presentation(read_input(args.source), mode=args.mode)
    target = parse_presentation(read_input(args.target), mode=args.mode)
    f = parse_morphism(args.map, source, target)
    char = parse_character(args.char, target, tolerance=args.tolerance)
    result = spectrum.pushforward(f, char, tolerance=args.tolerance)
    report = base_report("pushforward", {
        "mode": source.mode,
        "source": canonical_presentation(source),
        "target": canonical_presentation(target),
        "map": canonical_morphism(f),
        "char": format_character(char)})
    report.update(character=character_json(char),
                  pushforward=character_json(result),
                  exact=result.exact)
    return report, [f"pushforward: {format_character(result)}"], 0


def cmd_nilpotent(args) -> tuple[dict, list[str], int]:
    pres = _load(args)
    poly = parse_poly(args.poly, pres)
    echo = {**presentation_echo(pres), "poly": format_poly(poly)}
    radical = None
    if args.box is None:
        nil, exponent = spectrum.is_nilpotent(poly, bound=args.bound)
    else:
        # the radical check runs the same nilpotency search; read it there.
        # BoxSampler characters are exact, so no tolerance applies
        box = parse_box(args.box, pres)
        echo["box"] = canonical_box(box)
        sampler = spectrum.BoxSampler(box, seed=args.seed)
        radical = spectrum.radical_vanishing_check(
            poly, sampler, count=args.samples, nilpotent_bound=args.bound)
        nil, exponent = radical.nilpotent, radical.exponent
    lines = [f"nilpotent: {str(nil).lower()}"
             + (f" (exponent {exponent})" if nil else f" (bound {args.bound})")]
    if radical is not None:
        verdict = "vanishes on all samples" if radical.vanishes \
            else "nonzero witness found"
        lines.append(f"radical sampling: {verdict} "
                     f"({radical.samples} samples, max |value| "
                     f"{_fmt_float(radical.max_abs)})")
    report = base_report("nilpotent", echo)
    report.update(nilpotent=nil, exponent=exponent, bound=args.bound,
                  seed=args.seed)
    if radical is not None:
        report["radical"] = {
            "vanishes": radical.vanishes,
            "samples": radical.samples,
            "max_abs": radical.max_abs,
            "witness": None if radical.witness is None
            else character_json(radical.witness),
        }
    return report, lines, 0


def cmd_seminorm(args) -> tuple[dict, list[str], int]:
    pres = _load(args)
    poly = parse_poly(args.poly, pres)
    box = parse_box(args.box, pres)
    est = approx.seminorm_on_box(poly, box, resolution=args.resolution)
    report = base_report("seminorm", {
        **presentation_echo(pres),
        "poly": format_poly(poly), "box": canonical_box(box)})
    report.update(lower=est.lower, upper=est.upper, exact=est.exact,
                  resolution=est.resolution)
    if est.upper_exact is not None:
        report["upper_exact"] = rational_literal(est.upper_exact)
    lines = [f"seminorm in [{_fmt_float(est.lower)}, {_fmt_float(est.upper)}]"
             f" (grid resolution {est.resolution},"
             f" certified upper {'exact' if est.exact else 'float'})"]
    return report, lines, 0


def cmd_approx(args) -> tuple[dict, list[str], int]:
    target = approx.catalog_target(args.target)
    echo = {"target": target.name, "dim": str(target.dim)}
    report = base_report("approx", echo)
    report.update(target=target.name, dim=target.dim)
    if args.epsilon is not None:
        result = approx.density_witness(target, args.epsilon,
                                        max_degree=args.max_degree,
                                        error_resolution=args.resolution)
        report["epsilon"] = args.epsilon
        if result is None:
            report.update(achieved=False, max_degree=args.max_degree)
            lines = [f"no degree <= {args.max_degree} reaches sup error "
                     f"{args.epsilon}"]
            return report, lines, 0
        report["achieved"] = True
    else:
        result = approx.bernstein_approx(target, args.degree,
                                         error_resolution=args.resolution)
    report.update(degree=result.degree, poly=format_poly(result.poly),
                  error={"lower": result.error.lower,
                         "upper": result.error.upper,
                         "resolution": result.error.resolution})
    lines = [f"degree {result.degree}: {format_poly(result.poly)}",
             f"sup error in [{_fmt_float(result.error.lower)}, "
             f"{_fmt_float(result.error.upper)}]"]
    return report, lines, 0


def cmd_wirtinger(args) -> tuple[dict, list[str], int]:
    pres = _load(args)
    poly = parse_poly(args.poly, pres)
    derivative = approx.wirtinger_dzbar(poly, args.pair)
    holo = derivative.is_zero()
    echo = {**presentation_echo(pres), "poly": format_poly(poly)}
    if args.pair is not None:
        echo["pair"] = args.pair
    report = base_report("wirtinger", echo)
    report.update(derivative=format_poly(derivative), holomorphic=holo)
    return report, [f"adjoint-direction derivative: {format_poly(derivative)}",
                    f"holomorphic: {str(holo).lower()}"], 0


def _load_model(args) -> tuple[StarPresentation, states.State,
                                 states.GnsModel, dict]:
    """state-check and gns: presentation, state, completed model, report."""
    pres = _load(args)
    state = parse_state(args.state, pres)
    model = states.gns_basis(states.gram_matrix(state, args.degree))
    report = base_report(args.command,
                         {**presentation_echo(pres), "state": state.source})
    return pres, state, model, report


def cmd_state_check(args) -> tuple[dict, list[str], int]:
    _, state, model, report = _load_model(args)
    report.update(kind=state.kind, exact=state.exact,
                  densely_defined=state.densely_defined, degree=args.degree,
                  basis_size=len(model.basis), gram_psd=True,
                  rank=model.rank(), null_dimension=len(model.null_space))
    lines = [f"state kind: {state.kind} "
             f"({'exact' if state.exact else 'floating'}"
             f"{', densely defined' if state.densely_defined else ''})",
             f"Gram at degree {args.degree}: size {len(model.basis)}, "
             f"rank {model.rank()}, null dimension {len(model.null_space)}, "
             f"positive semidefinite"]
    return report, lines, 0


def cmd_gns(args) -> tuple[dict, list[str], int]:
    pres, _, model, report = _load_model(args)
    basis_polys = [format_poly(model.basis_poly(i))
                   for i in range(len(model.basis))]
    null_polys = [format_poly(p) for p in model.null_polys()] if model.exact else []
    report.update(
        degree=args.degree, basis=basis_polys, gram=matrix_json(model.gram),
        rank=model.rank(),
        null_space=null_polys if model.exact else matrix_json(model.null_space),
        orthonormal=matrix_json(model.orthonormal))
    # a repeated --op is reported once, in first-seen order
    ops = dict.fromkeys(args.op or [pres.generators[gi]
                                    for gi, _ in spectrum.axis_layout(pres)])
    operators = {}
    lines = [f"basis ({len(model.basis)}): " + ", ".join(basis_polys),
             f"rank {model.rank()}, null dimension {len(model.null_space)}"]
    if null_polys:
        lines.append("null space: " + ", ".join(null_polys))
    np = require_numpy()
    for name in ops:
        matrix = states.multiplication_operator(model, name)
        eigs = sorted(np.linalg.eigvals(matrix),
                      key=lambda z: (round(z.real, 12), round(z.imag, 12)))
        operators[name] = {
            "matrix": matrix_json(matrix),
            "eigenvalues": [value_json(z) for z in eigs],
        }
        lines.append(f"multiplication by {name}:")
        for row in matrix:
            lines.append("    " + "  ".join(_fmt_complex(complex(x))
                                            for x in row))
        lines.append("  eigenvalues: "
                     + ", ".join(_fmt_complex(complex(z)) for z in eigs))
    report["operators"] = operators
    return report, lines, 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _pres_arg(p: argparse.ArgumentParser, with_mode: bool = True) -> None:
    p.add_argument("presentation", help="presentation file, or - for stdin")
    if with_mode:
        p.add_argument("--mode", choices=("star", "algebra"), default="star",
                       help="presentation flavor (default %(default)s)")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance must be a nonnegative finite number, not {text!r}")
    return value


def _tol_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance", type=_tolerance,
                   default=spectrum.FLOAT_TOLERANCE,
                   help="floating comparison tolerance (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="gelfand-lab",
                   description="symbolic-numeric lab for finitely presented "
                               "commutative *-algebras")
    sub = root.add_subparsers(dest="command", required=True,
                              metavar="command")

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")
        p.set_defaults(handler=handler)
        return p

    p = add("parse", cmd_parse, "parse a presentation and report it")
    _pres_arg(p)

    p = add("free", cmd_functor,
            "apply the free *-algebra functor to a plain presentation")
    _pres_arg(p, with_mode=False)
    p.set_defaults(mode="algebra", functor=free_star)

    p = add("underlying", cmd_functor,
            "forget the involution of a *-presentation")
    _pres_arg(p, with_mode=False)
    p.set_defaults(functor=underlying)

    p = add("spectrum-check", cmd_spectrum_check,
            "validate a character assignment")
    _pres_arg(p)
    p.add_argument("--char", required=True, help="character text")
    _tol_arg(p)

    p = add("eval", cmd_eval, "evaluate a transform at a character")
    _pres_arg(p)
    p.add_argument("--poly", required=True, help="polynomial text")
    p.add_argument("--char", required=True, help="character text")
    _tol_arg(p)

    p = add("pushforward", cmd_pushforward,
            "precompose a character with a morphism")
    p.add_argument("--source", required=True,
                   help="source presentation file")
    p.add_argument("--target", required=True,
                   help="target presentation file")
    p.add_argument("--map", required=True,
                   help="generator images, e.g. 'z -> w^2'")
    p.add_argument("--char", required=True,
                   help="character text over the target")
    p.add_argument("--mode", choices=("star", "algebra"), default="star",
                   help="presentation flavor (default %(default)s)")
    _tol_arg(p)

    p = add("nilpotent", cmd_nilpotent,
            "nilpotency certificate plus optional radical sampling")
    _pres_arg(p)
    p.add_argument("--poly", required=True, help="polynomial text")
    p.add_argument("--bound", type=int, default=16,
                   help="largest exponent tried (default %(default)s)")
    p.add_argument("--box", help="sample characters from this box")
    p.add_argument("--samples", type=int, default=1000,
                   help="sample count (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampler seed (default %(default)s)")

    p = add("seminorm", cmd_seminorm,
            "bracket the sup-seminorm of a transform over a box")
    _pres_arg(p)
    p.add_argument("--poly", required=True, help="polynomial text")
    p.add_argument("--box", required=True, help="box text")
    p.add_argument("--resolution", type=int, default=33,
                   help="grid points per axis (default %(default)s)")

    p = add("approx", cmd_approx,
            "Bernstein approximation of a catalog target")
    p.add_argument("--target", required=True,
                   help="catalog name: square, abs-shift, exp")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--degree", type=int, help="fixed Bernstein degree")
    how.add_argument("--epsilon", type=float,
                     help="search degrees 4, 8, 16, ... and then --max-degree "
                          "for the first within this sup error")
    p.add_argument("--max-degree", type=int, default=256,
                   help="search cap for --epsilon (default %(default)s)")
    p.add_argument("--resolution", type=int,
                   help="error grid points per axis (default 10001 on one "
                        "axis)")

    p = add("wirtinger", cmd_wirtinger,
            "adjoint-direction derivative and holomorphy check")
    _pres_arg(p, with_mode=False)
    p.add_argument("--poly", required=True, help="polynomial text")
    p.add_argument("--pair", help="free generator naming the pair "
                                  "(default: the unique free pair)")

    p = add("state-check", cmd_state_check,
            "validate a state and its Gram matrix")
    _pres_arg(p, with_mode=False)
    p.add_argument("--state", required=True, help="state text")
    p.add_argument("--degree", type=int, default=2,
                   help="Gram truncation degree (default %(default)s)")

    p = add("gns", cmd_gns, "GNS model: basis, null space, operators")
    _pres_arg(p, with_mode=False)
    p.add_argument("--state", required=True, help="state text")
    p.add_argument("--degree", type=int, default=4,
                   help="truncation degree (default %(default)s)")
    p.add_argument("--op", action="append",
                   help="generator whose multiplication operator to report "
                        "(repeatable; default: pair representatives)")

    return root


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, lines, code = args.handler(args)
    except (CharacterError, GnsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GelfandError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
