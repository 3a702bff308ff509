"""Seeded job catalogs for the four benchmark workloads.

A workload is a list of strata.  A stratum is one job kind at one size
band; each block of the job stream holds one job from every stratum, in a
seeded order, so every run sees the same mix of sizes and the median does
not jump between two size clusters.  Each stratum has ``VARIANTS`` concrete
instances, generated from a fixed per-instance seed; ``--seed`` chooses the
block order and which variant fills each slot, running every variant once
per round of ``VARIANTS`` blocks.  The catalog is therefore
finite, which is what lets ``reference/<workload>.json`` hold an expected
result for every job any seed can produce.

Job parameters are plain JSON (polynomials, boxes and states as source
text), so they double as the inputs digest.  Nothing here imports the
library at module level: the cli-cold workload never loads it in the
benchmark process, and the set-up probe times the import itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

VARIANTS = 12


# ---------------------------------------------------------------------------
# source-text generation
# ---------------------------------------------------------------------------

def _frac(rng: random.Random, span: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def _nonzero_frac(rng: random.Random, span: int, max_den: int) -> Fraction:
    while True:
        f = _frac(rng, span, max_den)
        if f:
            return f


def _mono_text(names: list[str], exps: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _coeff_text(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return f"({re})" if re < 0 else str(re)
    sign = "+" if im >= 0 else "-"
    return f"({re}{sign}{abs(im)}i)"


def poly_text(names: list[str], terms: dict[tuple[int, ...], tuple[Fraction, Fraction]]) -> str:
    out = []
    for exps, (re, im) in sorted(terms.items(), key=lambda t: (-sum(t[0]), t[0])):
        mono = _mono_text(names, exps)
        coeff = _coeff_text(re, im)
        out.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(out) if out else "0"


def random_poly(rng: random.Random, names: list[str], degree: int, n_terms: int,
                complex_coeffs: bool, max_den: int = 3, constant: bool = True) -> str:
    """A polynomial with ``n_terms`` monomials of degree <= ``degree``, one
    of them of degree exactly ``degree``; without ``constant`` no term is
    the unit monomial."""
    n = len(names)
    terms: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    while len(terms) < n_terms:
        d = degree if not terms else rng.randint(0 if constant else 1, degree)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        im = _frac(rng, 5, max_den) if complex_coeffs else Fraction(0)
        terms[tuple(exps)] = (_nonzero_frac(rng, 5, max_den), im)
    return poly_text(names, terms)


def _interval(rng: random.Random, span: int = 2, den: int = 4) -> tuple[Fraction, Fraction]:
    lo = Fraction(rng.randint(-span * den, 0), den)
    hi = Fraction(rng.randint(1, span * den), den)
    return lo, hi


def _iv_text(iv: tuple[Fraction, Fraction]) -> str:
    return f"[{iv[0]}, {iv[1]}]"


# ---------------------------------------------------------------------------
# presentations shared by the jobs
# ---------------------------------------------------------------------------

PRESENTATIONS = {
    "line": "algebra Line ; generator x : selfadjoint ;",
    "disk": "algebra Disk ; generator z : free ;",
    "pair2": "algebra Pair2 ; generator z : free ; generator w : free ;",
    "circle": "algebra Circle ; generator z : free ; relation z*adj(z) - 1 ;",
    "sphere": ("algebra Sphere ; generator x : selfadjoint ; "
               "generator y : selfadjoint ; generator t : selfadjoint ; "
               "relation x^2 + y^2 + t^2 - 1 ;"),
    "wdisk": "algebra W ; generator w : free ;",
}

NAMES = {
    "line": ["x"], "disk": ["z", "adj(z)"], "pair2": ["z", "adj(z)", "w", "adj(w)"],
    "circle": ["z", "adj(z)"], "sphere": ["x", "y", "t"], "wdisk": ["w", "adj(w)"],
}


# ---------------------------------------------------------------------------
# sup-brackets: exact seminorm grids plus a minority of Bernstein jobs
# ---------------------------------------------------------------------------

def _seminorm(pres: str, res_band: tuple[int, int]):
    def make(rng: random.Random) -> dict:
        degree = rng.randint(3, 8)
        names = NAMES[pres]
        poly = random_poly(rng, names, degree, rng.randint(2, 3),
                           complex_coeffs=pres != "line", max_den=2)
        if pres == "line":
            box = f"x = {_iv_text(_interval(rng))}"
        elif pres == "disk":
            box = f"z = {_iv_text(_interval(rng, 1))} x {_iv_text(_interval(rng, 1))}"
        else:
            box = " ; ".join(
                f"{g} = {_iv_text(_interval(rng, 1))} x {_iv_text(_interval(rng, 1))}"
                for g in ("z", "w"))
        return {"kind": "seminorm", "pres": pres, "poly": poly, "box": box,
                "resolution": rng.randint(*res_band)}
    return make


def _bernstein(n_band: tuple[int, int]):
    def make(rng: random.Random) -> dict:
        return {"kind": "bernstein",
                "target": rng.choice(["square", "abs-shift", "exp"]),
                "n": rng.randint(*n_band)}
    return make


SUP_BRACKETS = (
    [(f"line-{lo}", _seminorm("line", (lo, lo + 23))) for lo in range(65, 257, 24)]
    + [("disk-9", _seminorm("disk", (9, 11))),
       ("disk-12", _seminorm("disk", (12, 14))),
       ("disk-15", _seminorm("disk", (15, 18))),
       ("disk-19", _seminorm("disk", (19, 24))),
       ("disk-25", _seminorm("disk", (25, 33))),
       ("pair2-3", _seminorm("pair2", (3, 3))),
       ("pair2-4", _seminorm("pair2", (4, 5))),
       ("bern-32", _bernstein((32, 64))),
       ("bern-65", _bernstein((65, 128)))]
)


# ---------------------------------------------------------------------------
# ring-rewrite: arithmetic modulo relations
# ---------------------------------------------------------------------------

def _power(pres: str, k_band: tuple[int, int], degree: int):
    def make(rng: random.Random) -> dict:
        poly = random_poly(rng, NAMES[pres], degree, rng.randint(2, 3),
                           complex_coeffs=pres == "circle", max_den=2)
        return {"kind": "power", "pres": pres, "poly": poly, "k": rng.randint(*k_band)}
    return make


def _product(pres: str, count: int, degree: int):
    def make(rng: random.Random) -> dict:
        polys = [random_poly(rng, NAMES[pres], rng.randint(2, degree), rng.randint(2, 4),
                             complex_coeffs=pres == "circle", max_den=3)
                 for _ in range(count)]
        return {"kind": "product", "pres": pres, "polys": polys}
    return make


def _apply(degree_band: tuple[int, int]):
    def make(rng: random.Random) -> dict:
        image = random_poly(rng, NAMES["circle"], rng.randint(1, 2), 2,
                            complex_coeffs=True, max_den=2)
        poly = random_poly(rng, NAMES["wdisk"], rng.randint(*degree_band),
                           rng.randint(3, 5), complex_coeffs=True, max_den=2)
        return {"kind": "apply", "source": "wdisk", "target": "circle",
                "map": f"w -> {image}", "poly": poly}
    return make


def _nilpotent(exp_band: tuple[int, int]):
    def make(rng: random.Random) -> dict:
        a, b = rng.randint(*exp_band), rng.randint(*exp_band)
        text = (f"algebra Nil ; generator x : selfadjoint ; generator y : selfadjoint ; "
                f"relation x^{a} ; relation y^{b} ;")
        poly = random_poly(rng, ["x", "y"], 2, rng.randint(2, 4), complex_coeffs=False,
                           max_den=3, constant=False)
        return {"kind": "nilpotent", "presentation": text, "poly": poly,
                "bound": a + b}
    return make


def _assemble(m_band: tuple[int, int]):
    """x^2 - a*x, x*y_i - a*y_i and y_i^k - q_i(y_i) with q_i(0) = 0.

    Confluent for every choice (the overlaps x^2 / x*y_i and x*y_i / y_i^k
    both resolve), while the leading monomials overlap, so assembly runs
    real critical-pair reductions rather than skipping coprime pairs.
    """
    def make(rng: random.Random) -> dict:
        m = rng.randint(*m_band)
        gens = ["x"] + [f"y{i}" for i in range(1, m + 1)]
        a = _nonzero_frac(rng, 3, 2)
        rels = [poly_text(["x"], {(2,): (Fraction(1), Fraction(0)),
                                  (1,): (-a, Fraction(0))})]
        for g in gens[1:]:
            rels.append(f"x*{g} - {_coeff_text(a, Fraction(0))}*{g}")
            k = rng.randint(3, 5)
            tail = {(k,): (Fraction(1), Fraction(0))}
            for e in rng.sample(range(1, k), rng.randint(1, k - 1)):
                tail[(e,)] = (_nonzero_frac(rng, 4, 3), Fraction(0))
            rels.append(poly_text([g], tail))
        return {"kind": "assemble", "generators": gens, "relations": rels}
    return make


RING_REWRITE = [
    ("circle-pow-3", _power("circle", (3, 5), 3)),
    ("circle-pow-6", _power("circle", (6, 8), 3)),
    ("circle-pow-9", _power("circle", (9, 11), 3)),
    ("circle-prod", _product("circle", 4, 5)),
    ("sphere-pow-3", _power("sphere", (3, 4), 2)),
    ("sphere-pow-5", _power("sphere", (5, 6), 2)),
    ("sphere-prod", _product("sphere", 3, 3)),
    ("apply-3", _apply((3, 4))),
    ("apply-5", _apply((5, 6))),
    ("nilpotent-3", _nilpotent((3, 4))),
    ("nilpotent-5", _nilpotent((5, 6))),
    ("assemble-2", _assemble((2, 3))),
    ("assemble-4", _assemble((4, 5))),
]


# ---------------------------------------------------------------------------
# gns-models: Gram matrix, GNS basis, multiplication operators
# ---------------------------------------------------------------------------

def _atomic(pres: str, atom_band: tuple[int, int], degree_band: tuple[int, int]):
    def make(rng: random.Random) -> dict:
        count = rng.randint(*atom_band)
        points: set[tuple[Fraction, ...]] = set()
        while len(points) < count:
            if pres == "line":
                points.add((_frac(rng, 6, 4),))
            else:
                points.add((_frac(rng, 4, 3), _frac(rng, 4, 3)))
        weights = [rng.randint(1, 4) for _ in points]
        total = sum(weights)
        atoms = []
        name = "x" if pres == "line" else "z"
        for pt, w in zip(sorted(points), weights):
            im = pt[1] if len(pt) > 1 else Fraction(0)
            atoms.append(f"({name} = {_coeff_text(pt[0], im)}) : {Fraction(w, total)}")
        return {"kind": "gns", "pres": pres, "state": "state atomic { " + " ; ".join(atoms) + " }",
                "degree": rng.randint(*degree_band)}
    return make


def _gaussian(degree_band: tuple[int, int]):
    def make(rng: random.Random) -> dict:
        return {"kind": "gns", "pres": "line", "state": "state gaussian(x)",
                "degree": rng.randint(*degree_band)}
    return make


def _quadrature(pres: str, order_band: tuple[int, int], degree_band: tuple[int, int]):
    def make(rng: random.Random) -> dict:
        if pres == "line":
            spans = _iv_text(_interval(rng, 1, 2))
        else:
            spans = f"{_iv_text(_interval(rng, 1, 2))} x {_iv_text(_interval(rng, 1, 2))}"
        return {"kind": "gns", "pres": pres,
                "state": f'state density "uniform" on {spans} order {rng.randint(*order_band)}',
                "degree": rng.randint(*degree_band)}
    return make


GNS_MODELS = [
    ("atomic-line-4", _atomic("line", (3, 5), (4, 4))),
    ("atomic-line-5", _atomic("line", (4, 6), (5, 6))),
    ("atomic-line-7", _atomic("line", (5, 7), (7, 8))),
    ("atomic-disk-2", _atomic("disk", (3, 4), (2, 2))),
    ("gauss-line-4", _gaussian((4, 6))),
    ("gauss-line-7", _gaussian((7, 9))),
    ("gauss-line-10", _gaussian((10, 12))),
    ("quad-line-4", _quadrature("line", (4, 6), (4, 5))),
    ("quad-line-6", _quadrature("line", (6, 8), (6, 7))),
    ("quad-line-8", _quadrature("line", (8, 10), (8, 8))),
    ("quad-disk-2", _quadrature("disk", (3, 4), (2, 2))),
    ("quad-disk-3", _quadrature("disk", (3, 5), (3, 3))),
]


# ---------------------------------------------------------------------------
# cli-cold: every subcommand as a fresh process with --json
# ---------------------------------------------------------------------------

def _cli(command: str):
    def make(rng: random.Random) -> dict:
        files: dict[str, str] = {}
        argv: list[str] = [command]
        if command in ("parse", "underlying"):
            files["p.star"] = _cli_presentation(rng)
            argv += ["p.star"]
        elif command == "free":
            files["p.alg"] = (f"algebra P ; generator x : free ; generator y : free ; "
                              f"relation {random_poly(rng, ['x', 'y'], 2, 2, False)} ;")
            argv += ["p.alg"]
        elif command in ("spectrum-check", "eval"):
            files["disk.star"] = PRESENTATIONS["disk"]
            argv += ["disk.star", "--char", f"z = {_coeff_text(_frac(rng, 4, 3), _frac(rng, 4, 3))}"]
            if command == "eval":
                argv += ["--poly", random_poly(rng, NAMES["disk"], 3, 3, True)]
        elif command == "pushforward":
            files["w.star"] = PRESENTATIONS["wdisk"]
            files["disk.star"] = PRESENTATIONS["disk"]
            image = random_poly(rng, NAMES["disk"], 2, 2, True, max_den=2)
            argv += ["--source", "w.star", "--target", "disk.star", "--map", f"w -> {image}",
                     "--char", f"z = {_coeff_text(_frac(rng, 3, 2), _frac(rng, 3, 2))}"]
        elif command == "nilpotent":
            files["nil.star"] = ("algebra Nil ; generator x : selfadjoint ; "
                                 f"relation x^{rng.randint(2, 4)} ;")
            argv += ["nil.star", "--poly",
                     random_poly(rng, ["x"], 2, 2, False, constant=False)]
        elif command == "seminorm":
            files["disk.star"] = PRESENTATIONS["disk"]
            argv += ["disk.star", "--poly", random_poly(rng, NAMES["disk"], 3, 3, True, max_den=2),
                     "--box", f"z = {_iv_text(_interval(rng, 1))} x {_iv_text(_interval(rng, 1))}",
                     "--resolution", str(rng.randint(5, 9))]
        elif command == "approx":
            argv += ["--target", rng.choice(["square", "abs-shift", "exp"]),
                     "--degree", str(rng.randint(2, 8)), "--resolution", "201"]
        elif command == "wirtinger":
            files["disk.star"] = PRESENTATIONS["disk"]
            argv += ["disk.star", "--poly", random_poly(rng, NAMES["disk"], 3, 3, True)]
        elif command in ("state-check", "gns"):
            files["line.star"] = PRESENTATIONS["line"]
            kind = rng.choice(["atomic", "gaussian", "density"])
            if kind == "atomic":
                pts = sorted({_frac(rng, 4, 2) for _ in range(rng.randint(2, 4))})
                state = "state atomic { " + " ; ".join(
                    f"(x = {_coeff_text(p, Fraction(0))}) : {Fraction(1, len(pts))}"
                    for p in pts) + " }"
            elif kind == "gaussian":
                state = "state gaussian(x)"
            else:
                state = (f'state density "uniform" on {_iv_text(_interval(rng, 1, 2))} '
                         f"order {rng.randint(3, 5)}")
            argv += ["line.star", "--state", state, "--degree", str(rng.randint(2, 3))]
        argv.append("--json")
        return {"kind": "cli", "argv": argv, "files": files}
    return make


def _cli_presentation(rng: random.Random) -> str:
    text = "algebra P ; generator z : free ; generator x : selfadjoint ;"
    if rng.random() < 0.5:
        text += " relation z*adj(z) - 1 ;"
    return text


CLI_COMMANDS = ["parse", "free", "underlying", "spectrum-check", "eval",
                "pushforward", "nilpotent", "seminorm", "approx", "wirtinger",
                "state-check", "gns"]

CLI_COLD = [(command, _cli(command)) for command in CLI_COMMANDS]


WORKLOADS = {
    "sup-brackets": SUP_BRACKETS,
    "ring-rewrite": RING_REWRITE,
    "gns-models": GNS_MODELS,
    "cli-cold": CLI_COLD,
}


# ---------------------------------------------------------------------------
# catalog and seeded stream
# ---------------------------------------------------------------------------

def catalog(workload: str) -> dict[str, dict]:
    """Every job instance of a workload, keyed "<stratum>/<variant>"."""
    out: dict[str, dict] = {}
    for stratum, make in WORKLOADS[workload]:
        for v in range(VARIANTS):
            rng = random.Random(f"{workload}/{stratum}/{v}")
            out[f"{stratum}/{v}"] = make(rng)
    return out


def blocks(workload: str, seed: int):
    """Endless seeded stream of blocks; each block lists one job key per
    stratum.  Every round of VARIANTS blocks runs each instance once, so a
    run's mix of instances barely depends on the seed."""
    rng = random.Random(f"{workload}#{seed}")
    strata = [name for name, _ in WORKLOADS[workload]]
    while True:
        rounds = {s: rng.sample(range(VARIANTS), VARIANTS) for s in strata}
        for r in range(VARIANTS):
            order = strata[:]
            rng.shuffle(order)
            yield [f"{s}/{rounds[s][r]}" for s in order]


DIGEST_BLOCKS = 64


def inputs_digest(workload: str, seed: int, cat: dict[str, dict]) -> str:
    """sha256 over the catalog and the first DIGEST_BLOCKS blocks."""
    h = hashlib.sha256()
    h.update(json.dumps(cat, sort_keys=True).encode())
    stream = blocks(workload, seed)
    for _ in range(DIGEST_BLOCKS):
        h.update("\n".join(next(stream)).encode())
    return h.hexdigest()
