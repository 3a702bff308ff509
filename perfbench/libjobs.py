"""Turn job parameters into library calls, and results into reference form.

Set-up (``build``) parses every presentation, polynomial, box, state and
morphism a job needs, so the timed call does only the user computation.
Jobs call the library through the ``gelfand_lab`` package namespace, which
is one of the namespaces the tracer patches.
"""

from __future__ import annotations

from typing import Callable

import gelfand_lab as gl
import numpy as np
from gelfand_lab.algebra import MODE_STAR
from gelfand_lab.parsing import format_poly, format_terms

import jobs

# Float tolerances, relative to max(1, largest expected magnitude).  Exact
# states reach the operators through exact Gram-Schmidt; quadrature states
# run Gram-Schmidt in floats on ill-conditioned moment matrices.
TOL_EXACT_FLOAT = 1e-9
TOL_QUADRATURE = 1e-6


class Library:
    """Parsed presentations shared by all jobs of one run."""

    def __init__(self) -> None:
        self.pres = {name: gl.parse_presentation(text)
                     for name, text in jobs.PRESENTATIONS.items()}


def build(lib: Library, params: dict) -> Callable[[], object]:
    kind = params["kind"]
    if kind == "seminorm":
        pres = lib.pres[params["pres"]]
        poly = gl.parse_poly(params["poly"], pres)
        box = gl.parse_box(params["box"], pres)
        res = params["resolution"]
        return lambda: gl.seminorm_on_box(poly, box, res)
    if kind == "bernstein":
        target = gl.catalog_target(params["target"])
        n = params["n"]
        return lambda: gl.bernstein_approx(target, n)
    if kind == "power":
        poly = gl.parse_poly(params["poly"], lib.pres[params["pres"]])
        k = params["k"]
        return lambda: poly ** k
    if kind == "product":
        pres = lib.pres[params["pres"]]
        polys = [gl.parse_poly(p, pres) for p in params["polys"]]

        def product():
            acc = polys[0]
            for p in polys[1:]:
                acc = acc * p
            return acc
        return product
    if kind == "apply":
        source = lib.pres[params["source"]]
        f = gl.parse_morphism(params["map"], source, lib.pres[params["target"]])
        poly = gl.parse_poly(params["poly"], source)
        return lambda: f.apply(poly)
    if kind == "nilpotent":
        pres = gl.parse_presentation(params["presentation"])
        poly = gl.parse_poly(params["poly"], pres)
        bound = params["bound"]
        return lambda: gl.is_nilpotent(poly, bound)
    if kind == "assemble":
        gens = params["generators"]
        free = gl.StarPresentation.assemble("free", MODE_STAR, gens, range(len(gens)), [])
        tables = [gl.parse_poly(r, free).as_table() for r in params["relations"]]
        adjoint = tuple(range(len(gens)))
        return lambda: gl.StarPresentation.assemble("Multi", MODE_STAR, gens, adjoint, tables)
    if kind == "gns":
        pres = lib.pres[params["pres"]]
        state = gl.parse_state(params["state"], pres)
        degree = params["degree"]
        op = pres.generators[0]

        def gns():
            model = gl.gns_basis(gl.gram_matrix(state, degree))
            return model, gl.multiplication_operator(model, op)
        return gns
    raise ValueError(f"unknown job kind {kind!r}")


def canonical(params: dict, result) -> tuple[str, list[float], float]:
    """(exact text, float values, float tolerance) of a job result."""
    kind = params["kind"]
    if kind == "seminorm":
        return f"{result.lower_sq}|{result.upper_exact}|{result.resolution}", [], 0.0
    if kind == "bernstein":
        return format_poly(result.poly), [result.error.lower], TOL_EXACT_FLOAT
    if kind in ("power", "product", "apply"):
        return format_poly(result), [], 0.0
    if kind == "nilpotent":
        return f"{result[0]}|{result[1]}", [], 0.0
    if kind == "assemble":
        return "\n".join(format_terms(result, rel) for rel in result.relations), [], 0.0
    if kind == "gns":
        model, op = result
        parts = [f"rank={model.rank()}", f"basis={len(model.basis)}"]
        if model.exact:
            parts.append(";".join(",".join(v.literal() for v in row) for row in model.gram))
            parts.append(";".join(format_poly(p) for p in model.null_polys()))
        # singular values are well conditioned, unlike eigenvalues of the
        # non-normal operators of free generators
        signature = list(np.linalg.svd(op, compute_uv=False)) + list(np.diag(op))
        floats = [x for z in signature for x in (float(z.real), float(z.imag))]
        return "\n".join(parts), floats, TOL_EXACT_FLOAT if model.exact else TOL_QUADRATURE
    raise ValueError(f"unknown job kind {kind!r}")


def gram_distinct(params: dict, lib: Library) -> tuple[int, int]:
    """(distinct normal forms of adj(m_i)*m_j, n^2) for a gns job."""
    pres = lib.pres[params["pres"]]
    basis = pres.monomials_up_to(params["degree"])
    adjoint = list(pres.adjoint)
    seen = set()
    for mi in basis:
        inv = gl.algebra.raw_involute(adjoint, {mi: gl.scalars.ONE})
        for mj in basis:
            seen.add(pres.poly(gl.algebra.raw_mul(inv, {mj: gl.scalars.ONE})).terms)
    return len(seen), len(basis) ** 2
