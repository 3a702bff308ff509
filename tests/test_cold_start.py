"""The exact subcommands run, and give the same bytes, without numpy; the
float subcommands exit 1 with an error that names numpy.

Each check starts a fresh interpreter that sets ``sys.modules["numpy"] =
None`` before importing the package, so any ``import numpy`` on the path
raises ImportError.  This file imports neither numpy nor ``tests/helpers``
(which loads the package), so it also runs where numpy is not installed.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gelfand_lab"

FILES = {
    "p.star": "algebra P ; generator z : free ; generator x : selfadjoint ; "
              "relation z*adj(z) - 1 ;",
    "p.alg": "algebra P ; generator x : free ; generator y : free ; "
             "relation 5*y^2 + 2/3*x^2 ;",
    "disk.star": "algebra Disk ; generator z : free ;",
    "w.star": "algebra W ; generator w : free ;",
    "nil.star": "algebra Nil ; generator x : selfadjoint ; relation x^3 ;",
    "line.star": "algebra Line ; generator x : selfadjoint ;",
}

ATOMIC = ("state atomic { (x = (-3)) : 1/4 ; (x = 1/2) : 1/4 ; "
          "(x = 3/2) : 1/4 ; (x = 4) : 1/4 }")
DENSITY = 'state density "uniform" on [-1, 2] order 4'

# argv shaped like the cli-cold benchmark catalog
EXACT = {
    "parse": ["parse", "p.star"],
    "free": ["free", "p.alg"],
    "underlying": ["underlying", "p.star"],
    "spectrum-check": ["spectrum-check", "disk.star", "--char", "z = (-1/3+4i)"],
    "eval": ["eval", "disk.star", "--char", "z = (-1/3+4i)", "--poly",
             "(1+4i)*z*adj(z)^2 + (-5/3+3/2i)*z^3 + (3/2+2/3i)*z"],
    "pushforward": ["pushforward", "--source", "w.star", "--target", "disk.star",
                    "--map", "w -> (-1-1i)*z*adj(z) + 5*z^2", "--char", "z = 1/2"],
    "nilpotent": ["nilpotent", "nil.star", "--poly", "2*x^2 + 1*x"],
    "seminorm": ["seminorm", "disk.star", "--poly",
                 "(5+2i)*z^2*adj(z) + (1+3/2i)*adj(z) + (3+1i)",
                 "--box", "z = [-3/4, 1/2] x [0, 1]", "--resolution", "5"],
    "wirtinger": ["wirtinger", "disk.star", "--poly",
                  "(5/3+2i)*z^2*adj(z) + (3/2+2/3i)*z + (1+4i)"],
    "state-check-atomic": ["state-check", "line.star", "--state", ATOMIC,
                           "--degree", "2"],
    "state-check-gaussian": ["state-check", "line.star", "--state",
                             "state gaussian(x)", "--degree", "3"],
}
FLOAT = {
    "approx": ["approx", "--target", "square", "--degree", "6",
               "--resolution", "201"],
    "gns": ["gns", "line.star", "--state", ATOMIC, "--degree", "2"],
    "state-check-density": ["state-check", "line.star", "--state", DENSITY,
                            "--degree", "2"],
}

BLOCKED = 'import sys; sys.modules["numpy"] = None; '
# numpy counts as present only when it imports, as the program decides
HAS_NUMPY = subprocess.run([sys.executable, "-c", "import numpy"],
                           capture_output=True).returncode == 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold")
    for name, text in FILES.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


def child(code: str, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def cli(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gelfand_lab.cli", *argv, "--json"],
                          cwd=cwd, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", ["gelfand_lab", "gelfand_lab.cli"])
def test_import_loads_no_numpy(tmp_path, module):
    blocked = child(BLOCKED + f"import {module}", tmp_path)
    assert blocked.returncode == 0, blocked.stderr
    plain = child(f'import sys, {module}; print("numpy" in sys.modules)', tmp_path)
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout == "False\n"


def test_no_function_imports_a_package_module():
    # a "from .x import" inside a function hides a cycle in the import graph
    inside = [f"{path.name}:{node.lineno}"
              for path in sorted(SRC.glob("*.py"))
              for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)
              if isinstance(node, ast.ImportFrom) and node.level]
    assert inside == []


@pytest.mark.parametrize("name", list(EXACT))
def test_exact_command_runs_without_numpy(workdir, name):
    argv = EXACT[name] + ["--json"]
    proc = child(BLOCKED + f"import gelfand_lab.cli; sys.exit(gelfand_lab.cli.main({argv!r}))",
                 workdir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    normal = cli(EXACT[name], workdir)
    assert normal.returncode == 0, normal.stderr
    assert proc.stdout == normal.stdout


@pytest.mark.skipif(not HAS_NUMPY, reason="the float paths need numpy")
@pytest.mark.parametrize("name", list(FLOAT))
def test_float_command_runs_with_numpy(workdir, name):
    proc = cli(FLOAT[name], workdir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")


@pytest.mark.parametrize("name", list(FLOAT))
def test_float_command_without_numpy_exits_one(workdir, name):
    argv = FLOAT[name] + ["--json"]
    proc = child(BLOCKED + f"import gelfand_lab.cli; sys.exit(gelfand_lab.cli.main({argv!r}))",
                 workdir)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "needs numpy" in proc.stderr


@pytest.mark.parametrize("prefix", ["", BLOCKED], ids=["numpy", "blocked"])
@pytest.mark.parametrize("argv, what", [
    (["line.star", "--state", 'state density "uniform" on [0, 1] order 100000'],
     "quadrature order 100000 exceeds the cap of 2048"),
    (["disk.star", "--state", 'state density "uniform" on [0, 1] x [0, 1] order 100'],
     "quadrature rule of 100^2 nodes exceeds the cap of 4096"),
], ids=["order", "nodes"])
def test_quadrature_caps_come_before_numpy(workdir, prefix, argv, what):
    # leggauss(100000) would ask numpy for 74.5 GiB
    argv = ["state-check", *argv]
    proc = child(prefix + f"import sys, gelfand_lab.cli; "
                 f"sys.exit(gelfand_lab.cli.main({argv!r}))", workdir)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {what}\n"
