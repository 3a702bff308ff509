"""Fuzz the command line over argv: every run ends with exit 0, 1 or 2.

Subcommands and their flags come from ``build_parser``.  Each value is drawn
from a small valid pool or from a hostile one: empty, huge, negative,
Unicode digits, oversized literals, malformed text.  ``cli.main`` runs in
process against presentation files in a temporary directory; argparse ends
a usage error with SystemExit, which counts as the exit code it carries.
A second test appends a word to each valid text value and expects exit 1
with a parse error at that word, before the value is checked or built.

This file imports neither numpy nor ``tests/helpers``, so it also runs
where numpy is not installed.  There a float command must exit 1 with an
error that names numpy, which the no-exception check below enforces: any
other import failure would escape ``main``.
"""

import argparse
import contextlib
import io
import re
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gelfand_lab.cli import build_parser, main

FILES = {
    "line.star": "algebra Line ; generator x : selfadjoint ;",
    "disk.star": "algebra Disk ; generator z : free ;",
    "circle.star": "algebra C ; generator z : free ; relation z*adj(z) - 1 ;",
    "w.star": "algebra W ; generator w : free ; relation w*adj(w) - 1 ;",
    "nil.star": "algebra Nil ; generator x : selfadjoint ; relation x^3 ;",
    "sphere.star": "algebra S ; generator x, y, z : selfadjoint ; "
                   "relation x^2 + y^2 + z^2 - 1 ;",
    "plain.alg": "algebra P ; generator x : free ;",
    "zero.star": "algebra Z ; generator x : selfadjoint ; relation 2 ;",
    "empty.star": "",
    "broken.star": "algebra B ; generator x : ;",
    "unicode.star": "algebra U ; generator x : selfadjoint ; relation x^٣ ;",
    "huge.star": f"algebra H ; generator x : selfadjoint ; relation x - {'9' * 5000} ;",
}
LATIN1 = "latin1.star"  # not UTF-8 text

# A value starting with "@" names a file in the test directory ("@" alone is
# the directory itself, "@missing.star" a file that does not exist).
BAD_FILES = ["@zero.star", "@empty.star", "@broken.star", "@unicode.star",
             "@huge.star", f"@{LATIN1}", "@", "@missing.star"]

# Valid values come from one world at a time, so generator names, files and
# states fit together often enough to reach the deep paths.
WORLDS = {
    "line": {
        "presentation": ["@line.star", "@nil.star"],
        "source": ["@line.star"], "target": ["@line.star"],
        "map": ["x -> x^2", "x -> 1"],
        "poly": ["x", "x^2 - 1", "(x+1)^3", "1/2"],
        "char": ["x = 3", "x = 1/2", "x = 0.25"],
        "box": ["x = [0, 1]", "x = [-1, 1]", "x = [1, 0]"],
        "state": ["gaussian", "state gaussian(x)",
                  "state atomic { (x = 1/2) : 1/2 ; (x = -1) : 1/2 }",
                  "state atomic { (x = 0.5) : 1 }",
                  'state density "uniform" on [0, 1] order 3',
                  'state density "uniform" on [0, 1] order 100000'],
        "op": ["x"], "pair": ["x"],
    },
    "circle": {
        "presentation": ["@disk.star", "@circle.star"],
        "source": ["@w.star", "@circle.star"], "target": ["@circle.star"],
        "map": ["w -> z", "z -> adj(z)", "w -> z^2", "w -> z , adj(w) -> adj(z)"],
        "poly": ["z", "z*adj(z)", "(1+2i)*z^2 + adj(z)"],
        "char": ["z = (3/5+4/5i)", "z = (0.6+0.8i)", "z = 2"],
        "box": ["z = [-1, 1] x [-1, 1]", "z = [0, 1/2] x [0, 1]"],
        "state": ["state atomic { (z = (3/5+4/5i)) : 1/2 ; (z = -1) : 1/2 }",
                  "state atomic { (z = 1) : 1 }",
                  'state density "uniform" on [-1, 1] x [0, 1] order 2',
                  'state density "uniform" on [-1, 1] x [0, 1] order 1000'],
        "op": ["z", "adj(z)"], "pair": ["z"],
    },
    "sphere": {
        "presentation": ["@sphere.star"],
        "source": ["@line.star"], "target": ["@sphere.star"],
        "map": ["x -> x*y + z", "x -> 1"],
        "poly": ["x*y + z", "x^2 + y^2", "z^3"],
        "char": ["x = 1 ; y = 0 ; z = 0", "x = 3/5 ; y = 4/5 ; z = 0",
                 "x = 0 , y = 1 , z = 0"],
        "box": ["x = [-1, 1] ; y = [0, 1] ; z = [0, 1]",
                "x = [-1, 1] , y = [-1, 1] , z = [0, 1]"],
        "state": ["state atomic { (x = 1 ; y = 0 ; z = 0) : 1 }",
                  "state atomic { (x = 0 ; y = 3/5 ; z = 4/5) : 1/2 ; "
                  "(x = 0 ; y = 0 ; z = -1) : 1/2 }"],
        "op": ["x", "y", "z"], "pair": ["x"],
    },
}
SHARED = {
    ("free", "presentation"): ["@plain.alg"],
    ("approx", "target"): ["square", "abs-shift", "exp", "sine"],
    "degree": ["0", "1", "2", "3", "4"],
    "epsilon": ["0.5", "0.1", "0.01", "0", "-1", "nan", "inf"],
    "max_degree": ["4", "16"],
    "resolution": ["3", "5", "17"],
    "bound": ["1", "4", "16"],
    "samples": ["1", "10", "100"],
    "seed": ["0", "7"],
    "tolerance": ["1e-6", "1e-12", "0", "-1", "nan", "inf"],
    "mode": ["star", "algebra"],
}

HOSTILE = [
    "", " ", "-1", "-7", "0", "٣", "１２", "9" * 5000,
    "99999999999", "1e999", "-1e999", "nan", "inf", "1/0", "0.0000",
    "((((", "x^", "x^99999999999", f"x^{'9' * 5000}", "(x+1)^3000",
    "(" * 300 + "x" + ")" * 300, "adj(", "adj(adj(x))", "z = (1+",
    "x = 1e-400", "x = [1, 2", "state atomic {", "state atomic { }",
    "x ->", "#", "\x00", "é", "x" * 300,
]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return dict(sub.choices)


SUBCOMMANDS = _subcommands()


def _pools(command: str, dest: str, world: dict) -> tuple[list, list]:
    """(valid, hostile) values for one argument of one command."""
    valid = SHARED.get((command, dest)) or world.get(dest) or SHARED.get(dest)
    if valid and valid[0].startswith("@"):  # a file
        return valid, BAD_FILES + HOSTILE
    return valid or HOSTILE, HOSTILE


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    world = WORLDS[draw(st.sampled_from(sorted(WORLDS)))]
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.nargs == 0:  # --json
            if draw(st.booleans()):
                argv.append(action.option_strings[-1])
            continue
        # nine in ten values from the valid pool, the rest hostile
        valid, hostile = _pools(command, action.dest, world)
        value = st.integers(0, 9).flatmap(
            lambda k, v=valid, h=hostile: st.sampled_from(v if k else h))
        if not action.option_strings:
            argv.append(draw(value))
            continue
        # a required flag is left out one time in twenty; "--flag=value"
        # keeps a value such as "-1e999" from reading as a flag
        wanted = st.integers(0, 19).map(bool) if action.required \
            else st.booleans()
        repeats = 2 if isinstance(action, argparse._AppendAction) else 1
        for _ in range(repeats):
            if draw(wanted):
                argv.append(f"{action.option_strings[-1]}={draw(value)}")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / LATIN1).write_bytes(b"algebra L\xe9 ; generator x : selfadjoint ;")
    return directory


def _resolve(token: str, directory) -> str:
    """The token with an "@name" value replaced by the path of that file."""
    flag, sep, value = token.partition("=") if token.startswith("--") \
        else ("", "", token)
    return flag + sep + (str(directory / value[1:]) if value.startswith("@")
                         else value)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=timedelta(seconds=10), derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_cli_exits_zero_one_or_two(fuzz_dir, argv):
    argv = [_resolve(token, fuzz_dir) for token in argv]
    code, _, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1 and "numpy" in err:
        assert "this float computation needs numpy" in err


def _junk_cases():
    """(argv, flag, value): each valid char, box, state, map and poly of
    WORLDS as the last flag of a command that reads it."""
    for world in WORLDS.values():
        char, poly = world["char"][0], world["poly"][0]
        for pres in world["presentation"]:
            yield from ((["spectrum-check", pres], "--char", v) for v in world["char"])
            yield from ((["seminorm", pres, f"--poly={poly}"], "--box", v)
                        for v in world["box"])
            yield from ((["state-check", pres], "--state", v) for v in world["state"])
            yield from ((["eval", pres, f"--char={char}"], "--poly", v)
                        for v in world["poly"])
        for source in world["source"]:
            yield from ((["pushforward", f"--source={source}",
                          f"--target={world['target'][0]}", f"--char={char}"], "--map", v)
                        for v in world["map"])


def test_trailing_input_is_reported_before_anything_is_built(fuzz_dir):
    # A value read to its end is then checked or built; the same value with
    # " junk" after it is a parse error there, whatever the value alone
    # would have built or rejected, unless the value alone is a parse error
    # earlier in the text.
    trailing = 0
    for argv, flag, value in _junk_cases():
        argv = [_resolve(token, fuzz_dir) for token in argv]
        _, _, alone = run(argv + [f"{flag}={value}"])
        code, out, err = run(argv + [f"{flag}={value} junk"])
        assert code == 1 and out == "", (argv, flag, value, code, err)
        if re.match(r"error: \d+:\d+: ", alone):
            assert err == alone, (argv, flag, value)
        else:
            column = len(value) + 2
            assert err == f"error: 1:{column}: unexpected trailing input 'junk'\n", \
                (argv, flag, value, alone)
            trailing += 1
    assert trailing >= 60
