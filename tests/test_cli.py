import json
import math
import os
import subprocess
import sys

import pytest

from gelfand_lab import approx, spectrum, states
from gelfand_lab.cli import main

LINE = "algebra Line ;\ngenerator x : selfadjoint ;\n"
DISK = "algebra Disk ;\ngenerator z : free ;\n"
NIL = "algebra Nil ;\ngenerator x : selfadjoint ;\nrelation x^2 ;\n"
PLANE = "algebra Plane ;\ngenerator x, y : selfadjoint ;\n"
BIG = "1" + "0" * 400
HUGE = "1" * 5000  # past the 4300-digit literal cap
LONG = "7" * 3000  # a literal whose square is past the 4300-digit print limit
TINY = "1/1" + "0" * 200  # exact, and its square is below the float range
SQUARE = f"algebra Sq ;\ngenerator x : selfadjoint ;\nrelation x - ({LONG})^2 ;\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in (("line", LINE), ("disk", DISK), ("nil", NIL),
                       ("plane", PLANE), ("bigsquare", SQUARE)):
        f = tmp_path / f"{name}.star"
        f.write_text(text, encoding="utf-8")
        paths[name] = str(f)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_parse_text_and_json(files, capsys):
    code, out, _ = run(capsys, "parse", files["disk"])
    assert code == 0
    assert "generator z : free (partner adj(z))" in out
    code, doc, _ = run_json(capsys, "parse", files["disk"])
    assert code == 0
    assert doc["schema"] == "gelfand-lab/1"
    assert doc["command"] == "parse"
    assert len(doc["inputs_digest"]["sha256"]) == 64
    assert doc["presentation"]["mode"] == "star-algebra"


def test_parse_error_exit_one(files, capsys, tmp_path):
    bad = tmp_path / "bad.star"
    bad.write_text("algebra ;", encoding="utf-8")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "parse", str(tmp_path / "missing.star"))
    assert code == 1


def test_usage_error_exit_one(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", files["line"], "--nonsense"])
    assert exc.value.code == 1


def test_unreadable_input_exit_one(capsys, tmp_path):
    latin1 = tmp_path / "latin1.star"
    latin1.write_bytes(b"algebra L\xe9 ; generator x : selfadjoint ;")
    for path in (str(latin1), "nul\x00.star"):
        code, out, err = run(capsys, "parse", path)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {path!r}")


def test_gns_on_the_zero_algebra(capsys, tmp_path):
    # the relation 2 = 0 leaves no basis monomial: every matrix is 0 x 0
    zero = tmp_path / "zero.star"
    zero.write_text("algebra Z ; generator x : selfadjoint ; relation 2 ;",
                    encoding="utf-8")
    code, doc, _ = run_json(capsys, "gns", str(zero), "--state", "gaussian")
    assert code == 0
    assert doc["basis"] == [] and doc["rank"] == 0
    assert doc["operators"] == {"x": {"matrix": [], "eigenvalues": []}}


def test_free_and_underlying(files, capsys, tmp_path):
    plain = tmp_path / "plain.alg"
    plain.write_text("algebra P ;\ngenerator x : free ;\n", encoding="utf-8")
    code, doc, _ = run_json(capsys, "free", str(plain))
    assert code == 0
    names = [g["name"] for g in doc["result"]["generators"]]
    assert names == ["x", "adj(x)"]
    code, doc, _ = run_json(capsys, "underlying", files["disk"])
    assert code == 0
    assert all(g["kind"] == "plain" for g in doc["result"]["generators"])


def test_spectrum_check_verdicts(files, capsys):
    code, doc, _ = run_json(capsys, "spectrum-check", files["line"],
                            "--char", "x = 2.5")
    assert code == 0
    assert doc["valid"] is True
    code, doc, _ = run_json(capsys, "spectrum-check", files["line"],
                            "--char", "x = (0+1i)")
    assert code == 2
    assert doc["valid"] is False
    assert doc["violation"] == "reality"


def test_eval_exact_value(files, capsys):
    code, doc, _ = run_json(capsys, "eval", files["disk"],
                            "--poly", "z*adj(z)",
                            "--char", "z = (1/2+1/2i)")
    assert code == 0
    assert doc["value"] == "1/2"
    assert doc["exact"] is True


def test_eval_invalid_character_exit_two(files, capsys):
    code, out, err = run(capsys, "eval", files["line"],
                         "--poly", "x", "--char", "x = (0+1i)")
    assert code == 2
    assert "error:" in err


def test_pushforward(files, capsys):
    code, doc, _ = run_json(capsys, "pushforward",
                            "--source", files["line"],
                            "--target", files["line"],
                            "--map", "x -> x^2",
                            "--char", "x = 3")
    assert code == 0
    assert doc["pushforward"]["x"] == "9"


def test_pushforward_honours_tolerance(tmp_path, capsys):
    circle = "algebra C ;\ngenerator z : free ;\nrelation z*adj(z) - 1 ;\n"
    (tmp_path / "c.star").write_text(circle, encoding="utf-8")
    (tmp_path / "w.star").write_text(circle.replace("z", "w"), encoding="utf-8")
    # |z|^2 - 1 is about 1.6e-7: inside 1e-6, outside the default 1e-12,
    # where the character itself is already rejected
    pushforward = ["pushforward", "--source", str(tmp_path / "w.star"),
                   "--target", str(tmp_path / "c.star"), "--map", "w -> z",
                   "--char", "z = (0.6+0.8000001i)"]
    code, doc, _ = run_json(capsys, *pushforward, "--tolerance", "1e-6")
    assert code == 0
    assert doc["pushforward"]["w"] == [0.6, 0.8000001]
    code, _, err = run(capsys, *pushforward)
    assert code == 2
    assert "relation 0 is violated" in err


def test_nilpotent_with_radical_sampling(files, capsys):
    code, doc, _ = run_json(capsys, "nilpotent", files["nil"], "--poly", "x")
    assert code == 0
    assert doc["nilpotent"] is True and doc["exponent"] == 2
    code, doc, _ = run_json(capsys, "nilpotent", files["line"], "--poly", "x",
                            "--box", "x = [-1, 1]", "--samples", "50",
                            "--seed", "9")
    assert code == 0
    assert doc["nilpotent"] is False
    assert doc["radical"]["vanishes"] is False
    assert doc["radical"]["witness"] is not None


@pytest.mark.parametrize("box", [[], ["--box", "x = [-1, 1]", "--samples", "5"]],
                         ids=["plain", "box"])
def test_nilpotent_searches_once(files, capsys, monkeypatch, box):
    calls = []
    search = spectrum.is_nilpotent

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(spectrum, "is_nilpotent", counted)
    code, doc, _ = run_json(capsys, "nilpotent", files["line"], "--poly", "x", *box)
    assert code == 0 and doc["nilpotent"] is False
    assert len(calls) == 1


def test_seminorm_report(files, capsys):
    code, doc, _ = run_json(capsys, "seminorm", files["line"],
                            "--poly", "x^2 - 1", "--box", "x = [0, 2]")
    assert code == 0
    assert doc["lower"] == 3.0
    assert doc["upper"] == 5.0
    assert doc["upper_exact"] == "5"
    assert doc["exact"] is True


def test_approx_fixed_degree(capsys):
    code, doc, _ = run_json(capsys, "approx", "--target", "square",
                            "--degree", "2")
    assert code == 0
    assert doc["poly"] == "1/2*t^2 + 1/2*t"
    assert doc["error"]["lower"] == 0.125
    assert doc["error"]["upper"] == 0.125


def test_approx_epsilon_search(capsys):
    code, doc, _ = run_json(capsys, "approx", "--target", "abs-shift",
                            "--epsilon", "0.08", "--resolution", "501")
    assert code == 0
    assert doc["achieved"] is True
    assert doc["error"]["upper"] <= 0.08
    for argv in (["approx", "--target", "square"],
                 ["approx", "--target", "square", "--degree", "0",
                  "--epsilon", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "--degree" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon, max_degree, degree", [
    ("0.04", "7", 7), ("0.1", "3", 3)])
def test_approx_epsilon_search_tries_the_max_degree(capsys, epsilon, max_degree, degree):
    # the doubling 4, 8, ... skips the cap itself unless it is tried last
    code, doc, _ = run_json(capsys, "approx", "--target", "square",
                            "--epsilon", epsilon, "--max-degree", max_degree)
    assert code == 0
    assert doc["achieved"] is True and doc["degree"] == degree


@pytest.mark.parametrize("argv, message", [
    (["approx", "--target", "square", "--epsilon", "0.1", "--max-degree", "0"],
     "max degree of at least 1, not 0"),
    (["approx", "--target", "square", "--epsilon", "0.1", "--max-degree", "-5"],
     "max degree of at least 1, not -5"),
    (["gns", "line", "--state", "state gaussian(x)", "--degree", "-1"],
     "degree must be nonnegative"),
    (["state-check", "line", "--state", "state gaussian(x)", "--degree", "-1"],
     "degree must be nonnegative"),
    (["nilpotent", "nil", "--poly", "x", "--bound", "0"],
     "nilpotency bound must be at least 1, not 0"),
    (["nilpotent", "nil", "--poly", "x", "--bound", "-1"],
     "nilpotency bound must be at least 1, not -1"),
], ids=["approx-max-degree-0", "approx-max-degree-neg", "gns-degree-neg",
        "state-check-degree-neg", "nilpotent-bound-0", "nilpotent-bound-neg"])
def test_unusable_counts_exit_one(files, capsys, argv, message):
    # a search cap or bound below 1, or a Gram degree below 0, leaves nothing
    # to try: unusable input (exit 1), not a mathematical rejection (exit 2)
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("epsilon", ["-1", "0", "nan", "inf"])
def test_approx_epsilon_must_be_positive_and_finite(capsys, monkeypatch, epsilon):
    # no degree reaches such an epsilon: it is rejected before the search
    def no_search(*args, **kwargs):
        raise AssertionError("the degree search ran")
    monkeypatch.setattr(approx, "bernstein_approx", no_search)
    code, out, err = run(capsys, "approx", "--target", "exp",
                         f"--epsilon={epsilon}", "--max-degree", "64")
    assert code == 1
    assert out == ""
    assert "epsilon must be positive and finite" in err


@pytest.mark.parametrize("tolerance", ["inf", "-1", "nan", "-1e-300", "1e999", "x"])
def test_tolerance_must_be_nonnegative_and_finite(tmp_path, capsys, tolerance):
    circle = tmp_path / "c.star"
    circle.write_text("algebra C ;\ngenerator z : free ;\nrelation z*adj(z) - 1 ;\n",
                      encoding="utf-8")
    # an infinite tolerance accepted z = 5 on the circle as valid
    with pytest.raises(SystemExit) as exc:
        main(["spectrum-check", str(circle), "--char", "z = (5.0+0i)",
              f"--tolerance={tolerance}"])
    assert exc.value.code == 1
    assert "tolerance must be a nonnegative finite number" in capsys.readouterr().err
    code, out, _ = run(capsys, "spectrum-check", str(circle), "--char",
                       "z = (0.6+0.8i)", "--tolerance", "0")
    assert code == 0 and out.startswith("valid")


@pytest.mark.parametrize("argv", [
    ["approx", "--target", "square", "--degree", "2", "--resolution", "0"],
    ["approx", "--target", "square", "--degree", "2", "--resolution", "-1"],
    ["approx", "--target", "abs-shift", "--epsilon", "0.1", "--resolution", "1"],
    ["eval", "line", "--char", "x=1e400", "--poly", "x"],
    ["eval", "disk", "--char", "z=(1+1e400i)", "--poly", "z"],
    ["eval", "plane", "--char", f"x={BIG} ; y=0.5", "--poly", "x"],
    ["state-check", "plane", "--degree", "1",
     "--state", f"state atomic {{ (x = {BIG} ; y = 0.5) : 1 }}"],
    ["state-check", "line", "--degree", "1",
     "--state", 'state density "uniform" on [0, 0] order 2'],
    ["eval", "line", "--poly", "x^2000", "--char", "x = 2.5"],
    ["nilpotent", "line", "--poly", "x", "--box", "x = [0, 1]", "--samples", "0"],
    ["nilpotent", "line", "--poly", "x", "--box", "x = [0, 1]", "--samples", "-3"],
    ["eval", "plane", "--poly", "x*y", "--char", "x = 1e200 ; y = 1e200", "--json"],
    ["seminorm", "line", "--poly", "x^200", "--box", "x = [0, 1000000]", "--json"],
    ["gns", "line", "--degree", "8", "--json",
     "--state", "state atomic { (x = 1000000000000000000000000) : 1 }"],
    ["nilpotent", "line", "--poly", "x^300", "--box", "x = [0, 10000000]",
     "--samples", "3", "--json"],
    ["nilpotent", "line", "--poly", "x^2", "--box", "x = [0, 1e200]",
     "--samples", "3", "--json"],
    ["eval", "line", "--poly", "x^\u00b2", "--char", "x=1"],
    ["eval", "line", "--poly", HUGE, "--char", "x=1"],
    ["eval", "line", "--poly", f"x^{HUGE}", "--char", "x=1"],
    ["eval", "line", "--poly", "x", "--char", "x=1e99999999999"],
    ["eval", "line", "--poly", "x", "--char", "x=1.5e-99999999999"],
    ["seminorm", "line", "--poly", "x", "--box", "x = [0, 1e-99999999999]"],
    ["eval", "line", "--poly", "x^2", "--char", f"x={LONG}"],
    ["eval", "line", "--poly", "x^2", "--char", f"x={LONG}", "--json"],
    ["parse", "bigsquare"],
    ["seminorm", "line", "--poly", "x^2", "--box", f"x = [0, 1/{LONG}]"],
    ["gns", "line", "--degree", "1",
     "--state", f"state atomic {{ (x = 0) : 1/2 ; (x = {TINY}) : 1/2 }}"],
], ids=["approx-res0", "approx-res-neg", "approx-epsilon-res1", "float-overflow",
        "complex-overflow", "int-beside-float", "int-beside-float-support",
        "uniform-zero-volume", "float-power-overflow", "samples-zero",
        "samples-negative", "float-product-overflow", "seminorm-overflow",
        "gns-operator-overflow", "radical-power-overflow",
        "radical-box-overflow", "unicode-digit-exponent", "huge-literal",
        "huge-exponent", "huge-float-exponent", "huge-negative-exponent",
        "huge-box-exponent", "long-exact-value", "long-exact-value-json",
        "long-relation-coefficient", "long-upper-exact",
        "gns-length-underflow"])
def test_bad_numbers_exit_one_without_traceback(files, argv):
    argv = [files.get(a, a) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "gelfand_lab.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Infinity" not in proc.stdout and "NaN" not in proc.stdout


@pytest.mark.parametrize("command", ["gns", "state-check"])
def test_gns_basis_cap_exits_one_at_once(files, command):
    # 3001 basis monomials is past the cap; before it this ran for minutes
    proc = subprocess.run([sys.executable, "-m", "gelfand_lab.cli", command,
                           files["line"], "--state", "gaussian",
                           "--degree", "3000"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert "GNS basis of irreducible monomials up to degree 3000" in proc.stderr
    assert "exceeds the cap of 160" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exact_gns_work_cap_exits_one_at_once(files):
    # eight rational atoms at degree 159 ran for 108 s before this cap
    atoms = " ; ".join(f"(x = {k}/{d}) : 1/8" for k, d in
                       enumerate((5, 11, 17, 23, 29, 37, 43, 53), start=1))
    proc = subprocess.run([sys.executable, "-m", "gelfand_lab.cli", "gns",
                           files["line"], "--state", f"state atomic {{ {atoms} }}",
                           "--degree", "159"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert "exact GNS work 160^2 * 8 * 22656^2 exceeds the cap of " \
        f"{states.MAX_GNS_WORK}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, what", [
    (["seminorm", "disk", "--poly", "z^3", "--box", "z=[-1,1]x[-1,1]",
      "--resolution", "100000"], "grid table of 100000^2 points"),
    (["seminorm", "line", "--poly", "x", "--box", "x=[0,1]",
      "--resolution", "100000000"], "grid table of 100000000^1 points"),
    (["seminorm", "plane", "--poly", "x*y", "--box", "x=[0,1] ; y=[0,1]",
      "--resolution", "2000"], "grid of 2000^2 points"),
    (["approx", "--target", "square", "--degree", "4",
      "--resolution", "100000000"], "error grid of 100000000^1 points"),
    (["approx", "--target", "square", "--degree", "1000",
      "--resolution", "20000"], "basis matrix of 20000*1001 entries"),
    (["approx", "--target", "square", "--degree", "1030",
      "--resolution", "3"], "Bernstein degree 1030"),
    (["approx", "--target", "square", "--degree", "100000"],
     "Bernstein degree 100000"),
    (["approx", "--target", "exp", "--epsilon", "1e-300",
      "--max-degree", "100000000"], "up to degree 100000000"),
    (["eval", "disk", "--poly", "(z+adj(z)+1)^3000", "--char", "z=1"],
     "power expansion to C(3000*1 + 2, 2) monomials"),
    (["nilpotent", "line", "--poly", "x", "--box", "x=[0,1]",
      "--samples", "100000000"], "sample count 100000000"),
    (["nilpotent", "line", "--poly", "x+1", "--bound", "100000"],
     "nilpotency bound 100000"),
    (["nilpotent", "disk", "--poly", "z+adj(z)+1", "--bound", "100"],
     "power 70 with 2556 terms"),
], ids=["disk-table", "line-table", "plane-grid", "error-grid", "basis-matrix",
        "degree-past-cap", "degree-huge", "search-past-cap", "power-huge",
        "samples-huge", "nilpotent-bound", "nilpotent-terms"])
def test_size_caps_exit_one_at_once(files, argv, what):
    # before the caps these ended in OverflowError, MemoryError or a hang
    argv = [files.get(a, a) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "gelfand_lab.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert what in proc.stderr and "exceeds the cap of" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("digits, code", [(700, 1), (600, 0)])
def test_literal_cap_follows_lowered_interpreter_limit(files, digits, code):
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
    proc = subprocess.run([sys.executable, "-m", "gelfand_lab.cli", "eval",
                           files["line"], "--poly", "x", "--char",
                           "x=" + "7" * digits],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code:
        assert "error:" in proc.stderr and "too long" in proc.stderr
        assert "exceed 640" in proc.stderr
    else:
        assert proc.stdout == f"value: {'7' * digits}\n"


@pytest.mark.parametrize("command", ["seminorm", "nilpotent"])
def test_root_in_range_of_overflowing_square(files, capsys, command):
    # |x| on [0, 1e200] fits in a float although its square does not
    code, doc, _ = run_json(capsys, command, files["line"], "--poly", "x",
                            "--box", "x = [0, 1e200]")
    assert code == 0
    if command == "seminorm":
        assert doc["lower"] == doc["upper"] == 1e200
    else:
        assert 1e199 < doc["radical"]["max_abs"] <= 1e200


@pytest.mark.parametrize("opener", ["(", "adj("])
def test_deep_nesting_exit_one_without_traceback(files, opener):
    poly = opener * 1200 + "x" + ")" * 1200
    proc = subprocess.run([sys.executable, "-m", "gelfand_lab.cli", "eval",
                           files["line"], "--char", "x=1", "--poly", poly],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "nests deeper than" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_wirtinger(files, capsys):
    code, doc, _ = run_json(capsys, "wirtinger", files["disk"],
                            "--poly", "z^2 + z*adj(z)")
    assert code == 0
    assert doc["derivative"] == "z"
    assert doc["holomorphic"] is False
    code, doc, _ = run_json(capsys, "wirtinger", files["disk"],
                            "--poly", "z^3 - 2")
    assert doc["holomorphic"] is True


def test_state_check(files, capsys):
    code, doc, _ = run_json(capsys, "state-check", files["line"],
                            "--state", "gaussian", "--degree", "3")
    assert code == 0
    assert doc["kind"] == "analytic"
    assert doc["gram_psd"] is True
    assert doc["rank"] == 4
    code, doc, _ = run_json(
        capsys, "state-check", files["line"],
        "--state", "state atomic { (x = 1) : 1/2 ; (x = -1) : 1/2 }",
        "--degree", "4")
    assert code == 0
    assert doc["rank"] == 2 and doc["null_dimension"] == 3


@pytest.mark.parametrize("command", ["gns", "state-check"])
def test_state_with_exact_and_float_atoms(files, capsys, command):
    # one exact and one float atom: the state, and so its moments, are float
    code, doc, _ = run_json(
        capsys, command, files["line"],
        "--state", "state atomic { (x = 1/2) : 1/2 ; (x = 0.5) : 1/2 }",
        "--degree", "2")
    assert code == 0
    assert doc["rank"] == 1


def test_state_check_invalid_support_exit_two(files, capsys):
    code, _, err = run(capsys, "state-check", files["nil"],
                       "--state", "state atomic { (x = 1) : 1 }")
    assert code == 2


def test_gns_hermite_golden(files, capsys):
    code, doc, _ = run_json(capsys, "gns", files["line"],
                            "--state", "gaussian", "--degree", "5")
    assert code == 0
    assert doc["basis"] == ["1", "x", "x^2", "x^3", "x^4", "x^5"]
    assert doc["rank"] == 6
    assert doc["gram"][0][:3] == ["1", "0", "1"]
    # last orthonormal vector is He_5 / sqrt(120)
    last = doc["orthonormal"][5]
    norm = math.sqrt(120.0)
    expected = [0.0, 15 / norm, 0.0, -10 / norm, 0.0, 1 / norm]
    for got, want in zip(last, expected):
        assert got[0] == pytest.approx(want, abs=1e-10)
        assert got[1] == pytest.approx(0.0, abs=1e-12)
    matrix = doc["operators"]["x"]["matrix"]
    for i in range(6):
        for j in range(6):
            expected_entry = math.sqrt(max(i, j)) if abs(i - j) == 1 else 0.0
            assert matrix[i][j][0] == pytest.approx(expected_entry, abs=1e-10)


def test_gns_reports_a_repeated_op_once(files, capsys):
    argv = ["gns", files["line"], "--state", "gaussian", "--degree", "2"]
    _, once, _ = run(capsys, *argv, "--op", "x")
    code, twice, _ = run(capsys, *argv, "--op", "x", "--op", "x")
    assert code == 0 and twice == once
    assert twice.count("multiplication by x:") == 1


def test_gns_two_point_null_section(files, capsys):
    code, doc, _ = run_json(
        capsys, "gns", files["line"],
        "--state", "state atomic { (x = 1) : 1/2 ; (x = -1) : 1/2 }",
        "--degree", "4")
    assert code == 0
    assert doc["null_space"] == ["x^2 - 1", "x^3 - x", "x^4 - 1"]
    eigs = doc["operators"]["x"]["eigenvalues"]
    assert [e[0] for e in eigs] == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_json_determinism(files, capsys):
    argv = ["gns", files["line"], "--state", "gaussian", "--degree", "4",
            "--json"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    argv = ["nilpotent", files["line"], "--poly", "x", "--box", "x = [-1, 1]",
            "--samples", "100", "--seed", "4", "--json"]
    main(list(argv))
    out1 = capsys.readouterr().out
    main(list(argv))
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "gelfand_lab.cli", "parse", files["line"]],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generator x : selfadjoint" in proc.stdout


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(LINE))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0
    assert "selfadjoint" in out
