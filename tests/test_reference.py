"""Every benchmark catalog job reproduces its stored reference result.

The benchmark's references (``perfbench/reference/``) pin the exact results
and the byte-identical ``--json`` reports of the library.  This runs each
catalog job of the four workloads once and checks it with the benchmark's
own canonical form and matcher; ``cli-cold`` jobs run in process through
``cli.main`` in a directory holding their input files.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import jobs  # noqa: E402
import libjobs  # noqa: E402
import run  # noqa: E402

from gelfand_lab.cli import main  # noqa: E402


def cli_report(params: dict, workdir: Path, monkeypatch) -> str:
    workdir.mkdir()
    for name, text in params["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(workdir)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(params["argv"])
    assert code == 0, params["argv"]
    return out.getvalue()


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_catalog_jobs_match_reference(workload, tmp_path, monkeypatch):
    reference = run.load_reference(workload)
    lib = libjobs.Library()
    mismatched = []
    for key, params in jobs.catalog(workload).items():
        if workload == "cli-cold":
            workdir = tmp_path / key.replace("/", "-")
            exact, floats = cli_report(params, workdir, monkeypatch), []
        else:
            exact, floats, _ = libjobs.canonical(params, libjobs.build(lib, params)())
        if not run.matches(reference.get(key), exact, floats):
            mismatched.append(key)
    assert not mismatched
