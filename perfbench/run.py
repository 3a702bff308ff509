"""gelfand-lab benchmark: seeded closed-loop job workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

One process, one job in flight.  With ``--trace 0`` the run times jobs for
S seconds and reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed prefix of the same job stream four times (untraced, with spans,
untraced again, with scalar operation counting) and reports the per-layer
metrics.  Every job result is checked against
``perfbench/reference/<workload>.json``.  Every time is scaled to a fixed
reference machine speed (``SpeedGauge``).  The last line of stdout is the
JSON result.

Other modes:

    --regenerate [--workload W]       rewrite the stored reference results
    --series OUT [--seeds 1-10]       run every workload on several seeds
    --compare BASE.json NEW.json      verdict per workload and metric

The library is imported from ``src/`` of the checkout that holds this
directory, and the CLI is run as ``python -m gelfand_lab.cli``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# Measure the library as an installed package runs: with its bytecode
# cache, whatever the caller's PYTHONDONTWRITEBYTECODE says.
sys.dont_write_bytecode = False

import jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

# Later performance claims are checked on this seed; no tuning used it.
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
# Blocks of the job stream run by each pass of a traced run.
TRACE_BLOCKS = {"sup-brackets": 2, "ring-rewrite": 30, "gns-models": 5, "cli-cold": 1}
# Warm-up jobs: the lightest instance of every job kind in the workload.
WARMUP = {
    "sup-brackets": ["line-65/0", "disk-9/0", "pair2-3/0", "bern-32/0"],
    "ring-rewrite": ["circle-pow-3/0", "circle-prod/0", "sphere-pow-3/0", "apply-3/0",
                     "nilpotent-3/0", "assemble-2/0"],
    "gns-models": ["atomic-line-4/0", "atomic-disk-2/0", "gauss-line-4/0",
                   "quad-line-4/0", "quad-disk-2/0"],
    "cli-cold": ["parse/0"],
}
LAYERS = ["parsing", "algebra", "spectrum", "approx", "states", "cli", "startup", "bench"]

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def library_env() -> dict:
    """Child environment: the library on the path, bytecode caching on."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=library_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S, check=False)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# The shared machines this runs on change speed by up to 1.8x over minutes
# (a fixed job mix ran at 146 to 261 jobs/s in one series), which would
# swamp any change to the program.  Every time metric is therefore
# reported at a fixed reference speed: the raw time is scaled by
# CALIBRATION_REF_S over the current time of a fixed pure-Python loop that
# does not touch the library, sampled between jobs.  On the reference
# machine (2-vCPU x86_64 VM, Python 3.11.7) the loop takes about
# CALIBRATION_REF_S, so reported times stay close to wall times there.
CALIBRATION_REF_S = 0.0045
CALIBRATION_EVERY_S = 0.2


def calibration_work() -> Fraction:
    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 600):
        f = Fraction(i, i + 7) * Fraction(3, i + 1)
        acc += f
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + f
    return acc


class SpeedGauge:
    """Reference time over current time of the calibration loop."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.factors: list[float] = []
        # the first calls run cold; five samples up front leave three warm ones
        for _ in range(5):
            self._sample()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        calibration_work()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def factor(self) -> float:
        """Scale for a time measured now; samples the loop at most every
        CALIBRATION_EVERY_S and takes the median of the last three."""
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self._sample()
        f = CALIBRATION_REF_S / statistics.median(self.samples[-3:])
        self.factors.append(f)
        return f

    def median_factor(self) -> float:
        return statistics.median(self.factors)


# ---------------------------------------------------------------------------
# sessions: how a workload's jobs are set up, run and checked
# ---------------------------------------------------------------------------

class LibrarySession:
    """Jobs that call the library in this process."""

    def __init__(self, workload: str) -> None:
        self.workload = workload

    def setup(self) -> float:
        """Import, parse and build every job, warm up; returns import seconds."""
        t0 = time.perf_counter()
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import gelfand_lab  # noqa: F401
        import_s = time.perf_counter() - t0
        import libjobs
        self.libjobs = libjobs
        self.lib = libjobs.Library()
        self.params = jobs.catalog(self.workload)
        self.fns = {key: libjobs.build(self.lib, p) for key, p in self.params.items()}
        for key in WARMUP[self.workload]:
            self.fns[key]()
        return import_s

    def run(self, key: str):
        return self.fns[key]()

    def canonical(self, key: str, result) -> tuple[str, list[float], float]:
        return self.libjobs.canonical(self.params[key], result)


class CliSession:
    """Jobs that each start ``python -m gelfand_lab.cli`` afresh."""

    def __init__(self, workload: str) -> None:
        self.workload = workload

    def setup(self) -> float:
        self.params = jobs.catalog(self.workload)
        self.dirs = {}
        base = WORK / "cli"
        for key, p in self.params.items():
            d = base / key.replace("/", "-")
            d.mkdir(parents=True, exist_ok=True)
            for name, text in p["files"].items():
                (d / name).write_text(text, encoding="utf-8")
            self.dirs[key] = d
        for key in WARMUP[self.workload]:
            self.run(key)
        return 0.0

    def argv(self, key: str) -> list[str]:
        return [sys.executable, "-m", "gelfand_lab.cli", *self.params[key]["argv"]]

    def run(self, key: str) -> bytes:
        """The --json report; a non-zero exit is a failed job."""
        return checked_stdout(run_child(self.argv(key), cwd=self.dirs[key]))

    def canonical(self, key: str, result: bytes) -> tuple[str, list[float], float]:
        return result.decode("utf-8", "replace"), [], 0.0


def checked_stdout(proc: subprocess.CompletedProcess) -> bytes:
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return proc.stdout


def make_session(workload: str):
    return CliSession(workload) if workload == "cli-cold" else LibrarySession(workload)


# ---------------------------------------------------------------------------
# reference results
# ---------------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE / f"{workload}.json"


def reference_entry(exact: str, floats: list[float], tol: float) -> dict:
    return {"sha256": sha256(exact.encode()), "floats": floats, "tol": tol}


def matches(entry: dict | None, exact: str, floats: list[float]) -> bool:
    """Exact part by sha256; floats within the stored relative tolerance."""
    if entry is None or sha256(exact.encode()) != entry["sha256"]:
        return False
    expected = entry["floats"]
    if len(floats) != len(expected):
        return False
    scale = max([1.0] + [abs(x) for x in expected])
    return all(abs(a - b) <= entry["tol"] * scale for a, b in zip(floats, expected))


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def check_results(session, reference: dict, keyed_results) -> int:
    """Number of results that raised or differ from the reference."""
    failed = 0
    for key, result in keyed_results:
        if isinstance(result, BaseException):
            failed += 1
            continue
        exact, floats, _ = session.canonical(key, result)
        if not matches(reference.get(key), exact, floats):
            failed += 1
    return failed


def regenerate(workloads: list[str]) -> None:
    REFERENCE.mkdir(exist_ok=True)
    for workload in workloads:
        session = make_session(workload)
        session.setup()
        out = {}
        for key in session.params:
            exact, floats, tol = session.canonical(key, session.run(key))
            out[key] = reference_entry(exact, floats, tol)
        with open(reference_path(workload), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "jobs": out}, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(out)} reference results written")


# ---------------------------------------------------------------------------
# set-up time: fresh processes, median of several
# ---------------------------------------------------------------------------

def setup_probe(workload: str, t_first: int) -> None:
    """Child side (probe.py): set up once and report the times on stdout."""
    t0 = time.perf_counter()
    import_s = make_session(workload).setup()
    setup_s = time.perf_counter() - t0
    print(json.dumps({"t_first": t_first, "import_s": import_s, "setup_s": setup_s}))


def probe_setups(workload: str, count: int, gauge: SpeedGauge) -> list[dict]:
    """Set-up times of fresh processes, scaled to reference speed."""
    out = []
    for _ in range(count):
        scale = gauge.factor()
        t_spawn = time.perf_counter_ns()
        proc = run_child([sys.executable, str(HERE / "probe.py"), workload])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
        record = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        record["python_start_s"] = (record["t_first"] - t_spawn) / 1e9 * scale
        record["import_s"] *= scale
        record["setup_s"] *= scale
        out.append(record)
    return out


# ---------------------------------------------------------------------------
# timed run (end-to-end metrics)
# ---------------------------------------------------------------------------

def timed_run(session, workload: str, seed: int, seconds: float, gauge: SpeedGauge) -> dict:
    """Whole blocks until ``seconds`` have passed; job times are scaled to
    reference speed.

    Results are checked after each block, outside the measured time, and
    then dropped, so neither checking nor retained results (memory, garbage
    collector work) bleed into the metrics.
    """
    reference = load_reference(workload)
    stream = jobs.blocks(workload, seed)
    durations: list[float] = []
    raw: list[float] = []
    attempted = failed = completed = 0
    elapsed = 0.0
    while elapsed < seconds:
        block = []
        t_block = time.perf_counter()
        for key in next(stream):
            scale = gauge.factor()
            t0 = time.perf_counter()
            try:
                result = session.run(key)
            except Exception as exc:  # a failing job is counted, not fatal
                result = exc
            raw.append(time.perf_counter() - t0)
            durations.append(raw[-1] * scale)
            block.append((key, result))
        elapsed += time.perf_counter() - t_block
        attempted += len(block)
        completed += sum(1 for _, r in block if not isinstance(r, BaseException))
        failed += check_results(session, reference, block)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    print(f"raw wall: jobs_per_s {completed / sum(raw):.6g} 1/s, "
          f"job_p50_ms {statistics.median(raw) * 1000:.6g} ms; "
          f"speed factor median {gauge.median_factor():.4g}")
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "jobs_per_s": completed / sum(durations),
            "job_p50_ms": statistics.median(durations) * 1000,
            "job_p90_ms": statistics.quantiles(durations, n=10)[8] * 1000,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        },
    }


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)
# ---------------------------------------------------------------------------

def _run_all(session, keys: list[str], gauge: SpeedGauge) -> tuple[list, float]:
    """Results of every job, and the summed job time at reference speed."""
    out = []
    total = 0.0
    for key in keys:
        scale = gauge.factor()
        t0 = time.perf_counter()
        try:
            out.append((key, session.run(key)))
        except Exception as exc:
            out.append((key, exc))
        total += (time.perf_counter() - t0) * scale
    return out, total


def _operand(enc):
    from fractions import Fraction
    from gelfand_lab.scalars import ComplexRational
    if enc[0] == "i":
        return int(enc[1])
    if enc[0] == "f":
        return Fraction(enc[1])
    return ComplexRational(Fraction(enc[1]), Fraction(enc[2]))


def traced_library(session: LibrarySession, keys: list[str], gauge: SpeedGauge) -> dict:
    import tracing
    from gelfand_lab.scalars import ComplexRational

    plain, wall_plain = _run_all(session, keys, gauge)

    tracer = tracing.Tracer()
    job_nid = tracer.name_id("bench.job")
    patches = tracing.install_spans(tracer)
    traced, scales = [], []
    wall_traced = 0.0
    try:
        for j, key in enumerate(keys):
            scales.append(gauge.factor())
            tracer.current_job = j
            idx = tracer.begin(job_nid)
            try:
                traced.append((key, session.run(key)))
            except Exception as exc:
                traced.append((key, exc))
            finally:
                tracer.end(idx)
            wall_traced += (tracer.t1[idx] - tracer.t0[idx]) / 1e9 * scales[-1]
    finally:
        patches.restore()
    tracing.assert_clean()
    # untraced passes before and after the traced one, so drift cancels
    plain_after, wall_after = _run_all(session, keys, gauge)

    counter = tracing.ScalarCounter()
    patches = tracing.install_counting(counter)
    try:
        counted, _ = _run_all(session, keys, gauge)
    finally:
        patches.restore()
    tracing.assert_clean()

    distinct = total = 0
    for key in keys:
        if session.params[key]["kind"] == "gns":
            d, n2 = session.libjobs.gram_distinct(session.params[key], session.lib)
            distinct += d
            total += n2
    return {
        "results": plain + traced + plain_after + counted,
        "tracer": tracer,
        "time_scale": statistics.median(scales),
        "overhead_ratio": 2 * wall_traced / (wall_plain + wall_after),
        "ops": counter.ops,
        "mul_ns": tracing.probe_ns(counter.samples["mul"], ComplexRational.__mul__)
        * gauge.factor(),
        "add_ns": tracing.probe_ns(counter.samples["add"], ComplexRational.__add__)
        * gauge.factor(),
        "distinct_ratio": distinct / total if total else 0.0,
        "report_bytes": 0,
    }


def traced_cli(session: CliSession, keys: list[str], gauge: SpeedGauge) -> dict:
    import tracing
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from gelfand_lab.scalars import ComplexRational

    plain, wall_plain = _run_all(session, keys, gauge)
    child = [sys.executable, str(HERE / "cli_child.py")]
    out_file = WORK / "cli_child.json"

    tracer = tracing.Tracer()
    job_nid = tracer.name_id("bench.job")
    startup_nid = tracer.name_id("startup")
    traced, starts, imports, scales = [], [], [], []
    report_bytes = 0
    wall_traced = 0.0
    for j, key in enumerate(keys):
        scales.append(gauge.factor())
        t_spawn = time.perf_counter_ns()
        proc = run_child(child + ["trace", str(out_file), "--", *session.params[key]["argv"]],
                         cwd=session.dirs[key])
        t_exit = time.perf_counter_ns()
        wall_traced += (t_exit - t_spawn) / 1e9 * scales[-1]
        try:
            traced.append((key, checked_stdout(proc)))
        except RuntimeError as exc:
            traced.append((key, exc))
            continue
        record = json.loads(out_file.read_text(encoding="utf-8"))
        starts.append((record["t_first"] - t_spawn) / 1e9 * scales[-1])
        imports.append(record["import_s"] * scales[-1])
        report_bytes += record["report_bytes"]
        # job root [spawn, exit] > startup [spawn, import done], child spans
        root = tracer.add(job_nid, -1, j, t_spawn, t_exit)
        tracer.add(startup_nid, root, j, t_spawn, record["t_imported"])
        remap = [tracer.name_id(n) for n in record["names"]]
        offset = len(tracer.t0)
        for nid, parent, a, b in record["spans"]:
            tracer.add(remap[nid], root if parent < 0 else parent + offset, j, a, b)
        for span_name, counter_name, amount in record["work"]:
            tracer.work[(span_name, counter_name)] += amount
    plain_after, wall_after = _run_all(session, keys, gauge)

    counted, ops, samples = [], 0, {"mul": [], "add": []}
    for key in keys:
        proc = run_child(child + ["count", str(out_file), "--", *session.params[key]["argv"]],
                         cwd=session.dirs[key])
        try:
            counted.append((key, checked_stdout(proc)))
        except RuntimeError as exc:
            counted.append((key, exc))
            continue
        record = json.loads(out_file.read_text(encoding="utf-8"))
        ops += record["ops"]
        for kind in samples:
            samples[kind].extend((_operand(a), _operand(b)) for a, b in record["samples"][kind])
    return {
        "results": plain + traced + plain_after + counted,
        "tracer": tracer,
        "time_scale": statistics.median(scales),
        "overhead_ratio": 2 * wall_traced / (wall_plain + wall_after),
        "ops": ops,
        "mul_ns": tracing.probe_ns(samples["mul"], ComplexRational.__mul__) * gauge.factor(),
        "add_ns": tracing.probe_ns(samples["add"], ComplexRational.__add__) * gauge.factor(),
        "distinct_ratio": 0.0,
        "report_bytes": report_bytes,
        "python_start_s": statistics.median(starts),
        "import_s": statistics.median(imports),
    }


def layer_metrics(data: dict, probes: list[dict], workload: str, seed: int) -> dict:
    import tracing
    tracer = data["tracer"]
    spans = tracer.spans()
    st = tracing.self_times(spans)
    write_spans(tracer, workload, seed)

    def self_s(name: str) -> float:
        return st.get(name, {}).get("self_s", 0.0) * data["time_scale"]

    def calls(name: str) -> int:
        return st.get(name, {}).get("calls", 0)

    def work(name: str, counter: str) -> int:
        return tracer.work.get((name, counter), 0)

    job_s = st.get("bench.job", {}).get("total_s", 0.0) * data["time_scale"]
    m: dict[str, float] = {
        "scalars.ops": data["ops"],
        "scalars.mul_ns": data["mul_ns"],
        "scalars.add_ns": data["add_ns"],
        "parsing.calls": calls("parsing.parse"),
        "parsing.self_s": self_s("parsing.parse"),
        "algebra.assemble.self_s": self_s("algebra.assemble"),
        "algebra.normalize_table.calls": calls("algebra.normalize_table"),
        "algebra.normalize_table.self_s": self_s("algebra.normalize_table"),
        "algebra.normalize_table.terms_in": work("algebra.normalize_table", "terms_in"),
        "algebra.normalize_table.terms_out": work("algebra.normalize_table", "terms_out"),
        "algebra.raw_mul.calls": calls("algebra.raw_mul"),
        "algebra.raw_mul.self_s": self_s("algebra.raw_mul"),
        "algebra.raw_mul.term_pairs": work("algebra.raw_mul", "term_pairs"),
        "algebra.morphism_apply.self_s": self_s("algebra.morphism_apply"),
        "spectrum.gelfand_eval.calls": calls("spectrum.gelfand_eval"),
        "spectrum.gelfand_eval.terms": work("spectrum.gelfand_eval", "terms"),
        "spectrum.gelfand_eval.self_s": self_s("spectrum.gelfand_eval"),
        "spectrum.grid_points.points": work("spectrum.grid_points", "points"),
        "spectrum.grid_points.self_s": self_s("spectrum.grid_points"),
        "spectrum.coefficient_bound.self_s": self_s("spectrum.coefficient_bound"),
        "spectrum.validate_character.self_s": self_s("spectrum.validate_character"),
        "approx.seminorm_on_box.calls": calls("approx.seminorm_on_box"),
        "approx.seminorm_on_box.self_s": self_s("approx.seminorm_on_box"),
        "approx.bernstein_approx.nodes": work("approx.bernstein_approx", "nodes"),
        "approx.bernstein_approx.self_s": self_s("approx.bernstein_approx"),
        "states.expect.calls": calls("states.expect"),
        "states.expect.self_s": self_s("states.expect"),
        "states.gram_matrix.entries": work("states.gram_matrix", "entries"),
        "states.gram_matrix.distinct_ratio": data["distinct_ratio"],
        "states.gram_matrix.self_s": self_s("states.gram_matrix"),
        "states.gns_basis.self_s": self_s("states.gns_basis"),
        "states.multiplication_operator.entries": work("states.multiplication_operator", "entries"),
        "states.multiplication_operator.self_s": self_s("states.multiplication_operator"),
        "cli.python_start_s": data.get("python_start_s",
                                       statistics.median(p["python_start_s"] for p in probes)),
        "cli.import_s": data.get("import_s", statistics.median(p["import_s"] for p in probes)),
        "cli.main.self_s": self_s("cli.main"),
        "cli.report_bytes": data["report_bytes"],
        "trace.job_s": job_s,
        "trace.overhead_ratio": data["overhead_ratio"],
    }
    for layer in LAYERS:
        layer_self = sum(self_s(name) for name in st if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = layer_self
        m[f"{layer}.share"] = layer_self / job_s if job_s else 0.0
    return m


def write_spans(tracer, workload: str, seed: int) -> None:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": tracer.names, "name": list(tracer.name),
                   "parent": list(tracer.parent), "job": list(tracer.job),
                   "t0_ns": list(tracer.t0), "t1_ns": list(tracer.t1)}, fh)


# ---------------------------------------------------------------------------
# units of the per-layer metrics
# ---------------------------------------------------------------------------

def layer_unit(name: str) -> str:
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio")):
        return "1"
    if name.endswith("bytes"):
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# series and comparison
# ---------------------------------------------------------------------------

def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def series(out_path: str, workloads: list[str], seeds: list[int], seconds: int,
           trace: int) -> None:
    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, timeout=600, check=False)
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr.decode()[-2000:]}")
            result = json.loads(lines[-1])
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "run_seconds": seconds, "trace": trace,
                   "seeds": seeds, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float,
            pairs: list[tuple[float, float]]) -> str:
    """better / worse / unchanged / unresolved for one workload and metric.

    better: the change wins at least 9 of 10 pairs and the medians differ
    by more than the parent's interquartile range.  worse: the change's
    median is worse than the parent's by more than the bound.  unresolved:
    neither, and the parent's own spread is wider than the bound, so
    "unchanged" cannot be told apart from noise.
    """
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    _, n_med, _ = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (n_med - b_med) > b_q3 - b_q1:
        return "better"
    if sign * (b_med - n_med) > bound * abs(b_med):
        return "worse"
    if (b_q3 - b_q1) > bound * abs(b_med):
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "unchanged"
        return "unresolved"
    return "unchanged"


def compare(base_path: str, new_path: str) -> None:
    spec = load_benchmark()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    print(f"base: {base_path} {base.get('environment')}")
    print(f"new:  {new_path} {new.get('environment')}")
    print(f"{'workload':13s} {'metric':38s} {'unit':>5s} {'base q1 / median / q3':>28s} "
          f"{'new q1 / median / q3':>28s} {'new/base':>8s} {'wins':>5s}  verdict")
    for workload in sorted(set(base["runs"]) & set(new["runs"])):
        b_runs = {r["seed"]: r["metrics"] for r in base["runs"][workload]}
        n_runs = {r["seed"]: r["metrics"] for r in new["runs"][workload]}
        seeds = sorted(set(b_runs) & set(n_runs))
        for name in metrics:
            if any(name not in b_runs[s] or name not in n_runs[s] for s in seeds) or not seeds:
                continue
            spec_m = metrics[name]
            pairs = [(b_runs[s][name]["value"], n_runs[s][name]["value"]) for s in seeds]
            bvals, nvals = [b for b, _ in pairs], [n for _, n in pairs]
            bq, nq = quartiles(bvals), quartiles(nvals)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            sign = 1.0 if spec_m["better"] == "higher" else -1.0
            wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
            v = verdict(bvals, nvals, spec_m["better"], spec_m["bound"], pairs) \
                if "bound" in spec_m else "-"
            print(f"{workload:13s} {name:38s} {spec_m['unit']:>5s} "
                  f"{'%.4g / %.4g / %.4g' % bq:>28s} {'%.4g / %.4g / %.4g' % nq:>28s} "
                  f"{ratio:8.3f} {wins:2d}/{len(pairs):<2d}  {v}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate", action="store_true")
    ap.add_argument("--series", metavar="OUT")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "gelfand_lab" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'gelfand_lab'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(jobs.WORKLOADS)
    if args.regenerate:
        regenerate(workloads)
        return 0
    if args.series:
        seconds = int(args.seconds or load_benchmark()["run_seconds"])
        series(args.series, workloads, parse_seeds(args.seeds), seconds, args.trace)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    workload = args.workload
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]

    cat = jobs.catalog(workload)
    digest = jobs.inputs_digest(workload, args.seed, cat)
    print(f"workload {workload} seed {args.seed} inputs_digest {digest}")

    gauge = SpeedGauge()
    probes = probe_setups(workload, SETUP_SAMPLES - 1, gauge)
    session = make_session(workload)
    scale = gauge.factor()
    t0 = time.perf_counter()
    session.setup()
    setup_samples = [p["setup_s"] for p in probes] + [(time.perf_counter() - t0) * scale]
    print("setup_s samples: " + " ".join(f"{x:.4g}" for x in setup_samples))

    if args.trace == 0:
        out = timed_run(session, workload, args.seed, args.seconds, gauge)
        metrics = dict(out["metrics"], setup_s=statistics.median(setup_samples))
        print(f"failed_ratio: {out['failed'] / out['attempted']:.6g} 1")
        emit(out["failed"] == 0, out["attempted"], out["failed"], metrics, END_TO_END_UNITS)
        return 0

    stream = jobs.blocks(workload, args.seed)
    keys = [key for _ in range(TRACE_BLOCKS[workload]) for key in next(stream)]
    traced = traced_cli if workload == "cli-cold" else traced_library
    data = traced(session, keys, gauge)
    failed = check_results(session, load_reference(workload), data["results"])
    metrics = layer_metrics(data, probes, workload, args.seed)
    emit(failed == 0, len(data["results"]), failed, metrics,
         {name: layer_unit(name) for name in metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
