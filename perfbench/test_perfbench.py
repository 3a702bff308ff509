"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_same_seed_same_inputs_digest():
    for workload in jobs.WORKLOADS:
        a = jobs.inputs_digest(workload, 3, jobs.catalog(workload))
        b = jobs.inputs_digest(workload, 3, jobs.catalog(workload))
        c = jobs.inputs_digest(workload, 4, jobs.catalog(workload))
        assert a == b
        assert a != c


def test_every_catalog_job_has_a_reference():
    for workload in jobs.WORKLOADS:
        assert set(run.load_reference(workload)) == set(jobs.catalog(workload))


def test_self_time_arithmetic_on_synthetic_tree():
    # root [0, 100] > a [10, 60] > b [20, 30], b2 [35, 45]; root > c [70, 90]
    spans = [
        ("root", -1, 0, 0, 100),
        ("a", 0, 0, 10, 60),
        ("b", 1, 0, 20, 30),
        ("b", 1, 0, 35, 45),
        ("c", 0, 0, 70, 90),
    ]
    st = tracing.self_times(spans)
    ns = {name: round(agg["self_s"] * 1e9) for name, agg in st.items()}
    assert ns == {"root": 100 - 50 - 20, "a": 50 - 10 - 10, "b": 20, "c": 20}
    assert st["b"]["calls"] == 2
    assert sum(ns.values()) == round(st["root"]["total_s"] * 1e9)


def test_reference_check_trips_on_perturbed_lower_sq():
    session = run.make_session("sup-brackets")
    session.setup()
    reference = run.load_reference("sup-brackets")
    key = "pair2-3/0"
    result = session.run(key)
    assert run.check_results(session, reference, [(key, result)]) == 0
    perturbed = dataclasses.replace(result, lower_sq=result.lower_sq + Fraction(1, 10**9))
    assert run.check_results(session, reference, [(key, perturbed)]) == 1
    assert run.check_results(session, reference, [(key, RuntimeError("boom"))]) == 1


def test_float_tolerance_is_relative_to_expected_scale():
    entry = run.reference_entry("x", [100.0, 0.5], 1e-9)
    assert run.matches(entry, "x", [100.0 + 5e-8, 0.5])
    assert not run.matches(entry, "x", [100.0 + 5e-6, 0.5])
    assert not run.matches(entry, "y", [100.0, 0.5])


def _bound_objects():
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "gelfand_lab" or name.startswith("gelfand_lab."):
            out[name] = dict(vars(module))
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_tracing_wrappers_removed_after_traced_run():
    session = run.make_session("ring-rewrite")
    session.setup()
    import gelfand_lab.cli  # noqa: F401
    before = _bound_objects()
    keys = [f"{stratum}/0" for stratum, _ in jobs.RING_REWRITE]
    data = run.traced_library(session, keys, run.SpeedGauge())
    assert data["tracer"].t0 and data["ops"] > 0
    tracing.assert_clean()
    after = _bound_objects()
    assert before.keys() == after.keys()
    for owner, namespace in before.items():
        for attr, value in namespace.items():
            assert after[owner][attr] is value, f"{owner}.{attr} not restored"


def test_assert_clean_sees_an_installed_wrapper():
    run.make_session("ring-rewrite").setup()
    patches = tracing.install_spans(tracing.Tracer())
    try:
        try:
            tracing.assert_clean()
        except AssertionError:
            pass
        else:
            raise AssertionError("installed wrappers went unnoticed")
    finally:
        patches.restore()
    tracing.assert_clean()


def test_speed_gauge_samples_at_most_every_interval():
    gauge = run.SpeedGauge()
    first = gauge.factor()
    second = gauge.factor()
    assert len(gauge.samples) == 5 and first == second > 0


def test_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in base]
    slower = [x * 1.3 for x in base]
    same = base[1:] + base[:1]
    for new, lower_is_better in ((faster, "better"), (slower, "worse"), (same, "unchanged")):
        pairs = list(zip(base, new))
        assert run.verdict(base, new, "lower", 0.1, pairs) == lower_is_better
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert run.verdict(noisy, noisy[::-1], "lower", 0.1, list(zip(noisy, noisy[::-1]))) \
        == "unresolved"
