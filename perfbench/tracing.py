"""Spans and counters around calls into the library's public functions.

``install_spans`` replaces each traced function by a wrapper on every
namespace that binds it (module globals of every loaded ``gelfand_lab``
module, and class dictionaries for methods), so internal calls such as
``states.raw_mul`` or ``approx.gelfand_eval`` are seen too.  The returned
``Patches`` object restores the originals; ``assert_clean`` checks that no
wrapper is left anywhere, so untraced runs never pay for tracing.

Spans are kept in flat arrays (name, parent, job, start, end) and only
reduced to self times after the run: a span's self time is its duration
minus the durations of its direct children.

Nothing here imports the library at module level.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import defaultdict

MARK = "__perfbench_wrapped__"


# (span name, module, owner class or None, attribute, work counter)
# A work counter maps (args, result) to {counter name: amount}.
SPAN_TARGETS = [
    ("parsing.parse", "gelfand_lab.parsing", None, "parse_presentation", None),
    ("parsing.parse", "gelfand_lab.parsing", None, "parse_poly", None),
    ("parsing.parse", "gelfand_lab.parsing", None, "parse_character", None),
    ("parsing.parse", "gelfand_lab.parsing", None, "parse_box", None),
    ("parsing.parse", "gelfand_lab.parsing", None, "parse_state", None),
    ("parsing.parse", "gelfand_lab.parsing", None, "parse_morphism", None),
    ("algebra.assemble", "gelfand_lab.algebra", "StarPresentation", "assemble", None),
    ("algebra.normalize_table", "gelfand_lab.algebra", None, "normalize_table",
     lambda args, r: {"terms_in": len(args[1]), "terms_out": len(r[0])}),
    ("algebra.raw_mul", "gelfand_lab.algebra", None, "raw_mul",
     lambda args, r: {"term_pairs": len(args[0]) * len(args[1])}),
    ("algebra.morphism_apply", "gelfand_lab.algebra", "Morphism", "apply", None),
    ("algebra.poly_ops", "gelfand_lab.algebra", "StarPoly", "__add__", None),
    ("algebra.poly_ops", "gelfand_lab.algebra", "StarPoly", "__sub__", None),
    ("algebra.poly_ops", "gelfand_lab.algebra", "StarPoly", "__mul__", None),
    ("algebra.poly_ops", "gelfand_lab.algebra", "StarPoly", "__pow__", None),
    ("algebra.poly_ops", "gelfand_lab.algebra", "StarPoly", "involute", None),
    ("algebra.free_star", "gelfand_lab.algebra", None, "free_star", None),
    ("algebra.underlying", "gelfand_lab.algebra", None, "underlying", None),
    ("spectrum.gelfand_eval", "gelfand_lab.spectrum", None, "gelfand_eval",
     lambda args, r: {"terms": len(args[0].terms)}),
    ("spectrum.grid_points", "gelfand_lab.spectrum", "CompactBox", "grid_points",
     lambda args, r: {"points": len(r)} if isinstance(r, (list, tuple)) else {}),
    ("spectrum.coefficient_bound", "gelfand_lab.spectrum", None, "coefficient_bound", None),
    ("spectrum.validate_character", "gelfand_lab.spectrum", None, "validate_character", None),
    ("spectrum.is_nilpotent", "gelfand_lab.spectrum", None, "is_nilpotent", None),
    ("spectrum.pushforward", "gelfand_lab.spectrum", None, "pushforward", None),
    ("spectrum.radical_vanishing_check", "gelfand_lab.spectrum", None,
     "radical_vanishing_check", None),
    ("approx.seminorm_on_box", "gelfand_lab.approx", None, "seminorm_on_box", None),
    ("approx.bernstein_approx", "gelfand_lab.approx", None, "bernstein_approx",
     lambda args, r: {"nodes": (args[1] + 1) ** args[0].dim}),
    ("approx.density_witness", "gelfand_lab.approx", None, "density_witness", None),
    ("approx.wirtinger_dzbar", "gelfand_lab.approx", None, "wirtinger_dzbar", None),
    ("states.expect", "gelfand_lab.states", None, "expect", None),
    ("states.gram_matrix", "gelfand_lab.states", None, "gram_matrix",
     lambda args, r: {"entries": len(r.basis) ** 2}),
    ("states.gns_basis", "gelfand_lab.states", None, "gns_basis", None),
    ("states.multiplication_operator", "gelfand_lab.states", None,
     "multiplication_operator", lambda args, r: {"entries": int(r.size)}),
    ("states.build", "gelfand_lab.states", None, "atomic_state", None),
    ("states.build", "gelfand_lab.states", None, "quadrature_state", None),
    ("states.build", "gelfand_lab.states", None, "gaussian_state", None),
    ("cli.main", "gelfand_lab.cli", None, "main", None),
]

# ComplexRational methods counted by the count-only pass.
SCALAR_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__pow__", "__neg__", "conjugate", "abs2", "one_norm"]


class Tracer:
    """In-memory span store."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack: list[int] = []
        self.current_job = -1
        self.work: dict[tuple[str, str], int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.current_job)
        self.t1.append(0)
        self.stack.append(idx)
        self.t0.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, nid: int, parent: int, job: int, t0: int, t1: int) -> int:
        """Append a finished span recorded elsewhere; returns its index."""
        self.name.append(nid)
        self.parent.append(parent)
        self.job.append(job)
        self.t0.append(t0)
        self.t1.append(t1)
        return len(self.t0) - 1

    def spans(self) -> list[tuple[str, int, int, int, int]]:
        return [(self.names[n], p, j, a, b) for n, p, j, a, b
                in zip(self.name, self.parent, self.job, self.t0, self.t1)]


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total span seconds and self seconds.

    ``spans`` is a sequence of (name, parent index, job, start ns, end ns).
    """
    child_ns = [0] * len(spans)
    for name, parent, _, t0, t1 in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for i, (name, _, _, t0, t1) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += (t1 - t0) / 1e9
        agg["self_s"] += (t1 - t0 - child_ns[i]) / 1e9
    return out


class Patches:
    """Records every (namespace, attribute, original) replaced."""

    def __init__(self) -> None:
        self.done: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self.done.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self.done.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.done):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.done.clear()


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gelfand_lab" or name.startswith("gelfand_lab."))]


def _patch_everywhere(patches: Patches, module_name: str, cls_name: str | None,
                      attr: str, make_wrapper) -> None:
    module = sys.modules[module_name]
    if cls_name is not None:
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        for name, value in list(cls.__dict__.items()):
            if value is raw:
                patches.set(cls, name, wrapped)
        return
    original = getattr(module, attr)
    wrapped = make_wrapper(original)
    for mod in _library_modules():
        namespace = mod.__dict__
        for name, value in list(namespace.items()):
            if value is original:
                patches.set(namespace, name, wrapped)


def install_spans(tracer: Tracer) -> Patches:
    """Wrap every SPAN_TARGETS function; returns the patches to restore."""
    import gelfand_lab.cli  # noqa: F401  (load every module before scanning)

    patches = Patches()
    for span_name, module_name, cls_name, attr, counter in SPAN_TARGETS:
        nid = tracer.name_id(span_name)

        def make_wrapper(fn, nid=nid, span_name=span_name, counter=counter):
            def wrapper(*args, **kwargs):
                idx = tracer.begin(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
                if counter is not None:
                    for key, amount in counter(args, result).items():
                        tracer.work[(span_name, key)] += amount
                return result
            setattr(wrapper, MARK, True)
            wrapper.__wrapped__ = fn
            return wrapper

        _patch_everywhere(patches, module_name, cls_name, attr, make_wrapper)
    return patches


class ScalarCounter:
    """Counts ComplexRational arithmetic calls and keeps a deterministic,
    evenly strided sample of the operands of ``*`` and ``+``."""

    SAMPLE = 2000

    def __init__(self) -> None:
        self.ops = 0
        self.samples: dict[str, list] = {"mul": [], "add": []}
        self._seen = {"mul": 0, "add": 0}
        self._stride = {"mul": 1, "add": 1}

    def keep(self, kind: str, pair) -> None:
        n = self._seen[kind] = self._seen[kind] + 1
        if n % self._stride[kind] == 0:
            sample = self.samples[kind]
            sample.append(pair)
            if len(sample) >= 2 * self.SAMPLE:
                del sample[1::2]
                self._stride[kind] *= 2


def install_counting(counter: ScalarCounter) -> Patches:
    from gelfand_lab.scalars import ComplexRational

    patches = Patches()
    originals = {attr: ComplexRational.__dict__[attr] for attr in SCALAR_OPS}
    for attr, fn in originals.items():
        kind = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add",
                "__radd__": "add"}.get(attr)

        def wrapper(*args, fn=fn, kind=kind):
            counter.ops += 1
            if kind is not None:
                counter.keep(kind, args)
            return fn(*args)
        setattr(wrapper, MARK, True)
        patches.set(ComplexRational, attr, wrapper)
    return patches


def probe_ns(pairs, op, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean ns per ``op(a, b)`` on ``pairs``."""
    if not pairs:
        return 0.0
    per_op = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            op(a, b)
        per_op.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(per_op)


def assert_clean() -> None:
    """Raise if any tracing or counting wrapper is still installed."""
    owners = []
    for mod in _library_modules():
        owners.append(vars(mod))
        owners.extend(vars(v) for v in vars(mod).values()
                      if isinstance(v, type) and v.__module__.startswith("gelfand_lab"))
    for namespace in owners:
        for name, value in namespace.items():
            inner = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            if getattr(inner, MARK, False):
                raise AssertionError(f"tracing wrapper left on {name}")
