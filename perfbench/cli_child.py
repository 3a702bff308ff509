"""One traced or counted CLI process for the cli-cold per-layer run.

    python cli_child.py {trace|count} OUT.json -- <gelfand-lab argv...>

Runs ``gelfand_lab.cli.main`` on the argv exactly as ``python -m
gelfand_lab.cli`` would, prints the same stdout and exits with the same
code, and writes to OUT.json when interpreter start ended, how long the
import took, and either the spans (trace) or the scalar operation count
and operand sample (count).  Times are ``time.perf_counter_ns`` values,
which on Linux read the system-wide monotonic clock, so the parent can
place them against its own spawn time.
"""

import time

T_FIRST = time.perf_counter_ns()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402


def encode_operand(x) -> list:
    if isinstance(x, int):
        return ["i", str(x)]
    if isinstance(x, Fraction):
        return ["f", str(x)]
    return ["c", str(x.re), str(x.im)]


def main() -> int:
    mode, out_path, sep, *argv = sys.argv[1:]
    if mode not in ("trace", "count") or sep != "--":
        print("usage: cli_child.py {trace|count} OUT.json -- ARGV...", file=sys.stderr)
        return 1
    t0 = time.perf_counter_ns()
    import gelfand_lab.cli as cli
    t_imported = time.perf_counter_ns()
    record: dict = {"t_first": T_FIRST, "t_imported": t_imported,
                    "import_s": (t_imported - t0) / 1e9}
    buf = io.StringIO()
    if mode == "trace":
        tracer = tracing.Tracer()
        patches = tracing.install_spans(tracer)
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            patches.restore()
        record["names"] = tracer.names
        record["spans"] = list(zip(tracer.name, tracer.parent, tracer.t0, tracer.t1))
        record["work"] = [[k[0], k[1], v] for k, v in tracer.work.items()]
    else:
        counter = tracing.ScalarCounter()
        patches = tracing.install_counting(counter)
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            patches.restore()
        record["ops"] = counter.ops
        record["samples"] = {kind: [[encode_operand(a), encode_operand(b)] for a, b in pairs]
                             for kind, pairs in counter.samples.items()}
    out = buf.getvalue()
    record["report_bytes"] = len(out.encode())
    sys.stdout.write(out)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
