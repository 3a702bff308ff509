"""One set-up of a workload in a fresh process, for ``setup_s``.

    python probe.py WORKLOAD

Prints one JSON line: when interpreter start ended (``t_first``, a
``time.perf_counter_ns`` value, which on Linux reads the system-wide
monotonic clock), the import and the whole set-up time.  Kept apart from
run.py so that interpreter start does not include compiling the large
main script.
"""

import time

T_FIRST = time.perf_counter_ns()

import sys  # noqa: E402

import run  # noqa: E402

if __name__ == "__main__":
    run.setup_probe(sys.argv[1], T_FIRST)
