"""Run one eit3 command in this fresh interpreter, then gauge its speed.

Usage: python3 cli_child.py REPORT_PATH TRACE EIT3_ARGS...

Does what ``python -m eit3.cli EIT3_ARGS...`` does, with the layers traced
when TRACE is 1.  After the command, it times the machine-speed burst of
``reference.py`` in this same process and writes a JSON report to
REPORT_PATH: ``reference_s`` (median burst), ``burst_phase_s`` (time the
bursts took, for the caller to subtract) and ``spans`` (or null).
"""

import json
import sys
from time import perf_counter

import eit3.cli
import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer() if sys.argv[2] == "1" else None
    with tracing.installed(tracer):
        code = eit3.cli.main(sys.argv[3:])
    import reference

    t0 = perf_counter()
    reference.burst()  # first LAPACK calls of a process pay one-off costs
    bursts = sorted(reference.burst() for _ in range(3))
    report = {"reference_s": bursts[1], "burst_phase_s": perf_counter() - t0,
              "spans": None if tracer is None else tracer.spans}
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    raise SystemExit(code)
