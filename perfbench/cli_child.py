"""Traced stand-in for one ``pairnorm <cmd>`` process.

    PYTHONPATH=src python3 perfbench/cli_child.py SPANS_PATH <cmd> <args...>

It installs the benchmark's spans on pairnorm's public functions, runs
``pairnorm.cli.run`` on the remaining arguments inside a ``cli.run`` span,
writes the span totals to SPANS_PATH as JSON and exits with the CLI's code.
Stdout carries the CLI's report unchanged.
"""

import json
import sys
import time

import trace_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = trace_spans.Tracer()
    tracer.install()
    import pairnorm.cli

    t0 = time.perf_counter()
    code = pairnorm.cli.run(argv)
    busy = time.perf_counter() - t0
    sys.stdout.flush()
    totals = tracer.totals()
    totals["cli.run"] = {"calls": 1, "busy_s": busy, "self_s": busy, "work": 0}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
