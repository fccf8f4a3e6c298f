"""Run one skillscope CLI command in-process with spans around each layer.

Usage: python3 perfbench/tracer.py SPANS.json RUN_ID -- <skillscope args>

The public functions that ``cli`` and ``timeseries`` look up as module
attributes at run time are replaced by timing wrappers before ``cli.main``
runs; nothing under ``src/`` is changed. Per-skill helpers such as
``normalize_skill`` are left alone: they run millions of times per report.
Spans (name, start, end, parent, run id) are kept in memory and written to
SPANS.json when the command ends, with the wall time of ``cli.main``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute) pairs wrapped; the span is named "<module>.<attribute>".
WRAPPED = [
    ("corpus", "ingest"),
    ("corpus", "build_index"),
    ("skillmetrics", "compute_rca"),
    ("skillmetrics", "compute_effective_use"),
    ("similarity", "compute_theta"),
    ("similarity", "expand_seeds"),
    ("occupations", "compute_intensity"),
    ("occupations", "select_occupations"),
    ("timeseries", "aggregate_daily"),
    ("timeseries", "sliding_window_backtest"),
    ("timeseries", "fit"),
    ("timeseries", "forecast"),
    ("timeseries", "smape"),
    ("indicators", "assemble_report"),
    ("indicators", "write_report"),
    ("synthgen", "generate"),
    ("synthgen", "write_jsonl"),
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserved so children see their parent's index
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)

        return traced


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(run_id)
    for module, attr in WRAPPED:
        mod = importlib.import_module(f"skillscope.{module}")
        if hasattr(mod, attr):  # a function the program no longer has records no span
            setattr(mod, attr, tracer.wrap(f"{module}.{attr}", getattr(mod, attr)))
    from skillscope import cli

    start = time.perf_counter()
    code = cli.main(cli_args)
    total = time.perf_counter() - start
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "exit_code": code, "total_s": total,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
