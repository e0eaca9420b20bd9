"""In-memory spans around calls into fodesolve, recorded from the
benchmark's own code.

A span has a run identifier, an id, its parent's id, a name of the form
`<module>.<function>` and start/end times from time.perf_counter, which
reads CLOCK_MONOTONIC on Linux and so is comparable between the benchmark
process and the child processes it starts.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, parent: str | None = None):
        self.run_id = run_id
        self.spans: list = []
        self._stack = [parent]

    @contextmanager
    def span(self, name: str):
        rec = {"run": self.run_id, "id": f"{os.getpid()}.{len(self.spans)}",
               "parent": self._stack[-1], "name": name,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list) -> dict:
    """Self time per span id: its duration minus its children's.  Children
    of one span run one after another, so their durations do not overlap."""
    child_total = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            child_total[rec["parent"]] += duration(rec)
    return {rec["id"]: duration(rec) - child_total[rec["id"]] for rec in spans}


def module_summary(spans: list) -> dict:
    """Self time and call count per module, the part of a span name before
    its first dot."""
    own = self_times(spans)
    out: dict = {}
    for rec in spans:
        mod = rec["name"].split(".", 1)[0]
        entry = out.setdefault(mod, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own[rec["id"]]
        entry["calls"] += 1
    return out
