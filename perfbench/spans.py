"""In-memory spans around the calls the benchmark makes into choqkit.

A span is (name, start, end, parent index, task id).  Spans are kept in
a list while the workload runs and written out when it ends.  The
untraced runner offers the same `call` so both modes run the same code.
"""

from __future__ import annotations

import statistics
from time import perf_counter


class Untraced:
    """Calls straight through; used for the end-to-end measurements."""

    task = -1

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call, nested by the call stack."""

    def __init__(self):
        self.spans = []
        self.task = -1
        self._stack = [-1]

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.task)

    def write_csv(self, path, origin):
        with open(path, "w") as handle:
            handle.write("index,name,start_s,end_s,parent,task\n")
            for i, (name, start, end, parent, task) in enumerate(self.spans):
                handle.write(f"{i},{name},{start - origin:.9f},"
                             f"{end - origin:.9f},{parent},{task}\n")


def self_times(spans, first, last, scale):
    """Per name: call count, summed self time, and span durations.

    Self time is a span's duration minus the durations of its children.
    `scale` maps a task id to the factor its times are multiplied by.
    """
    child = {}
    for name, start, end, parent, _ in spans[first:last]:
        if parent >= first:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out = {}
    for index in range(first, last):
        name, start, end, _, task = spans[index]
        factor = scale.get(task, 1.0)
        calls, own, durations = out.setdefault(name, [0, 0.0, []])
        out[name][0] = calls + 1
        out[name][1] = own + factor * (end - start - child.get(index, 0.0))
        durations.append(factor * (end - start))
    return out


def median(values):
    return statistics.median(values) if values else 0.0
