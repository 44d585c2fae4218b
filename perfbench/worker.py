"""One workload process: load the inputs, run the task list, check it.

Started by run.py in a fresh interpreter with the BLAS thread count set
to 1.  It imports choqkit from the `src` directory next to this one,
loads every input from the JSON document, and then either reports the
set-up time alone (`--setup-only`) or runs the task list in passes as a
closed loop from one thread until `--seconds` would be exceeded.  With
`--trace 1` untraced and traced passes alternate, so one process gives
both the per-layer spans and the tracing overhead.  The last line of
standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from checks import Reference
from spans import Tracer, Untraced, median, self_times

ROOT = Path(__file__).resolve().parent.parent

# On a shared machine the speed of one core can drift by a third over
# minutes (measured on a 2-vCPU KVM guest).  So every time is scaled to a reference speed: a
# fixed pure-Python kernel is timed right before and right after each
# task and every PROBE_INTERVAL_S while it runs, and the task's time is
# multiplied by the mean of REFERENCE_KERNEL_S over those kernel times.
# A reported second is a second on a machine where the kernel takes
# REFERENCE_KERNEL_S; raw times are kept beside it.
REFERENCE_KERNEL_S = 100e-6
PROBE_INTERVAL_S = 0.05
# medians are taken over at least this many passes; with tracing on, the
# passes alternate untraced and traced
MIN_PASSES = 3
_KERNEL_VALUES = [((i * 7919) % 1000) / 1000.0 - 0.5 for i in range(256)]


def _kernel(vals=_KERNEL_VALUES):
    """Largest single-element increment over a 256-entry lattice table."""
    best = 0.0
    for mask in range(1, 256):
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            step = vals[mask] - vals[mask ^ bit]
            if step > best:
                best = step
    return best


def kernel_seconds():
    """Median of five timings of the calibration kernel."""
    samples = []
    for _ in range(5):
        start = perf_counter()
        _kernel()
        samples.append(perf_counter() - start)
    return sorted(samples)[2]


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when run.py started this process")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="CSV file for the spans of a traced run")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def import_choqkit():
    """Import choqkit from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import choqkit
    if Path(choqkit.__file__).resolve().parent != src / "choqkit":
        raise ImportError(f"choqkit imported from {choqkit.__file__}, not {src}")
    return choqkit


class SpeedProbe:
    """Times the kernel around a task and, from SIGALRM, while it runs.

    `raw` is the task's time without the time spent in the probe, and
    `scale` the factor that takes it to the reference speed.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0
        self.raw = self.scale = None

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += perf_counter() - start

    def __enter__(self):
        self.samples, self.spent = [kernel_seconds()], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.raw = end - self._start - self.spent
        self.samples.append(kernel_seconds())
        self.scale = statistics.fmean(REFERENCE_KERNEL_S / k
                                      for k in self.samples)


class TableCounter:
    """Counts `SetFunction.table` materialisations while installed."""

    def __init__(self, setfunction_cls):
        self.cls = setfunction_cls
        self.original = setfunction_cls.table
        self.calls = self.entries = 0
        self.seconds = 0.0

    def __enter__(self):
        original = self.original

        def table(phi):
            start = perf_counter()
            values = original(phi)
            self.seconds += perf_counter() - start
            self.calls += 1
            self.entries += len(values)
            return values

        self.cls.table = table
        return self

    def __exit__(self, *exc):
        self.cls.table = self.original


def run_pass(doc, inputs, reference, tr, failures):
    """Run every task once.

    Returns the raw latencies, the factor that scales each to the
    reference speed, the failed count and the uncrossing steps taken.
    """
    from tasks import TASKS
    latencies, scales, failed, uncross_steps = [], [], 0, 0
    probe = SpeedProbe()
    for task in doc["tasks"]:
        runner, check_name = TASKS[task["kind"]]
        tr.task = task["id"]
        result, error = None, None
        with probe:
            try:
                result = tr.call("cli." + task["kind"], runner, inputs, task, tr)
            except Exception:
                error = traceback.format_exc(limit=3)
        latencies.append(probe.raw)
        scales.append(probe.scale)
        if error is None:
            try:
                error = getattr(reference, check_name)(task, result)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(f"task {task['id']} ({task['kind']}): {error}")
        elif task["kind"] == "uncross":
            uncross_steps += len(result[0].steps)
    return latencies, scales, failed, uncross_steps


def work_counts(doc, uncross_steps):
    """Exact work counts of one pass."""
    counts = {"fubini.lln_run.steps": 0, "uncrossing.uncross.steps": uncross_steps,
              "intervals.pieces": 0}
    for task in doc["tasks"]:
        if task["kind"] == "fubini":
            counts["fubini.lln_run.steps"] += task["steps"]
        elif task["kind"] == "interval-choquet":
            counts["intervals.pieces"] += len(
                doc["intervals"][task["input"]]["f"]["values"])
    return counts


def layer_metrics(tracer, setup_range, pass_ranges, pass_counts):
    """Per-layer metrics: setup spans once plus the median traced pass.

    Ranges are (first span, last span, {task id: time scale factor}).
    """
    setup = self_times(tracer.spans, *setup_range)
    per_pass = [self_times(tracer.spans, *r) for r in pass_ranges]
    names = set(setup).union(*per_pass)
    out = {}
    for name in names:
        calls, own, durations = setup.get(name, [0, 0.0, []])
        durations = list(durations)
        for stats in per_pass:
            durations.extend(stats.get(name, [0, 0.0, []])[2])
        if name.startswith("selftest.criterion_"):
            out[name + "_s"] = median(durations)
            continue
        out[name + ".calls"] = calls + median(
            [s.get(name, [0])[0] for s in per_pass])
        out[name + ".self_s"] = own + median(
            [s.get(name, [0, 0.0])[1] for s in per_pass])
        out[name + ".p50_us"] = median(durations) * 1e6
    for key in pass_counts[0]:
        out[key] = median([c[key] for c in pass_counts])
    out["trace.spans"] = median([last - first for first, last, _ in pass_ranges])
    return out


def main(argv=None):
    args = parse_args(argv)
    import_choqkit()
    from choqkit.setfunctions import SetFunction
    from tasks import Inputs
    with open(args.inputs) as handle:
        doc = json.load(handle)
    untraced = Untraced()
    tracer = Tracer() if args.trace else None
    inputs = Inputs(doc, tracer or untraced)
    setup_raw_s = time.monotonic() - args.started
    setup_kernel = statistics.median(kernel_seconds() for _ in range(5))
    setup_scale = REFERENCE_KERNEL_S / setup_kernel
    setup_s = setup_raw_s * setup_scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    reference = Reference(doc)
    setup_range = (0, len(tracer.spans) if tracer else 0, {-1: setup_scale})
    passes, failures, pass_ranges, pass_counts = [], [], [], []
    attempted = failed = 0
    origin = perf_counter()
    while True:
        pass_start = perf_counter()
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            first = len(tracer.spans)
            with TableCounter(SetFunction) as table:
                latencies, scales, bad, steps = run_pass(
                    doc, inputs, reference, tracer, failures)
            pass_ranges.append((first, len(tracer.spans), dict(enumerate(scales))))
            counts = work_counts(doc, steps)
            counts.update({"setfunctions.table.calls": table.calls,
                           "setfunctions.table.entries": table.entries,
                           "setfunctions.table.total_s":
                               table.seconds * statistics.median(scales)})
            pass_counts.append(counts)
        else:
            latencies, scales, bad, _ = run_pass(doc, inputs, reference,
                                                 untraced, failures)
        passes.append({"traced": traced, "raw": latencies, "scale": scales,
                       "latencies": [t * s for t, s in zip(latencies, scales)]})
        attempted += len(latencies)
        failed += bad
        now = perf_counter()
        if len(passes) < MIN_PASSES:
            continue
        if now - origin + (now - pass_start) > args.seconds:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "passes": passes,
           "attempted": attempted, "failed": failed, "failures": failures,
           "peak_rss_mb": rss_mb}
    if tracer:
        out["layers"] = layer_metrics(tracer, setup_range, pass_ranges,
                                      pass_counts)
        if args.spans:
            tracer.write_csv(args.spans, origin)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
