"""The choqkit benchmark: one command per workload run.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-manifest     # rewrite BENCHMARK.json

Inputs are generated from `--seed` by gen.py and handed to choqkit only
as JSON in the README schema, under `.perfbench/` in the checkout.  The
set-up time is measured in several fresh processes and reported as the
median; the task list then runs in one more fresh, single-threaded
process (worker.py) that checks every output.  Times are scaled to a
reference machine speed (see worker.py), and the raw times are printed
and stored beside them.  With `--trace 0` the last line of output
carries the end-to-end metrics, with `--trace 1` the per-layer metrics.
The environment is printed and stored in `.perfbench/.../result.json`.

`ok_frac` is 1 - fail_frac, the share of tasks that ran and passed their
check; it is reported instead of fail_frac so that it is never 0.  The
tail is the latency with ten tasks of a pass beyond it; a pass of ten
tasks or fewer (selftest) reports its slowest task instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
DEADLINE_S = 170.0
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONOPTIMIZE", None)
    return env


def run_worker(extra, deadline):
    """Run worker.py to completion and return its last output line as JSON."""
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--started", repr(started)]
    proc = subprocess.run(cmd + extra, env=child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Latency with TAIL_BEYOND tasks beyond it, and its percentile."""
    ordered = sorted(latencies)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    rank = len(ordered) - beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), beyond


def environment():
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "git_rev": None}
    try:
        import numpy
        env["numpy"] = numpy.__version__
    except ImportError:
        env["numpy"] = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            env["git_rev"] = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        with open("/proc/cpuinfo") as handle:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in handle
                               if line.startswith("model name")), None)
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
                (index / "size").read_text().strip()
        env["caches"] = caches
    except OSError:
        env.setdefault("cpu", None)
    return env


def end_to_end(setups, out):
    passes = [p for p in out["passes"] if not p["traced"]]
    tails = [tail(p["latencies"]) for p in passes]
    attempted, failed = out["attempted"], out["failed"]
    raw_wall = statistics.median(sum(p["raw"]) for p in passes)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (statistics.median(sum(p["latencies"]) for p in passes), "s"),
        "task_p50_ms": (1e3 * statistics.median(
            statistics.median(p["latencies"]) for p in passes), "ms"),
        "task_tail_ms": (1e3 * statistics.median(t[0] for t in tails), "ms"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    tasks = len(passes[0]["latencies"])
    notes = {"setup_s": "raw median %.4g s" % statistics.median(
                 s["setup_raw_s"] for s in setups),
             "wall_s": f"raw {raw_wall:.4g} s",
             "task_tail_ms": f"p{tails[0][1]:.1f} of {tasks} tasks per pass, "
                             f"{tails[0][2]} beyond it",
             "ok_frac": f"fail_frac {failed / attempted:g} "
                        f"({failed} of {attempted} tasks)"}
    return metrics, notes


def per_layer(out):
    layers = out["layers"]
    untraced = [sum(p["latencies"]) for p in out["passes"] if not p["traced"]]
    traced = [sum(p["latencies"]) for p in out["passes"] if p["traced"]]
    layers["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    layers["raw.wall_s"] = statistics.median(
        sum(p["raw"]) for p in out["passes"] if not p["traced"])
    layers["calib.scale"] = statistics.median(
        s for p in out["passes"] for s in p["scale"])
    return {m["name"]: (float(layers.get(m["name"], 0.0)), m["unit"])
            for m in spec.PER_LAYER}, {}


def main(argv=None):
    if sys.flags.optimize:
        print("refusing to run under python -O: the asserts in choqkit's "
              "checks would vanish and a different program would be measured",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w") as handle:
            json.dump(spec.manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if not (ROOT / "src" / "choqkit" / "__init__.py").is_file():
        print(f"no choqkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    doc = gen.WORKLOADS[args.workload](args.seed)
    inputs = workdir / "inputs.json"
    with open(inputs, "w") as handle:
        json.dump(doc, handle)

    try:
        setups = [run_worker(["--inputs", str(inputs), "--setup-only"], deadline)
                  for _ in range(SETUP_PROBES)]
        out = run_worker(["--inputs", str(inputs), "--seconds", str(args.seconds),
                          "--trace", str(args.trace),
                          "--spans", str(workdir / "spans.csv")], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append({key: out[key] for key in ("setup_s", "setup_raw_s")})

    if args.trace:
        metrics, notes = per_layer(out)
    else:
        metrics, notes = end_to_end(setups, out)
    passes = len([p for p in out["passes"] if not p["traced"]])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(out['passes'])} passes ({passes} untraced) of "
          f"{len(doc['tasks'])} tasks, {len(setups)} set-ups")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<52} {value:14.6g} {unit}{note}")
    for failure in out["failures"]:
        print("  FAILED " + failure.replace("\n", "\n    "))
    env = environment()
    print("env " + json.dumps(env))
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(workdir / "result.json", "w") as handle:
        json.dump({"env": env, "setups": setups, "worker": out, **result},
                  handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
