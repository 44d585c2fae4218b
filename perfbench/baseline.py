"""Run every workload on several seeds and summarise the end-to-end metrics.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload and metric it records the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
environment of the first run.  Runs go one after another, never in
parallel, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def seeds_arg(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    report = {"seeds": args.seeds, "run_seconds": spec.RUN_SECONDS,
              "workloads": {}}
    for workload in (w["name"] for w in spec.WORKLOADS):
        values, failed = {}, 0
        for seed in args.seeds:
            result, env = run_once(workload, seed)
            report.setdefault("env", env)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report["workloads"][workload] = {
            "failed": failed,
            "metrics": {name: summarise(v) for name, v in values.items()}}
        for name, summary in report["workloads"][workload]["metrics"].items():
            print(f"{workload:9} {name:13} median {summary['median']:12.6g} "
                  f"spread {summary['spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
