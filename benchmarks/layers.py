"""Per-layer timings of choqkit, swept over n, written to BENCH_<k>.json.

    python3 benchmarks/layers.py                      # next free BENCH_<k>.json
    python3 benchmarks/layers.py --src ../other --out BENCH_0.json
    python3 benchmarks/layers.py --compare BENCH_0.json BENCH_1.json
    python3 benchmarks/layers.py --smoke --out /tmp/bench.json  # n <= 8, seconds

`--src` names the checkout whose `src/choqkit` is imported (default:
this one), so another revision can be measured from a second clone.
The sweep runs k passes over every row, and each row keeps its best
pass: the raw `perf_counter` seconds of one call.  In a pass, a call
that takes less than `min_time` is looped until the loop takes that
long, with the garbage collector off, as in `timeit`; cold rows (a
table build, the chain DP with its cached plan cleared) time one call
on fresh state.  The host's speed drifts (it halved within minutes on
a shared 2-vCPU guest), and passes spread each row's repeats over the
whole run, where k repeats in a row would all fall in one slow spell.
The first and the last row time perfbench's calibration kernel, which
takes 100 us on its reference machine; a row's seconds times
100e-6 / that kernel time is reference seconds.  The end-to-end rows
are each selftest criterion at its `run_all(seed=0)` seed, in every
pass, and one tier-1 run.  The sizes and passes are those of `FULL`;
`--smoke` runs the small `SMOKE` profile, which the tests use to pin
the schema.
Only numpy and the standard library are used.  The file records the
git revision of `--src` (with `-dirty` and a digest of `git diff HEAD`
for uncommitted changes), the Python and numpy versions and the number
of usable CPUs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
FULL = {"sizes": (12, 16, 18, 20), "point_sizes": (2, 4, 6, 8),
        "predicate_sizes": (2, 4, 6, 8, 10), "continuity_sizes": (4, 5, 6, 8, 10, 11),
        "pieces": (20, 200, 2000),
        "lln_steps": 10_000, "batch_rows": 20_000, "k": 5, "min_time": 0.05,
        "end_to_end": True}
SMOKE = {"sizes": (4, 8), "point_sizes": (2, 8), "predicate_sizes": (2, 8),
         "continuity_sizes": (4,), "pieces": (20,), "lln_steps": 50, "batch_rows": 50, "k": 1,
         "min_time": 0.0, "end_to_end": False}


def timed(fn, min_time, fresh=None):
    """(seconds per call, calls): fn(fresh()) once with `fresh`, else fn()
    looped until the loop takes at least min_time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if fresh is not None:
            state = fresh()
            start = time.perf_counter()
            fn(state)
            return time.perf_counter() - start, 1
        calls = 1
        while True:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed = time.perf_counter() - start
            if elapsed >= min_time:
                return elapsed / calls, calls
            calls = max(calls + 1, int(calls * 1.2 * min_time / max(elapsed, 1e-9)))
    finally:
        if enabled:
            gc.enable()


def host_kernel(case: str) -> dict:
    """A row of perfbench's calibration kernel time (median of five)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from worker import kernel_seconds

    return {"layer": "host kernel", "case": case, "seconds": kernel_seconds(),
            "calls": 1}


def sweep(profile, src: Path) -> list:
    """Every row, each the best of `profile.k` passes, between the two
    host kernel rows."""
    start = host_kernel("start")
    passes = [one_pass(profile) for _ in range(profile.k)]
    rows = [min(versions, key=lambda row: row["seconds"]) for versions in zip(*passes)]
    if profile.end_to_end:
        for versions, row in zip(zip(*passes), rows):
            if row["layer"] == "selftest":
                row["passed"] = all(version["passed"] for version in versions)
        rows.append(tier1(src))
    return [start] + rows + [host_kernel("end")]


def one_pass(profile) -> list:
    """One timing of every row but the tier-1 run, in a fixed order."""
    import numpy as np

    from choqkit import oracles, randgen, selftest, variation
    from choqkit.choquet import choquet, choquet_batch, choquet_stack
    from choqkit.fubini import lln_run, uniform_continuity_modulus
    from choqkit.intervals import (FlaggedSet, IntervalSet, IntervalSetFunction,
                                   StepFunction, ae_gap, choquet_interval, extend_ls,
                                   extend_ui)
    from choqkit.setfunctions import (GroundSet, SetFunction, conjugate,
                                      is_increasing, is_submodular)
    from choqkit.uncrossing import WeightedFamily, certify_chain_equality, uncross

    rows = []

    def row(layer, case, fn, fresh=None, **extra):
        seconds, calls = timed(fn, profile.min_time, fresh)
        rows.append({"layer": layer, "case": case, "seconds": seconds,
                     "calls": calls, **extra})

    families = {
        "cut": lambda n: randgen.random_cut(np.random.default_rng(1), n),
        "coverage": lambda n: randgen.random_coverage(np.random.default_rng(2), n),
        "uniform-matroid": lambda n: SetFunction.uniform_matroid(n, n // 2),
        "concave-of-modular":
            lambda n: randgen.random_concave_of_modular(np.random.default_rng(3), n),
    }
    for n in profile.sizes:
        rng = np.random.default_rng(n)
        F = rng.uniform(-1.0, 1.0, size=(profile.batch_rows, n))
        f = F[0].tolist()
        for family, make in families.items():
            case = f"{family} n={n}"
            row("table build", case, lambda phi: phi.values, fresh=lambda: make(n))
            phi = make(n)
            values = phi.values
            row("from_table", case, lambda: SetFunction.from_table(values))
            row("is_submodular", case, lambda: is_submodular(phi))
            row("is_increasing", case, lambda: is_increasing(phi))
            # the family's verdicts, K, mu and chain come from its payload (a
            # submodular one's running maximum); its table copy's from the
            # difference kernels and the chain DP, and only the copy's
            # ls_decomposition checks its remainder
            table = SetFunction.from_table(values)
            row("is_submodular", f"{case} table", lambda: is_submodular(table))
            row("is_increasing", f"{case} table", lambda: is_increasing(table))
            for copy, which in ((phi, case), (table, f"{case} table")):

                def cold():
                    variation._plan.cache_clear()  # the chain DP's cached plan
                    return copy

                row("total_variation cold", which, variation.total_variation, fresh=cold)
                variation.total_variation(copy)
                row("total_variation warm", which,
                    lambda: variation.total_variation(copy))
                row("max_variation_chain", which,
                    lambda: variation.max_variation_chain(copy))
                row("canonical_decomposition", which,
                    lambda: variation.canonical_decomposition(copy))
                row("ls_decomposition", which, lambda: variation.ls_decomposition(copy))
            row("conjugate", case, lambda: conjugate(phi))
            row("choquet", case, lambda: choquet(phi, f))
            row("choquet_batch", f"{case} rows={profile.batch_rows}",
                lambda: choquet_batch(phi, F))

    # the point-oracle paths
    for n in profile.point_sizes:
        phi = randgen.random_cut(np.random.default_rng(10 + n), n)
        phi.values  # build the table outside the timed calls
        f = np.random.default_rng(20 + n).uniform(-1.0, 1.0, n).tolist()
        mask = int("10" * n, 2) >> n  # alternate elements
        row("choquet", f"point cut n={n}", lambda: choquet(phi, f))
        table = SetFunction.from_table(phi.values)  # the cut's K is its closed form
        variation.total_variation(table)  # the chain DP's plan, cached
        row("total_variation warm", f"point cut n={n} table",
            lambda: variation.total_variation(table))
        row("phi(mask)", f"cut n={n}", lambda: phi(mask))
        draw = np.random.default_rng(30 + n)
        family = WeightedFamily.of(GroundSet(n), [
            (int(draw.integers(0, 1 << n)), int(draw.integers(1, 4)))
            for _ in range(6)])

        def uncross_and_certify():
            trace = uncross(family, phi)
            certify_chain_equality(phi, trace.final)
            return trace

        row("uncross+certify", f"cut n={n} entries={len(family.entries)}",
            uncross_and_certify, steps=len(uncross_and_certify().steps))
    # the second-difference pass at small n: a full one on the point cut's
    # table copy, and one that stops at a sign-mixed table's first witness
    for n in profile.predicate_sizes:
        cut = randgen.random_cut(np.random.default_rng(10 + n), n)
        table = SetFunction.from_table(cut.values)
        mixed = randgen.random_table_setfunction(np.random.default_rng(90 + n), n)
        row("is_submodular", f"point cut n={n} table", lambda: is_submodular(table))
        row("is_submodular", f"point table n={n}", lambda: is_submodular(mixed))
    # stacked kernels beside as many one-table calls, at n = 6
    tables = [randgen.random_table_setfunction(np.random.default_rng(70 + p), 6)
              for p in range(1000)]
    stack = np.stack([phi.values for phi in tables])
    F = np.random.default_rng(80).uniform(-1.0, 1.0, size=(9000, 6))
    which = np.repeat(np.arange(1000), 9)
    row("total_variation stacked", "P=250 n=6",
        lambda: variation.total_variation_stack(stack[:250]))
    row("total_variation warm", "250 tables n=6",
        lambda: [variation.total_variation(phi) for phi in tables[:250]])
    row("choquet_batch stacked", "1000 tables x 9 rows n=6",
        lambda: choquet_stack(stack, F, which))
    row("choquet_batch", "1000 tables x 9 rows n=6",
        lambda: [choquet_batch(phi, F[9 * p:9 * p + 9]) for p, phi in enumerate(tables)])
    for n in profile.continuity_sizes:
        phi = randgen.random_cut(np.random.default_rng(40 + n), n)
        pi = np.random.default_rng(50 + n).uniform(0.1, 1.0, n).tolist()
        row("uniform_continuity_modulus", f"cut n={n}",
            lambda: uniform_continuity_modulus(phi, pi))

    inst = randgen.random_fubini_instance(np.random.default_rng(60), 8, 6)
    row("lln_run", f"m=8 n=6 steps={profile.lln_steps}",
        lambda: lln_run(inst, steps=profile.lln_steps, seed=1))
    # construction alone: the checks of weights, g and its overflow guard
    concave = randgen.random_concave_of_modular(np.random.default_rng(3), 8).payload
    row("concave_of_modular", f"n=8 knots={len(concave['breakpoints'])}",
        lambda: SetFunction.concave_of_modular(concave["weights"], concave["breakpoints"]))
    g_points = [(0.0, 0.0), (0.4, 0.8), (1.0, 1.1)]
    density = ((0.0, 0.3, 0.7, 1.0), (0.5, 2.0, 1.0))
    row("concave_of_measure", "knots=3 density pieces=3",
        lambda: IntervalSetFunction.concave_of_measure(g_points, density))
    g = IntervalSetFunction.concave_of_measure(g_points)
    weighted = IntervalSetFunction.concave_of_measure(g_points, density)
    atom = IntervalSetFunction.point_mass(0.37, 1.5)
    for pieces in profile.pieces:
        values = np.random.default_rng(pieces).uniform(-1.0, 1.0, pieces)
        step = StepFunction(tuple(np.linspace(0.0, 1.0, pieces + 1).tolist()),
                            tuple(values.tolist()))
        row("choquet_interval", f"pieces={pieces}", lambda: choquet_interval(g, step))
        row("choquet_interval", f"point-mass pieces={pieces}",
            lambda: choquet_interval(atom, step))
        if pieces <= 200:  # the reference builds every level set: O(pieces^2)
            row("choquet_interval_by_levels", f"density pieces={pieces}",
                lambda: oracles.choquet_interval_by_levels(weighted, step))
            row("choquet_interval_by_levels", f"point-mass pieces={pieces}",
                lambda: oracles.choquet_interval_by_levels(atom, step))
        row("ae_gap", f"density pieces={pieces}", lambda: ae_gap(weighted, step))
        row("ae_gap", f"point-mass pieces={pieces}", lambda: ae_gap(atom, step))
    iset = IntervalSet.of([(0.1, 0.25), (0.5, 0.8)])
    row("extend_ui", "density, one set of 2 intervals", lambda: extend_ui(weighted, iset))
    touching = FlaggedSet.of([(0.2, 0.37, True, True), (0.37, 0.8, False, False)])
    row("extend_ls", "point mass, 2 touching pieces", lambda: extend_ls(atom, touching))

    if profile.end_to_end:
        for index, criterion in enumerate(selftest.CRITERIA, start=1):
            passed = []
            row("selftest", f"criterion_{index}",
                lambda: passed.append(criterion(index).passed))
            rows[-1]["passed"] = all(passed)
    return rows


def tier1(src: Path) -> dict:
    """One run of the tier-1 suite of `src`, as a row with its summary."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=src, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    return {"layer": "tier-1", "case": "wall", "seconds": seconds, "calls": 1,
            "summary": summary, "returncode": done.returncode}


def revision(src: Path):
    """`git describe --always --dirty` of src; a dirty tree's revision
    ends in the first 12 hex digits of the sha256 of `git diff HEAD`."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=src, capture_output=True,
                              check=True).stdout

    try:
        rev = git("describe", "--always", "--dirty").decode().strip()
        if rev.endswith("-dirty"):
            rev += "." + hashlib.sha256(git("diff", "HEAD")).hexdigest()[:12]
        return rev
    except (OSError, subprocess.CalledProcessError):
        return None


def next_out() -> Path:
    k = 0
    while (ROOT / f"BENCH_{k}.json").exists():
        k += 1
    return ROOT / f"BENCH_{k}.json"


def _format(seconds):
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6)):
        if seconds >= scale:
            return f"{seconds / scale:.3g} {unit}"
    return f"{seconds * 1e9:.3g} ns"


def compare(path_a, path_b) -> str:
    """One line per row of either file: both times and their ratio b/a."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    times_a = {(r["layer"], r["case"]): r["seconds"] for r in a["rows"]}
    times_b = {(r["layer"], r["case"]): r["seconds"] for r in b["rows"]}
    keys = list(times_a) + [key for key in times_b if key not in times_a]
    lines = [f"# a = {path_a} ({a['rev']}), b = {path_b} ({b['rev']})",
             f"{'layer':<28} {'case':<34} {'a':>10} {'b':>10} {'b/a':>6}"]
    for key in keys:
        ta, tb = times_a.get(key), times_b.get(key)
        ratio = f"{tb / ta:.2f}" if ta and tb else "-"
        lines.append(f"{key[0]:<28} {key[1]:<34} "
                     f"{_format(ta) if ta is not None else '-':>10} "
                     f"{_format(tb) if tb is not None else '-':>10} {ratio:>6}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/choqkit is measured")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: the next free BENCH_<k>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the rows of two bench files side by side")
    parser.add_argument("--smoke", action="store_true",
                        help="the small SMOKE profile (n <= 8, no end-to-end rows)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        print(compare(*args.compare))
        return 0
    src = args.src.resolve()
    sys.path.insert(0, str(src / "src"))
    import numpy as np

    profile = SMOKE if args.smoke else FULL
    start = time.perf_counter()
    rows = sweep(argparse.Namespace(**profile), src)
    doc = {
        "schema": SCHEMA, "rev": revision(src),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "k": profile["k"], "min_time_s": profile["min_time"],
        "sweep_s": time.perf_counter() - start, "rows": rows,
    }
    out = args.out or next_out()
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}: {len(rows)} rows in {doc['sweep_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
