"""What the benchmark measures; `run.py --write-manifest` writes it out
as BENCHMARK.json at the root of the repository."""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    {"name": "lattice",
     "why": "six setfunction kinds at n = 12, 14 and a table at n = 16 through "
            "check, variation, decompose, choquet-eval, ls_decomposition: 2^n "
            "table passes in setfunctions and variation do the work"},
    {"name": "sampling",
     "why": "many instances with n <= 8 (fubini, choquet-eval, uncross, "
            "interval-choquet, continuity): phi is a point oracle, so per-call "
            "overhead in choquet, fubini, uncrossing and intervals shows"},
    {"name": "selftest",
     "why": "selftest criteria 1-7 at base seed 0: the certifying run users "
            "and the test suite pay for; the only workload that reaches oracles"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "task_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "task_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.0001},
]

# spans named <module>.<function>, each reported as .calls, .self_s, .p50_us
SPANS = [
    "setfunctions.setfunction_from_json", "setfunctions.is_submodular",
    "setfunctions.is_increasing", "setfunctions.is_modular",
    "variation.total_variation", "variation.max_variation_chain",
    "variation.canonical_decomposition", "variation.ls_decomposition",
    "choquet.choquet",
    "fubini.FubiniInstance.of", "fubini.lopsided_check", "fubini.lln_run",
    "fubini.uniform_continuity_modulus",
    "uncrossing.WeightedFamily.of", "uncrossing.uncross",
    "uncrossing.certify_chain_equality",
    "intervals.StepFunction", "intervals.IntervalSetFunction.point_mass",
    "intervals.IntervalSetFunction.concave_of_measure",
    "intervals.choquet_interval", "intervals.ae_gap",
] + ["cli." + kind for kind in (
    "check", "variation", "decompose", "choquet-eval", "ls-decompose",
    "fubini", "uncross", "interval-choquet", "continuity", "selftest")]

SPAN_STATS = (("calls", "count"), ("self_s", "s"), ("p50_us", "us"))

COUNTS = [("setfunctions.table.calls", "count"),
          ("setfunctions.table.entries", "count"),
          ("setfunctions.table.total_s", "s"),
          ("fubini.lln_run.steps", "count"),
          ("uncrossing.uncross.steps", "count"),
          ("intervals.pieces", "count")]

PER_LAYER = (
    [{"name": f"{span}.{stat}", "unit": unit, "better": "lower"}
     for span in SPANS for stat, unit in SPAN_STATS]
    + [{"name": f"selftest.criterion_{k}_s", "unit": "s", "better": "lower"}
       for k in range(1, 8)]
    + [{"name": name, "unit": unit, "better": "lower"} for name, unit in COUNTS]
    + [{"name": "trace.overhead_s", "unit": "s", "better": "lower"},
       {"name": "trace.spans", "unit": "count", "better": "lower"},
       {"name": "raw.wall_s", "unit": "s", "better": "lower"},
       {"name": "calib.scale", "unit": "ratio", "better": "higher"}])


def manifest() -> dict:
    return {"command": COMMAND, "paths": PATHS, "run_seconds": RUN_SECONDS,
            "workloads": WORKLOADS, "end_to_end": END_TO_END,
            "per_layer": PER_LAYER}
