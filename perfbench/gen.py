"""Seeded input generator for the benchmark workloads.

It uses only the standard library's `random.Random`, never
`choqkit.randgen`, so a change to the program's own generators cannot
change what a workload runs.  Sizes follow fixed schedules and only
values are drawn, so the work in a task list barely depends on the seed.

Every input is emitted as JSON in the README schema; the task list
refers to inputs by id.
"""

from __future__ import annotations

import random

# every kind at n = 12 and 14; at n = 16 only the table-backed kind, since
# each generator-backed kind costs seconds per task there and the pass must
# stay short enough to be repeated within one run
LATTICE_SIZES = (12, 14)
LATTICE_LARGE = 16
LATTICE_KINDS = ("table", "cut", "coverage", "matroid-rank", "modular",
                 "concave-of-modular")
SUBMODULAR_KINDS = LATTICE_KINDS[1:]

# sampling: (m, n) of each Fubini instance; every n in 2..8 appears
FUBINI_SHAPES = ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8),
                 (8, 2), (2, 8), (6, 4), (4, 6), (3, 7), (7, 3), (5, 8),
                 (8, 5), (6, 6))
LLN_STEPS = 1000
VECTORS_PER_EVAL = 8
UNCROSS_TASKS = 48
UNCROSS_ENTRIES = 6
INTERVAL_PIECES = tuple(range(20, 201, 20)) * 2
CONTINUITY_SIZES = (4, 5, 6) * 4

SELFTEST_CRITERIA = 7
# selftest draws its own instances from its base seed, and how long a
# criterion takes depends on what it draws; the benchmark always runs the
# base seed the acceptance tests certify, so every run does the same work
SELFTEST_BASE_SEED = 0


def _uniform_list(rng, count, lo, hi):
    return [rng.uniform(lo, hi) for _ in range(count)]


def _normalised(rng, count):
    raw = _uniform_list(rng, count, 0.05, 1.0)
    total = sum(raw)
    return [v / total for v in raw]


def _concave_breakpoints(rng, top):
    """Concave nondecreasing piecewise-linear g with g(0) = 0 on [0, top]."""
    slopes = sorted(_uniform_list(rng, 3, 0.1, 2.0), reverse=True)
    knots = sorted(_uniform_list(rng, 2, 0.1 * top, 0.9 * top)) + [top + 1.0]
    points = [[0.0, 0.0]]
    for knot, slope in zip(knots, slopes):
        t0, v0 = points[-1]
        if knot > t0:
            points.append([knot, v0 + slope * (knot - t0)])
    return points


def setfunction(rng, kind, n):
    """One setfunction JSON object of the given kind on n elements."""
    if kind == "table":
        values = _uniform_list(rng, 1 << n, -1.0, 1.0)
        values[0] = 0.0
        payload = {"values": values}
    elif kind == "cut":
        edges = []
        for u in range(n):
            for _ in range(2):
                v = rng.randrange(n - 1)
                edges.append([u, v + (v >= u), rng.uniform(0.1, 1.0)])
        payload = {"edges": edges}
    elif kind == "coverage":
        items = 2 * n
        payload = {"covers": [sorted(rng.sample(range(items), min(3, items)))
                              for _ in range(n)],
                   "item_weights": _uniform_list(rng, items, 0.1, 1.0)}
    elif kind == "matroid-rank":
        order = list(range(n))
        rng.shuffle(order)
        blocks = [sorted(order[i::4]) for i in range(min(4, n))]
        payload = {"matroid": "partition", "blocks": blocks,
                   "capacities": [rng.randint(1, len(b)) for b in blocks]}
    elif kind == "modular":
        payload = {"weights": _uniform_list(rng, n, 0.1, 1.0)}
    elif kind == "concave-of-modular":
        weights = _uniform_list(rng, n, 0.1, 1.0)
        payload = {"weights": weights,
                   "breakpoints": _concave_breakpoints(rng, sum(weights))}
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {"n": n, "kind": kind, "payload": payload}


class _Inputs:
    """Accumulates the JSON inputs and the task list of one workload."""

    def __init__(self, workload, seed):
        self.doc = {"workload": workload, "seed": seed, "setfunctions": {},
                    "vectors": {}, "fubini": {}, "families": {},
                    "intervals": {}, "tasks": []}

    def add(self, section, obj):
        key = f"{section[0]}{len(self.doc[section])}"
        self.doc[section][key] = obj
        return key

    def task(self, kind, **fields):
        self.doc["tasks"].append({"kind": kind, **fields})

    def finish(self, rng=None):
        """Number the tasks, after shuffling them if an rng is given.

        A shuffled list spreads each kind and size over the whole pass,
        so a slow spell of a shared machine does not land on all tasks
        near one percentile.
        """
        if rng is not None:
            rng.shuffle(self.doc["tasks"])
        for index, task in enumerate(self.doc["tasks"]):
            task["id"] = index
        return self.doc


def lattice(seed, sizes=LATTICE_SIZES, large=LATTICE_LARGE):
    rng = random.Random(seed)
    out = _Inputs("lattice", seed)
    shapes = [(n, kind) for n in sizes for kind in LATTICE_KINDS]
    for n, kind in shapes + [(large, "table")]:
        phi = out.add("setfunctions", setfunction(rng, kind, n))
        vectors = out.add("vectors", [_uniform_list(rng, n, -1.0, 1.0)
                                      for _ in range(VECTORS_PER_EVAL)])
        out.task("check", phi=phi)
        out.task("variation", phi=phi)
        out.task("decompose", phi=phi)
        out.task("choquet-eval", phi=phi, vectors=vectors)
        if kind in SUBMODULAR_KINDS:
            out.task("ls-decompose", phi=phi)
    return out.finish(rng)


def _interval_phi(rng, index):
    if index % 3 == 0:
        return {"kind": "point-mass", "location": rng.uniform(0.0, 0.999),
                "mass": rng.uniform(0.1, 2.0)}
    obj = {"kind": "concave-of-measure",
           "breakpoints": _concave_breakpoints(rng, 1.0)}
    if index % 3 == 2:
        cuts = sorted(_uniform_list(rng, 2, 0.1, 0.9))
        obj["density"] = {"breakpoints": [0.0] + cuts + [1.0],
                          "values": _uniform_list(rng, 3, 0.0, 2.0)}
    return obj


def _step_function(rng, pieces):
    inner = sorted(set(round(rng.uniform(0.0, 1.0), 12)
                       for _ in range(pieces - 1)) - {0.0, 1.0})
    breakpoints = [0.0] + inner + [1.0]
    return {"breakpoints": breakpoints,
            "values": _uniform_list(rng, len(breakpoints) - 1, -1.0, 1.0)}


def sampling(seed):
    rng = random.Random(seed)
    out = _Inputs("sampling", seed)
    for index, (m, n) in enumerate(FUBINI_SHAPES):
        kind = SUBMODULAR_KINDS[index % len(SUBMODULAR_KINDS)]
        phi_obj = setfunction(rng, kind, n)
        rows = [_uniform_list(rng, n, 0.0, 1.0) for _ in range(m)]
        fub = out.add("fubini", {"lambda": _normalised(rng, m),
                                 "pi": _normalised(rng, n),
                                 "F": rows, "phi": phi_obj})
        out.task("fubini", input=fub, steps=LLN_STEPS,
                 seed=rng.randrange(1 << 30))
        phi = out.add("setfunctions", phi_obj)
        for _ in range(6):
            vectors = rows + [_uniform_list(rng, n, -1.0, 1.0)
                              for _ in range(VECTORS_PER_EVAL)]
            out.task("choquet-eval", phi=phi,
                     vectors=out.add("vectors", vectors))
    for index in range(UNCROSS_TASKS):
        n = 2 + index % 7
        phi = out.add("setfunctions", setfunction(
            rng, SUBMODULAR_KINDS[index % len(SUBMODULAR_KINDS)], n))
        entries = [[rng.randrange(1, 1 << n), rng.randint(1, 3)]
                   for _ in range(UNCROSS_ENTRIES)]
        family = out.add("families", {"n": n, "entries": entries})
        out.task("uncross", family=family, phi=phi)
    for index, pieces in enumerate(INTERVAL_PIECES):
        obj = {"phi": _interval_phi(rng, index),
               "f": _step_function(rng, pieces)}
        out.task("interval-choquet", input=out.add("intervals", obj))
    for n in CONTINUITY_SIZES:
        phi = out.add("setfunctions", setfunction(rng, "table", n))
        out.task("continuity", phi=phi, pi=_normalised(rng, n))
    return out.finish(rng)


def selftest(seed):
    out = _Inputs("selftest", seed)
    for k in range(1, SELFTEST_CRITERIA + 1):
        out.task("selftest", criterion=k, seed=SELFTEST_BASE_SEED + k)
    return out.finish()


WORKLOADS = {"lattice": lattice, "sampling": sampling, "selftest": selftest}
