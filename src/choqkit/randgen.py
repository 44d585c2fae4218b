"""Seeded random instance generators used by the tests and the selftest."""

from __future__ import annotations

import numpy as np

from .fubini import FubiniInstance
from .intervals import IntervalSetFunction, StepFunction
from .setfunctions import GroundSet, SetFunction
from .uncrossing import WeightedFamily


def random_table_setfunction(rng: np.random.Generator, n: int) -> SetFunction:
    """Sign-mixed table with values in [-1, 1) and phi(empty) = 0."""
    values = rng.uniform(-1.0, 1.0, size=1 << n)
    values[0] = 0.0
    return SetFunction.from_table(values)


def random_cut(rng: np.random.Generator, n: int) -> SetFunction:
    edges = [(u, v, float(rng.uniform(0.0, 1.0)))
             for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.6]
    if not edges and n > 1:  # one element has no edge: the zero cut
        edges = [(0, n - 1, 1.0)]
    return SetFunction.cut(n, edges)

def random_coverage(rng: np.random.Generator, n: int) -> SetFunction:
    n_items = int(rng.integers(n, 2 * n + 1))
    covers = [[int(i) for i in rng.choice(n_items,
                                          size=int(rng.integers(1, n_items + 1)),
                                          replace=False)]
              for _ in range(n)]
    weights = rng.uniform(0.0, 1.0, size=n_items)
    return SetFunction.coverage(covers, weights)


def _concave_points(knots, slopes) -> list:
    """Breakpoints of g with g(0) = 0 and slope slopes[i] up to knots[i]
    (a knot not above the last is skipped): concave for decreasing slopes."""
    pts = [(0.0, 0.0)]
    t_prev, v_prev = 0.0, 0.0
    for t, s in zip(knots, slopes):
        if t <= t_prev:
            continue
        v_prev += s * (t - t_prev)
        pts.append((float(t), float(v_prev)))
        t_prev = t
    return pts


def random_concave_of_modular(rng: np.random.Generator, n: int) -> SetFunction:
    weights = rng.uniform(0.1, 1.0, size=n)
    total = float(weights.sum())
    knots = np.sort(rng.uniform(0.0, total, size=2))
    slopes = np.sort(rng.uniform(0.0, 2.0, size=3))[::-1]
    return SetFunction.concave_of_modular(
        weights, _concave_points(list(knots) + [total + 1.0], slopes))


def random_matroid_rank(rng: np.random.Generator, n: int) -> SetFunction:
    if rng.random() < 0.5:
        return SetFunction.uniform_matroid(n, int(rng.integers(1, n + 1)))
    cuts = sorted(rng.choice(range(1, n), size=min(int(rng.integers(1, 4)), n - 1),
                             replace=False)) if n > 1 else []
    bounds = [0] + [int(c) for c in cuts] + [n]
    blocks = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    capacities = [int(rng.integers(1, len(b) + 1)) for b in blocks]
    return SetFunction.partition_matroid(blocks, capacities)


SUBMODULAR_FAMILIES = ("cut", "coverage", "concave-of-modular", "matroid-rank")


def random_submodular_setfunction(rng: np.random.Generator, n: int,
                                  families=SUBMODULAR_FAMILIES) -> SetFunction:
    kind = families[int(rng.integers(len(families)))]
    maker = {"cut": random_cut, "coverage": random_coverage,
             "concave-of-modular": random_concave_of_modular,
             "matroid-rank": random_matroid_rank}[kind]
    return maker(rng, n)


def random_weighted_family(rng: np.random.Generator, n: int) -> WeightedFamily:
    """1 to 8 entries of total multiplicity at most 20 (the first is always kept)."""
    ground = GroundSet(n)
    count = int(rng.integers(1, 9))
    entries = []
    total = 0
    for _ in range(count):
        mask = int(rng.integers(0, 1 << n))
        mult = int(rng.integers(1, max(2, 20 - total) + 1))
        if total + mult > 20:
            break
        entries.append((mask, mult))
        total += mult
    return WeightedFamily.of(ground, entries)


def random_chain_masks(rng: np.random.Generator, n: int) -> list:
    """Random chain 0 = X_0 subset ... subset X_m = full, multi-element jumps allowed."""
    order = list(rng.permutation(n))
    cut_count = int(rng.integers(0, n))
    cuts = sorted(rng.choice(range(1, n), size=min(cut_count, n - 1),
                             replace=False)) if n > 1 else []
    chain = [0]
    mask = 0
    segments = [0] + [int(c) for c in cuts] + [n]
    for a, b in zip(segments, segments[1:]):
        for x in order[a:b]:
            mask |= 1 << int(x)
        chain.append(mask)
    return chain


def random_step_function(rng: np.random.Generator, max_pieces: int = 20,
                         lo: float = -1.0, hi: float = 1.0) -> StepFunction:
    pieces = int(rng.integers(1, max_pieces + 1))
    inner = np.sort(rng.uniform(0.0, 1.0, size=pieces - 1))
    inner = [float(c) for c in inner if 0.0 < c < 1.0]
    bps = [0.0] + sorted(set(inner)) + [1.0]
    values = rng.uniform(lo, hi, size=len(bps) - 1)
    return StepFunction(tuple(bps), tuple(values))


def random_interval_setfunction(rng: np.random.Generator) -> IntervalSetFunction:
    if rng.random() < 0.5:
        return IntervalSetFunction.point_mass(float(rng.uniform(0.0, 1.0)),
                                              float(rng.uniform(0.1, 2.0)))
    slopes = np.sort(rng.uniform(0.0, 3.0, size=3))[::-1]
    knots = np.sort(rng.uniform(0.1, 0.9, size=2))
    pts = _concave_points(list(knots) + [1.5], slopes)
    density = None
    if rng.random() < 0.5:
        cuts = sorted(set(float(c) for c in rng.uniform(0.1, 0.9, size=2)))
        bps = tuple([0.0] + cuts + [1.0])
        density = (bps, tuple(rng.uniform(0.0, 2.0, size=len(bps) - 1)))
    return IntervalSetFunction.concave_of_measure(pts, density)


def random_fubini_instance(rng: np.random.Generator, m: int,
                           n: int) -> FubiniInstance:
    lam = rng.uniform(0.05, 1.0, size=m)
    lam /= lam.sum()
    pi = rng.uniform(0.05, 1.0, size=n)
    pi /= pi.sum()
    F = rng.uniform(0.0, 1.0, size=(m, n))
    # submodular and nonnegative by construction, so not re-checked
    phi = random_submodular_setfunction(
        rng, n, families=("coverage", "matroid-rank", "concave-of-modular"))
    return FubiniInstance.of(lam, pi, F, phi, validate=False)
