"""Independent brute-force oracles used to cross-check the fast routes.

These deliberately avoid the shortcuts taken by the main modules
(local submodularity characterization, single-element-step DP,
difference kernels over the value array, sorted gaps, the one-sort
level chain of a step function, the point-mass charge rule, the
interval closed forms) so that agreement is meaningful evidence.
"""

from __future__ import annotations

import math

from .intervals import FlaggedSet, IntervalSet, IntervalSetFunction, StepFunction
from .setfunctions import TOL, SetFunction, Verdict


def piecewise_linear(pts, t: float) -> float:
    """`setfunctions.piecewise_linear_array` at one t, in plain Python."""
    if t <= pts[0][0]:
        return pts[0][1]
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    if len(pts) == 1:
        return pts[0][1]
    # extend with the last slope
    (t0, v0), (t1, v1) = pts[-2], pts[-1]
    return v1 + (v1 - v0) / (t1 - t0) * (t - t1)


def value_by_payload(phi: SetFunction, mask: int) -> float:
    """phi(mask) by the family's own formula on phi.payload, one mask at a time.

    The reference for the vectorised builders behind `phi.values`: each
    sum adds its terms in the builder's order, so the two agree exactly.
    """
    p = phi.payload
    elements = list(phi.ground.elements(phi.ground.check_mask(mask)))
    if phi.kind == "table":
        return float(p["values"][mask])
    if phi.kind == "cut":
        cut = (w for u, v, w in p["edges"] if (u in elements) != (v in elements))
        return sum(cut, 0.0)
    if phi.kind == "coverage":
        covered = {i for x in elements for i in p["covers"][x]}
        return sum((w for i, w in enumerate(p["item_weights"]) if i in covered), 0.0)
    if phi.kind == "matroid-rank":
        if p["matroid"] == "uniform":
            return float(min(len(elements), p["rank"]))
        return float(sum(min(len(set(block) & set(elements)), cap)
                         for block, cap in zip(p["blocks"], p["capacities"])))
    subset_sum = sum((p["weights"][x] for x in elements), 0.0)
    if phi.kind == "modular":
        return subset_sum
    return piecewise_linear(p["breakpoints"], subset_sum)  # concave-of-modular


def _pairs_verdict(phi: SetFunction, violates) -> Verdict:
    vals = phi.table()
    size = len(vals)
    for x in range(size):
        for y in range(x + 1, size):
            if violates(vals[x | y] + vals[x & y], vals[x] + vals[y]):
                return Verdict(False, (x, y))
    return Verdict(True)


def submodular_by_pairs(phi: SetFunction, tol: float = TOL) -> Verdict:
    """Direct O(4^n) check of the defining inequality over all pairs."""
    return _pairs_verdict(phi, lambda meet_join, parts: meet_join > parts + tol)


def modular_by_pairs(phi: SetFunction, tol: float = TOL) -> Verdict:
    """Direct O(4^n) check of the modular equality over all pairs."""
    return _pairs_verdict(phi, lambda meet_join, parts: abs(meet_join - parts) > tol)


def increasing_by_pairs(phi: SetFunction, tol: float = TOL) -> Verdict:
    """Direct O(3^n) check of phi(S) <= phi(T) over all S subset of T."""
    vals = phi.table()
    for big in range(len(vals)):
        sub = big
        while sub:
            sub = (sub - 1) & big
            if vals[sub] > vals[big] + tol:
                return Verdict(False, (sub, big))
    return Verdict(True)


def _all_predecessor_dp(vals, step) -> list:
    """O(3^n) chain DP allowing arbitrary (multi-element) chain steps."""
    size = len(vals)
    table = [0.0] * size
    for mask in range(1, size):
        best = step(vals[mask] - vals[0])
        sub = (mask - 1) & mask
        while sub:
            cand = table[sub] + step(vals[mask] - vals[sub])
            if cand > best:
                best = cand
            sub = (sub - 1) & mask
        table[mask] = best
    return table


def variation_all_predecessors(phi: SetFunction) -> float:
    """K(phi) by the all-predecessor chain DP with |increment| steps."""
    return _all_predecessor_dp(phi.table(), abs)[-1]


def positive_variation_all_predecessors(phi: SetFunction) -> list:
    """mu(S): largest sum of positive increments over chains ending at S."""
    return _all_predecessor_dp(phi.table(), lambda delta: max(delta, 0.0))


def psi_by_subsets(phi: SetFunction) -> list:
    """psi(S) = max_{Y subseteq S} phi(Y), by enumerating every subset."""
    vals = phi.table()
    psi = []
    for mask in range(len(vals)):
        best, sub = vals[mask], mask
        while sub:
            sub = (sub - 1) & mask
            best = max(best, vals[sub])
        psi.append(best)
    return psi


def continuity_modulus_by_pairs(phi: SetFunction, pi, epsilons=None) -> list:
    """uniform_continuity_modulus by scanning every pair for every eps."""
    pi = tuple(float(v) for v in pi)
    vals = phi.table()
    size = len(vals)
    sym_measure = [sum(w for x, w in enumerate(pi) if mask >> x & 1)
                   for mask in range(size)]
    gaps = []
    for s in range(size):
        for t in range(s + 1, size):
            gaps.append((abs(vals[s] - vals[t]), sym_measure[s ^ t]))
    if epsilons is None:
        distinct = sorted({g for g, _ in gaps if g > 0})
        epsilons = distinct if distinct else [1.0]
    table = []
    for eps in epsilons:
        qualifying = [d for g, d in gaps if g >= eps]
        table.append((eps, min(qualifying) if qualifying else math.inf))
    return table


def chain_variation_sum(phi: SetFunction, chain) -> float:
    """Sum of |phi increments| along an explicit chain of masks."""
    return sum(abs(phi(b) - phi(a)) for a, b in zip(chain, chain[1:]))


def superlevel(f: StepFunction, t: float) -> IntervalSet:
    """{f >= t}, always an element of the algebra: f's pieces with a value
    of at least t, in breakpoint order, touching ones merged."""
    merged = []
    for a, b, v in zip(f.breakpoints, f.breakpoints[1:], f.values):
        if v >= t and merged and merged[-1][1] == a:
            merged[-1] = (merged[-1][0], b)
        elif v >= t:
            merged.append((a, b))
    return IntervalSet(tuple(merged))


def point_mass_extensions_by_probes(phi: IntervalSetFunction, x: FlaggedSet) -> tuple:
    """(ui, ls) of a point mass at p on x, reading only membership in x.

    Membership in x is constant between p and the next endpoint of x above
    p (or 1), so that gap's midpoint stands for every point just right of
    p: each algebra superset of x contains p iff x contains p or the
    midpoint, and some algebra subset of x contains p iff x contains both.
    """
    p, mass = phi.payload["location"], phi.payload["mass"]
    above = [end for a, b, _, _ in x.pieces for end in (a, b) if end > p]
    inside, right = x.contains(p), x.contains((p + min(above, default=1.0)) / 2.0)
    return (mass if inside or right else 0.0), (mass if inside and right else 0.0)


def _level_value(phi: IntervalSetFunction, iset: IntervalSet, extension: str) -> float:
    """phi (`exact`) or its ui/ls extension on an algebra set, in floats."""
    if extension not in ("exact", "ui", "ls"):
        raise KeyError(extension)
    if phi.kind == "concave-of-measure":
        # one weighted measure for all three: the set lies in the algebra
        bps, weights = (part.tolist() for part in phi.payload["density"])
        mass = 0.0
        for a, b in iset.intervals:
            for c, d, w in zip(bps, bps[1:], weights):
                lo, hi = (a if a > c else c), (b if b < d else d)
                if lo < hi:
                    mass += (hi - lo) * w
        return piecewise_linear(phi.payload["g"].tolist(), mass)
    x = FlaggedSet.from_interval_set(iset)
    if extension == "exact":
        return phi.payload["mass"] if x.contains(phi.payload["location"]) else 0.0
    ui, ls = point_mass_extensions_by_probes(phi, x)
    return ui if extension == "ui" else ls


def choquet_interval_by_levels(phi: IntervalSetFunction, f: StepFunction,
                               extension: str = "exact") -> float:
    """`intervals.choquet_interval` by building and evaluating every level set."""
    # integrate phi{f >= s} over s in (lower, max f] with lower = min(0, min f),
    # then subtract the shift term; telescopes to the closed form below
    values = sorted(set(f.values), reverse=True)
    total = 0.0
    for t, nxt in zip(values, values[1:]):
        total += (t - nxt) * _level_value(phi, superlevel(f, t), extension)
    total += values[-1] * _level_value(phi, IntervalSet.full(), extension)
    return total


def ae_gap_by_levels(phi: IntervalSetFunction, f: StepFunction,
                     tol: float = TOL) -> list:
    """`intervals.ae_gap` by comparing ui and ls on every level set in turn."""
    values = sorted(set(f.values), reverse=True)

    def gap(t):
        level = superlevel(f, t)
        return abs(_level_value(phi, level, "ui") - _level_value(phi, level, "ls")) > tol

    # probe one t inside each interval of constancy of the level set,
    # then the full (t = -inf) and the empty (t = +inf) level set
    probes = [(a + b) / 2.0 for a, b in zip(values, values[1:])]
    if any(map(gap, probes + [-math.inf, math.inf])):
        raise AssertionError("exceptional set has positive measure")
    exceptional = [t for t in values if gap(t)]
    ui = choquet_interval_by_levels(phi, f, extension="ui")
    ls = choquet_interval_by_levels(phi, f, extension="ls")
    if abs(ui - ls) > max(tol, TOL):
        raise AssertionError("ui- and ls-integrals disagree")
    return exceptional
