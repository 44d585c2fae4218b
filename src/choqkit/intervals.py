"""A concrete infinite set-algebra: finite unions of [a, b) inside [0, 1).

The algebra is closed under union, intersection and complement within
[0, 1).  General test sets carry endpoint-inclusion flags so that the
upper-infimum and lower-supremum extensions of an increasing
setfunction can genuinely differ (they agree on the algebra itself).

Each family has one closed form for the pair (ui, ls), for one `FlaggedSet`
or for every superlevel set of a step function at once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .setfunctions import (TOL, _concave_validate, _finite, _require_finite_g,
                           piecewise_linear_array)


def _validate_unit(a: float, b: float):
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"interval [{a}, {b}) not inside [0, 1)")


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of half-open intervals [a, b) in [0, 1)."""

    intervals: tuple  # sorted disjoint ((a, b), ...), no touching pairs

    @classmethod
    def of(cls, pairs) -> "IntervalSet":
        pairs = sorted((float(a), float(b)) for a, b in pairs)
        merged = []
        for a, b in pairs:
            _validate_unit(a, b)
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(tuple((a, b) for a, b in merged))

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((0.0, 1.0),))

    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.of(self.intervals + other.intervals)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalSet.of(out)

    def complement(self) -> "IntervalSet":
        out = []
        cursor = 0.0
        for a, b in self.intervals:
            if cursor < a:
                out.append((cursor, a))
            cursor = b
        if cursor < 1.0:
            out.append((cursor, 1.0))
        return IntervalSet.of(out)

    def symmetric_difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other.complement()).union(
            other.intersection(self.complement()))


@dataclass(frozen=True)
class FlaggedSet:
    """Finite union of intervals with explicit endpoint-inclusion flags.

    Pieces are (a, b, left_closed, right_closed); a == b denotes the
    singleton {a} and requires both flags.  These sets live outside the
    algebra in general and are the arguments of the ui/ls extensions.
    """

    pieces: tuple

    @classmethod
    def of(cls, pieces) -> "FlaggedSet":
        norm = []
        for a, b, lc, rc in pieces:
            a, b, lc, rc = float(a), float(b), bool(lc), bool(rc)
            if a == b:
                if not (lc and rc):
                    raise ValueError("degenerate piece must be a closed singleton")
                if not 0.0 <= a < 1.0:
                    raise ValueError("singleton outside [0, 1)")
            else:
                _validate_unit(a, b)
                if rc and b == 1.0:
                    raise ValueError("the point 1 is outside the ground space")
            norm.append((a, b, lc, rc))
        norm.sort()
        for (a0, b0, _, rc0), (a1, b1, lc1, _) in zip(norm, norm[1:]):
            if a1 < b0 or (a1 == b0 and (rc0 and lc1)):
                raise ValueError("pieces must be disjoint")
        return cls(tuple(norm))

    @classmethod
    def from_interval_set(cls, iset: IntervalSet) -> "FlaggedSet":
        return cls(tuple((a, b, True, False) for a, b in iset.intervals))

    def contains(self, x: float) -> bool:
        for a, b, lc, rc in self.pieces:
            if a < x < b or (x == a and lc) or (x == b and rc):
                return True
        return False

    def accumulates_from_right(self, x: float) -> bool:
        """True if the set meets (x, x + eps) for every eps > 0."""
        for a, b, _, _ in self.pieces:
            if a <= x < b:
                return True
        return False

    def weighted_measure(self, density) -> float:
        ends = np.array(self.pieces, dtype=np.float64).reshape(-1, 4)
        return _density_mass(density, ends[:, 0], ends[:, 1]).sum()


def _step_parts(breakpoints, values, what: str) -> tuple:
    """Finite breakpoints 0 = c_0 < ... < c_m = 1 and m finite values."""
    bps = _finite(breakpoints, f"{what} breakpoints")
    vals = _finite(values, f"{what} values")
    if (len(bps) != len(vals) + 1 or bps[0] != 0.0 or bps[-1] != 1.0
            or any(c0 >= c1 for c0, c1 in zip(bps, bps[1:]))):
        raise ValueError(f"{what} breakpoints must run 0 = c_0 < ... < c_m = 1 "
                         "with one value per piece")
    return bps, vals


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant f on [0, 1): values[j] on [breakpoints[j], breakpoints[j+1])."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps, vals = _step_parts(self.breakpoints, self.values, "step function")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    def __call__(self, x: float) -> float:
        if not 0.0 <= x < 1.0:
            raise ValueError("argument outside [0, 1)")
        return self.values[bisect_right(self.breakpoints, x) - 1]


def _density_mass(density, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Weighted measure of each [lo[i], hi[i]) under a step density."""
    bps, weights = density
    overlap = np.minimum(hi[:, None], bps[1:]) - np.maximum(lo[:, None], bps[:-1])
    return (np.maximum(overlap, 0.0, out=overlap) * weights).sum(axis=1)


class _Superlevels:
    """The sets {f >= t} for f's distinct values t_1 > ... > t_L (the
    levels).  These are all of f's nonempty superlevel sets: for t in
    (t_{k+1}, t_k] the set {f >= t} is the k-th, and below t_L it is [0, 1).

    Each set is a prefix of one stable sort of the pieces by value, so
    it contains x exactly when f(x) >= t; f is right-continuous on its
    [a, b) pieces, so the set also approaches x from the right exactly then.
    """

    def __init__(self, f: StepFunction):
        values = np.array(f.values)
        self.order = np.argsort(-values, kind="stable")
        descending = values[self.order]
        distinct = np.ones(descending.size, dtype=bool)
        np.not_equal(descending[1:], descending[:-1], out=distinct[1:])
        self.levels = levels = descending[distinct]
        self.count = np.searchsorted(-descending, -levels, side="right")
        self.widths = levels.copy()  # t_k - t_{k+1}, with t_L - 0 last
        self.widths[:-1] -= levels[1:]
        self.f = f

    def weighted_measure(self, density) -> np.ndarray:
        bps = np.array(self.f.breakpoints)
        mass = _density_mass(density, bps[:-1], bps[1:])[self.order]
        prefix = np.zeros(mass.size + 1)  # prefix[k]: the first k pieces in order
        np.cumsum(mass, out=prefix[1:])
        return prefix[self.count]

    def contains(self, x: float) -> np.ndarray:
        return self.f(x) >= self.levels

    accumulates_from_right = contains

    def integral(self, heights: np.ndarray) -> float:
        """sum_k (t_k - t_{k+1}) phi{f >= t_k} over the levels, t_L = 0."""
        return float((self.widths * heights).sum())


class IntervalSetFunction:
    """Increasing setfunction on the interval algebra, phi(empty) = 0.

    Two families are supported: a concave transform of a weighted
    measure, and a point-mass charge concentrated on a single atom.
    """

    __slots__ = ("kind", "payload")

    def __init__(self, kind: str, payload):
        self.kind = kind
        self.payload = payload

    @classmethod
    def concave_of_measure(cls, breakpoints,
                           density: Optional[tuple] = None) -> "IntervalSetFunction":
        pts = _concave_validate(breakpoints)
        if any(v1 < v0 for (_, v0), (_, v1) in zip(pts, pts[1:])):
            raise ValueError("transform must be nondecreasing")
        if density is None:
            density = ((0.0, 1.0), (1.0,))
        bps, weights = _step_parts(*density, "density")
        if any(w < 0 for w in weights):
            raise ValueError("density must be nonnegative")
        total = sum((c1 - c0) * w for c0, c1, w in zip(bps, bps[1:], weights))  # of [0, 1)
        # every mass in [0, total] is a set's, and g's arithmetic grows toward
        # each segment's end, so the knots below total and total itself bound it
        _require_finite_g(pts, [t for t, _ in pts if t < total] + [total],
                          "the weighted measures")
        # read-only float64 arrays, so no closed form converts them again; the
        # numbers were checked finite above
        g, bps, weights = (np.array(part) for part in (pts, bps, weights))
        for array in (g, bps, weights):
            array.flags.writeable = False
        return cls("concave-of-measure", {"g": g, "density": (bps, weights)})

    @classmethod
    def point_mass(cls, location: float, mass: float) -> "IntervalSetFunction":
        location, mass = _finite((location, mass), "atom location and mass")
        if not 0.0 <= location < 1.0:
            raise ValueError("atom must lie in [0, 1)")
        if mass < 0:
            raise ValueError("mass must be nonnegative")
        return cls("point-mass", {"location": location, "mass": mass})

    def __call__(self, iset: IntervalSet) -> float:
        return float(_closed_form(self, iset)[0])


def _closed_form(phi: IntervalSetFunction, x) -> tuple:
    """The pair (ui, ls) of phi's extensions on x, per family; x may be
    `_Superlevels`.  On `[a, b)` pieces and on superlevel sets `contains`
    and `accumulates_from_right` agree, so there ui = ls = phi."""
    if isinstance(x, IntervalSet):
        x = FlaggedSet.from_interval_set(x)
    if phi.kind == "concave-of-measure":
        # endpoint flags change the weighted measure by zero, so both
        # extensions share one evaluation
        value = piecewise_linear_array(phi.payload["g"],
                                       x.weighted_measure(phi.payload["density"]))
        return value, value
    # a point mass at p charges every half-open superset of x iff x contains
    # p or approaches it from the right, and some half-open subset iff both
    p, m = phi.payload["location"], phi.payload["mass"]
    inside, right = x.contains(p), x.accumulates_from_right(p)
    return np.where(inside | right, m, 0.0), np.where(inside & right, m, 0.0)


def extend_ui(phi: IntervalSetFunction, x) -> float:
    """inf of phi over algebra supersets of x, in closed form per family."""
    return float(_closed_form(phi, x)[0])


def extend_ls(phi: IntervalSetFunction, x) -> float:
    """sup of phi over algebra subsets of x, in closed form per family."""
    return float(_closed_form(phi, x)[1])


def choquet_interval(phi: IntervalSetFunction, f: StepFunction) -> float:
    """Choquet integral of a step function against an increasing phi.

    The integrand t -> phi{f >= t} is piecewise constant with
    breakpoints at the values of f, so the integral is a finite sum;
    negative values go through the shift formula.  Level sets lie in
    the algebra, where phi and its ui/ls extensions agree.
    """
    sets = _Superlevels(f)
    return sets.integral(_closed_form(phi, sets)[0])


def ae_gap(phi: IntervalSetFunction, f: StepFunction,
           tol: float = TOL) -> list:
    """Thresholds t where the ui- and ls-extensions disagree on {f >= t}.

    Each level's set is {f >= t} for every t in an interval of positive
    length (see `_Superlevels`), so a gap above `tol` at a level raises:
    the exceptional set would have positive measure.  A step function's
    exceptional set is therefore empty whenever this returns; genuine
    gaps need test sets off the algebra (see extend_ui / extend_ls on
    FlaggedSet).  The ui- and ls-integrals are also checked to agree.
    """
    sets = _Superlevels(f)
    ui, ls = _closed_form(phi, sets)
    if (np.abs(ui - ls) > tol).any():
        raise AssertionError("exceptional set has positive measure")
    if abs(sets.integral(ui) - sets.integral(ls)) > max(tol, TOL):
        raise AssertionError("ui- and ls-integrals disagree")
    return []
