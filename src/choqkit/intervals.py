"""A concrete infinite set-algebra: finite unions of [a, b) inside [0, 1).

The algebra is closed under union, intersection and complement within
[0, 1).  General test sets carry endpoint-inclusion flags so that the
upper-infimum and lower-supremum extensions of an increasing
setfunction can genuinely differ (they agree on the algebra itself).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .setfunctions import _concave_validate, piecewise_linear


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
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((0.0, 1.0),))

    def contains(self, x: float) -> bool:
        return any(a <= x < b for a, b in self.intervals)

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
        return any(a <= x < b for a, b, _, _ in self.pieces if a < b)

    def has_right_room(self, x: float) -> bool:
        """True if the set contains [x, x + eps) for some eps > 0."""
        for a, b, lc, _ in self.pieces:
            if a < b and (a < x < b or (x == a and lc)):
                return True
        return False

    def measure(self) -> float:
        return sum(b - a for a, b, _, _ in self.pieces)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant f on [0, 1): values[j] on [breakpoints[j], breakpoints[j+1])."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps = tuple(float(c) for c in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bps) != len(vals) + 1 or bps[0] != 0.0 or bps[-1] != 1.0:
            raise ValueError("breakpoints must run 0 = c_0 < ... < c_m = 1 "
                             "with one value per piece")
        if any(c0 >= c1 for c0, c1 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    def __call__(self, x: float) -> float:
        if not 0.0 <= x < 1.0:
            raise ValueError("argument outside [0, 1)")
        return self.values[bisect_right(self.breakpoints, x) - 1]

    def distinct_values(self) -> list:
        return sorted(set(self.values), reverse=True)

    def superlevel(self, t: float) -> IntervalSet:
        """{f >= t}, always an element of the algebra."""
        return IntervalSet.of(
            (a, b) for a, b, v in zip(self.breakpoints, self.breakpoints[1:],
                                      self.values) if v >= t)


def _density_integral(density, a: float, b: float) -> float:
    bps, vals = density
    total = 0.0
    for c0, c1, w in zip(bps, bps[1:], vals):
        lo, hi = max(a, c0), min(b, c1)
        if lo < hi:
            total += w * (hi - lo)
    return total


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
        slopes = [(v1 - v0) / (t1 - t0)
                  for (t0, v0), (t1, v1) in zip(pts, pts[1:])]
        if any(s < 0 for s in slopes):
            raise ValueError("transform must be nondecreasing")
        if density is None:
            density = ((0.0, 1.0), (1.0,))
        bps = tuple(float(c) for c in density[0])
        weights = tuple(float(w) for w in density[1])
        if len(bps) != len(weights) + 1 or bps[0] != 0.0 or bps[-1] != 1.0:
            raise ValueError("density must be a step function on [0, 1)")
        if any(w < 0 for w in weights):
            raise ValueError("density must be nonnegative")
        return cls("concave-of-measure",
                   {"g": tuple(pts), "density": (bps, weights)})

    @classmethod
    def point_mass(cls, location: float, mass: float) -> "IntervalSetFunction":
        location, mass = float(location), float(mass)
        if not 0.0 <= location < 1.0:
            raise ValueError("atom must lie in [0, 1)")
        if mass < 0:
            raise ValueError("mass must be nonnegative")
        return cls("point-mass", {"location": location, "mass": mass})

    def weighted_measure(self, pairs) -> float:
        density = self.payload["density"]
        return sum(_density_integral(density, a, b) for a, b in pairs)

    def __call__(self, iset: IntervalSet) -> float:
        if self.kind == "concave-of-measure":
            return piecewise_linear(self.payload["g"],
                                    self.weighted_measure(iset.intervals))
        p, m = self.payload["location"], self.payload["mass"]
        return m if iset.contains(p) else 0.0


def _as_flagged(x) -> FlaggedSet:
    if isinstance(x, IntervalSet):
        return FlaggedSet.from_interval_set(x)
    return x


def extend_ui(phi: IntervalSetFunction, x) -> float:
    """inf of phi over algebra supersets of x, in closed form per family."""
    x = _as_flagged(x)
    if phi.kind == "concave-of-measure":
        # endpoint flags change the weighted measure by zero
        return piecewise_linear(phi.payload["g"],
                                phi.weighted_measure((a, b) for a, b, _, _ in x.pieces))
    p, m = phi.payload["location"], phi.payload["mass"]
    # every half-open superset of x contains p iff x contains p or
    # approaches p from the right
    return m if (x.contains(p) or x.accumulates_from_right(p)) else 0.0


def extend_ls(phi: IntervalSetFunction, x) -> float:
    """sup of phi over algebra subsets of x, in closed form per family."""
    x = _as_flagged(x)
    if phi.kind == "concave-of-measure":
        return piecewise_linear(phi.payload["g"],
                                phi.weighted_measure((a, b) for a, b, _, _ in x.pieces))
    m = phi.payload["mass"]
    # some half-open subset of x contains p iff x has room just right of p
    return m if x.has_right_room(phi.payload["location"]) else 0.0


def choquet_interval(phi: IntervalSetFunction, f: StepFunction,
                     extension: str = "exact") -> float:
    """Choquet integral of a step function against an increasing phi.

    The integrand t -> phi{f >= t} is piecewise constant with
    breakpoints at the values of f, so the integral is a finite sum;
    negative values go through the shift formula.  `extension` selects
    how level sets are evaluated (direct, or through the ui/ls
    extension; all three agree since level sets lie in the algebra).
    """
    evaluate = {
        "exact": phi,
        "ui": lambda s: extend_ui(phi, s),
        "ls": lambda s: extend_ls(phi, s),
    }[extension]
    # integrate phi{f >= s} over s in (lower, max f] with lower = min(0, min f),
    # then subtract the shift term; telescopes to the closed form below
    values = sorted(set(f.values), reverse=True)
    total = 0.0
    for t, nxt in zip(values, values[1:]):
        total += (t - nxt) * evaluate(f.superlevel(t))
    total += values[-1] * evaluate(IntervalSet.full())
    return total


def ae_gap(phi: IntervalSetFunction, f: StepFunction,
           tol: float = 1e-9) -> list:
    """Thresholds t where the ui- and ls-extensions disagree on {f >= t}.

    For step functions every level set lies in the algebra, so the
    returned list is empty; genuine gaps require test sets off the
    algebra (see extend_ui / extend_ls on FlaggedSet).  The function
    also verifies that no gap occurs strictly between values of f
    (where an exceptional interval would have positive measure) and
    that the ui- and ls-integrals agree.
    """
    values = f.distinct_values()
    exceptional = []
    # probe one t inside each interval of constancy of the level set
    probes = [(a + b) / 2.0 for a, b in zip(values, values[1:])]
    probes.append(values[-1] - 1.0)
    probes.append(values[0] + 1.0)
    for t in probes:
        level = FlaggedSet.from_interval_set(f.superlevel(t))
        if abs(extend_ui(phi, level) - extend_ls(phi, level)) > tol:
            raise AssertionError("exceptional set has positive measure")
    for t in values:
        level = FlaggedSet.from_interval_set(f.superlevel(t))
        if abs(extend_ui(phi, level) - extend_ls(phi, level)) > tol:
            exceptional.append(t)
    ui = choquet_interval(phi, f, extension="ui")
    ls = choquet_interval(phi, f, extension="ls")
    if abs(ui - ls) > max(tol, 1e-9):
        raise AssertionError("ui- and ls-integrals disagree")
    return exceptional
