"""Setfunctions on a finite ground set, with bitmask subsets.

A subset of the ground set {0, ..., n-1} is an n-bit integer mask
(bit x set <=> element x in the subset).  All evaluation oracles are
pure and total on the power set; instances are immutable after
construction.

Table-first convention: every pass over the power set reads
`SetFunction.values`, one cached read-only float64 array indexed by
mask and built on first use by a vectorised builder of the family.
Point evaluation `phi(mask)` never builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

TOL = 1e-9


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


@dataclass(frozen=True)
class GroundSet:
    """Finite ground set {0, ..., n-1}, optionally with element labels."""

    n: int
    labels: Optional[tuple] = None

    def __post_init__(self):
        if not 1 <= self.n <= 24:
            raise ValueError(f"ground set size must be in 1..24, got {self.n}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.n:
                raise ValueError("labels length must equal n")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_mask(self, mask: int) -> int:
        if not 0 <= mask <= self.full_mask:
            raise PreconditionError(f"mask {mask} out of range for n={self.n}")
        return mask

    def elements(self, mask: int):
        """Yield the elements of a subset mask in increasing order."""
        x = 0
        while mask:
            if mask & 1:
                yield x
            mask >>= 1
            x += 1

    def mask_of(self, elements) -> int:
        mask = 0
        for x in elements:
            if not 0 <= x < self.n:
                raise PreconditionError(f"element {x} out of range for n={self.n}")
            mask |= 1 << x
        return mask

    def format_mask(self, mask: int) -> str:
        if mask == 0:
            return "{}"
        names = self.labels or [str(x) for x in range(self.n)]
        return "{" + ",".join(names[x] for x in self.elements(mask)) + "}"


def _finite(values, what: str) -> tuple:
    """Floats of `values`; ValueError if any is NaN or infinite."""
    values = tuple(float(v) for v in values)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite")
    return values


def _concave_validate(breakpoints):
    """Validate a piecewise-linear concave g with g(0)=0; return point list."""
    pts = [_finite(point, "breakpoints") for point in breakpoints]
    if not pts or pts[0] != (0.0, 0.0):
        raise ValueError("breakpoint list must start with (0, 0)")
    slopes = []
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t1 <= t0:
            raise ValueError("breakpoint abscissae must be strictly increasing")
        slopes.append((v1 - v0) / (t1 - t0))
    for s0, s1 in zip(slopes, slopes[1:]):
        if s1 > s0 + TOL:
            raise ValueError("breakpoints do not describe a concave function")
    return pts


def piecewise_linear(pts, t: float) -> float:
    """Evaluate the piecewise-linear function through pts, extended linearly."""
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


def piecewise_linear_array(pts, t: np.ndarray) -> np.ndarray:
    """`piecewise_linear` at every entry of t, with the same arithmetic."""
    ts = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if len(pts) == 1:
        return np.full(t.shape, vs[0])
    j = np.clip(np.searchsorted(ts, t), 1, len(pts) - 1)
    t0, t1, v0, v1 = ts[j - 1], ts[j], vs[j - 1], vs[j]
    inside = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    beyond = vs[-1] + (vs[-1] - vs[-2]) / (ts[-1] - ts[-2]) * (t - ts[-1])
    return np.where(t <= ts[0], vs[0], np.where(t > ts[-1], beyond, inside))


def _popcounts(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).astype(np.int64)


def subset_sums(weights) -> np.ndarray:
    """sum_{x in S} weights[x] for every mask S, doubling one bit at a time.

    Each entry adds the weights in increasing element order, as the
    point evaluators do, so the floats agree exactly.
    """
    out = np.zeros(1 << len(weights))
    for x, w in enumerate(weights):
        out[1 << x:2 << x] = out[:1 << x] + w
    return out


class SetFunction:
    """Evaluation oracle phi: 2^J -> R with phi(empty) = 0.

    Instances are either table-backed (explicit value per mask) or
    generated by a standard family (cut, coverage, matroid rank,
    modular, concave-of-modular).  Construction rejects payloads with
    phi(empty) != 0 instead of silently re-normalizing, and non-finite
    numbers with ValueError.  Each family supplies a point evaluator
    and a vectorised builder of the whole value array.
    """

    __slots__ = ("ground", "kind", "payload", "_eval", "_build", "_values")

    def __init__(self, ground: GroundSet, kind: str, payload, evaluator, builder):
        self.ground = ground
        self.kind = kind
        self.payload = payload
        self._eval = evaluator
        self._build = builder
        self._values = None
        if abs(evaluator(0)) > 0.0:
            raise PreconditionError("setfunction must satisfy phi(empty) = 0")

    # ---- constructors ------------------------------------------------

    @classmethod
    def from_table(cls, values: Sequence[float], labels=None) -> "SetFunction":
        values = _finite(values, "table values")
        size = len(values)
        n = size.bit_length() - 1
        if size != 1 << n or n < 1:
            raise ValueError("table length must be 2^n with n >= 1")
        if values[0] != 0.0:
            raise PreconditionError("table[0] must be 0 (phi(empty) = 0)")
        return cls(GroundSet(n, labels), "table", {"values": values},
                   values.__getitem__, lambda: np.array(values))

    @classmethod
    def cut(cls, n: int, edges) -> "SetFunction":
        """Weighted cut function: total weight of edges leaving S."""
        ground = GroundSet(n)
        edges = tuple((u, v, _finite(w, "edge weights")[0] if w else 1.0)
                      for u, v, *w in edges)
        edata = []
        for u, v, weight in edges:
            if u == v:
                raise ValueError("loops have no cut contribution; remove them")
            edata.append((ground.check_mask(1 << u) | ground.check_mask(1 << v),
                          weight))
        edata = tuple(edata)

        def evaluate(mask: int) -> float:
            total = 0.0
            for pair, weight in edata:
                hit = mask & pair
                if hit != 0 and hit != pair:
                    total += weight
            return total

        def build():
            masks = np.arange(1 << n)
            out = np.zeros(1 << n)
            for u, v, weight in edges:
                out += weight * ((masks >> u ^ masks >> v) & 1)
            return out

        return cls(ground, "cut", {"edges": edges}, evaluate, build)

    @classmethod
    def coverage(cls, covers: Sequence[Sequence[int]],
                 item_weights: Sequence[float]) -> "SetFunction":
        """Weighted coverage: weight of the union of items covered by S."""
        n = len(covers)
        ground = GroundSet(n)
        weights = _finite(item_weights, "item weights")
        if any(w < 0 for w in weights):
            raise ValueError("item weights must be nonnegative")
        item_masks = []
        for cover in covers:
            m = 0
            for item in cover:
                if not 0 <= item < len(weights):
                    raise ValueError(f"item {item} out of range")
                m |= 1 << item
            item_masks.append(m)
        item_masks = tuple(item_masks)

        def evaluate(mask: int) -> float:
            covered = 0
            for x in ground.elements(mask):
                covered |= item_masks[x]
            total = 0.0
            i = 0
            while covered:
                if covered & 1:
                    total += weights[i]
                covered >>= 1
                i += 1
            return total

        def build():
            masks = np.arange(1 << n)
            out = np.zeros(1 << n)
            for i, weight in enumerate(weights):
                holders = sum(1 << x for x, m in enumerate(item_masks) if m >> i & 1)
                if holders:
                    out += weight * (masks & holders != 0)
            return out

        payload = {"covers": tuple(tuple(c) for c in covers), "item_weights": weights}
        return cls(ground, "coverage", payload, evaluate, build)

    @classmethod
    def uniform_matroid(cls, n: int, rank: int) -> "SetFunction":
        if not 0 <= rank <= n:
            raise ValueError("rank must lie in 0..n")
        ground = GroundSet(n)
        payload = {"matroid": "uniform", "rank": rank}
        return cls(ground, "matroid-rank", payload,
                   lambda mask: float(min(bin(mask).count("1"), rank)),
                   lambda: np.minimum(_popcounts(np.arange(1 << n)), rank))

    @classmethod
    def partition_matroid(cls, blocks: Sequence[Sequence[int]],
                          capacities: Sequence[int]) -> "SetFunction":
        elems = [x for block in blocks for x in block]
        n = len(elems)
        if sorted(elems) != list(range(n)):
            raise ValueError("blocks must partition 0..n-1")
        if len(capacities) != len(blocks):
            raise ValueError("one capacity per block")
        ground = GroundSet(n)
        block_masks = tuple(ground.mask_of(b) for b in blocks)
        caps = tuple(int(c) for c in _finite(capacities, "capacities"))

        def evaluate(mask: int) -> float:
            return float(sum(min(bin(mask & bm).count("1"), c)
                             for bm, c in zip(block_masks, caps)))

        def build():
            masks = np.arange(1 << n)
            return sum(np.minimum(_popcounts(masks & bm), c)
                       for bm, c in zip(block_masks, caps))

        payload = {"matroid": "partition",
                   "blocks": tuple(tuple(b) for b in blocks),
                   "capacities": caps}
        return cls(ground, "matroid-rank", payload, evaluate, build)

    @classmethod
    def modular(cls, weights: Sequence[float]) -> "SetFunction":
        weights = _finite(weights, "weights")
        ground = GroundSet(len(weights))

        def evaluate(mask: int) -> float:
            return sum(weights[x] for x in ground.elements(mask))

        return cls(ground, "modular", {"weights": weights}, evaluate,
                   lambda: subset_sums(weights))

    @classmethod
    def concave_of_modular(cls, weights: Sequence[float],
                           breakpoints) -> "SetFunction":
        """phi(S) = g(sum of weights over S) for concave g with g(0)=0."""
        weights = _finite(weights, "weights")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative for concave composition")
        pts = _concave_validate(breakpoints)
        ground = GroundSet(len(weights))

        def evaluate(mask: int) -> float:
            return piecewise_linear(pts, sum(weights[x] for x in ground.elements(mask)))

        payload = {"weights": weights, "breakpoints": tuple(pts)}
        return cls(ground, "concave-of-modular", payload, evaluate,
                   lambda: piecewise_linear_array(pts, subset_sums(weights)))

    # ---- evaluation --------------------------------------------------

    def __call__(self, mask: int) -> float:
        self.ground.check_mask(mask)
        return self._eval(mask)

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def values(self) -> np.ndarray:
        """All 2^n values, values[mask] = phi(mask): cached, read-only float64."""
        if self._values is None:
            values = np.asarray(self._build(), dtype=np.float64)
            if not np.isfinite(values).all():
                raise ValueError("setfunction values must be finite")
            values.flags.writeable = False
            self._values = values
        return self._values

    def table(self) -> list:
        """All 2^n values as a list (the list view of `values`)."""
        return self.values.tolist()

    def as_table(self) -> "SetFunction":
        if self.kind == "table":
            return self
        return SetFunction.from_table(self.table(), labels=self.ground.labels)


# ---- difference kernels and structural predicates ---------------------
#
# The value array reshaped to the (2,)*n cube puts bit x of a mask on
# axis n-1-x, so a difference along that axis steps from S to S + x.


def _cube(values: np.ndarray) -> np.ndarray:
    return values.reshape((2,) * (values.size.bit_length() - 1))


def _first_base(violated: np.ndarray) -> Optional[int]:
    """Mask of the first True entry of a cube slice, or None."""
    if not violated.any():
        return None
    digits = np.unravel_index(int(violated.argmax()), violated.shape)
    return sum(int(d) << (len(digits) - 1 - axis) for axis, d in enumerate(digits))


def first_differences(values: np.ndarray):
    """Yield (x, d) with d[S] = phi(S + x) - phi(S) for S without x."""
    cube = _cube(values)
    n = cube.ndim
    for x in range(n):
        yield x, np.diff(cube, axis=n - 1 - x)


def second_differences(values: np.ndarray):
    """Yield (x, y, d), x < y, with d[S] = phi(S+x+y) - phi(S+x) - phi(S+y) + phi(S)."""
    n = values.size.bit_length() - 1
    for x, dx in first_differences(values):
        for y in range(x + 1, n):
            yield x, y, np.diff(dx, axis=n - 1 - y)


def decrease_witness(values: np.ndarray, tol: float = TOL) -> Optional[tuple]:
    """A pair (S, S + x) with values[S] > values[S + x] + tol, or None."""
    for x, d in first_differences(values):
        base = _first_base(d < -tol)
        if base is not None:
            return base, base | 1 << x
    return None


@dataclass(frozen=True)
class Verdict:
    """Outcome of a structural predicate, with a violating pair on failure."""

    holds: bool
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.holds


def _second_difference_verdict(phi: SetFunction, violates) -> Verdict:
    for x, y, d in second_differences(phi.values):
        base = _first_base(violates(d))
        if base is not None:
            return Verdict(False, (base | 1 << x, base | 1 << y))
    return Verdict(True)


def is_submodular(phi: SetFunction, tol: float = TOL) -> Verdict:
    """Check phi(X u Y) + phi(X n Y) <= phi(X) + phi(Y) for all X, Y.

    Uses the local exchange characterization (second differences over
    pairs of elements outside a common base set); a reported witness
    (X, Y) violates the global inequality directly.
    """
    return _second_difference_verdict(phi, lambda d: d > tol)


def is_increasing(phi: SetFunction, tol: float = TOL) -> Verdict:
    """Check phi(S) <= phi(T) whenever S is a subset of T."""
    witness = decrease_witness(phi.values, tol)
    return Verdict(witness is None, witness)


def is_modular(phi: SetFunction, tol: float = TOL) -> Verdict:
    """Check that the submodular inequality holds with equality both ways."""
    return _second_difference_verdict(phi, lambda d: np.abs(d) > tol)


def conjugate(phi: SetFunction) -> SetFunction:
    """Table-backed phi*(X) = phi(J) - phi(J \\ X)."""
    vals = phi.values
    return SetFunction.from_table((vals[-1] - vals[::-1]).tolist(),
                                  labels=phi.ground.labels)


# ---- JSON schema -----------------------------------------------------


def setfunction_to_json(phi: SetFunction) -> dict:
    payload = phi.payload
    out = dict(payload)
    # tuples -> lists for JSON friendliness
    for key, value in out.items():
        if isinstance(value, tuple):
            out[key] = [list(v) if isinstance(v, tuple) else v for v in value]
    return {"n": phi.n, "kind": phi.kind, "payload": out}


def setfunction_from_json(obj: dict) -> SetFunction:
    try:
        n = int(obj["n"])
        kind = obj["kind"]
        payload = obj["payload"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed setfunction object: {exc}") from exc
    if kind == "table":
        phi = SetFunction.from_table(payload["values"])
        if phi.n != n:
            raise ValueError("table length inconsistent with n")
        return phi
    if kind == "cut":
        return SetFunction.cut(n, payload["edges"])
    if kind == "coverage":
        return SetFunction.coverage(payload["covers"], payload["item_weights"])
    if kind == "matroid-rank":
        if payload["matroid"] == "uniform":
            return SetFunction.uniform_matroid(n, payload["rank"])
        if payload["matroid"] == "partition":
            return SetFunction.partition_matroid(payload["blocks"],
                                                 payload["capacities"])
        raise ValueError(f"unknown matroid family {payload['matroid']!r}")
    if kind == "modular":
        return SetFunction.modular(payload["weights"])
    if kind == "concave-of-modular":
        return SetFunction.concave_of_modular(payload["weights"],
                                              payload["breakpoints"])
    raise ValueError(f"unknown setfunction kind {kind!r}")
