"""Setfunctions on a finite ground set, with bitmask subsets.

A subset of the ground set {0, ..., n-1} is an n-bit integer mask
(bit x set <=> element x in the subset).  Instances are immutable
after construction.

Table-first convention: every evaluation reads `SetFunction.values`,
one cached read-only float64 array indexed by mask and built on first
use by the one vectorised builder of the family; a point call
`phi(mask)` is a read from it.  The per-mask formulas of the families
live in `oracles.value_by_payload`, as the reference for the builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

TOL = 1e-9


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


def require_finite_tol(tol: float) -> float:
    """tol itself; ValueError unless it is finite (a negative tol is allowed)."""
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    return tol


def _size_limit_error(operation: str, estimate: int, budget: int) -> PreconditionError:
    """The error for an operation whose memory estimate passes its byte budget."""
    return PreconditionError(f"{operation} needs about {estimate} bytes, "
                             f"over its budget of {budget} bytes")


@dataclass(frozen=True)
class GroundSet:
    """Finite ground set {0, ..., n-1}."""

    n: int

    def __post_init__(self):
        n = _integral(self.n, "n")
        if not 1 <= n <= 24:
            raise ValueError(f"ground set size must be in 1..24, got {n}")
        object.__setattr__(self, "n", n)

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
        return "{" + ",".join(map(str, self.elements(mask))) + "}"


def _integral(value, name: str) -> int:
    """value as an int if it is an integer or an integral float such as
    3.0; ValueError otherwise, and for bools (JSON true and false)."""
    if type(value) is int:  # the common case, without the ABC checks
        return value
    if not isinstance(value, bool) and (
            isinstance(value, Integral)
            or (isinstance(value, float) and value.is_integer())):
        return int(value)
    raise ValueError(f"{name} must be integers, got {value!r}")


def _finite(values, what: str) -> tuple:
    """Floats of `values`; ValueError if any is NaN or infinite."""
    if isinstance(values, np.ndarray) and values.ndim == 1:
        values = tuple(values.astype(np.float64, copy=False).tolist())
    else:
        values = tuple(map(float, values))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite")
    return values


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """`values` itself, not copied; ValueError if any entry is NaN or infinite."""
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise ValueError(f"{what} must be finite")
    return values


def _finite_array(values, what: str) -> np.ndarray:
    """`values` as a read-only float64 array; ValueError if any is NaN or
    infinite."""
    values = _require_finite(np.array(values, dtype=np.float64), what)
    values.flags.writeable = False
    return values


def _bounded_sums(weights) -> tuple:
    """Finite `weights` whose subset sums cannot overflow float64.

    Every subset sum is at most the float64 sum of |weights| in
    absolute value, so checking that one sum at construction keeps
    every entry of the value table finite.
    """
    weights = _finite(weights, "weights")
    if not math.isfinite(sum(map(abs, weights))):
        raise ValueError("the sum of |weights| overflows float64")
    return weights


def _concave_validate(breakpoints):
    """Validate a piecewise-linear concave g with g(0)=0; return point list."""
    pts = [_finite(point, "breakpoints") for point in breakpoints]
    if not pts or pts[0] != (0.0, 0.0):
        raise ValueError("breakpoint list must start with (0, 0)")
    if any(t1 <= t0 for (t0, _), (t1, _) in zip(pts, pts[1:])):
        raise ValueError("breakpoint abscissae must be strictly increasing")
    slopes = _slopes(pts)
    if any(s1 > s0 + TOL for s0, s1 in zip(slopes, slopes[1:])):
        raise ValueError("breakpoints do not describe a concave function")
    return pts


def _slopes(pts) -> list:
    """The slope of each segment of the piecewise-linear function through pts."""
    return [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(pts, pts[1:])]


def piecewise_linear(pts, t: float) -> float:
    """The piecewise-linear function through pts, extended with its last
    slope, at one t in plain Python: `piecewise_linear_array`'s reference."""
    if t <= pts[0][0]:
        return pts[0][1]
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    if len(pts) == 1:
        return pts[0][1]
    (t0, v0), (t1, v1) = pts[-2], pts[-1]
    return v1 + (v1 - v0) / (t1 - t0) * (t - t1)


def piecewise_linear_array(pts, t: np.ndarray) -> np.ndarray:
    """`piecewise_linear` at every entry of t, with the same segment and
    operations."""
    ts, vs = np.asarray(pts, dtype=np.float64).T
    if len(pts) == 1:
        return np.full(t.shape, vs[0])
    j = np.searchsorted(ts[1:-1], t)  # segment [j, j + 1], ends clamped
    t0, t1, v0, v1 = ts[:-1][j], ts[1:][j], vs[:-1][j], vs[1:][j]
    inside = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    beyond = vs[-1] + (vs[-1] - vs[-2]) / (ts[-1] - ts[-2]) * (t - ts[-1])
    return np.where(t <= ts[0], vs[0], np.where(t > ts[-1], beyond, inside))


def _require_finite_g(pts, points, what: str) -> None:
    """ValueError unless g is finite at each of `points`."""
    for t in points:
        if not math.isfinite(piecewise_linear(pts, t)):
            raise ValueError(f"g overflows float64 on {what}")


def _popcounts(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).astype(np.int64)


def subset_sums(weights) -> np.ndarray:
    """sum_{x in S} weights[x] for every mask S, doubling one bit at a time.

    Each entry adds the weights in increasing element order, so it
    equals the left-to-right sum of its elements' weights exactly.
    """
    out = np.zeros(1 << len(weights))
    for x, w in enumerate(weights):
        out[1 << x:2 << x] = out[:1 << x] + w
    return out


class SetFunction:
    """Evaluation oracle phi: 2^J -> R with phi(empty) = 0.

    Instances are either table-backed (explicit value per mask) or
    generated by a standard family (cut, coverage, matroid rank,
    modular, concave-of-modular).  Construction rejects non-finite
    numbers with ValueError, and a table with phi(empty) != 0 instead
    of silently re-normalizing.  A table, checked there, is its value
    array; another family's builder (0 on the empty set by its formula)
    makes it on first use, checked finite.  Every evaluation reads it.
    `variation.canonical_decomposition` keeps phi's one decomposition
    (mu, nu and K, 16 * 2^n bytes) beside it, also made on first use.
    """

    __slots__ = ("ground", "kind", "payload", "_build", "_values", "_decomposition")

    def __init__(self, ground: GroundSet, kind: str, payload, builder, values=None):
        self.ground = ground
        self.kind = kind
        self.payload = payload
        self._build = builder
        self._values = values  # a table given already checked, else built on first use
        self._decomposition = None  # variation.canonical_decomposition's, on first use

    # ---- constructors ------------------------------------------------

    @classmethod
    def from_table(cls, values: Sequence[float]) -> "SetFunction":
        values = _finite_array(values, "table values")
        n = values.size.bit_length() - 1
        if values.ndim != 1 or values.size != 1 << n or n < 1:
            raise ValueError("table length must be 2^n with n >= 1")
        if values[0] != 0.0:
            raise PreconditionError("table[0] must be 0 (phi(empty) = 0)")
        return cls(GroundSet(n), "table", {"values": values}, None, values)

    @classmethod
    def cut(cls, n: int, edges) -> "SetFunction":
        """Weighted cut function: total weight of edges leaving S."""
        ground = GroundSet(n)
        read = []
        for edge in edges:  # [u, v] (weight 1.0) or [u, v, weight]
            if len(edge) not in (2, 3):
                raise ValueError(f"an edge is [u, v] or [u, v, weight], got {edge!r}")
            u, v = (_integral(x, "edge endpoints") for x in edge[:2])
            weight = _finite(edge[2:], "edge weights")[0] if len(edge) == 3 else 1.0
            if u == v:
                raise ValueError("loops have no cut contribution; remove them")
            ground.mask_of((u, v))
            read.append((u, v, weight))
        edges = tuple(read)

        def build():
            masks = np.arange(1 << ground.n)
            out = np.zeros(1 << ground.n)
            for u, v, weight in edges:
                out += weight * ((masks >> u ^ masks >> v) & 1)
            return out

        return cls(ground, "cut", {"edges": edges}, build)

    @classmethod
    def coverage(cls, covers: Sequence[Sequence[int]],
                 item_weights: Sequence[float]) -> "SetFunction":
        """Weighted coverage: weight of the union of items covered by S."""
        covers = tuple(tuple(_integral(i, "cover items") for i in c) for c in covers)
        n = len(covers)
        ground = GroundSet(n)
        weights = _finite(item_weights, "item weights")
        if any(w < 0 for w in weights):
            raise ValueError("item weights must be nonnegative")
        for item in (item for cover in covers for item in cover):
            if not 0 <= item < len(weights):
                raise ValueError(f"item {item} out of range")
        item_masks = [sum(1 << item for item in set(cover)) for cover in covers]

        def build():
            masks = np.arange(1 << n)
            out = np.zeros(1 << n)
            for i, weight in enumerate(weights):
                holders = sum(1 << x for x, m in enumerate(item_masks) if m >> i & 1)
                if holders:
                    out += weight * (masks & holders != 0)
            return out

        payload = {"covers": covers, "item_weights": weights}
        return cls(ground, "coverage", payload, build)

    @classmethod
    def uniform_matroid(cls, n: int, rank: int) -> "SetFunction":
        ground = GroundSet(n)
        rank = _integral(rank, "rank")
        if not 0 <= rank <= ground.n:
            raise ValueError("rank must lie in 0..n")
        payload = {"matroid": "uniform", "rank": rank}
        return cls(ground, "matroid-rank", payload,
                   lambda: np.minimum(_popcounts(np.arange(1 << ground.n)), rank))

    @classmethod
    def partition_matroid(cls, blocks: Sequence[Sequence[int]],
                          capacities: Sequence[int]) -> "SetFunction":
        blocks = tuple(tuple(_integral(x, "block elements") for x in b) for b in blocks)
        elems = [x for block in blocks for x in block]
        n = len(elems)
        if sorted(elems) != list(range(n)):
            raise ValueError("blocks must partition 0..n-1")
        caps = tuple(_integral(c, "capacities") for c in capacities)
        if len(caps) != len(blocks) or any(c < 0 for c in caps):
            raise ValueError("capacities must be nonnegative, one per block")
        ground = GroundSet(n)
        block_masks = tuple(ground.mask_of(b) for b in blocks)

        def build():
            masks = np.arange(1 << n)
            return sum(np.minimum(_popcounts(masks & bm), c)
                       for bm, c in zip(block_masks, caps))

        payload = {"matroid": "partition",
                   "blocks": blocks,
                   "capacities": caps}
        return cls(ground, "matroid-rank", payload, build)

    @classmethod
    def modular(cls, weights: Sequence[float]) -> "SetFunction":
        weights = _bounded_sums(weights)
        return cls(GroundSet(len(weights)), "modular", {"weights": weights},
                   lambda: subset_sums(weights))

    @classmethod
    def concave_of_modular(cls, weights: Sequence[float],
                           breakpoints) -> "SetFunction":
        """phi(S) = g(sum of weights over S) for concave g with g(0)=0."""
        weights = _bounded_sums(weights)
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative for concave composition")
        pts = _concave_validate(breakpoints)
        # on [0, sum(weights)] a concave g with g(0) = 0 stays between min(0, g(sum))
        # and the largest of g(sum) and its breakpoint values; arithmetic that
        # overflows only below the sum is refused when the table is built
        _require_finite_g(pts, [sum(weights)], "the subset sums")
        payload = {"weights": weights, "breakpoints": tuple(pts)}
        return cls(GroundSet(len(weights)), "concave-of-modular", payload,
                   lambda: piecewise_linear_array(pts, subset_sums(weights)))

    # ---- evaluation --------------------------------------------------

    def __call__(self, mask: int) -> float:
        # check_mask first: item(-1) would wrap around to the last entry
        return self.values.item(self.ground.check_mask(mask))

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def values(self) -> np.ndarray:
        """All 2^n values, values[mask] = phi(mask): cached, read-only float64."""
        if self._values is None:
            # an overflow in any family's builder is refused here, without a warning
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.asarray(self._build(), dtype=np.float64)
            _require_finite(values, f"{self.kind} setfunction values")
            values.flags.writeable = False
            self._values = values
        return self._values

    def table(self) -> list:
        """All 2^n values as a list (the list view of `values`)."""
        return self.values.tolist()


# ---- difference kernels and structural predicates ---------------------
#
# Row r of values.reshape(-1, 2, 1 << x) holds the masks S without x
# (column 0) and S + x (column 1) whose bits above x spell r, so the
# flattened column difference lists phi(S + x) - phi(S), bases ascending.


def _block_diff(values: np.ndarray, x: int) -> np.ndarray:
    """d[i] = values[S + x] - values[S] for the i-th mask S without bit x."""
    blocks = values.reshape(-1, 2, 1 << x)
    return (blocks[:, 1] - blocks[:, 0]).ravel()


def _first_base(violated: np.ndarray, *bits: int) -> Optional[int]:
    """First True index, with a zero put back at each of `bits` in turn, or None."""
    if not violated.any():
        return None
    base = int(violated.argmax())
    for x in bits:
        high, low = divmod(base, 1 << x)
        base = high << x + 1 | low
    return base


def decrease_witness(values: np.ndarray, tol: float = TOL) -> Optional[tuple]:
    """A pair (S, S + x) with values[S] > values[S + x] + tol, or None."""
    require_finite_tol(tol)
    for x in range(values.size.bit_length() - 1):
        base = _first_base(_block_diff(values, x) < -tol, x)
        if base is not None:
            return base, base | 1 << x
    return None


@dataclass(frozen=True)
class Verdict:
    """Outcome of a structural predicate, with a violating pair on failure.

    `source` says what decided it: "construction" (the payload of a family,
    see `_by_construction`) or "table" (a pass over `values`).  It takes no
    part in equality.
    """

    holds: bool
    witness: Optional[tuple] = None
    source: str = field(default="table", compare=False)

    def __bool__(self) -> bool:
        return self.holds


def _second_difference_verdict(values: np.ndarray, violates) -> Verdict:
    """Second differences (phi(S+x+y) - phi(S+y)) - (phi(S+x) - phi(S)), pair
    by pair (x < y in order) with the bases S ascending: one block difference
    of the first differences per pair, stopping at the first violation, whose
    (S + x, S + y) is the witness."""
    n = values.size.bit_length() - 1
    for x in range(n):
        dx = _block_diff(values, x)
        for y in range(x + 1, n):
            # in dx (bit x removed) element y sits at bit y - 1
            base = _first_base(violates(_block_diff(dx, y - 1)), y - 1, x)
            if base is not None:
                return Verdict(False, (base | 1 << x, base | 1 << y))
    return Verdict(True)


_BY_CONSTRUCTION = Verdict(True, source="construction")


def _by_construction(phi: SetFunction) -> tuple:
    """(submodular, increasing, modular): True where phi's payload makes the
    property a theorem (Edmonds 1970; Fujishige, ch. 3), exactly and with
    no tolerance; False leaves it to the table.  Such a yes is about the
    function the payload defines, not about each rounded entry of its table.
    """
    kind, payload = phi.kind, phi.payload
    if kind in ("coverage", "matroid-rank"):
        return True, True, False
    if kind == "modular":
        return True, all(w >= 0 for w in payload["weights"]), True
    if kind == "cut":  # with every weight 0 (-0.0 too) it is the zero function
        zero = all(w == 0 for _, _, w in payload["edges"])
        return all(w >= 0 for _, _, w in payload["edges"]), zero, zero
    if kind == "concave-of-modular":  # weights >= 0; validation lets slopes rise by TOL
        slopes = _slopes(payload["breakpoints"])
        return (all(s1 <= s0 for s0, s1 in zip(slopes, slopes[1:])),
                all(s >= 0 for s in slopes), False)
    return False, False, False


def is_submodular(phi: SetFunction, tol: float = TOL) -> Verdict:
    """Check phi(X u Y) + phi(X n Y) <= phi(X) + phi(Y) for all X, Y.

    A family whose payload decides it answers yes by construction (for
    any tol >= 0); otherwise the local exchange characterization (second
    differences over pairs of elements outside a common base set) decides,
    and a reported witness (X, Y) violates the global inequality directly.
    """
    if require_finite_tol(tol) >= 0 and _by_construction(phi)[0]:
        return _BY_CONSTRUCTION
    return _second_difference_verdict(phi.values, lambda d: d > tol)


def require_submodular(phi: SetFunction, tol: float = TOL) -> Verdict:
    """`is_submodular`'s verdict; PreconditionError, naming a witness, if it fails."""
    verdict = is_submodular(phi, tol)
    if not verdict:
        raise PreconditionError(f"phi is not submodular (witness {verdict.witness})")
    return verdict


def is_increasing(phi: SetFunction, tol: float = TOL) -> Verdict:
    """Check phi(S) <= phi(T) whenever S is a subset of T (by construction
    where the payload decides it, as in `is_submodular`)."""
    if require_finite_tol(tol) >= 0 and _by_construction(phi)[1]:
        return _BY_CONSTRUCTION
    witness = decrease_witness(phi.values, tol)
    return Verdict(witness is None, witness)


def is_modular(phi: SetFunction, tol: float = TOL) -> Verdict:
    """Check that the submodular inequality holds with equality both ways
    (by construction for the modular kind, as in `is_submodular`)."""
    if require_finite_tol(tol) >= 0 and _by_construction(phi)[2]:
        return _BY_CONSTRUCTION
    return _second_difference_verdict(phi.values, lambda d: np.abs(d) > tol)


def conjugate(phi: SetFunction) -> SetFunction:
    """Table-backed phi*(X) = phi(J) - phi(J \\ X)."""
    vals = phi.values
    with np.errstate(over="ignore", invalid="ignore"):  # from_table refuses an overflow
        return SetFunction.from_table(vals[-1] - vals[::-1])


# ---- JSON schema -----------------------------------------------------


def setfunction_to_json(phi: SetFunction) -> dict:
    out = dict(phi.payload)
    # arrays and tuples -> lists for JSON friendliness
    for key, value in out.items():
        if isinstance(value, np.ndarray):
            out[key] = value.tolist()
        elif isinstance(value, tuple):
            out[key] = [list(v) if isinstance(v, tuple) else v for v in value]
    return {"n": phi.n, "kind": phi.kind, "payload": out}


def setfunction_from_json(obj: dict) -> SetFunction:
    try:
        n = _integral(obj["n"], "n")
        kind = obj["kind"]
        payload = obj["payload"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed setfunction object: {exc}") from exc
    if kind == "table":
        phi = SetFunction.from_table(payload["values"])
    elif kind == "cut":
        phi = SetFunction.cut(n, payload["edges"])
    elif kind == "coverage":
        phi = SetFunction.coverage(payload["covers"], payload["item_weights"])
    elif kind == "matroid-rank" and payload["matroid"] == "uniform":
        phi = SetFunction.uniform_matroid(n, payload["rank"])
    elif kind == "matroid-rank" and payload["matroid"] == "partition":
        phi = SetFunction.partition_matroid(payload["blocks"], payload["capacities"])
    elif kind == "matroid-rank":
        raise ValueError(f"unknown matroid family {payload['matroid']!r}")
    elif kind == "modular":
        phi = SetFunction.modular(payload["weights"])
    elif kind == "concave-of-modular":
        phi = SetFunction.concave_of_modular(payload["weights"],
                                             payload["breakpoints"])
    else:
        raise ValueError(f"unknown setfunction kind {kind!r}")
    if phi.n != n:
        raise ValueError(f"{kind} setfunction has n = {phi.n}, object says n = {n}")
    return phi
