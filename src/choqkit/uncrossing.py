"""Uncrossing: turn a weighted set family into a chain with the same sum.

A crossing pair (neither set contains the other) is repeatedly
replaced by its union and intersection.  The pointwise sum
h = sum_i a_i * 1_{H_i} is preserved, the potential sum_i a_i * |H_i|^2
strictly increases, and the procedure stops with a chain.  For a
submodular phi the weighted value sum_i a_i * phi(H_i) never increases
along the way, which certifies whatphi(h) <= sum_i a_i * phi(H_i).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .choquet import choquet
from .setfunctions import (TOL, GroundSet, PreconditionError, SetFunction, _integral,
                           _size_limit_error)


@dataclass(frozen=True)
class WeightedFamily:
    """Multiset of subsets with positive integer multiplicities."""

    ground: GroundSet
    entries: tuple  # sorted ((mask, multiplicity), ...), masks distinct

    @classmethod
    def of(cls, ground: GroundSet, entries) -> "WeightedFamily":
        """Merge (mask, multiplicity) pairs; both must be integers or
        integral floats such as 3.0, else ValueError."""
        merged = {}
        for mask, mult in entries:
            mask = ground.check_mask(_integral(mask, "masks"))
            mult = _integral(mult, "multiplicities")
            if mult < 1:
                raise ValueError("multiplicities must be positive integers")
            merged[mask] = merged.get(mask, 0) + mult
        return cls(ground, tuple(sorted(merged.items())))

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.entries)

    def is_chain(self) -> bool:
        masks = sorted((mask for mask, _ in self.entries), key=int.bit_count)
        return all(a & b == a for a, b in zip(masks, masks[1:]))

    def potential(self) -> int:
        return sum(mult * mask.bit_count() ** 2 for mask, mult in self.entries)

    def phi_sum(self, phi: SetFunction) -> float:
        """sum_i a_i * phi(H_i), added left to right in entry order."""
        if phi.n != self.ground.n:
            raise PreconditionError(f"phi has n = {phi.n}, family n = {self.ground.n}")
        item = phi.values.item
        return sum(mult * item(mask) for mask, mult in self.entries)


def family_sum(family: WeightedFamily) -> np.ndarray:
    """Pointwise h(x) = total multiplicity of entries containing x, as a
    float64 array of the exact integer sums."""
    return np.array([sum(mult for mask, mult in family.entries if mask >> x & 1)
                     for x in range(family.ground.n)], dtype=np.float64)


@dataclass(frozen=True, slots=True)
class UncrossStep:
    """One exchange: a copy each of the crossing masks in `pair` replaced
    by their union and intersection.  The family before the first step
    is the trace's `initial`; the pairs alone rebuild every later one."""

    pair: tuple  # the two crossing masks chosen
    potential_before: int
    potential_after: int
    phi_sum_before: Optional[float] = None
    phi_sum_after: Optional[float] = None


@dataclass(frozen=True)
class UncrossTrace:
    initial: WeightedFamily
    steps: tuple
    final: WeightedFamily


# Trace memory, estimated like `fubini.lln_run`'s.  The step count grows
# with the multiplicities, but a step's size does not depend on the
# family's: an UncrossStep (72 bytes with slots), its pair tuple (56), a
# new potential (32), a phi-sum (24) and the trace's pointer (8).
# tracemalloc finds 168-197 bytes a step on four entries, n = 4 and 12.
_STEP_BYTES = 200
_UNCROSS_BUDGET = 1 << 28  # bytes the recorded steps may take


def _first_crossing(masks):
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            common = a & b
            if common != a and common != b:
                return a, b
    return None


def uncross(family: WeightedFamily, phi: Optional[SetFunction] = None) -> UncrossTrace:
    """Run the exchange procedure to completion, recording every step.

    Pair selection is the first crossing pair in sorted entry order;
    any order terminates, this one makes traces reproducible.  Once the
    recorded steps would pass _UNCROSS_BUDGET bytes, a PreconditionError
    names the steps taken; a chain takes no step, whatever its weights,
    and is its own final family.  Each step moves the potential by the
    exchange's integer change and re-sums the phi-sum as `phi_sum` does.
    """
    if not family.entries:
        raise PreconditionError("family must be nonempty")
    mults = dict(family.entries)
    masks = list(mults)  # sorted, as the entries are
    steps = []
    # the previous step's "after" numbers are this step's "before"
    potential = family.potential()
    phi_sum = None if phi is None else family.phi_sum(phi)
    item = None if phi is None else phi.values.item
    budget = family.total_multiplicity * family.ground.n ** 2 + 1
    for _ in range(budget):
        pair = _first_crossing(masks)
        if pair is None:
            break
        if _STEP_BYTES * (len(steps) + 1) > _UNCROSS_BUDGET:
            raise _size_limit_error(f"uncross stopped after {len(steps)} steps: one more",
                                    _STEP_BYTES * (len(steps) + 1), _UNCROSS_BUDGET)
        a, b = pair
        # one copy each of a and b out, one of a | b and a & b in
        for mask in pair:
            mults[mask] -= 1
            if not mults[mask]:
                del mults[mask]
                masks.remove(mask)
        for mask in (a | b, a & b):
            if mask not in mults:
                insort(masks, mask)
            mults[mask] = mults.get(mask, 0) + 1
        # |a | b|^2 + |a & b|^2 - |a|^2 - |b|^2 = 2 |a - b| |b - a|
        potential_after = potential + 2 * (a & ~b).bit_count() * (b & ~a).bit_count()
        phi_sum_after = None if phi is None else sum(mults[m] * item(m) for m in masks)
        steps.append(UncrossStep(pair, potential, potential_after, phi_sum, phi_sum_after))
        potential, phi_sum = potential_after, phi_sum_after
    else:
        raise AssertionError("uncrossing exceeded its termination budget")
    final = (WeightedFamily(family.ground, tuple((mask, mults[mask]) for mask in masks))
             if steps else family)
    return UncrossTrace(initial=family, steps=tuple(steps), final=final)


def certify_chain_equality(phi: SetFunction, chain: WeightedFamily, tol: float = TOL):
    """Check whatphi(h) = sum_i a_i * phi(H_i) for a chain family.

    Holds for any setfunction with phi(empty) = 0, submodular or not:
    the chain sets are exactly the level sets of h.
    """
    if not chain.is_chain():
        raise PreconditionError("family is not a chain")
    lhs = choquet(phi, family_sum(chain))
    rhs = chain.phi_sum(phi)
    return lhs, rhs, abs(lhs - rhs) <= tol
