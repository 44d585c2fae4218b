"""Total variation over chains and the canonical increasing decomposition.

The suprema over chains from the empty set are computed by one dynamic
program over the subset lattice with single-element steps, one
popcount layer at a time.  Refining a chain never decreases either
objective (|a+b| <= |a| + |b| and |a+b|_+ <= |a|_+ + |b|_+), so the
restriction to maximal chains is lossless; tests validate this against
an all-predecessor oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .setfunctions import SetFunction, decrease_witness, require_submodular


@lru_cache(maxsize=4)
def _layers(n: int) -> tuple:
    """For each popcount k = 1..n: the masks of size k (int32) and, per
    mask, its k elements in increasing order (uint8, shape (masks, k))."""
    masks = np.arange(1 << n, dtype=np.int32)
    sizes = np.bitwise_count(masks)
    order = np.argsort(sizes, kind="stable").astype(np.int32)
    ends = np.cumsum(np.bincount(sizes, minlength=n + 1))
    layers = []
    for k in range(1, n + 1):
        members = order[ends[k - 1]:ends[k]]
        elements = np.empty((members.size, k), dtype=np.uint8)
        rest = members.copy()
        for j in range(k):
            lowest = rest & -rest
            elements[:, j] = np.bitwise_count(lowest - 1)
            rest ^= lowest
        members.flags.writeable = elements.flags.writeable = False
        layers.append((members, elements))
    return tuple(layers)


def _chain_dp(vals: np.ndarray, step):
    """best[S] = max_{x in S} best[S - x] + step(phi(S) - phi(S - x)).

    Returns best and, per mask, the parent S - x attaining it (the
    smallest x on ties).  step(delta, out=delta) works in place.
    """
    best = np.zeros(vals.size)
    parent = np.zeros(vals.size, dtype=np.int32)
    for members, elements in _layers(vals.size.bit_length() - 1):
        parents = members[:, None] ^ np.left_shift(1, elements, dtype=np.int32)
        cand = vals[parents]
        np.subtract(vals[members, None], cand, out=cand)
        step(cand, out=cand)
        cand += best[parents]
        pick = cand.argmax(axis=1) + np.arange(0, cand.size, cand.shape[1])
        best[members] = cand.ravel()[pick]
        parent[members] = parents.ravel()[pick]
    return best, parent


def _positive_part(delta, out):
    return np.maximum(delta, 0.0, out=out)


def total_variation(phi: SetFunction) -> float:
    """K(phi): largest sum of |increments| over chains from empty to J."""
    return float(_chain_dp(phi.values, np.abs)[0][-1])


def max_variation_chain(phi: SetFunction) -> list:
    """One chain of masks from 0 to J attaining K(phi)."""
    _, parent = _chain_dp(phi.values, np.abs)
    chain = [phi.ground.full_mask]
    while chain[-1]:
        chain.append(int(parent[chain[-1]]))
    chain.reverse()
    return chain


def submodular_variation_closed_form(phi: SetFunction, tol: float = 1e-9) -> float:
    """K(phi) = 2 * max_S phi(S) - phi(J), valid for submodular phi."""
    require_submodular(phi, tol)
    vals = phi.values
    return 2.0 * float(vals.max()) - float(vals[-1])


@dataclass(frozen=True)
class DecompositionResult:
    """phi = mu - nu with mu, nu increasing, both bounded by K(phi)."""

    mu: tuple
    nu: tuple
    variation: float


def canonical_decomposition(phi: SetFunction) -> DecompositionResult:
    """Chain-wise positive/negative increment suprema ending exactly at S."""
    vals = phi.values
    variation = float(_chain_dp(vals, np.abs)[0][-1])
    mu, _ = _chain_dp(vals, _positive_part)
    return DecompositionResult(tuple(mu.tolist()), tuple((mu - vals).tolist()),
                               variation)


def check_ls_parts(psi, remainder, tol: float = 1e-9) -> None:
    """Raise AssertionError unless psi is increasing and remainder decreasing."""
    if decrease_witness(np.asarray(psi, dtype=np.float64), tol) is not None:
        raise AssertionError("psi not increasing")
    if decrease_witness(-np.asarray(remainder, dtype=np.float64), tol) is not None:
        raise AssertionError("remainder not decreasing")


def ls_decomposition(phi: SetFunction, tol: float = 1e-9):
    """Split submodular phi into psi(S) = max_{Y subseteq S} phi(Y) plus a rest.

    Returns (psi, remainder) as value tables; psi is increasing and the
    remainder is decreasing whenever phi is submodular, which is checked.
    psi is a running maximum along one bit at a time (a zeta transform
    over the subset lattice with max in place of the sum).
    """
    require_submodular(phi, tol)
    vals = phi.values
    psi = vals.reshape((2,) * phi.n)
    for axis in range(phi.n):
        psi = np.maximum.accumulate(psi, axis=axis)
    psi = psi.ravel()
    remainder = vals - psi
    check_ls_parts(psi, remainder, tol)
    return tuple(psi.tolist()), tuple(remainder.tolist())
