"""Total variation over chains and the canonical increasing decomposition.

On a chain from the empty set to S, sum |delta| = 2 sum delta_+ - phi(S).
So one DP over the subset lattice, single-element steps by popcount
layer, gives mu(S) = max sum delta_+ over chains to S, K(phi) =
2 mu(J) - phi(J), and (walking back from J) a chain attaining both.
Refining a chain never lowers sum delta_+, so maximal chains suffice;
tests check this against an all-predecessor oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .setfunctions import SetFunction, decrease_witness, require_submodular


@lru_cache(maxsize=4)
def _layers(n: int) -> tuple:
    """For each popcount k = 1..n: the masks of size k (int32) and their
    elements in increasing order (uint8, row j: each mask's j-th element)."""
    masks = np.arange(1 << n, dtype=np.int32)
    sizes = np.bitwise_count(masks)
    order = np.argsort(sizes, kind="stable").astype(np.int32)
    ends = np.cumsum(np.bincount(sizes, minlength=n + 1))
    layers = []
    for k in range(1, n + 1):
        members = order[ends[k - 1]:ends[k]]
        elements = np.empty((k, members.size), dtype=np.uint8)
        rest = members.copy()
        for j in range(k):
            lowest = rest & -rest
            elements[j] = np.bitwise_count(lowest - 1)
            rest ^= lowest
        members.flags.writeable = elements.flags.writeable = False
        layers.append((members, elements))
    return tuple(layers)


def _candidates(vals: np.ndarray, mu: np.ndarray, masks, parents) -> np.ndarray:
    """mu[S - x] + (phi(S) - phi(S - x))_+, with parents[..., i] = S - x."""
    cand = vals[parents]
    np.subtract(vals[masks], cand, out=cand)
    np.maximum(cand, 0.0, out=cand)
    cand += mu[parents]
    return cand


def _positive_variation(vals: np.ndarray) -> np.ndarray:
    """mu[S] = max_{x in S} mu[S - x] + (phi(S) - phi(S - x))_+, mu[0] = 0."""
    mu = np.zeros(vals.size)
    for members, elements in _layers(vals.size.bit_length() - 1):
        parents = members ^ np.left_shift(1, elements, dtype=np.int32)
        mu[members] = _candidates(vals, mu, members, parents).max(axis=0)
    return mu


def total_variation(phi: SetFunction) -> float:
    """K(phi): largest sum of |increments| over chains from empty to J."""
    vals = phi.values
    return float(2.0 * _positive_variation(vals)[-1] - vals[-1])


def _variation_and_chain(phi: SetFunction) -> tuple:
    """K(phi) and one chain of masks from 0 to J attaining it, from one DP.

    The chain is walked back from J: each step drops the smallest x whose
    candidate attains mu[S].
    """
    vals = phi.values
    mu = _positive_variation(vals)
    bits = np.left_shift(1, np.arange(phi.n, dtype=np.int32))
    chain = [phi.ground.full_mask]
    while chain[0]:
        parents = chain[0] ^ bits[chain[0] & bits != 0]
        chain.insert(0, int(parents[_candidates(vals, mu, chain[0], parents).argmax()]))
    return float(2.0 * mu[-1] - vals[-1]), chain


def max_variation_chain(phi: SetFunction) -> list:
    """One chain of masks from 0 to J attaining K(phi)."""
    return _variation_and_chain(phi)[1]


def submodular_variation_closed_form(phi: SetFunction, tol: float = 1e-9) -> float:
    """K(phi) = 2 * max_S phi(S) - phi(J), valid for submodular phi."""
    require_submodular(phi, tol)
    vals = phi.values
    return 2.0 * float(vals.max()) - float(vals[-1])


@dataclass(frozen=True)
class DecompositionResult:
    """phi = mu - nu with mu, nu increasing read-only float64 tables <= K(phi)."""

    mu: np.ndarray
    nu: np.ndarray
    variation: float


def canonical_decomposition(phi: SetFunction) -> DecompositionResult:
    """Chain-wise positive/negative increment suprema ending exactly at S."""
    vals = phi.values
    mu = _positive_variation(vals)
    nu = mu - vals
    mu.flags.writeable = nu.flags.writeable = False
    return DecompositionResult(mu, nu, float(2.0 * mu[-1] - vals[-1]))


def check_ls_parts(psi, remainder, tol: float = 1e-9) -> None:
    """Raise AssertionError unless psi is increasing and remainder decreasing."""
    if decrease_witness(np.asarray(psi, dtype=np.float64), tol) is not None:
        raise AssertionError("psi not increasing")
    if decrease_witness(-np.asarray(remainder, dtype=np.float64), tol) is not None:
        raise AssertionError("remainder not decreasing")


def ls_decomposition(phi: SetFunction, tol: float = 1e-9):
    """Split submodular phi into psi(S) = max_{Y subseteq S} phi(Y) plus a rest.

    Returns (psi, remainder) as read-only float64 tables; psi increases and
    the remainder decreases whenever phi is submodular, which is checked.
    psi is a running maximum along one bit at a time (a zeta transform with
    max in place of the sum), taken in place on the blocks S, S + x.
    """
    require_submodular(phi, tol)
    vals = phi.values
    psi = vals.copy()
    for x in reversed(range(phi.n)):
        blocks = psi.reshape(-1, 2, 1 << x)
        np.maximum(blocks[:, 0], blocks[:, 1], out=blocks[:, 1])
    remainder = vals - psi
    check_ls_parts(psi, remainder, tol)
    psi.flags.writeable = remainder.flags.writeable = False
    return psi, remainder
