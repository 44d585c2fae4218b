"""Total variation over chains and the canonical increasing decomposition.

On a chain from the empty set to S, sum |delta| = 2 sum delta_+ - phi(S).
So one DP over the subset lattice, single-element steps by popcount
layer, gives mu(S) = max sum delta_+ over chains to S together with
nu = mu - phi, K(phi) = 2 mu(J) - phi(J), and (walking back from J) a
chain attaining both.
Refining a chain never lowers sum delta_+, so maximal chains suffice;
tests check this against an all-predecessor oracle.
A phi submodular by construction (`setfunctions._by_construction`) takes
mu(S) = max_{Y subseteq S} phi(Y), one running maximum: the mu and K of the
function its payload defines, which the DP on its rounded table may miss in
the last bits.  Its chain runs through the first maximiser S* of phi: by
diminishing returns every step up to S* rises and every step after it falls,
so the chain's sum |delta| is 2 phi(S*) - phi(J) = K.
`ls_decomposition`'s psi is that running maximum, increasing exactly; only a
table pass's yes leaves its remainder phi - psi to be checked."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .setfunctions import (TOL, SetFunction, _by_construction, decrease_witness,
                           require_submodular)


def _build_plan(n: int) -> tuple:
    """The chain DP's index plan on n elements.

    Returns the masks in popcount order (increasing within a popcount),
    each mask's position in that order, and per popcount k = 1..n the
    layer's slice of the order with its parents S - x: indices into layer
    k - 1, shape (k, C(n, k)), row j dropping each member's j-th smallest
    element.  The indices are uint16 while every layer fits them
    (n <= 18), which halves the plan, and int32 above.

    The k-subsets of {0..m} are the k-subsets of {0..m-1} followed by the
    (k-1)-subsets with m added, so the plan grows one element at a time
    by copying smaller layers' parents.
    """
    index = np.uint16 if comb(n, n // 2) <= 1 << 16 else np.int32
    layers = [np.zeros(1, dtype=np.int32)]  # the k-subsets of {0..m-1}
    parents = [np.zeros((0, 1), dtype=index)]
    for m in range(n):
        top = np.int32(1 << m)
        grown, grown_parents = layers[:1], parents[:1]
        for k in range(1, m + 2):
            low = layers[k] if k <= m else layers[0][:0]  # none for k = m + 1
            high = layers[k - 1]
            grown.append(np.concatenate([low, high | top]))
            rows = np.empty((k, low.size + high.size), dtype=index)
            if k <= m:
                rows[:, :low.size] = parents[k]
            # S + m minus a smaller element sits past layer k - 1's low part
            np.add(parents[k - 1], index(high.size), out=rows[:-1, low.size:])
            # dropping m itself leaves the low part's own (k-1)-subset
            rows[-1, low.size:] = np.arange(high.size, dtype=index)
            grown_parents.append(rows)
        layers, parents = grown, grown_parents
    order = np.concatenate(layers)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size, dtype=np.int32)
    ends = np.cumsum([layer.size for layer in layers]).tolist()
    plan = tuple((slice(lo, hi), rows)
                 for lo, hi, rows in zip(ends, ends[1:], parents[1:]))
    for array in (order, rank, *parents):
        array.flags.writeable = False
    return order, rank, plan


# the 16 most recently used plans: a process planning n <= 16 (selftest's n up
# to 10, the lattice sweep's 12 to 16) plans each n once; the worst case, any
# sixteen of n = 9..24, holds about 1.8 GB, nearly all of it n = 23 and 24
_plan = lru_cache(maxsize=16)(_build_plan)

_GATHER = 1 << 14  # parent entries times tables per gather; bounds the DP's temporaries


def _positive_variation(tables: np.ndarray) -> tuple:
    """mu and nu = mu - phi in popcount order for one value table of shape
    (2^n,) or a stack of P of them, shape (P, 2^n), as a (2^n, 2) or
    (2^n, 2, P) array: [S, 0] is mu(S) and [S, 1] is nu(S), of each table.
    Also each mask's place in that order (`rank`): J's is the last, and
    `np.take(table, rank, axis=0)` is mask order.

    mu[S] = max_{x in S} mu[S - x] + (phi(S) - phi(S - x))_+ with
    mu[0] = 0, and each candidate is max(phi(S) + nu[S - x], mu[S - x]);
    so per popcount layer the DP gathers the previous layer's (mu, nu)
    rows, all tables' at once, in blocks of at most _GATHER parent
    entries over all tables, takes one maximum over the k parents into
    the layer's rows and finishes mu and nu there.  Each table gets the
    same operations in the same order, whether it is stacked or not.
    """
    order, rank, plan = _plan(tables.shape[-1].bit_length() - 1)
    count = tables.size // order.size  # tables in the stack
    phi = tables.T.take(order, axis=0)  # (2^n,) or (2^n, P)
    table = np.empty((order.size, 2) + tables.shape[:-1])
    table[0] = 0.0  # mu and nu of the empty set, as phi(empty) is +-0.0
    previous = table[:1]
    for layer, parents in plan:
        best = table[layer]  # the parents' best (mu, nu), then the layer's own
        if parents.size * count <= _GATHER:
            np.maximum.reduce(previous.take(parents, axis=0), axis=0, out=best)
        else:
            step = max(1, _GATHER // (len(parents) * count))
            for first in range(0, parents.shape[1], step):
                block = slice(first, first + step)
                np.maximum.reduce(previous.take(parents[:, block], axis=0), axis=0,
                                  out=best[block])
        mu, nu = best[:, 0], best[:, 1]
        phi_layer = phi[layer]
        np.add(phi_layer, nu, out=nu)
        np.maximum(nu, mu, out=mu)  # max(phi + best nu, best mu)
        np.subtract(mu, phi_layer, out=nu)
        previous = best
    return table, rank


def total_variation_stack(tables: np.ndarray) -> np.ndarray:
    """K of each table in a (P, 2^n) stack of value tables, from one chain
    DP; for one (2^n,) table, a 0-d array."""
    table, _ = _positive_variation(tables)
    return 2.0 * table[-1, 0] - tables[..., -1]


def total_variation(phi: SetFunction) -> float:
    """K(phi): largest sum of |increments| over chains from empty to J (the
    closed form where phi is submodular by construction)."""
    if _by_construction(phi)[0]:
        return submodular_variation_closed_form(phi)
    return float(total_variation_stack(phi.values))


def _variation_and_chain(phi: SetFunction) -> tuple:
    """K(phi) and one chain of masks from 0 to J attaining it.

    Where phi is submodular by construction, the chain adds the elements of
    the first maximiser and then the rest, each in descending order, and K is
    the closed form.  Otherwise it is walked back from J over the one DP of
    `canonical_decomposition`: each step drops the smallest x whose candidate
    max(phi(S) + nu[S - x], mu[S - x]) attains mu[S].
    """
    if _by_construction(phi)[0]:
        top, chain = int(phi.values.argmax()), [0]
        for part in (top, phi.ground.full_mask ^ top):
            for x in reversed(range(phi.n)):
                if part >> x & 1:
                    chain.append(chain[-1] | 1 << x)
        return submodular_variation_closed_form(phi), chain
    vals, dec = phi.values, canonical_decomposition(phi)
    bits = np.left_shift(1, np.arange(phi.n, dtype=np.int32))
    chain = [phi.ground.full_mask]
    while chain[0]:
        parents = chain[0] ^ bits[chain[0] & bits != 0]
        candidates = np.maximum(vals[chain[0]] + dec.nu[parents], dec.mu[parents])
        chain.insert(0, int(parents[candidates.argmax()]))
    return dec.variation, chain


def max_variation_chain(phi: SetFunction) -> list:
    """One chain of masks from 0 to J attaining K(phi)."""
    return _variation_and_chain(phi)[1]


def submodular_variation_closed_form(phi: SetFunction, tol: float = TOL) -> float:
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


def _decomposition(tables: np.ndarray) -> tuple:
    """mu and nu in mask order, read-only, as a (2, 2^n) array for one
    table or a (P, 2, 2^n) array for a stack, and K of each table."""
    table, rank = _positive_variation(tables)
    parts = np.take(table, rank, axis=0).T
    parts.flags.writeable = False
    return parts, 2.0 * parts[..., 0, -1] - tables[..., -1]


def canonical_decomposition_stack(tables: np.ndarray) -> list:
    """`canonical_decomposition` of each table in a (P, 2^n) stack of value
    tables, from one chain DP."""
    parts, variations = _decomposition(tables)
    return [DecompositionResult(mu, nu, k)
            for (mu, nu), k in zip(parts, variations.tolist())]


def canonical_decomposition(phi: SetFunction) -> DecompositionResult:
    """Chain-wise positive/negative increment suprema ending exactly at S:
    from the chain DP, or where phi is submodular by construction, mu =
    `ls_decomposition`'s psi (a running maximum, increasing exactly) and nu =
    mu - phi, which the theorem makes increasing, so it is not checked."""
    vals = phi.values
    if not _by_construction(phi)[0]:
        (mu, nu), variation = _decomposition(vals)
        return DecompositionResult(mu, nu, float(variation))
    mu = _subset_maxima(vals)
    nu = mu - vals
    mu.flags.writeable = nu.flags.writeable = False
    return DecompositionResult(mu, nu, 2.0 * float(mu[-1]) - float(vals[-1]))


def _subset_maxima(vals: np.ndarray) -> np.ndarray:
    """max_{Y subseteq S} vals[Y] for every mask S, as a new array: a running
    maximum one bit at a time (a max zeta transform) on the blocks S, S + x."""
    out = vals.copy()
    for x in reversed(range(vals.size.bit_length() - 1)):
        blocks = out.reshape(-1, 2, 1 << x)
        # numpy's 2- and 4-wide inner loops are slow: take those bits by column
        for block in [blocks[..., c] for c in range(1 << x)] if x in (1, 2) else [blocks]:
            np.maximum(block[:, 0], block[:, 1], out=block[:, 1])
    return out


def ls_decomposition(phi: SetFunction, tol: float = TOL):
    """Split submodular phi into psi(S) = max_{Y subseteq S} phi(Y) plus a rest.

    Returns (psi, phi - psi) as read-only float64 tables.  psi is the running
    maximum `_subset_maxima`, increasing exactly (`canonical_decomposition`'s mu
    where phi is submodular by construction, whose remainder then decreases by
    the theorem); where a table pass decided submodularity, a remainder rising
    by more than tol raises AssertionError("remainder not decreasing").
    """
    verdict = require_submodular(phi, tol)
    vals = phi.values
    psi = _subset_maxima(vals)
    remainder = vals - psi
    if verdict.source == "table" and decrease_witness(-remainder, tol) is not None:
        raise AssertionError("remainder not decreasing")
    psi.flags.writeable = remainder.flags.writeable = False
    return psi, remainder
