"""Choquet extension of a setfunction to real-valued vectors on the ground set.

For f >= 0 the extension integrates phi over the superlevel sets of f;
the integrand is piecewise constant in the threshold, so the integral
is evaluated as an exact finite sum over the level chain.  Vectors
with negative entries are handled by the shift formula
whatphi(f) = whatphi(f + c) - c * phi(J) for any c >= sup|f|.

Both routes read phi from its value table `phi.values`: `choquet` for
one vector, entry by entry as Python floats along its level chain, and
`choquet_stack` for the rows of a matrix, each against its own table in
a stack of tables, by one gather for all rows (`choquet_batch` is its
one-table case).  Both add the same terms in the same order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .setfunctions import PreconditionError, SetFunction, _finite, _require_finite


def choquet(phi: SetFunction, f, shift: Optional[float] = None) -> float:
    """Choquet extension whatphi(f).

    For nonnegative f this is sum_i (t_i - t_{i+1}) * phi({f >= t_i})
    over the level chain, with t_{k+1} = 0.  Otherwise the value is
    whatphi(f + c) - c * phi(J) with c = max(0, sup|f|) (or the given
    shift, which must dominate sup|f|).
    """
    vals = _finite(f, "function values")
    if len(vals) != phi.n:
        raise PreconditionError(f"function length {len(vals)} != ground size {phi.n}")
    # reverse=True keeps ties in index order, as a stable sort on -f does
    order = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    sup = max(vals[order[0]], -vals[order[-1]])  # sup|f|, off the sorted ends
    if shift is not None:
        c, = _finite([shift], "shift")
        if c < sup:
            raise PreconditionError("shift must be at least sup|f|")
    else:
        c = sup if vals[order[-1]] < 0.0 else 0.0
    item = phi.values.item
    total = 0.0
    prev = vals[order[0]] + c
    mask = 0
    for x in order:
        value = vals[x] + c
        if value < prev:  # mask is the level set above value
            total += (prev - value) * item(mask)
        prev = value
        mask |= 1 << x
    height = item(mask)  # phi(J)
    # total is never -0.0, so the two terms leave it as it is when they are zero
    return total + prev * height - c * height


def choquet_batch(phi: SetFunction, F) -> np.ndarray:
    """whatphi of every row of a (B, n) matrix F, as a float64 array: the
    one-table case of `choquet_stack`.  F may have any memory layout; for
    a single vector `choquet` is cheaper."""
    return choquet_stack(phi.values, F, None)


def choquet_stack(tables: np.ndarray, F, which) -> np.ndarray:
    """The Choquet value of each row F[b] under the setfunction whose value
    table is tables[which[b]], for a (P, 2^n) stack of tables, a (B, n)
    matrix F and B table indices (or one for every row), as a float64
    array; one (2^n,) table serves every row, and `which` is unused.

    Lovasz's sorting formula, batched: each raw row is sorted in
    decreasing order (stable), as `choquet` sorts it, so its first and
    last entries give the same shift c as in `choquet`; the sorted row
    is then shifted, and its level masks are the running sums of
    1 << order, started from the row's table offset which[b] * 2^n.  One
    gather from the flat stack gives phi on every level set, J last.
    The terms are added in `choquet`'s order, so each row gets the same
    float as a scalar call.  Ties, including those the shift creates,
    give zero-width terms.

    After the sort the work runs column-major: the order, levels, masks
    and terms are (n, B) arrays whose rows are contiguous over the
    batch, so each step is one operation on a row of length B.
    """
    n = tables.shape[-1].bit_length() - 1
    F = np.ascontiguousarray(F, dtype=np.float64)  # for the flat gather
    if F.ndim != 2 or F.shape[1] != n:
        raise PreconditionError(
            f"expected a (B, {n}) matrix, got shape {F.shape}")
    _require_finite(F, "function values")
    order = np.argsort(-F, axis=1, kind="stable").T.copy()  # (n, B)
    masks = np.left_shift(1, order)
    if tables.ndim == 2:  # the running sums carry each row's table offset
        masks[0] += which << n
    for j in range(1, n):
        masks[j] += masks[j - 1]
    heights = tables.take(masks)
    # flat positions in F's C order: order[j, b] lies in row b
    order += np.arange(0, F.size, n)
    levels = np.take(F, order)
    # sup|f| = max(f_max, -f_min) where f_min < 0, as in `choquet`
    c = np.where(levels[-1] < 0.0, np.maximum(levels[0], -levels[-1]), 0.0)
    levels += c
    terms = levels.copy()
    terms[:-1] -= levels[1:]
    terms *= heights
    total = np.zeros(len(F))
    for term in terms:
        total += term
    return total - c * heights[-1]
