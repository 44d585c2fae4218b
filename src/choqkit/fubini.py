"""Lopsided Fubini inequality on finite probability spaces.

For a nonnegative submodular phi on the column space J, the Choquet
value of the lambda-average of the rows of F is at most the
lambda-average of the row values.  On finite spaces the uniform
continuity hypothesis is automatic (see uniform_continuity_modulus),
so the inequality reduces to subadditivity plus homogeneity; the
Monte Carlo runner demonstrates the law-of-large-numbers construction
behind the general proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .choquet import choquet_batch, choquet_stack
from .setfunctions import (TOL, PreconditionError, SetFunction, _finite, _finite_array,
                           _size_limit_error, require_submodular, subset_sums)
from .variation import total_variation


@dataclass(frozen=True, eq=False)
class FubiniInstance:
    """Finite probability spaces (I, lambda), (J, pi), the m x n matrix F
    and phi on J; lam, pi and F are read-only float64 arrays."""

    lam: np.ndarray
    pi: np.ndarray
    F: np.ndarray
    phi: SetFunction

    @classmethod
    def of(cls, lam, pi, F, phi: SetFunction, validate: bool = True,
           tol: float = TOL) -> "FubiniInstance":
        lam = _finite_array(lam, "lambda")
        pi = _finite_array(pi, "pi")
        if len(F) != len(lam) or any(len(row) != len(pi) for row in F):
            raise ValueError("F must be an m x n matrix matching lambda and pi")
        F = _finite_array(F, "F")
        # on Python floats: m and n are small, and the sums stay sequential
        weights, masses = lam.tolist(), pi.tolist()
        if abs(sum(weights) - 1.0) > tol or abs(sum(masses) - 1.0) > tol:
            raise ValueError("lambda and pi must sum to 1")
        if any(v < 0 for v in weights):
            raise ValueError("lambda must be nonnegative")
        if any(v <= 0 for v in masses):
            raise ValueError("pi entries must be positive")
        if phi.n != len(pi):
            raise ValueError("phi ground size must match pi")
        if validate:
            require_submodular(phi, tol)
            if float(phi.values.min()) < -tol:
                raise PreconditionError("phi must be nonnegative")
        return cls(lam, pi, F, phi)

    @property
    def m(self) -> int:
        return len(self.lam)

    @property
    def n(self) -> int:
        return len(self.pi)


def marginal_g(inst: FubiniInstance) -> np.ndarray:
    """g(y) = sum_x lambda(x) F(x, y), the lambda-average of the rows,
    as a read-only float64 array."""
    g = inst.lam @ inst.F
    g.flags.writeable = False
    return g


@dataclass(frozen=True)
class LopsidedResult:
    """The two sides of the inequality; `rows` holds whatphi(F_x) for each
    row x, a read-only slice of the batch that gave `lhs` (None when the
    result is rebuilt from its two sides)."""

    lhs: float
    rhs: float
    slack: float
    holds: bool
    rows: Optional[np.ndarray] = field(default=None, compare=False)

    @classmethod
    def of(cls, lhs: float, rhs: float, tol: float,
           rows: Optional[np.ndarray] = None) -> "LopsidedResult":
        return cls(lhs, rhs, rhs - lhs, rhs - lhs >= -tol, rows)


def _lopsided_result(inst: FubiniInstance, values: np.ndarray,
                     tol: float) -> LopsidedResult:
    """The result from whatphi of the rows of [g; F], made read-only; rhs
    is summed left to right in Python floats."""
    values.flags.writeable = False
    rows = values[1:]
    rhs = sum(w * value for w, value in zip(inst.lam.tolist(), rows.tolist()))
    return LopsidedResult.of(float(values[0]), rhs, tol, rows)


def lopsided_check(inst: FubiniInstance, tol: float = TOL) -> LopsidedResult:
    """whatphi(g) versus the lambda-average of whatphi over the rows, from
    one `choquet_batch` call on the stacked matrix [g; F]."""
    values = choquet_batch(inst.phi, np.vstack([marginal_g(inst), inst.F]))
    return _lopsided_result(inst, values, tol)


def lopsided_check_stack(instances, tol: float = TOL) -> list:
    """`lopsided_check` of each instance, all on one ground-set size, from
    one `choquet_stack` call on their matrices [g; F] stacked."""
    blocks = [np.vstack([marginal_g(inst), inst.F]) for inst in instances]
    sizes = [len(block) for block in blocks]
    values = choquet_stack(np.stack([inst.phi.values for inst in instances]),
                           np.vstack(blocks), np.repeat(np.arange(len(blocks)), sizes))
    return [_lopsided_result(inst, part, tol)
            for inst, part in zip(instances, np.split(values, np.cumsum(sizes)[:-1]))]


class LlnRecord(NamedTuple):
    k: int
    what_f: float        # whatphi of the empirical average f_k
    running_avg: float   # average of whatphi over the sampled rows
    what_h: float        # whatphi of h_k = g - f_k
    norm_h: float


@dataclass(frozen=True, eq=False)
class LlnTrace:
    """An LLN run as read-only columns of length `steps`: the sampled row
    indices and, per step k, the fields of `LlnRecord`."""

    seed: int
    samples: np.ndarray
    k: np.ndarray
    what_f: np.ndarray
    running_avg: np.ndarray
    what_h: np.ndarray
    norm_h: np.ndarray
    lhs: float
    rhs: float

    @property
    def records(self) -> tuple:
        """One `LlnRecord` of Python numbers per step, built from the
        columns on every access; read only by perfbench's checks."""
        columns = (self.k, self.what_f, self.running_avg, self.what_h, self.norm_h)
        return tuple(map(LlnRecord, *(col.tolist() for col in columns)))


_BLOCK = 1024  # steps per batch; bounds the arrays' memory, leaves the arithmetic as is
_STEP_BYTES = 48  # the trace's six int64/float64 columns per step
_LLN_BUDGET = 1 << 30  # bytes the trace's columns may take


def lln_run(inst: FubiniInstance, steps: int, seed: int = 0,
            tol: float = TOL) -> LlnTrace:
    """Sample rows i.i.d. from lambda and track the empirical averages.

    At every step k the finite subadditivity bound
    whatphi(f_k) <= (1/k) sum_i whatphi(F_{x_i}) is checked, as is the
    Lipschitz bound |whatphi(h_k)| <= 2 K(phi) ||h_k|| for h_k = g - f_k;
    an AssertionError names the first step that violates either.  K(phi)
    comes from `total_variation`, once, before the first step: the closed
    form 2 max phi - phi(J) where phi is submodular by construction, one
    chain DP otherwise (a `table` phi, say).

    The row values whatphi(F_x) and the trace's `lhs`/`rhs` come from
    one `lopsided_check`; their running average is one cumulative sum
    over the run, divided by k.  The steps run in blocks: per block, the
    row sums are cumulative sums that start from the previous block's
    last sum, so every f_k is the same sequence of additions as a
    step-by-step accumulation.  The block's f_k and h_k are the two
    halves of one (n, 2 * width) array, evaluated by one `choquet_batch`
    call, so the cumulative sums run along contiguous rows.  The
    columns take about 48 bytes per step; above _LLN_BUDGET bytes (from
    about 22 million steps) a PreconditionError is raised before
    anything is allocated.
    """
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    estimate = _STEP_BYTES * steps
    if estimate > _LLN_BUDGET:
        raise _size_limit_error(f"lln_run with steps={steps}", estimate, _LLN_BUDGET)
    result = lopsided_check(inst, tol)
    rng = np.random.default_rng(seed)
    samples = rng.choice(inst.m, size=steps, p=inst.lam)
    phi, F = inst.phi, inst.F
    g = marginal_g(inst)
    slope = total_variation(phi)

    k = np.arange(1, steps + 1)
    what_f, avg, what_h, norm_h = np.empty((4, steps))
    np.cumsum(result.rows[samples], out=avg)
    avg /= k
    acc = np.zeros((inst.n, 1))  # the row sums so far, carried into the next block
    for first in range(0, steps, _BLOCK):
        part = slice(first, first + _BLOCK)
        block, k_part = samples[part], k[part]
        width = len(block)
        sums = np.cumsum(np.hstack([acc, F[block].T]), axis=1)[:, 1:]
        acc = sums[:, -1:]
        pair = np.empty((inst.n, 2 * width))
        f_k, h_k = pair[:, :width], pair[:, width:]
        np.divide(sums, k_part, out=f_k)
        np.subtract(g[:, None], f_k, out=h_k)
        values = choquet_batch(phi, pair.T)
        what_f[part], what_h[part] = values[:width], values[width:]
        norm_h[part] = np.abs(h_k).max(axis=0)
        subadditive = what_f[part] <= avg[part] + tol
        lipschitz = np.abs(what_h[part]) <= 2.0 * slope * norm_h[part] + tol
        held = subadditive & lipschitz
        if not held.all():
            i = int(held.argmin())
            bound = "Lipschitz" if subadditive[i] else "finite subadditivity"
            raise AssertionError(f"{bound} bound violated at step {k_part[i]}")
    for column in (samples, k, what_f, avg, what_h, norm_h):
        column.flags.writeable = False
    return LlnTrace(seed=seed, samples=samples, k=k, what_f=what_f,
                    running_avg=avg, what_h=what_h, norm_h=norm_h,
                    lhs=result.lhs, rhs=result.rhs)


_PAIR_BYTES = 48  # the modulus's arrays per pair {S, T}, at their peak
_TUPLE_BYTES = 112  # per (eps, delta) of the returned list: tuple, two floats, a slot
_CONTINUITY_BUDGET = 1 << 30  # bytes the modulus may allocate for its pairs and list


def _continuity_within_budget(n: int, estimate: int) -> None:
    if estimate > _CONTINUITY_BUDGET:
        raise _size_limit_error(f"uniform_continuity_modulus at n={n}", estimate,
                                _CONTINUITY_BUDGET)


def uniform_continuity_modulus(phi: SetFunction, pi,
                               epsilons=None) -> list:
    """Table of (eps, delta): delta = min pi(S sym T) over pairs with
    |phi(S) - phi(T)| >= eps (+inf if none), eps by default running over
    the distinct positive gaps; delta < min_x pi(x) forces S = T.  delta
    depends on a pair only through D = S xor T, so one gap matrix (row D:
    |phi(S) - phi(S xor D)| for every S, D = 0 left out) and one
    `searchsorted` among the D by largest gap serve both epsilon lists.
    The arrays take about 48 bytes per pair, 4^n / 2 pairs, and the list
    112 per (eps, delta); above _CONTINUITY_BUDGET bytes (n >= 13) a
    PreconditionError is raised before allocating, or for the default
    epsilons, whose count the sorted gaps give, before building the list.
    """
    pi = _finite(pi, "pi")
    if any(v <= 0 for v in pi):
        raise PreconditionError("pi entries must be positive")
    if len(pi) != phi.n:
        raise ValueError("pi length must match the ground set")
    if epsilons is not None:  # before the gap matrix, which takes seconds at n = 12
        epsilons = _finite(epsilons, "epsilons")
    vals = phi.values
    estimate = _PAIR_BYTES * (vals.size * (vals.size - 1) // 2)
    _continuity_within_budget(phi.n, estimate + _TUPLE_BYTES * len(epsilons or ()))
    gaps = np.abs(vals[np.arange(1, vals.size)[:, None] ^ np.arange(vals.size)] - vals)
    # the D by largest gap, descending, and delta over the first q of them (q = 0 first)
    largest = gaps.max(axis=1)
    order = np.argsort(-largest)
    running_min = np.minimum.accumulate(np.append(math.inf, subset_sums(pi)[1:][order]))
    if epsilons is None:  # a constant table has no positive gap; no pair reaches 1.0
        epsilons = np.unique(gaps)
        epsilons = epsilons[epsilons > 0] if epsilons[-1] > 0 else [1.0]
        _continuity_within_budget(phi.n, estimate + _TUPLE_BYTES * len(epsilons))
    epsilons = np.asarray(epsilons, dtype=np.float64)
    deltas = running_min[np.searchsorted(-largest[order], -epsilons, side="right")]
    return list(zip(epsilons.tolist(), deltas.tolist()))
