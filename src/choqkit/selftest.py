"""End-to-end invariant suite over generated instances.

Each criterion draws its own seeded instances, so a run is fully
reproducible from the base seed.  Criteria 1, 2, 3, 4 and 7 draw all
their instances first, then run each stacked kernel (`choquet_stack`,
the chain DP's `*_stack`) once per ground-set size, and then check the
instances in draw order, so a failure names the first failing draw.
The CLI `selftest` subcommand and the acceptance tests both call into
this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import oracles, randgen
from .choquet import choquet, choquet_stack
from .fubini import lln_run, lopsided_check_stack
from .intervals import ae_gap, choquet_interval
from .setfunctions import TOL, conjugate, decrease_witness, is_submodular
from .uncrossing import certify_chain_equality, uncross
from .variation import (canonical_decomposition_stack, submodular_variation_closed_form,
                        total_variation_stack)


@dataclass
class CriterionResult:
    index: int
    name: str
    seed: int
    passed: bool
    seconds: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.index} [{status}] {self.name}: "
                f"{self.detail} ({self.seconds:.1f}s)")


def _require(ok, message="check failed"):
    """Raise AssertionError unless ok holds (every entry, for an array).

    Unlike `assert`, this survives `python -O`.  `message` is a string,
    or a function of the first failing index that builds one.
    """
    if ok is True:  # the common case, without the array round trip
        return
    ok = np.asarray(ok)
    if not ok.all():
        raise AssertionError(message(int(ok.argmin())) if callable(message)
                             else message)


def _by_size(items, size, compute) -> list:
    """compute(group) for the items of each size, one call per size on that
    size's items in order; its results, one per item, in the items' order."""
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(size(item), []).append(i)
    results = [None] * len(items)
    for members in groups.values():
        for i, result in zip(members, compute([items[i] for i in members])):
            results[i] = result
    return results


def _criterion(index: int, name: str):
    """Make `check(rng, seed) -> detail` selftest criterion `index`.

    The criterion, called as `criterion_k(seed=k)`, runs the check on
    `rng = default_rng(seed)` (`seed` seeds any further generators), times
    it and reports an AssertionError as FAIL with its message.
    """
    def wrap(check):
        def criterion(seed: int = index) -> CriterionResult:
            start = time.perf_counter()
            try:
                passed, detail = True, check(np.random.default_rng(seed), seed)
            except AssertionError as exc:
                passed, detail = False, str(exc)
            return CriterionResult(index, name, seed, passed,
                                   time.perf_counter() - start, detail)

        criterion.__name__, criterion.__doc__ = check.__name__, check.__doc__
        return criterion

    return wrap


@_criterion(1, "convexity iff submodularity")
def criterion_1(rng, seed) -> str:
    """Convexity iff submodularity on random table setfunctions."""
    draws = []  # (phi, verdict, (f, g)); f and g only for a submodular phi
    for i in range(500):
        n = int(rng.integers(3, 7))
        phi = (randgen.random_submodular_setfunction if i % 2
               else randgen.random_table_setfunction)(rng, n)
        verdict = is_submodular(phi)
        rows = rng.uniform(-1.0, 1.0, size=(100, 2, n)).swapaxes(0, 1) if verdict else None
        draws.append((phi, verdict, rows))

    def evaluate(group):
        # whatphi at f + g, f and g per draw; a call per kind of row keeps batches small
        tables = np.stack([phi.values for phi, _, _ in group])
        which = np.repeat(np.arange(len(group)), 100)
        kinds = zip(*((f + g, f, g) for _, _, (f, g) in group))
        return zip(*(choquet_stack(tables, np.vstack(rows), which).reshape(-1, 100)
                     for rows in kinds))

    submodular = [draw for draw in draws if draw[1]]
    values = iter(_by_size(submodular, lambda draw: draw[0].n, evaluate))
    for phi, verdict, rows in draws:
        if verdict:
            lhs, at_f, at_g = next(values)
            scalar = choquet(phi, rows[0][0])
            _require(float(at_f[0]) == scalar, lambda _: (
                f"batch and scalar Choquet values differ: {at_f[0]} != {scalar}"))
            rhs = at_f + at_g
            _require(lhs <= rhs + TOL, lambda i: (
                f"subadditivity failed for submodular phi: {lhs[i]} > {rhs[i]}"))
        else:
            s, t = verdict.witness
            violation = phi(s | t) + phi(s & t) - phi(s) - phi(t)
            _require(violation > 0, "witness does not violate the inequality")
            ind_s, ind_t = ((m >> np.arange(phi.n) & 1).astype(np.float64) for m in (s, t))
            gap = choquet(phi, ind_s + ind_t) - choquet(phi, ind_s) - choquet(phi, ind_t)
            _require(gap >= violation - TOL,
                     f"witness indicators under-violate: {gap} < {violation}")
    return (f"{len(submodular)} submodular / {len(draws) - len(submodular)} "
            f"non-submodular instances checked")


@_criterion(2, "variation closed form")
def criterion_2(rng, seed) -> str:
    """Variation DP vs the submodular closed form and the O(3^n) oracle."""
    submodular = [randgen.random_submodular_setfunction(
        rng, int(rng.integers(3, 11)), families=("cut", "coverage", "concave-of-modular"))
        for _ in range(200)]
    # the all-predecessor agreement also on sign-mixed tables
    mixed = [randgen.random_table_setfunction(rng, int(rng.integers(3, 7)))
             for _ in range(50)]

    def variations(group):
        return total_variation_stack(np.stack([phi.values for phi in group])).tolist()

    dps = _by_size(submodular + mixed, lambda phi: phi.n, variations)
    oracle_checked = 0
    for phi, dp in zip(submodular, dps):
        closed = submodular_variation_closed_form(phi)
        _require(abs(dp - closed) <= TOL, f"DP {dp} != closed form {closed}")
        if phi.n <= 6:
            _require(abs(dp - oracles.variation_all_predecessors(phi)) <= TOL,
                     "DP disagrees with the all-predecessor oracle")
            oracle_checked += 1
    for phi, dp in zip(mixed, dps[len(submodular):]):
        _require(abs(dp - oracles.variation_all_predecessors(phi)) <= TOL,
                 "DP disagrees with the all-predecessor oracle")
        oracle_checked += 1
    return f"200 closed-form checks, {oracle_checked} oracle checks"


@_criterion(3, "canonical decomposition")
def criterion_3(rng, seed) -> str:
    """Canonical decomposition invariants and the two-route extension value."""
    draws = []
    for _ in range(200):
        n = int(rng.integers(3, 8))
        phi = randgen.random_table_setfunction(rng, n)
        draws.append((phi, rng.uniform(-1.0, 1.0, size=(50, n))))

    def decompose(group):
        # per draw: the decomposition, whatphi of its 50 functions and whatmu - whatnu;
        # one call per kind of table keeps each batch, and its temporaries, small
        decs = canonical_decomposition_stack(np.stack([phi.values for phi, _ in group]))
        F = np.vstack([fs for _, fs in group])
        which = np.repeat(np.arange(len(group)), 50)
        direct, at_mu, at_nu = (
            choquet_stack(np.stack(tables), F, which).reshape(-1, 50)
            for tables in ([phi.values for phi, _ in group], [dec.mu for dec in decs],
                           [dec.nu for dec in decs]))
        return zip(decs, direct, at_mu - at_nu)

    for (phi, _), (dec, direct, split) in zip(
            draws, _by_size(draws, lambda draw: draw[0].n, decompose)):
        _require(np.abs(dec.mu - dec.nu - phi.values) <= TOL, "mu - nu != phi")
        _require(dec.mu <= dec.variation + TOL, "mu exceeds K(phi)")
        _require(dec.nu <= dec.variation + TOL, "nu exceeds K(phi)")
        _require(decrease_witness(dec.mu, TOL) is None, "mu not increasing")
        _require(decrease_witness(dec.nu, TOL) is None, "nu not increasing")
        _require(np.abs(direct - split) <= TOL, lambda i: (
            f"decomposition route disagrees: {direct[i]} vs {split[i]}"))
    return "200 decompositions, 50 functions each"


@_criterion(4, "extension identities")
def criterion_4(rng, seed) -> str:
    """Homogeneity, translation, reflection, linearity, shift, Lipschitz."""
    draws = []
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        phi = randgen.random_table_setfunction(rng, n)
        psi = randgen.random_table_setfunction(rng, n)
        f, g = rng.uniform(-1.0, 1.0, size=(2, n))
        a = float(rng.uniform(-2.0, 2.0))
        c = float(rng.uniform(0.1, 3.0))
        draws.append((phi, psi, f, g, a, c))

    def evaluate(group):
        # per draw, whatphi at f, c f, f + a, -f and g; phi* at f; a phi + c psi
        # at f; psi at f: tables 4d .. 4d + 3 are phi, phi*, a phi + c psi, psi
        tables = np.stack([table for phi, psi, f, g, a, c in group for table in (
            phi.values, conjugate(phi).values, a * phi.values + c * psi.values,
            psi.values)])
        F = np.stack([row for phi, psi, f, g, a, c in group
                      for row in (f, c * f, f + a, -f, f, f, f, g)])
        which = (np.arange(0, len(tables), 4)[:, None] + [0, 0, 0, 0, 1, 2, 3, 0]).ravel()
        values = choquet_stack(tables, F, which).reshape(-1, 8).tolist()
        return zip(values, total_variation_stack(tables[::4]).tolist())

    for (phi, psi, f, g, a, c), (values, variation) in zip(
            draws, _by_size(draws, lambda draw: draw[0].n, evaluate)):
        base, scaled, translated, reflected, conjugated, combined, at_psi, at_g = values
        full = phi.ground.full_mask
        _require(abs(scaled - c * base) <= TOL, "positive homogeneity failed")
        _require(abs(translated - (base + a * phi(full))) <= TOL,
                 "translation identity failed")
        _require(abs(reflected + conjugated) <= TOL,
                 "reflection through the conjugate failed")
        _require(abs(combined - (a * base + c * at_psi)) <= TOL,
                 "linearity in phi failed")
        norm = float(np.max(np.abs(f)))
        shifted = choquet(phi, f, shift=norm + c)
        _require(abs(shifted - base) <= TOL, "shift parameter leaked")
        lip = 2.0 * variation * float(np.max(np.abs(f - g)))
        _require(abs(base - at_g) <= lip + TOL, "Lipschitz bound failed")
    return "1000 draws, six identities each"


@_criterion(5, "uncrossing")
def criterion_5(rng, seed) -> str:
    """Uncrossing invariants, termination, and chain equality."""
    for _ in range(500):
        n = int(rng.integers(2, 11))
        family = randgen.random_weighted_family(rng, n)
        sub = randgen.random_submodular_setfunction(rng, n)
        trace = uncross(family, sub)
        _require(len(trace.steps) <= family.total_multiplicity * n * n,
                 "uncrossing took too many steps")
        mults = dict(family.entries)  # replayed from the recorded pairs
        for step in trace.steps:
            a, b = step.pair
            _require(a & b not in (a, b) and min(mults.get(a, 0), mults.get(b, 0)) > 0,
                     f"recorded pair {step.pair} is not a crossing pair")
            for mask, change in ((a, -1), (b, -1), (a | b, 1), (a & b, 1)):
                mults[mask] = mults.get(mask, 0) + change
            _require(step.potential_after > step.potential_before,
                     "potential did not increase")
            _require(step.phi_sum_after <= step.phi_sum_before + TOL,
                     "phi-sum increased under a submodular setfunction")
        # each replayed exchange keeps the pointwise sum, 1_a + 1_b = 1_{a|b} + 1_{a&b}
        _require(tuple(sorted(e for e in mults.items() if e[1])) == trace.final.entries,
                 "the recorded pairs do not lead to the final family")
        _require(trace.final.is_chain(), "final family is not a chain")
        if trace.steps:
            lhs, rhs, ok = certify_chain_equality(sub, trace.final)
            _require(ok and lhs <= trace.steps[0].phi_sum_before + TOL,
                     "chain equality failed for the submodular phi")
        arbitrary = randgen.random_table_setfunction(rng, n)
        lhs, rhs, ok = certify_chain_equality(arbitrary, trace.final)
        _require(ok, f"chain equality failed for arbitrary phi: {lhs} vs {rhs}")
    return "500 families uncrossed and certified"


@_criterion(6, "interval set-algebra")
def criterion_6(rng, seed) -> str:
    """Interval algebra: a.e. agreement of the ui/ls extensions."""
    for _ in range(200):
        phi = randgen.random_interval_setfunction(rng)
        f = randgen.random_step_function(rng, max_pieces=20)
        ae_gap(phi, f)  # raises on a gap
        # every superlevel set of a step function lies in the algebra, where
        # the reference's ui, ls and exact values are one value
        value = choquet_interval(phi, f)
        ref = oracles.choquet_interval_by_levels(phi, f)
        _require(abs(value - ref) <= TOL * max(1.0, abs(ref)),
                 f"sweep {value} vs per-level route {ref}")
    return "200 (phi, f) pairs, exceptional sets all finite"


@_criterion(7, "lopsided Fubini")
def criterion_7(rng, seed) -> str:
    """Lopsided Fubini: exact inequality plus Monte Carlo traces."""
    def draw():
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        return randgen.random_fubini_instance(rng, m, n)

    # the instances are freed before the traces run; only the results stay
    exact = _by_size([draw() for _ in range(1000)], lambda inst: inst.n,
                     lopsided_check_stack)
    for result in exact:
        _require(result.slack >= -TOL,
                 lambda _: f"lopsided inequality violated: {result}")
    gaps = []
    for run_seed in range(20):
        inst = randgen.random_fubini_instance(
            np.random.default_rng(seed + 1000 + run_seed), 6, 6)
        trace = lln_run(inst, steps=10_000, seed=run_seed)
        gaps.append(abs(float(trace.running_avg[-1]) - trace.rhs))
    return ("1000 exact instances; 20 traces of 10^4 steps; "
            "running-average gaps: "
            + ", ".join(f"{g:.4f}" for g in gaps))


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
            criterion_5, criterion_6, criterion_7)


def run_all(seed: int = 0) -> list:
    """Run criterion k at seed `seed + k`, in order; return the results."""
    return [criterion(seed + k) for k, criterion in enumerate(CRITERIA, start=1)]
