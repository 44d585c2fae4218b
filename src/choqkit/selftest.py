"""End-to-end invariant suite over generated instances.

Each criterion draws its own seeded instances, so a run is fully
reproducible from the base seed.  The CLI `selftest` subcommand and
the acceptance tests both call into this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import oracles, randgen
from .choquet import choquet, choquet_batch
from .fubini import lln_run, lopsided_check
from .intervals import ae_gap, choquet_interval
from .setfunctions import TOL, SetFunction, conjugate, is_submodular
from .uncrossing import certify_chain_equality, family_sum, uncross
from .variation import (canonical_decomposition, submodular_variation_closed_form,
                        total_variation)


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
    submodular_seen = nonsub_seen = 0
    for i in range(500):
        n = int(rng.integers(3, 7))
        if i % 2 == 0:
            phi = randgen.random_table_setfunction(rng, n)
        else:
            phi = randgen.random_submodular_setfunction(rng, n)
        verdict = is_submodular(phi)
        if verdict:
            submodular_seen += 1
            f, g = rng.uniform(-1.0, 1.0, size=(100, 2, n)).transpose(1, 0, 2)
            # rows are independent: one batch for f + g, f and g
            lhs, at_f, at_g = np.split(choquet_batch(phi, np.vstack([f + g, f, g])), 3)
            rhs = at_f + at_g
            _require(lhs <= rhs + TOL, lambda i: (
                f"subadditivity failed for submodular phi: "
                f"{lhs[i]} > {rhs[i]}"))
        else:
            nonsub_seen += 1
            s, t = verdict.witness
            violation = phi(s | t) + phi(s & t) - phi(s) - phi(t)
            _require(violation > 0, "witness does not violate the inequality")
            ind_s, ind_t = (np.asarray(m >> np.arange(n) & 1, dtype=np.float64)
                            for m in (s, t))
            both = ind_s + ind_t
            gap = choquet(phi, both) - choquet(phi, ind_s) - choquet(phi, ind_t)
            _require(gap >= violation - TOL,
                     f"witness indicators under-violate: {gap} < {violation}")
    return (f"{submodular_seen} submodular / {nonsub_seen} "
            f"non-submodular instances checked")


@_criterion(2, "variation closed form")
def criterion_2(rng, seed) -> str:
    """Variation DP vs the submodular closed form and the O(3^n) oracle."""
    oracle_checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 11))
        phi = randgen.random_submodular_setfunction(
            rng, n, families=("cut", "coverage", "concave-of-modular"))
        dp = total_variation(phi)
        closed = submodular_variation_closed_form(phi)
        _require(abs(dp - closed) <= TOL, f"DP {dp} != closed form {closed}")
        if n <= 6:
            _require(abs(dp - oracles.variation_all_predecessors(phi)) <= TOL,
                     "DP disagrees with the all-predecessor oracle")
            oracle_checked += 1
    # the all-predecessor agreement also on sign-mixed tables
    for _ in range(50):
        n = int(rng.integers(3, 7))
        phi = randgen.random_table_setfunction(rng, n)
        _require(abs(total_variation(phi)
                     - oracles.variation_all_predecessors(phi)) <= TOL,
                 "DP disagrees with the all-predecessor oracle")
        oracle_checked += 1
    return f"200 closed-form checks, {oracle_checked} oracle checks"


@_criterion(3, "canonical decomposition")
def criterion_3(rng, seed) -> str:
    """Canonical decomposition invariants and the two-route extension value."""
    for _ in range(200):
        n = int(rng.integers(3, 8))
        phi = randgen.random_table_setfunction(rng, n)
        dec = canonical_decomposition(phi)
        _require(np.abs(dec.mu - dec.nu - phi.values) <= TOL, "mu - nu != phi")
        _require(dec.mu <= dec.variation + TOL, "mu exceeds K(phi)")
        _require(dec.nu <= dec.variation + TOL, "nu exceeds K(phi)")
        masks = np.arange(1 << n)
        for x in range(n):
            low = masks[masks >> x & 1 == 0]
            _require(dec.mu[low] <= dec.mu[low | 1 << x] + TOL, "mu not increasing")
            _require(dec.nu[low] <= dec.nu[low | 1 << x] + TOL, "nu not increasing")
        fs = rng.uniform(-1.0, 1.0, size=(50, n))
        direct = choquet_batch(phi, fs)
        split = (choquet_batch(SetFunction.from_table(dec.mu), fs)
                 - choquet_batch(SetFunction.from_table(dec.nu), fs))
        _require(np.abs(direct - split) <= TOL, lambda i: (
            f"decomposition route disagrees: {direct[i]} vs {split[i]}"))
    return "200 decompositions, 50 functions each"


@_criterion(4, "extension identities")
def criterion_4(rng, seed) -> str:
    """Homogeneity, translation, reflection, linearity, shift, Lipschitz."""
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        phi = randgen.random_table_setfunction(rng, n)
        psi = randgen.random_table_setfunction(rng, n)
        f, g = rng.uniform(-1.0, 1.0, size=(2, n))
        a = float(rng.uniform(-2.0, 2.0))
        c = float(rng.uniform(0.1, 3.0))
        full = phi.ground.full_mask
        base = choquet(phi, f)
        _require(abs(choquet(phi, c * f) - c * base) <= TOL,
                 "positive homogeneity failed")
        _require(abs(choquet(phi, f + a) - (base + a * phi(full))) <= TOL,
                 "translation identity failed")
        _require(abs(choquet(phi, -f) + choquet(conjugate(phi), f)) <= TOL,
                 "reflection through the conjugate failed")
        combo = SetFunction.from_table(a * phi.values + c * psi.values)
        _require(abs(choquet(combo, f)
                     - (a * base + c * choquet(psi, f))) <= TOL,
                 "linearity in phi failed")
        norm = float(np.max(np.abs(f)))
        shifted = choquet(phi, f, shift=norm + c)
        _require(abs(shifted - base) <= TOL, "shift parameter leaked")
        lip = 2.0 * total_variation(phi) * float(np.max(np.abs(f - g)))
        _require(abs(base - choquet(phi, g)) <= lip + TOL,
                 "Lipschitz bound failed")
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
        _require(tuple(sorted(e for e in mults.items() if e[1])) == trace.final.entries,
                 "the recorded pairs do not lead to the final family")
        _require(trace.final.is_chain(), "final family is not a chain")
        _require(family_sum(trace.final).tolist() == family_sum(family).tolist(),
                 "final family changed the pointwise sum")
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
        exceptional = ae_gap(phi, f)
        _require(len(exceptional) <= len(set(f.values)),
                 "exceptional set larger than the number of levels")
        value = choquet_interval(phi, f)
        ui, ls = (oracles.choquet_interval_by_levels(phi, f, extension)
                  for extension in ("ui", "ls"))
        _require(abs(ui - ls) <= TOL, f"ui and ls values differ: {ui} vs {ls}")
        for extension, ref in (("ui", ui), ("ls", ls)):
            _require(abs(value - ref) <= TOL * max(1.0, abs(ref)),
                     f"sweep {value} vs {extension} per-level route {ref}")
    return "200 (phi, f) pairs, exceptional sets all finite"


@_criterion(7, "lopsided Fubini")
def criterion_7(rng, seed) -> str:
    """Lopsided Fubini: exact inequality plus Monte Carlo traces."""
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        inst = randgen.random_fubini_instance(rng, m, n)
        result = lopsided_check(inst)
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
