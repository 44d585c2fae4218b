"""Acceptance gate: one test per criterion, each printing its pass line.

Criteria 1-7 call the selftest implementations directly; criterion 8
drives the `selftest` subcommand end to end.
"""

import hashlib
import re
import subprocess
import sys

import numpy as np
import pytest

from choqkit import fubini, intervals, selftest, variation
from choqkit.variation import DecompositionResult

BASE_SEED = 0
# sha256 of the seven report lines of `selftest --seed 0`, timings removed
SELFTEST_REPORT_SHA256 = "0ee29ee5687a21371a6872c695a2a07a2fa91d4101af4ae240ebeb4b480404e7"


def report_digest(lines) -> str:
    """sha256 of the report lines, each with its "(x.xs)" timing removed."""
    report = "".join(re.sub(r"\([0-9.]+s\)$", "", line) + "\n" for line in lines)
    return hashlib.sha256(report.encode()).hexdigest()


def _check(result):
    print(result.line())
    assert result.passed, result.detail


def test_require_passes_true_and_raises_on_any_false():
    selftest._require(True)
    selftest._require(np.True_)
    selftest._require(np.array([True, True]))
    for ok in (False, np.False_):
        with pytest.raises(AssertionError, match="^check failed$"):
            selftest._require(ok)
    with pytest.raises(AssertionError, match="^entry 2 failed$"):
        selftest._require(np.array([True, True, False, True]),
                          lambda i: f"entry {i} failed")


def test_criterion_1_convexity_iff_submodularity():
    _check(selftest.criterion_1(BASE_SEED + 1))


def test_criterion_2_variation_closed_form():
    _check(selftest.criterion_2(BASE_SEED + 2))


def test_criterion_3_canonical_decomposition():
    _check(selftest.criterion_3(BASE_SEED + 3))


def test_criterion_3_monotonicity_check_alone_catches_a_drop_at_J(monkeypatch):
    # mu and nu both drop by K + 1 at J: mu - nu, the K bounds and the Choquet
    # route still hold, so only the monotonicity check can fail
    stack = selftest.canonical_decomposition_stack

    def dropped_at_full(tables):
        out = []
        for dec in stack(tables):
            mu, nu = dec.mu.copy(), dec.nu.copy()
            mu[-1] -= dec.variation + 1.0
            nu[-1] -= dec.variation + 1.0
            out.append(DecompositionResult(mu, nu, dec.variation))
        return out

    monkeypatch.setattr(selftest, "canonical_decomposition_stack", dropped_at_full)
    result = selftest.criterion_3(BASE_SEED + 3)
    assert not result.passed and result.detail == "mu not increasing"
    require = selftest._require
    monotone = ("mu not increasing", "nu not increasing")
    monkeypatch.setattr(selftest, "_require", lambda ok, message="check failed": (
        None if message in monotone else require(ok, message)))
    _check(selftest.criterion_3(BASE_SEED + 3))


def test_criteria_2_to_4_plan_each_size_once():
    # criterion 2 meets n = 3..10, criteria 3 and 4 smaller n: one plan each
    variation._plan.cache_clear()
    for criterion in (selftest.criterion_2, selftest.criterion_3, selftest.criterion_4):
        criterion(BASE_SEED)
    info = variation._plan.cache_info()
    assert (info.misses, info.currsize) == (8, 8)


def test_criterion_4_extension_identities():
    _check(selftest.criterion_4(BASE_SEED + 4))


def test_criterion_5_uncrossing():
    _check(selftest.criterion_5(BASE_SEED + 5))


def test_criterion_6_interval_set_algebra():
    _check(selftest.criterion_6(BASE_SEED + 6))


def test_criterion_6_calls_the_level_set_reference_once_per_draw(monkeypatch):
    # one (phi, f) draw, one reference value: ui, ls and exact agree on the algebra
    reference = selftest.oracles.choquet_interval_by_levels
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reference(*args, **kwargs)

    monkeypatch.setattr(selftest.oracles, "choquet_interval_by_levels", counted)
    _check(selftest.criterion_6(BASE_SEED + 6))
    assert len(calls) == 200


def test_criterion_6_fails_on_a_gap_at_a_level(monkeypatch):
    # no level set then approaches a point mass's atom from the right while
    # containing it, so ls is 0 where ui is the mass
    monkeypatch.setattr(intervals._Superlevels, "accumulates_from_right",
                        lambda self, x: ~self.contains(x))
    result = selftest.criterion_6(BASE_SEED + 6)
    assert not result.passed and result.detail == "exceptional set has positive measure"


def test_criterion_7_lopsided_fubini():
    _check(selftest.criterion_7(BASE_SEED + 7))


def test_criterion_7_does_not_recheck_its_draws(monkeypatch):
    # coverage, matroid-rank and concave-of-modular draws are submodular and
    # nonnegative by construction (tests/test_randgen.py checks them)
    calls = []
    monkeypatch.setattr(fubini, "require_submodular", lambda *args: calls.append(args))
    _check(selftest.criterion_7(BASE_SEED + 7))
    assert calls == []


def test_criterion_8_selftest_subcommand():
    result = subprocess.run(
        [sys.executable, "-m", "choqkit", "selftest", "--seed", str(BASE_SEED)],
        capture_output=True, text=True, timeout=600)
    print(result.stdout, end="")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [l for l in result.stdout.splitlines() if l.startswith("criterion")]
    assert len(lines) == 7
    assert all("[PASS]" in line for line in lines)
    assert report_digest(lines) == SELFTEST_REPORT_SHA256
