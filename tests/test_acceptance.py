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

from choqkit import selftest, variation
from choqkit.variation import DecompositionResult

BASE_SEED = 0


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


def test_criterion_7_lopsided_fubini():
    _check(selftest.criterion_7(BASE_SEED + 7))


def test_criterion_8_selftest_subcommand():
    result = subprocess.run(
        [sys.executable, "-m", "choqkit", "selftest", "--seed", str(BASE_SEED)],
        capture_output=True, text=True, timeout=600)
    print(result.stdout, end="")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [l for l in result.stdout.splitlines() if l.startswith("criterion")]
    assert len(lines) == 7
    assert all("[PASS]" in line for line in lines)
    # the seven report lines, each with its "(x.xs)" timing removed
    report = "".join(re.sub(r"\([0-9.]+s\)$", "", line) + "\n" for line in lines)
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "0ee29ee5687a21371a6872c695a2a07a2fa91d4101af4ae240ebeb4b480404e7")
