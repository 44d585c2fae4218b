"""Acceptance gate: one test per criterion, each printing its pass line.

Criteria 1-7 call the selftest implementations directly; criterion 8
drives the `selftest` subcommand end to end.
"""

import subprocess
import sys

import numpy as np
import pytest

from choqkit import selftest

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
