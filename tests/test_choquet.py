import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqkit import (PreconditionError, SetFunction, choquet, choquet_batch, cli,
                     conjugate, setfunction_to_json, total_variation)
from choqkit.randgen import random_table_setfunction

TOL = 1e-9

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def indicator(n, mask):
    return np.asarray(mask >> np.arange(n) & 1, dtype=np.float64)


def chain_rows(f):
    """(threshold, mask) of each level-chain row `choquet-eval --chain` prints for f."""
    phi = json.dumps(setfunction_to_json(SetFunction.modular([1.0] * len(f))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--format", "json", "choquet-eval", phi,
                         "--function", json.dumps([float(v) for v in f]), "--chain"]) == 0
    return [(row["threshold"], row["mask"]) for row in json.loads(out.getvalue())["chain"]]


class TestLevelChain:
    def test_example_three_values(self):
        assert chain_rows((0.5, 1.0, 0.0)) == [(1.0, 0b010), (0.5, 0b011), (0.0, 0b111)]

    def test_constant(self):
        assert chain_rows((2.0, 2.0, 2.0)) == [(2.0, 0b111)]

    def test_indicator(self):
        assert chain_rows(indicator(3, 0b101)) == [(1.0, 0b101), (0.0, 0b111)]

    def test_reconstruction(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            f = tuple(rng.uniform(0.0, 2.0, size=n))
            rows = chain_rows(f)
            thr = [t for t, _ in rows] + [0.0]
            rebuilt = [0.0] * n
            for t, nxt, (_, mask) in zip(thr, thr[1:], rows):
                for x in range(n):
                    if mask >> x & 1:
                        rebuilt[x] += t - nxt
            assert rebuilt == pytest.approx(list(f), abs=TOL)


class TestChoquetValues:
    def test_path_cut_example(self, path_cut):
        assert choquet(path_cut, (0.5, 1.0, 0.0)) == pytest.approx(1.5, abs=TOL)

    def test_negative_values_shift(self, path_cut):
        assert choquet(path_cut, (1.0, -1.0, 0.0)) == pytest.approx(3.0, abs=TOL)

    def test_indicator_consistency(self, path_cut):
        for mask in range(8):
            f = indicator(3, mask)
            assert choquet(path_cut, f) == pytest.approx(path_cut(mask), abs=TOL)

    def test_modular_linear(self):
        phi = SetFunction.modular([1, 2, 3])
        assert choquet(phi, (0.5, 1.0, 0.0)) == pytest.approx(2.5, abs=TOL)

    def test_charge_linearity_random(self, rng):
        weights = rng.uniform(-2, 2, size=4)
        phi = SetFunction.modular(weights)
        for _ in range(20):
            f = rng.uniform(-1, 1, size=4)
            assert choquet(phi, f) == pytest.approx(float(weights @ f), abs=1e-8)


class TestIdentities:
    @given(st.lists(finite, min_size=3, max_size=3),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_positive_homogeneity(self, values, c):
        phi = SetFunction.from_table([0, 1, 2, -1, 0.5, 3, -2, 1])
        scaled = choquet(phi, [c * v for v in values])
        assert scaled == pytest.approx(c * choquet(phi, values), abs=1e-7, rel=1e-9)

    @given(st.lists(finite, min_size=3, max_size=3), finite)
    @settings(max_examples=200, deadline=None)
    def test_translation(self, values, a):
        phi = SetFunction.from_table([0, 1, 2, -1, 0.5, 3, -2, 1])
        shifted = choquet(phi, [v + a for v in values])
        assert shifted == pytest.approx(choquet(phi, values) + a * phi(7),
                                        abs=1e-8)

    def test_shift_parameter_independence(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            phi = random_table_setfunction(rng, n)
            f = rng.uniform(-2, 2, size=n)
            base = choquet(phi, f)
            c = float(np.max(np.abs(f)) + rng.uniform(0.0, 5.0))
            assert choquet(phi, f, shift=c) == pytest.approx(base, abs=1e-8)

    def test_reflection_via_conjugate(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            phi = random_table_setfunction(rng, n)
            f = rng.uniform(-1, 1, size=n)
            assert choquet(phi, -f) == pytest.approx(
                -choquet(conjugate(phi), f), abs=1e-8)

    def test_linearity_in_setfunction(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            phi = random_table_setfunction(rng, n)
            psi = random_table_setfunction(rng, n)
            a, b = rng.uniform(-2, 2, size=2)
            combo = SetFunction.from_table(
                [a * u + b * v for u, v in zip(phi.table(), psi.table())])
            f = rng.uniform(-1, 1, size=n)
            assert choquet(combo, f) == pytest.approx(
                a * choquet(phi, f) + b * choquet(psi, f), abs=1e-8)

    def test_lipschitz_bound(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            phi = random_table_setfunction(rng, n)
            k = total_variation(phi)
            f = rng.uniform(-1, 1, size=n)
            g = rng.uniform(-1, 1, size=n)
            gap = abs(choquet(phi, f) - choquet(phi, g))
            assert gap <= 2.0 * k * float(np.max(np.abs(f - g))) + TOL

    def test_subadditive_for_submodular(self, path_cut, rng):
        for _ in range(100):
            f = rng.uniform(-1, 1, size=3)
            g = rng.uniform(-1, 1, size=3)
            assert choquet(path_cut, f + g) <= (choquet(path_cut, f)
                                                + choquet(path_cut, g) + TOL)

    def test_witness_indicators_break_subadditivity(self):
        phi = SetFunction.from_table([0, 0, 0, 1])
        f = indicator(2, 0b01)
        g = indicator(2, 0b10)
        combined = choquet(phi, (1.0, 1.0))
        assert combined > choquet(phi, f) + choquet(phi, g) + 0.5


class TestRefusals:
    @pytest.mark.parametrize("evaluate, message", [
        (lambda phi: choquet(phi, [1.0, 2.0]), "function length 2 != ground size 3"),
        (lambda phi: choquet(phi, [1.0, 2.0, 3.0, 4.0]),
         "function length 4 != ground size 3"),
        (lambda phi: choquet_batch(phi, [[1.0, 2.0]]),
         "expected a (B, 3) matrix, got shape (1, 2)"),
    ])
    def test_wrong_length(self, path_cut, evaluate, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            evaluate(path_cut)
