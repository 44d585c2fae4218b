import hashlib
import math
import re

import numpy as np
import pytest

from choqkit import (FubiniInstance, PreconditionError, SetFunction, choquet,
                     choquet_batch, lln_run, lopsided_check, marginal_g,
                     total_variation, uniform_continuity_modulus)
from choqkit import fubini, variation
from choqkit.fubini import LlnRecord
from choqkit.randgen import random_fubini_instance


def simple_instance():
    phi = SetFunction.coverage([[0], [0, 1], [1]], [1.0, 2.0])
    return FubiniInstance.of([0.5, 0.5], [1 / 3] * 3,
                             [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], phi)


class TestInstanceValidation:
    def test_rejects_nonsubmodular_phi(self):
        phi = SetFunction.from_table([0, 0, 0, 1])
        with pytest.raises(PreconditionError):
            FubiniInstance.of([1.0], [0.5, 0.5], [[0.0, 1.0]], phi)

    def test_rejects_negative_phi(self):
        phi = SetFunction.modular([-1.0, 1.0])
        with pytest.raises(PreconditionError):
            FubiniInstance.of([1.0], [0.5, 0.5], [[0.0, 1.0]], phi)

    def test_force_skips_hypotheses(self):
        phi = SetFunction.from_table([0, 0, 0, 1])
        inst = FubiniInstance.of([1.0], [0.5, 0.5], [[0.0, 1.0]], phi,
                                 validate=False)

    def test_rejects_bad_probabilities(self):
        phi = SetFunction.uniform_matroid(2, 1)
        with pytest.raises(ValueError):
            FubiniInstance.of([0.7, 0.7], [0.5, 0.5], [[0, 0], [0, 0]], phi)
        with pytest.raises(ValueError):
            FubiniInstance.of([0.5, 0.5], [1.0, 0.0], [[0, 0], [0, 0]], phi)


class TestMarginal:
    def test_constant_matrix(self):
        phi = SetFunction.uniform_matroid(2, 1)
        inst = FubiniInstance.of([0.3, 0.7], [0.5, 0.5],
                                 [[2.0, 2.0], [2.0, 2.0]], phi)
        assert marginal_g(inst).tolist() == pytest.approx([2.0, 2.0])

    def test_point_mass_picks_row(self):
        phi = SetFunction.uniform_matroid(2, 1)
        inst = FubiniInstance.of([0.0, 1.0], [0.5, 0.5],
                                 [[1.0, 2.0], [3.0, 4.0]], phi)
        assert marginal_g(inst).tolist() == pytest.approx([3.0, 4.0])

    def test_uniform_average(self):
        g = marginal_g(simple_instance())
        assert g.tolist() == pytest.approx([0.5, 0.5, 0.5])
        assert g.dtype == np.float64 and not g.flags.writeable


class TestLopsided:
    def test_point_mass_lambda_is_tight(self):
        phi = SetFunction.uniform_matroid(3, 2)
        inst = FubiniInstance.of([1.0], [1 / 3] * 3, [[0.2, 0.9, 0.4]], phi)
        result = lopsided_check(inst)
        assert result.holds
        assert result.slack == pytest.approx(0.0, abs=1e-12)

    def test_equal_rows_are_tight(self):
        phi = SetFunction.uniform_matroid(3, 2)
        row = [0.1, 0.5, 0.3]
        inst = FubiniInstance.of([0.25, 0.75], [1 / 3] * 3, [row, row], phi)
        assert lopsided_check(inst).slack == pytest.approx(0.0, abs=1e-12)

    def test_random_instances_hold(self, rng):
        for _ in range(100):
            inst = random_fubini_instance(rng, int(rng.integers(2, 9)),
                                          int(rng.integers(2, 9)))
            result = lopsided_check(inst)
            assert result.holds, result

    def test_slack_matches_direct_subadditivity(self):
        inst = simple_instance()
        result = lopsided_check(inst)
        # lambda-average = sum of scaled rows; subadditivity + homogeneity
        phi = inst.phi
        scaled = [np.array(row) * w for row, w in zip(inst.F, inst.lam)]
        direct = sum(choquet(phi, r) for r in scaled)
        assert result.lhs <= direct + 1e-9
        assert direct == pytest.approx(result.rhs, abs=1e-9)


def _unreachable(*args):
    raise RuntimeError("evaluated before the step budget was checked")


class TestLlnRun:
    def test_single_step(self):
        inst = simple_instance()
        trace = lln_run(inst, steps=1, seed=0)
        rec = trace.records[0]
        row = inst.F[trace.samples[0]]
        assert rec.what_f == pytest.approx(choquet(inst.phi, row))
        g = marginal_g(inst)
        assert rec.norm_h == pytest.approx(
            max(abs(a - b) for a, b in zip(g, row)))

    def test_deterministic_lambda(self):
        phi = SetFunction.uniform_matroid(2, 1)
        inst = FubiniInstance.of([0.0, 1.0], [0.5, 0.5],
                                 [[0.0, 0.0], [0.25, 0.75]], phi)
        trace = lln_run(inst, steps=50, seed=1)
        for rec in trace.records:
            assert rec.norm_h == pytest.approx(0.0, abs=1e-12)
            assert rec.what_h == pytest.approx(0.0, abs=1e-12)

    def test_reproducible_from_seed(self):
        inst = simple_instance()
        a = lln_run(inst, steps=100, seed=7)
        b = lln_run(inst, steps=100, seed=7)
        assert np.array_equal(a.samples, b.samples)
        assert a.records == b.records

    def test_trace_invariants(self, rng):
        inst = random_fubini_instance(rng, 5, 5)
        inst = FubiniInstance.of(inst.lam, inst.pi, inst.F,
                                 SetFunction.from_table(inst.phi.table()))
        trace = lln_run(inst, steps=500, seed=11)  # asserts bounds internally
        k_phi = total_variation(inst.phi)
        final = trace.records[-1]
        assert abs(final.what_h) <= 2.0 * k_phi * final.norm_h + 1e-9
        assert final.what_f <= final.running_avg + 1e-9

    def test_columns_are_read_only_with_one_entry_per_step(self):
        trace = lln_run(simple_instance(), steps=37, seed=2)
        for name in ("samples",) + LlnRecord._fields:
            column = getattr(trace, name)
            assert column.shape == (37,) and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        assert trace.samples.dtype.kind == trace.k.dtype.kind == "i"
        assert trace.k.tolist() == list(range(1, 38))

    def test_records_are_the_columns_row_by_row(self):
        trace = lln_run(simple_instance(), steps=37, seed=2)
        assert len(trace.records) == 37
        for i, rec in enumerate(trace.records):
            assert type(rec) is LlnRecord and type(rec.k) is int
            assert all(type(value) is float for value in rec[1:])
            assert rec == tuple(getattr(trace, name)[i] for name in LlnRecord._fields)

    def test_columns_match_per_step_records_bit_for_bit(self):
        # sha256 of repr(records) as built one LlnRecord per step, before
        # the trace became columns; 2065 steps cross two block boundaries
        inst = random_fubini_instance(np.random.default_rng(3), 6, 6)
        trace = lln_run(inst, steps=2065, seed=3)
        assert hashlib.sha256(repr(trace.records).encode()).hexdigest() == (
            "342d9a4775266e9706aaa3713f452dd3e44819190740e88f2e8f551b2fc338b0")

    def test_rejects_zero_steps(self):
        with pytest.raises(PreconditionError):
            lln_run(simple_instance(), steps=0)

    def test_step_budget_fails_before_any_work(self, monkeypatch):
        # 48 bytes per step: ten steps fit the patched budget, eleven do not
        monkeypatch.setattr(fubini, "_LLN_BUDGET", 10 * 48)
        assert len(lln_run(simple_instance(), steps=10).k) == 10
        monkeypatch.setattr(fubini, "lopsided_check", _unreachable)
        with pytest.raises(PreconditionError,
                           match="lln_run with steps=11 needs about 528 bytes"):
            lln_run(simple_instance(), steps=11)

    def test_default_budget_stops_above_22_million_steps(self, monkeypatch):
        monkeypatch.setattr(fubini, "lopsided_check", _unreachable)
        steps = (1 << 30) // 48 + 1
        with pytest.raises(PreconditionError, match=f"steps={steps} needs about "
                           "1073741856 bytes, over its budget of 1073741824 bytes"):
            lln_run(simple_instance(), steps=steps)


def _counting(monkeypatch, name, module=fubini, calls=None):
    """Replace <module>.<name> by a wrapper that appends the name to `calls`
    (a new list by default) at each call; returns `calls`."""
    calls, original = [] if calls is None else calls, getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestLlnEvaluatesOnce:
    def test_rows_are_the_batch_values_read_only(self, rng):
        inst = random_fubini_instance(rng, 5, 4)
        result = lopsided_check(inst)
        want = choquet_batch(inst.phi, inst.F)
        assert result.rows.tobytes() == want.tobytes()
        assert result.rows.dtype == np.float64 and not result.rows.flags.writeable
        with pytest.raises(ValueError):
            result.rows[0] = 0.0

    @pytest.mark.parametrize("steps", [1, fubini._BLOCK, fubini._BLOCK + 1, 2065])
    def test_one_batch_for_the_rows_and_one_per_block(self, monkeypatch, steps):
        calls = _counting(monkeypatch, "choquet_batch")
        lln_run(random_fubini_instance(np.random.default_rng(3), 6, 6), steps, seed=3)
        assert len(calls) == 1 + math.ceil(steps / fubini._BLOCK)

    def test_validated_instance_skips_the_chain_dp(self, monkeypatch):
        # the families' K is the closed form; the DP never runs
        calls = _counting(monkeypatch, "_positive_variation", variation)
        for seed in range(5):
            inst = random_fubini_instance(np.random.default_rng(seed), 6, 6)
            lln_run(inst, steps=2065, seed=seed)
        assert calls == []

    def test_forced_instance_falls_back_to_the_chain_dp(self, monkeypatch):
        # a table's K(phi) = 2 comes from one chain DP, after the rows' batch
        # and before the first block's; 2 max phi - phi(J) = 0 would fail the
        # Lipschitz bound here: the rows are comonotone, so subadditivity is
        # tight while |whatphi(h_k)| = ||h_k|| > 0
        phi = SetFunction.from_table([0, -1, -1, 0])
        inst = FubiniInstance.of([0.5, 0.5], [0.5, 0.5], [[1, 0], [0.5, 0]],
                                 phi, validate=False)
        assert 2.0 * phi.values.max() - phi.values[-1] == 0.0
        assert total_variation(phi) == 2.0
        calls = _counting(monkeypatch, "_positive_variation", variation)
        _counting(monkeypatch, "choquet_batch", calls=calls)
        trace = lln_run(inst, steps=50, seed=1)
        assert calls == ["choquet_batch", "_positive_variation", "choquet_batch"]
        assert np.abs(trace.what_h).max() > 1e-9
        assert np.array_equal(np.abs(trace.what_h), trace.norm_h)


class TestUniformContinuity:
    def test_size_limit_fails_before_allocating(self, path_cut, monkeypatch):
        # 28 pairs at n = 3, 48 bytes each, and one (eps, delta) of 112 bytes
        monkeypatch.setattr(fubini, "_CONTINUITY_BUDGET", 28 * 48 + 112)
        assert uniform_continuity_modulus(path_cut, [1 / 3] * 3, [1.0]) == [(1.0, 1 / 3)]
        monkeypatch.setattr(fubini, "_CONTINUITY_BUDGET", 28 * 48 + 112 - 1)
        with pytest.raises(PreconditionError, match="uniform_continuity_modulus at n=3 "
                                                    "needs about 1456 bytes, over its "
                                                    "budget of 1455 bytes"):
            uniform_continuity_modulus(path_cut, [1 / 3] * 3, [1.0])

    def test_size_limit_counts_the_default_list(self, path_cut, monkeypatch):
        # the path cut's distinct positive gaps are 1 and 2: two tuples, counted
        # once the gaps are sorted and before the list is built
        monkeypatch.setattr(fubini, "_CONTINUITY_BUDGET", 28 * 48 + 2 * 112)
        assert uniform_continuity_modulus(path_cut, [1 / 3] * 3) == [(1.0, 1 / 3),
                                                                     (2.0, 1 / 3)]
        monkeypatch.setattr(fubini, "_CONTINUITY_BUDGET", 28 * 48 + 2 * 112 - 1)
        monkeypatch.setattr(fubini, "zip", lambda *columns: pytest.fail("list built"),
                            raising=False)
        with pytest.raises(PreconditionError, match="uniform_continuity_modulus at n=3 "
                                                    "needs about 1568 bytes, over its "
                                                    "budget of 1567 bytes"):
            uniform_continuity_modulus(path_cut, [1 / 3] * 3)

    def test_default_budget_stops_at_n_13(self):
        phi = SetFunction.modular([1.0] * 13)
        with pytest.raises(PreconditionError, match="n=13 needs about 1610416128 bytes"):
            uniform_continuity_modulus(phi, [1 / 13] * 13)

    def test_huge_epsilon_gives_infinite_delta(self, path_cut):
        table = uniform_continuity_modulus(path_cut, [1 / 3] * 3,
                                           epsilons=[100.0])
        assert table == [(100.0, math.inf)]

    def test_measure_is_lipschitz_wrt_itself(self):
        pi = (0.25, 0.25, 0.25, 0.25)
        phi = SetFunction.modular(pi)
        for eps, delta in uniform_continuity_modulus(phi, pi):
            assert delta == pytest.approx(eps, abs=1e-12)

    def test_delta_dominates_epsilon_for_measures(self, rng):
        for _ in range(10):
            pi = rng.uniform(0.1, 1.0, size=4)
            pi /= pi.sum()
            phi = SetFunction.modular(pi)
            for eps, delta in uniform_continuity_modulus(phi, pi):
                assert delta >= eps - 1e-12

    def test_exhaustive_small_coverage(self):
        phi = SetFunction.coverage([[0], [0, 1], [1]], [1.0, 2.0])
        pi = (1 / 3, 1 / 3, 1 / 3)
        vals = phi.table()
        for eps, delta in uniform_continuity_modulus(phi, pi):
            best = math.inf
            for s in range(8):
                for t in range(8):
                    if abs(vals[s] - vals[t]) >= eps:
                        sym = sum(pi[x] for x in range(3) if (s ^ t) >> x & 1)
                        best = min(best, sym)
            assert delta == pytest.approx(best)


UNIFORM_2 = SetFunction.uniform_matroid(2, 1)


class TestRefusals:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: FubiniInstance.of([0.5, 0.5], [0.5, 0.5], [[0, 0]], UNIFORM_2),
         ValueError, "F must be an m x n matrix matching lambda and pi"),
        (lambda: FubiniInstance.of([0.5, 0.5], [0.5, 0.5], [[0, 0], [0]], UNIFORM_2),
         ValueError, "F must be an m x n matrix matching lambda and pi"),
        (lambda: FubiniInstance.of([1.5, -0.5], [0.5, 0.5], [[0, 0], [0, 0]], UNIFORM_2),
         ValueError, "lambda must be nonnegative"),
        (lambda: FubiniInstance.of([1.0], [0.25, 0.25, 0.5], [[0, 0, 0]], UNIFORM_2),
         ValueError, "phi ground size must match pi"),
        (lambda: uniform_continuity_modulus(UNIFORM_2, [1.0, 0.0]), PreconditionError,
         "pi entries must be positive"),
        (lambda: uniform_continuity_modulus(UNIFORM_2, [0.25, 0.25, 0.5]), ValueError,
         "pi length must match the ground set"),
    ])
    def test_refusal(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
