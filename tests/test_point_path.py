"""Property tests for the point-oracle path: scalar `choquet`, `phi(mask)`
and the steps of `uncross`, each against the route it must equal bit
for bit (the batched kernel, the rebuilt family, the payload oracle)."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from choqkit import (PreconditionError, SetFunction, choquet, choquet_batch,
                     oracles, uniform_continuity_modulus)
from choqkit.setfunctions import GroundSet, piecewise_linear_array
from choqkit.uncrossing import WeightedFamily, uncross

from test_kernels import SETTINGS, SHIFT_TIES, setfunctions
from test_uncrossing import replay


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def vectors(draw, n):
    """Length-n rows with ties, ties the shift creates, and free floats."""
    unit = 2.0 ** -draw(st.integers(0, 18))
    dyadic = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(
        lambda row: [v * unit for v in row])
    entry = st.one_of(st.sampled_from(SHIFT_TIES), st.floats(-5.0, 5.0))
    return draw(st.one_of(dyadic, st.lists(entry, min_size=n, max_size=n)))


FORMS = {"list": list, "tuple": tuple, "ndarray": np.array}


class TestScalarChoquet:
    @SETTINGS
    @given(setfunctions.flatmap(lambda phi: st.tuples(
        st.just(phi), vectors(phi.n), st.sampled_from(sorted(FORMS)))))
    @example((SetFunction.from_table([0, 1, 2, -1, 0.5, 3, -2, 1]),
              [1e-17, 0.0, -1.0], "tuple"))
    def test_matches_the_batch_row(self, case):
        phi, f, form = case
        value = choquet(phi, FORMS[form](f))
        assert type(value) is float
        assert _bits([value]) == _bits(choquet_batch(phi, [f]))

    @SETTINGS
    @given(setfunctions.flatmap(lambda phi: st.tuples(
        st.just(phi), vectors(phi.n), st.floats(0.0, 4.0))))
    def test_explicit_shift(self, case):
        phi, f, extra = case
        sup = max(abs(v) for v in f)
        row = choquet_batch(phi, [f])
        if min(f) < 0.0:
            # the batch's own shift is sup|f|, so the same shift is the same sum
            assert _bits([choquet(phi, f, shift=sup)]) == _bits(row)
        value = choquet(phi, np.array(f), shift=sup + extra)
        assert abs(value - row[0]) <= 1e-12 * (1.0 + sup + extra) * (
            1.0 + float(np.abs(phi.values).max()))

    @pytest.mark.parametrize("f", [
        [0.5, -0.25, 0.5, -0.25],  # ties
        [0.0, -0.0, 1.0, -0.0],  # zeros of both signs
        [-0.0, 0.0, -0.0, 0.0],
        [-1.5, -0.25, -3.0, -0.75],  # all negative
        [0.5, -2.0, 1.0, -0.5],  # the largest |f| at the negative end
        [-2.0, 2.0, 1e-17, -1e-17],  # the largest |f| at both ends
    ])
    def test_equals_the_batch_row_exactly(self, f):
        phi = SetFunction.from_table([0.0, 1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.25,
                                      -0.5, 1.5, 4.0, -3.0, 0.75, 2.5, -1.25, 1.0])
        assert choquet(phi, f) == choquet_batch(phi, [f])[0]
        sup = max(abs(v) for v in f)
        shifted = choquet(phi, f, shift=sup)  # sup|f| itself is accepted
        if min(f) < 0.0:  # where the default shift is sup|f| too
            assert shifted == choquet(phi, f)
        with pytest.raises(PreconditionError, match="at least sup"):
            choquet(phi, f, shift=math.nextafter(sup, -math.inf))


class TestPointEvaluation:
    @SETTINGS
    @given(setfunctions)
    def test_out_of_range_masks_raise(self, phi):
        # item(-1) would read the last entry; the mask check must come first
        for mask in (-1, 1 << phi.n):
            with pytest.raises(PreconditionError):
                phi(mask)

    @SETTINGS
    @given(setfunctions)
    def test_entries_are_the_table_as_floats(self, phi):
        points = [phi(mask) for mask in range(1 << phi.n)]
        assert all(type(value) is float for value in points)
        assert _bits(points) == phi.values.tobytes()


@st.composite
def uncross_cases(draw):
    phi = draw(setfunctions)
    entries = draw(st.lists(st.tuples(st.integers(0, (1 << phi.n) - 1),
                                      st.integers(1, 3)), min_size=1, max_size=6))
    return phi, WeightedFamily.of(phi.ground, entries)


class TestUncrossSteps:
    @SETTINGS
    @given(uncross_cases())
    @example((SetFunction.cut(3, [(0, 1), (1, 2)]),
              WeightedFamily.of(GroundSet(3), [(3, 2), (6, 1), (5, 1)])))
    def test_each_step_equals_its_rebuild(self, case):
        phi, family = case
        trace = uncross(family, phi)
        rebuilt = replay(trace)  # by WeightedFamily.of from the pairs
        for step, after in zip(trace.steps, rebuilt[1:]):
            assert step.potential_after == after.potential()
            payload_sum = sum(mult * oracles.value_by_payload(phi, mask)
                              for mask, mult in after.entries)
            assert _bits([step.phi_sum_after]) == _bits([payload_sum])
        assert rebuilt[-1].entries == trace.final.entries

    def test_phi_sum_adds_left_to_right(self):
        # (1 + 1e16) rounds to 1e16, so only mask order gives 0.0
        phi = SetFunction.from_table([0.0, 1.0, 1e16, -1e16])
        family = WeightedFamily.of(GroundSet(2), [(3, 1), (2, 1), (1, 1)])
        assert family.phi_sum(phi) == 0.0

    @pytest.mark.parametrize("n", [2, 4])
    def test_phi_on_another_ground_set_is_rejected(self, path_cut, n):
        # masks of a larger ground set would index past phi's table, and
        # those of a smaller one would silently read phi on the wrong sets
        family = WeightedFamily.of(GroundSet(n), [(1, 1), (2, 1)])
        with pytest.raises(PreconditionError):
            family.phi_sum(path_cut)
        with pytest.raises(PreconditionError):
            uncross(family, path_cut)


class TestContinuityDefaults:
    def test_no_positive_gap(self):
        phi = SetFunction.from_table([0.0] * 4)
        assert uniform_continuity_modulus(phi, [0.5, 0.5]) == [(1.0, math.inf)]


@given(st.lists(st.tuples(st.floats(0.01, 4.0), st.floats(-3.0, 3.0)),
                min_size=0, max_size=4),
       st.lists(st.floats(-2.0, 20.0), min_size=1, max_size=8))
def test_piecewise_linear_array_matches_scalar(steps, ts):
    # abscissae are cumulative sums, so they strictly increase
    pts = [(0.0, 0.0)]
    for width, value in steps:
        pts.append((pts[-1][0] + width, value))
    got = piecewise_linear_array(pts, np.array(ts))
    assert _bits(got) == _bits([oracles.piecewise_linear(pts, t) for t in ts])
