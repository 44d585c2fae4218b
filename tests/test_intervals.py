import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choqkit import (FlaggedSet, IntervalSet, IntervalSetFunction, StepFunction,
                     ae_gap, choquet_interval, extend_ls, extend_ui, intervals,
                     oracles)
from choqkit.intervals import _Superlevels
from choqkit.randgen import random_interval_setfunction, random_step_function

TOL = 1e-9

SQRT_LIKE = [(0.0, 0.0), (0.25, 0.5), (1.0, 1.0)]  # concave through sqrt(1/4)


class TestIntervalSet:
    def test_adjacent_merge(self):
        s = IntervalSet.of([(0.0, 0.5), (0.5, 1.0)])
        assert s.intervals == ((0.0, 1.0),)

    def test_complement(self):
        s = IntervalSet.of([(0.25, 0.75)])
        assert s.complement().intervals == ((0.0, 0.25), (0.75, 1.0))

    def test_measure(self):
        assert IntervalSet.of([(0.1, 0.4)]).measure() == pytest.approx(0.3)

    def test_boolean_algebra_closure(self, rng):
        for _ in range(100):
            a = IntervalSet.of((min(p), max(p)) for p in
                               rng.uniform(0, 1, size=(2, 2)) if p[0] != p[1])
            b = IntervalSet.of((min(p), max(p)) for p in
                               rng.uniform(0, 1, size=(2, 2)) if p[0] != p[1])
            union = a.union(b)
            inter = a.intersection(b)
            assert union.measure() + inter.measure() == pytest.approx(
                a.measure() + b.measure(), abs=TOL)
            sym = a.symmetric_difference(b)
            assert sym.measure() == pytest.approx(
                union.measure() - inter.measure(), abs=TOL)
            assert a.complement().complement().intervals == a.intervals


class TestExtensions:
    def test_concave_ignores_endpoint_flags(self):
        phi = IntervalSetFunction.concave_of_measure(SQRT_LIKE)
        closed = FlaggedSet.of([(0.0, 0.25, True, True)])
        assert extend_ui(phi, closed) == pytest.approx(0.5)
        assert extend_ls(phi, closed) == pytest.approx(0.5)

    def test_point_mass_singleton_gap(self):
        phi = IntervalSetFunction.point_mass(0.5, 2.0)
        singleton = FlaggedSet.of([(0.5, 0.5, True, True)])
        assert extend_ui(phi, singleton) == pytest.approx(2.0)
        assert extend_ls(phi, singleton) == pytest.approx(0.0)

    def test_algebra_sets_have_no_gap(self):
        phi = IntervalSetFunction.point_mass(0.5, 1.0)
        for pairs in ([(0.25, 0.75)], [(0.0, 0.5)], [(0.5, 0.9)], []):
            x = IntervalSet.of(pairs)
            assert extend_ui(phi, x) == extend_ls(phi, x) == phi(x)

    def test_open_interval_left_of_atom(self):
        # (0.3, 0.5) excludes the atom yet cannot be separated from it on
        # the left; [0.3, 0.5) is a superset avoiding 0.5, so ui = 0
        phi = IntervalSetFunction.point_mass(0.5, 1.0)
        x = FlaggedSet.of([(0.3, 0.5, False, False)])
        assert extend_ui(phi, x) == 0.0
        assert extend_ls(phi, x) == 0.0

    def test_open_interval_right_of_atom(self):
        # (0.5, 0.9): every half-open superset must contain 0.5
        phi = IntervalSetFunction.point_mass(0.5, 1.0)
        x = FlaggedSet.of([(0.5, 0.9, False, False)])
        assert extend_ui(phi, x) == 1.0
        assert extend_ls(phi, x) == 0.0

    def test_ui_submodular_on_random_triples(self, rng):
        # submodularity of the upper extension, probed on flagged pairs
        phi = IntervalSetFunction.concave_of_measure(SQRT_LIKE)
        for _ in range(100):
            a, b = sorted(rng.uniform(0, 1, size=2))
            c, d = sorted(rng.uniform(0, 1, size=2))
            if a == b or c == d:
                continue
            x = IntervalSet.of([(a, b)])
            y = IntervalSet.of([(c, d)])
            lhs = extend_ui(phi, x.union(y)) + extend_ui(phi, x.intersection(y))
            rhs = extend_ui(phi, x) + extend_ui(phi, y)
            assert lhs <= rhs + TOL


GRID = [i / 10 for i in range(11)]  # the junctions of the drawn flagged sets


@st.composite
def flagged_sets(draw):
    """Pieces between grid cuts, touching where neighbouring gaps are both
    drawn; each cut below 1 goes to the piece on its left, the piece on its
    right, a singleton or nothing."""
    cuts = sorted(draw(st.sets(st.sampled_from(GRID), min_size=2, max_size=7)))
    gaps = [[a, b, False, False] if draw(st.booleans()) else None
            for a, b in zip(cuts, cuts[1:])]
    singletons = []
    for i, cut in enumerate(cuts):
        owner = draw(st.sampled_from(["none", "left", "right", "singleton"]))
        left = gaps[i - 1] if i > 0 else None
        right = gaps[i] if i < len(gaps) else None
        if cut == 1.0 or owner == "none":
            continue
        if owner == "left" and left:
            left[3] = True
        elif owner == "right" and right:
            right[2] = True
        elif owner == "singleton":
            singletons.append((cut, cut, True, True))
    return FlaggedSet.of([gap for gap in gaps if gap] + singletons)


class TestPointMassRule:
    @settings(max_examples=200, deadline=None)
    @given(flagged_sets(), st.integers(0, 39).map(lambda i: i / 40))
    @example(FlaggedSet.of([(0.2, 0.5, True, True), (0.5, 0.8, False, False)]), 0.5)
    def test_extensions_match_membership_probes(self, x, p):
        # the example is the algebra set [0.2, 0.8), where ui = ls
        phi = IntervalSetFunction.point_mass(p, 1.5)
        ui, ls = oracles.point_mass_extensions_by_probes(phi, x)
        assert (extend_ui(phi, x), extend_ls(phi, x)) == (ui, ls)


class TestChoquetInterval:
    def test_identity_measure_is_lebesgue(self, rng):
        phi = IntervalSetFunction.concave_of_measure([(0.0, 0.0), (1.0, 1.0)])
        for _ in range(30):
            f = random_step_function(rng, max_pieces=8)
            exact = sum((b - a) * v for a, b, v in
                        zip(f.breakpoints, f.breakpoints[1:], f.values))
            assert choquet_interval(phi, f) == pytest.approx(exact, abs=1e-8)

    def test_indicator_consistency(self):
        phi = IntervalSetFunction.concave_of_measure(SQRT_LIKE)
        f = StepFunction((0.0, 0.25, 1.0), (1.0, 0.0))
        assert choquet_interval(phi, f) == pytest.approx(0.5)

    def test_point_mass_reads_value_at_atom(self, rng):
        phi = IntervalSetFunction.point_mass(0.5, 1.0)
        for _ in range(30):
            f = random_step_function(rng, max_pieces=10, lo=0.0, hi=2.0)
            assert choquet_interval(phi, f) == pytest.approx(f(0.5), abs=1e-9)

    def test_shift_handles_negative_values(self):
        phi = IntervalSetFunction.point_mass(0.25, 1.0)
        f = StepFunction((0.0, 0.5, 1.0), (-2.0, 1.0))
        assert choquet_interval(phi, f) == pytest.approx(-2.0)

    def test_extension_identities_on_interval_model(self, rng):
        for _ in range(40):
            phi = random_interval_setfunction(rng)
            f = random_step_function(rng, max_pieces=10)
            base = choquet_interval(phi, f)
            full = phi(IntervalSet.full())
            c = float(rng.uniform(0.1, 2.0))
            scaled = StepFunction(f.breakpoints, tuple(c * v for v in f.values))
            assert choquet_interval(phi, scaled) == pytest.approx(c * base,
                                                                  abs=1e-8)
            a = float(rng.uniform(-1.0, 1.0))
            moved = StepFunction(f.breakpoints, tuple(v + a for v in f.values))
            assert choquet_interval(phi, moved) == pytest.approx(
                base + a * full, abs=1e-8)

    def test_subadditivity_concave_of_measure(self, rng):
        phi = IntervalSetFunction.concave_of_measure(SQRT_LIKE)
        for _ in range(40):
            f = random_step_function(rng, max_pieces=6)
            g = random_step_function(rng, max_pieces=6)
            bps = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))
            mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
            combined = StepFunction(bps, tuple(f(m) + g(m) for m in mids))
            assert choquet_interval(phi, combined) <= (
                choquet_interval(phi, f) + choquet_interval(phi, g) + TOL)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestMalformedInput:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_step_function_breakpoint(self, bad):
        with pytest.raises(ValueError):
            StepFunction((0.0, bad, 1.0), (1.0, 2.0))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_step_function_value(self, bad):
        with pytest.raises(ValueError):
            StepFunction((0.0, 0.5, 1.0), (1.0, bad))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_point_mass(self, bad):
        with pytest.raises(ValueError):
            IntervalSetFunction.point_mass(0.5, bad)
        with pytest.raises(ValueError):
            IntervalSetFunction.point_mass(bad, 1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_density_weight(self, bad):
        with pytest.raises(ValueError):
            IntervalSetFunction.concave_of_measure(SQRT_LIKE, ((0.0, 0.5, 1.0), (1.0, bad)))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_density_breakpoint(self, bad):
        with pytest.raises(ValueError):
            IntervalSetFunction.concave_of_measure(SQRT_LIKE, ((0.0, bad, 1.0), (1.0, 1.0)))

    def test_g_overflowing_below_the_full_measure(self):
        # [0, 1) has weighted measure 1e308, where g's last segment passes float64
        g = [(0, 0), (1, 1e308), (2, 1.5e308)]
        with pytest.raises(ValueError, match="g overflows float64"):
            IntervalSetFunction.concave_of_measure(g, ((0.0, 1.0), (1e308,)))
        phi = IntervalSetFunction.concave_of_measure(g, ((0.0, 1.0), (1.0,)))
        assert phi(IntervalSet.full()) == 1e308

    @pytest.mark.parametrize("bps", [(0.0, 0.7, 0.3, 1.0), (0.0, 0.5, 0.5, 1.0)])
    def test_density_breakpoints_not_increasing(self, bps):
        # (0, 0.7, 0.3, 1) with unit weights would give [0, 1) measure 1.4
        with pytest.raises(ValueError):
            IntervalSetFunction.concave_of_measure(SQRT_LIKE, (bps, (1.0, 1.0, 1.0)))


class TestSweepArrays:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([-1e17, -1.0, 0.0, 0.5, 1e17]),
                              st.floats(-1e17, 1e17)), min_size=1, max_size=30))
    def test_superlevels_match_a_direct_construction(self, values):
        # ties come from the sampled values, a single piece from size 1
        f = StepFunction(tuple(np.linspace(0.0, 1.0, len(values) + 1).tolist()),
                         tuple(values))
        sets = _Superlevels(f)
        levels = sorted(set(values), reverse=True)
        probes = [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]
        thresholds = levels + probes + [-np.inf, np.inf]
        assert sets.levels.tolist() == levels
        assert sets.thresholds.tolist() == thresholds
        assert sets.count.tolist() == [sum(v >= t for v in values) for t in thresholds]

    def test_ae_gap_evaluates_a_measure_once(self, monkeypatch):
        # ui and ls of a concave-of-measure phi agree on every set
        calls = []
        evaluate = intervals.piecewise_linear_array
        monkeypatch.setattr(intervals, "piecewise_linear_array",
                            lambda pts, t: calls.append(t) or evaluate(pts, t))
        phi = IntervalSetFunction.concave_of_measure(SQRT_LIKE, ((0.0, 0.5, 1.0), (1.0, 2.0)))
        assert ae_gap(phi, StepFunction((0.0, 0.3, 1.0), (1.0, -0.5))) == []
        assert len(calls) == 1

    def test_stored_arrays_are_read_only(self):
        phi = IntervalSetFunction.concave_of_measure(SQRT_LIKE, ((0.0, 0.5, 1.0), (1.0, 2.0)))
        bps, weights = phi.payload["density"]
        for array in (phi.payload["g"], bps, weights):
            assert array.dtype == np.float64 and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestAeGap:
    def test_concave_has_no_exceptional_thresholds(self, rng):
        phi = IntervalSetFunction.concave_of_measure(SQRT_LIKE)
        for _ in range(20):
            assert ae_gap(phi, random_step_function(rng, max_pieces=10)) == []

    def test_point_mass_gap_is_finite(self, rng):
        phi = IntervalSetFunction.point_mass(0.37, 1.5)
        for _ in range(20):
            f = random_step_function(rng, max_pieces=10)
            exceptional = ae_gap(phi, f)
            assert len(exceptional) <= len(set(f.values))
            assert all(t in f.values for t in exceptional)

    def test_constant_function(self):
        phi = IntervalSetFunction.point_mass(0.5, 1.0)
        f = StepFunction((0.0, 1.0), (0.7,))
        assert len(ae_gap(phi, f)) <= 1


class TestOutermostProbes:
    # at |f| >= 2^53, max f + 1.0 == max f: a probe one above the top
    # level would still meet the top piece instead of giving the empty set
    F = StepFunction((0.0, 0.5, 1.0), (1e17, 0.0))

    def test_sweep_probes_the_empty_and_the_full_set(self):
        sets = _Superlevels(self.F)
        top, bottom = sets.thresholds.argmax(), sets.thresholds.argmin()
        assert sets.count[top] == 0 and sets.count[bottom] == len(self.F.values)
        for x in (0.25, 0.75):
            assert not sets.contains(x)[top] and sets.contains(x)[bottom]

    def test_oracle_probes_the_empty_and_the_full_set(self, monkeypatch):
        seen = []
        superlevel = oracles.superlevel
        monkeypatch.setattr(oracles, "superlevel",
                            lambda f, t: seen.append(superlevel(f, t)) or seen[-1])
        oracles.ae_gap_by_levels(IntervalSetFunction.point_mass(0.5, 1.0), self.F)
        assert IntervalSet(()) in seen and IntervalSet.full() in seen
