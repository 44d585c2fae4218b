from dataclasses import replace

import numpy as np
import pytest

from choqkit import (GroundSet, PreconditionError, SetFunction, WeightedFamily,
                     certify_chain_equality, choquet, family_sum, selftest, uncross)
from choqkit.randgen import (random_submodular_setfunction,
                             random_table_setfunction, random_weighted_family)

TOL = 1e-9


def make_family(n, entries):
    return WeightedFamily.of(GroundSet(n), entries)


def replay(trace):
    """[trace.initial, the family after step 1, ..., after the last step],
    each rebuilt from the one before by WeightedFamily.of with the step's
    pair: one copy each of a and b out, one of a | b and a & b in.  Each
    pair must cross and be present in the family it is taken from."""
    families = [trace.initial]
    for step in trace.steps:
        a, b = step.pair
        before = families[-1]
        assert a & b not in (a, b) and {a, b} <= dict(before.entries).keys()
        kept = [(mask, mult - (mask in step.pair)) for mask, mult in before.entries]
        families.append(WeightedFamily.of(
            before.ground, [entry for entry in kept if entry[1]]
            + [(a | b, 1), (a & b, 1)]))
    return families


class TestIntegrality:
    def test_integral_floats_are_accepted_as_ints(self):
        fam = make_family(3, [(3.0, 2), (6, 1.0), (np.int64(6), 1)])
        assert fam.entries == ((3, 2), (6, 2))
        assert all(type(v) is int for entry in fam.entries for v in entry)

    @pytest.mark.parametrize("entry", [(3, 2.9), (3, 1.5), (6.9, 1), (3, "2"),
                                       ("3", 1), (True, 1), (3, True)])
    def test_non_integral_entries_rejected(self, entry):
        with pytest.raises(ValueError):
            make_family(3, [entry])


class TestFamilySum:
    def test_two_overlapping_sets(self):
        fam = make_family(3, [(0b011, 1), (0b110, 1)])
        h = family_sum(fam)
        assert h.dtype == np.float64 and h.tolist() == [1.0, 2.0, 1.0]

    def test_single_entry_with_multiplicity(self):
        fam = make_family(3, [(0b001, 3)])
        assert family_sum(fam).tolist() == [3.0, 0.0, 0.0]

    def test_empty_set_entry(self):
        fam = make_family(3, [(0, 2)])
        assert family_sum(fam).tolist() == [0.0, 0.0, 0.0]


class TestUncross:
    def test_single_crossing_pair(self):
        fam = make_family(3, [(0b011, 1), (0b110, 1)])
        trace = uncross(fam)
        assert len(trace.steps) == 1
        assert trace.final.entries == ((0b010, 1), (0b111, 1))
        assert trace.steps[0].potential_before == 8
        assert trace.steps[0].potential_after == 10

    def test_chain_needs_no_steps(self):
        fam = make_family(3, [(0b001, 2), (0b011, 1), (0b111, 1)])
        trace = uncross(fam)
        assert trace.steps == ()
        assert trace.final is fam

    def test_phi_sum_recorded(self, path_cut):
        fam = make_family(3, [(0b011, 1), (0b110, 1)])
        trace = uncross(fam, path_cut)
        step = trace.steps[0]
        assert step.phi_sum_before == pytest.approx(2.0)
        assert step.phi_sum_after == pytest.approx(2.0)

    def test_steps_carry_their_before_numbers(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            fam = random_weighted_family(rng, n)
            phi = random_table_setfunction(rng, n)
            trace = uncross(fam, phi)
            steps = trace.steps
            if not steps:
                continue
            assert steps[0].potential_before == fam.potential()
            assert steps[0].phi_sum_before == fam.phi_sum(phi)
            families = replay(trace)
            for step, before, after in zip(steps, families, families[1:]):
                assert step.potential_before == before.potential()
                assert step.phi_sum_before == before.phi_sum(phi)
                assert step.potential_after == after.potential()
                assert step.phi_sum_after == after.phi_sum(phi)
            assert families[-1].entries == trace.final.entries
            for prev, step in zip(steps, steps[1:]):
                assert step.potential_before == prev.potential_after
                assert step.phi_sum_before == prev.phi_sum_after
            assert all(step.phi_sum_before is None for step in uncross(fam).steps)

    def test_potentials_follow_the_replayed_families(self):
        # four singletons of multiplicity 50: 150 steps, each moving the
        # potential by its exchange's integer change alone
        fam = make_family(4, [(1, 50), (2, 50), (4, 50), (8, 50)])
        trace = uncross(fam)
        families = replay(trace)
        assert len(trace.steps) == 150
        for step, before, after in zip(trace.steps, families, families[1:]):
            assert step.potential_before == before.potential()
            assert step.potential_after == after.potential()
        assert trace.final.entries == families[-1].entries == ((0, 150), (15, 50))

    def test_empty_family_rejected(self):
        with pytest.raises(PreconditionError):
            uncross(WeightedFamily(GroundSet(3), ()))

    def test_invariants_random(self, rng):
        for _ in range(80):
            n = int(rng.integers(2, 11))
            fam = random_weighted_family(rng, n)
            phi = SetFunction.from_table(random_submodular_setfunction(rng, n).table())
            trace = uncross(fam, phi)
            h = family_sum(fam)
            assert len(trace.steps) <= fam.total_multiplicity * n * n
            families = replay(trace)
            for step, after in zip(trace.steps, families[1:]):
                assert np.array_equal(family_sum(after), h)
                assert step.potential_after > step.potential_before
                assert step.phi_sum_after <= step.phi_sum_before + TOL
                assert after.total_multiplicity == fam.total_multiplicity
            assert families[-1].entries == trace.final.entries
            assert trace.final.is_chain()
            lhs = choquet(phi, family_sum(fam))
            assert lhs <= fam.phi_sum(phi) + TOL  # the certified inequality


def _exchanged(step):
    a, b = step.pair
    return replace(step, pair=(a | b, a & b))


class TestSelftestReplay:
    @pytest.mark.parametrize("tamper, message", [
        (lambda steps: (_exchanged(steps[0]), *steps[1:]), "is not a crossing pair"),
        (lambda steps: steps[:-1], "do not lead to the final family"),
    ])
    def test_criterion_5_fails_on_a_tampered_trace(self, monkeypatch, tamper, message):
        def tampered(family, phi=None):
            trace = uncross(family, phi)
            return replace(trace, steps=tamper(trace.steps)) if trace.steps else trace

        monkeypatch.setattr(selftest, "uncross", tampered)
        result = selftest.criterion_5(5)
        assert not result.passed and message in result.detail


class TestChainEquality:
    def test_path_cut_example(self, path_cut):
        chain = make_family(3, [(0b010, 1), (0b011, 1)])
        lhs, rhs, equal = certify_chain_equality(path_cut, chain)
        assert equal
        assert lhs == pytest.approx(3.0)
        assert rhs == pytest.approx(3.0)

    def test_full_set_multiplicity(self, rng):
        phi = random_table_setfunction(rng, 3)
        chain = make_family(3, [(0b111, 4)])
        lhs, rhs, equal = certify_chain_equality(phi, chain)
        assert equal
        assert lhs == pytest.approx(4.0 * phi(0b111), abs=TOL)

    def test_arbitrary_setfunction_random_chains(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            phi = random_table_setfunction(rng, n)
            fam = random_weighted_family(rng, n)
            chain = uncross(fam).final
            lhs, rhs, equal = certify_chain_equality(phi, chain)
            assert equal, (lhs, rhs)

    def test_rejects_non_chain(self, path_cut):
        crossing = make_family(3, [(0b011, 1), (0b110, 1)])
        with pytest.raises(PreconditionError):
            certify_chain_equality(path_cut, crossing)


class TestSubadditivityDerivation:
    def test_combined_level_chains_reproduce_subadditivity(self, rng):
        # integer step vectors f, g; uncrossing their combined level sets
        # certifies whatphi(f + g) <= whatphi(f) + whatphi(g)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            phi = SetFunction.from_table(random_submodular_setfunction(rng, n).table())
            f = rng.integers(0, 4, size=n)
            g = rng.integers(0, 4, size=n)
            entries = []
            for vec in (f, g):
                for t in range(1, int(vec.max()) + 1 if vec.max() else 0):
                    mask = sum(1 << x for x in range(n) if vec[x] >= t)
                    if mask:
                        entries.append((mask, 1))
            if not entries:
                continue
            fam = WeightedFamily.of(GroundSet(n), entries)
            assert family_sum(fam).tolist() == [float(v) for v in f + g]
            trace = uncross(fam, phi)
            start = fam.phi_sum(phi)
            # chain-level sets of f and g make the start value exactly
            # whatphi(f) + whatphi(g)
            assert start == pytest.approx(choquet(phi, f) + choquet(phi, g),
                                          abs=1e-8)
            lhs, _, equal = certify_chain_equality(phi, trace.final)
            assert equal
            assert lhs <= start + TOL
            assert choquet(phi, f + g) == pytest.approx(lhs, abs=1e-8)


class TestRefusals:
    @pytest.mark.parametrize("entries", [[(3, 0)], [(3, 1), (5, -2)]])
    def test_nonpositive_multiplicity(self, entries):
        with pytest.raises(ValueError, match="^multiplicities must be positive integers$"):
            make_family(3, entries)
