import numpy as np
import pytest

from choqkit import (PreconditionError, SetFunction, canonical_decomposition,
                     choquet, ls_decomposition, max_variation_chain,
                     submodular_variation_closed_form, total_variation)
from choqkit.oracles import (chain_variation_sum, increasing_by_pairs,
                             variation_all_predecessors)
from choqkit.randgen import (random_chain_masks, random_submodular_setfunction,
                             random_table_setfunction)

TOL = 1e-9


class TestTotalVariation:
    def test_path_cut(self, path_cut):
        assert total_variation(path_cut) == pytest.approx(4.0, abs=TOL)

    def test_modular_equals_top_value(self):
        phi = SetFunction.modular([1, 2, 3])
        assert total_variation(phi) == pytest.approx(6.0, abs=TOL)

    def test_zero_function(self):
        phi = SetFunction.from_table([0.0] * 8)
        assert total_variation(phi) == 0.0

    def test_increasing_gives_full_value(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            phi = SetFunction.modular(rng.uniform(0, 2, size=n))
            assert total_variation(phi) == pytest.approx(phi(phi.ground.full_mask),
                                                         abs=TOL)

    def test_matches_all_predecessor_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            phi = random_table_setfunction(rng, n)
            assert total_variation(phi) == pytest.approx(
                variation_all_predecessors(phi), abs=TOL)

    def test_random_chains_never_exceed(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            phi = random_table_setfunction(rng, n)
            k = total_variation(phi)
            for _ in range(50):
                chain = random_chain_masks(rng, n)
                assert chain_variation_sum(phi, chain) <= k + TOL

    def test_max_chain_attains_value(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            phi = random_table_setfunction(rng, n)
            chain = max_variation_chain(phi)
            assert chain[0] == 0 and chain[-1] == phi.ground.full_mask
            assert chain_variation_sum(phi, chain) == pytest.approx(
                total_variation(phi), abs=TOL)


class TestClosedForm:
    def test_path_cut(self, path_cut):
        assert submodular_variation_closed_form(path_cut) == pytest.approx(4.0)

    def test_modular(self):
        phi = SetFunction.modular([1, 2, 3])
        assert submodular_variation_closed_form(phi) == pytest.approx(6.0)

    def test_uniform_matroid(self):
        phi = SetFunction.uniform_matroid(4, 2)
        assert submodular_variation_closed_form(phi) == pytest.approx(2.0)
        assert total_variation(phi) == pytest.approx(2.0)

    def test_rejects_nonsubmodular(self):
        with pytest.raises(PreconditionError):
            submodular_variation_closed_form(SetFunction.from_table([0, 0, 0, 1]))

    def test_matches_dp_on_random_submodular(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            phi = random_submodular_setfunction(rng, n)
            assert submodular_variation_closed_form(phi) == pytest.approx(
                total_variation(phi), abs=TOL)

    def test_chain_sums_bounded_for_submodular(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            phi = random_submodular_setfunction(rng, n)
            bound = 2.0 * max(phi.table()) - phi(phi.ground.full_mask)
            for _ in range(50):
                chain = random_chain_masks(rng, n)
                assert chain_variation_sum(phi, chain) <= bound + TOL


class TestCanonicalDecomposition:
    def test_path_cut_values(self, path_cut):
        dec = canonical_decomposition(path_cut)
        assert dec.mu[0b111] == pytest.approx(2.0, abs=TOL)
        assert dec.nu[0b111] == pytest.approx(2.0, abs=TOL)
        assert dec.mu[0b011] == pytest.approx(2.0, abs=TOL)
        assert dec.nu[0b011] == pytest.approx(1.0, abs=TOL)

    def test_increasing_function_has_zero_nu(self, rng):
        phi = SetFunction.uniform_matroid(4, 3)
        dec = canonical_decomposition(phi)
        assert list(dec.mu) == pytest.approx(phi.table(), abs=TOL)
        assert list(dec.nu) == pytest.approx([0.0] * 16, abs=TOL)

    def test_invariants_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            phi = random_table_setfunction(rng, n)
            dec = canonical_decomposition(phi)
            assert dec.mu[0] == 0.0 and dec.nu[0] == 0.0
            for mask in range(1 << n):
                assert dec.mu[mask] - dec.nu[mask] == pytest.approx(phi(mask),
                                                                    abs=TOL)
                assert dec.mu[mask] <= dec.variation + TOL
                assert dec.nu[mask] <= dec.variation + TOL
                for x in range(n):
                    if not mask >> x & 1:
                        assert dec.mu[mask] <= dec.mu[mask | 1 << x] + TOL
                        assert dec.nu[mask] <= dec.nu[mask | 1 << x] + TOL

    def test_extension_through_decomposition(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            phi = random_table_setfunction(rng, n)
            dec = canonical_decomposition(phi)
            mu = SetFunction.from_table(dec.mu)
            nu = SetFunction.from_table(dec.nu)
            for _ in range(20):
                f = rng.uniform(-1.0, 1.0, size=n)
                assert choquet(phi, f) == pytest.approx(
                    choquet(mu, f) - choquet(nu, f), abs=1e-8)


class TestLsDecomposition:
    def test_path_cut(self, path_cut):
        psi, rem = ls_decomposition(path_cut)
        assert psi[0b111] == pytest.approx(2.0)
        assert rem[0b111] == pytest.approx(-2.0)
        assert psi[0b001] == pytest.approx(1.0)
        assert rem[0b001] == pytest.approx(0.0)

    def test_increasing_submodular_is_fixed(self):
        phi = SetFunction.uniform_matroid(4, 2)
        psi, rem = ls_decomposition(phi)
        assert list(psi) == pytest.approx(phi.table(), abs=TOL)
        assert list(rem) == pytest.approx([0.0] * 16, abs=TOL)

    def test_rejects_nonsubmodular(self):
        with pytest.raises(PreconditionError):
            ls_decomposition(SetFunction.from_table([0, 0, 0, 1]))

    def test_monotonicity_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            phi = random_submodular_setfunction(rng, n)
            psi, rem = ls_decomposition(phi)
            assert increasing_by_pairs(SetFunction.from_table(psi), 0.0)
            assert increasing_by_pairs(SetFunction.from_table(-rem), TOL)
            assert [p + r for p, r in zip(psi, rem)] == pytest.approx(
                phi.table(), abs=TOL)
