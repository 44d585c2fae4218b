"""Property tests: every table kernel against its brute-force oracle.

Sign-mixed tables take dyadic values (small multiples of 2^-k/4 for
k <= 18), so every difference is exact and any nonzero second
difference is far above the tolerance; the local (kernel) and global
(oracle) forms of the predicates then agree exactly, as they must at
tolerance zero.  Small k gives large violations, large k small ones.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqkit import (PreconditionError, SetFunction, canonical_decomposition,
                     is_increasing, is_modular, is_submodular, ls_decomposition,
                     max_variation_chain, total_variation,
                     uniform_continuity_modulus)
from choqkit import oracles
from choqkit.randgen import (random_concave_of_modular, random_coverage,
                             random_cut, random_matroid_rank)

TOL = 1e-9
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def sign_mixed_tables(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        quarters = draw(st.lists(st.integers(-6, 6), min_size=(1 << n) - 1,
                                 max_size=(1 << n) - 1))
    else:
        quarters = [0] * ((1 << n) - 1)
    unit = 2.0 ** -draw(st.integers(0, 18)) / 4
    return SetFunction.from_table([0.0] + [q * unit for q in quarters])


FAMILY_MAKERS = {"cut": random_cut, "coverage": random_coverage,
                 "concave-of-modular": random_concave_of_modular,
                 "matroid-rank": random_matroid_rank}


@st.composite
def family_members(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(sorted(FAMILY_MAKERS) + ["modular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "modular":
        return SetFunction.modular(rng.uniform(-1.0, 1.0, size=n))
    return FAMILY_MAKERS[kind](rng, n)


setfunctions = st.one_of(sign_mixed_tables(), family_members())


def _subset(s, t):
    return s & t == s


class TestPredicates:
    @SETTINGS
    @given(setfunctions)
    def test_submodular_verdict_and_witness(self, phi):
        verdict = is_submodular(phi)
        assert verdict.holds == oracles.submodular_by_pairs(phi).holds
        if not verdict:
            s, t = verdict.witness
            assert phi(s | t) + phi(s & t) > phi(s) + phi(t) + TOL

    @SETTINGS
    @given(setfunctions)
    def test_modular_verdict_and_witness(self, phi):
        verdict = is_modular(phi)
        assert verdict.holds == oracles.modular_by_pairs(phi).holds
        if not verdict:
            s, t = verdict.witness
            assert abs(phi(s | t) + phi(s & t) - phi(s) - phi(t)) > TOL

    @SETTINGS
    @given(setfunctions)
    def test_increasing_verdict_and_witness(self, phi):
        verdict = is_increasing(phi)
        assert verdict.holds == oracles.increasing_by_pairs(phi).holds
        if not verdict:
            s, t = verdict.witness
            assert _subset(s, t) and phi(s) > phi(t) + TOL

    @SETTINGS
    @given(setfunctions)
    def test_witnesses_are_python_ints(self, phi):
        for verdict in (is_submodular(phi), is_increasing(phi), is_modular(phi)):
            if verdict.witness is not None:
                assert all(type(mask) is int for mask in verdict.witness)


class TestChainDp:
    @SETTINGS
    @given(setfunctions)
    def test_total_variation_matches_all_predecessors(self, phi):
        assert total_variation(phi) == pytest.approx(
            oracles.variation_all_predecessors(phi), abs=TOL)

    @SETTINGS
    @given(setfunctions)
    def test_chain_attains_variation(self, phi):
        chain = max_variation_chain(phi)
        assert chain[0] == 0 and chain[-1] == phi.ground.full_mask
        assert len(chain) == phi.n + 1
        for a, b in zip(chain, chain[1:]):
            assert _subset(a, b) and bin(b ^ a).count("1") == 1
        assert oracles.chain_variation_sum(phi, chain) == pytest.approx(
            total_variation(phi), abs=TOL)

    @SETTINGS
    @given(setfunctions)
    def test_mu_matches_all_predecessor_positive_part(self, phi):
        dec = canonical_decomposition(phi)
        assert list(dec.mu) == pytest.approx(
            oracles.positive_variation_all_predecessors(phi), abs=TOL)
        assert [m - v for m, v in zip(dec.mu, phi.table())] == pytest.approx(
            list(dec.nu), abs=TOL)


class TestPsi:
    @SETTINGS
    @given(setfunctions)
    def test_psi_is_the_maximum_over_subsets(self, phi):
        if not is_submodular(phi):
            with pytest.raises(PreconditionError):
                ls_decomposition(phi)
            return
        psi, remainder = ls_decomposition(phi)
        assert list(psi) == oracles.psi_by_subsets(phi)
        assert [p + r for p, r in zip(psi, remainder)] == pytest.approx(
            phi.table(), abs=TOL)


class TestValues:
    @SETTINGS
    @given(setfunctions)
    def test_values_equal_point_evaluation(self, phi):
        values = phi.values
        assert values.dtype == np.float64 and values.shape == (1 << phi.n,)
        assert all(values[m] == phi(m) for m in range(1 << phi.n))

    def test_values_are_cached_and_read_only(self, path_cut):
        assert path_cut.values is path_cut.values
        with pytest.raises(ValueError):
            path_cut.values[1] = 5.0

    def test_from_table_copies_its_input(self):
        source = np.array([0.0, 1.0])
        phi = SetFunction.from_table(source)
        source[1] = 7.0
        assert phi.values[1] == 1.0 and phi(1) == 1.0


class TestContinuityModulus:
    @SETTINGS
    @given(st.one_of(sign_mixed_tables(max_n=6), family_members(max_n=6)),
           st.integers(0, 2 ** 32 - 1))
    def test_sorted_gaps_match_pair_scan(self, phi, seed):
        pi = np.random.default_rng(seed).uniform(0.05, 1.0, size=phi.n).tolist()
        assert uniform_continuity_modulus(phi, pi) == \
            oracles.continuity_modulus_by_pairs(phi, pi)

    def test_explicit_epsilons(self, path_cut):
        pi = (0.2, 0.3, 0.5)
        epsilons = [0.0, 0.5, 1.0, 2.0, 3.0]
        assert uniform_continuity_modulus(path_cut, pi, epsilons) == \
            oracles.continuity_modulus_by_pairs(path_cut, pi, epsilons)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFinite:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_table(self, bad):
        with pytest.raises(ValueError):
            SetFunction.from_table([0, bad])

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("maker", [
        lambda bad: SetFunction.cut(2, [(0, 1, bad)]),
        lambda bad: SetFunction.coverage([[0], [0]], [bad]),
        lambda bad: SetFunction.modular([1.0, bad]),
        lambda bad: SetFunction.concave_of_modular([1.0, bad], [(0, 0), (1, 1)]),
        lambda bad: SetFunction.concave_of_modular([1.0], [(0, 0), (1, bad)]),
        lambda bad: SetFunction.partition_matroid([[0, 1]], [bad]),
    ])
    def test_family_constructors(self, maker, bad):
        with pytest.raises(ValueError):
            maker(bad)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_cli_check_exits_2(self, constant):
        table = '{"n": 1, "kind": "table", "payload": {"values": [0, %s]}}' % constant
        result = subprocess.run([sys.executable, "-m", "choqkit", "check", table],
                                capture_output=True, text=True)
        assert result.returncode == 2, result.stdout + result.stderr
        assert "malformed input" in result.stderr


class TestLsChecksUnderO:
    @pytest.mark.parametrize("psi, remainder, message", [
        ([0.0, -1.0], [0.0, 0.0], "psi not increasing"),
        ([0.0, 0.0], [0.0, 1.0], "remainder not decreasing"),
    ])
    def test_bad_parts_raise_with_asserts_stripped(self, psi, remainder, message):
        code = ("from choqkit.variation import check_ls_parts\n"
                f"check_ls_parts({psi!r}, {remainder!r})\n")
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                capture_output=True, text=True)
        assert result.returncode != 0
        assert message in result.stderr
