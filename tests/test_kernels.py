"""Property tests: every table kernel against its brute-force oracle.

Sign-mixed tables take dyadic values (small multiples of 2^-k/4 for
k <= 18), so every difference is exact and any nonzero second
difference is far above the tolerance; the local (kernel) and global
(oracle) forms of the predicates then agree exactly, as they must at
tolerance zero.  Small k gives large violations, large k small ones.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choqkit import (FubiniInstance, IntervalSet, IntervalSetFunction, PreconditionError,
                     SetFunction, StepFunction, ae_gap, canonical_decomposition,
                     choquet, choquet_batch, choquet_interval, is_increasing,
                     is_modular, is_submodular, lln_run, lopsided_check, ls_decomposition,
                     max_variation_chain, total_variation,
                     uniform_continuity_modulus)
from choqkit import cli, fubini, intervals, oracles, variation
from choqkit.choquet import choquet_stack
from choqkit.fubini import LlnRecord
from choqkit.randgen import (_concave_points, random_concave_of_modular, random_coverage,
                             random_cut, random_fubini_instance,
                             random_matroid_rank)
from choqkit.setfunctions import (_by_construction, _slopes, decrease_witness,
                                  setfunction_to_json)
from test_acceptance import SELFTEST_REPORT_SHA256, report_digest

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
# a family's verdicts may come from its payload; its table copy keeps the
# difference kernels fed with structured tables
predicate_inputs = st.one_of(setfunctions, family_members().map(
    lambda phi: SetFunction.from_table(phi.values)))


def _subset(s, t):
    return s & t == s


class TestPredicates:
    @SETTINGS
    @given(predicate_inputs)
    def test_submodular_verdict_and_witness(self, phi):
        verdict = is_submodular(phi)
        assert verdict.holds == oracles.submodular_by_pairs(phi).holds
        if not verdict:
            s, t = verdict.witness
            assert phi(s | t) + phi(s & t) > phi(s) + phi(t) + TOL

    @SETTINGS
    @given(predicate_inputs)
    def test_modular_verdict_and_witness(self, phi):
        verdict = is_modular(phi)
        assert verdict.holds == oracles.modular_by_pairs(phi).holds
        if not verdict:
            s, t = verdict.witness
            assert abs(phi(s | t) + phi(s & t) - phi(s) - phi(t)) > TOL

    @SETTINGS
    @given(predicate_inputs)
    def test_increasing_verdict_and_witness(self, phi):
        verdict = is_increasing(phi)
        assert verdict.holds == oracles.increasing_by_pairs(phi).holds
        if not verdict:
            s, t = verdict.witness
            assert _subset(s, t) and phi(s) > phi(t) + TOL

    @SETTINGS
    @given(predicate_inputs)
    def test_witnesses_are_python_ints(self, phi):
        for verdict in (is_submodular(phi), is_increasing(phi), is_modular(phi)):
            if verdict.witness is not None:
                assert all(type(mask) is int for mask in verdict.witness)


ROUTE_NS = (2, 9, 10, 11, 12)  # the smallest pair, and tables of 2^9 to 2^12 entries


@st.composite
def tables_across_the_budget(draw, ns=ROUTE_NS):
    """At n in ns: dyadic sign-mixed tables (ties, all-zero), family
    members' tables (a family's own verdicts may skip the kernels), and
    those with a dyadic bump at one mask (so every violation sits next to
    that mask): full passes, early exits and late ones.
    The tables are drawn by numpy from a seed, since 2^12 entries would
    overrun hypothesis's buffer."""
    n = draw(st.sampled_from(ns))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    unit = 2.0 ** -draw(st.integers(0, 18))
    kind = draw(st.sampled_from(["table", "zero", "member", "bumped"]))
    if kind in ("table", "zero"):
        quarters = rng.integers(-6, 7, size=1 << n) * (kind == "table")
        quarters[0] = 0
        return SetFunction.from_table(quarters * unit / 4)
    maker = draw(st.sampled_from(sorted(FAMILY_MAKERS) + ["modular"]))
    if maker == "modular":
        phi = SetFunction.modular(rng.uniform(-1.0, 1.0, size=n))
    else:
        phi = FAMILY_MAKERS[maker](rng, n)
    values = phi.values.copy()
    if kind == "bumped":
        values[int(rng.integers(1, 1 << n))] += unit
    return SetFunction.from_table(values)


def first_second_difference(phi, violates):
    """The first (S + x, S + y) whose second difference violates, pairs x < y
    in order and bases S ascending, one quadruple at a time; None if none."""
    vals, n = phi.table(), phi.n
    for x in range(n):
        for y in range(x + 1, n):
            for s in range(1 << n):
                if not s & (1 << x | 1 << y):
                    sx, sy = s | 1 << x, s | 1 << y
                    if violates((vals[sx | sy] - vals[sy]) - (vals[sx] - vals[s])):
                        return sx, sy
    return None


class TestSecondDifferenceRoutes:
    # the witness against a quadruple-by-quadruple scan in the kernel's order,
    # and the verdict against the global pair oracles up to n = 10 (a full
    # pair pass takes a second of pure Python at n = 12)
    @settings(max_examples=80, deadline=None)
    @given(tables_across_the_budget())
    def test_verdict_and_witness_match_the_scan(self, phi):
        for predicate, oracle, violates in (
                (is_submodular, oracles.submodular_by_pairs, lambda d: d > TOL),
                (is_modular, oracles.modular_by_pairs, lambda d: abs(d) > TOL)):
            verdict = predicate(phi)
            witness = first_second_difference(phi, violates)
            assert verdict.witness == witness and verdict.holds == (witness is None)
            if phi.n <= 10:
                assert verdict.holds == oracle(phi).holds

    # first differences are block views at every n; the witness's base is
    # mapped back from a block index, so check it is a decreasing pair
    @settings(max_examples=40, deadline=None)
    @given(tables_across_the_budget(ns=(2, 9, 11, 12)))
    def test_increasing_witness_is_a_decreasing_pair(self, phi):
        verdict = is_increasing(phi)
        assert verdict.holds == oracles.increasing_by_pairs(phi).holds
        if not verdict:
            s, t = verdict.witness
            assert _subset(s, t) and bin(s ^ t).count("1") == 1
            assert phi(s) > phi(t) + TOL


@st.composite
def construction_inputs(draw, max_n=10):
    """Every family at n <= max_n, with the payloads whose verdicts fall
    back to the table: sign-mixed modular weights, cuts with negative
    weights, and concave g that rise then fall or only fall."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(sorted(FAMILY_MAKERS) + ["modular", "signed cut", "signed g"]))
    if kind == "modular":
        return SetFunction.modular(rng.uniform(draw(st.sampled_from([-1.0, 0.0])), 1.0, size=n))
    if kind == "signed cut":
        return SetFunction.cut(n, [(u, v, float(rng.uniform(-1.0, 1.0)))
                                   for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < 0.6])
    if kind == "signed g":
        weights = rng.uniform(0.1, 1.0, size=n)
        knots = np.sort(rng.uniform(0.0, weights.sum(), size=2)).tolist()
        slopes = np.sort(rng.uniform(-2.0, 2.0, size=3))[::-1]
        return SetFunction.concave_of_modular(
            weights, _concave_points(knots + [weights.sum() + 1.0], slopes))
    return FAMILY_MAKERS[kind](rng, n)


PREDICATES = ((is_submodular, oracles.submodular_by_pairs),
              (is_increasing, oracles.increasing_by_pairs),
              (is_modular, oracles.modular_by_pairs))


class TestConstructionVerdicts:
    @settings(max_examples=60, deadline=None)
    @given(construction_inputs())
    @example(SetFunction.modular([-1.0, 2.0]))
    @example(SetFunction.cut(3, [(0, 1, 1.0), (1, 2, -0.5)]))
    @example(SetFunction.concave_of_modular([1.0, 1.0], [(0, 0), (1, 1), (2, 0)]))
    @example(SetFunction.cut(3, [(0, 1, 0.0), (1, 2, -0.0)]))
    def test_a_construction_yes_matches_the_pair_oracles(self, phi):
        for predicate, oracle in PREDICATES:
            verdict = predicate(phi)
            if verdict.source == "construction":
                assert verdict.holds and oracle(phi).holds
            else:
                assert verdict.source == "table"
                assert verdict.holds == oracle(phi).holds

    # the source of is_submodular, is_increasing and is_modular, in that
    # order: c for construction, t for table
    @pytest.mark.parametrize("phi, sources", [
        (SetFunction.cut(3, [(0, 1, 1.0), (1, 2, 0.0)]), "ctt"),
        (SetFunction.cut(3, [(0, 1, 1.0), (1, 2, -0.5)]), "ttt"),
        (SetFunction.coverage([[0], [0, 1]], [1.0, 0.0]), "cct"),
        (SetFunction.uniform_matroid(3, 1), "cct"),
        (SetFunction.partition_matroid([[0, 2], [1]], [1, 1]), "cct"),
        (SetFunction.modular([1.0, 0.0]), "ccc"),
        (SetFunction.modular([1.0, -0.0, -1.0]), "ctc"),
        (SetFunction.concave_of_modular([1.0, 2.0], [(0, 0)]), "cct"),
        (SetFunction.concave_of_modular([1.0, 2.0], [(0, 0), (1, 2), (3, 2)]), "cct"),
        (SetFunction.concave_of_modular([1.0, 2.0], [(0, 0), (1, 2), (3, 1)]), "ctt"),
        (SetFunction.from_table([0.0, 1.0, 1.0, 2.0]), "ttt"),
        (SetFunction.cut(3, [(0, 1, 0.0), (1, 2, -0.0)]), "ccc"),
    ])
    def test_which_route_decides(self, phi, sources):
        got = [predicate(phi).source[0] for predicate, _ in PREDICATES]
        assert "".join(got) == sources
        # a negative tol asks more than a theorem gives: the table decides
        assert {predicate(phi, -TOL).source for predicate, _ in PREDICATES} == {"table"}

    def test_a_negative_cut_weight_takes_the_table_route(self):
        phi = SetFunction.cut(3, [(0, 1, 1.0), (1, 2, -0.5)])
        verdict = is_submodular(phi)
        assert verdict.source == "table" and not verdict.holds
        s, t = verdict.witness
        assert phi(s | t) + phi(s & t) > phi(s) + phi(t) + TOL

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_a_slope_rise_below_tol_takes_the_table_route(self, scale):
        # accepted as concave (the rise is at most TOL), but no theorem applies;
        # at scale 1e3 the second difference is about 5e-7, a real violation
        pts = [(0.0, 0.0), (scale, scale), (2 * scale, scale + scale * (1 + TOL / 2))]
        slopes = _slopes(pts)
        assert 0 < slopes[1] - slopes[0] <= TOL
        phi = SetFunction.concave_of_modular([scale, scale], pts)
        verdict = is_submodular(phi)
        assert verdict.source == "table" and verdict.holds == (scale == 1.0)
        if not verdict:
            s, t = verdict.witness
            assert phi(s | t) + phi(s & t) > phi(s) + phi(t) + TOL
        assert is_increasing(phi).source == "construction"

    def test_family_inputs_run_no_table_pass(self, monkeypatch):
        passes = []
        # variation binds its own decrease_witness (ls_decomposition's remainder check)
        for name in ("setfunctions._second_difference_verdict",
                     "setfunctions.decrease_witness", "variation.decrease_witness"):
            monkeypatch.setattr(f"choqkit.{name}", lambda *args, name=name: passes.append(name))
        families = [SetFunction.cut(3, [(0, 1, 1.0), (1, 2, 2.0)]),
                    SetFunction.coverage([[0], [0, 1], [2]], [1.0, 2.0, 0.5]),
                    SetFunction.uniform_matroid(3, 2),
                    SetFunction.partition_matroid([[0, 2], [1]], [1, 1]),
                    SetFunction.modular([0.2, 0.3, 0.5]),
                    SetFunction.concave_of_modular([1.0, 2.0, 0.5],
                                                   [(0, 0), (1, 2), (3, 3)])]
        for phi in families:
            ls_decomposition(phi)
            variation.submodular_variation_closed_form(phi)
            FubiniInstance.of([0.5, 0.5], [0.25, 0.25, 0.5], np.eye(2, 3), phi)
        # the modular kind is the one whose three verdicts are all theorems
        assert cli.main(["check", json.dumps(setfunction_to_json(families[4]))]) == 0
        assert passes == []


class TestChainDp:
    @SETTINGS
    @given(setfunctions)
    def test_total_variation_matches_all_predecessors(self, phi):
        # K = 2 mu(J) - phi(J) from the one positive-part DP, against the
        # |delta|-step oracle
        dec = canonical_decomposition(phi)
        k = dec.variation
        assert k == total_variation(phi) == 2 * dec.mu[-1] - phi.values[-1]
        assert abs(k - oracles.variation_all_predecessors(phi)) <= 1e-12 * max(1.0, k)

    def test_one_layer_dp_per_call(self, path_cut, monkeypatch, capsys):
        calls = []
        plan = variation._plan
        monkeypatch.setattr(variation, "_plan",
                            lambda n: calls.append(n) or plan(n))
        table = SetFunction.from_table(path_cut.values)
        canonical_decomposition(table)
        assert calls == [3]
        total_variation(table)
        assert calls == [3, 3]
        max_variation_chain(table)
        assert calls == [3, 3, 3]
        # the cut itself is submodular by construction: no DP at all
        canonical_decomposition(path_cut)
        total_variation(path_cut)
        max_variation_chain(path_cut)
        assert calls == [3, 3, 3]
        # `choqkit variation` prints K and the chain from one DP on the table,
        # and the same lines from none on the cut
        out = "total variation: 4.0\nmaximizing chain: {} -> {1} -> {1,2} -> {0,1,2}\n"
        assert cli.main(["variation", json.dumps(setfunction_to_json(table))]) == 0
        assert calls == [3, 3, 3, 3]
        assert capsys.readouterr().out == out
        assert cli.main(["variation", '{"n": 3, "kind": "cut", "payload": '
                                      '{"edges": [[0, 1, 1.0], [1, 2, 1.0]]}}']) == 0
        assert calls == [3, 3, 3, 3]
        assert capsys.readouterr().out == out

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


@st.composite
def dyadic_cuts(draw, max_n=10):
    """Cuts whose weights are small multiples of 2^-k: every entry and every
    sum of positive increments is exact."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    unit = 2.0 ** -draw(st.integers(0, 18))
    return SetFunction.cut(n, [(u, v, float(rng.integers(0, 9)) * unit)
                               for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.6])


def _dp_calls(run):
    """The chain DP plans that run() asks for."""
    calls = []
    plan = variation._plan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variation, "_plan", lambda n: calls.append(n) or plan(n))
        run()
    return calls


class TestVariationByConstruction:
    # a family submodular by construction takes mu(S) = max_{Y subseteq S} phi(Y),
    # its table copy the chain DP; they agree to rounding, and exactly where
    # the DP's sums are exact (increasing families, dyadic cut weights).  Its
    # chain runs through the first maximiser, rising before it and falling after
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(construction_inputs(), dyadic_cuts()))
    @example(SetFunction.cut(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    @example(SetFunction.modular([-1.0, 2.0, 0.5]))
    def test_running_maximum_matches_the_dp(self, phi):
        submodular, increasing, _ = _by_construction(phi)
        dec, chain = canonical_decomposition(phi), max_variation_chain(phi)
        assert bool(_dp_calls(lambda: (total_variation(phi), canonical_decomposition(phi),
                                       max_variation_chain(phi)))) != submodular
        table = SetFunction.from_table(phi.values)
        dp, dp_chain = canonical_decomposition(table), max_variation_chain(table)
        k = dec.variation
        tol = 1e-12 * max(1.0, k)
        assert total_variation(phi) == k == 2 * dec.mu[-1] - phi.values[-1]
        assert np.abs(dec.mu - dp.mu).max() <= tol and abs(k - dp.variation) <= tol
        assert dec.nu.tobytes() == (dec.mu - phi.values).tobytes()
        assert np.abs(dec.mu - oracles.positive_variation_all_predecessors(phi)).max() <= tol
        for walk in (chain, dp_chain):
            assert walk[0] == 0 and walk[-1] == phi.ground.full_mask and len(walk) == phi.n + 1
            assert abs(oracles.chain_variation_sum(phi, walk) - k) <= tol
        dyadic = phi.kind == "cut" and all((w * 2.0 ** 18) % 1 == 0
                                           for _, _, w in phi.payload["edges"])
        if increasing or dyadic or not submodular:
            assert dec.mu.tobytes() == dp.mu.tobytes() and k == dp.variation
        if not submodular:
            assert chain == dp_chain
            return
        top = int(phi.values.argmax())
        assert top in chain
        steps = np.diff(phi.values[chain])
        assert steps[:chain.index(top)].min(initial=0.0) >= -tol
        assert steps[chain.index(top):].max(initial=0.0) <= tol
        if dyadic:
            assert oracles.chain_variation_sum(phi, chain) == k
        assert ls_decomposition(phi)[0].tobytes() == dec.mu.tobytes()

    def test_a_family_chain_runs_neither_the_dp_nor_the_running_maximum(self, path_cut):
        maxima, calls = variation._subset_maxima, []
        cut = json.dumps(setfunction_to_json(path_cut))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(variation, "_subset_maxima",
                          lambda vals: calls.append(vals.size) or maxima(vals))
            assert _dp_calls(lambda: (max_variation_chain(path_cut),
                                      cli.main(["variation", cut]))) == []
            assert calls == []
            table = SetFunction.from_table(path_cut.values)
            assert _dp_calls(lambda: max_variation_chain(table)) == [3]

    def test_a_negative_cut_weight_takes_the_dp(self):
        phi = SetFunction.cut(3, [(0, 1, 1.0), (1, 2, -0.5)])
        assert _dp_calls(lambda: (total_variation(phi), canonical_decomposition(phi),
                                  max_variation_chain(phi))) == [3, 3, 3]


def _dyadic_sign_mixed(n, seed):
    rng = np.random.default_rng(seed)
    quarters = rng.integers(-6, 7, size=1 << n)
    quarters[0] = 0
    return SetFunction.from_table(quarters * 2.0 ** -int(rng.integers(0, 19)) / 4)


class TestPopcountDp:
    # the (mu, nu) DP over the popcount-ordered table: exact on dyadic
    # tables, and the chain walk re-derives its recurrence step by step
    @pytest.mark.parametrize("n", [9, 10, 11])
    @pytest.mark.parametrize("seed", range(3))
    def test_dyadic_mu_equals_all_predecessors(self, n, seed):
        phi = _dyadic_sign_mixed(n, seed)
        dec = canonical_decomposition(phi)
        assert dec.mu.tolist() == oracles.positive_variation_all_predecessors(phi)
        assert dec.nu.tobytes() == (dec.mu - phi.values).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 2 ** 32 - 1))
    def test_chain_steps_attain_mu(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(1 << n) * 10.0 ** rng.uniform(-3, 3)
        values[0] = 0.0
        phi = SetFunction.from_table(values)
        dec = canonical_decomposition(phi)
        mu, nu = dec.mu, dec.nu
        chain = max_variation_chain(phi)
        assert mu[0] == 0.0 and len(chain) == n + 1
        for a, b in zip(chain, chain[1:]):
            assert mu[b] == max(values[b] + nu[a], mu[a])
        assert total_variation(phi) == dec.variation == 2 * mu[-1] - values[-1]

    @pytest.mark.parametrize("n", [*range(1, 13), 19])
    def test_plan_parents_drop_one_element(self, n):
        # uint16 indices while every layer fits them (n <= 18), else int32;
        # at n = 19 only the widest layers are checked
        order, rank, plan = variation._plan(n)
        sizes = np.bitwise_count(order)
        assert np.array_equal(rank[order], np.arange(1 << n))
        assert np.all(np.diff(sizes) >= 0)
        assert np.all(np.diff(order)[np.diff(sizes) == 0] > 0)
        for k, (layer, parents) in enumerate(plan, start=1):
            assert parents.dtype == (np.uint16 if n <= 18 else np.int32)
            if n > 18 and k not in (n // 2, n // 2 + 1):
                continue
            members, previous = order[layer], order[sizes == k - 1]
            assert np.all(sizes[layer] == k) and parents.shape == (k, members.size)
            assert 0 <= parents.min() and parents.max() < previous.size
            subsets = previous[parents]
            assert np.all(subsets & ~members == 0)
            assert np.all(np.bitwise_count(members ^ subsets) == 1)
            assert np.all(np.diff(np.sort(subsets, axis=0), axis=0) > 0)
        variation._plan.cache_clear()

    def test_plans_up_to_n_12_are_built_once(self, monkeypatch):
        # selftest criterion 2 draws n from 3 to 10 in turn; each plan
        # build calls `comb` once
        built = []
        comb = variation.comb
        monkeypatch.setattr(variation, "comb", lambda n, k: built.append(n) or comb(n, k))
        variation._plan.cache_clear()
        tables = [SetFunction.from_table(random_cut(np.random.default_rng(n), n).values)
                  for n in range(3, 11)]
        for _ in range(2):
            for phi in tables:
                total_variation(phi)
        assert built == list(range(3, 11))
        variation._plan.cache_clear()

    def test_int32_plan_gives_the_same_tables(self, monkeypatch):
        # above n = 18 the plan holds int32 indices; force them at n = 10
        phi = _dyadic_sign_mixed(10, 7)
        expected = canonical_decomposition(phi)
        variation._plan.cache_clear()
        monkeypatch.setattr(variation, "comb", lambda n, k: 1 << 17)
        got = canonical_decomposition(phi)
        assert variation._plan(10)[2][-1][1].dtype == np.int32
        variation._plan.cache_clear()
        assert got.mu.tobytes() == expected.mu.tobytes()
        assert got.nu.tobytes() == expected.nu.tobytes()


def _block_maxima(vals):
    """The running maximum with one block view per bit, whose bytes the
    kernel's column passes must keep."""
    out = vals.copy()
    for x in reversed(range(vals.size.bit_length() - 1)):
        blocks = out.reshape(-1, 2, 1 << x)
        np.maximum(blocks[:, 0], blocks[:, 1], out=blocks[:, 1])
    return out


class TestPsi:
    # integer entries tie often, and the zeros of the signed table carry
    # both signs; n = 1..12 covers the column passes (bits 1, 2) and the block
    # view (every other bit).  Where maximisers tie only in sign, the oracle
    # keeps the first in descending mask order and the kernel another, so there
    # the bytes are checked against `_block_maxima` and the values against the oracle
    @pytest.mark.parametrize("n", range(1, 13))
    def test_running_maximum_is_bit_identical(self, n):
        rng = np.random.default_rng(n)
        ints = rng.integers(-3, 4, size=1 << n).astype(np.float64)
        ints[0] = 0.0
        signed = ints * rng.choice([-1.0, 1.0], size=ints.size)
        for vals in (ints, signed):
            got = variation._subset_maxima(vals)
            assert decrease_witness(got, 0.0) is None  # increasing exactly: max does not round
            want = np.array(oracles.psi_by_subsets(SetFunction.from_table(vals)))
            assert got.tobytes() == _block_maxima(vals).tobytes()
            if vals is ints:  # no -0.0: the oracle's bytes too
                assert got.tobytes() == want.tobytes()
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()  # -0.0 + 0.0 is 0.0

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


def _large_cut(seed, n=10, scale=1e6):
    rng = np.random.default_rng(seed)
    return SetFunction.cut(n, [(u, v, float(rng.uniform(0.1, 1.0) * scale))
                               for u in range(n) for v in range(u + 1, n)
                               if rng.random() < 0.6])


class TestLsDecompositionByConstruction:
    # on the rounded tables these remainders rise by more than TOL, yet the
    # theorem makes them decreasing, so ls_decomposition must return
    @pytest.mark.parametrize("phi", [
        SetFunction.cut(4, [(0, 3, 35722124.20793275), (1, 2, 44503199.27069665),
                            (1, 3, 14074767.451220065), (2, 3, 99925850.35585643)]),
        *[_large_cut(seed) for seed in range(4)],
    ])
    def test_large_weight_cuts_return(self, phi):
        vals = phi.values
        psi, remainder = ls_decomposition(phi)
        assert list(psi) == oracles.psi_by_subsets(phi)
        assert remainder.tobytes() == (vals - psi).tobytes()
        # rounding of psi + remainder against phi grows with |phi|: a relative allowance
        assert decrease_witness(-remainder, 1e-12 * float(np.abs(vals).max())) is None


class TestValues:
    # one explicit instance per family, so that every builder is checked
    @SETTINGS
    @given(setfunctions)
    @example(SetFunction.cut(8, [(0, 1, 0.5), (1, 2, 1.25), (0, 7, 2.0),
                                 (3, 5, 0.75)]))
    @example(random_coverage(np.random.default_rng(1), 8))
    @example(SetFunction.uniform_matroid(8, 3))
    @example(SetFunction.partition_matroid([[0, 3], [1, 2, 4], [5, 6, 7]],
                                           [1, 2, 2]))
    @example(SetFunction.modular(np.random.default_rng(2).uniform(-1, 1, 8)))
    @example(random_concave_of_modular(np.random.default_rng(3), 8))
    @example(SetFunction.from_table(
        np.r_[0.0, np.random.default_rng(4).uniform(-1, 1, 255)]))
    def test_values_equal_point_evaluation(self, phi):
        values = phi.values
        assert values.dtype == np.float64 and values.shape == (1 << phi.n,)
        assert all(values[m] == oracles.value_by_payload(phi, m)
                   for m in range(1 << phi.n))
        assert all(type(phi(m)) is float for m in range(1 << phi.n))

    def test_values_are_cached_and_read_only(self, path_cut):
        assert path_cut.values is path_cut.values
        with pytest.raises(ValueError):
            path_cut.values[1] = 5.0

    def test_decomposition_parts_are_read_only_arrays(self, path_cut):
        dec = canonical_decomposition(path_cut)
        psi, remainder = ls_decomposition(path_cut)
        for part in (dec.mu, dec.nu, psi, remainder):
            assert part.dtype == np.float64 and part.shape == (8,)
            with pytest.raises(ValueError):
                part[1] = 5.0

    def test_from_table_copies_its_input(self):
        source = np.array([0.0, 1.0])
        phi = SetFunction.from_table(source)
        source[1] = 7.0
        assert phi.values[1] == 1.0 and phi(1) == 1.0


@st.composite
def integer_tables(draw, max_n=6):
    """Tables of small integers, so that many pairs share a gap."""
    n = draw(st.integers(1, max_n))
    values = draw(st.lists(st.integers(-3, 3), min_size=(1 << n) - 1,
                           max_size=(1 << n) - 1))
    return SetFunction.from_table([0.0] + [float(v) for v in values])


class TestContinuityModulus:
    @SETTINGS
    @given(st.one_of(sign_mixed_tables(max_n=6), integer_tables(), family_members(max_n=6)),
           st.integers(0, 2 ** 32 - 1))
    @example(SetFunction.from_table([0.0, 2.0]), 0)
    @example(SetFunction.from_table([0.0, 0.0]), 0)
    def test_sorted_gaps_match_pair_scan(self, phi, seed):
        rng = np.random.default_rng(seed)
        pi = rng.uniform(0.05, 1.0, size=phi.n).tolist()
        gaps = np.abs(np.subtract.outer(phi.values, phi.values)).ravel()
        # 0.0, some of the table's own gaps, and one above the largest
        explicit = [0.0, *rng.choice(gaps, size=3).tolist(), 2.0 * float(gaps.max()) + 1.0]
        for epsilons in (None, explicit):
            assert uniform_continuity_modulus(phi, pi, epsilons) == \
                oracles.continuity_modulus_by_pairs(phi, pi, epsilons)

    def test_explicit_epsilons(self, path_cut):
        pi = (0.2, 0.3, 0.5)
        epsilons = [0.0, 0.5, 1.0, 2.0, 3.0]
        assert uniform_continuity_modulus(path_cut, pi, epsilons) == \
            oracles.continuity_modulus_by_pairs(path_cut, pi, epsilons)


def _close(got, want):
    """Agreement within 1e-12 * max(1, |want|), entry by entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool((np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all())


# entries whose sum with the shift c rounds to a tie (1e-17 + 1.0 == 1.0)
# or that differ only in the sign of zero
SHIFT_TIES = [1e-17, -1e-17, 0.0, -0.0, 1.0, -1.0, 2.0 ** -60]


def _layouts(F):
    """F as a C array, as the transposed view of an (n, B) array (as
    lln_run passes it), as a Fortran-ordered copy and as a column slice."""
    wide = np.zeros((len(F), 2 * F.shape[1] + 1))
    wide[:, 1::2] = F
    return {"C": F, "transposed": np.ascontiguousarray(F.T).T,
            "fortran": np.asfortranarray(F), "columns": wide[:, 1::2]}


@st.composite
def batch_matrices(draw, n):
    """(B, n) rows, B >= 0: sign-mixed dyadic rows with ties, all-zero
    rows, rows where the shift creates ties, all-negative rows and
    arbitrary floats, in any of the memory layouts of `_layouts`."""
    unit = 2.0 ** -draw(st.integers(0, 18))
    dyadic = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(
        lambda row: [v * unit for v in row])
    mixed = st.one_of(st.sampled_from(SHIFT_TIES), st.floats(-5.0, 5.0))
    negative = st.floats(-5.0, -1e-17)
    row = st.one_of(st.just([0.0] * n), dyadic,
                    *(st.lists(entry, min_size=n, max_size=n)
                      for entry in (mixed, negative)))
    F = np.array(draw(st.lists(row, max_size=12)), dtype=float).reshape(-1, n)
    return draw(st.sampled_from(list(_layouts(F).values())))


class TestChoquetBatch:
    @SETTINGS
    @given(setfunctions.flatmap(
        lambda phi: st.tuples(st.just(phi), batch_matrices(phi.n))))
    @example((SetFunction.from_table([0.0, -1.5]), np.zeros((0, 1))))
    @example((SetFunction.from_table([0.0, -1.5]),
              _layouts(np.array([[-0.0], [2.5], [-1e-17]]))["transposed"]))
    @example((SetFunction.from_table([-0.0, 0.5, -1.0, -0.0]),
              np.array([[0.0, 0.0], [-0.0, 1.0], [2.0, -1.0], [-1.0, -1.0]])))
    def test_rows_match_scalar_choquet(self, case):
        phi, F = case
        scalars = [choquet(phi, row) for row in F]
        assert all(type(value) is float for value in scalars)
        assert choquet_batch(phi, F).tolist() == scalars

    @pytest.mark.parametrize("row", [
        [1e-17, 0.0, -1.0], [0.0, 1e-17, -1.0], [-1e-17, 0.0, 1.0],
        [-0.0, 0.0, -0.0], [0.0, -0.0, -1.0], [-1.0, -2.0, -0.5],
        [-1e-17, -0.0, -3.0]])
    def test_shift_ties_equal_scalar_choquet(self, path_cut, row):
        # phi(J) != 0 for the table, so a dropped shift changes the value
        table = SetFunction.from_table([0, 1, 2, -1, 0.5, 3, -2, 1])
        for phi in (path_cut, table):
            F = np.array([row, row[::-1], [2 * v for v in row]])
            assert choquet_batch(phi, F).tolist() == [choquet(phi, r) for r in F]

    def test_empty_batch(self, path_cut):
        assert choquet_batch(path_cut, np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 4)])
    def test_rejects_wrong_shape(self, path_cut, shape):
        with pytest.raises(PreconditionError):
            choquet_batch(path_cut, np.zeros(shape))


# table entries and function values with ties and both signs of zero
TIED = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]


def _stack(rng, n, count):
    """`count` value tables on n elements: tied entries, arbitrary floats,
    or both, and +0.0 or -0.0 at the empty set."""
    tied = rng.choice(TIED, size=(count, 1 << n))
    spread = rng.uniform(-2.0, 2.0, size=tied.shape)
    tables = (tied, spread, np.where(rng.random(tied.shape) < 0.5, tied, spread))[
        rng.integers(3)]
    tables[:, 0] = rng.choice([0.0, -0.0], size=count)
    return tables


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestStackedKernels:
    # each stacked result is the one-table result, bit for bit (-0.0 too)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
    def test_chain_dp_stack_matches_one_table_calls(self, n, count, seed):
        tables = _stack(np.random.default_rng(seed), n, count)
        tables[0, 0] = -0.0  # one table with phi(empty) = -0.0 at least
        variations = variation.total_variation_stack(tables)
        decompositions = variation.canonical_decomposition_stack(tables)
        assert variations.shape == (count,) and len(decompositions) == count
        for table, k, dec in zip(tables, variations, decompositions):
            phi = SetFunction.from_table(table)
            one = canonical_decomposition(phi)
            assert _hex([k, dec.variation]) == _hex([total_variation(phi), one.variation])
            assert dec.mu.tobytes() == one.mu.tobytes()
            assert dec.nu.tobytes() == one.nu.tobytes()
            assert _hex([dec.mu[0], dec.nu[0]]) == _hex([0.0, 0.0])
            assert not (dec.mu.flags.writeable or dec.nu.flags.writeable)
            if n <= 6:
                assert _close(k, oracles.variation_all_predecessors(phi))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 40), st.integers(0, 60),
           st.integers(0, 2 ** 32 - 1))
    def test_choquet_stack_matches_scalar_choquet(self, n, count, rows, seed):
        rng = np.random.default_rng(seed)
        tables = _stack(rng, n, count)
        tied = rng.choice(TIED + SHIFT_TIES, (rows, n))
        F = np.where(rng.random((rows, n)) < 0.5, tied, rng.uniform(-3.0, 3.0, (rows, n)))
        which = rng.integers(0, count, size=rows)
        got = choquet_stack(tables, F, which)
        phis = [SetFunction.from_table(table) for table in tables]
        assert _hex(got) == _hex([choquet(phis[p], f) for p, f in zip(which, F)])
        for p in set(which.tolist()):
            assert _hex(got[which == p]) == _hex(choquet_batch(phis[p], F[which == p]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.lists(st.integers(1, 6), min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_lopsided_stack_matches_one_instance_calls(self, n, ms, seed):
        rng = np.random.default_rng(seed)
        instances = [random_fubini_instance(rng, m, n) for m in ms]
        for got, inst in zip(fubini.lopsided_check_stack(instances), instances):
            want = lopsided_check(inst)
            assert _hex([got.lhs, got.rhs]) == _hex([want.lhs, want.rhs])
            assert got.rows.tobytes() == want.rows.tobytes()


GRID = 64  # breakpoints on a grid of 1/64, so atoms and densities can meet f's


@st.composite
def step_functions(draw):
    """Step functions with ties across pieces, negative and all-equal values."""
    inner = draw(st.lists(st.integers(1, GRID - 1), max_size=12, unique=True))
    bps = [0.0] + [j / GRID for j in sorted(inner)] + [1.0]
    unit = draw(st.sampled_from([1.0, 0.1, 2.0 ** -10, 3.7]))
    values = st.lists(st.integers(-3, 3), min_size=len(bps) - 1,
                      max_size=len(bps) - 1)
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(lambda v: [v] * (len(bps) - 1))
    return StepFunction(tuple(bps), tuple(v * unit for v in draw(values)))


@st.composite
def interval_setfunctions(draw, f):
    """A point mass (often on a breakpoint of f) or a concave transform of a
    measure whose density may share f's breakpoints."""
    grid = st.integers(0, GRID - 1).map(lambda j: j / GRID)
    if draw(st.booleans()):
        location = draw(st.one_of(st.sampled_from(f.breakpoints[:-1]), grid))
        return IntervalSetFunction.point_mass(location, draw(st.floats(0.0, 2.0)))
    slopes = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3)),
                    reverse=True)
    # knots at least 1e-3 apart: on two adjacent floats the rounded values
    # give a slope of 0 between larger ones, and the points are not concave
    knots = draw(st.lists(st.floats(0.05, 2.0), min_size=len(slopes),
                          max_size=len(slopes), unique=True).map(sorted).filter(
        lambda ks: all(b - a >= 1e-3 for a, b in zip(ks, ks[1:]))))
    pts, value, prev = [(0.0, 0.0)], 0.0, 0.0
    for t, s in zip(knots, slopes):
        value += s * (t - prev)
        pts.append((t, value))
        prev = t
    density = None
    if draw(st.booleans()):
        cuts = draw(st.lists(st.one_of(st.sampled_from(f.breakpoints[1:-1] or (0.5,)),
                                       grid.filter(bool)), max_size=4))
        dbps = (0.0, *sorted(set(cuts)), 1.0)
        weights = draw(st.lists(st.floats(0.0, 2.0), min_size=len(dbps) - 1,
                                max_size=len(dbps) - 1))
        density = (dbps, tuple(weights))
    return IntervalSetFunction.concave_of_measure(pts, density)


class TestIntervalSweep:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sweep_matches_per_level_oracle(self, data):
        f = data.draw(step_functions())
        phi = data.draw(interval_setfunctions(f))
        value = choquet_interval(phi, f)
        assert type(value) is float
        for extension in ("exact", "ui", "ls"):
            assert _close(value, oracles.choquet_interval_by_levels(phi, f, extension))
        assert ae_gap(phi, f) == oracles.ae_gap_by_levels(phi, f)

    @settings(max_examples=200, deadline=None)
    @given(step_functions())
    @example(StepFunction((0.0, 0.25, 0.5, 0.75, 1.0), (1.0, 1.0, 0.0, 1.0)))
    @example(StepFunction((0.0, 0.125, 0.25, 0.5, 1.0), (2.0, -1.0, 2.0, 2.0)))
    def test_superlevel_matches_a_sorted_merge(self, f):
        # ties across pieces and runs of touching pieces, which the oracle
        # merges in its one pass in breakpoint order
        levels = sorted(set(f.values))
        middles = [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]
        pieces = list(zip(f.breakpoints, f.breakpoints[1:], f.values))
        for t in levels + middles + [-math.inf, math.inf]:
            want = IntervalSet.of((a, b) for a, b, v in pieces if v >= t)
            assert oracles.superlevel(f, t) == want

    FAST_ROUTE = ("_closed_form", "_density_mass", "piecewise_linear_array",
                  "extend_ui", "extend_ls", "_Superlevels")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_level_oracles_share_no_closed_form(self, data):
        f = data.draw(step_functions())
        phi = data.draw(interval_setfunctions(f))
        value, gap = choquet_interval(phi, f), ae_gap(phi, f)

        def fast_route(*args):
            raise AssertionError("the reference reached the fast route")

        with pytest.MonkeyPatch.context() as patch:
            for name in self.FAST_ROUTE:
                patch.setattr(intervals, name, fast_route)
                patch.setattr(oracles, name, fast_route, raising=False)
            refs = [oracles.choquet_interval_by_levels(phi, f, extension)
                    for extension in ("exact", "ui", "ls")]
            ref_gap = oracles.ae_gap_by_levels(phi, f)
        assert all(_close(value, ref) for ref in refs)
        assert gap == ref_gap


def _loop_lln(inst, steps, seed, tol=TOL):
    """Step-by-step LLN trace over scalar choquet calls: (k, what_f,
    running_avg, what_h, norm_h) per step, raising as lln_run does."""
    samples = np.random.default_rng(seed).choice(
        inst.m, size=steps, p=np.asarray(inst.lam))
    phi = inst.phi
    row_values = [choquet(phi, row) for row in inst.F]
    g = np.asarray(inst.lam) @ np.asarray(inst.F)
    variation = total_variation(phi)
    records, acc, running = [], np.zeros(inst.n), 0.0
    for k, x in enumerate(samples, start=1):
        acc += np.asarray(inst.F[x])
        running += row_values[x]
        f_k = acc / k
        h_k = g - f_k
        what_f, what_h, avg = choquet(phi, f_k), choquet(phi, h_k), running / k
        if what_f > avg + tol:
            raise AssertionError(f"finite subadditivity bound violated at step {k}")
        norm_h = float(np.max(np.abs(h_k)))
        if abs(what_h) > 2.0 * variation * norm_h + tol:
            raise AssertionError(f"Lipschitz bound violated at step {k}")
        records.append((k, what_f, avg, what_h, norm_h))
    return records


def _outcome(run, *args):
    try:
        return run(*args)
    except AssertionError as exc:
        return str(exc)


def _blocked_lln(block, inst, steps, seed):
    """lln_run with `block` steps per batch (to cross block boundaries)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fubini, "_BLOCK", block)
        return lln_run(inst, steps, seed=seed)


BLOCKS = st.sampled_from([1, 16, fubini._BLOCK])


class TestLlnAgainstLoop:
    @SETTINGS
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 300), st.booleans(), BLOCKS)
    def test_records_match_scalar_loop(self, seed, m, n, steps, tabled, block):
        inst = random_fubini_instance(np.random.default_rng(seed), m, n)
        if tabled:
            inst = FubiniInstance.of(inst.lam, inst.pi, inst.F,
                                     SetFunction.from_table(inst.phi.table()))
        got = [(r.k, r.what_f, r.running_avg, r.what_h, r.norm_h)
               for r in _blocked_lln(block, inst, steps, seed).records]
        want = _loop_lln(inst, steps, seed)
        assert [r[0] for r in got] == [r[0] for r in want]
        assert _close([r[1:] for r in got], [r[1:] for r in want])

    @SETTINGS
    @given(sign_mixed_tables(max_n=5), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 200), BLOCKS)
    def test_unvalidated_tables_raise_or_match_like_the_loop(self, phi, seed,
                                                             steps, block):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        lam = rng.uniform(0.1, 1.0, size=m)
        inst = FubiniInstance.of(lam / lam.sum(), [1.0 / phi.n] * phi.n,
                                 rng.uniform(-1.0, 1.0, size=(m, phi.n)), phi,
                                 validate=False)
        got = _outcome(_blocked_lln, block, inst, steps, seed)
        want = _outcome(_loop_lln, inst, steps, seed)
        if isinstance(want, str):
            assert got == want
        else:
            assert _close([(r.k, r.what_f, r.running_avg, r.what_h, r.norm_h)
                           for r in got.records], want)

    def test_default_blocks_match_across_boundaries(self):
        inst = random_fubini_instance(np.random.default_rng(5), 4, 5)
        steps = 2 * fubini._BLOCK + 3
        trace = lln_run(inst, steps, seed=5)
        columns = [getattr(trace, name).tolist() for name in LlnRecord._fields]
        assert list(zip(*columns)) == _loop_lln(inst, steps, 5)

    def test_nonsubmodular_instance_fails_at_the_loop_step(self):
        phi = SetFunction.from_table([0.0, 0.0, 0.0, 1.0])
        inst = FubiniInstance.of([0.5, 0.5], [0.5, 0.5],
                                 [[1.0, 0.0], [0.0, 1.0]], phi, validate=False)
        want = _outcome(_loop_lln, inst, 50, 3)
        assert want.startswith("finite subadditivity bound violated at step ")
        with pytest.raises(AssertionError) as info:
            lln_run(inst, steps=50, seed=3)
        assert str(info.value) == want


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

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("position", [0, 1])
    def test_choquet_vectors(self, path_cut, bad, position):
        f = [1.0, 0.0, 0.5]
        f[position] = bad
        with pytest.raises(ValueError):
            choquet(path_cut, f)
        with pytest.raises(ValueError):
            choquet_batch(path_cut, [[0.0, 0.0, 0.0], f])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_choquet_shift(self, path_cut, bad):
        with pytest.raises(ValueError):
            choquet(path_cut, [0.5, -1.0, 0.0], shift=bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["lam", "pi", "F"])
    def test_fubini_instance(self, bad, field):
        args = {"lam": [0.5, 0.5], "pi": [0.5, 0.5], "F": [[0.0, 1.0], [1.0, 0.0]]}
        if field == "F":
            args["F"][1][0] = bad
        else:
            args[field][0] = bad
        with pytest.raises(ValueError):
            FubiniInstance.of(args["lam"], args["pi"], args["F"],
                              SetFunction.uniform_matroid(2, 1), validate=False)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["pi", "epsilons"])
    def test_continuity_modulus(self, path_cut, bad, field):
        args = {"pi": [0.2, 0.3, 0.5], "epsilons": [0.5, 1.0]}
        args[field][0] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            uniform_continuity_modulus(path_cut, **args)

    def test_continuity_epsilons_rejected_before_the_pairs(self, path_cut, monkeypatch):
        class NoNumpy:  # every array the modulus builds goes through fubini.np
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} used before the epsilons were checked")

        monkeypatch.setattr(fubini, "np", NoNumpy())
        with pytest.raises(ValueError, match="epsilons must be finite"):
            uniform_continuity_modulus(path_cut, [0.2, 0.3, 0.5], [0.5, float("nan")])

    @pytest.mark.parametrize("maker", [
        lambda: SetFunction.modular([1e308, 1e308]),
        lambda: SetFunction.modular([1e308, -1e308]),
        lambda: SetFunction.concave_of_modular([1e308, 1e308], [(0, 0), (1, 1)]),
        lambda: SetFunction.concave_of_modular([1e300, 1e300], [(0, 0), (1, 1e300)]),
        lambda: SetFunction.concave_of_modular([0.75, 0.75],
                                               [(0, 0), (1, 1e308), (2, -1e308)]),
    ])
    def test_overflowing_sums_rejected_at_construction(self, maker):
        # the point route would give inf where the table route raises
        with pytest.raises(ValueError):
            maker()

    def test_largest_representable_sums_still_build(self):
        phi = SetFunction.modular([1e308, 7e307])
        assert phi(3) == phi.values[3] == 1e308 + 7e307

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_cli_check_exits_2(self, constant):
        table = '{"n": 1, "kind": "table", "payload": {"values": [0, %s]}}' % constant
        result = subprocess.run([sys.executable, "-m", "choqkit", "check", table],
                                capture_output=True, text=True)
        assert result.returncode == 2, result.stdout + result.stderr
        assert "malformed input" in result.stderr


class TestLsChecksUnderO:
    # submodular within TOL (every second difference is about 0.9e-9), while the
    # remainder rises by 1.8e-9 from {0, 1} to {0, 1, 2}
    C = 0.9e-9
    RISING_REMAINDER = [0, -1, -1, -2 + C, 0, -1 + C, -1 + C, -2 + 3 * C]

    def test_a_rising_remainder_raises_with_asserts_stripped(self):
        phi = SetFunction.from_table(self.RISING_REMAINDER)
        assert is_submodular(phi).source == "table"
        with pytest.raises(AssertionError, match="remainder not decreasing"):
            ls_decomposition(phi)
        code = ("from choqkit import SetFunction, ls_decomposition\n"
                f"ls_decomposition(SetFunction.from_table({self.RISING_REMAINDER!r}))\n")
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                capture_output=True, text=True)
        assert result.returncode != 0
        assert "AssertionError: remainder not decreasing" in result.stderr


def _selftest_under_O(prelude=""):
    code = (prelude + "import sys\nfrom choqkit import cli\n"
            "sys.exit(cli.main(['selftest', '--seed', '0']))\n")
    result = subprocess.run([sys.executable, "-O", "-c", code],
                            capture_output=True, text=True, timeout=600)
    lines = [l for l in result.stdout.splitlines() if l.startswith("criterion")]
    return result, lines


class TestSelftestUnderO:
    def test_all_criteria_pass(self):
        result, lines = _selftest_under_O()
        assert result.returncode == 0, result.stdout + result.stderr
        assert len(lines) == 7 and all("[PASS]" in line for line in lines)
        # the same report as without -O
        assert report_digest(lines) == SELFTEST_REPORT_SHA256

    def test_constant_batch_kernel_fails(self):
        # the stacked kernel the criteria call, and through the choquet
        # module's own name, choquet_batch and lln_run
        sabotage = ("import sys\n"
                    "import numpy as np\n"
                    "from choqkit import fubini, selftest\n"
                    "kernels = sys.modules['choqkit.choquet']\n"
                    "constant = lambda tables, F, which: np.ones(len(F))\n"
                    "kernels.choquet_stack = fubini.choquet_stack = constant\n"
                    "selftest.choquet_stack = constant\n")
        result, lines = _selftest_under_O(sabotage)
        assert result.returncode == 1, result.stdout + result.stderr
        # criteria 1, 3 and 4 are caught by selftest's own checks (1 by its
        # comparison with scalar choquet), criterion 7 by lln_run's
        assert all("[FAIL]" in lines[k - 1] for k in (1, 3, 4, 7))

    def test_constant_variation_kernel_fails(self):
        sabotage = ("import numpy as np\n"
                    "from choqkit import selftest\n"
                    "constant = lambda tables: np.zeros(len(tables))\n"
                    "selftest.total_variation_stack = constant\n")
        result, lines = _selftest_under_O(sabotage)
        assert result.returncode == 1, result.stdout + result.stderr
        # the closed form catches K = 0 in criterion 2, the Lipschitz bound in 4
        assert "[FAIL]" in lines[1] and "[FAIL]" in lines[3]
