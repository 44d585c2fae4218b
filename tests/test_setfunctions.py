import importlib
import inspect
import json
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import choqkit
from choqkit import cli, fubini, intervals, oracles, setfunctions, uncrossing, variation
from choqkit import (GroundSet, PreconditionError, SetFunction, Verdict, conjugate,
                     is_increasing, is_modular, is_submodular, setfunction_from_json,
                     setfunction_to_json)
from choqkit.oracles import submodular_by_pairs
from choqkit.randgen import (random_submodular_setfunction,
                             random_table_setfunction)

TOL = 1e-9


class TestEval:
    def test_cut_single_middle_vertex(self, path_cut):
        assert path_cut(0b010) == 2.0

    def test_empty_set_is_zero(self, path_cut):
        assert path_cut(0) == 0.0

    def test_modular_sum(self):
        phi = SetFunction.modular([1, 2, 3])
        assert phi(0b101) == 4.0

    def test_coverage_union_weight(self):
        phi = SetFunction.coverage([[0, 1], [1, 2]], [1.0, 2.0, 4.0])
        assert phi(0b11) == 7.0
        assert phi(0b01) == 3.0

    def test_matroid_ranks(self):
        uni = SetFunction.uniform_matroid(4, 2)
        assert uni(0b1111) == 2.0
        part = SetFunction.partition_matroid([[0, 1], [2, 3]], [1, 2])
        assert part(0b1111) == 3.0
        assert part(0b0011) == 1.0

    def test_concave_of_modular(self):
        phi = SetFunction.concave_of_modular([1, 1, 1],
                                             [(0, 0), (1, 1), (3, 2)])
        assert phi(0b001) == 1.0
        assert phi(0b111) == 2.0

    @pytest.mark.parametrize("mask", [0b1000, -1])
    def test_mask_out_of_range(self, path_cut, mask):
        with pytest.raises(PreconditionError):
            path_cut(mask)

    def test_nonzero_empty_value_rejected(self):
        with pytest.raises(PreconditionError):
            SetFunction.from_table([1.0, 0.0])

    def test_negative_capacity_rejected_at_construction(self):
        # like a uniform matroid's rank outside 0..n, not at the first read
        with pytest.raises(ValueError, match="capacities must be nonnegative"):
            SetFunction.partition_matroid([[0, 1]], [-1])

    def test_a_table_is_checked_once(self, monkeypatch):
        calls = []
        check = setfunctions._require_finite
        monkeypatch.setattr(setfunctions, "_require_finite",
                            lambda values, what: calls.append(what) or check(values, what))
        phi = SetFunction.from_table([0.0, 1.0, 2.0, 0.5])
        assert phi.values.tolist() == [0.0, 1.0, 2.0, 0.5]
        assert not phi.values.flags.writeable
        assert len(calls) == 1


class TestSizeLimitError:
    def test_the_three_budgets_share_one_wording(self, monkeypatch):
        monkeypatch.setattr(fubini, "_LLN_BUDGET", 0)
        monkeypatch.setattr(fubini, "_CONTINUITY_BUDGET", 0)
        monkeypatch.setattr(uncrossing, "_UNCROSS_BUDGET", 0)
        phi = SetFunction.modular([0.5, 0.5])
        inst = fubini.FubiniInstance.of([1.0], [0.5, 0.5], [[1.0, 0.0]], phi)
        family = uncrossing.WeightedFamily.of(phi.ground, [(1, 1), (2, 1)])
        messages = []
        for run in (lambda: fubini.lln_run(inst, steps=5),
                    lambda: fubini.uniform_continuity_modulus(phi, [0.5, 0.5]),
                    lambda: uncrossing.uncross(family)):
            with pytest.raises(PreconditionError) as error:
                run()
            messages.append(str(error.value))
        assert messages == [
            "lln_run with steps=5 needs about 240 bytes, over its budget of 0 bytes",
            "uniform_continuity_modulus at n=2 needs about 288 bytes, "
            "over its budget of 0 bytes",
            "uncross stopped after 0 steps: one more needs about 200 bytes, "
            "over its budget of 0 bytes"]


# g's first segment rises to 1e308 over [0, 4], so its arithmetic passes float64
# there ((v1 - v0) * t > 1.8e308 for t > 1.8) though every value of g is finite
WIDE_FIRST_SEGMENT = [(0, 0), (4, 1e308), (8, 1.2e308)]

# knot abscissae and slopes, with the extremes of float64 drawn often
_EXTREMES = [5e-324, 1e-300, 0.5, 1.0, 2.0, 1e308, 1.7976931348623157e308]
_positive = st.one_of(st.sampled_from(_EXTREMES), st.floats(5e-324, 1.7976931348623157e308))
_slope = st.one_of(_positive, _positive.map(lambda x: -x), st.just(0.0))


@st.composite
def concave_g(draw):
    """The knots of a concave piecewise-linear g with g(0) = 0, up to four segments."""
    ts = sorted(draw(st.sets(_positive, max_size=4)))
    slopes = sorted(draw(st.lists(_slope, min_size=len(ts), max_size=len(ts))),
                    reverse=True)
    pts, (t0, v0) = [(0.0, 0.0)], (0.0, 0.0)
    for t, slope in zip(ts, slopes):
        t0, v0 = t, v0 + slope * (t - t0)
        pts.append((t0, v0))
    try:
        return setfunctions._concave_validate(pts)
    except ValueError:  # a value passed float64, or rounding broke concavity
        assume(False)


class TestConcaveGuard:
    @settings(max_examples=300, deadline=None)
    @given(concave_g(), st.data())
    def test_refuses_exactly_where_the_table_route_is_not_finite(self, pts, data):
        # g's own knots, where the segment choice flips, are drawn often
        special = st.sampled_from([0.0, *_EXTREMES, math.inf, *(t for t, _ in pts)])
        points = data.draw(st.lists(st.one_of(special, st.floats(0.0, allow_nan=False)),
                                    min_size=1, max_size=6))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(setfunctions.piecewise_linear_array(pts, np.array(points)))
        try:
            setfunctions._require_finite_g(pts, points, "the points")
        except ValueError as error:
            assert str(error) == "g overflows float64 on the points"
            assert not finite.all()
        else:
            assert finite.all()

    def test_concave_of_modular_checks_the_sum_only(self):
        # at the sum 4, the first segment's end, the arithmetic passes float64;
        # at the sum 5, in the second segment, it does not
        with pytest.raises(ValueError, match="^g overflows float64 on the subset sums$"):
            SetFunction.concave_of_modular([2.0, 2.0], WIDE_FIRST_SEGMENT)
        phi = SetFunction.concave_of_modular([2.0, 3.0], WIDE_FIRST_SEGMENT)
        # the subset sums 2 and 3 lie inside the first segment: the first
        # evaluation builds the table and refuses it
        with pytest.raises(ValueError, match="setfunction values must be finite"):
            phi(0b11)

    def test_concave_of_modular_refusal_names_g_without_a_warning(self, capsys):
        # no errstate here: tier-1 turns a numpy RuntimeWarning into an error
        phi = SetFunction.concave_of_modular([2.0, 3.0], WIDE_FIRST_SEGMENT)
        message = "concave-of-modular setfunction values must be finite"
        with pytest.raises(ValueError, match=f"^{message}$"):
            phi.values
        spec = json.dumps({"n": 2, "kind": "concave-of-modular", "payload": {
            "weights": [2.0, 3.0], "breakpoints": WIDE_FIRST_SEGMENT}})
        assert cli.main(["check", spec]) == 2
        assert capsys.readouterr() == ("", f"malformed input: {message}\n")


# finite input whose table overflows float64, with the kind its refusal names;
# TestConcaveGuard refuses concave-of-modular's the same way
OVERFLOWING_PAYLOADS = {
    "cut": {"edges": [[0, 1, 1e308], [1, 0, 1e308]]},
    "coverage": {"covers": [[0, 1], [1]], "item_weights": [1e308, 1e308]},
}


class TestTableGuard:
    # no errstate or filterwarnings mark: tier-1 turns a numpy RuntimeWarning
    # into an error, so each refusal must come without one
    @pytest.mark.parametrize("kind", OVERFLOWING_PAYLOADS)
    def test_overflowing_table_is_refused_by_kind(self, capsys, kind):
        spec = {"n": 2, "kind": kind, "payload": OVERFLOWING_PAYLOADS[kind]}
        phi = setfunction_from_json(spec)
        message = f"{kind} setfunction values must be finite"
        with pytest.raises(ValueError, match=f"^{message}$"):
            phi.values
        assert cli.main(["check", json.dumps(spec)]) == 2
        assert capsys.readouterr() == ("", f"malformed input: {message}\n")

    def test_overflowing_conjugate_is_refused_as_a_table(self):
        phi = SetFunction.from_table([0, 1e308, -1e308, 1e308])
        with pytest.raises(ValueError, match="^table values must be finite$"):
            conjugate(phi)


class TestPredicates:
    def test_cut_is_submodular(self, path_cut):
        assert is_submodular(path_cut)

    def test_modular_is_submodular_and_modular(self):
        phi = SetFunction.modular([1, 2, 3])
        assert is_submodular(phi)
        assert is_modular(phi)

    def test_source_takes_no_part_in_equality(self):
        assert Verdict(True, source="construction") == Verdict(True)
        assert hash(Verdict(False, (1, 2), "table")) == hash(Verdict(False, (1, 2)))

    def test_explicit_nonsubmodular_table(self):
        phi = SetFunction.from_table([0, 0, 0, 1])
        verdict = is_submodular(phi)
        assert not verdict
        s, t = verdict.witness
        assert phi(s | t) + phi(s & t) > phi(s) + phi(t) + TOL

    def test_matroid_rank_is_increasing(self):
        assert is_increasing(SetFunction.uniform_matroid(4, 2))

    def test_cut_is_not_increasing(self, path_cut):
        verdict = is_increasing(path_cut)
        assert not verdict
        s, t = verdict.witness
        assert s & t == s  # s subset of t
        assert path_cut(s) > path_cut(t) + TOL

    def test_local_check_matches_pair_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            phi = random_table_setfunction(rng, n)
            assert is_submodular(phi).holds == submodular_by_pairs(phi).holds

    def test_standard_families_submodular(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            phi = random_submodular_setfunction(rng, n)
            assert submodular_by_pairs(phi), phi.kind
            assert is_submodular(phi).source == "construction", phi.kind
            assert is_submodular(SetFunction.from_table(phi.values)), phi.kind


class TestConjugate:
    def test_path_cut_example(self, path_cut):
        assert conjugate(path_cut)(0b001) == pytest.approx(-1.0, abs=TOL)

    def test_modular_self_conjugate(self):
        phi = SetFunction.modular([1, 2, 3])
        star = conjugate(phi)
        assert star.table() == pytest.approx(phi.table(), abs=TOL)

    def test_involution(self, rng):
        for _ in range(20):
            phi = random_table_setfunction(rng, 4)
            twice = conjugate(conjugate(phi))
            assert twice.table() == pytest.approx(phi.table(), abs=TOL)

    def test_preserves_submodularity(self, rng):
        for _ in range(40):
            phi = random_table_setfunction(rng, 4)
            assert is_submodular(phi).holds == is_submodular(conjugate(phi)).holds


class TestJson:
    @pytest.mark.parametrize("maker", [
        lambda: SetFunction.from_table([0, 1, 2, 2.5]),
        lambda: SetFunction.cut(3, [(0, 1, 2.0), (1, 2, 1.0)]),
        lambda: SetFunction.coverage([[0], [0, 1]], [1.0, 3.0]),
        lambda: SetFunction.uniform_matroid(4, 2),
        lambda: SetFunction.partition_matroid([[0, 1], [2]], [1, 1]),
        lambda: SetFunction.modular([1.5, -2.0]),
        lambda: SetFunction.concave_of_modular([1, 2], [(0, 0), (2, 1)]),
    ])
    def test_round_trip(self, maker):
        phi = maker()
        blob = json.dumps(setfunction_to_json(phi))
        back = setfunction_from_json(json.loads(blob))
        assert back.kind == phi.kind
        assert back.table() == pytest.approx(phi.table(), abs=TOL)

    # every kind whose payload fixes the ground-set size
    @pytest.mark.parametrize("obj", [
        {"n": 2, "kind": "table", "payload": {"values": [0, 1, 2, 2.5]}},
        {"n": 2, "kind": "coverage",
         "payload": {"covers": [[0], [0, 1]], "item_weights": [1.0, 3.0]}},
        {"n": 3, "kind": "matroid-rank", "payload": {
            "matroid": "partition", "blocks": [[0, 1], [2]], "capacities": [1, 1]}},
        {"n": 2, "kind": "modular", "payload": {"weights": [1.5, -2.0]}},
        {"n": 2, "kind": "concave-of-modular",
         "payload": {"weights": [1, 2], "breakpoints": [[0, 0], [2, 1]]}},
    ], ids=["table", "coverage", "partition-matroid", "modular",
            "concave-of-modular"])
    def test_n_must_match_the_payload(self, obj):
        assert setfunction_from_json(obj).n == obj["n"]
        for n in (obj["n"] - 1, obj["n"] + 1):
            with pytest.raises(ValueError, match="object says n = "):
                setfunction_from_json({**obj, "n": n})


def _public_callables(module):
    """(name, callable) for the module's own public functions and the
    public methods of its own public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield from ((f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                        if not attr.startswith("_") and callable(getattr(obj, attr)))
        elif callable(obj):
            yield name, obj


class TestTolerance:
    def test_every_tol_default_is_TOL(self):
        # identity, not equality: a literal 1e-9 elsewhere compares equal
        # to TOL but would not follow a change of it
        defaults = {}
        for info in pkgutil.iter_modules(choqkit.__path__):
            if info.name.startswith("_"):
                continue
            module = importlib.import_module(f"choqkit.{info.name}")
            for name, fn in _public_callables(module):
                tol = inspect.signature(fn).parameters.get("tol")
                if tol is not None and tol.default is not tol.empty:
                    defaults[f"{module.__name__}.{name}"] = tol.default
        assert {"choqkit.setfunctions.is_submodular", "choqkit.fubini.FubiniInstance.of",
                "choqkit.intervals.ae_gap", "choqkit.uncrossing.certify_chain_equality",
                "choqkit.variation.ls_decomposition",
                "choqkit.oracles.ae_gap_by_levels"} <= set(defaults)
        assert {name for name, default in defaults.items()
                if default is not setfunctions.TOL} == set()

    def test_cli_tol_default_is_TOL(self):
        assert cli.build_parser().parse_args(["selftest"]).tol is setfunctions.TOL

    # each public function refuses a NaN or infinite tol where it first reads
    # it; such a tol would turn every comparison into a yes or every one into
    # a no, as the CLI's own --tol check already refuses
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda phi, inst, tol: is_submodular(phi, tol),
        lambda phi, inst, tol: is_increasing(phi, tol),
        lambda phi, inst, tol: is_modular(phi, tol),
        lambda phi, inst, tol: variation.submodular_variation_closed_form(phi, tol),
        lambda phi, inst, tol: variation.ls_decomposition(phi, tol),
        lambda phi, inst, tol: fubini.FubiniInstance.of(
            [0.3, 0.3], inst.pi, inst.F, inst.phi, tol=tol),
        lambda phi, inst, tol: fubini.LopsidedResult.of(1.0, 0.0, tol),
        lambda phi, inst, tol: fubini.lopsided_check(inst, tol),
        lambda phi, inst, tol: fubini.lopsided_check_stack([inst], tol),
        lambda phi, inst, tol: fubini.lln_run(inst, 3, tol=tol),
        lambda phi, inst, tol: uncrossing.certify_chain_equality(
            phi, uncrossing.WeightedFamily.of(phi.ground, [(1, 1), (3, 1)]), tol),
        lambda phi, inst, tol: intervals.ae_gap(
            intervals.IntervalSetFunction.point_mass(0.7, 1.0),
            intervals.StepFunction((0.0, 0.5, 1.0), (1.0, 0.0)), tol),
        # the module-level kernel and the pair oracles, which tests call directly
        lambda phi, inst, tol: setfunctions.decrease_witness(phi.values, tol),
        lambda phi, inst, tol: oracles.submodular_by_pairs(phi, tol),
        lambda phi, inst, tol: oracles.modular_by_pairs(phi, tol),
        lambda phi, inst, tol: oracles.increasing_by_pairs(phi, tol),
    ], ids=["is_submodular", "is_increasing", "is_modular",
            "submodular_variation_closed_form", "ls_decomposition", "FubiniInstance.of",
            "LopsidedResult.of", "lopsided_check", "lopsided_check_stack", "lln_run",
            "certify_chain_equality", "ae_gap", "decrease_witness", "submodular_by_pairs",
            "modular_by_pairs", "increasing_by_pairs"])
    def test_a_non_finite_tol_is_refused(self, call, tol):
        supermodular = SetFunction.from_table([0.0, 1.0, 1.0, 5.0])
        inst = fubini.FubiniInstance.of([0.5, 0.5], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]],
                                        SetFunction.cut(2, [(0, 1)]))
        with pytest.raises(ValueError, match="^tol must be finite$"):
            call(supermodular, inst, tol)


class TestRefusals:
    """Each constructor refusal, with its whole message."""

    @pytest.mark.parametrize("build, message", [
        (lambda: GroundSet(0), "ground set size must be in 1..24, got 0"),
        (lambda: GroundSet(25), "ground set size must be in 1..24, got 25"),
        (lambda: GroundSet(2.5), "n must be integers, got 2.5"),
        (lambda: SetFunction.cut(2.5, [[0, 1]]), "n must be integers, got 2.5"),
        (lambda: SetFunction.cut(True, []), "n must be integers, got True"),
        (lambda: SetFunction.uniform_matroid(2.5, 1), "n must be integers, got 2.5"),
        (lambda: SetFunction.from_table([0, 1, 2]), "table length must be 2^n with n >= 1"),
        (lambda: SetFunction.from_table([0]), "table length must be 2^n with n >= 1"),
        (lambda: SetFunction.cut(3, [[0, 1, 2.0, 99.0]]),
         "an edge is [u, v] or [u, v, weight], got [0, 1, 2.0, 99.0]"),
        (lambda: SetFunction.cut(3, [[0]]),
         "an edge is [u, v] or [u, v, weight], got [0]"),
        (lambda: SetFunction.cut(3, [[1, 1, 1.0]]),
         "loops have no cut contribution; remove them"),
        (lambda: SetFunction.coverage([[0], [1]], [1.0, -1.0]),
         "item weights must be nonnegative"),
        (lambda: SetFunction.coverage([[0], [2]], [1.0, 1.0]), "item 2 out of range"),
        (lambda: SetFunction.uniform_matroid(3, 4), "rank must lie in 0..n"),
        (lambda: SetFunction.partition_matroid([[0, 2]], [1]),
         "blocks must partition 0..n-1"),
        (lambda: SetFunction.concave_of_modular([1.0, -1.0], [(0, 0), (1, 1)]),
         "weights must be nonnegative for concave composition"),
        (lambda: SetFunction.concave_of_modular([1.0], [(1, 1), (2, 2)]),
         "breakpoint list must start with (0, 0)"),
        (lambda: SetFunction.concave_of_modular([1.0], [(0, 0), (0, 1)]),
         "breakpoint abscissae must be strictly increasing"),
        (lambda: setfunction_from_json({"n": 2, "kind": "table"}),
         "malformed setfunction object: 'payload'"),
        (lambda: setfunction_from_json({"n": 2, "kind": "lattice", "payload": {}}),
         "unknown setfunction kind 'lattice'"),
        (lambda: setfunction_from_json(
            {"n": 2, "kind": "matroid-rank", "payload": {"matroid": "graphic"}}),
         "unknown matroid family 'graphic'"),
    ])
    def test_refusal(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_integral_float_size_is_read_as_an_int(self):
        assert type(GroundSet(3.0).n) is int
        for build in (lambda n: SetFunction.cut(n, [[0, 1]]),
                      lambda n: SetFunction.uniform_matroid(n, 1)):
            assert build(3.0).values.tobytes() == build(3).values.tobytes()
