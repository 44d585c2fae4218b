import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest

import choqkit
from choqkit import cli, setfunctions
from choqkit import (PreconditionError, SetFunction, conjugate, is_increasing,
                     is_modular, is_submodular, setfunction_from_json,
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


class TestPredicates:
    def test_cut_is_submodular(self, path_cut):
        assert is_submodular(path_cut)

    def test_modular_is_submodular_and_modular(self):
        phi = SetFunction.modular([1, 2, 3])
        assert is_submodular(phi)
        assert is_modular(phi)

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
