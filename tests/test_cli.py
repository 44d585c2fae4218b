import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from choqkit import cli, fubini, selftest, uncrossing, variation
from choqkit.setfunctions import GroundSet, setfunction_from_json

PATH_CUT = json.dumps({"n": 3, "kind": "cut",
                       "payload": {"edges": [[0, 1, 1.0], [1, 2, 1.0]]}})


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "choqkit", *args],
                          capture_output=True, text=True)


class TestCheck:
    def test_path_cut_verdicts(self):
        result = run_cli("check", PATH_CUT)
        assert result.returncode == 0
        assert "submodular: yes" in result.stdout
        assert "increasing: no" in result.stdout
        assert "modular: no" in result.stdout

    def test_json_format(self):
        report = json.loads(run_cli("--format", "json", "check", PATH_CUT).stdout)
        assert report == {
            "submodular": {"holds": True, "witness": None, "source": "construction"},
            "increasing": {"holds": False, "witness": [2, 3], "source": "table"},
            "modular": {"holds": False, "witness": [1, 2], "source": "table"}}

    @pytest.mark.parametrize("edges", [[[0, 1, 2.0, 99.0]], [[0, 1], [1]], [[]]])
    def test_cut_edge_must_be_a_pair_or_a_triple(self, capsys, edges):
        # an edge with a fourth entry is refused, not read as [u, v, weight]
        obj = {"n": 3, "kind": "cut", "payload": {"edges": edges}}
        assert cli.main(["check", json.dumps(obj)]) == 2
        bad = next(edge for edge in edges if len(edge) not in (2, 3))
        assert capsys.readouterr() == (
            "", f"malformed input: an edge is [u, v] or [u, v, weight], got {bad!r}\n")

    def test_concave_g_may_decrease(self, capsys):
        # g rises to 1 and falls back to 0: submodular, not increasing
        obj = {"n": 2, "kind": "concave-of-modular",
               "payload": {"weights": [1, 1], "breakpoints": [[0, 0], [1, 1], [2, 0]]}}
        assert cli.main(["check", json.dumps(obj)]) == 0
        assert capsys.readouterr().out == (
            "submodular: yes (by construction)\nincreasing: no (witness {1}, {0,1})\n"
            "modular: no (witness {0}, {1})\n")

    # rounding puts second differences of a few 1e-9 in these tables, which
    # the table pass reads as violations; the payload decides exactly
    @pytest.mark.parametrize("obj", [
        {"n": 4, "kind": "cut", "payload": {"edges": [
            [0, 2, 8604341.2], [0, 3, 9559206.8], [1, 2, 9427978.6], [1, 3, 3161218.0]]}},
        *({"n": 10, "kind": "concave-of-modular", "payload": {
            "weights": np.random.default_rng(seed).uniform(1e6, 1e7, 10).tolist(),
            "breakpoints": [[0, 0], [1e7, 2e7], [3e7, 3e7], [6e7, 3.5e7]]}}
          for seed in range(3))])
    def test_large_weights_are_submodular_by_construction(self, capsys, obj):
        assert cli.main(["check", json.dumps(obj)]) == 0
        assert capsys.readouterr().out.startswith("submodular: yes (by construction)\n")


class TestChoquetEval:
    def test_value(self):
        result = run_cli("--format", "json", "choquet-eval", PATH_CUT,
                         "--function", "[0.5, 1, 0]")
        assert result.returncode == 0
        assert json.loads(result.stdout)["value"] == pytest.approx(1.5)

    def test_chain_csv(self):
        result = run_cli("choquet-eval", PATH_CUT,
                         "--function", "[0.5, 1, 0]", "--chain")
        assert result.stdout.splitlines() == [
            "threshold,mask,phi,contribution",
            "1.0,2,2.0,1.0",
            "0.5,3,1.0,0.5",
            "0.0,7,0.0,0.0",
            "choquet value: 1.5",
        ]


ONE_ELEMENT = json.dumps({"n": 1, "kind": "modular", "payload": {"weights": [2.0]}})


class TestChoquetEvalChain:
    """The level-chain rows of `choquet-eval --chain`, byte for byte."""

    @pytest.mark.parametrize("phi, f, csv, value", [
        (PATH_CUT, "[1, 0.5, 1]",  # a tie: one row for both 1s
         ["1.0,5,2.0,1.0", "0.5,7,0.0,0.0"], "1.0"),
        (PATH_CUT, "[0.0, 0.5, -0.0]",  # 0.0 and -0.0 tie; the first one's sign stays
         ["0.5,2,2.0,1.0", "0.0,7,0.0,0.0"], "1.0"),
        (PATH_CUT, "[-0.0, 0.5, 0.0]",
         ["0.5,2,2.0,1.0", "-0.0,7,0.0,-0.0"], "1.0"),
        (PATH_CUT, "[-1, 0.5, -2]",  # the rows are f's own levels, unshifted
         ["0.5,2,2.0,3.0", "-1.0,3,1.0,1.0", "-2.0,7,0.0,-0.0"], "4.0"),
        (ONE_ELEMENT, "[-3]", ["-3.0,1,2.0,-6.0"], "-6.0"),
    ], ids=["ties", "zero-then-minus-zero", "minus-zero-then-zero", "negative", "n=1"])
    def test_rows_are_pinned(self, capsys, phi, f, csv, value):
        argv = ["choquet-eval", phi, "--function", f, "--chain"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "threshold,mask,phi,contribution", *csv, f"choquet value: {value}"]
        assert cli.main(["--format", "json", *argv]) == 0
        # JSON writes each float as the CSV's repr does
        chain = ", ".join('{"threshold": %s, "mask": %s, "phi": %s, "contribution": %s}'
                          % tuple(row.split(",")) for row in csv)
        assert capsys.readouterr().out == f'{{"value": {value}, "chain": [{chain}]}}\n'


class TestVariationAndDecompose:
    def test_variation(self):
        result = run_cli("--format", "json", "variation", PATH_CUT)
        report = json.loads(result.stdout)
        assert report["variation"] == pytest.approx(4.0)
        assert report["chain"][0] == 0 and report["chain"][-1] == 7

    @pytest.mark.parametrize("obj", [PATH_CUT, json.dumps(
        {"n": 3, "kind": "table", "payload": {"values": [0, 1, 1, 2, 1, 2, 0, 0]}})])
    def test_variation_makes_the_calls_the_benchmark_times(self, monkeypatch, capsys, obj):
        # perfbench's `variation` task stands for this subcommand: both make
        # the same public calls in the same order
        spec = importlib.util.spec_from_file_location(
            "perfbench_tasks", Path(__file__).parents[1] / "perfbench" / "tasks.py")
        tasks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tasks)
        timed = []

        class Recorder:
            def call(self, name, fn, *args):
                timed.append(name.rpartition(".")[2])
                return fn(*args)

        inputs = SimpleNamespace(phi={"phi": setfunction_from_json(json.loads(obj))})
        tasks.variation(inputs, {"phi": "phi"}, Recorder())
        calls = []
        for name in ("total_variation", "max_variation_chain"):
            monkeypatch.setattr(cli, name, lambda phi, name=name, fn=getattr(variation, name):
                                calls.append(name) or fn(phi))
        assert cli.main(["variation", obj]) == 0
        assert calls == timed == ["total_variation", "max_variation_chain"]
        assert capsys.readouterr().out.startswith("total variation: ")

    def test_decompose(self):
        # the path cut's values are small integers, so every entry is exact
        result = run_cli("decompose", PATH_CUT)
        assert result.returncode == 0
        assert result.stdout == (
            '{"mu": [0.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0], '
            '"nu": [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 2.0], "variation": 4.0}\n')


class TestUncross:
    def test_trace_and_final_chain(self):
        family = json.dumps({"n": 3, "entries": [[3, 1], [6, 1]]})
        result = run_cli("uncross", family, "--phi", PATH_CUT)
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("step,mask_a,mask_b")
        assert "final chain: [[2, 1], [7, 1]]" in result.stdout

    @pytest.mark.parametrize("entries", [[[3, 1.5], [6.9, 1]], [[3, 1], [6.5, 1]]])
    def test_non_integral_entries_exit_2(self, entries):
        result = run_cli("uncross", json.dumps({"n": 3, "entries": entries}))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "must be integers" in result.stderr

    FAMILY = json.dumps({"n": 3, "entries": [[3, 1], [6, 1]]})

    def test_csv_is_pinned(self, capsys):
        assert cli.main(["uncross", self.FAMILY, "--phi", PATH_CUT]) == 0
        assert capsys.readouterr().out == (
            "step,mask_a,mask_b,potential_before,potential_after,"
            "phi_sum_before,phi_sum_after\n"
            "0,3,6,8,10,2.0,2.0\n"
            "final chain: [[2, 1], [7, 1]]\n"
            "h: [1.0, 2.0, 1.0]\n")

    def test_json_format(self, capsys):
        assert cli.main(["--format", "json", "uncross", self.FAMILY]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["steps", "final_chain", "h"]
        assert report["steps"] == [{
            "step": 0, "mask_a": 3, "mask_b": 6, "potential_before": 8,
            "potential_after": 10, "phi_sum_before": None, "phi_sum_after": None}]
        assert report["final_chain"] == [[2, 1], [7, 1]]
        assert report["h"] == [1.0, 2.0, 1.0]

    def test_json_phi_sums(self, capsys):
        assert cli.main(["--format", "json", "uncross", self.FAMILY,
                         "--phi", PATH_CUT]) == 0
        step, = json.loads(capsys.readouterr().out)["steps"]
        assert (step["phi_sum_before"], step["phi_sum_after"]) == (2.0, 2.0)

    def test_phi_on_another_ground_set_exits_3(self):
        result = run_cli("uncross", self.FAMILY, "--phi",
                         PATH_CUT.replace('"n": 3', '"n": 4'))
        assert result.returncode == 3
        assert "precondition violation" in result.stderr

    def test_determinism(self):
        family = json.dumps({"n": 4, "entries": [[3, 2], [6, 1], [12, 1], [9, 1]]})
        first = run_cli("uncross", family, "--phi", PATH_CUT.replace('"n": 3', '"n": 4'))
        second = run_cli("uncross", family, "--phi", PATH_CUT.replace('"n": 3', '"n": 4'))
        assert first.stdout == second.stdout


class TestIntervalChoquet:
    def test_unknown_kind_exits_2(self, capsys):
        argv = ["interval-choquet", INTERVAL.replace('"point-mass"', '"gaussian"')]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "malformed input: unknown interval setfunction kind 'gaussian'\n")

    def test_value(self):
        payload = json.dumps({
            "phi": {"kind": "concave-of-measure",
                    "breakpoints": [[0.0, 0.0], [0.25, 0.5], [1.0, 1.0]]},
            "f": {"breakpoints": [0.0, 0.25, 1.0], "values": [1.0, 0.0]},
        })
        result = run_cli("--format", "json", "interval-choquet", payload)
        assert json.loads(result.stdout)["value"] == pytest.approx(0.5)


class TestFubini:
    PAYLOAD = json.dumps({
        "lambda": [0.5, 0.5],
        "pi": [1 / 3, 1 / 3, 1 / 3],
        "F": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
        "phi": {"n": 3, "kind": "matroid-rank",
                "payload": {"matroid": "uniform", "rank": 2}},
    })

    def test_summary(self):
        result = run_cli("fubini", self.PAYLOAD)
        assert result.returncode == 0
        assert "lhs,rhs,slack,holds" in result.stdout

    def test_trace_determinism(self):
        first = run_cli("fubini", self.PAYLOAD, "--steps", "50", "--seed", "9")
        second = run_cli("fubini", self.PAYLOAD, "--steps", "50", "--seed", "9")
        assert first.stdout == second.stdout
        assert first.stdout.splitlines()[0] == "k,what_f_k,running_avg,what_h_k,norm_h_k"

    def test_steps_csv_is_pinned(self, capsys):
        # every field is a Python int or float repr, never a numpy scalar's
        assert cli.main(["fubini", self.PAYLOAD, "--steps", "3"]) == 0
        assert capsys.readouterr().out == (
            "k,what_f_k,running_avg,what_h_k,norm_h_k\n"
            "1,2.0,2.0,0.0,0.5\n"
            "2,1.0,1.5,0.0,0.0\n"
            "3,1.0,1.3333333333333333,0.33333333333333337,0.16666666666666669\n"
            "lhs,rhs,slack,holds\n"
            "1.0,1.5,0.5,True\n")

    @pytest.mark.parametrize("steps", ["0", "3"])
    def test_json_output(self, capsys, steps):
        assert cli.main(["--format", "json", "fubini", self.PAYLOAD, "--steps", steps]) == 0
        out = json.loads(capsys.readouterr().out)
        keys = ["lhs", "rhs", "slack", "holds"] + (["steps"] if steps == "3" else [])
        assert list(out) == keys
        assert (out["lhs"], out["rhs"], out["slack"], out["holds"]) == (1.0, 1.5, 0.5, True)
        if steps == "3":  # the --steps CSV, one object per row, keyed by its columns
            assert out["steps"][2] == {"k": 3, "what_f_k": 1.0,
                                       "running_avg": 1.3333333333333333,
                                       "what_h_k": 0.33333333333333337,
                                       "norm_h_k": 0.16666666666666669}
            assert [row["k"] for row in out["steps"]] == [1, 2, 3]

    def test_force_flag_allows_bad_phi(self):
        payload = json.dumps({
            "lambda": [1.0], "pi": [0.5, 0.5], "F": [[0.0, 1.0]],
            "phi": {"n": 2, "kind": "table", "payload": {"values": [0, 0, 0, 1]}},
        })
        rejected = run_cli("fubini", payload)
        assert rejected.returncode == 3
        forced = run_cli("fubini", payload, "--force")
        assert forced.returncode == 0

    @pytest.mark.parametrize("steps", ["0", "5"])
    def test_exact_inequality_evaluated_once(self, monkeypatch, capsys, steps):
        calls = []
        original = fubini.lopsided_check

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fubini, "lopsided_check", counting)
        monkeypatch.setattr(cli, "lopsided_check", counting)
        assert cli.main(["fubini", self.PAYLOAD, "--steps", steps]) == 0
        assert len(calls) == 1
        summary = capsys.readouterr().out.splitlines()[-2:]
        assert summary[0] == "lhs,rhs,slack,holds"
        assert summary[1].endswith(",True")


class TestExitCodes:
    def test_malformed_json(self):
        assert run_cli("check", "{not json").returncode == 2

    def test_schema_error(self):
        assert run_cli("check", '{"n": 2, "kind": "bogus", "payload": {}}'
                       ).returncode == 2

    def test_n_disagreeing_with_the_payload(self):
        wrong_n = {"n": 5, "kind": "modular", "payload": {"weights": [1, 2]}}
        assert run_cli("check", json.dumps(wrong_n)).returncode == 2

    def test_precondition_violation(self):
        bad = json.dumps({"n": 2, "kind": "table",
                          "payload": {"values": [1, 0, 0, 0]}})
        assert run_cli("check", bad).returncode == 3

    def test_forced_steps_violation_exits_1_without_traceback(self):
        payload = json.dumps({
            "lambda": [0.5, 0.5], "pi": [0.5, 0.5], "F": [[1, 0], [0, 1]],
            "phi": {"n": 2, "kind": "table", "payload": {"values": [0, 0, 0, 1]}},
        })
        result = run_cli("fubini", payload, "--force", "--steps", "5")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr == ("inequality violation: finite subadditivity "
                                 "bound violated at step 2\n")

    def test_steps_over_the_trace_budget(self, monkeypatch, capsys):
        # 48 bytes per step: four steps fit, five do not
        monkeypatch.setattr(fubini, "_LLN_BUDGET", 4 * 48)
        assert cli.main(["fubini", TestFubini.PAYLOAD, "--steps", "4"]) == 0
        assert cli.main(["fubini", TestFubini.PAYLOAD, "--steps", "5"]) == 3
        assert "lln_run with steps=5 needs about 240 bytes" in capsys.readouterr().err


INTERVAL = json.dumps({"phi": {"kind": "point-mass", "location": 0.5, "mass": 1.0},
                       "f": {"breakpoints": [0.0, 0.4, 1.0], "values": [0.2, 0.9]}})


class TestJsonIntegers:
    HUGE = 10 ** 400  # an integer literal past float64's range

    @pytest.mark.parametrize("argv", [
        ["check", json.dumps({"n": 2, "kind": "modular", "payload": {"weights": [1, HUGE]}})],
        ["choquet-eval", PATH_CUT, "--function", json.dumps([0, HUGE, 0])],
        ["fubini", TestFubini.PAYLOAD.replace("[0.0, 1.0, 0.0]", f"[0, {HUGE}, 0]")],
        ["interval-choquet", INTERVAL.replace("[0.2, 0.9]", f"[0.2, {HUGE}]")],
        ["uncross", json.dumps({"n": 3, "entries": [[1, HUGE]]})],
    ], ids=lambda argv: argv[0])
    def test_huge_integers_are_non_finite(self, capsys, argv):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "non-finite number 10000000... (401 digits)" in err

    UNIFORM = {"n": 3, "kind": "matroid-rank", "payload": {"matroid": "uniform", "rank": 2}}
    PARTITION = {"n": 3, "kind": "matroid-rank",
                 "payload": {"matroid": "partition", "blocks": [[0, 1], [2]],
                             "capacities": [1, 1]}}

    @pytest.mark.parametrize("command, obj", [
        ("check", {**UNIFORM, "n": 3.5}),
        ("check", {**UNIFORM, "n": "3"}),
        ("check", {**UNIFORM, "payload": {"matroid": "uniform", "rank": 1.5}}),
        ("check", {**PARTITION, "payload": {**PARTITION["payload"],
                                            "capacities": [1.7, 1]}}),
        ("uncross", {"n": 3.5, "entries": [[3, 1], [6, 1]]}),
        ("uncross", {"n": "3", "entries": [[3, 1], [6, 1]]}),
        ("uncross", {"n": True, "entries": [[1, 1]]}),
        ("uncross", {"n": 3, "entries": [[True, 1], [6, 1]]}),
        ("uncross", {"n": 3, "entries": [[3, True], [6, 1]]}),
    ])
    def test_non_integers_exit_2(self, capsys, command, obj):
        assert cli.main([command, json.dumps(obj)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be integers" in err

    @pytest.mark.parametrize("bad", [True, 0.5], ids=["true", "half"])
    @pytest.mark.parametrize("field, obj", [
        ("edge endpoints", {"n": 3, "kind": "cut", "payload": {"edges": [["BAD", 2, 1.0]]}}),
        ("cover items", {"n": 2, "kind": "coverage",
                         "payload": {"covers": [["BAD"], [0]], "item_weights": [1, 1]}}),
        ("block elements", {**PARTITION, "payload": {**PARTITION["payload"],
                                                     "blocks": [[0, "BAD"], [2]]}}),
    ], ids=["cut", "coverage", "partition"])
    def test_element_indices_exit_2(self, capsys, field, obj, bad):
        # true is element 1 and 0.5 reached a shift before elements were read as integers
        payload = json.dumps(obj).replace('"BAD"', json.dumps(bad))
        assert cli.main(["check", payload]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{field} must be integers, got {bad!r}" in err

    @pytest.mark.parametrize("endpoint", [-1, 3])
    def test_cut_endpoints_out_of_range_exit_3(self, capsys, endpoint):
        # -1 reached a negative shift count before endpoints were range-checked
        obj = {"n": 3, "kind": "cut", "payload": {"edges": [[endpoint, 2, 1.0]]}}
        assert cli.main(["check", json.dumps(obj)]) == 3
        assert f"element {endpoint} out of range for n=3" in capsys.readouterr().err

    @pytest.mark.parametrize("command, obj, integral", [
        ("check", UNIFORM, {**UNIFORM, "n": 3.0, "payload": {"matroid": "uniform",
                                                             "rank": 2.0}}),
        ("check", PARTITION, {**PARTITION, "payload": {**PARTITION["payload"],
                                                       "capacities": [1.0, 1]}}),
        ("uncross", {"n": 3, "entries": [[3, 1], [6, 1]]},
         {"n": 3.0, "entries": [[3.0, 1], [6, 1.0]]}),
    ])
    def test_integral_floats_are_integers(self, capsys, command, obj, integral):
        outputs = [(cli.main([command, json.dumps(o)]), capsys.readouterr().out)
                   for o in (obj, integral)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0


class TestNumericFlags:
    NON_SUBMODULAR = json.dumps({"n": 2, "kind": "table",
                                 "payload": {"values": [0, 1, 1, 5]}})

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_tol_must_be_finite_and_nonnegative(self, capsys, tol):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([f"--tol={tol}", "check", self.NON_SUBMODULAR])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --tol: must be finite and >= 0" in err

    def test_tol_zero_is_allowed(self, capsys):
        modular = json.dumps({"n": 2, "kind": "modular", "payload": {"weights": [1, 1]}})
        assert cli.main(["--tol", "0", "check", modular]) == 0
        assert capsys.readouterr().out == (
            "submodular: yes (by construction)\nincreasing: yes (by construction)\n"
            "modular: yes (by construction)\n")
        # its table takes tol = 0 to the kernels
        table = json.dumps({"n": 2, "kind": "table", "payload": {"values": [0, 1, 1, 2]}})
        assert cli.main(["--tol", "0", "check", table]) == 0
        assert capsys.readouterr().out == "submodular: yes\nincreasing: yes\nmodular: yes\n"

    def test_negative_steps(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fubini", TestFubini.PAYLOAD, "--steps=-3"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --steps: must be finite and >= 0" in err

    def test_negative_fubini_seed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fubini", TestFubini.PAYLOAD, "--seed", "-1"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --seed: must be finite and >= 0" in err

    @pytest.mark.parametrize("seed", ["-2", "-10"])
    def test_selftest_seed_below_minus_one(self, capsys, seed):
        # criterion k runs at seed + k, and numpy refuses a negative seed
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["selftest", "--seed", seed])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --seed: must be finite and >= -1" in err

    def test_selftest_seed_minus_one_is_allowed(self):
        assert cli.build_parser().parse_args(["selftest", "--seed", "-1"]).seed == -1


class TestUncrossBudget:
    FAMILY = json.dumps({"n": 4, "entries": [[1, 2], [2, 2], [4, 2], [8, 2]]})

    def _trace_bytes(self):
        trace = uncrossing.uncross(uncrossing.WeightedFamily.of(
            GroundSet(4), json.loads(self.FAMILY)["entries"]))
        return len(trace.steps), uncrossing._STEP_BYTES * len(trace.steps)

    def test_stops_at_the_budget_and_names_the_steps(self, monkeypatch, capsys):
        steps, size = self._trace_bytes()
        monkeypatch.setattr(uncrossing, "_UNCROSS_BUDGET", size)
        assert cli.main(["uncross", self.FAMILY]) == 0
        capsys.readouterr()
        monkeypatch.setattr(uncrossing, "_UNCROSS_BUDGET", size - 1)
        assert cli.main(["uncross", self.FAMILY]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"precondition violation: uncross stopped after {steps - 1} steps: "
                       f"one more needs about {size} bytes, over its budget of "
                       f"{size - 1} bytes\n")

    def test_a_chain_runs_whatever_its_multiplicities(self, monkeypatch, capsys):
        monkeypatch.setattr(uncrossing, "_UNCROSS_BUDGET", 0)
        chain = json.dumps({"n": 3, "entries": [[1, 10 ** 7], [3, 10 ** 7], [7, 1]]})
        assert cli.main(["--format", "json", "uncross", chain]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["steps"] == []
        assert report["final_chain"] == [[1, 10 ** 7], [3, 10 ** 7], [7, 1]]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _passing(rng, seed):
    return f"drew {rng.integers(10)} at seed {seed}"


def _failing(rng, seed):
    raise AssertionError("deliberate failure")


EVERY_SUBCOMMAND = {
    "check": ["check", PATH_CUT],
    "choquet-eval": ["choquet-eval", PATH_CUT, "--function", "[0.5, 1, 0]", "--chain"],
    "variation": ["variation", PATH_CUT],
    "decompose": ["decompose", PATH_CUT],
    "uncross": ["uncross", TestUncross.FAMILY, "--phi", PATH_CUT],
    "interval-choquet": ["interval-choquet", INTERVAL],
    "fubini": ["fubini", TestFubini.PAYLOAD, "--steps", "3"],
    "selftest": ["selftest", "--seed", "5"],
}


class TestJsonFormat:
    @pytest.fixture(autouse=True)
    def short_selftest(self, monkeypatch):
        monkeypatch.setattr(selftest, "CRITERIA", (
            selftest._criterion(1, "passes")(_passing),
            selftest._criterion(2, "passes too")(_passing)))

    @staticmethod
    def _run(capsys, argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        return code, out

    @pytest.mark.parametrize("command", sorted(EVERY_SUBCOMMAND))
    def test_stdout_is_one_json_object(self, capsys, command):
        argv = EVERY_SUBCOMMAND[command]
        code, out = self._run(capsys, ["--format", "json", *argv])
        assert out.endswith("}\n") and out.count("\n") == 1
        assert isinstance(json.loads(out, parse_constant=_refuse_constant), dict)
        assert code == 0 == self._run(capsys, argv)[0]

    def test_choquet_chain_rows_are_the_csv_rows(self, capsys):
        argv = EVERY_SUBCOMMAND["choquet-eval"]
        report = json.loads(self._run(capsys, ["--format", "json", *argv])[1])
        csv = self._run(capsys, argv)[1].splitlines()
        assert list(report) == ["value", "chain"]
        assert ",".join(report["chain"][0]) == csv[0]
        assert [",".join(map(repr, row.values())) for row in report["chain"]] == csv[1:-1]
        assert csv[-1] == f"choquet value: {report['value']!r}"

    @pytest.mark.parametrize("second", [_passing, _failing])
    def test_selftest_criteria(self, monkeypatch, capsys, second):
        monkeypatch.setattr(selftest, "CRITERIA", (
            selftest._criterion(1, "passes")(_passing),
            selftest._criterion(2, "second")(second)))
        code, out = self._run(capsys, ["--format", "json", "selftest", "--seed", "5"])
        report = json.loads(out)
        assert list(report) == ["passed", "criteria"]
        assert report["passed"] is (second is _passing) is (code == 0)
        first, other = report["criteria"]
        for index, criterion in enumerate(report["criteria"], start=1):
            assert list(criterion) == ["index", "name", "seed", "passed",
                                       "seconds", "detail"]
            assert (criterion["index"], criterion["seed"]) == (index, 5 + index)
        assert first["passed"] and first["detail"].endswith("at seed 6")
        assert other["passed"] is (second is _passing)
        if second is _failing:
            assert other["detail"] == "deliberate failure"


OVERFLOWING_TABLE = json.dumps({"n": 2, "kind": "table",
                                "payload": {"values": [0, 1e308, -1e308, 0]}})


class TestNonFiniteResults:
    """Finite input whose result overflows float64 exits 2, as non-finite input does."""

    @pytest.mark.parametrize("form", ["human", "json"])
    @pytest.mark.parametrize("argv, result", [
        (["choquet-eval", '{"n": 2, "kind": "modular", "payload": {"weights": [1, 1]}}',
          "--function", "[1e308, -1e308]"], "nan"),
        (["variation", OVERFLOWING_TABLE], "inf"),
        (["decompose", OVERFLOWING_TABLE], "inf"),
        (["interval-choquet", json.dumps({
            "phi": {"kind": "point-mass", "location": 0.7, "mass": 1.0},
            "f": {"breakpoints": [0, 0.5, 1], "values": [1e308, -1e308]}})], "nan"),
    ], ids=["choquet-eval", "variation", "decompose", "interval-choquet"])
    def test_exits_2(self, capsys, form, argv, result):
        # no mark lets a RuntimeWarning pass: tier-1 turns one into an error,
        # and stderr must hold the refusal alone
        assert cli.main(["--format", form, *argv]) == 2
        assert capsys.readouterr() == (
            "", f"malformed input: non-finite result {result}: float64 overflowed\n")
