"""Tests of the benchmark itself: its checks must catch a wrong result."""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_choqkit()

import gen  # noqa: E402
import run  # noqa: E402
import tasks  # noqa: E402
from checks import Reference  # noqa: E402
from choqkit import oracles, setfunction_from_json  # noqa: E402
from choqkit.setfunctions import Verdict, is_increasing, is_modular  # noqa: E402
from spans import Untraced  # noqa: E402


def _metrics(pass_result):
    latencies, _, failed, _ = pass_result
    out = {"passes": [{"traced": False, "latencies": latencies,
                       "raw": latencies}],
           "attempted": len(latencies), "failed": failed, "peak_rss_mb": 1.0}
    return run.end_to_end([{"setup_s": 0.1, "setup_raw_s": 0.1}], out)


def test_corrupted_result_counts_in_fail_frac(monkeypatch):
    doc = gen.lattice(seed=3, sizes=(4,), large=5)
    inputs = tasks.Inputs(doc, Untraced())
    reference = Reference(doc)
    failures = []

    clean = worker.run_pass(doc, inputs, reference, Untraced(), failures)
    metrics, _ = _metrics(clean)
    assert clean[2] == 0 and metrics["ok_frac"][0] == 1.0, failures

    real = tasks.total_variation
    monkeypatch.setattr(tasks, "total_variation", lambda phi: real(phi) + 1e-6)
    corrupted = worker.run_pass(doc, inputs, reference, Untraced(), failures)
    metrics, notes = _metrics(corrupted)
    variation_tasks = sum(t["kind"] == "variation" for t in doc["tasks"])
    assert corrupted[2] == variation_tasks
    assert metrics["ok_frac"][0] == 1.0 - variation_tasks / len(doc["tasks"])
    assert f"({variation_tasks} of {len(doc['tasks'])} tasks)" in notes["ok_frac"]
    assert any("K(phi)" in f for f in failures)


def test_check_accepts_any_true_witness_and_no_false_one():
    doc = gen.lattice(seed=5, sizes=(4,), large=5)
    key = next(k for k, obj in doc["setfunctions"].items()
               if obj["kind"] == "table")
    phi = setfunction_from_json(doc["setfunctions"][key])
    task = {"phi": key}
    reference = Reference(doc)
    others = (is_increasing(phi), is_modular(phi))
    pairs_witness = oracles.submodular_by_pairs(phi)
    assert not pairs_witness.holds
    assert reference.check(task, (pairs_witness,) + others) is None
    assert reference.check(task, (Verdict(False, (0, 0)),) + others) is not None
    assert reference.check(task, (Verdict(True),) + others) is not None


def test_refuses_optimised_interpreter():
    proc = subprocess.run([sys.executable, "-O", str(HERE / "run.py"),
                           "--workload", "selftest"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "refusing" in proc.stderr and "correct" not in proc.stdout
