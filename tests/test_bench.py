"""Smoke test of the per-layer bench script at n <= 8: it runs, and the
schema of the BENCH_<k>.json file it writes stays as documented."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("layers", ROOT / "benchmarks" / "layers.py")
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)


LAYERS = {"table build", "from_table", "is_submodular", "is_increasing",
          "total_variation cold", "total_variation warm", "total_variation stacked",
          "max_variation_chain",
          "canonical_decomposition", "ls_decomposition", "conjugate", "choquet",
          "choquet_batch", "choquet_batch stacked", "phi(mask)", "uncross+certify",
          "uniform_continuity_modulus", "lln_run", "choquet_interval",
          "choquet_interval_by_levels", "ae_gap", "concave_of_modular", "concave_of_measure",
          "extend_ui", "extend_ls", "host kernel"}


def test_small_sweep_schema(tmp_path, capsys):
    out = tmp_path / "BENCH_9.json"
    assert max(layers.SMOKE["sizes"] + layers.SMOKE["point_sizes"]) <= 8
    assert layers.main(["--smoke", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}: ")
    doc = json.loads(out.read_text())
    assert set(doc) == {"schema", "rev", "python", "numpy", "nproc", "k",
                        "min_time_s", "sweep_s", "rows"}
    assert doc["schema"] == layers.SCHEMA == 1
    assert isinstance(doc["python"], str) and isinstance(doc["numpy"], str)
    assert isinstance(doc["nproc"], int) and doc["nproc"] >= 1
    assert doc["rev"] is None or isinstance(doc["rev"], str)
    rows = doc["rows"]
    assert {row["layer"] for row in rows} == LAYERS
    for row in rows:
        assert {"layer", "case", "seconds", "calls"} <= set(row)
        assert row["seconds"] > 0 and row["calls"] >= 1
    keys = [(row["layer"], row["case"]) for row in rows]
    assert len(keys) == len(set(keys))
    assert ("choquet", "point cut n=8") in keys and ("phi(mask)", "cut n=2") in keys
    assert all(row["steps"] >= 1 for row in rows if row["layer"] == "uncross+certify")

    assert layers.main(["--compare", str(out), str(out)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[1].split() == ["layer", "case", "a", "b", "b/a"]
    assert len(table) == 2 + len(rows)
    assert all(line.endswith(" 1.00") for line in table[2:])
