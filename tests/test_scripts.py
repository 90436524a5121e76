"""Smoke tests: the experiment scripts run end to end and print their tables."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("welfare_table.py", ["--m", "3", "--n", "4"], ["profile", "score", "eq gap"]),
        ("bound_sweep.py", ["--m", "2", "--ns", "16,32"], ["n", "max gap", "agg error"]),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    first = done.stdout.splitlines()[0]
    assert all(word in first for word in header)


def test_bench_layers_writes_json(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = ["--label", "tiny", "--ns", "4", "--ms", "2", "--mc-ns", "4", "--mc-trials", "200",
            "--repeats", "2", "--out-dir", str(tmp_path)]  # fmt: skip
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_layers.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    assert {"python", "numpy", "cpu_count"} <= set(record)
    mc = [row for row in record["rows"] if row["layer"] == "monte_carlo_payments"]
    audit = [row for row in record["rows"] if row["layer"] == "aggregation_error_audit"]
    control = [row for row in record["rows"] if row["layer"] == "control"]
    assert len(control) == 1 and control[0]["median_s"] > 0
    exact = [row for row in record["rows"] if row not in mc + audit + control]
    cells = {(row["layer"], row["profile"]) for row in exact}
    layers = (
        "welfare_metrics",
        "check_equilibrium",
        "solve_equilibrium_predictions",
        "classification_bound_audit",
    )
    assert cells == {(layer, profile) for layer in layers for profile in ("truth", "solved")}
    assert all(row["m"] == 2 and row["n"] == 4 and row["median_s"] > 0 for row in exact)
    assert sorted((row["profile"], row["m"]) for row in audit) == [
        (name, m) for name in ("one-deviant", "random") for m in (2, 3)
    ]
    assert all(row["n"] == 4 and row["median_s"] > 0 for row in audit)
    assert {(row["variant"], row["profile"]) for row in mc} == {
        (variant, profile)
        for variant in ("truthful", "disagreement")
        for profile in ("truth", "solved")
    }
    assert all(row["m"] == 3 and row["n"] == 4 and row["trials_per_s"] > 0 for row in mc)
