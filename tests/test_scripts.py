"""Smoke tests: the experiment scripts run end to end and print their tables."""

import json
import os
import shutil
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
            "--io-ns", "4", "--repeats", "2", "--out-dir", str(tmp_path)]  # fmt: skip
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
    per_m = [row for row in record["rows"] if row.get("n", 0) is None]
    assert sorted((row["layer"], row["profile"], row["m"]) for row in per_m) == [
        ("far_from_permutation_gap", "uniform", 2),
        ("validate_prior", "latent", 2),
    ]
    assert all(row["median_s"] > 0 for row in per_m)
    io_layers = ("save_profile", "load_profile", "cli:solve-predictions")
    io = [row for row in record["rows"] if row["layer"] in io_layers]
    assert [(row["layer"], row["profile"], row["m"], row["n"]) for row in io] == [
        ("save_profile", "solved", 3, 4),
        ("load_profile", "solved", 3, 4),
        ("cli:solve-predictions", "random", 3, 512),
    ]
    assert all(row["median_s"] > 0 for row in io)
    exact = [row for row in record["rows"] if row not in mc + audit + control + per_m + io]
    cells = [(row["layer"], row["profile"]) for row in exact]
    layers = (
        "welfare_metrics",
        "check_equilibrium",
        "solve_equilibrium_predictions",
        "solve_equilibrium_predictions:beta=10",
        "classification_bound_audit",
        "relabeling_cycle_audit",
    )
    assert sorted(cells) == sorted(
        [(layer, profile) for layer in layers for profile in ("truth", "solved")]
        + [("sweep_row", "random")]
    )
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


def compare_trees(parent, change):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_trees.py"), str(parent), str(change),
         "--workload", "monte-carlo", "--tiny", "--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )  # fmt: skip


def test_compare_trees_finds_no_diff_against_itself():
    done = compare_trees(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "monte-carlo: 3 CLI jobs, 0 with differing output"
    assert lines[1].startswith("time ratio change/parent over 1 rounds: median ")


def perturbed_cli(tmp_path, old, new):
    """A copy of the sources whose cli.py has its one ``old`` replaced by ``new``."""
    shutil.copytree(
        ROOT / "src" / "peerpred",
        tmp_path / "src" / "peerpred",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cli = tmp_path / "src" / "peerpred" / "cli.py"
    text = cli.read_text()
    assert text.count(old) == 1
    cli.write_text(text.replace(old, new))
    return tmp_path


def test_compare_trees_reports_a_perturbed_copy(tmp_path):
    change = perturbed_cli(tmp_path, '"agent": i, "mean_payment"', '"agent": i, "mean_paid"')
    done = compare_trees(ROOT, change)
    assert done.returncode == 1, done.stderr
    assert "monte-carlo: 3 CLI jobs, 3 with differing output" in done.stdout
    assert done.stdout.count("differs: payout --prior ") == 3
    assert "-agent,mean_payment,stderr" in done.stdout
    assert "+agent,mean_paid,stderr" in done.stdout
    # the renamed header holds no number, so no number moved
    assert done.stdout.count("  largest |change - parent| of a number: 0.0e+00") == 3


def test_compare_trees_reports_the_largest_moved_number(tmp_path):
    old = '"stderr": mc.welfare_stderr}'
    change = perturbed_cli(tmp_path, old, old.replace("}", " + 0.25}"))
    done = compare_trees(ROOT, change)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines.count("  largest |change - parent| of a number: 2.5e-01") == 3
    summary = lines.index("monte-carlo: 3 CLI jobs, 3 with differing output")
    overall = "largest |change - parent| of a number over the differing jobs: 2.5e-01"
    assert lines[summary + 1] == overall
