"""The experiment scripts: they run end to end and print their tables, and
the welfare table matches its one-profile-at-a-time oracle bit for bit."""

import importlib.util
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peerpred import cli
from peerpred.equilibrium import check_equilibrium, solved_profile
from peerpred.mechanism import MechanismConfig, welfare_metrics
from peerpred.priors import _map_strategy, from_latent, random_snife_prior
from peerpred.strategy import tau_closeness, truth_telling_profile

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


welfare_table = load_script("welfare_table")
bound_sweep = load_script("bound_sweep")
compare_trees_script = load_script("compare_trees")


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


@pytest.mark.parametrize(
    "script, args, message",
    [
        (bound_sweep, ["--ns", "0,4"], "every n of --ns must be at least 2"),
        (bound_sweep, ["--ns", "x"], "--ns must be comma-separated integers, got 'x'"),
        (bound_sweep, ["--m", "1"], "--m must be at least 2"),
        (bound_sweep, ["--samples", "0"], "--samples must be at least 1"),
        (bound_sweep, ["--seed", "-1"], "--seed must be non-negative"),
        (welfare_table, ["--m", "1"], "--m must be at least 2"),
        (welfare_table, ["--n", "1"], "--n must be at least 2"),
        (welfare_table, ["--seed", "-1"], "--seed must be non-negative"),
        (welfare_table, ["--beta", "-1"], "need finite alpha > 0 and beta >= 0, got 1.0, -1.0"),
    ],
)
def test_script_refuses_a_bad_argument(capsys, script, args, message):
    """A usage error, exit 2 and one error line, before any work."""
    with pytest.raises(SystemExit) as exited:
        script.main(args)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f" error: {message}")
    assert "Traceback" not in err


def test_bench_layers_writes_json(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = ["--label", "tiny", "--ns", "4", "--ms", "2", "--mc-ns", "4", "--mc-trials", "200",
            "--io-ns", "4", "--repeats", "2"]  # fmt: skip
    # alone, and paired with this checkout imported a second time as the parent
    for out, extra, labels in (
        (tmp_path / "alone", [], ["tiny"]),
        (tmp_path / "paired", ["--parent", str(ROOT)], ["tiny_before", "tiny_after"]),
    ):
        out.mkdir()
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench_layers.py"), *args, "--out-dir",
             str(out), *extra],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr
        assert sorted(path.name for path in out.iterdir()) == sorted(
            f"BENCH_{label}.json" for label in labels
        )
        records = [json.loads((out / f"BENCH_{label}.json").read_text()) for label in labels]
        trees = ["before", "after"] if extra else ["after"]
        assert all(record["trees"] == trees for record in records)
        keys = ("layer", "profile", "m", "n", "variant")
        cells = [[{k: row[k] for k in keys if k in row} for row in record["rows"]]
                 for record in records]  # fmt: skip
        assert all(cell == cells[0] for cell in cells)
        for record in records:
            check_bench_record(record)


def check_bench_record(record):
    """The rows of one tree in a bench_layers file."""
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
    io_layers = ("save_profile", "load_profile", "cli:solve-predictions",
                 "cli:solve-predictions:csv", "cli:check-eq:csv")  # fmt: skip
    io = [row for row in record["rows"] if row["layer"] in io_layers]
    assert [(row["layer"], row["profile"], row["m"], row["n"]) for row in io] == [
        ("save_profile", "solved", 3, 4),
        ("load_profile", "solved", 3, 4),
        ("cli:solve-predictions", "random", 3, 512),
        ("cli:solve-predictions:csv", "random", 3, 512),
        ("cli:check-eq:csv", "random", 3, 512),
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
    assert sorted((row["profile"], row["m"], row["n"]) for row in audit) == [
        (name, m, n) for name in ("one-deviant", "random") for m in (2, 3) for n in (4, 512)
    ]
    assert all(row["median_s"] > 0 for row in audit)
    assert {(row["variant"], row["profile"]) for row in mc} == {
        (variant, profile)
        for variant in ("truthful", "disagreement")
        for profile in ("truth", "solved")
    }
    assert all(row["m"] == 3 and row["n"] == 4 and row["trials_per_s"] > 0 for row in mc)
    assert all(row["traced_peak_bytes"] > 0 for row in mc)
    timed = [row for row in record["rows"] if not row.get("skipped")]
    assert all(row["minflt_per_call"] >= 0 for row in timed)
    assert any(row["minflt_per_call"] > 0 for row in timed)


def compare_trees(parent, change, *selection):
    """compare_trees.py over one round of ``selection``, by default the tiny
    monte-carlo workload."""
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_trees.py"), str(parent), str(change),
         *(selection or ("--workload", "monte-carlo", "--tiny")), "--rounds", "1"],
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


# The argvs of the comparison steps of CI's stdout-vs-base job before they
# became job sets, with each input file by its name, and of the job sets
# added since ("audits").  The malformed-file step named its seed-7 prior
# latent3.json.
FROZEN_CI_STEPS = {
    "scripts": [  # the welfare table and bound sweep steps
        "welfare_table.py --m 3 --n 3",
        "welfare_table.py --m 4 --n 4 --rule quadratic",
        "bound_sweep.py --m 2 --ns 16,32,64",
        "bound_sweep.py --m 3 --ns 16,32,64",
    ],
    "suite": ["suite"],
    "prior-files": [
        "gen-prior --m 3 --seed 7",
        "validate-prior --in latent.json --format csv",
        "validate-prior --in latent.json --format json",
        "validate-prior --in pairwise.json --format csv",
        "validate-prior --in pairwise.json --format json",
    ],
    "solve": [
        "solve-predictions --prior latent.json --profile profile64.json --beta 10",
        "solve-predictions --prior latent.json --profile profile64.json --beta 1e3",
        "solve-predictions --prior latent.json --profile profile64.json --beta 1e5",
        "solve-predictions --prior latent.json --profile profile64.json --beta 3e6",
        "solve-predictions --prior latent.json --profile profile64.json --beta 1e7",
        "payout --prior latent.json --profile solved64.json --mech truthful.json"
        " --trials 2000 --seed 3",
        "payout --prior latent.json --profile solved64.json --mech disagreement.json"
        " --trials 2000 --seed 3",
    ],
    "tables": [  # the large-n and the solved n = 128 tables-path steps
        "payout --prior latent.json --profile truth --n 512 --mech truthful.json"
        " --trials 10000 --seed 3",
        "payout --prior latent.json --profile truth --n 512 --mech disagreement.json"
        " --trials 10000 --seed 3",
        "payout --prior latent.json --profile solved128.json --mech truthful.json"
        " --trials 12000 --seed 3",
        "payout --prior latent.json --profile solved128.json --mech disagreement.json"
        " --trials 12000 --seed 3",
    ],
    "audits": [
        "audit --prior latent.json --profile solved2048.json",
        "impossibility --prior latent.json --profile solved2048.json --perm 1,0,2",
    ],
    "malformed": [
        "welfare --prior prior-huge.json --profile truth --n 2",
        "welfare --prior prior-nan.json --profile truth --n 2",
        "welfare --prior prior-negative.json --profile truth --n 2",
        "welfare --prior prior-nonstochastic.json --profile truth --n 2",
        "welfare --prior latent.json --profile profile-9-digits.json",
        "welfare --prior latent.json --profile profile-huge.json",
        "welfare --prior latent.json --profile profile-nan.json",
        "welfare --prior latent.json --profile profile-negative.json",
        "check-eq --prior latent.json --profile truth --n 2 --mech mech-unknown-field.json",
    ],
}  # fmt: skip


def test_job_sets_hold_every_ci_step(tmp_path):
    """The job sets hold the frozen argvs, CI runs each job set and
    workload, and every input file that an argv names is written."""
    job_sets = {
        name: sorted(" ".join(job) for job in jobs)
        for name, jobs in compare_trees_script.JOB_SETS.items()
    }
    assert job_sets == {name: sorted(jobs) for name, jobs in FROZEN_CI_STEPS.items()}
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs = re.findall(r"run: python3 scripts/compare_trees\.py parent \. (.*)", workflow)
    assert runs == [
        "--workload exact-large --rounds 1",
        "--workload exact-small --tiny --rounds 1",
        "--workload monte-carlo --rounds 1",
        *(f"--workload {name} --rounds 1" for name in FROZEN_CI_STEPS),
    ]
    compare_trees_script.write_inputs(tmp_path)
    named = {arg for jobs in FROZEN_CI_STEPS.values() for argv in jobs for arg in argv.split()}
    assert {arg for arg in named if arg.endswith(".json")} <= {p.name for p in tmp_path.iterdir()}


def test_compare_trees_refuses_an_unknown_workload():
    """An unknown name ends in a usage error that lists every job set and
    the parent's benchmark workloads, not in a traceback."""
    done = compare_trees(ROOT, ROOT, "--workload", "nope")
    assert done.returncode == 2
    assert "error: unknown --workload 'nope'; choose from " in done.stderr
    names = [*compare_trees_script.JOB_SETS, "exact-large", "exact-small", "monte-carlo"]
    assert all(name in done.stderr for name in names)
    assert "Traceback" not in done.stderr


def test_compare_trees_finds_no_diff_in_a_job_set_against_itself(tmp_path):
    """The smallest job set, run in this process through this tree twice."""
    compare_trees_script.write_inputs(tmp_path)
    tree = (ROOT, cli)
    jobs = compare_trees_script.JOB_SETS["prior-files"]
    diffs, ratios = compare_trees_script.compare(jobs, (tree, tree), tmp_path, 1, warm_up=False)
    assert diffs == [] and len(ratios) == 1


def test_compare_trees_reports_a_changed_error_message(tmp_path):
    """A copy whose prior reader words one refusal differently: the one
    malformed file that meets it differs in stderr alone."""
    old = "marginal is not a probability vector within tolerance"
    change = perturbed_copy(tmp_path, old, "marginal sums past 1", "io.py")
    done = compare_trees(ROOT, change, "--workload", "malformed")
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:5] == [
        "differs: welfare --prior prior-huge.json --profile truth --n 2",
        "  largest |change - parent| of a number: 0.0e+00",
        "  --- parent stderr",
        "  +++ change stderr",
        "  @@ -1 +1 @@",
    ]
    assert lines[5].startswith("  -error: io: invalid prior in ")
    assert lines[5].endswith("/prior-huge.json: " + old)
    assert lines[6] == lines[5].replace("  -", "  +").replace(old, "marginal sums past 1")
    assert lines[7] == "malformed: 9 CLI jobs, 1 with differing output"


def test_compare_trees_goes_on_after_a_crash(tmp_path):
    """A copy whose prior reader raises a ZeroDivisionError, which neither the
    reader nor ``cli.main`` catches: that job differs in stderr, and the set
    still runs to its summary."""
    old = 'raise PriorError("marginal is not a probability vector within tolerance")'
    change = perturbed_copy(tmp_path, old, old.replace("PriorError", "ZeroDivisionError"), "io.py")
    done = compare_trees(ROOT, change, "--workload", "malformed")
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "differs: welfare --prior prior-huge.json --profile truth --n 2"
    assert lines[6] == "  +ZeroDivisionError: marginal is not a probability vector within tolerance"
    assert lines[7] == "malformed: 9 CLI jobs, 1 with differing output"


def perturbed_copy(tmp_path, old, new, module="cli.py"):
    """A copy of the sources whose ``module`` has its one ``old`` replaced by ``new``."""
    shutil.copytree(
        ROOT / "src" / "peerpred",
        tmp_path / "src" / "peerpred",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    path = tmp_path / "src" / "peerpred" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return tmp_path


def test_compare_trees_reports_a_perturbed_copy(tmp_path):
    change = perturbed_copy(tmp_path, '"mean_payment", "stderr"', '"mean_paid", "stderr"')
    done = compare_trees(ROOT, change)
    assert done.returncode == 1, done.stderr
    assert "monte-carlo: 3 CLI jobs, 3 with differing output" in done.stdout
    assert done.stdout.count("differs: payout --prior ") == 3
    assert "-agent,mean_payment,stderr" in done.stdout
    assert "+agent,mean_paid,stderr" in done.stdout
    # the renamed header holds no number, so no number moved
    assert done.stdout.count("  largest |change - parent| of a number: 0.0e+00") == 3


def test_compare_trees_reports_the_largest_moved_number(tmp_path):
    old = "mc.welfare_stderr)"
    change = perturbed_copy(tmp_path, old, old.replace(")", " + 0.25)"))
    done = compare_trees(ROOT, change)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines.count("  largest |change - parent| of a number: 2.5e-01") == 3
    summary = lines.index("monte-carlo: 3 CLI jobs, 3 with differing output")
    overall = "largest |change - parent| of a number over the differing jobs: 2.5e-01"
    assert lines[summary + 1] == overall


def test_compare_trees_tells_a_new_stream(tmp_path):
    """A copy whose only difference is the block generator, Philox keyed by
    (seed, block): every payment table differs, and each row's mean within
    4 combined stderr."""
    old = "rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))"
    new = "rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))"
    change = perturbed_copy(tmp_path, old, new, "mechanism.py")
    done = compare_trees(ROOT, change)
    assert done.returncode == 1, done.stderr
    assert "monte-carlo: 3 CLI jobs, 3 with differing output" in done.stdout
    lines = done.stdout.splitlines()
    assert lines.count("  consistent within 4 combined stderr: yes") == 3
    ratios = [line for line in lines if "of a mean / combined stderr: " in line]
    assert len(ratios) == 3
    assert all(0.0 < float(line.rpartition(" ")[2]) <= 4.0 for line in ratios)


def test_compare_trees_tells_a_broken_estimate(tmp_path):
    """Means moved by 1, about 40 to 400 combined stderr at these trial
    counts: no table is consistent."""
    old = "np.append(mc.mean, mc.welfare_mean)"
    change = perturbed_copy(tmp_path, old, old.replace("mc.mean,", "mc.mean + 1.0,"))
    done = compare_trees(ROOT, change)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines().count("  consistent within 4 combined stderr: no") == 3


def oracle_fixed_points(config, prior, n):
    """The symmetric fixed points map by map: one solved_profile and one
    check_equilibrium per map."""
    m = prior.m
    fixed = {}
    for g in itertools.product(range(m), repeat=m):
        profile = solved_profile(config, prior, [_map_strategy(g)] * n)
        best = check_equilibrium(config, prior, profile).values[0].argmax(axis=-1)
        if tuple(int(r) for r in best) == g:
            fixed[g] = profile
    return fixed


def oracle_rows(config, prior, n, include_dynamics):
    """The welfare table row by row: one welfare_metrics call per profile."""
    profiles = dict(welfare_table.candidate_profiles(prior, n))
    uniform = profiles.pop("uniform")
    profiles["uniform"] = solved_profile(config, prior, uniform.thetas)
    if include_dynamics:
        for g, profile in oracle_fixed_points(config, prior, n).items():
            profiles.setdefault(f"solved:{','.join(map(str, g))}", profile)
    truth_score = welfare_metrics(prior, truth_telling_profile(prior, n)).classification_score
    rows = []
    for name, profile in profiles.items():
        score = welfare_metrics(prior, profile).classification_score
        gap = check_equilibrium(config, prior, profile).max_gap
        closeness = tau_closeness(profile.thetas.mean(axis=0))
        rows.append((name, score, gap, closeness, truth_score - score))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def hexed(rows):
    return [(name, *(float(value).hex() for value in values)) for name, *values in rows]


class TestWelfareTable:
    @pytest.mark.parametrize("m, n", [(2, 2), (2, 4), (3, 3), (3, 4)])
    @pytest.mark.parametrize("dynamics", [True, False])
    def test_rows_match_the_per_row_oracle(self, m, n, dynamics):
        prior = from_latent(random_snife_prior(m, 2, seed=60 + m))
        config = MechanismConfig(1.0, 1.0 / (8.0 * m), "log")
        rows = welfare_table.welfare_comparison(config, prior, n, include_dynamics=dynamics)
        assert hexed(rows) == hexed(oracle_rows(config, prior, n, dynamics))

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 3)])
    def test_fixed_points_match_the_per_map_oracle(self, config, m, n):
        prior = from_latent(random_snife_prior(m, 2, seed=60 + m))
        fixed = welfare_table.symmetric_fixed_points(config, prior, n)
        oracle = oracle_fixed_points(config, prior, n)
        assert list(fixed) == list(oracle)
        for g, (profile, gap) in fixed.items():
            assert profile.thetas.tobytes() == oracle[g].thetas.tobytes()
            assert profile.predictions.tobytes() == oracle[g].predictions.tobytes()
            assert gap.hex() == check_equilibrium(config, prior, oracle[g]).max_gap.hex()

    def test_fixed_points_alike_in_small_stacks(self, monkeypatch, config):
        m, n = 3, 3
        prior = from_latent(random_snife_prior(m, 2, seed=60 + m))
        whole = welfare_table.symmetric_fixed_points(config, prior, n)
        # stacks of two maps, the last one short
        monkeypatch.setattr(welfare_table, "_BLOCK_CELLS", 2 * n * m**3)
        small = welfare_table.symmetric_fixed_points(config, prior, n)
        assert list(small) == list(whole)
        for g, (profile, gap) in small.items():
            assert profile.predictions.tobytes() == whole[g][0].predictions.tobytes()
            assert gap.hex() == whole[g][1].hex()

    def test_ordering_and_ties(self, prior3, config):
        rows = welfare_table.welfare_comparison(config, prior3, n=4, include_dynamics=False)
        by_name = {name: row for name, *row in rows}
        truth_score, truth_gap, truth_closeness, _ = by_name["truth"]
        assert truth_gap <= 1e-12
        assert truth_closeness == 0.0
        for name, (score, gap, _, margin) in by_name.items():
            if name.startswith("permutation:"):
                assert abs(margin) <= 1e-12
                assert gap <= 1e-12
            if name.startswith("constant:") or name == "uniform":
                assert score < truth_score
        # permutations and truth share the top of the table
        top = {name.split(":")[0] for name, *_ in rows[: 1 + 5]}
        assert top <= {"truth", "permutation"}

    def test_counterexample_outranks_truth(self, config):
        prior = from_latent(random_snife_prior(3, 2, seed=33))
        rows = welfare_table.welfare_comparison(config, prior, n=3, include_dynamics=False)
        scores = {name: score for name, score, *_ in rows}
        assert scores["counterexample"] > scores["truth"]
        assert rows[0][0] == "counterexample"

    def test_dynamics_find_truth_as_fixed_point(self, prior2, config):
        fixed = welfare_table.symmetric_fixed_points(config, prior2, n=4)
        assert (0, 1) in fixed  # identity map
        profile, gap = fixed[(0, 1)]
        np.testing.assert_array_equal(profile.thetas, np.broadcast_to(np.eye(2), (4, 2, 2)))
        assert gap <= 1e-12
        rows = welfare_table.welfare_comparison(config, prior2, n=4, include_dynamics=True)
        assert any(name.startswith("solved:") for name, *_ in rows)

    def test_candidate_catalogue(self, prior2):
        named = welfare_table.candidate_profiles(prior2, 2)
        permutations = [k for k in named if k.startswith("permutation:")]
        assert len(permutations) == 1  # identity listed as "truth"
        assert "counterexample" in named  # n == m == 2
        assert "constant:s1" in named and "constant:s2" in named and "uniform" in named
        named4 = welfare_table.candidate_profiles(prior2, 4)
        assert "counterexample" not in named4
