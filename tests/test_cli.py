import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peerpred.cli import main
from peerpred.io import save_mechanism, save_prior, save_profile
from peerpred.mechanism import MechanismConfig
from peerpred.priors import from_latent, random_snife_prior
from peerpred.strategy import StrategyProfile, truth_telling_profile

SRC = str(Path(__file__).resolve().parents[1] / "src")

EXAMPLE_PRIOR = {
    "signals": ["s1", "s2", "s3"],
    "kind": "pairwise",
    "marginal": [1 / 3, 1 / 3, 1 / 3],
    "conditional": [[0.1, 0.2, 0.3], [0.2, 0.4, 0.6], [0.7, 0.4, 0.1]],
}


@pytest.fixture
def prior_file(tmp_path):
    latent = random_snife_prior(2, 2, seed=3)
    path = tmp_path / "prior.json"
    save_prior(latent, path)
    return str(path)


# stands for a profile file over three signals, against the two-signal prior
M3_PROFILE = "<m3-profile>"


@pytest.fixture
def m3_profile_file(tmp_path):
    path = tmp_path / "profile3.json"
    save_profile(truth_telling_profile(from_latent(random_snife_prior(3, 2, seed=3)), 4), path)
    return str(path)


@pytest.fixture
def mech_file(tmp_path):
    path = tmp_path / "mech.json"
    save_mechanism(MechanismConfig(1.0, 0.03, "log"), path)
    return str(path)


class TestValidatePrior:
    def test_failing_prior_exits_2(self, tmp_path, capsys):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(EXAMPLE_PRIOR))
        code = main(["validate-prior", "--in", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "finegrained,False,0;1" in out

    def test_valid_prior_exits_0(self, prior_file, capsys):
        assert main(["validate-prior", "--in", prior_file]) == 0
        out = capsys.readouterr().out
        assert out.count("True") == 4

    def test_json_format(self, prior_file, capsys):
        assert main(["validate-prior", "--in", prior_file, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["assumption"] for r in rows} == {
            "symmetric",
            "nonzero",
            "informative",
            "finegrained",
        }


class TestGenPrior:
    def test_round_trip_revalidates(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(["gen-prior", "--m", "3", "--seed", "5", "--out", str(out)]) == 0
        assert main(["validate-prior", "--in", str(out)]) == 0
        capsys.readouterr()

    def test_deterministic_output(self, capsys):
        assert main(["gen-prior", "--m", "2", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["gen-prior", "--m", "2", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first


class TestWelfare:
    def test_truth_classification_equals_total_divergence(self, prior_file, mech_file, capsys):
        code = main(
            ["welfare", "--prior", prior_file, "--profile", "truth", "--mech", mech_file]
        )
        assert code == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["classification_score"] == values["total_divergence"]
        assert values["inconsistency"] == "0"

    def test_named_profiles(self, prior_file, mech_file, capsys):
        for spec in ("uniform", "constant:s1", "permutation:1,0", "counterexample"):
            assert (
                main(["welfare", "--prior", prior_file, "--profile", spec, "--mech", mech_file])
                == 0
            )
        capsys.readouterr()

    def test_profile_from_file(self, tmp_path, prior_file, mech_file, capsys):
        prior = from_latent(random_snife_prior(2, 2, seed=3))
        path = tmp_path / "profile.json"
        save_profile(truth_telling_profile(prior, 4), path)
        assert (
            main(["welfare", "--prior", prior_file, "--profile", str(path), "--mech", mech_file])
            == 0
        )
        capsys.readouterr()


class TestCheckEq:
    def test_truth_gaps(self, prior_file, mech_file, capsys):
        code = main(
            [
                "check-eq",
                "--prior",
                prior_file,
                "--profile",
                "truth",
                "--mech",
                mech_file,
                "--eps",
                "1e-12",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "is_eps_equilibrium=True" in captured.err
        assert captured.out.splitlines()[0] == "agent,signal,gap"


class TestPayout:
    def test_exact_rows(self, prior_file, mech_file, capsys):
        assert (
            main(["payout", "--prior", prior_file, "--profile", "truth", "--mech", mech_file])
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "agent,signal,payoff,gap"
        assert len(lines) == 1 + 4 * 2

    def test_monte_carlo_rows(self, prior_file, mech_file, capsys):
        code = main(
            [
                "payout",
                "--prior",
                prior_file,
                "--profile",
                "truth",
                "--mech",
                mech_file,
                "--trials",
                "500",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "agent,mean_payment,stderr"
        assert lines[-1].startswith("average,")

    def test_trials_need_latent_prior(self, tmp_path, mech_file, capsys):
        prior = from_latent(random_snife_prior(2, 2, seed=3))
        path = tmp_path / "pairwise.json"
        save_prior(prior, path)
        code = main(
            [
                "payout",
                "--prior",
                str(path),
                "--profile",
                "truth",
                "--mech",
                mech_file,
                "--trials",
                "10",
            ]
        )
        assert code == 1
        assert "latent" in capsys.readouterr().err


class TestSolvePredictions:
    def test_csv_rows(self, prior_file, mech_file, capsys):
        assert (
            main(
                [
                    "solve-predictions",
                    "--prior",
                    prior_file,
                    "--profile",
                    "uniform",
                    "--mech",
                    mech_file,
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "agent,signal,report,p_s1,p_s2"

    def test_json_profile_reusable(self, tmp_path, prior_file, mech_file, capsys):
        out = tmp_path / "solved.json"
        assert (
            main(
                [
                    "solve-predictions",
                    "--prior",
                    prior_file,
                    "--profile",
                    "uniform",
                    "--mech",
                    mech_file,
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert (
            main(["welfare", "--prior", prior_file, "--profile", str(out), "--mech", mech_file])
            == 0
        )
        capsys.readouterr()


class TestAuditAndImpossibility:
    def test_audit_table(self, prior_file, mech_file, capsys):
        code = main(
            ["audit", "--prior", prior_file, "--profile", "truth", "--mech", mech_file]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("name,lhs,rhs,slack,passed,context")
        assert "classification-bound" in out

    def test_impossibility_table(self, prior_file, capsys):
        code = main(
            ["impossibility", "--prior", prior_file, "--profile", "truth", "--perm", "1,0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "relabeling-step-0" in out and "relabeling-closure" in out
        for line in out.strip().splitlines()[1:]:
            assert ",True," in line


@pytest.fixture
def lone_reporter_files(tmp_path, lone_reporter):
    latent, thetas = lone_reporter
    prior = tmp_path / "prior801.json"
    save_prior(latent, prior)
    profile = tmp_path / "lone.json"
    save_profile(StrategyProfile(thetas, np.full((49, 2, 2, 2), 0.5)), profile)
    return str(prior), str(profile)


class TestLoneReporter:
    def test_solve_predictions_exits_0(self, lone_reporter_files, mech_file, capsys):
        prior, profile = lone_reporter_files
        argv = ["solve-predictions", "--prior", prior, "--profile", profile, "--mech", mech_file]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 49 * 2 * 2

    def test_audit_lhs_finite(self, lone_reporter_files, mech_file, capsys):
        prior, profile = lone_reporter_files
        argv = ["audit", "--prior", prior, "--profile", profile, "--mech", mech_file,
                "--eps", "10", "--format", "json"]  # fmt: skip
        assert main(argv) == 0
        rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)}
        assert math.isfinite(rows["aggregation-error"]["lhs"])
        assert rows["aggregation-error"]["passed"]


class TestSweepN:
    def test_rows_and_bound(self, prior_file, mech_file, capsys):
        code = main(
            [
                "sweep-n",
                "--prior",
                prior_file,
                "--mech",
                mech_file,
                "--n",
                "8,16",
                "--samples",
                "2",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,max_welfare_gap,gamma2,within_bound"
        assert len(lines) == 3
        assert all(line.endswith("True") for line in lines[1:])


class TestErrorsAndDeterminism:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["welfare", "--unknown"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["welfare", "--profile", "constant:zz"],
            ["welfare", "--profile", "constant:7"],
            ["welfare", "--profile", "permutation:1,x"],
            ["impossibility", "--profile", "truth", "--perm", "1,x"],
            ["impossibility", "--profile", "truth", "--perm", "0,1,2"],
            ["sweep-n", "--n", "x"],
            ["sweep-n", "--n", "8,,16"],
            ["sweep-n", "--n", "8", "--samples", "0"],
            ["sweep-n", "--n", "8", "--samples", "-2"],
            ["audit", "--profile", "truth", "--eps", "0"],
            ["payout", "--profile", "truth", "--trials", "0"],
            ["payout", "--profile", "truth", "--trials", "10", "--seed", "-1"],
            ["gen-prior", "--m", "3", "--seed", "-1"],
            ["sweep-n", "--n", "8", "--seed", "-1"],
            ["welfare", "--profile", M3_PROFILE],
            ["check-eq", "--profile", M3_PROFILE],
            ["payout", "--profile", M3_PROFILE],
            ["audit", "--profile", M3_PROFILE],
            ["solve-predictions", "--profile", M3_PROFILE],
        ],
    )
    def test_bad_profile_spec_exits_1(self, prior_file, m3_profile_file, argv, capsys):
        argv = [m3_profile_file if arg == M3_PROFILE else arg for arg in argv]
        assert main([*argv, "--prior", prior_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
    def test_seed_out_of_range_exits_1(self, seed, capsys):
        assert main(["gen-prior", "--m", "3", "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --seed:")
        assert "Traceback" not in err

    def test_usage_error_leaves_parser_intact(self, prior_file, capsys):
        argv = ["payout", "--prior", prior_file, "--profile", "truth", "--trials", "50"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        fresh = subprocess.run(
            [sys.executable, "-m", "peerpred.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert main(["payout", "--prior", prior_file, "--profile"]) == 1
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh.stdout

    def test_flags_override_mechanism_file(self, tmp_path, prior_file, mech_file, capsys):
        argv = ["payout", "--prior", prior_file, "--profile", "uniform"]
        assert main([*argv, "--mech", mech_file, "--alpha", "2", "--rule", "quadratic"]) == 0
        overridden = capsys.readouterr().out
        path = tmp_path / "mech2.json"
        save_mechanism(MechanismConfig(2.0, 0.03, "quadratic"), path)
        assert main([*argv, "--mech", str(path)]) == 0
        assert capsys.readouterr().out == overridden

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["validate-prior", "--in", str(path)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_byte_identical_reruns(self, prior_file, mech_file, capsys):
        argv = [
            "payout",
            "--prior",
            prior_file,
            "--profile",
            "truth",
            "--mech",
            mech_file,
            "--trials",
            "300",
            "--seed",
            "7",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
