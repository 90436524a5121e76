import contextlib
import csv
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import equilibrium_rows
import peerpred
from peerpred import cli
from peerpred.cli import CliError, main
from peerpred.equilibrium import check_equilibrium, solved_profile
from peerpred.io import (
    json_text,
    load_prior,
    load_profile,
    pairwise_from_loaded,
    prior_to_dict,
    profile_to_dict,
    save_mechanism,
    save_prior,
    save_profile,
)
from peerpred.mechanism import MechanismConfig, welfare_metrics
from peerpred.priors import from_latent, random_snife_prior
from peerpred.strategy import StrategyProfile, random_signal_strategies, truth_telling_profile

SRC = str(Path(__file__).resolve().parents[1] / "src")

EXAMPLE_PRIOR = {
    "signals": ["s1", "s2", "s3"],
    "kind": "pairwise",
    "marginal": [1 / 3, 1 / 3, 1 / 3],
    "conditional": [[0.1, 0.2, 0.3], [0.2, 0.4, 0.6], [0.7, 0.4, 0.1]],
}

# a pairwise prior whose joint is not PSD, and a profile under which agent 0's
# prediction block for report s1 is singular at alpha = 1, beta = 1.25
SINGULAR_PRIOR = {
    "signals": ["s1", "s2"],
    "kind": "pairwise",
    "marginal": [0.5, 0.5],
    "conditional": [[0.1, 0.9], [0.9, 0.1]],
}
SINGULAR_PROFILE = profile_to_dict(
    StrategyProfile(
        np.array([[[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]]), np.full((2, 2, 2, 2), 0.5)
    )
)


@pytest.fixture
def prior_file(tmp_path):
    latent = random_snife_prior(2, 2, seed=3)
    path = tmp_path / "prior.json"
    save_prior(latent, path)
    return str(path)


# placeholders for the input files of `bad_files`: a profile file over three
# signals (against the two-signal prior), profiles, priors and a mechanism
# holding a NaN, pairwise priors that are not probabilities, priors whose
# signals are a string or numbers, a mechanism with fractional group
# indices, a JSON number and an output path in a missing directory
M3_PROFILE = "<m3-profile>"
NAN_THETA = "<nan-theta>"
NAN_PREDICTION = "<nan-prediction>"
NAN_LATENT = "<nan-latent>"
NAN_PAIRWISE = "<nan-pairwise>"
OFF_MARGINAL = "<off-marginal>"
NEGATIVE_CONDITIONAL = "<negative-conditional>"
NAN_MECH = "<nan-mech>"
STRING_LABELS = "<string-labels>"
NUMBER_LABELS = "<number-labels>"
FRACTIONAL_GROUP = "<fractional-group>"
JSON_NUMBER = "<json-number>"
# an integer literal of 401 digits, too large for a double
BIG = 10**400
OUT_IN_MISSING_DIR = "<out-in-missing-dir>"
# and for the valid prior file of `prior_file`, where an argv names it itself
PRIOR = "<prior>"


@pytest.fixture
def bad_files(tmp_path):
    prior = from_latent(random_snife_prior(2, 2, seed=3))
    truth = profile_to_dict(truth_telling_profile(prior, 4))
    nan_theta = json.loads(json.dumps(truth))
    nan_theta["agents"][2]["theta"][1][0] = math.nan
    nan_prediction = json.loads(json.dumps(truth))
    nan_prediction["agents"][0]["predictions"][0][0][1] = math.nan
    latent = prior_to_dict(random_snife_prior(2, 2, seed=3))
    contents = {
        NAN_THETA: nan_theta,
        NAN_PREDICTION: nan_prediction,
        NAN_LATENT: {**latent, "state_probs": [math.nan, 0.5]},
        NAN_PAIRWISE: {**prior_to_dict(prior), "conditional": [[math.nan, 0.3], [0.3, 0.7]]},
        # columns [0.7, 0.3] and [0.2, 0.8] under a marginal summing to 1.8
        OFF_MARGINAL: {
            **prior_to_dict(prior),
            "marginal": [0.9, 0.9],
            "conditional": [[0.7, 0.2], [0.3, 0.8]],
        },
        NEGATIVE_CONDITIONAL: {**prior_to_dict(prior), "conditional": [[1.2, 0.3], [-0.2, 0.7]]},
        NAN_MECH: {"alpha": 1.0, "beta": math.nan},
        # two labels each, as the prior has signals: read as labels, they load
        STRING_LABELS: {**latent, "signals": "ab"},
        NUMBER_LABELS: {**latent, "signals": [1, 2]},
        FRACTIONAL_GROUP: {"variant": "disagreement", "groupA": [0.5, 1.7]},
        JSON_NUMBER: 7,
    }
    paths = {OUT_IN_MISSING_DIR: str(tmp_path / "missing" / "out.csv")}
    for key, data in contents.items():
        paths[key] = str(tmp_path / f"{key.strip('<>')}.json")
        Path(paths[key]).write_text(json.dumps(data))
    path = tmp_path / "profile3.json"
    save_profile(truth_telling_profile(from_latent(random_snife_prior(3, 2, seed=3)), 4), path)
    paths[M3_PROFILE] = str(path)
    return paths


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

    def test_asymmetric_joint_named_with_its_witness(self, tmp_path, capsys):
        # q(s1) q(s3|s1) = 0.7/3 but q(s3) q(s1|s3) = 0.3/3: the largest gap
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(EXAMPLE_PRIOR))
        assert main(["validate-prior", "--in", str(path)]) == 2
        assert "\nsymmetric,False,0;2\n" in capsys.readouterr().out

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

    def test_counterexample_takes_m_agents(self, tmp_path, capsys):
        """``--n`` defaults to m for counterexample, and any other n is
        refused with the profile's own error."""
        path = tmp_path / "prior.json"
        save_prior(random_snife_prior(3, 2, seed=1), path)
        argv = ["payout", "--prior", str(path), "--profile", "counterexample"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0"] * 3 + ["1"] * 3 + ["2"] * 3
        assert main([*argv, "--n", "4"]) == 1
        assert capsys.readouterr().err == (
            "error: strategy: this profile needs one agent per signal (n = m), got n=4, m=3\n"
        )

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

    @pytest.mark.parametrize("eps, verdict", [("3.6e-05", False), ("3.7e-05", True)])
    def test_status_line_compares_eps_with_max_gap(
        self, tmp_path, prior_file, mech_file, capsys, eps, verdict
    ):
        """A solved random profile's max gap is 3.646e-05: an --eps just below
        it is not an equilibrium, one just above it is."""
        prior = pairwise_from_loaded(load_prior(prior_file))
        thetas = random_signal_strategies(np.random.default_rng(0), 2, (6,))
        profile = tmp_path / "profile.json"
        save_profile(solved_profile(MechanismConfig(1.0, 0.03, "log"), prior, thetas), profile)
        argv = ["check-eq", "--prior", prior_file, "--profile", str(profile), "--mech", mech_file]
        assert main([*argv, "--eps", eps]) == 0
        err = capsys.readouterr().err
        assert err == f"max_gap=3.646e-05 eps={eps} is_eps_equilibrium={verdict}\n"


    def test_zero_beta_log_rule_scores_prediction_term_alone(self, tmp_path, capsys):
        # everyone reports s1 and predicts (0.5, 0.5); at beta = 0 the best
        # prediction is the anchor (1, 0), which the log rule cannot score
        # against the neighbors' mixture: that term must not be scored
        prior = tmp_path / "prior.json"
        assert main(["gen-prior", "--m", "2", "--seed", "1", "--out", str(prior)]) == 0
        thetas = np.zeros((4, 2, 2))
        thetas[:, 0, :] = 1.0
        profile = tmp_path / "profile.json"
        save_profile(StrategyProfile(thetas, np.full((4, 2, 2, 2), 0.5)), profile)
        argv = ["--prior", str(prior), "--profile", str(profile), "--rule", "log", "--beta", "0"]
        capsys.readouterr()
        assert main(["check-eq", *argv]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1:] == [f"{i},{s},0.69314718055994529" for i in range(4) for s in range(2)]
        assert main(["payout", *argv]) == 0
        rows = capsys.readouterr().out.splitlines()
        cells = [(i, s) for i in range(4) for s in ("s1", "s2")]
        assert rows[1:] == [f"{i},{s},-0.69314718055994529,0.69314718055994529" for i, s in cells]


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["truthful", "disagreement"])
    def test_overflowing_payments_exit_1(self, tmp_path, prior_file, variant, capsys):
        path = tmp_path / "mech.json"
        save_mechanism(MechanismConfig(1.0, 0.05, "log", variant), path)
        argv = ["payout", "--prior", prior_file, "--profile", "truth", "--mech", str(path)]
        assert main([*argv, "--alpha", "1e308", "--beta", "1e308", "--trials", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: mechanism: sampled payments overflow")


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


@pytest.fixture
def heterogeneous(tmp_path):
    """Files and objects of one heterogeneous case: a latent m = 3 prior, a
    log mechanism and n = 7 random signal strategies with random prediction
    tables, so no solved float is round."""
    latent = random_snife_prior(3, 2, seed=13)
    config = MechanismConfig(1.0, 0.03, "log")
    rng = np.random.default_rng(13)
    profile = StrategyProfile(
        random_signal_strategies(rng, 3, (7,)), rng.dirichlet(np.ones(3), size=(7, 3, 3))
    )
    paths = {name: tmp_path / f"{name}.json" for name in ("prior", "mech", "profile")}
    save_prior(latent, paths["prior"])
    save_mechanism(config, paths["mech"])
    save_profile(profile, paths["profile"])
    argv = ["--prior", str(paths["prior"]), "--profile", str(paths["profile"]),
            "--mech", str(paths["mech"]), "--format", "json"]  # fmt: skip
    return argv, from_latent(latent), config, profile


class TestJsonWriter:
    """Every JSON file and JSON output is the text of ``io.json_text``: one
    line, values as the library builds them."""

    @staticmethod
    def _assert_one_line(text):
        assert text.endswith("\n") and text.count("\n") == 1

    def test_profile_files_round_trip(self, tmp_path, heterogeneous, capsys):
        argv, prior, config, profile = heterogeneous
        solved = solved_profile(config, prior, profile.thetas)
        assert np.all(solved.predictions % 0.25 != 0.0)
        from_cli, from_save = tmp_path / "cli.json", tmp_path / "save.json"
        assert main(["solve-predictions", *argv, "--out", str(from_cli)]) == 0
        assert capsys.readouterr().out == ""
        save_profile(solved, from_save)
        for path in (from_cli, from_save):
            loaded = load_profile(path)
            assert np.array_equal(loaded.thetas, solved.thetas)
            assert np.array_equal(loaded.predictions, solved.predictions)
            text = path.read_text(encoding="utf-8")
            assert text == json_text(profile_to_dict(solved))
            self._assert_one_line(text)

    def test_stdout_equals_library_objects(self, heterogeneous, capsys):
        argv, prior, config, profile = heterogeneous
        expected = {
            ("gen-prior", "--m", "3", "--seed", "5"): prior_to_dict(random_snife_prior(3, seed=5)),
            ("solve-predictions", *argv): profile_to_dict(
                solved_profile(config, prior, profile.thetas)
            ),
            ("check-eq", *argv): equilibrium_rows(check_equilibrium(config, prior, profile)),
        }
        for call, want in expected.items():
            assert main(list(call)) == 0
            out = capsys.readouterr().out
            assert json.loads(out) == want
            self._assert_one_line(out)


def reference_csv(records: list[dict]) -> str:
    """The CSV text of dict rows as csv.writer wrote it: one header from the
    first row's keys, floats in 17 significant digits, other cells by str."""
    buf = io.StringIO()
    if records:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(records[0].keys())
        writer.writerows(
            [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row.values()]
            for row in records
        )
    return buf.getvalue()


class TestCsvWriter:
    """Every CSV output is the text csv.writer gives for the rows of the same
    call's JSON output."""

    LABELS = ["a,b", 'say "hi"', "naïve"]  # a comma, a quote, a space, non-ASCII

    @pytest.fixture
    def files(self, tmp_path):
        latent = random_snife_prior(3, 2, seed=13)
        data = {**prior_to_dict(latent), "signals": self.LABELS}
        paths = {name: str(tmp_path / f"{name}.json") for name in ("prior", "mech", "profile")}
        Path(paths["prior"]).write_text(json.dumps(data))
        config = MechanismConfig(1.0, 0.03, "log")
        save_mechanism(config, paths["mech"])
        thetas = random_signal_strategies(np.random.default_rng(13), 3, (6,))
        save_profile(solved_profile(config, from_latent(latent), thetas), paths["profile"])
        return paths

    @staticmethod
    def _run(argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_csv_matches_csv_writer(self, files, capsys):
        inputs = ["--prior", files["prior"], "--profile", files["profile"]]
        mech = ["--mech", files["mech"]]
        calls = [
            ["welfare", *inputs, *mech],
            ["check-eq", *inputs, *mech],
            ["payout", *inputs, *mech],
            ["payout", *inputs, *mech, "--trials", "300", "--seed", "4"],
            ["audit", *inputs, *mech, "--eps", "10"],
            ["impossibility", *inputs, "--perm", "1,2,0"],
            ["sweep-n", "--prior", files["prior"], *mech, "--n", "4,6", "--samples", "2"],
            ["validate-prior", "--in", files["prior"]],
        ]
        for argv in calls:
            records = json.loads(self._run([*argv, "--format", "json"], capsys))
            assert records, argv
            assert self._run(argv, capsys) == reference_csv(records), argv

    def test_solve_predictions_csv_matches_csv_writer(self, files, capsys):
        argv = ["solve-predictions", "--prior", files["prior"], "--profile", files["profile"],
                "--mech", files["mech"]]  # fmt: skip
        agents = json.loads(self._run([*argv, "--format", "json"], capsys))["agents"]
        records = [
            {"agent": i, "signal": signal, "report": report,
             **{f"p_{label}": p for label, p in zip(self.LABELS, prediction)}}
            for i, agent in enumerate(agents)
            for signal, tables in zip(self.LABELS, agent["predictions"])
            for report, prediction in zip(self.LABELS, tables)
        ]  # fmt: skip
        out = self._run(argv, capsys)
        assert out == reference_csv(records)
        assert out.startswith('agent,signal,report,"p_a,b","p_say ""hi""",p_naïve\n')

    def test_bools_and_ints_print_apart(self, capsys):
        args = cli._parse(["welfare", "--prior", "unused.json", "--profile", "truth"])
        columns = [[True, 1], [1, True], ["1", "True"], [0.1, 2.0], [1.0, 1]]
        cli._emit(("flag", "count", "label", "x", "y"), columns, args)
        assert capsys.readouterr().out == (
            "flag,count,label,x,y\nTrue,1,1,0.10000000000000001,1\n1,True,True,2,1\n"
        )

    def test_no_rows_no_output(self, capsys):
        args = cli._parse(["welfare", "--prior", "unused.json", "--profile", "truth"])
        cli._emit(("a",), [[]], args)
        assert capsys.readouterr().out == ""


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


class TestExactSolve:
    def test_large_beta_exits_0(self, tmp_path, capsys):
        prior = tmp_path / "prior.json"
        save_prior(random_snife_prior(3, 2, seed=5), prior)
        thetas = random_signal_strategies(np.random.default_rng(8), 3, (8,))
        profile = tmp_path / "profile.json"
        save_profile(StrategyProfile(thetas, np.full((8, 3, 3, 3), 1 / 3)), profile)
        argv = ["solve-predictions", "--prior", str(prior), "--profile", str(profile),
                "--beta", "1e4"]  # fmt: skip
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 8 * 3 * 3

    @pytest.mark.parametrize("beta", ["1e8", "1e308"])
    @pytest.mark.parametrize("profile", ["uniform", "random", "sweep-n"])
    def test_beta_past_conditioning_names_beta_over_alpha(self, tmp_path, capsys, beta, profile):
        prior = tmp_path / "prior.json"
        save_prior(random_snife_prior(3, 2, seed=5), prior)
        if profile == "sweep-n":
            argv = ["sweep-n", "--prior", str(prior), "--n", "4,8"]
        else:
            if profile == "random":
                thetas = random_signal_strategies(np.random.default_rng(8), 3, (8,))
                profile = str(tmp_path / "profile.json")
                save_profile(StrategyProfile(thetas, np.full((8, 3, 3, 3), 1 / 3)), profile)
            argv = ["solve-predictions", "--prior", str(prior), "--profile", profile, "--n", "8"]
        assert main([*argv, "--beta", beta]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: mechanism: at beta/alpha = {float(beta):.3g} ")
        assert re.search(r" error bound of \S+, more than 1e-09: ", line)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_singular_block_exits_0_without_negative_values(self, tmp_path, capsys, fmt):
        paths = []
        for name, data in (("prior", SINGULAR_PRIOR), ("profile", SINGULAR_PROFILE)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(data))
        argv = ["solve-predictions", "--prior", str(paths[0]), "--profile", str(paths[1]),
                "--alpha", "1", "--beta", "1.25", "--format", fmt]  # fmt: skip
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "-" not in out
        if fmt == "json":
            assert np.min([a["predictions"] for a in json.loads(out)["agents"]]) == 0.0


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

    def test_rows_equal_single_calls_bit_for_bit(self, tmp_path, capsys):
        """Each row's gap is the one that drawing the row's lists from
        default_rng([seed, n]), solving each alone and scoring each alone
        gives, minus truth-telling's score (m = 4, n = 8 and 16)."""
        path = tmp_path / "prior.json"
        save_prior(random_snife_prior(4, 2, seed=0), path)
        argv = ["sweep-n", "--prior", str(path), "--alpha", "1", "--beta", "0.03", "--rule", "log",
                "--n", "8,16", "--samples", "5", "--seed", "0", "--format", "json"]  # fmt: skip
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        prior = pairwise_from_loaded(load_prior(path))
        config = MechanismConfig(1.0, 0.03, "log")
        for row in rows:
            n = row["n"]
            thetas = random_signal_strategies(np.random.default_rng([0, n]), 4, (5, n))
            truth = welfare_metrics(prior, truth_telling_profile(prior, n)).classification_score
            scores = [welfare_metrics(prior, solved_profile(config, prior, t)) for t in thetas]
            gap = max(wb.classification_score - truth for wb in scores)
            assert row["max_welfare_gap"].hex() == gap.hex(), n


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
            ["sweep-n", "--n", str(10**30)],
            ["sweep-n", "--n", f"4,{10**400}"],
            ["welfare", "--profile", M3_PROFILE],
            ["check-eq", "--profile", M3_PROFILE],
            ["payout", "--profile", M3_PROFILE],
            ["audit", "--profile", M3_PROFILE],
            ["solve-predictions", "--profile", M3_PROFILE],
            ["welfare", "--profile", NAN_THETA],
            ["welfare", "--profile", NAN_PREDICTION],
            ["check-eq", "--profile", "truth", "--alpha", "nan"],
            ["check-eq", "--profile", "truth", "--beta", "nan"],
            ["check-eq", "--profile", "truth", "--mech", NAN_MECH],
            ["check-eq", "--profile", "truth", "--eps", "nan"],
            ["audit", "--profile", "truth", "--tau", "inf"],
            ["welfare", "--profile", "truth", "--prior", NAN_LATENT],
            ["payout", "--profile", "truth", "--trials", "10", "--prior", NAN_LATENT],
            ["validate-prior", "--in", NAN_PAIRWISE],
            ["welfare", "--profile", "truth", "--prior", OFF_MARGINAL],
            ["validate-prior", "--in", OFF_MARGINAL],
            ["validate-prior", "--in", NEGATIVE_CONDITIONAL],
            ["gen-prior", "--m", "2", "--format", "csv"],
            ["welfare", "--profile", "uniform", "--n", "-1"],
            ["welfare", "--profile", "truth", "--n", str(10**30)],
            ["sweep-n", "--n", "-3"],
            ["gen-prior", "--m", str(10**30)],
            ["welfare", "--profile", "truth", "--prior", JSON_NUMBER],
            ["welfare", "--profile", "truth", "--out", OUT_IN_MISSING_DIR],
            ["check-eq", "--profile", "truth", "--eps", "-1"],
            ["validate-prior", "--in", PRIOR, "--tol", "-1"],
            ["audit", "--profile", "truth", "--eps", "1e-170", "--which", "aggregation-error"],
            ["welfare", "--profile", "truth", "--prior", STRING_LABELS],
            ["welfare", "--profile", "truth", "--prior", NUMBER_LABELS],
            ["payout", "--profile", "truth", "--trials", "10", "--mech", FRACTIONAL_GROUP],
            ["payout", "--profile", "counterexample", "--n", "4"],
        ],
    )
    def test_bad_profile_spec_exits_1(self, prior_file, bad_files, argv, capsys):
        argv = [{PRIOR: prior_file, **bad_files}.get(arg, arg) for arg in argv]
        if argv[0] not in ("gen-prior", "validate-prior") and "--prior" not in argv:
            argv += ["--prior", prior_file]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, option, value, message",
        [
            ("check-eq", "--beta", "-1e308", "error: mechanism: need finite alpha > 0 and beta >= 0"),
            ("check-eq", "--alpha", "-inf", "error: argument --alpha: must be a finite number"),
            ("check-eq", "--alpha", "-NaN", "error: argument --alpha: must be a finite number"),
            ("audit", "--eps", "-1E-3", "error: --eps must be positive, got -0.001"),
        ],
    )
    def test_negative_reals_reach_their_checks(
        self, prior_file, command, option, value, message, capsys
    ):
        argv = [command, "--prior", prior_file, "--profile", "truth", option, value]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("mechanism", "alpha", BIG, "int too large to convert to float"),
            ("mechanism", "beta", "0.02", "beta must be a number, got '0.02'"),
            ("mechanism", "alpha", True, "alpha must be a number, got True"),
            ("pairwise", "marginal", [BIG, 0.5], "int too large to convert to float"),
            ("pairwise", "marginal", ["0.5", "0.5"], "marginal entries must be numbers, got '0.5'"),
            ("latent", "state_probs", [True, False], "state_probs entries must be numbers, got True"),
            ("latent", "emissions", [[1, 0], [0, "1"]], "emissions entries must be numbers, got '1'"),
            ("latent", "emissions", [[1, "x"], [0]], "emissions entries must be numbers, got 'x'"),
            ("pairwise", "marginal", [None, 0.5], "marginal entries must be numbers, got None"),
            ("profile", "theta", [[BIG, 0.0], [0.0, 1.0]], "int too large to convert to float"),
            ("profile", "theta", [[True, 0.0], [0.0, 1.0]], "theta entries must be numbers, got True"),
            (
                "profile",
                "predictions",
                [[[0.5, 0.5], [0.5, "0.5"]], [[0.5, 0.5], [0.5, 0.5]]],
                "predictions entries must be numbers, got '0.5'",
            ),
            # finite entries whose sums overflow
            ("latent", "emissions", [[1e308, 1e308], [0.5, 0.5]],
             "each emissions row must be a probability vector"),
            ("pairwise", "marginal", [1e308, 1e308],
             "marginal is not a probability vector within tolerance"),
            ("profile", "theta", [[1e308, 0.0], [1e308, 1.0]],
             "agent 1's signal strategy columns have an entry above 1"),
            (
                "profile",
                "predictions",
                [[[1e308, 1e308], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
                "every prediction cell must be a probability vector",
            ),
        ],
        ids=["big-alpha", "string-beta", "bool-alpha", "big-marginal", "string-marginal",
             "bool-state-probs", "string-emission", "string-in-ragged-emissions", "null-marginal",
             "big-theta", "bool-theta", "string-prediction", "huge-emissions", "huge-marginal",
             "huge-theta", "huge-prediction"],
    )
    @pytest.mark.filterwarnings("error")
    def test_number_errors_in_files_exit_1(
        self, tmp_path, prior_file, kind, field, value, message, capsys
    ):
        """An integer too large for a double, a string, boolean or null where
        a mechanism, prior or profile file holds a number, or finite numbers
        whose sums overflow: one error line, no traceback and no warning."""
        prior = from_latent(random_snife_prior(2, 2, seed=3))
        data = {
            "mechanism": {"alpha": 1.0, "beta": 0.05},
            "pairwise": prior_to_dict(prior),
            "latent": prior_to_dict(random_snife_prior(2, 2, seed=3)),
            "profile": profile_to_dict(truth_telling_profile(prior, 4)),
        }[kind]
        (data["agents"][1] if kind == "profile" else data)[field] = value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        what = {"mechanism": "mechanism", "profile": "profile"}.get(kind, "prior")
        inputs = {"prior": prior_file, "profile": "truth", "mech": None}
        inputs[{"mechanism": "mech"}.get(what, what)] = str(path)
        argv = ["check-eq"]
        for option, name in inputs.items():
            argv += [f"--{option}", name] if name else []
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: io: invalid {what} in {path}: {message}\n"

    @pytest.mark.parametrize(
        "data, unknown",
        [
            (
                prior_to_dict(random_snife_prior(2, 2, seed=3)),
                "'signals', 'kind', 'state_probs', 'emissions'",
            ),
            ({"alpha": 1.0, "Beta": 0.5}, "'Beta'"),
        ],
        ids=["prior-file", "typo"],
    )
    def test_unknown_mechanism_fields_exit_1(self, tmp_path, prior_file, data, unknown, capsys):
        """A mechanism file with a field it does not define, such as a prior
        file given as --mech or a misspelt field, is refused, not read for
        its defaults."""
        path = tmp_path / "mech.json"
        path.write_text(json.dumps(data))
        argv = ["payout", "--prior", prior_file, "--profile", "truth", "--n", "3", "--trials", "3"]
        assert main([*argv, "--mech", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: io: invalid mechanism in {path}: unknown fields {unknown}; "
            "a mechanism has alpha, beta, rule, variant, groupA\n"
        )

    def test_strategy_columns_to_nine_digits_exit_1(self, tmp_path, capsys):
        """Strategy columns written to 9 digits miss 1 by about 1e-9, past
        the 1e-12 that a profile holds them to: the one error line names the
        first such agent, its miss and the tolerance."""
        columns = np.random.default_rng(1).dirichlet(np.ones(3), size=(4, 3))
        thetas = columns.transpose(0, 2, 1).round(9)
        misses = np.abs(thetas.sum(axis=1) - 1.0).max(axis=1)
        agent = int(np.argmax(misses > 1e-12))
        assert 1e-10 < misses[agent] < 1e-8
        predictions = np.full((3, 3, 3), 1 / 3).tolist()
        data = {"n": 4, "agents": [{"theta": t.tolist(), "predictions": predictions} for t in thetas]}
        path = tmp_path / "prof9.json"
        path.write_text(json.dumps(data))
        prior = tmp_path / "prior.json"
        save_prior(random_snife_prior(3, 2, seed=3), prior)
        assert main(["welfare", "--prior", str(prior), "--profile", str(path)]) == 1
        err = capsys.readouterr().err
        named = re.fullmatch(
            rf"error: io: invalid profile in {re.escape(str(path))}: agent {agent}'s signal "
            r"strategy columns have a sum that misses 1 by (\S+), more than 1e-12\n",
            err,
        )
        assert named and float(named[1]) == pytest.approx(misses[agent], rel=0.05)

    def test_latent_file_with_derived_miss_accepted(self, tmp_path, capsys):
        """Each sum of the latent file misses 1 by 0.9e-9, within 1e-9, so the
        file is accepted, though its derived marginal misses by 1.8e-9."""
        miss = 0.9e-9
        data = {
            "signals": ["a", "b"],
            "kind": "latent",
            "state_probs": [0.5, 0.5 - miss],
            "emissions": [[0.7, 0.3 - miss], [0.2, 0.8 - miss]],
        }
        path = tmp_path / "edge-latent.json"
        path.write_text(json.dumps(data))
        assert main(["welfare", "--prior", str(path), "--profile", "truth"]) == 0
        assert capsys.readouterr().err == ""

    def test_degenerate_latent_file_exits_1(self, tmp_path, capsys):
        """A latent file with a signal of zero marginal has no pairwise
        moments: the one error line names the file and the latent prior."""
        data = {
            "signals": ["a", "b"],
            "kind": "latent",
            "state_probs": [1.0, 0.0],
            "emissions": [[1.0, 0.0], [0.0, 1.0]],
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(data))
        assert main(["validate-prior", "--in", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: io: invalid latent prior in {path}: "
            "degenerate latent prior: zero marginal for ['b']\n"
        )

    def test_unreadable_file_exits_1(self, tmp_path, capsys):
        """A path that exists but cannot be read as a file, here a directory."""
        assert main(["welfare", "--prior", str(tmp_path), "--profile", "truth"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: io: cannot read {tmp_path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("values, first", [("2,-3", "-3"), ("1", "1"), ("4,8,0", "0")])
    def test_sweep_n_checks_every_n_first(self, prior_file, values, first, capsys):
        assert main(["sweep-n", "--prior", prior_file, "--n", values]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: --n {first}: need n >= 2\n"
        assert out == ""  # no row ran

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
    def test_seed_out_of_range_exits_1(self, seed, capsys):
        assert main(["gen-prior", "--m", "3", "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --seed:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-prior", "--m", "3", "--seed", "1"],
            # about 300 kB of CSV rows, several times a pipe's buffer
            ["check-eq", "--prior", PRIOR, "--profile", "truth", "--n", "5000"],
        ],
    )
    def test_closed_stdout_exits_1_quietly(self, prior_file, argv):
        argv = [prior_file if arg == PRIOR else arg for arg in argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command starts
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "peerpred.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

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


def package_value_errors():
    """Every ValueError subclass defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(peerpred.__path__):
        module = importlib.import_module(f"peerpred.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, ValueError) and cls.__module__ == module.__name__:
                found.append(cls)
    return found


class TestErrorLines:
    """Exit 1 and one error line for an exception raised by a handler: a
    package error names its module, anything else is printed alone."""

    def run_raising(self, exc, capsys):
        def handler(args):
            raise exc

        with mock.patch.dict(cli._COMMANDS, {"gen-prior": handler}):
            assert main(["gen-prior", "--m", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        return err

    def test_walk_finds_the_package_errors(self):
        names = {cls.__name__ for cls in package_value_errors()}
        assert {"FormatError", "PriorError", "MechanismError", "AuditError"} <= names

    @pytest.mark.parametrize("cls", package_value_errors(), ids=lambda cls: cls.__name__)
    def test_package_errors_name_their_module(self, cls, capsys):
        module = cls.__module__.rpartition(".")[2]
        err = self.run_raising(cls("bad input"), capsys)
        assert err == f"error: {module}: bad input\n"

    @pytest.mark.parametrize(
        "exc", [np.linalg.LinAlgError("Singular matrix"), MemoryError("Unable to allocate")],
        ids=["LinAlgError", "MemoryError"],
    )
    def test_other_errors_print_alone(self, exc, capsys):
        assert self.run_raising(exc, capsys) == f"error: {exc}\n"


# argv whose alpha or beta is near the float range, with TestFuzz.files keys
# for file names, and the outcome of each: the exit code and, for exit 1, the
# start of its one error line.  The equilibrium layer works in units of alpha,
# so the perfectly conditioned systems at alpha = 1e308 or at alpha = beta =
# 2**1023 solve as at alpha = 1; a log score of 1e-300 at alpha = 1e308 passes
# the float range, as does beta/alpha = 1e308/1e-3; and at beta/alpha = 1.8e308
# the solve's terms overflow, so its bound is not finite.
TWO_SIGNALS = ("--prior", "latent", "--profile", "counterexample", "--n", "2")
HUGE = repr(2.0**1023)
HUGE_ALPHA_BETA = {
    ("solve-predictions", *TWO_SIGNALS, "--alpha", "1e308"): (0, None),
    ("solve-predictions", *TWO_SIGNALS, "--alpha", "1e308", "--beta", "1e308"): (0, None),
    ("solve-predictions", *TWO_SIGNALS, "--alpha", HUGE, "--beta", HUGE): (0, None),
    ("check-eq", *TWO_SIGNALS, "--alpha", "1e308", "--beta", "1e308"): (0, None),
    ("check-eq", *TWO_SIGNALS, "--alpha", HUGE, "--beta", HUGE): (0, None),
    ("payout", *TWO_SIGNALS, "--alpha", "1e308", "--beta", "1e308"): (0, None),
    ("check-eq", "--prior", "latent", "--profile", "tiny-profile", "--alpha", "1e308"): (
        1, "error: mechanism: expected payoffs overflow: "
    ),
    ("solve-predictions", *TWO_SIGNALS, "--alpha", "1e-3", "--beta", "1e308"): (
        1, "error: mechanism: beta/alpha = 1e+308/0.001 is past the float range"
    ),
    ("solve-predictions", *TWO_SIGNALS, "--beta", "1.7976931348623157e308"): (
        1, "error: mechanism: at beta/alpha = 1.8e+308 the solved prediction tables have an "
        "error bound of nan"
    ),
}  # fmt: skip


def huge_alpha_beta_examples(test):
    """``test`` with one explicit example per HUGE_ALPHA_BETA argv, passed as
    ``pinned`` (``data`` None); drawn examples get ``pinned`` None."""
    for argv in HUGE_ALPHA_BETA:
        test = example(data=None, pinned=list(argv))(test)
    return test


class TestFuzz:
    """Random argv from the subcommand grammar: any mix of valid and invalid
    options, numbers and input files.  Counts that set the amount of work
    (``--trials``, ``--samples``) stay small, and agent and signal counts are
    either small or far beyond any array numpy can describe, so that no
    example allocates or computes for long."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        latent = random_snife_prior(2, 2, seed=3)
        prior = from_latent(latent)
        good_profile = profile_to_dict(truth_telling_profile(prior, 4))
        nan_profile = json.loads(json.dumps(good_profile))
        nan_profile["agents"][1]["theta"][0][0] = math.nan
        inf_profile = json.loads(json.dumps(good_profile))
        inf_profile["agents"][0]["predictions"][0][0][0] = math.inf
        typed_profile = json.loads(json.dumps(good_profile))
        typed_profile["agents"][2]["theta"][1][1] = True  # a truth-teller's 1.0
        m3 = profile_to_dict(truth_telling_profile(from_latent(random_snife_prior(3, 2, seed=3)), 4))
        tiny_profile = json.loads(json.dumps(good_profile))
        for agent in tiny_profile["agents"]:
            agent["predictions"] = [[[1e-300, 1 - 1e-300]] * 2] * 2
        texts = {
            "latent": prior_to_dict(latent),
            "pairwise": prior_to_dict(prior),
            "coarse": EXAMPLE_PRIOR,
            "nan-latent": {**prior_to_dict(latent), "state_probs": [math.nan, 0.5]},
            "nan-pairwise": {**prior_to_dict(prior), "marginal": [math.nan, 0.5]},
            "no-emissions": {"signals": ["a", "b"], "kind": "latent", "state_probs": [1.0]},
            "bad-shape": {**prior_to_dict(latent), "emissions": [[0.5, 0.5], [1.0]]},
            "bad-signals": {**prior_to_dict(latent), "signals": 5},
            "nested-signals": {**prior_to_dict(latent), "signals": [[1], [2]]},
            "bad-kind": {**prior_to_dict(latent), "kind": ["latent"]},
            "profile": good_profile,
            "nan-profile": nan_profile,
            "inf-profile": inf_profile,
            "typed-profile": typed_profile,
            "m3-profile": m3,
            "tiny-profile": tiny_profile,
            "singular-prior": SINGULAR_PRIOR,
            "singular-profile": SINGULAR_PROFILE,
            "no-agents": {"n": 4},
            "agents-number": {"agents": 3},
            "agents-lists": {"agents": [[1, 2], [3, 4]]},
            "wrong-n": {**good_profile, "n": 5},
            "mech": MechanismConfig(1.0, 0.03, "quadratic", "disagreement").to_dict(),
            "nan-mech": {"alpha": 1.0, "beta": math.nan},
            "string-mech": {"alpha": "x", "rule": 5, "groupA": "ab"},
            "group-mech": {"variant": "disagreement", "groupA": [0, 9]},
            "list": [1, 2, 3],
            "number": 7,
            "null": None,
        }
        paths = {}
        for name, data in texts.items():
            paths[name] = root / f"{name}.json"
            paths[name].write_text(json.dumps(data))
        for name, raw in (("not-json", b"{"), ("empty", b""), ("binary", b"\xff\xfe\x00")):
            paths[name] = root / name
            paths[name].write_bytes(raw)
        paths["directory"] = root
        paths["missing"] = root / "missing.json"
        paths["out"] = root / "out.txt"
        paths["out-missing-dir"] = root / "nowhere" / "out.txt"
        return {name: str(path) for name, path in paths.items()}

    # (valid, invalid) values per kind of argument; an argument is invalid
    # one time in six, so that most runs reach the computation
    COUNTS = ("2", "3", "4", "6"), ("-3", "0", "1", str(10**30), "2.5", "x", "")
    REALS = ("1e-3", "0.02", "1"), ("-1", "0", "1e308", "-1e308", "nan", "inf", "-inf", "x")
    SEEDS = ("0", "7"), ("-1", str(2**64), "x")
    SPECS = (
        ("truth", "uniform", "counterexample", "constant:s1", "constant:1", "permutation:1,0",
         "profile", "inf-profile", "singular-profile"),
        ("constant:zz", "constant:", "constant:-1", "permutation:0,1", "permutation:1,x",
         "permutation:", f"permutation:{10**30},0", "bogus", "nan-profile", "typed-profile",
         "m3-profile", "no-agents", "agents-number", "agents-lists", "wrong-n", "list",
         "not-json", "directory", "missing"),
    )  # fmt: skip
    PRIORS = (
        ("latent", "pairwise", "coarse", "singular-prior"),
        ("nan-latent", "nan-pairwise", "no-emissions", "bad-shape", "bad-signals",
         "nested-signals", "bad-kind", "list", "number", "null", "not-json", "empty", "binary",
         "directory", "missing"),
    )  # fmt: skip
    MECHS = ("mech",), ("nan-mech", "string-mech", "group-mech", "list", "not-json", "missing")

    @classmethod
    def argv(cls, files, draw):
        def pick(kind):
            return draw(st.sampled_from(kind[1] if draw(st.integers(0, 5)) == 5 else kind[0]))

        def opt(flag, kind, p=0.5):
            if draw(st.integers(1, 20)) > 20 * p:
                return []
            value = pick(kind)
            return [flag, files.get(value, value)]

        commands = ("validate-prior", "gen-prior", "payout", "welfare", "check-eq",
                    "solve-predictions", "audit", "impossibility", "sweep-n")  # fmt: skip
        command = draw(st.sampled_from(commands))
        args = [command]
        if command == "validate-prior":
            args += opt("--in", cls.PRIORS, 0.95) + opt("--tol", cls.REALS)
        elif command == "gen-prior":
            args += opt("--m", (("2", "3"), ("-1", "0", "x", str(10**30))), 0.95)
            args += opt("--states", (("2", "3"), ("1", "-2", str(10**30))))
            args += opt("--seed", cls.SEEDS)
        else:
            args += opt("--prior", cls.PRIORS, 0.95)
        if command not in ("validate-prior", "gen-prior", "sweep-n"):
            args += opt("--profile", cls.SPECS, 0.95) + opt("--n", cls.COUNTS)
        if command not in ("validate-prior", "gen-prior", "impossibility"):
            args += opt("--mech", cls.MECHS) + opt("--alpha", cls.REALS)
            args += opt("--beta", cls.REALS) + opt("--rule", (("log", "quadratic"), ("x",)))
        if command == "payout":
            args += opt("--trials", (("1", "300"), ("-5", "0", "x"))) + opt("--seed", cls.SEEDS)
        elif command == "check-eq":
            args += opt("--eps", cls.REALS)
        elif command == "audit":
            which = ("classification-bound", "far-from-permutation", "aggregation-error", "all")
            args += opt("--which", (which, ("x",))) + opt("--tau", cls.REALS)
            args += opt("--eps", (("0.5", "10", "1e308", "1e-170"), cls.REALS[1]))
        elif command == "impossibility":
            args += opt("--perm", (("1,0",), ("0,1", "1,2,0", "1,x", "", f"{10**30},0")), 0.95)
        elif command == "sweep-n":
            counts = [pick(cls.COUNTS) for _ in range(draw(st.integers(1, 3)))]
            args += ["--n", ",".join(counts)] if draw(st.integers(0, 9)) else []
            args += opt("--samples", (("1", "2"), ("-1", "0"))) + opt("--seed", cls.SEEDS)
        if command != "gen-prior":
            args += opt("--format", (("csv", "json"), ("xml",)))
        return args + opt("--out", (("out",), ("out-missing-dir",)), 0.2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), pinned=st.none())
    @huge_alpha_beta_examples
    def test_dispatch_parses_as_the_top_level_parser(self, files, data, pinned):
        if pinned is not None:
            argv = [files.get(arg, arg) for arg in pinned]
        else:
            argv = self.argv(files, data.draw)
            if data.draw(st.integers(0, 9)) == 0:  # no subcommand first
                argv[0] = data.draw(st.sampled_from(["frobnicate", "", "--prior", "-x"]))
                argv = argv[data.draw(st.integers(0, 1)) :]

        def outcome(parse):
            try:
                return vars(parse(list(argv)))
            except CliError as exc:
                return f"error: {exc}"

        assert outcome(cli._parse) == outcome(cli._build_parser().parse_args), argv

    # welfare warns where a draw puts beta/alpha at or above 1/(4m)
    @pytest.mark.filterwarnings(r"ignore:beta/alpha = \S+ >= 1/\(4m\) = :UserWarning")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), pinned=st.none())
    @huge_alpha_beta_examples
    def test_exits_cleanly_and_deterministically(self, files, data, pinned):
        argv = self.argv(files, data.draw) if pinned is None else [files.get(a, a) for a in pinned]
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue(), argv
            if code == 1:
                assert any(line.startswith("error:") for line in err.getvalue().splitlines())
            runs.append(out.getvalue())
        assert runs[0] == runs[1], argv

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", sorted(HUGE_ALPHA_BETA), ids=" ".join)
    def test_huge_alpha_and_beta_exit_without_warning(self, files, argv, capsys):
        code, error = HUGE_ALPHA_BETA[argv]
        assert main([files.get(arg, arg) for arg in argv]) == code
        captured = capsys.readouterr()
        if error is None:
            assert captured.out and not captured.err.startswith("error:")
        else:
            (line,) = captured.err.splitlines()
            assert line.startswith(error) and captured.out == ""

    @pytest.mark.parametrize(
        "argv, max_gap",
        [
            (("check-eq", *TWO_SIGNALS, "--alpha", "1e308", "--beta", "1e308"), "4.441e+292"),
            (("check-eq", "--prior", "latent", "--profile", "truth", "--n", "2",
              "--alpha", "1", "--beta", "1e308"), "5.551e+291"),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, tuple) else x,
    )  # fmt: skip
    def test_check_eq_tolerance_scales_with_the_payments(self, files, argv, max_gap, capsys):
        """Gaps of a few 1e-16 max(alpha, beta) are rounding: --eps counts
        in units of max(alpha, beta), so these profiles stay
        eps-equilibria at payments near 1e308."""
        assert main([files.get(arg, arg) for arg in argv]) == 0
        status = f"max_gap={max_gap} eps=1e-09 is_eps_equilibrium=True\n"
        assert capsys.readouterr().err == status

    @pytest.mark.filterwarnings("error")
    def test_huge_alpha_and_beta_solve_as_at_one(self, files, capsys):
        """beta/alpha = 1 at alpha = beta = 2**1023 and at alpha = beta = 1:
        the same table, bit for bit."""
        tables = []
        for value in (HUGE, "1"):
            argv = ["solve-predictions", *TWO_SIGNALS, "--alpha", value, "--beta", value]
            assert main([files.get(arg, arg) for arg in argv]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] and tables[0].count("\n") == 1 + 2 * 2 * 2
