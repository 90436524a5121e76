import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerpred.cli import main
from peerpred.io import prior_to_dict, profile_to_dict, save_mechanism, save_prior, save_profile
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


# placeholders for the input files of `bad_files`: a profile file over three
# signals (against the two-signal prior), profiles, priors and a mechanism
# holding a NaN, a JSON number and an output path in a missing directory
M3_PROFILE = "<m3-profile>"
NAN_THETA = "<nan-theta>"
NAN_PREDICTION = "<nan-prediction>"
NAN_LATENT = "<nan-latent>"
NAN_PAIRWISE = "<nan-pairwise>"
NAN_MECH = "<nan-mech>"
JSON_NUMBER = "<json-number>"
OUT_IN_MISSING_DIR = "<out-in-missing-dir>"


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
        NAN_MECH: {"alpha": 1.0, "beta": math.nan},
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
            ["gen-prior", "--m", "2", "--format", "csv"],
            ["welfare", "--profile", "uniform", "--n", "-1"],
            ["welfare", "--profile", "truth", "--n", str(10**30)],
            ["sweep-n", "--n", "-3"],
            ["gen-prior", "--m", str(10**30)],
            ["welfare", "--profile", "truth", "--prior", JSON_NUMBER],
            ["welfare", "--profile", "truth", "--out", OUT_IN_MISSING_DIR],
        ],
    )
    def test_bad_profile_spec_exits_1(self, prior_file, bad_files, argv, capsys):
        argv = [bad_files.get(arg, arg) for arg in argv]
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
        m3 = profile_to_dict(truth_telling_profile(from_latent(random_snife_prior(3, 2, seed=3)), 4))
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
            "m3-profile": m3,
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
         "profile", "inf-profile"),
        ("constant:zz", "constant:", "constant:-1", "permutation:0,1", "permutation:1,x",
         "permutation:", f"permutation:{10**30},0", "bogus", "nan-profile", "m3-profile",
         "no-agents", "agents-number", "agents-lists", "wrong-n", "list", "not-json",
         "directory", "missing"),
    )  # fmt: skip
    PRIORS = (
        ("latent", "pairwise", "coarse"),
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
            args += opt("--eps", (("0.5", "10", "1e308"), cls.REALS[1]))
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
    @given(data=st.data())
    def test_exits_cleanly_and_deterministically(self, files, data):
        argv = self.argv(files, data.draw)
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
