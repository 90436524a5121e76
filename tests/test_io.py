import json
import re

import numpy as np
import pytest

from peerpred.io import (
    FormatError,
    load_mechanism,
    load_prior,
    load_profile,
    mechanism_from_dict,
    pairwise_from_loaded,
    prior_from_dict,
    prior_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_mechanism,
    save_prior,
    save_profile,
)
from peerpred.mechanism import MechanismConfig
from peerpred.priors import LatentStatePrior
from peerpred.strategy import (
    constant_report_profile,
    truth_telling_profile,
    uniform_report_profile,
)


class TestPriorFiles:
    def test_latent_round_trip(self, tmp_path, latent3):
        path = tmp_path / "prior.json"
        save_prior(latent3, path)
        loaded = load_prior(path)
        assert isinstance(loaded, LatentStatePrior)
        assert np.array_equal(loaded.state_probs, latent3.state_probs)
        assert np.array_equal(loaded.emissions, latent3.emissions)

    def test_pairwise_round_trip(self, tmp_path, prior3):
        path = tmp_path / "prior.json"
        save_prior(prior3, path)
        loaded = pairwise_from_loaded(load_prior(path))
        assert np.array_equal(loaded.marginal, prior3.marginal)
        assert np.array_equal(loaded.conditional, prior3.conditional)

    def test_default_kind_is_pairwise(self, prior2):
        data = prior_to_dict(prior2)
        del data["kind"]
        loaded = prior_from_dict(data)
        assert np.array_equal(loaded.marginal, prior2.marginal)

    def test_missing_field(self):
        with pytest.raises(FormatError, match="state_probs"):
            prior_from_dict({"signals": ["a", "b"], "kind": "latent"})

    def test_unknown_kind(self):
        with pytest.raises(FormatError, match="kind"):
            prior_from_dict({"signals": ["a", "b"], "kind": "copula"})

    @pytest.mark.parametrize(
        "marginal, conditional, message",
        [
            ([0.5, 0.5], [[0.6, 0.5], [0.6, 0.5]], "conditional columns are not stochastic"),
            ([0.5, 0.5], [[1.2, 0.5], [-0.2, 0.5]], "conditional columns are not stochastic"),
            ([0.6, 0.6], [[0.5, 0.5], [0.5, 0.5]], "marginal is not a probability vector"),
            ([1.2, -0.2], [[0.5, 0.5], [0.5, 0.5]], "marginal is not a probability vector"),
        ],
    )
    def test_pairwise_must_be_stochastic(self, marginal, conditional, message):
        data = {"signals": ["a", "b"], "marginal": marginal, "conditional": conditional}
        with pytest.raises(FormatError, match=f"invalid prior: {message}"):
            prior_from_dict(data)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="malformed"):
            load_prior(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            load_prior(tmp_path / "absent.json")


class TestProfileFiles:
    def test_round_trip(self, tmp_path, prior3):
        profile = truth_telling_profile(prior3, 4)
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert np.array_equal(loaded.thetas, profile.thetas)
        assert np.array_equal(loaded.predictions, profile.predictions)

    def test_declared_n_checked(self, prior3):
        data = profile_to_dict(truth_telling_profile(prior3, 4))
        data["n"] = 5
        with pytest.raises(FormatError, match="n=5"):
            profile_from_dict(data)

    def test_invalid_rows(self):
        with pytest.raises(FormatError, match="invalid profile"):
            profile_from_dict({"agents": [{"theta": [[2.0]], "predictions": [[[1.0]]]}]})

    @pytest.mark.parametrize(
        "profile, key, where, value",
        [
            ("truth", "theta", (0, 0, 0), True),  # a truth-teller's 1.0
            ("uniform", "predictions", (1, 0, 1, 0), "0.5"),
            ("constant", "predictions", (2, 1, 0, 1), False),  # a point mass's 0.0
        ],
    )
    def test_entries_must_be_numbers(self, prior2, profile, key, where, value):
        # each entry stands for the number the file holds there, so the file
        # loads with the number itself
        build = {
            "truth": truth_telling_profile,
            "uniform": uniform_report_profile,
            "constant": lambda prior, n: constant_report_profile(prior, n, 0),
        }[profile]
        data = profile_to_dict(build(prior2, 4))
        agent, *path = where
        cell = data["agents"][agent][key]
        for index in path[:-1]:
            cell = cell[index]
        assert cell[path[-1]] == float(value)
        profile_from_dict(data)
        cell[path[-1]] = value
        message = f"{key} entries must be numbers, got {value!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            profile_from_dict(data)


class TestMechanismFiles:
    def test_round_trip(self, tmp_path):
        config = MechanismConfig(1.5, 0.02, "quadratic", "disagreement", group_a=(0, 2))
        path = tmp_path / "mech.json"
        save_mechanism(config, path)
        loaded = load_mechanism(path)
        assert loaded == config

    def test_defaults(self):
        config = mechanism_from_dict({})
        assert config.rule == "log" and config.variant == "truthful"

    def test_invalid_values(self):
        with pytest.raises(FormatError):
            mechanism_from_dict({"alpha": -1.0})

    @pytest.mark.parametrize("group", [[0.5, 1.7], [0, 1.0], ["0", "1"], [True, False]])
    def test_group_indices_must_be_integers(self, group):
        with pytest.raises(FormatError, match="group_a entries must be integers"):
            mechanism_from_dict({"variant": "disagreement", "groupA": group})

    def test_doubles_round_trip_exactly(self, tmp_path):
        # shortest-repr printing preserves every bit of the double
        value = 0.1 + 0.2  # 0.30000000000000004
        config = MechanismConfig(alpha=value, beta=value / 7.0)
        path = tmp_path / "mech.json"
        save_mechanism(config, path)
        loaded = load_mechanism(path)
        assert loaded.alpha == config.alpha
        assert loaded.beta == config.beta
