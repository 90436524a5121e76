import numpy as np
import pytest
from hypothesis import strategies as st

from peerpred.mechanism import MechanismConfig
from peerpred.priors import from_latent, random_snife_prior
from peerpred.strategy import StrategyProfile, prediction_anchors


def simplex(m, min_value=1e-3):
    """Hypothesis strategy for a length-m probability vector away from the boundary."""
    return st.lists(
        st.floats(min_value=min_value, max_value=1.0), min_size=m, max_size=m
    ).map(lambda xs: np.array(xs) / np.sum(xs))


def column_stochastic(m):
    return st.lists(simplex(m), min_size=m, max_size=m).map(lambda cols: np.stack(cols, axis=1))


def best_prediction_profile(profile, prior):
    """Oracle of the classification bound's right side: keep the signal
    strategies, replace every prediction by the prediction-score maximizer
    theta_minus[i] @ q_s (independent of the reported signal)."""
    anchors = prediction_anchors(prior, profile.thetas)
    predictions = np.broadcast_to(anchors[:, :, None, :], profile.predictions.shape)
    return StrategyProfile(profile.thetas, predictions.copy())


def equilibrium_rows(report):
    """Oracle of the ``check-eq`` records: one {agent, signal, gap} per cell
    of an :class:`~peerpred.equilibrium.EquilibriumReport`."""
    return [
        {"agent": i, "signal": s, "gap": gap}
        for i, gaps in enumerate(report.gaps.tolist())
        for s, gap in enumerate(gaps)
    ]


@pytest.fixture(scope="session")
def prior3():
    return from_latent(random_snife_prior(3, 2, seed=7))


@pytest.fixture(scope="session")
def prior2():
    return from_latent(random_snife_prior(2, 2, seed=11))


@pytest.fixture(scope="session")
def config():
    return MechanismConfig(alpha=1.0, beta=1.0 / 24.0, rule="log")


@pytest.fixture(scope="session")
def latent3():
    return random_snife_prior(3, 2, seed=7)


@pytest.fixture
def lone_reporter():
    """A latent prior and 49 signal strategies: 48 agents always report
    signal 0 and one tells the truth, so it alone ever reports signal 1.
    A leave-one-out average formed as n * theta_bar - theta_i rounds below
    zero there."""
    thetas = np.zeros((49, 2, 2))
    thetas[:, 0, :] = 1.0
    thetas[-1] = np.eye(2)
    return random_snife_prior(2, 2, seed=801), thetas
