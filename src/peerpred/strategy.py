"""Strategy profiles and their algebra.

An agent's behavior is a column-stochastic signal strategy
``theta[r, s] = Pr(report r | private signal s)`` together with a prediction
table ``P[s, r]`` giving the probability vector reported alongside report
``r`` when the private signal is ``s``.  One prediction per (private,
reported) pair is a lossless representation wherever predictions are best
responses, and report-probability-zero cells never enter any expectation;
constructors fill them anyway so tables stay total.

A profile stacks these per agent: ``thetas`` has shape (n, m, m) and
``predictions`` has shape (n, m, m, m) indexed [agent, private, reported,
coordinate].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .priors import LatentStatePrior, PairwisePrior, PermutationMap, PriorError, _map_strategy
from .tolerances import PROBABILITY_TOL, STOCHASTIC_TOL, probability_table_fault

__all__ = [
    "StrategyProfile",
    "ProfileError",
    "truth_telling_profile",
    "permutation_profile",
    "constant_report_profile",
    "uniform_report_profile",
    "counterexample_profile",
    "prediction_anchors",
    "leave_one_out",
    "agent_types",
    "check_signal_count",
    "permute_profile",
    "validate_signal_strategy",
    "random_signal_strategy",
    "random_signal_strategies",
    "tau_closeness",
]

class ProfileError(ValueError):
    """Raised for malformed strategies or profiles."""


def validate_signal_strategy(theta: np.ndarray) -> np.ndarray:
    """``theta`` as a float array, checked as a square column-stochastic
    matrix given as input, within PROBABILITY_TOL."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ProfileError(f"signal strategy must be square, got shape {theta.shape}")
    if fault := probability_table_fault(theta, 0, PROBABILITY_TOL):
        raise ProfileError(f"the signal strategy's columns have {fault}")
    return theta


def _check_columns(thetas: np.ndarray):
    """Raise, naming the first agent whose strategy fails, unless every
    strategy of the stack ``thetas`` (n, m, m) is column-stochastic within
    ``STOCHASTIC_TOL``.  The verdict is one check of the whole stack; the
    agent is located only when it fails."""
    if probability_table_fault(thetas, 1, STOCHASTIC_TOL) is None:
        return
    for i, theta in enumerate(thetas):
        if fault := probability_table_fault(theta, 0, STOCHASTIC_TOL):
            raise ProfileError(f"agent {i}'s signal strategy columns have {fault}")


@dataclass(frozen=True)
class StrategyProfile:
    """Per-agent signal strategies and prediction tables."""

    thetas: np.ndarray
    predictions: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        predictions = np.asarray(self.predictions, dtype=float)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "predictions", predictions)
        if thetas.ndim != 3 or thetas.shape[1] != thetas.shape[2]:
            raise ProfileError(f"thetas must have shape (n, m, m), got {thetas.shape}")
        n, m, _ = thetas.shape
        if n < 2:
            raise ProfileError("a profile needs at least two agents")
        if predictions.shape != (n, m, m, m):
            raise ProfileError(
                f"predictions must have shape ({n}, {m}, {m}, {m}), got {predictions.shape}"
            )
        _check_columns(thetas)
        if probability_table_fault(predictions, -1, PROBABILITY_TOL):
            raise ProfileError("every prediction cell must be a probability vector")
        thetas.setflags(write=False)
        predictions.setflags(write=False)

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    @property
    def m(self) -> int:
        return self.thetas.shape[1]


def check_signal_count(prior: PairwisePrior | LatentStatePrior, m: int):
    """Raise unless strategies over ``m`` signals fit the prior's signal space."""
    if m != prior.m:
        raise ProfileError(f"the prior has {prior.m} signals but the strategies have {m}")


def agent_types(*arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group agents whose rows in every array of ``arrays`` (each (n, ...)) are
    byte-identical.  Returns the index of each type's first agent and the
    type's agent count, types in the order of their bytes."""
    n = arrays[0].shape[0]
    rows = np.concatenate([np.asarray(a, dtype=float).reshape(n, -1) for a in arrays], axis=1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    # np.unique's grouping, without the unique keys it also gathers: after a
    # stable sort each type's first agent leads its run of equal keys
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    edge = np.empty(n + 1, dtype=bool)  # edge[k]: a run starts at k, or k = n
    edge[0] = edge[n] = True
    edge[1:n] = ordered[1:] != ordered[:-1]
    bounds = edge.nonzero()[0]
    return order[bounds[:-1]], bounds[1:] - bounds[:-1]


def prediction_anchors(prior: PairwisePrior, thetas: np.ndarray) -> np.ndarray:
    """The prediction-score maximizers theta_minus[i] @ q_s of every agent at
    every private signal, shape (n, m, m) indexed [agent, private, coordinate]:
    the distribution of a uniformly chosen other agent's report, with the
    leave-one-out average theta_minus[i] = (sum_j theta_j - theta_i) / (n - 1).
    Every term of the sum is non-negative, so its rounded total is at least
    theta_i and no entry rounds below zero.  Strategy lists stacked on leading
    axes of ``thetas`` keep them."""
    thetas = np.asarray(thetas, dtype=float)
    check_signal_count(prior, thetas.shape[-1])
    return np.einsum("...iuv,vs->...isu", leave_one_out(thetas), prior.conditional)


def leave_one_out(thetas: np.ndarray, axis: int = -3) -> np.ndarray:
    """theta_minus of :func:`prediction_anchors` for the agents on ``axis`` of
    ``thetas``: every agent's (total - own) / (n - 1), for any per-agent array."""
    return (thetas.sum(axis=axis, keepdims=True) - thetas) / (thetas.shape[axis] - 1)


def _repeated(block: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A new array of ``shape`` holding ``block`` broadcast to it: the values
    of ``np.broadcast_to(block, shape).copy()``, at a fraction of its fixed
    cost."""
    out = np.empty(shape)
    out[...] = block
    return out


def truth_telling_profile(prior: PairwisePrior, n: int) -> StrategyProfile:
    """Report the private signal and predict its conditional column.

    Off-path cells (s, r != s) hold the conditional column of the reported
    signal; they are never realized under the identity signal strategy.
    """
    if n < 2:
        raise ProfileError("need n >= 2")
    m = prior.m
    thetas = _repeated(np.eye(m), (n, m, m))
    # predictions[i, s, r] = q_r  (diagonal r = s gives the truthful q_s)
    per_report = prior.conditional.T  # row r = q_r
    predictions = _repeated(per_report, (n, m, m, m))
    return StrategyProfile(thetas, predictions)


def permutation_profile(prior: PairwisePrior, n: int, perm: PermutationMap) -> StrategyProfile:
    """Truth-telling after relabeling signals by ``perm``: report perm(s) and
    predict the relabeled conditional column ``theta_perm @ q_s``."""
    if n < 2:
        raise ProfileError("need n >= 2")
    if perm.m != prior.m:
        raise PriorError(f"permutation on {perm.m} signals, prior has {prior.m}")
    m = prior.m
    theta_pi = perm.matrix()
    thetas = _repeated(theta_pi, (n, m, m))
    per_signal = (theta_pi @ prior.conditional).T  # row s = theta_pi q_s
    return StrategyProfile(thetas, _repeated(per_signal[:, None, :], (n, m, m, m)))


def constant_report_profile(prior: PairwisePrior, n: int, target: int) -> StrategyProfile:
    """Everyone reports ``target`` and predicts a point mass on it."""
    if n < 2:
        raise ProfileError("need n >= 2")
    m = prior.m
    theta = _map_strategy([target] * m)
    point = np.zeros(m)
    point[target] = 1.0
    thetas = _repeated(theta, (n, m, m))
    predictions = _repeated(point, (n, m, m, m))
    return StrategyProfile(thetas, predictions)


def uniform_report_profile(prior: PairwisePrior, n: int) -> StrategyProfile:
    """Reports uniform at random; predictions are the induced best prediction,
    which is the uniform vector."""
    if n < 2:
        raise ProfileError("need n >= 2")
    m = prior.m
    thetas = np.full((n, m, m), 1.0 / m)
    predictions = np.full((n, m, m, m), 1.0 / m)
    return StrategyProfile(thetas, predictions)


def counterexample_profile(prior: PairwisePrior, n: int) -> StrategyProfile:
    """The n = m profile where agent i always reports signal i and predicts
    1/(m-1) on every signal except i (and 0 on i).

    Inconsistency vanishes (no two agents ever share a report) while the
    prediction spread is maximal, so its classification score beats
    truth-telling's; it is the reason welfare-dominance over *all* equilibria
    is unattainable.
    """
    m = prior.m
    if n != m:
        raise ProfileError(f"this profile needs one agent per signal (n = m), got n={n}, m={m}")
    thetas = np.zeros((n, m, m))
    predictions = np.zeros((n, m, m, m))
    for i in range(n):
        thetas[i, i, :] = 1.0
        spread = np.full(m, 1.0 / (m - 1))
        spread[i] = 0.0
        predictions[i, :, :] = spread[None, None, :]
    return StrategyProfile(thetas, predictions)


def random_signal_strategy(rng: np.random.Generator, m: int) -> np.ndarray:
    """Column-stochastic matrix with columns uniform on the simplex."""
    return rng.dirichlet(np.ones(m), size=m).T


def random_signal_strategies(
    rng: np.random.Generator, m: int, shape: tuple[int, ...]
) -> np.ndarray:
    """An array of ``shape`` random signal strategies, (*shape, m, m), from
    one draw: the generator is consumed as by :func:`random_signal_strategy`
    called for each strategy in C order, and the entries and their strides
    are those of ``np.stack`` over such calls."""
    return rng.dirichlet(np.ones(m), size=(*shape, m)).swapaxes(-1, -2)


def tau_closeness(theta: np.ndarray) -> float:
    """Smallest tau at which ``theta`` is tau-close to a permutation: the
    largest second-largest row entry.  0 for permutation matrices."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] < 2:
        return 0.0
    second = np.sort(theta, axis=1)[:, -2]
    return float(np.max(second))


def permute_profile(profile: StrategyProfile, perm: PermutationMap) -> StrategyProfile:
    """Precompose a profile with a relabeling of private signals.

    The returned profile plays, at private signal s, whatever the input plays
    at perm(s): theta'[r, s] = theta[r, perm(s)] and P'[s, r] = P[perm(s), r].
    Composing with the inverse permutation restores the input bit-exactly.  Paired
    with the inversely-permuted prior this realizes the relabeled scenario
    whose welfare matches the original.
    """
    if perm.m != profile.m:
        raise ProfileError(f"permutation on {perm.m} signals, profile has {profile.m}")
    idx = list(perm.mapping)
    thetas = profile.thetas[:, :, idx]
    predictions = profile.predictions[:, idx, :, :]
    return StrategyProfile(thetas.copy(), predictions.copy())
