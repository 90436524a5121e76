"""Exact expected payoffs, best responses, and equilibrium checking.

All computations here cover the action-relevant payment terms: the proper
score of one's prediction against a random peer's reported signal plus the
agreement penalty against that peer's prediction.  The classification reward
and the zero-sum cross-group subtraction never depend on the acting agent's
own report, so equilibrium gaps are identical across the two mechanism
variants; full payments including those terms live in
:func:`peerpred.mechanism.monte_carlo_payments` and
:func:`peerpred.mechanism.realized_payments`.

Conditional on private signal s and a report (r, p), the expected payment is

    alpha * PS(theta_minus_i q_s, p)
    + beta * sum_{j != i} 1/(n-1) sum_{s'} q(s'|s) theta_j[r, s']
        * (PS(P_j[s', r], p) - PS(P_j[s', r], P_j[s', r]))

Proper scores are linear in their first argument, so the second line needs
only the leave-one-out neighbor sums (1/(n-1)) sum_{j != i} sum_v q(v|s)
theta_j[r, v] F_j[v, r, ...] of two fields F: the prediction tables and their
self-scores.  One kernel computes them for every (i, s, r) at once as totals
minus self; :func:`check_equilibrium` is one vectorized pass over the result,
whose report holds every report's value at its optimal prediction, and
:func:`expected_conditional_payoff` reads one cell of its payoffs.  The same
sum with F = 1, the neighbors' weight on report r, is coordinate r of the
anchor theta_minus_i q_s, the distribution of a random other agent's report
(:func:`peerpred.strategy.prediction_anchors`).  The optimal prediction for
report r is the mixture
(alpha * anchor + beta * mix) / (alpha + beta * anchor[r]), so equilibrium
predictions solve a linear fixed point: :func:`solve_prediction_stack`
iterates the same kernel and map (a strict contraction for alpha > 0) over a
stack of strategy lists, :func:`solve_equilibrium_predictions` is its stack of
one, and :func:`solve_equilibrium_predictions_direct` solves it densely from
its own coupling matrix for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mechanism import _BLOCK_CELLS, MechanismConfig, MechanismError
from .priors import PairwisePrior
from .strategy import StrategyProfile, _repeated, prediction_anchors
from .tolerances import EQUILIBRIUM_EPS, SOLVER_TOL

__all__ = [
    "EquilibriumReport",
    "expected_conditional_payoff",
    "check_equilibrium",
    "solve_equilibrium_predictions",
    "solve_prediction_stack",
    "solve_equilibrium_predictions_direct",
    "solved_profile",
]

def _neighbor_sum(cond: np.ndarray, thetas: np.ndarray, field: np.ndarray):
    """(1/(n-1)) sum_{j != i} sum_v q(v|s) theta_j[r, v] field_j[v, r, ...] for
    every (i, s, r) as totals minus self.  ``thetas`` is (n, m, m), or
    (S, n, m, m) for a stack of S strategy lists under one prior, whose
    leading axis the field and the result share.  Subscripts are spelled out
    per rank: an ellipsis einsum slows the solver's steps."""
    stack = "k" * (thetas.ndim - 3)
    tail = "u" * (field.ndim - thetas.ndim)
    per_agent = np.einsum(
        f"vs,{stack}jrv,{stack}jvr{tail}->{stack}jsr{tail}", cond, thetas, field
    )
    agents = len(stack)
    total = per_agent.sum(axis=agents, keepdims=True)
    return (total - per_agent) / (thetas.shape[agents] - 1)


def _best_prediction_map(config: MechanismConfig, anchors: np.ndarray):
    """mix -> (alpha * anchor + beta * mix) / (alpha + beta * anchor[r]): the
    optimal prediction at every (i, s, r) given the neighbors' mixture, where
    coordinate r of the anchor is the neighbors' weight on report r.  With
    ``live``, an index of the leading stack axis, the map takes the mixtures
    of those stack members only."""
    # materialized per report: adding a broadcast array slows the solver's steps
    base = np.repeat(config.alpha * anchors[..., None, :], anchors.shape[-1], axis=-2)
    denom = (config.alpha + config.beta * anchors)[..., None]
    return lambda mix, live=...: (base[live] + config.beta * mix) / denom[live]


@dataclass(frozen=True)
class _PayoffTerms:
    """Conditional-payoff terms of every agent, indexed [i, s, r, ...]."""

    anchor: np.ndarray      # theta_minus_i q_s for every report, (n, m, m, m)
    mix: np.ndarray         # neighbors' weighted predictions, (n, m, m, m)
    self_score: np.ndarray | None  # neighbors' weighted self-scores, (n, m, m); unread
                                   # at beta = 0, so None there
    best: np.ndarray        # optimal prediction per report, (n, m, m, m)

    def values(self, config: MechanismConfig, prediction) -> np.ndarray:
        """Value of reporting r with ``prediction[..., i, s, r]`` at every
        (i, s, r); predictions stacked on leading axes keep them.  At
        beta = 0 the agreement term is not scored, so the log rule does not
        probe the prediction against the neighbors' mixture."""
        rule = config.scoring_rule()
        value = config.alpha * rule.weighted_score(self.anchor, prediction)
        if config.beta == 0.0:
            return value
        return value + config.beta * (rule.weighted_score(self.mix, prediction) - self.self_score)


def _payoff_terms(
    config: MechanismConfig, prior: PairwisePrior, profile: StrategyProfile
) -> _PayoffTerms:
    cond, thetas = prior.conditional, profile.thetas
    anchors = prediction_anchors(prior, thetas)
    mix = _neighbor_sum(cond, thetas, profile.predictions)
    self_score = None
    if config.beta != 0.0:
        self_score = _neighbor_sum(
            cond, thetas, config.scoring_rule().self_score(profile.predictions)
        )
    best = _best_prediction_map(config, anchors)(mix)
    return _PayoffTerms(np.broadcast_to(anchors[:, :, None, :], mix.shape), mix, self_score, best)


@dataclass(frozen=True)
class EquilibriumReport:
    """Per (agent i, signal s): ``values[i, s, r]``, the value of report r with
    its closed-form optimal prediction ``best_predictions[i, s, r]``;
    ``payoffs[i, s]``, the value of the profile's prescribed play; and
    ``gaps[i, s]``, the best value minus that payoff.  Payoffs are linear in
    the agent's report distribution, so the best mixed deviation is a pure
    report with its optimal prediction: ``values[i, s].argmax()``, lowest
    index on ties, is a best response."""

    gaps: np.ndarray
    payoffs: np.ndarray
    values: np.ndarray
    best_predictions: np.ndarray
    eps: float

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gaps))

    @property
    def is_eps_equilibrium(self) -> bool:
        return self.max_gap <= self.eps

    def to_rows(self) -> list[dict]:
        return [
            {"agent": i, "signal": s, "gap": gap}
            for i, gaps in enumerate(self.gaps.tolist())
            for s, gap in enumerate(gaps)
        ]


def check_equilibrium(
    config: MechanismConfig,
    prior: PairwisePrior,
    profile: StrategyProfile,
    eps: float = EQUILIBRIUM_EPS,
) -> EquilibriumReport:
    terms = _payoff_terms(config, prior, profile)
    weights = profile.thetas.transpose(0, 2, 1)
    # reports of weight zero are scored at the optimal prediction instead, so a
    # log rule never probes the predictions of reports that are not played
    played = np.where((weights > 0.0)[..., None], profile.predictions, terms.best)
    # one scoring pass over both predictions: every value is computed
    # elementwise and summed over the last axis, as by two separate passes
    values, played_values = terms.values(config, np.stack([terms.best, played]))
    payoffs = np.sum(weights * played_values, axis=-1)
    return EquilibriumReport(values.max(axis=-1) - payoffs, payoffs, values, terms.best, eps)


def expected_conditional_payoff(
    config: MechanismConfig,
    prior: PairwisePrior,
    profile: StrategyProfile,
    i: int,
    s: int,
) -> float:
    """Expected action-relevant payment of agent i conditional on signal s under
    the profile's own play: one cell of :func:`check_equilibrium`'s payoffs."""
    return float(check_equilibrium(config, prior, profile).payoffs[i, s])


def solve_equilibrium_predictions(
    config: MechanismConfig,
    prior: PairwisePrior,
    thetas: np.ndarray | Sequence[np.ndarray],
    tol: float = SOLVER_TOL,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, float]:
    """Solve the equilibrium prediction tables for fixed signal strategies.

    Iterates the best-response mixture map until the sup-norm update falls
    below ``tol``.  The map contracts with modulus at most
    beta W / (alpha + beta W) < 1, so plain iteration converges for any
    alpha > 0.  With beta = 0 the anchors are returned unchanged (exact).
    Returns (predictions with shape (n, m, m, m), last sup-norm update).
    This is :func:`solve_prediction_stack` on a stack of one.
    """
    thetas = np.asarray(thetas, dtype=float)
    predictions, deltas = solve_prediction_stack(config, prior, thetas[None], tol, max_iter)
    return predictions[0], float(deltas[0])


def solve_prediction_stack(
    config: MechanismConfig,
    prior: PairwisePrior,
    thetas: np.ndarray,
    tol: float = SOLVER_TOL,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve_equilibrium_predictions` for a stack ``thetas`` (S, n, m, m)
    of S strategy lists under one prior.  Returns the predictions (S, n, m, m,
    m) and each member's last sup-norm update (S,).

    Each member iterates as it would alone and stops at its own first update
    below ``tol``, so its result is the one it gets alone, bit for bit.  A
    pass iterates at most ``_BLOCK_CELLS // (n m^4)`` members (at least one)
    at once, which bounds its arrays whatever S.
    """
    thetas = np.asarray(thetas, dtype=float)
    size, n, m = thetas.shape[0], thetas.shape[1], thetas.shape[2]
    predictions = np.empty((size, n, m, m, m))
    deltas = np.zeros(size)
    per_pass = max(1, _BLOCK_CELLS // (n * m**4))
    for lo in range(0, size, per_pass):
        hi = min(lo + per_pass, size)
        _solve_pass(config, prior, thetas[lo:hi], tol, max_iter, predictions[lo:hi], deltas[lo:hi])
    return predictions, deltas


def _solve_pass(config, prior, thetas, tol, max_iter, predictions, deltas):
    """Iterate the members of the stack ``thetas`` until each converges,
    writing each member's fixed point into ``predictions`` and its last update
    into ``deltas`` as it finishes."""
    cond = prior.conditional
    anchors = prediction_anchors(prior, thetas)  # (S, n, s, u)
    x = _repeated(anchors[..., None, :], predictions.shape)
    if config.beta == 0.0:
        predictions[...] = x
        return

    best = _best_prediction_map(config, anchors)
    live = np.arange(thetas.shape[0])  # members still iterating
    rows = ...  # the map's rows of the live members: all, until one finishes
    for _ in range(max_iter):
        x_new = best(_neighbor_sum(cond, thetas, x), rows)
        delta = np.abs(x_new - x).max(axis=(1, 2, 3, 4))
        if delta.min() < tol:
            done = delta < tol
            predictions[live[done]] = x_new[done]
            deltas[live[done]] = delta[done]
            if done.all():
                return
            going = ~done
            live, thetas, x_new = live[going], thetas[going], x_new[going]
            rows = live
        x = x_new
    raise MechanismError(
        f"prediction fixed point did not reach {tol:g} within {max_iter} iterations"
    )


def solved_profile(
    config: MechanismConfig,
    prior: PairwisePrior,
    thetas: np.ndarray | Sequence[np.ndarray],
) -> StrategyProfile:
    """Profile with the given signal strategies and prediction tables solved
    to ``SOLVER_TOL``."""
    thetas = np.asarray(thetas, dtype=float)
    predictions, _ = solve_equilibrium_predictions(config, prior, thetas)
    return StrategyProfile(thetas.copy(), predictions)


def solve_equilibrium_predictions_direct(
    config: MechanismConfig,
    prior: PairwisePrior,
    thetas: np.ndarray | Sequence[np.ndarray],
) -> np.ndarray:
    """Dense linear solve of the same prediction system, one report block at
    a time with all m coordinates as right-hand sides; cross-check for the
    iterative path, so it assembles its coupling without the shared kernel."""
    thetas = np.asarray(thetas, dtype=float)
    n, m = thetas.shape[0], thetas.shape[1]
    alpha, beta = config.alpha, config.beta
    cond = prior.conditional
    anchors = prediction_anchors(prior, thetas)
    if beta == 0.0:
        return np.broadcast_to(anchors[:, :, None, :], (n, m, m, m)).copy()

    out = np.empty((n, m, m, m))
    dim = n * m
    rhs = alpha * anchors.reshape(dim, m)
    for r in range(m):
        # coupling[(i, s), (j, v)] = q(v|s) theta_j[r, v] for j != i
        coup = np.einsum("ij,vs,jv->isjv", 1.0 - np.eye(n), cond, thetas[:, r]).reshape(dim, dim)
        # a row of the coupling sums to (n - 1) times its neighbor weight
        weight = coup.sum(axis=1) / (n - 1)
        lhs = np.diag(alpha + beta * weight) - (beta / (n - 1)) * coup
        out[:, :, r, :] = np.linalg.solve(lhs, rhs).reshape(n, m, m)
    return out
