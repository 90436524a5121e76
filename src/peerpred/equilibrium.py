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
predictions solve a linear system: :func:`solve_prediction_stack` solves it
exactly over a stack of strategy lists, :func:`solve_equilibrium_predictions`
is its stack of one, and :func:`solve_equilibrium_predictions_direct` solves
it densely from its own coupling matrix, as cross-check and fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mechanism import _BLOCK_CELLS, MechanismConfig, MechanismError
from .priors import PairwisePrior
from .strategy import StrategyProfile, leave_one_out, prediction_anchors
from .tolerances import EQUILIBRIUM_EPS, PROBABILITY_TOL, SOLVER_TOL

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
    every (i, s, r): the leave-one-out average of the per-agent terms.
    ``thetas`` is (n, m, m), or (S, n, m, m) for a stack of S strategy lists
    under one prior, whose leading axis the field and the result share.
    Subscripts are spelled out per rank: an ellipsis einsum is slower."""
    stack = "k" * (thetas.ndim - 3)
    tail = "u" * (field.ndim - thetas.ndim)
    per_agent = np.einsum(
        f"vs,{stack}jrv,{stack}jvr{tail}->{stack}jsr{tail}", cond, thetas, field
    )
    return leave_one_out(per_agent, axis=len(stack))


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
    denom = (config.alpha + config.beta * anchors)[..., None]
    best = (config.alpha * anchors[..., None, :] + config.beta * mix) / denom
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
    config: MechanismConfig, prior: PairwisePrior, thetas: np.ndarray | Sequence[np.ndarray]
) -> tuple[np.ndarray, float]:
    """Solve the equilibrium prediction tables for fixed signal strategies
    exactly.  Returns (predictions with shape (n, m, m, m), a bound on their
    sup-norm error); with beta = 0 these are the anchors and 0.  This is
    :func:`solve_prediction_stack` on a stack of one."""
    thetas = np.asarray(thetas, dtype=float)
    predictions, bounds = solve_prediction_stack(config, prior, thetas[None])
    return predictions[0], float(bounds[0])


def solve_prediction_stack(
    config: MechanismConfig, prior: PairwisePrior, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve_equilibrium_predictions` for a stack ``thetas`` (S, n, m, m)
    of S strategy lists under one prior: the predictions (S, n, m, m, m) and
    each member's error bound (S,).

    Per report r the system is lhs x = alpha anchor, where c = beta/(n-1),
    lhs = blockdiag_i(A_i) - c (1_n (x) q^T) [diag theta_1[r] ... diag theta_n[r]]
    and A_i = diag(alpha + beta anchor_i[:, r]) + c q^T diag theta_i[r]: n
    blocks of m x m plus a rank-m term, which Woodbury solves.  Each row of
    lhs has diagonal alpha + beta w and off-diagonal mass beta w, so the
    sup-norm error is at most ||lhs x - rhs|| / alpha: the bound, widened by
    the roundoff of the residual's terms.  A member whose residual exceeds
    that roundoff by more than ``SOLVER_TOL`` takes one step of iterative
    refinement, a Woodbury solve of its residual.  A member is solved densely
    instead when its bound is not finite (a singular block) or its residual
    still exceeds that roundoff by more than ``SOLVER_TOL * max(1,
    beta/alpha)`` (the residual of any backward-stable solve grows like 1 +
    beta/alpha), as after a nearly singular block, which LAPACK does not
    flag.  The exact solution is non-negative, so solutions are clipped at 0.
    Each member's result is the one it gets alone, bit for bit; a pass holds
    at most ``_BLOCK_CELLS // (n m^4)`` members (at least one).

    The system's condition number grows like beta/alpha: from beta/alpha of
    about 1e8 the solved tables miss the simplex by more than a prediction
    may (``PROBABILITY_TOL``), and :class:`MechanismError` is raised, naming
    beta/alpha and the miss.
    """
    thetas = np.asarray(thetas, dtype=float)
    size, n, m = thetas.shape[0], thetas.shape[1], thetas.shape[2]
    predictions = np.empty((size, n, m, m, m))
    bounds = np.zeros(size)
    per_pass = max(1, _BLOCK_CELLS // (n * m**4))
    for lo in range(0, size, per_pass):
        hi = min(lo + per_pass, size)
        _solve_pass(config, prior, thetas[lo:hi], predictions[lo:hi], bounds[lo:hi])
    miss = float(np.abs(predictions.sum(axis=-1) - 1.0).max()) if predictions.size else 0.0
    if not miss <= PROBABILITY_TOL:
        raise MechanismError(
            f"at beta/alpha = {config.beta / config.alpha:.3g} the solved prediction tables "
            f"miss the simplex by {miss:.3g}, more than {PROBABILITY_TOL:g}: the prediction "
            "system's condition number grows like beta/alpha"
        )
    return predictions, bounds


def _solve_pass(config, prior, thetas, predictions, bounds):
    """Solve the stack ``thetas`` into ``predictions`` and ``bounds``."""
    anchors = prediction_anchors(prior, thetas)  # (S, n, s, u)
    if config.beta == 0.0:
        predictions[...] = anchors[..., None, :]
        return
    try:
        predictions[...] = _woodbury_solve(config, prior, thetas, anchors)
    except np.linalg.LinAlgError:  # a singular block: solve one member at a time
        if len(thetas) > 1:
            for k in range(len(thetas)):
                one = slice(k, k + 1)
                _solve_pass(config, prior, thetas[one], predictions[one], bounds[one])
            return
        predictions[...] = np.nan
    np.maximum(predictions, 0.0, out=predictions)
    bounds[...], excess = _error_bounds(config, prior, thetas, anchors, predictions)
    # one step of iterative refinement on the same blocks, x <- x - lhs^-1 (lhs x - rhs),
    # for the members whose residual passes its roundoff by SOLVER_TOL
    refine = np.flatnonzero(np.isfinite(bounds) & (excess > SOLVER_TOL))
    if refine.size:
        some = thetas[refine], anchors[refine]
        x = predictions[refine]
        x -= _woodbury_solve(config, prior, *some, rhs=_residual(config, prior, *some, x)[0])
        predictions[refine] = np.maximum(x, 0.0)
        bounds[refine], excess[refine] = _error_bounds(config, prior, *some, predictions[refine])
    # a singular block leaves NaN; a nearly singular one, a finite but large excess
    tol = SOLVER_TOL * max(1.0, config.beta / config.alpha)  # residuals grow with beta/alpha
    for k in np.flatnonzero(~(np.isfinite(bounds) & (excess <= tol))):
        dense, one = solve_equilibrium_predictions_direct(config, prior, thetas[k]), slice(k, k + 1)
        predictions[k] = np.maximum(dense, 0.0)
        bounds[one] = _error_bounds(config, prior, thetas[one], anchors[one], predictions[one])[0]


def _woodbury_solve(config, prior, thetas, anchors, rhs=None):
    """Solutions (S, n, s, r, u) of lhs x = rhs over a stack, rhs = alpha
    anchor by default.  With Z_i = A_i^-1 q^T and Y_i = A_i^-1 rhs_i they are
    x_i = Y_i + c Z_i W, where (I - c sum_j diag theta_j[r] Z_j) W
    = sum_j diag theta_j[r] Y_j.  For alpha anchor_i = q^T P_i, with
    P_i = alpha theta_minus_i^T, Y_i = Z_i P_i."""
    alpha, beta, n, m = config.alpha, config.beta, thetas.shape[1], thetas.shape[2]
    c = beta / (n - 1)
    qt = prior.conditional.T  # q(v|s) at [s, v]
    blocks = c * np.einsum("sv,kirv->krisv", qt, thetas)  # A_i at [k, r, i, s, v]
    diagonal = np.arange(m)
    blocks[..., diagonal, diagonal] += alpha + beta * anchors.transpose(0, 3, 1, 2)
    z = np.linalg.solve(blocks, qt)  # qt broadcast over the blocks
    if rhs is None:
        y = z @ (alpha * leave_one_out(thetas).transpose(0, 1, 3, 2))[:, None]
    else:
        y = np.linalg.solve(blocks, rhs.transpose(0, 3, 1, 2, 4))
    vz = np.einsum("kirv,krivt->krvt", thetas, z)
    vy = np.einsum("kirv,krivu->krvu", thetas, y)
    w = np.linalg.solve(np.eye(m) - c * vz, vy)
    return (y + c * z @ w[:, :, None]).transpose(0, 2, 3, 1, 4)


def _residual(config, prior, thetas, anchors, x):
    """lhs x - alpha anchor over a stack, and four units of roundoff of each
    row's terms."""
    alpha, beta = config.alpha, config.beta
    lead = (alpha + beta * anchors)[..., None] * x
    rest = beta * _neighbor_sum(prior.conditional, thetas, x) + alpha * anchors[..., None, :]
    return lead - rest, 4.0 * np.finfo(float).eps * (lead + rest)


def _error_bounds(config, prior, thetas, anchors, x):
    """Per member of a stack: ||lhs x - alpha anchor|| / alpha with four units
    of roundoff of each row's terms added to its residual, the error bound;
    and the most that a row's residual exceeds that roundoff, over alpha."""
    residual, rounding = _residual(config, prior, thetas, anchors, x)
    residual, rows = np.abs(residual), (1, 2, 3, 4)
    bounds = (residual + rounding).max(axis=rows) / config.alpha
    return bounds, (residual - rounding).max(axis=rows) / config.alpha


def solved_profile(
    config: MechanismConfig, prior: PairwisePrior, thetas: np.ndarray | Sequence[np.ndarray]
) -> StrategyProfile:
    """Profile with the given signal strategies and exactly solved predictions."""
    thetas = np.asarray(thetas, dtype=float)
    predictions, _ = solve_equilibrium_predictions(config, prior, thetas)
    return StrategyProfile(thetas.copy(), predictions)


def solve_equilibrium_predictions_direct(
    config: MechanismConfig, prior: PairwisePrior, thetas: np.ndarray | Sequence[np.ndarray]
) -> np.ndarray:
    """Dense linear solve of the same prediction system, one report block at
    a time with all m coordinates as right-hand sides: the oracle of the
    Woodbury path, so it assembles its coupling without the shared kernel,
    and its fallback for members with singular blocks."""
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
