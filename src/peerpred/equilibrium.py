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
report r is the mixture (alpha * anchor + beta * mix) / (alpha + beta *
anchor[r]), so equilibrium predictions solve a linear system, exactly by
:func:`solve_prediction_stack` over a stack of strategy lists, whose error
bound alone decides refinement and acceptance; :func:`solve_equilibrium_predictions`
is its stack of one, and :func:`solve_equilibrium_predictions_direct` solves
it densely from its own coupling matrix, as cross-check and fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mechanism import _BLOCK_CELLS, MechanismConfig, MechanismError
from .priors import PairwisePrior
from .strategy import StrategyProfile, leave_one_out, prediction_anchors
from .tolerances import PROBABILITY_TOL, SOLVER_TOL

__all__ = [
    "EquilibriumReport",
    "expected_conditional_payoff",
    "check_equilibrium",
    "solve_equilibrium_predictions",
    "solve_prediction_stack",
    "solve_equilibrium_predictions_direct",
    "solved_profile",
]

def _beta_over_alpha(config: MechanismConfig) -> float:
    """beta/alpha, the one parameter of the best and the solved predictions:
    this module computes them in units of alpha, so that huge alpha and beta
    stay in the float range.  A ratio past it raises :class:`MechanismError`."""
    ratio = config.beta / config.alpha
    if ratio == math.inf:
        raise MechanismError(f"beta/alpha = {config.beta:g}/{config.alpha:g} is past the float range")
    return ratio


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
    ratio = _beta_over_alpha(config)
    best = (anchors[..., None, :] + ratio * mix) / (1.0 + ratio * anchors)[..., None]
    return _PayoffTerms(np.broadcast_to(anchors[:, :, None, :], mix.shape), mix, self_score, best)


@dataclass(frozen=True)
class EquilibriumReport:
    """Per (agent i, signal s): ``values[i, s, r]``, the value of report r with
    its closed-form optimal prediction ``best_predictions[i, s, r]``;
    ``payoffs[i, s]``, the value of the profile's prescribed play; and
    ``gaps[i, s]``, the best value minus that payoff; ``anchors[i, s]``, a
    read-only :func:`~peerpred.strategy.prediction_anchors`.  Payoffs are
    linear in the agent's report distribution, so the best mixed deviation
    is a pure report with its optimal prediction: ``values[i, s].argmax()``,
    lowest index on ties, is a best response."""

    gaps: np.ndarray
    payoffs: np.ndarray
    values: np.ndarray
    best_predictions: np.ndarray
    anchors: np.ndarray

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gaps))


# overflow is caught once, in the values and gaps, rather than warned about
@np.errstate(over="ignore", invalid="ignore")
def check_equilibrium(
    config: MechanismConfig, prior: PairwisePrior, profile: StrategyProfile
) -> EquilibriumReport:
    """:class:`EquilibriumReport` of the profile.  A :class:`MechanismError`
    is raised when a value or gap passes the float range, as huge ``alpha``
    and ``beta`` make them."""
    terms = _payoff_terms(config, prior, profile)
    weights = profile.thetas.transpose(0, 2, 1)
    # reports of weight zero are scored at the optimal prediction instead, so a
    # log rule never probes the predictions of reports that are not played
    played = np.where((weights > 0.0)[..., None], profile.predictions, terms.best)
    # one scoring pass over both predictions: every value is computed
    # elementwise and summed over the last axis, as by two separate passes
    values, played_values = terms.values(config, np.stack([terms.best, played]))
    payoffs = np.sum(weights * played_values, axis=-1)
    gaps = values.max(axis=-1) - payoffs
    if not (np.isfinite(values).all() and np.isfinite(gaps).all()):
        raise MechanismError(
            "expected payoffs overflow: a value or gap is not finite "
            f"(alpha = {config.alpha:g}, beta = {config.beta:g})"
        )
    return EquilibriumReport(gaps, payoffs, values, terms.best, terms.anchor[:, :, 0])


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


# past beta/alpha of about 1e307 a term overflows; the bound is then not finite,
# and the stack is refused once, below, rather than warned about
@np.errstate(over="ignore", invalid="ignore")
def solve_prediction_stack(
    config: MechanismConfig, prior: PairwisePrior, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve_equilibrium_predictions` for a stack ``thetas`` (S, n, m, m)
    of S strategy lists under one prior: the predictions (S, n, m, m, m) and
    each member's error bound (S,).

    Per report r the system is lhs x = alpha anchor, where c = beta/(n-1),
    lhs = blockdiag_i(A_i) - c (1_n (x) q^T) [diag theta_1[r] ... diag theta_n[r]]
    and A_i = diag(alpha + beta anchor_i[:, r]) + c q^T diag theta_i[r]: n
    blocks of m x m plus a rank-m term, which Woodbury solves; solutions are
    clipped at 0, as the exact one is.  Each row of lhs has diagonal
    alpha + beta w and off-diagonal mass beta w, so the sup-norm error is at
    most ||lhs x - rhs|| / alpha: the bound, widened by the residual's
    roundoff.  A member whose residual passes that roundoff by ``SOLVER_TOL``
    and carries over half its bound takes one refinement step, a Woodbury
    solve of its residual.  A member is solved densely when its bound is not
    finite (a singular block) or its residual still passes its roundoff by
    ``SOLVER_TOL * max(1, beta/alpha)`` (any backward-stable solve's residual
    grows like 1 + beta/alpha), as after a nearly singular block, which
    LAPACK does not flag.  Each member gets its single-call bits; a pass
    holds at most ``_BLOCK_CELLS // (n m^4)`` members (at least one).

    The system is solved in units of alpha, at alpha = 1 and beta = beta/alpha:
    the solution is the same, and the terms stay in the float range at any
    alpha while beta/alpha is below about 1e307.  A final bound past
    ``PROBABILITY_TOL``, the tolerance of a prediction cell, or not finite,
    raises :class:`MechanismError` naming beta/alpha and the bound.
    The condition number grows like beta/alpha: over random stacks with
    n <= 512 and m <= 4, none was refused below beta/alpha = 3.7e5 and none
    accepted above 4.4e6.
    """
    thetas = np.asarray(thetas, dtype=float)
    size, n, m = thetas.shape[0], thetas.shape[1], thetas.shape[2]
    predictions = np.empty((size, n, m, m, m))
    bounds = np.zeros(size)
    ratio = _beta_over_alpha(config)
    per_pass = max(1, _BLOCK_CELLS // (n * m**4))
    for lo in range(0, size, per_pass):
        hi = min(lo + per_pass, size)
        _solve_pass(config, prior, thetas[lo:hi], predictions[lo:hi], bounds[lo:hi])
    worst = bounds.max(initial=0.0)
    if not worst <= PROBABILITY_TOL:
        raise MechanismError(
            f"at beta/alpha = {ratio:.3g} the solved prediction tables "
            f"have an error bound of {worst:.3g}, more than {PROBABILITY_TOL:g}: the prediction "
            "system's condition number grows like beta/alpha"
        )
    return predictions, bounds


def _solve_pass(config, prior, thetas, predictions, bounds):
    """Solve the stack ``thetas`` into ``predictions`` and ``bounds``, in
    units of alpha."""
    anchors = prediction_anchors(prior, thetas)  # (S, n, s, u)
    ratio = _beta_over_alpha(config)
    if ratio == 0.0:
        predictions[...] = anchors[..., None, :]
        return
    try:
        predictions[...] = _woodbury_solve(ratio, prior, thetas, anchors)
    except np.linalg.LinAlgError:  # a singular block: solve one member at a time
        if len(thetas) > 1:
            for k in range(len(thetas)):
                one = slice(k, k + 1)
                _solve_pass(config, prior, thetas[one], predictions[one], bounds[one])
            return
        predictions[...] = np.nan
    np.maximum(predictions, 0.0, out=predictions)
    bounds[...], excess = _error_bounds(ratio, prior, thetas, anchors, predictions)
    # one step of iterative refinement on the same blocks, x <- x - lhs^-1 (lhs x - rhs), for
    # members whose residual passes its roundoff by SOLVER_TOL and carries over half the bound
    refine = np.flatnonzero((excess > SOLVER_TOL) & (2.0 * excess > bounds))
    if refine.size:
        some = thetas[refine], anchors[refine]
        x = predictions[refine]
        x -= _woodbury_solve(ratio, prior, *some, rhs=_residual(ratio, prior, *some, x)[0])
        predictions[refine] = np.maximum(x, 0.0)
        bounds[refine], excess[refine] = _error_bounds(ratio, prior, *some, predictions[refine])
    # a singular block leaves NaN; a nearly singular one, a finite but large excess
    tol = SOLVER_TOL * max(1.0, ratio)  # residuals grow with beta/alpha
    for k in np.flatnonzero(~(np.isfinite(bounds) & (excess <= tol))):
        dense, one = solve_equilibrium_predictions_direct(config, prior, thetas[k]), slice(k, k + 1)
        predictions[k] = np.maximum(dense, 0.0)
        bounds[one] = _error_bounds(ratio, prior, thetas[one], anchors[one], predictions[one])[0]


def _woodbury_solve(ratio, prior, thetas, anchors, rhs=None):
    """Solutions (S, n, s, r, u) of lhs x = rhs over a stack at alpha = 1,
    beta = ``ratio``, rhs = anchor by default.  With Z_i = A_i^-1 q^T and
    Y_i = A_i^-1 rhs_i they are x_i = Y_i + c Z_i W, where
    (I - c sum_j diag theta_j[r] Z_j) W = sum_j diag theta_j[r] Y_j.  For
    anchor_i = q^T P_i, with P_i = theta_minus_i^T, Y_i = Z_i P_i."""
    n, m = thetas.shape[1], thetas.shape[2]
    c = ratio / (n - 1)
    qt = prior.conditional.T  # q(v|s) at [s, v]
    blocks = c * np.einsum("sv,kirv->krisv", qt, thetas)  # A_i at [k, r, i, s, v]
    diagonal = np.arange(m)
    blocks[..., diagonal, diagonal] += 1.0 + ratio * anchors.transpose(0, 3, 1, 2)
    z = np.linalg.solve(blocks, qt)  # qt broadcast over the blocks
    if rhs is None:
        y = z @ leave_one_out(thetas).transpose(0, 1, 3, 2)[:, None]
    else:
        y = np.linalg.solve(blocks, rhs.transpose(0, 3, 1, 2, 4))
    vz = np.einsum("kirv,krivt->krvt", thetas, z)
    vy = np.einsum("kirv,krivu->krvu", thetas, y)
    w = np.linalg.solve(np.eye(m) - c * vz, vy)
    return (y + c * z @ w[:, :, None]).transpose(0, 2, 3, 1, 4)


def _residual(ratio, prior, thetas, anchors, x):
    """lhs x - anchor over a stack at alpha = 1, beta = ``ratio``, and four
    units of roundoff of each row's terms."""
    lead = (1.0 + ratio * anchors)[..., None] * x
    rest = ratio * _neighbor_sum(prior.conditional, thetas, x) + anchors[..., None, :]
    return lead - rest, 4.0 * np.finfo(float).eps * (lead + rest)


def _error_bounds(ratio, prior, thetas, anchors, x):
    """Per member of a stack at alpha = 1, beta = ``ratio``: ||lhs x -
    anchor|| with four units of roundoff of each row's terms added to its
    residual, the error bound; and the most that a row's residual exceeds
    that roundoff."""
    residual, rounding = _residual(ratio, prior, thetas, anchors, x)
    residual, rows = np.abs(residual), (1, 2, 3, 4)
    return (residual + rounding).max(axis=rows), (residual - rounding).max(axis=rows)


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
    ratio = _beta_over_alpha(config)  # in units of alpha, as the Woodbury path
    cond = prior.conditional
    anchors = prediction_anchors(prior, thetas)
    if ratio == 0.0:
        return np.broadcast_to(anchors[:, :, None, :], (n, m, m, m)).copy()

    out = np.empty((n, m, m, m))
    dim = n * m
    rhs = anchors.reshape(dim, m)
    for r in range(m):
        # coupling[(i, s), (j, v)] = q(v|s) theta_j[r, v] for j != i
        coup = np.einsum("ij,vs,jv->isjv", 1.0 - np.eye(n), cond, thetas[:, r]).reshape(dim, dim)
        # a row of the coupling sums to (n - 1) times its neighbor weight
        weight = coup.sum(axis=1) / (n - 1)
        lhs = np.diag(1.0 + ratio * weight) - (ratio / (n - 1)) * coup
        out[:, :, r, :] = np.linalg.solve(lhs, rhs).reshape(n, m, m)
    return out
