"""Numeric audits of the welfare-ordering guarantees.

Each audit evaluates both sides of one provable inequality or identity at
concrete inputs and reports the slack.  Together they cover: the bound of any
solved profile's classification score by the total divergence of its
best-prediction counterpart; the vanishing gap between leave-one-out and
population-average report distributions as the number of agents grows; the
quantitative welfare loss of signal strategies far from a permutation; and
the welfare-cycle identity behind the impossibility of rewarding truth-telling
strictly above all relabelings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .divergence import hellinger
from .equilibrium import check_equilibrium, solve_prediction_stack
from .mechanism import _BLOCK_CELLS, MechanismConfig, welfare_batch, welfare_metrics
from .priors import PairwisePrior, PermutationMap, PriorError, permute_prior, prior_constants
from .strategy import (
    StrategyProfile,
    agent_types,
    check_signal_count,
    permute_profile,
    prediction_anchors,
    random_signal_strategies,
    tau_closeness,
    truth_telling_profile,
    validate_signal_strategy,
)
from .tolerances import AUDIT_TOL, BEST_PREDICTION_TOL, BOUND_TOL

__all__ = [
    "AuditResult",
    "AuditError",
    "classification_bound_audit",
    "aggregation_error_audit",
    "best_prediction_total_divergence",
    "far_from_permutation_gap",
    "relabeling_cycle_audit",
    "sweep_row",
    "total_divergence_symmetric",
]


class AuditError(ValueError):
    """Raised when an audit's precondition fails."""


@dataclass(frozen=True)
class AuditResult:
    """One checked relation.  ``slack = rhs - lhs``; for inequality audits
    (lhs <= rhs) passing means slack >= -tolerance, for equality audits
    |slack| <= tolerance."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
            "context": dict(self.context),
        }


def classification_bound_audit(
    config: MechanismConfig,
    prior: PairwisePrior,
    profile: StrategyProfile,
) -> AuditResult:
    """classification_score(s) <= total_divergence(s with best predictions).

    The bound is meaningful when the profile's predictions are best responses
    (solved); the audit runs regardless and records the equilibrium gap.  At
    equality the profile must be consistent (inconsistency 0) and already play
    best predictions on every realized report cell; both are reported.

    The left side is the profile's :func:`welfare_metrics`.  Best predictions
    ignore the report, so the right side is
    :func:`best_prediction_total_divergence` of the signal strategies, one
    scan over the pairs of agent types' anchors theta_minus q_s; the same
    anchors give the distance of the profile's predictions to them.
    """
    thetas = profile.thetas
    anchors = prediction_anchors(prior, thetas)  # [i, s, coordinate]
    breakdown = welfare_metrics(prior, profile)
    lhs = breakdown.classification_score
    rhs = _anchor_divergence(prior, anchors, *agent_types(thetas))
    slack = rhs - lhs

    realized = thetas.transpose(0, 2, 1)[..., None] > 0.0  # [i, s, r, 1]
    bp_distance = float(np.max(np.abs(profile.predictions - anchors[:, :, None]) * realized))
    eq_gap = check_equilibrium(config, prior, profile).max_gap
    equality = abs(slack) <= BOUND_TOL
    context = {
        "inconsistency": breakdown.inconsistency,
        "equilibrium_max_gap": eq_gap,
        "best_prediction_distance": bp_distance,
        "equality": equality,
        "equality_conditions_hold": bool(
            not equality
            or (breakdown.inconsistency <= BOUND_TOL and bp_distance <= BEST_PREDICTION_TOL)
        ),
    }
    return AuditResult("classification-bound", lhs, rhs, slack, slack >= -BOUND_TOL, context)


def _anchor_pairs(type_anchors: np.ndarray):
    """The scan over pairs of (type, signal) anchors, one per agent type t
    and private signal a in ``type_anchors`` (T, m, m).  Yields, per row
    block of whole types [lo, hi), ``(lo, hi, dstar)`` with
    dstar[a, t - lo, u - lo, b] = D*(anchor[t, a], anchor[u, b]) for the
    types u >= lo, so each unordered pair of types is visited once.

    D* is taken elementwise, as :func:`hellinger` defines it: from each
    anchor's square roots, the squared differences summed in coordinate
    order, with no square root of a difference.  A block holds at most
    ``_BLOCK_CELLS`` cell pairs (or one type's row), in one buffer that the
    next block overwrites: O(T^2 m^3 / 2) time and O(T m^2 + m _BLOCK_CELLS)
    memory.
    """
    types, m = type_anchors.shape[0], type_anchors.shape[1]
    cells = types * m
    # every difference sqrt x_f - sqrt y_f is the product [sqrt x_f, 1] @
    # [1, -sqrt y_f]: both terms are exact and their sum rounds once, as the
    # subtraction does, so one matmul per block gives the subtraction's bits
    factors = np.ones(4 * m * cells)
    row_pairs = factors[: 2 * m * cells].reshape(m, m, types, 2)  # [f, a, t, (sqrt x_f, 1)]
    col_pairs = factors[2 * m * cells :].reshape(m, 2, cells)  # [f, (1, -sqrt y_f), (u, b)]
    roots = np.sqrt(type_anchors.transpose(2, 1, 0), out=row_pairs[..., 0])  # [f, a, t]
    np.negative(roots.transpose(0, 2, 1), out=col_pairs[:, 1].reshape(m, types, m))

    rows = max(1, _BLOCK_CELLS // (cells * m))  # types per row block
    # one buffer for the widest block: fresh arrays cost page faults per block
    buffer = np.empty(m * m * min(rows, types) * cells)
    for lo in range(0, types, rows):
        hi = min(lo + rows, types)
        height, width = hi - lo, (types - lo) * m
        diff = buffer[: m * m * height * width].reshape(m, m, height, width)
        np.matmul(row_pairs[:, :, lo:hi], col_pairs[:, None, :, lo * m :], out=diff)
        np.square(diff, out=diff)
        dstar = diff[0]
        for term in diff[1:]:
            dstar += term
        yield lo, hi, dstar.reshape(m, height, types - lo, m)


def _anchor_divergence(prior: PairwisePrior, anchors, first, counts) -> float:
    """:func:`best_prediction_total_divergence` from every agent's anchors
    (n, m, m) and the agent types (first agent, count) of the strategies."""
    n, m = anchors.shape[0], anchors.shape[1]
    # both orders of a pair of types hold the same D*, so twice the symmetric
    # part of the joint weighs the pair in either order
    joint = prior.joint()
    twice_sym = joint + joint.T
    c = counts.astype(float)
    total = 0.0
    for lo, hi, dstar in _anchor_pairs(anchors[first]):
        # c_t (c_u - [t = u]) ordered agent pairs of types t, u in the block,
        # and both orders of a pair with a type past it: exact in floats
        height, width = hi - lo, c.size - lo
        pairs = c[lo:hi, None] * c[lo:]
        pairs.reshape(-1)[: height * (width + 1) : width + 1] -= c[lo:hi]
        pairs[:, height:] *= 2.0
        # the block's D* at each signal pair (a, b), weighted by agent pairs
        total += np.vdot(twice_sym, pairs.reshape(-1) @ dstar.reshape(m, -1, m))
    return 0.5 * float(total) / (n * (n - 1))


def best_prediction_total_divergence(prior: PairwisePrior, thetas: np.ndarray) -> float:
    """Total divergence of the signal strategies ``thetas`` (n, m, m) played
    with best predictions: the right side of the classification bound.

    Agent i's best prediction theta_minus[i] q_s ignores the report, so the
    total divergence is the sum over ordered agent pairs j != k and signal
    pairs (a, b) of joint[a, b] D*(anchor[j, a], anchor[k, b]) / (n (n - 1)).
    With c_t agents of type t (byte-identical strategies, hence anchors),
    the sum runs over the scan of :func:`_anchor_pairs`: each pair of types
    once, weighted c_t (c_u - [t = u]) by the symmetric part of the joint,
    and twice when the types differ.  Every term is non-negative, so nothing
    cancels.  O(T^2 m^3 / 2) time for T agent types.
    """
    thetas = np.asarray(thetas, dtype=float)
    return _anchor_divergence(prior, prediction_anchors(prior, thetas), *agent_types(thetas))


def aggregation_error_audit(
    prior: PairwisePrior, theta_list: np.ndarray, eps: float
) -> AuditResult:
    """Max over agent pairs and signal pairs of the Hellinger-divergence error
    from replacing leave-one-out averages by the population average.

    Requires n > 32 m^2 / eps^2 agents, the threshold above which the error is
    provably below eps for every strategy list.

    Agents with byte-identical strategies have bit-identical anchors
    theta_minus q_s, so the maximum runs over the T agent types instead: over
    pairs of distinct types, and over a type paired with itself when it has
    at least two agents.  D* and the reference are symmetric bit for bit, so
    the maximum reads the scan of :func:`_anchor_pairs`, which visits each
    unordered pair of types once: O(T^2 m^3 / 2) time and
    O(n m^2 + m _BLOCK_CELLS) memory.
    """
    if not eps > 0.0:
        raise AuditError(f"eps must be positive, got {eps}")
    thetas = np.asarray(theta_list, dtype=float)
    n, m = thetas.shape[0], thetas.shape[1]
    needed = 32.0 * m * m / eps / eps
    if n <= needed:
        raise AuditError(
            f"need more than {needed:.0f} agents for eps={eps} (m={m}), got {n}"
        )
    first, counts = agent_types(thetas)
    # a single agent's type does not pair with itself: the bound quantifies
    # distinct agents
    alone = counts < 2

    ref_points = (thetas.mean(axis=0) @ prior.conditional).T  # row s = theta_bar q_s
    ref = hellinger(ref_points[:, None, :], ref_points[None, :, :])  # (m, m)

    lhs = 0.0
    for lo, hi, dev in _anchor_pairs(prediction_anchors(prior, thetas)[first]):
        dev -= ref[:, None, None, :]
        np.abs(dev, out=dev)
        own = np.flatnonzero(alone[lo:hi])
        dev[:, own, own] = 0.0
        lhs = np.maximum(lhs, dev.max())  # keeps a NaN, as np.max does
    lhs = float(lhs)
    return AuditResult(
        "aggregation-error",
        lhs,
        eps,
        eps - lhs,
        lhs < eps,
        {"n": n, "m": m, "threshold": needed},
    )


def total_divergence_symmetric(prior: PairwisePrior, theta: np.ndarray) -> float:
    """Total divergence of the symmetric profile where everyone predicts
    theta q_s: sum over signal pairs of Pr(a, b) D*(theta q_a, theta q_b).
    Independent of the number of agents."""
    points = (np.asarray(theta, dtype=float) @ prior.conditional).T
    dmat = hellinger(points[:, None, :], points[None, :, :])
    return float(np.sum(prior.joint() * dmat))


def far_from_permutation_gap(prior: PairwisePrior, theta: np.ndarray, tau: float) -> AuditResult:
    """Welfare loss of signal strategies that are not tau-close to a
    permutation: total_divergence(truth) - total_divergence(s_theta) is at
    least c2 (tau c1)^3 c4 c3.

    ``s_theta`` is the symmetric profile whose agents play theta and predict
    theta q_s.  Errors if theta is tau-close (the bound is vacuous there).
    """
    if not tau >= 0.0:
        raise AuditError(f"tau must be non-negative, got {tau}")
    theta = validate_signal_strategy(theta)
    check_signal_count(prior, theta.shape[0])
    if tau_closeness(theta) <= tau:
        raise AuditError(
            f"theta is tau-close at tau={tau} (second-largest row entries <= tau); "
            "the far-from-permutation bound does not apply"
        )
    consts = prior_constants(prior)
    lhs = consts.c2 * (tau * consts.c1) ** 3 * consts.c4 * consts.c3
    m = prior.m
    rhs = total_divergence_symmetric(prior, np.eye(m)) - total_divergence_symmetric(
        prior, theta
    )
    return AuditResult(
        "far-from-permutation",
        lhs,
        rhs,
        rhs - lhs,
        rhs >= lhs - AUDIT_TOL,
        {"tau": tau, **consts.to_dict()},
    )


def relabeling_cycle_audit(
    prior: PairwisePrior,
    profile: StrategyProfile,
    perm: PermutationMap,
) -> list[AuditResult]:
    """Welfare equalities along the relabeling cycle.

    With priors Q_k = perm^k(Q), the scenario (Q_{k+1}, s) is payoff-identical
    to (Q_k, perm(s)); average welfare therefore cannot strictly drop at every
    relabeling step, because after ord(perm) steps the starting scenario
    returns.  Each step's equality is checked exactly, plus the closure of the
    cycle.  The 2 ord + 1 scenarios are scored as one batch, each bit for bit
    as alone.
    """
    if perm.m != prior.m:
        raise PriorError(f"permutation on {perm.m} signals, prior has {prior.m}")
    if perm.is_identity:
        raise AuditError("the relabeling cycle needs a non-identity permutation")

    permuted_profile = permute_profile(profile, perm)
    order = perm.order
    priors_k = [prior]
    for _ in range(order):
        priors_k.append(permute_prior(priors_k[-1], perm))

    # one batch: (Q_k, s) for k = 0..ord, then (Q_k, perm(s)) for k < ord
    scenarios = welfare_batch(
        priors_k + priors_k[:order], [profile] * (order + 1) + [permuted_profile] * order
    )
    welfare = [wb.average_welfare for wb in scenarios]
    results = []
    for k in range(order):
        lhs, rhs = welfare[k + 1], welfare[order + 1 + k]
        results.append(
            AuditResult(
                f"relabeling-step-{k}",
                lhs,
                rhs,
                rhs - lhs,
                abs(rhs - lhs) <= AUDIT_TOL,
                {"k": k, "order": order},
            )
        )
    # Q_ord is a bit-exact copy of Q, so the closure's two scores are equal
    aw_first, aw_last = welfare[0], welfare[order]
    results.append(
        AuditResult(
            "relabeling-closure",
            aw_last,
            aw_first,
            aw_first - aw_last,
            abs(aw_first - aw_last) <= AUDIT_TOL,
            {"order": order},
        )
    )
    return results


def sweep_row(
    config: MechanismConfig,
    prior: PairwisePrior,
    n: int,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Largest welfare gain over truth-telling among ``samples`` random
    signal-strategy lists of n agents with solved predictions: the max over
    the samples of classification score minus truth-telling's, the quantity
    that the n-dependence bound gamma2(n) caps.

    The lists come from one draw of ``rng``, are solved as one stack and
    scored, with truth-telling, as one batch; each is the list, and each
    score the value bit for bit, that drawing, solving and scoring them one
    at a time gives.
    """
    truth = truth_telling_profile(prior, n)  # first, as it checks n
    thetas = random_signal_strategies(rng, prior.m, (samples, n))
    predictions, _ = solve_prediction_stack(config, prior, thetas)
    profiles = [StrategyProfile(t, p) for t, p in zip(thetas, predictions)]
    *scores, truth = welfare_batch([prior] * (samples + 1), profiles + [truth])
    return max(wb.classification_score - truth.classification_score for wb in scores)
