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

import itertools
from dataclasses import dataclass, field

import numpy as np

from .divergence import hellinger
from .equilibrium import check_equilibrium, solve_prediction_stack, solved_profile
from .mechanism import _BLOCK_CELLS, MechanismConfig, welfare_batch, welfare_metrics
from .priors import (
    PairwisePrior,
    PermutationMap,
    PriorError,
    _map_strategy,
    permute_prior,
    prior_constants,
)
from .strategy import (
    StrategyProfile,
    agent_types,
    best_prediction_profile,
    candidate_profiles,
    check_signal_count,
    permute_profile,
    prediction_anchors,
    random_signal_strategies,
    tau_closeness,
    truth_telling_profile,
    validate_signal_strategy,
)
from .tolerances import AUDIT_TOL, BEST_PREDICTION_TOL, BOUND_TOL, PROBABILITY_TOL

__all__ = [
    "AuditResult",
    "AuditError",
    "classification_bound_audit",
    "aggregation_error_audit",
    "far_from_permutation_gap",
    "relabeling_cycle_audit",
    "sweep_row",
    "welfare_comparison",
    "WelfareRow",
    "symmetric_fixed_points",
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
    """
    bp = best_prediction_profile(profile, prior)
    breakdown, bp_breakdown = welfare_batch([prior, prior], [profile, bp])
    lhs = breakdown.classification_score
    rhs = bp_breakdown.total_divergence
    slack = rhs - lhs

    realized = profile.thetas.transpose(0, 2, 1)[..., None] > 0.0  # [i, s, r, 1]
    bp_distance = float(np.max(np.abs(profile.predictions - bp.predictions) * realized))
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
    each unordered pair of types is visited once: a row block of whole types
    against the types from its own first one onward.  D* is taken
    elementwise, as :func:`hellinger` defines it, from each anchor's square
    roots, its squared differences summed in coordinate order; each row block
    holds at most ``_BLOCK_CELLS`` cell pairs (or one type's row).  That is
    O(T^2 m^3 / 2) time and O(n m^2 + m _BLOCK_CELLS) memory.
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
    types = first.size
    cells = types * m
    # cell (t, s): type t at private signal s.  Every difference sqrt x_f -
    # sqrt y_f is the product [sqrt x_f, 1] @ [1, -sqrt y_f]: both terms are
    # exact and their sum rounds once, as the subtraction does, so one matmul
    # per block gives the subtraction's bits
    roots = np.sqrt(prediction_anchors(prior, thetas)[first])
    row_pairs = np.empty((m, cells, 2))  # [f, x, (sqrt x_f, 1)]
    row_pairs[..., 0] = roots.reshape(cells, m).T
    row_pairs[..., 1] = 1.0
    col_pairs = np.empty((m, 2, cells))  # [f, (1, -sqrt y_f), y]
    col_pairs[:, 0] = 1.0
    np.negative(row_pairs[..., 0], out=col_pairs[:, 1])
    # a single agent's type does not pair with itself: the bound quantifies
    # distinct agents
    alone = counts < 2

    ref_points = (thetas.mean(axis=0) @ prior.conditional).T  # row s = theta_bar q_s
    ref = hellinger(ref_points[:, None, :], ref_points[None, :, :])  # (m, m)

    lhs = 0.0
    rows = max(1, _BLOCK_CELLS // (cells * m))  # types per row block
    # one buffer for the widest block: fresh arrays cost page faults per block
    buffer = np.empty(m * min(rows, types) * m * cells)
    for lo in range(0, types, rows):
        hi = min(lo + rows, types)
        height, width = (hi - lo) * m, (types - lo) * m
        diff = buffer[: m * height * width].reshape(m, height, width)
        np.matmul(row_pairs[:, lo * m : hi * m], col_pairs[..., lo * m :], out=diff)
        np.square(diff, out=diff)
        dstar = diff[0]
        for term in diff[1:]:
            dstar += term
        dev = dstar.reshape(hi - lo, m, types - lo, m)
        dev -= ref[:, None, :]
        np.abs(dev, out=dev)
        own = np.flatnonzero(alone[lo:hi])
        dev[own, :, own] = 0.0
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
    theta = validate_signal_strategy(theta, tol=PROBABILITY_TOL)
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
    cycle.
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
    # Q_ord is a bit-exact copy of Q, and a batch scores equal scenarios alike
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
    scored as one batch; each is the list, and each score the value within
    rounding, that drawing, solving and scoring them one at a time gives.
    """
    truth = welfare_metrics(prior, truth_telling_profile(prior, n)).classification_score
    thetas = random_signal_strategies(rng, prior.m, (samples, n))
    predictions, _ = solve_prediction_stack(config, prior, thetas)
    profiles = [StrategyProfile(t, p) for t, p in zip(thetas, predictions)]
    scores = welfare_batch([prior] * samples, profiles)
    return max(wb.classification_score - truth for wb in scores)


def symmetric_fixed_points(
    config: MechanismConfig, prior: PairwisePrior, n: int
) -> dict[tuple[int, ...], StrategyProfile]:
    """Fixed points of best-response dynamics on the m^m deterministic
    symmetric signal maps, in sorted order, each with its solved profile.

    For each map, all agents play it with solved predictions; the
    best-response map sends each private signal to the optimal report.  A map
    is fixed when it is its own best response.
    """
    m = prior.m
    fixed = {}
    for g in itertools.product(range(m), repeat=m):
        profile = solved_profile(config, prior, [_map_strategy(g)] * n)
        best = check_equilibrium(config, prior, profile).values[0].argmax(axis=-1)
        if tuple(int(r) for r in best) == g:
            fixed[g] = profile
    return fixed


@dataclass(frozen=True)
class WelfareRow:
    name: str
    classification_score: float
    equilibrium_max_gap: float
    theta_bar_tau_closeness: float
    margin_to_truth: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "classification_score": self.classification_score,
            "equilibrium_max_gap": self.equilibrium_max_gap,
            "theta_bar_tau_closeness": self.theta_bar_tau_closeness,
            "margin_to_truth": self.margin_to_truth,
        }


def welfare_comparison(
    config: MechanismConfig,
    prior: PairwisePrior,
    n: int,
    include_dynamics: bool = True,
) -> list[WelfareRow]:
    """Classification scores of the benchmark profiles, sorted best first.

    Covers truth-telling, every permutation profile, constant-report
    collusion, uniform reporting with solved predictions, the one-agent-per-
    signal counterexample when n = m, and (optionally) the fixed points of
    symmetric best-response dynamics with solved predictions.
    """
    config.warn_if_outside_regime(prior.m)
    profiles = dict(candidate_profiles(prior, n))
    uniform = profiles.pop("uniform")
    profiles["uniform"] = solved_profile(config, prior, uniform.thetas)
    if include_dynamics:
        for g, profile in symmetric_fixed_points(config, prior, n).items():
            profiles.setdefault(f"solved:{','.join(map(str, g))}", profile)

    truth_score = welfare_metrics(prior, truth_telling_profile(prior, n)).classification_score
    rows = []
    for name, profile in profiles.items():
        score = welfare_metrics(prior, profile).classification_score
        gap = check_equilibrium(config, prior, profile).max_gap
        closeness = tau_closeness(profile.thetas.mean(axis=0))
        rows.append(WelfareRow(name, score, gap, closeness, truth_score - score))
    rows.sort(key=lambda row: (-row.classification_score, row.name))
    return rows
