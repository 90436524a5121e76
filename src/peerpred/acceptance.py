"""Self-contained acceptance battery.

Each criterion is a plain check: it exercises one end-to-end guarantee at
fixed seeds and pinned tolerances and returns ``(passed, detail)``.
:data:`CRITERIA` pairs each check with its printed name, in order.  The one
runner, :func:`run`, numbers a check by its place in that list, times it and
builds its :class:`CriterionResult`; ``run_all`` (the ``suite`` CLI
subcommand) and the pytest acceptance module both go through it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .audits import (
    aggregation_error_audit,
    classification_bound_audit,
    far_from_permutation_gap,
    relabeling_cycle_audit,
)
from .divergence import hellinger, monotonicity_strict_predicate
from .equilibrium import (
    check_equilibrium,
    solve_equilibrium_predictions,
    solve_equilibrium_predictions_direct,
    solved_profile,
)
from .mechanism import (
    MechanismConfig,
    _round_payments,
    monte_carlo_payments,
    welfare_batch,
    welfare_metrics,
    zero_sum_group_scores,
)
from .priors import (
    PairwisePrior,
    PermutationMap,
    SignalSpace,
    _map_strategy,
    all_permutations,
    from_latent,
    random_snife_prior,
    validate_snife,
)
from .strategy import (
    StrategyProfile,
    constant_report_profile,
    counterexample_profile,
    permutation_profile,
    prediction_anchors,
    random_signal_strategies,
    random_signal_strategy,
    truth_telling_profile,
    uniform_report_profile,
)

__all__ = ["CriterionResult", "run", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} {self.name} ({self.runtime:.2f}s): {self.detail}"


def criterion_1_truthful_strictness() -> tuple[bool, str]:
    """Truth-telling is an exact equilibrium with strictly worse alternatives."""
    worst_gap = -np.inf
    min_margin = np.inf
    count = 0
    for k in range(50):
        m = (2, 3, 4)[k % 3]
        n = 4 + k % 5
        rule = ("log", "quadratic")[k % 2]
        prior = from_latent(random_snife_prior(m, 2, seed=100 + k))
        config = MechanismConfig(alpha=1.0, beta=1.0 / (8.0 * m), rule=rule)
        truth = truth_telling_profile(prior, n)
        report = check_equilibrium(config, prior, truth)
        worst_gap = max(worst_gap, report.max_gap)
        for i in range(n):
            for s in range(m):
                values = report.values[i, s]
                margin = values[s] - max(values[r] for r in range(m) if r != s)
                min_margin = min(min_margin, margin)
        count += 1
    # margins are strictly positive; the smallest arise from nearly-degenerate
    # sampled priors (conditional columns ~1e-6 apart) and still sit four
    # orders of magnitude above the ~1e-16 evaluation noise
    passed = worst_gap <= 1e-12 and min_margin > 0.0
    return passed, (
        f"{count} priors, max gap {worst_gap:.2e}, min deviation margin {min_margin:.2e}"
    )


def criterion_2_postprocessing_equality_example() -> tuple[bool, str]:
    """The 3-signal example where mixing rows cannot strictly lower D*."""
    p = np.array([0.1, 0.2, 0.7])
    q = np.array([0.2, 0.4, 0.4])
    theta = np.array([[0.3, 0.6, 0.0], [0.7, 0.4, 0.0], [0.0, 0.0, 1.0]])
    d_before = float(hellinger(p, q))
    d_after = float(hellinger(theta @ p, theta @ q))
    predicate = monotonicity_strict_predicate(theta, p, q)
    passed = (
        not predicate
        and abs(d_before - d_after) <= 1e-12
        and abs(d_before - 0.093171) <= 1e-6
    )
    return passed, (
        f"predicate={predicate}, D*={d_before:.6f}, |diff|={abs(d_before - d_after):.2e}"
    )


def criterion_3_coarse_prior_example() -> tuple[bool, str]:
    """The 3x3 conditional whose first two rows are proportional."""
    conditional = np.array([[0.1, 0.2, 0.3], [0.2, 0.4, 0.6], [0.7, 0.4, 0.1]])
    prior = PairwisePrior(SignalSpace.of_size(3), np.full(3, 1.0 / 3.0), conditional)
    report = validate_snife(prior)
    passed = (not report.finegrained_ok) and report.witnesses.get("finegrained") == (0, 1)
    return passed, (
        f"finegrained_ok={report.finegrained_ok}, witness={report.witnesses.get('finegrained')}"
    )


def criterion_4_information_monotonicity() -> tuple[bool, str]:
    """Random post-processing never raises D*; permutations preserve it; the
    strictness predicate tracks observed strict decrease."""
    rng = np.random.default_rng(4)
    perm_matrices = {m: [perm.matrix() for perm in all_permutations(m)] for m in (2, 3, 4)}
    # the draws of a one-sample-at-a-time loop, grouped by m to score each m's stack at once
    draws = {m: [] for m in perm_matrices}
    for _ in range(10_000):
        m = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(m))
        theta = random_signal_strategy(rng, m)
        draws[m].append((p, q, theta, perm_matrices[m][int(rng.integers(len(perm_matrices[m])))]))

    def apply(matrices, x):  # matrices[k] @ x[k] for every k
        return (matrices @ x[..., None])[..., 0]

    worst_violation = -np.inf
    worst_perm = 0.0
    agree = True
    for stack in draws.values():
        p, q, theta, tp = map(np.stack, zip(*stack))
        d0 = hellinger(p, q)
        d1 = hellinger(apply(theta, p), apply(theta, q))
        worst_violation = max(worst_violation, float(np.max(d1 - d0)))
        drop = d0 - d1
        predicate = monotonicity_strict_predicate(theta, p, q)
        agree = agree and bool(np.all(np.where(predicate, drop > 0.0, drop <= 1e-12)))
        drift = np.abs(hellinger(apply(tp, p), apply(tp, q)) - d0)
        worst_perm = max(worst_perm, float(np.max(drift)))
    passed = worst_violation <= 1e-12 and worst_perm <= 1e-14 and agree
    return passed, (
        f"max increase {worst_violation:.2e}, max permutation drift {worst_perm:.2e}, "
        f"predicate agreement {agree}"
    )


def _random_profile(rng, prior, n, deterministic=False) -> StrategyProfile:
    m = prior.m
    if deterministic:
        thetas = np.zeros((n, m, m))
        for i in range(n):
            thetas[i] = _map_strategy(rng.integers(0, m, size=m))
    else:
        thetas = random_signal_strategies(rng, m, (n,))
    predictions = rng.dirichlet(np.ones(m), size=(n, m, m))
    return StrategyProfile(thetas, predictions)


def _enumerated_average_welfare(config, latent, profile) -> float:
    """Average per-agent expected payment by full enumeration: every signal
    vector (latent joint) with every report vector (signal strategies), each
    pair of positive probability played under every (in-group peer, ordered
    (j, k) pair) matching, all rounds scored in one payment-kernel call.
    Independent of the closed-form welfare path."""
    n, m = profile.n, profile.m
    group_a, group_b = config.groups(n)
    own = [group_a if i in group_a else group_b for i in range(n)]
    peers = np.array(list(itertools.product(*[[j for j in own[i] if j != i] for i in range(n)])))
    # pair assignment t gives every agent its t-th ordered pair of two others
    first, second = np.array([
        [(j, k) for j in range(n) if j != i for k in range(n) if k not in (i, j)] for i in range(n)
    ]).T
    vectors = np.array(list(itertools.product(range(m), repeat=n)))
    agents = np.arange(n)
    p_signals = latent.state_probs @ latent.emissions[:, vectors].prod(axis=-1)
    p_reports = profile.thetas[agents, vectors[None], vectors[:, None]].prod(axis=-1)
    s, r = np.nonzero(p_signals[:, None] * p_reports > 0)
    # each kept (signal vector, report vector) pair is played under every matching
    matchings, copies = len(peers) * len(first), len(s) * len(peers)
    signals = np.repeat(vectors[r], matchings, axis=0)
    preds = np.repeat(profile.predictions[agents, vectors[s], vectors[r]], matchings, axis=0)
    peer_rounds = np.tile(np.repeat(peers, len(first), axis=0), (len(s), 1))
    pairs = (np.tile(first, (copies, 1)), np.tile(second, (copies, 1)))
    pays = _round_payments(config, signals, preds, peer_rounds, pairs)
    weights = p_signals[s] * p_reports[s, r]
    return weights @ pays.reshape(len(s), -1).sum(axis=1) / (n * matchings)


def criterion_5_zero_sum_and_welfare_identities() -> tuple[bool, str]:
    """Zero-sum base payments; enumerated average welfare equals the
    classification score; decomposition identities."""
    rng = np.random.default_rng(5)

    # zero-sum identity on realized rounds, even and odd group sizes
    worst_zero = 0.0
    for n in (4, 5, 6, 7):
        config = MechanismConfig(1.0, 0.05, "quadratic", "disagreement")
        group_a, group_b = config.groups(n)
        for _ in range(50):
            base = rng.normal(size=n)
            scores = zero_sum_group_scores(base, group_a, group_b)
            worst_zero = max(worst_zero, abs(math.fsum(scores)))

    # enumerated average welfare vs classification score
    worst_welfare = 0.0
    for n, m, deterministic, seed in ((4, 3, False, 51), (5, 2, True, 52)):
        latent = random_snife_prior(m, 2, seed=seed)
        prior = from_latent(latent)
        config = MechanismConfig(1.0, 1.0 / (8.0 * m), "quadratic", "disagreement")
        profile = _random_profile(np.random.default_rng(seed), prior, n, deterministic)
        enumerated = _enumerated_average_welfare(config, latent, profile)
        exact = welfare_metrics(prior, profile).classification_score
        worst_welfare = max(worst_welfare, abs(enumerated - exact))

    # decomposition identities on 1000 random profiles
    identities_ok = True
    equivalence_ok = True
    prior = from_latent(random_snife_prior(3, 2, seed=53))
    profiles = [
        truth_telling_profile(prior, 4),
        permutation_profile(prior, 4, PermutationMap((1, 2, 0))),
    ]
    profiles += [_random_profile(rng, prior, 4, deterministic=bool(k % 2)) for k in range(2, 1000)]
    for wb in welfare_batch([prior] * len(profiles), profiles):
        if wb.classification_score != wb.diversity - wb.inconsistency:
            identities_ok = False
        if wb.total_divergence < wb.diversity - 1e-12:
            identities_ok = False
        if (wb.inconsistency <= 1e-12) != (wb.total_divergence - wb.diversity <= 1e-12):
            equivalence_ok = False
    passed = (
        worst_zero <= 1e-12
        and worst_welfare <= 1e-10
        and identities_ok
        and equivalence_ok
    )
    return passed, (
        f"max |sum score_M| {worst_zero:.1e}, max enumeration gap {worst_welfare:.1e}, "
        f"identities {identities_ok}, equivalence {equivalence_ok}"
    )


def criterion_6_permutation_parity() -> tuple[bool, str]:
    """Permutation profiles match truth-telling's welfare; relabeling cycles close."""
    worst_parity = 0.0
    worst_cycle = 0.0
    for m in (2, 3, 4):
        prior = from_latent(random_snife_prior(m, 2, seed=600 + m))
        n = max(4, m)
        truth_wb = welfare_metrics(prior, truth_telling_profile(prior, n)).to_dict()
        profile = truth_telling_profile(prior, n)
        for perm in all_permutations(m):
            wb = welfare_metrics(prior, permutation_profile(prior, n, perm)).to_dict()
            worst_parity = max(
                worst_parity, max(abs(wb[key] - truth_wb[key]) for key in wb)
            )
            if perm.is_identity:
                continue
            for res in relabeling_cycle_audit(prior, profile, perm):
                worst_cycle = max(worst_cycle, abs(res.slack))
    passed = worst_parity <= 1e-12 and worst_cycle <= 1e-12
    return passed, f"max parity drift {worst_parity:.1e}, max cycle drift {worst_cycle:.1e}"


def criterion_7_classification_bound() -> tuple[bool, str]:
    """Solved profiles never beat the total divergence of their best-prediction
    counterparts; equality only at consistent best-prediction play."""
    rng = np.random.default_rng(7)
    min_slack = np.inf
    conditions_ok = True
    for k in range(20):
        m = (2, 3)[k % 2]
        n = 4 + k % 3
        prior = from_latent(random_snife_prior(m, 2, seed=700 + k))
        config = MechanismConfig(1.0, 1.0 / (8.0 * m), "log")
        if k % 5 == 0:
            perms = all_permutations(m)
            theta = perms[k % len(perms)].matrix()
            thetas = np.stack([theta] * n)
        elif k % 2 == 0:
            theta = random_signal_strategy(rng, m)
            thetas = np.stack([theta] * n)
        else:
            thetas = random_signal_strategies(rng, m, (n,))
        profile = solved_profile(config, prior, thetas)
        res = classification_bound_audit(config, prior, profile)
        min_slack = min(min_slack, res.slack)
        if not res.passed:
            conditions_ok = False
        if res.context["equality"] and not res.context["equality_conditions_hold"]:
            conditions_ok = False
        if abs(res.slack) <= 1e-10 and res.context["inconsistency"] > 1e-10:
            conditions_ok = False
    passed = min_slack >= -1e-10 and conditions_ok
    return passed, f"min slack {min_slack:.2e}, equality conditions {conditions_ok}"


def criterion_8_aggregation_error() -> tuple[bool, str]:
    """Leave-one-out vs population-average divergences: bounded at n = 600 for
    eps = 0.5 (threshold 512) and decaying like 1/n on a sweep."""
    rng = np.random.default_rng(8)
    m, eps = 2, 0.5
    prior = from_latent(random_snife_prior(m, 2, seed=800))
    all_pass = True
    for _ in range(20):
        thetas = random_signal_strategies(rng, m, (600,))
        res = aggregation_error_audit(prior, thetas, eps)
        all_pass = all_pass and res.passed

    # one deviant agent among truth-tellers keeps the leave-one-out gap's
    # numerator fixed, so the deviation is proportional to 1/n on the nose
    # (fully random lists mix in a faster-decaying quadratic component at
    # small n and only reach the 1/n regime beyond this sweep)
    deviant = random_signal_strategy(np.random.default_rng(88), m)
    ns = [64, 128, 256, 512, 1024, 2048]
    devs = []
    for n in ns:
        thetas = np.broadcast_to(np.eye(m), (n, m, m)).copy()
        thetas[0] = deviant
        devs.append(aggregation_error_audit(prior, thetas, eps=10.0).lhs)
    slope = np.polyfit(np.log(ns), np.log(devs), 1)[0]
    passed = all_pass and -1.25 <= slope <= -0.8
    return passed, f"all 20 runs under eps: {all_pass}, one-deviant sweep slope {slope:.3f}"


def criterion_9_far_from_permutation() -> tuple[bool, str]:
    """Uniform-row strategies lose at least the constant-chain welfare bound."""
    min_slack = np.inf
    for k in range(20):
        m = (2, 3, 4)[k % 3]
        prior = from_latent(random_snife_prior(m, 2, seed=900 + k))
        theta = np.full((m, m), 1.0 / m)
        res = far_from_permutation_gap(prior, theta, tau=1.0 / (2.0 * m))
        min_slack = min(min_slack, res.slack)
    passed = min_slack >= -1e-12
    return passed, f"min slack {min_slack:.2e}"


def _simplex_grid(m: int, steps: int) -> np.ndarray:
    if m == 2:
        a = np.linspace(0.0, 1.0, steps + 1)
        return np.stack([a, 1.0 - a], axis=1)
    pts = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            pts.append((i / steps, j / steps, (steps - i - j) / steps))
    return np.asarray(pts)


def _grid_values(config, terms, cell, grid) -> np.ndarray:
    """Payoff of every grid prediction at one (agent, signal, report) cell;
    -inf where the log rule is undefined.  Standalone evaluator used only as
    an oracle."""
    weights = config.alpha * terms.anchor[cell] + config.beta * terms.mix[cell]
    if config.rule == "log":
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(grid)
        contrib = np.where(weights[None, :] > 0, weights[None, :] * logs, 0.0)
        values = contrib.sum(axis=1)
        values = np.where(np.isnan(values), -np.inf, values)
    else:
        total = weights.sum()
        values = 2.0 * grid @ weights - total * np.sum(grid * grid, axis=1)
    return values - config.beta * terms.self_score[cell]


def criterion_10_solver_cross_checks() -> tuple[bool, str]:
    """Exact vs direct prediction solves, each within its error bound; exact
    beta = 0 anchors; closed-form best response vs simplex grid search."""
    from .equilibrium import _payoff_terms

    rng = np.random.default_rng(10)
    worst_solver, bounds_hold, beta0_exact = 0.0, True, True
    for k in range(20):
        m = 2 + k % 3
        n = 3 + k % 4
        prior = from_latent(random_snife_prior(m, 2, seed=1000 + k))
        config = MechanismConfig(1.0, 0.04 + 0.01 * (k % 3), "log")
        thetas = random_signal_strategies(rng, m, (n,))
        x_exact, bound = solve_equilibrium_predictions(config, prior, thetas)
        x_direct = solve_equilibrium_predictions_direct(config, prior, thetas)
        error = float(np.max(np.abs(x_exact - x_direct)))
        worst_solver, bounds_hold = max(worst_solver, error), bounds_hold and error <= bound

        config0 = MechanismConfig(1.0, 0.0, "log")
        x0, _ = solve_equilibrium_predictions(config0, prior, thetas)
        anchors = prediction_anchors(prior, thetas)
        expected = np.broadcast_to(anchors[:, :, None, :], x0.shape)
        beta0_exact = beta0_exact and np.array_equal(x0, expected)

    worst_grid_value = 0.0
    worst_grid_dist = 0.0
    steps = {2: 200, 3: 140}  # m=3 grid has (141*142)/2 ~ 1e4 points
    for k in range(6):
        m = (2, 3)[k % 2]
        n = 4
        prior = from_latent(random_snife_prior(m, 2, seed=1050 + k))
        rule = ("log", "quadratic")[k % 2]
        config = MechanismConfig(1.0, 1.0 / (8.0 * m), rule)
        profile = _random_profile(rng, prior, n)
        grid = _simplex_grid(m, steps[m])
        terms = _payoff_terms(config, prior, profile)
        report = check_equilibrium(config, prior, profile)
        for s in range(m):
            r = int(report.values[0, s].argmax())
            values = _grid_values(config, terms, (0, s, r), grid)
            top = int(np.argmax(values))
            worst_grid_value = max(worst_grid_value, float(values[top] - report.values[0, s, r]))
            best = report.best_predictions[0, s, r]
            worst_grid_dist = max(worst_grid_dist, float(np.max(np.abs(grid[top] - best))))
    h = 1.0 / steps[3]
    passed = (
        worst_solver <= 1e-12
        and bounds_hold
        and beta0_exact
        and worst_grid_value <= 1e-12
        and worst_grid_dist <= 1.5 * h
    )
    return passed, (
        f"exact/direct {worst_solver:.1e}, bounds hold {bounds_hold}, beta0 exact {beta0_exact}, "
        f"grid value excess {worst_grid_value:.1e}, grid distance {worst_grid_dist:.3f}"
    )


def criterion_11_monte_carlo_consistency() -> tuple[bool, str]:
    """Million-trial sampled welfare within 4 standard errors of exact."""
    latent = random_snife_prior(3, 2, seed=1100)
    prior = from_latent(latent)
    config = MechanismConfig(1.0, 1.0 / 24.0, "log", "disagreement")
    truth = truth_telling_profile(prior, 6)
    mc = monte_carlo_payments(config, latent, truth, trials=1_000_000, seed=11)
    exact = welfare_metrics(prior, truth).classification_score
    z = abs(mc.welfare_mean - exact) / mc.welfare_stderr
    passed = z <= 4.0
    return passed, (
        f"sampled {mc.welfare_mean:.6f} +- {mc.welfare_stderr:.6f}, exact {exact:.6f}, z={z:.2f}"
    )


def criterion_12_quasi_focal_ordering() -> tuple[bool, str]:
    """Collusive and uninformative profiles score strictly below truth-telling;
    the one-agent-per-signal profile scores above it."""
    min_below = np.inf
    min_above = np.inf
    gaps = []
    for k in range(10):
        m = (2, 3)[k % 2]
        prior = from_latent(random_snife_prior(m, 2, seed=1200 + k))
        config = MechanismConfig(1.0, 1.0 / (8.0 * m), "log")
        n = 5
        truth_score = welfare_metrics(prior, truth_telling_profile(prior, n)).classification_score
        for target in range(m):
            score = welfare_metrics(prior, constant_report_profile(prior, n, target))
            min_below = min(min_below, truth_score - score.classification_score)
        uniform = solved_profile(config, prior, uniform_report_profile(prior, n).thetas)
        min_below = min(
            min_below, truth_score - welfare_metrics(prior, uniform).classification_score
        )
        ce = counterexample_profile(prior, m)
        ce_score = welfare_metrics(prior, ce).classification_score
        truth_small = welfare_metrics(
            prior, truth_telling_profile(prior, max(m, 2))
        ).classification_score
        min_above = min(min_above, ce_score - truth_small)
        gaps.append(check_equilibrium(config, prior, ce).max_gap)
    passed = min_below > 0.0 and min_above > 0.0
    return passed, (
        f"min margin below truth {min_below:.2e}, counterexample excess {min_above:.2e}, "
        f"max counterexample eq gap {max(gaps):.3f}"
    )


CRITERIA = [
    ("truthful strictness", criterion_1_truthful_strictness),
    ("no-strict-decrease example", criterion_2_postprocessing_equality_example),
    ("coarse prior detection", criterion_3_coarse_prior_example),
    ("information monotonicity", criterion_4_information_monotonicity),
    ("zero-sum and welfare identities", criterion_5_zero_sum_and_welfare_identities),
    ("permutation parity", criterion_6_permutation_parity),
    ("classification bound", criterion_7_classification_bound),
    ("aggregation error decay", criterion_8_aggregation_error),
    ("far-from-permutation gap", criterion_9_far_from_permutation),
    ("solver cross-checks", criterion_10_solver_cross_checks),
    ("Monte Carlo consistency", criterion_11_monte_carlo_consistency),
    ("quasi-focal ordering", criterion_12_quasi_focal_ordering),
]


def run(number: int) -> CriterionResult:
    """Run criterion ``number`` (1-based, its place in :data:`CRITERIA`) and time it."""
    name, check = CRITERIA[number - 1]
    start = time.time()
    passed, detail = check()
    return CriterionResult(number, name, bool(passed), time.time() - start, detail)


def run_all() -> list[CriterionResult]:
    return [run(number) for number in range(1, len(CRITERIA) + 1)]
