import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import equilibrium_rows
from peerpred import equilibrium
from peerpred.equilibrium import (
    check_equilibrium,
    expected_conditional_payoff,
    solve_equilibrium_predictions,
    solve_equilibrium_predictions_direct,
    solve_prediction_stack,
    solved_profile,
)
from peerpred.mechanism import MechanismConfig, MechanismError
from peerpred.priors import (
    PairwisePrior,
    PermutationMap,
    SignalSpace,
    from_latent,
    random_snife_prior,
)
from peerpred.scoring import get_rule
from peerpred.strategy import (
    StrategyProfile,
    constant_report_profile,
    counterexample_profile,
    permutation_profile,
    random_signal_strategies,
    random_signal_strategy,
    truth_telling_profile,
)
from peerpred.tolerances import PROBABILITY_TOL, SOLVER_TOL


def oracle_terms(config, prior, profile, i, s):
    """Agent i's payoff terms at signal s, summed over an explicit list of
    the other agents: (anchor, neighbor weight, mix, self-score) per report."""
    n = profile.n
    others = [j for j in range(n) if j != i]
    anchor = profile.thetas[others].mean(axis=0) @ prior.conditional[:, s]
    self_scores = config.scoring_rule().self_score(profile.predictions)
    # w[j, r, v] = q(v|s) * theta_j[r, v] / (n - 1)
    w = prior.conditional[:, s][None, None, :] * profile.thetas[others] / (n - 1)
    weight = w.sum(axis=(0, 2))
    mix = np.einsum("jrv,jvru->ru", w, profile.predictions[others])
    self_score = np.einsum("jrv,jvr->r", w, self_scores[others])
    return anchor, weight, mix, self_score


def oracle_value(config, terms, r, prediction):
    anchor, _, mix, self_score = terms
    rule = config.scoring_rule()
    value = config.alpha * float(rule.weighted_score(anchor, prediction))
    value += config.beta * (float(rule.weighted_score(mix[r], prediction)) - float(self_score[r]))
    return value


def oracle_payoff(config, prior, profile, i, s, plays=None):
    """Value of (weight, report, prediction) plays, the profile's own by default;
    zero-weight plays are never scored."""
    terms = oracle_terms(config, prior, profile, i, s)
    if plays is None:
        plays = [
            (profile.thetas[i, r, s], r, profile.predictions[i, s, r]) for r in range(profile.m)
        ]
    return sum(w * oracle_value(config, terms, r, p) for w, r, p in plays if w > 0.0)


def oracle_best_response(config, prior, profile, i, s):
    """(report values, optimal prediction per report) from the closed form."""
    terms = oracle_terms(config, prior, profile, i, s)
    anchor, weight, mix, _ = terms
    alpha, beta = config.alpha, config.beta
    preds = np.array(
        [(alpha * anchor + beta * mix[r]) / (alpha + beta * weight[r]) for r in range(profile.m)]
    )
    values = np.array([oracle_value(config, terms, r, preds[r]) for r in range(profile.m)])
    return values, preds


@st.composite
def equilibrium_cases(draw):
    """A prior, mechanism and profile; constant and counterexample profiles
    and deterministic signal maps leave reports with zero probability, whose
    table cells get zero entries that the log rule must never probe."""
    m = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["random", "map", "constant", "counterexample"]))
    n = m if kind == "counterexample" and m >= 3 else draw(st.integers(3, 9))
    rule = draw(st.sampled_from(["log", "quadratic"]))
    beta = draw(st.sampled_from([0.01, 1.0 / (8.0 * m), 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = from_latent(random_snife_prior(m, 2, seed=int(rng.integers(1000))))
    if kind == "constant":
        profile = constant_report_profile(prior, n, int(rng.integers(m)))
    elif kind == "counterexample" and n == m:
        profile = counterexample_profile(prior, n)
    else:
        if kind == "map":
            thetas = np.zeros((n, m, m))
            for i in range(n):
                thetas[i, rng.integers(m, size=m), np.arange(m)] = 1.0
        else:
            thetas = np.stack([random_signal_strategy(rng, m) for _ in range(n)])
        predictions = rng.dirichlet(np.ones(m), size=(n, m, m))
        unplayed = thetas.transpose(0, 2, 1) == 0.0
        predictions[unplayed] = np.eye(m)[0]
        profile = StrategyProfile(thetas, predictions)
    return MechanismConfig(1.0, beta, rule), prior, profile, rng


class TestBatchedMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(equilibrium_cases())
    def test_against_per_cell_oracle(self, case):
        config, prior, profile, rng = case
        n, m = profile.n, profile.m
        report = check_equilibrium(config, prior, profile)
        for i in range(n):
            for s in range(m):
                values, preds = oracle_best_response(config, prior, profile, i, s)
                payoff = oracle_payoff(config, prior, profile, i, s)
                assert abs(report.payoffs[i, s] - payoff) <= 1e-13
                assert abs(report.gaps[i, s] - (np.max(values) - payoff)) <= 1e-13
                assert expected_conditional_payoff(config, prior, profile, i, s) == (
                    report.payoffs[i, s]
                )
                np.testing.assert_allclose(report.values[i, s], values, rtol=0, atol=1e-13)
                np.testing.assert_allclose(report.best_predictions[i, s], preds, rtol=0, atol=1e-13)

                # no single or mixed deviation beats the best report's value
                best = report.values[i, s].max()
                r = int(rng.integers(m))
                single = oracle_payoff(
                    config, prior, profile, i, s, [(1.0, r, rng.dirichlet(np.ones(m)))]
                )
                assert single <= best + 1e-13

                weights = rng.dirichlet(np.ones(3))
                weights[0] = 0.0  # a zero-weight play with a zero entry is never scored
                weights /= weights.sum()
                plays = [(weights[0], r, np.eye(m)[(r + 1) % m])] + [
                    (w, int(rng.integers(m)), rng.dirichlet(np.ones(m))) for w in weights[1:]
                ]
                assert oracle_payoff(config, prior, profile, i, s, plays) <= best + 1e-13


def two_pass_check(config, prior, profile):
    """check_equilibrium's (values, payoffs, gaps) from two scoring passes,
    the optimal predictions and the played ones apart."""
    terms = equilibrium._payoff_terms(config, prior, profile)
    values = terms.values(config, terms.best)
    weights = profile.thetas.transpose(0, 2, 1)
    played = np.where((weights > 0.0)[..., None], profile.predictions, terms.best)
    payoffs = np.sum(weights * terms.values(config, played), axis=-1)
    return values, payoffs, values.max(axis=-1) - payoffs


class TestOneScoringPass:
    @settings(max_examples=100, deadline=None)
    @given(equilibrium_cases(), st.sampled_from([None, 0.0]))
    def test_bit_equal_to_two_passes(self, case, beta):
        config, prior, profile, _ = case
        if beta is not None:
            config = MechanismConfig(config.alpha, beta, config.rule)
        expected = two_pass_check(config, prior, profile)
        report = check_equilibrium(config, prior, profile)
        for got, want in zip((report.values, report.payoffs, report.gaps), expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rule", ["log", "quadratic"])
    @pytest.mark.parametrize(
        "beta, calls",
        # the neighbors' self-scores, then the anchor and the mixture terms of
        # one pass over the optimal and the played predictions; at beta = 0
        # the anchor term alone
        [(0.02, 3), (0.0, 1)],
    )
    def test_weighted_score_calls(self, setting, rule, beta, calls):
        prior, _ = setting
        config = MechanismConfig(1.0, beta, rule)
        scoring_rule = config.scoring_rule()
        with mock.patch.object(
            type(scoring_rule), "weighted_score", autospec=True,
            side_effect=type(scoring_rule).weighted_score,
        ) as counted:  # fmt: skip
            check_equilibrium(config, prior, truth_telling_profile(prior, 5))
        assert counted.call_count == calls


def non_psd_pairwise_prior(rng, m):
    """A pairwise prior over m signals whose symmetric joint is not PSD."""
    while True:
        joint = rng.random((m, m))
        joint = (joint + joint.T) / np.sum(joint + joint.T)
        if np.linalg.eigvalsh(joint).min() < 0.0:
            marginal = joint.sum(axis=0)
            return PairwisePrior(SignalSpace.of_size(m), marginal, joint / marginal)


@pytest.fixture(scope="module")
def setting():
    prior = from_latent(random_snife_prior(3, 2, seed=21))
    config = MechanismConfig(alpha=1.0, beta=1.0 / 24.0, rule="log")
    return prior, config


class TestExpectedPayoff:
    def test_truthful_anchor_value(self, setting):
        prior, config = setting
        truth = truth_telling_profile(prior, 5)
        rule = get_rule("log")
        for s in range(3):
            value = expected_conditional_payoff(config, prior, truth, 0, s)
            expected = config.alpha * rule.expected_score(prior.conditional[:, s], prior.conditional[:, s])
            assert value == pytest.approx(expected, abs=1e-13)

    def test_wrong_signal_is_worse_at_its_best_prediction(self, setting):
        prior, config = setting
        truth = truth_telling_profile(prior, 5)
        report = check_equilibrium(config, prior, truth)
        for s in range(3):
            honest = expected_conditional_payoff(config, prior, truth, 0, s)
            for r in range(3):
                if r != s:
                    assert report.values[0, s, r] < honest

    def test_beta_zero_reduces_to_prediction_score(self, setting):
        prior, _ = setting
        config = MechanismConfig(alpha=1.0, beta=0.0, rule="quadratic")
        rng = np.random.default_rng(0)
        thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(4)])
        profile = StrategyProfile(thetas, rng.dirichlet(np.ones(3), size=(4, 3, 3)))
        rule = get_rule("quadratic")
        n = 4
        theta_minus = (thetas.sum(axis=0)[None] - thetas) / (n - 1)
        report = check_equilibrium(config, prior, profile)
        for s in range(3):
            anchor = theta_minus[1] @ prior.conditional[:, s]
            played = sum(
                thetas[1, r, s] * rule.expected_score(anchor, profile.predictions[1, s, r])
                for r in range(3)
            )
            assert report.payoffs[1, s] == pytest.approx(played, abs=1e-13)
            assert np.allclose(report.best_predictions[1, s], anchor, atol=1e-12)

    def test_mixed_play_weighting(self, setting):
        prior, config = setting
        truth = truth_telling_profile(prior, 4)

        def payoff(weights):
            """Agent 0's payoff at signal 0 when it plays reports 0 and 1 with
            ``weights``, each with that signal's posterior as prediction."""
            thetas, predictions = truth.thetas.copy(), truth.predictions.copy()
            thetas[0, :, 0] = [weights[0], weights[1], 0.0]
            predictions[0, 0, :2] = [prior.conditional[:, 0], prior.conditional[:, 1]]
            profile = StrategyProfile(thetas, predictions)
            return expected_conditional_payoff(config, prior, profile, 0, 0)

        mixed = payoff((0.25, 0.75))
        assert mixed == pytest.approx(0.25 * payoff((1, 0)) + 0.75 * payoff((0, 1)), abs=1e-14)


class TestReportValues:
    def test_truthful_opponents(self, setting):
        prior, config = setting
        report = check_equilibrium(config, prior, truth_telling_profile(prior, 5))
        for i in (0, 3):
            for s in range(3):
                values = report.values[i, s]
                assert int(values.argmax()) == s
                assert np.allclose(report.best_predictions[i, s, s], prior.conditional[:, s], atol=1e-12)
                assert np.sum(values >= values[s] - 1e-12) == 1  # no tie

    def test_constant_report_opponents_mixture(self, setting):
        prior, config = setting
        profile = constant_report_profile(prior, 4, target=2)
        point = np.zeros(3)
        point[2] = 1.0
        report = check_equilibrium(config, prior, profile)
        for s in range(3):
            theta_minus = np.zeros((3, 3))
            theta_minus[2, :] = 1.0
            anchor = theta_minus @ prior.conditional[:, s]
            weight = float(prior.conditional[:, s].sum())  # all neighbors report 2
            expected = (config.alpha * anchor + config.beta * weight * point) / (
                config.alpha + config.beta * weight
            )
            np.testing.assert_allclose(report.best_predictions[0, s, 2], expected, atol=1e-12)

    def test_beta_limit_recovers_anchor(self, setting):
        prior, _ = setting
        rng = np.random.default_rng(1)
        thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(4)])
        profile = StrategyProfile(thetas, rng.dirichlet(np.ones(3), size=(4, 3, 3)))
        theta_minus = (thetas.sum(axis=0)[None] - thetas) / 3
        for beta in (1e-6, 1e-9):
            config = MechanismConfig(alpha=1.0, beta=beta, rule="quadratic")
            best = check_equilibrium(config, prior, profile).best_predictions[0, 1]
            anchor = theta_minus[0] @ prior.conditional[:, 1]
            assert np.max(np.abs(best - anchor)) <= 5 * beta

    @pytest.mark.parametrize("rule", ["log", "quadratic"])
    def test_gaps_are_best_values_minus_payoffs(self, setting, rule):
        prior, _ = setting
        config = MechanismConfig(alpha=1.0, beta=0.04, rule=rule)
        rng = np.random.default_rng(8)
        thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(5)])
        for profile in (solved_profile(config, prior, thetas), truth_telling_profile(prior, 5)):
            report = check_equilibrium(config, prior, profile)
            assert np.array_equal(report.gaps, report.values.max(axis=-1) - report.payoffs)
            for i in range(5):
                for s in range(3):
                    values, preds = oracle_best_response(config, prior, profile, i, s)
                    np.testing.assert_allclose(report.values[i, s], values, rtol=0, atol=1e-13)
                    np.testing.assert_allclose(
                        report.best_predictions[i, s], preds, rtol=0, atol=1e-13
                    )


class TestCheckEquilibrium:
    def test_truth_is_exact_equilibrium(self, setting):
        prior, config = setting
        report = check_equilibrium(config, prior, truth_telling_profile(prior, 5))
        assert report.max_gap <= 1e-12

    def test_permutation_is_exact_equilibrium(self, setting):
        prior, config = setting
        profile = permutation_profile(prior, 5, PermutationMap((2, 0, 1)))
        report = check_equilibrium(config, prior, profile)
        assert report.max_gap <= 1e-12

    def test_perturbed_prediction_has_positive_gap(self, setting):
        prior, config = setting
        truth = truth_telling_profile(prior, 5)
        predictions = truth.predictions.copy()
        bump = np.array([0.01, -0.01, 0.0])
        predictions[0, 1, 1] = predictions[0, 1, 1] + bump
        perturbed = StrategyProfile(truth.thetas, predictions)
        report = check_equilibrium(config, prior, perturbed)
        assert report.gaps[0, 1] > 1e-7
        assert report.max_gap == report.gaps[0, 1]

    def test_variant_does_not_change_gaps(self, setting):
        prior, _ = setting
        rng = np.random.default_rng(2)
        thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(4)])
        profile = StrategyProfile(thetas, rng.dirichlet(np.ones(3), size=(4, 3, 3)))
        truthful = MechanismConfig(1.0, 0.04, "log", "truthful")
        disagreement = MechanismConfig(1.0, 0.04, "log", "disagreement")
        gaps_t = check_equilibrium(truthful, prior, profile).gaps
        gaps_d = check_equilibrium(disagreement, prior, profile).gaps
        assert np.max(np.abs(gaps_t - gaps_d)) <= 1e-12

    def test_rows_export(self, setting):
        prior, config = setting
        report = check_equilibrium(config, prior, truth_telling_profile(prior, 4))
        rows = equilibrium_rows(report)
        assert len(rows) == 12
        assert set(rows[0]) == {"agent", "signal", "gap"}


class TestPredictionSolver:
    def test_beta_zero_exact(self, setting):
        prior, _ = setting
        config = MechanismConfig(alpha=1.0, beta=0.0, rule="log")
        rng = np.random.default_rng(3)
        thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(4)])
        predictions, residual = solve_equilibrium_predictions(config, prior, thetas)
        assert residual == 0.0
        theta_minus = (thetas.sum(axis=0)[None] - thetas) / 3
        anchors = np.einsum("iuv,vs->isu", theta_minus, prior.conditional)
        assert np.array_equal(predictions, np.broadcast_to(anchors[:, :, None, :], predictions.shape))

    def test_permutation_on_path_fixed_point(self, setting):
        prior, config = setting
        perm = PermutationMap((1, 2, 0))
        thetas = np.broadcast_to(perm.matrix(), (4, 3, 3)).copy()
        predictions, _ = solve_equilibrium_predictions(config, prior, thetas)
        for i in range(4):
            for s in range(3):
                target = perm.matrix() @ prior.conditional[:, s]
                assert np.max(np.abs(predictions[i, s, perm.mapping[s]] - target)) <= 1e-12

    def test_exact_matches_direct(self, setting):
        prior, _ = setting
        rng = np.random.default_rng(4)
        for k in range(5):
            n = 3 + k
            config = MechanismConfig(1.0, 0.02 + 0.01 * k, "log")
            thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(n)])
            x_exact, bound = solve_equilibrium_predictions(config, prior, thetas)
            x_direct = solve_equilibrium_predictions_direct(config, prior, thetas)
            error = np.max(np.abs(x_exact - x_direct))
            assert error <= bound < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(2, 64),
        st.floats(-3.0, 6.0),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    # beta/alpha = 1e3 on a prior whose joint is not PSD: member 0's Woodbury
    # residual passes its roundoff, and the solve lies 2.07e-12 from the dense
    # one until a refinement step
    @example(m=3, n=2, log_ratio=3.0, latent=False, seed=3)
    def test_members_match_dense_oracle(self, m, n, log_ratio, latent, seed):
        """For beta/alpha in [1e-3, 1e6] and priors whose joint is PSD
        (latent) or not, random strategies send no member dense.  Each bound
        is within PROBABILITY_TOL and at least the distance to the dense
        solve, which is within 1e-12 up to beta/alpha = 1e3; past 1e5 a bound
        may pass PROBABILITY_TOL, and then the stack is refused.  An accepted
        member's rows pass the profile check, though the bound is per entry."""
        rng = np.random.default_rng(seed)
        if latent:
            prior = from_latent(random_snife_prior(m, 2, seed=int(rng.integers(1000))))
        else:
            prior = non_psd_pairwise_prior(rng, m)
        alpha = float(10.0 ** rng.uniform(-1.0, 1.0))
        config = MechanismConfig(alpha, alpha * 10.0**log_ratio, "quadratic")
        thetas = random_signal_strategies(rng, m, (3, n))
        dense = solve_equilibrium_predictions_direct
        with mock.patch.object(equilibrium, dense.__name__, wraps=dense) as spy:
            try:
                predictions, bounds = solve_prediction_stack(config, prior, thetas)
            except MechanismError as exc:
                named = re.search(r"error bound of (\S+), more than", str(exc))
                # the message rounds the bound to 3 digits, which keeps it >= 1e-9
                assert log_ratio > 5.0 and float(named[1]) >= PROBABILITY_TOL
                predictions = None
        assert spy.call_count == 0
        if predictions is None:
            return
        assert bounds.max() <= PROBABILITY_TOL
        for k in range(3):
            StrategyProfile(thetas[k], predictions[k])
            error = np.max(np.abs(predictions[k] - dense(config, prior, thetas[k])))
            if log_ratio <= 3.0:
                assert error <= 1e-12
            assert bounds[k] >= error

    def test_singular_block_falls_back_to_dense(self):
        """Agent 0 always reports s1, so its block for report s1 is
        I + 1.25 q^T, singular for this prior; the exact tables hold zeros."""
        prior = PairwisePrior(SignalSpace.of_size(2), [0.5, 0.5], [[0.1, 0.9], [0.9, 0.1]])
        config = MechanismConfig(1.0, 1.25, "log")
        thetas = np.array([[[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(2) + 1.25 * prior.conditional.T, np.eye(2))
        predictions, bound = solve_equilibrium_predictions(config, prior, thetas)
        dense = solve_equilibrium_predictions_direct(config, prior, thetas)
        assert np.max(np.abs(predictions - dense)) <= bound <= 1e-12
        assert predictions.min() == 0.0
        # in a stack, only the singular member goes dense
        stack = np.stack([thetas, np.full((2, 2, 2), 0.5)])
        stacked, bounds = solve_prediction_stack(config, prior, stack)
        assert stacked[0].tobytes() == predictions.tobytes() and bounds[0] == bound
        alone, _ = solve_equilibrium_predictions(config, prior, stack[1])
        assert stacked[1].tobytes() == alone.tobytes()

    @pytest.mark.parametrize(
        "beta",
        (np.nextafter(1.25, 2.0), np.nextafter(1.25, 0.0), 1.25 * (1 + 1e-13), 1.25 * (1 - 1e-13)),
    )
    def test_nearly_singular_block_matches_dense(self, beta):
        """Next to test_singular_block_falls_back_to_dense's beta the block
        is nearly singular and LAPACK raises nothing; a Woodbury solve whose
        residual stays large after refinement goes dense, so the tables still
        sum to 1 and lie within their bound of the dense solve."""
        prior = PairwisePrior(SignalSpace.of_size(2), [0.5, 0.5], [[0.1, 0.9], [0.9, 0.1]])
        config = MechanismConfig(1.0, float(beta), "log")
        thetas = np.array([[[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]])
        predictions, bound = solve_equilibrium_predictions(config, prior, thetas)
        dense = solve_equilibrium_predictions_direct(config, prior, thetas)
        assert np.max(np.abs(predictions - dense)) <= bound <= 1e-12

    @pytest.mark.parametrize("n", (8, 64))
    def test_roundoff_alone_does_not_go_dense(self, n):
        """At beta/alpha = 1e4 the bound passes SOLVER_TOL by its roundoff
        widening alone, which a dense solve cannot shrink: no member goes
        dense, and each stays within its bound of the dense solve."""
        prior = from_latent(random_snife_prior(3, 2, seed=7))
        config = MechanismConfig(1.0, 1e4, "log")
        thetas = random_signal_strategies(np.random.default_rng(n), 3, (3, n))
        dense = solve_equilibrium_predictions_direct
        with mock.patch.object(equilibrium, dense.__name__, wraps=dense) as spy:
            predictions, bounds = solve_prediction_stack(config, prior, thetas)
        assert spy.call_count == 0
        assert bounds.max() > SOLVER_TOL
        for k in range(3):
            assert np.max(np.abs(predictions[k] - dense(config, prior, thetas[k]))) <= bounds[k]

    @pytest.mark.parametrize("beta", (1e5, 1e6))
    def test_large_beta_does_not_go_dense(self, beta):
        """Past beta/alpha of about 1e4 the residual of any backward-stable
        solve grows like beta/alpha units of roundoff, which neither a dense
        solve nor a refinement step can shrink: at n = 512 the one Woodbury
        solve is kept, and the bound still covers the distance to the dense
        solve."""
        prior = from_latent(random_snife_prior(3, 2, seed=1))
        config = MechanismConfig(1.0, beta, "log")
        thetas = random_signal_strategies(np.random.default_rng(2), 3, (512,))
        dense, woodbury = solve_equilibrium_predictions_direct, equilibrium._woodbury_solve
        with (
            mock.patch.object(equilibrium, dense.__name__, wraps=dense) as spy,
            mock.patch.object(equilibrium, woodbury.__name__, wraps=woodbury) as steps,
        ):
            predictions, bound = solve_equilibrium_predictions(config, prior, thetas)
        assert spy.call_count == 0 and steps.call_count == 1
        assert np.max(np.abs(predictions - dense(config, prior, thetas))) <= bound

    def test_bound_decides_acceptance(self):
        """A stack is accepted while every member's bound is within
        PROBABILITY_TOL (n = 64, m = 3 at beta/alpha = 1e6).  At 7e6 a bound
        passes it, and the solve raises one MechanismError naming beta/alpha
        and the largest bound, which the solve returns under a looser
        tolerance."""
        prior = from_latent(random_snife_prior(3, 2, seed=1))
        thetas = random_signal_strategies(np.random.default_rng(0), 3, (2, 64))
        _, bounds = solve_prediction_stack(MechanismConfig(1.0, 1e6, "log"), prior, thetas)
        assert bounds.max() <= PROBABILITY_TOL
        config = MechanismConfig(1.0, 7e6, "log")
        with mock.patch.object(equilibrium, "PROBABILITY_TOL", np.inf):
            _, bounds = solve_prediction_stack(config, prior, thetas)
        with pytest.raises(MechanismError) as info:
            solve_prediction_stack(config, prior, thetas)
        assert bounds.max() > PROBABILITY_TOL
        assert str(info.value).startswith(
            f"at beta/alpha = 7e+06 the solved prediction tables have an error bound of "
            f"{bounds.max():.3g}, more than 1e-09: "
        )

    def test_solutions_are_simplex_tables(self, setting):
        prior, config = setting
        rng = np.random.default_rng(5)
        thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(5)])
        profile = solved_profile(config, prior, thetas)
        assert np.max(np.abs(profile.predictions.sum(axis=-1) - 1.0)) <= 1e-12

    def test_solved_predictions_are_best_responses(self, setting):
        prior, config = setting
        rng = np.random.default_rng(6)
        thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(4)])
        profile = solved_profile(config, prior, thetas)
        report = check_equilibrium(config, prior, profile)
        assert np.max(np.abs(report.best_predictions - profile.predictions)) <= 1e-10
        for i in range(4):
            for s in range(3):
                terms = oracle_terms(config, prior, profile, i, s)
                for r in range(3):
                    # each table cell maximizes the payoff for its own report
                    value_cell = oracle_value(config, terms, r, profile.predictions[i, s, r])
                    assert value_cell >= report.values[i, s, r] - 1e-12


class TestPredictionStack:
    @pytest.mark.parametrize("m", (2, 3, 4, 8))
    @pytest.mark.parametrize("beta", (0.0, 0.05, 0.5))
    def test_members_equal_solving_alone(self, m, beta):
        prior = from_latent(random_snife_prior(m, 2, seed=40 + m))
        config = MechanismConfig(1.0, beta, "log")
        rng = np.random.default_rng(m)
        thetas = random_signal_strategies(rng, m, (4, 5))
        thetas[1] = np.eye(m)  # truth-telling: a fixed point from another start
        predictions, deltas = solve_prediction_stack(config, prior, thetas)
        for k in range(4):
            alone, delta = solve_equilibrium_predictions(config, prior, thetas[k])
            assert predictions[k].tobytes() == alone.tobytes()
            assert deltas[k] == delta
        if beta == 0.0:
            assert np.all(deltas == 0.0)

    def test_passes_split_the_stack(self, prior3):
        config = MechanismConfig(1.0, 0.05, "log")
        rng = np.random.default_rng(9)
        thetas = random_signal_strategies(rng, 3, (5, 4))
        whole, _ = solve_prediction_stack(config, prior3, thetas)
        # one member per pass
        with mock.patch.object(equilibrium, "_BLOCK_CELLS", 1):
            split, _ = solve_prediction_stack(config, prior3, thetas)
        assert whole.tobytes() == split.tobytes()


def test_random_signal_strategies_match_single_draws():
    for m in (2, 3, 8):
        one, many = np.random.default_rng(m), np.random.default_rng(m)
        expected = np.stack(
            [np.stack([random_signal_strategy(one, m) for _ in range(4)]) for _ in range(3)]
        )
        drawn = random_signal_strategies(many, m, (3, 4))
        assert drawn.tobytes() == expected.tobytes() and drawn.strides == expected.strides
        assert one.random() == many.random()
