import math
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import best_prediction_profile, best_prediction_total_divergence
from peerpred import mechanism
from peerpred.audits import (
    AuditError,
    aggregation_error_audit,
    classification_bound_audit,
    far_from_permutation_gap,
    relabeling_cycle_audit,
    sweep_row,
    total_divergence_symmetric,
)
from peerpred.divergence import hellinger
from peerpred.equilibrium import solved_profile
from peerpred.mechanism import MechanismConfig, welfare_metrics
from peerpred.priors import (
    PairwisePrior,
    PermutationMap,
    PriorError,
    SignalSpace,
    all_permutations,
    from_latent,
    permute_prior,
    prior_constants,
    random_snife_prior,
)
from peerpred.strategy import (
    StrategyProfile,
    agent_types,
    permutation_profile,
    prediction_anchors,
    random_signal_strategies,
    random_signal_strategy,
    tau_closeness,
    truth_telling_profile,
    uniform_report_profile,
)


class TestClassificationBound:
    def test_truth_equality_case(self, prior3, config):
        result = classification_bound_audit(config, prior3, truth_telling_profile(prior3, 4))
        assert result.passed
        assert abs(result.slack) <= 1e-14
        assert result.context["equality"]
        assert result.context["equality_conditions_hold"]
        assert result.context["inconsistency"] == 0.0

    def test_permutation_equality_case(self, prior3, config):
        profile = permutation_profile(prior3, 4, PermutationMap((1, 2, 0)))
        result = classification_bound_audit(config, prior3, profile)
        assert abs(result.slack) <= 1e-12

    def test_solved_profiles_respect_bound(self, prior3, config):
        rng = np.random.default_rng(0)
        for k in range(6):
            if k % 2 == 0:
                thetas = np.stack([random_signal_strategy(rng, 3)] * 4)
            else:
                thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(4)])
            profile = solved_profile(config, prior3, thetas)
            result = classification_bound_audit(config, prior3, profile)
            assert result.slack >= -1e-10
            assert result.passed

    def test_records_equilibrium_gap(self, prior3, config):
        result = classification_bound_audit(config, prior3, truth_telling_profile(prior3, 4))
        assert result.context["equilibrium_max_gap"] <= 1e-12


def aggregation_error_oracle(prior, thetas):
    """The former aggregation_error_audit lhs: D* over every pair of (agent,
    signal) anchors through the Gram form sum x + sum y - 2 <sqrt x, sqrt y>,
    as dense (n m)^2 arrays, with each agent's pairs with itself set to 0."""
    n, m = thetas.shape[0], thetas.shape[1]
    points = prediction_anchors(prior, thetas).reshape(n * m, m)
    sq = np.sqrt(points)
    gram = sq @ sq.T
    norms = points.sum(axis=1)
    dists = norms[:, None] + norms[None, :] - 2.0 * gram
    ref_points = (thetas.mean(axis=0) @ prior.conditional).T
    ref = hellinger(ref_points[:, None, :], ref_points[None, :, :])
    dev = np.abs(dists.reshape(n, m, n, m) - ref[None, :, None, :])
    dev[np.arange(n), :, np.arange(n), :] = 0.0
    return float(np.max(dev))


def aggregation_error_full_square(prior, thetas, block_cells=2**16):
    """The aggregation_error_audit lhs over every ordered pair of (type,
    signal) cells, D* summed from subtracted roots in coordinate order, in
    row blocks of ``block_cells`` entries: the bit-level oracle of the
    audit's one-visit-per-pair scan."""
    m = thetas.shape[1]
    first, counts = agent_types(thetas)
    types = first.size
    roots = np.sqrt(prediction_anchors(prior, thetas)[first])
    cols = np.ascontiguousarray(roots.reshape(types * m, m).T)
    cell_type, cell_sig = np.divmod(np.arange(types * m), m)
    alone = counts[cell_type] < 2
    ref_points = (thetas.mean(axis=0) @ prior.conditional).T
    ref = hellinger(ref_points[:, None, :], ref_points[None, :, :])
    lhs = 0.0
    rows_per_block = max(1, block_cells // (types * m))
    for lo in range(0, types * m, rows_per_block):
        x = slice(lo, lo + rows_per_block)
        dstar = np.zeros((cols[0, x].size, types * m))
        for col in cols:
            diff = np.subtract.outer(col[x], col)
            dstar += np.square(diff, out=diff)
        dev = dstar.reshape(-1, types, m)
        dev -= ref[cell_sig[x], None, :]
        np.abs(dev, out=dev)
        own = np.nonzero(alone[x])[0]
        dev[own, cell_type[x][own]] = 0.0
        lhs = np.maximum(lhs, dev.max())
    return float(lhs)


@cache
def cached_prior(m, seed):
    return from_latent(random_snife_prior(m, 2, seed=seed))


@st.composite
def strategy_lists(draw):
    """A prior and a strategy list drawn from a small pool, so that types
    repeat: random strategies, the identity, and strategies with a column
    holding zeros; one more agent plays a strategy of its own."""
    m = draw(st.integers(2, 3))
    prior = cached_prior(m, draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [random_signal_strategy(rng, m) for _ in range(3)] + [np.eye(m)]
    for theta in pool[:2]:
        theta[:, draw(st.integers(0, m - 1))] = np.eye(m)[draw(st.integers(0, m - 1))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    thetas = np.stack([pool[k] for k in picks] + [random_signal_strategy(rng, m)])
    return prior, thetas


class TestAggregationError:
    @settings(max_examples=150, deadline=None)
    @given(strategy_lists(), st.sampled_from((1, 7, 2**16)))
    def test_matches_dense_oracle(self, case, block_cells):
        prior, thetas = case
        with mock.patch.object(mechanism, "_BLOCK_CELLS", block_cells):
            lhs = aggregation_error_audit(prior, thetas, eps=100.0).lhs
            oracle = aggregation_error_oracle(prior, thetas)
        assert np.isfinite(lhs)
        np.testing.assert_allclose(lhs, oracle, rtol=0, atol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(strategy_lists(), st.sampled_from((1, 7, 2**16)))
    def test_matches_full_square_bits(self, case, block_cells):
        prior, thetas = case
        with mock.patch.object(mechanism, "_BLOCK_CELLS", block_cells):
            lhs = aggregation_error_audit(prior, thetas, eps=100.0).lhs
        oracle = aggregation_error_full_square(prior, thetas, block_cells)
        assert lhs.hex() == oracle.hex() or (np.isnan(lhs) and np.isnan(oracle))

    def test_equal_strategies_zero(self, prior2):
        theta = random_signal_strategy(np.random.default_rng(1), 2)
        thetas = np.stack([theta] * 600)
        result = aggregation_error_audit(prior2, thetas, eps=0.5)
        assert result.lhs <= 1e-12
        assert result.passed

    def test_threshold_precondition(self, prior2):
        thetas = np.stack([np.eye(2)] * 100)
        with pytest.raises(AuditError, match="512"):
            aggregation_error_audit(prior2, thetas, eps=0.5)

    @pytest.mark.parametrize("eps", [0.0, -0.5])
    def test_nonpositive_eps_rejected(self, prior2, eps):
        thetas = np.stack([np.eye(2)] * 100)
        with pytest.raises(AuditError, match="positive"):
            aggregation_error_audit(prior2, thetas, eps=eps)

    def test_random_lists_pass_above_threshold(self, prior2):
        rng = np.random.default_rng(2)
        thetas = np.stack([random_signal_strategy(rng, 2) for _ in range(600)])
        result = aggregation_error_audit(prior2, thetas, eps=0.5)
        assert result.passed
        assert result.context["threshold"] == pytest.approx(512.0)

    def test_lone_reporter_finite(self, lone_reporter):
        latent, thetas = lone_reporter
        result = aggregation_error_audit(from_latent(latent), thetas, eps=10.0)
        assert np.isfinite(result.lhs)
        assert result.passed

    def test_one_deviant_scales_inversely(self, prior2):
        deviant = random_signal_strategy(np.random.default_rng(3), 2)
        devs = []
        for n in (600, 1200, 2400):
            thetas = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
            thetas[0] = deviant
            devs.append(aggregation_error_audit(prior2, thetas, eps=0.5).lhs)
        assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.05)
        assert devs[1] / devs[2] == pytest.approx(2.0, rel=0.05)


def best_prediction_welfare_oracle(prior, thetas):
    """The former classification-bound right side: the welfare kernel's total
    divergence of the best-prediction profile of ``thetas``."""
    n, m = thetas.shape[0], thetas.shape[1]
    profile = StrategyProfile(thetas, np.full((n, m, m, m), 1.0 / m))
    return welfare_metrics(prior, best_prediction_profile(profile, prior)).total_divergence


def best_prediction_fsum_oracle(prior, thetas):
    """The same total as an exactly rounded sum over ordered agent pairs
    j != k and signal pairs of joint[a, b] D*(anchor[j, a], anchor[k, b])."""
    n, m = thetas.shape[0], thetas.shape[1]
    anchors = prediction_anchors(prior, thetas)
    dstar = hellinger(anchors[:, :, None, None, :], anchors[None, None, :, :, :])
    terms = prior.joint()[None, :, None, :] * dstar  # [j, a, k, b]
    others = ~np.eye(n, dtype=bool)
    return math.fsum(terms.transpose(0, 2, 1, 3)[others].ravel().tolist()) / (n * (n - 1))


def dyadic_prior(m):
    """A pairwise prior whose uniform-strategy anchors are exactly uniform:
    every entry and every partial sum of a column is a dyadic rational."""
    conditional = np.full((m, m), 1.0 / (2 * m))
    conditional += np.eye(m) / 2
    space = SignalSpace(tuple(f"s{k}" for k in range(m)))
    return PairwisePrior(space, np.full(m, 1.0 / m), conditional)


def two_agents(m, seed):
    prior = cached_prior(m, seed)
    return prior, random_signal_strategies(np.random.default_rng(seed), m, (2,))


class TestBestPredictionTotalDivergence:
    @settings(max_examples=150, deadline=None)
    @given(strategy_lists(), st.sampled_from((1, 7, 2**16)))
    @example(two_agents(2, 0), 1)
    @example(two_agents(3, 1), 2**16)
    def test_matches_welfare_oracle(self, case, block_cells):
        prior, thetas = case
        with mock.patch.object(mechanism, "_BLOCK_CELLS", block_cells):
            total = best_prediction_total_divergence(prior, thetas)
        oracle = best_prediction_welfare_oracle(prior, thetas)
        np.testing.assert_allclose(total, oracle, rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(strategy_lists(), st.sampled_from((1, 7, 2**16)))
    @example(two_agents(3, 2), 7)
    def test_matches_fsum_oracle(self, case, block_cells):
        prior, thetas = case
        with mock.patch.object(mechanism, "_BLOCK_CELLS", block_cells):
            total = best_prediction_total_divergence(prior, thetas)
        oracle = best_prediction_fsum_oracle(prior, thetas)
        assert total >= 0.0
        np.testing.assert_allclose(total, oracle, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("m", (2, 4))
    @pytest.mark.parametrize("n", (2, 5, 40))
    def test_uniform_strategies_exactly_zero(self, m, n):
        prior = dyadic_prior(m)
        profile = uniform_report_profile(prior, n)
        assert best_prediction_total_divergence(prior, profile.thetas) == 0.0
        config = MechanismConfig(1.0, 1.0 / (8.0 * m), "log")
        assert classification_bound_audit(config, prior, profile).rhs == 0.0

    @pytest.mark.parametrize("m", (2, 3, 4))
    def test_uniform_strategies_within_anchor_rounding(self, m):
        # a uniform strategy's anchors theta_minus q_s round differently per
        # signal by an ulp, so D* between them is of order 1e-32, never below 0
        for seed in range(10):
            prior = cached_prior(m, seed)
            for n in (2, 5, 40):
                thetas = uniform_report_profile(prior, n).thetas
                assert 0.0 <= best_prediction_total_divergence(prior, thetas) <= 1e-30

    def test_audit_rhs_reads_the_scan(self, prior3, config):
        rng = np.random.default_rng(8)
        profile = solved_profile(config, prior3, random_signal_strategies(rng, 3, (7,)))
        result = classification_bound_audit(config, prior3, profile)
        assert result.rhs == best_prediction_total_divergence(prior3, profile.thetas)
        assert result.slack == result.rhs - result.lhs


class TestFarFromPermutation:
    def test_uniform_rows(self, prior3):
        result = far_from_permutation_gap(prior3, np.full((3, 3), 1 / 3), tau=1 / 6)
        assert result.passed
        assert result.lhs > 0.0
        # uniform rows collapse predictions entirely, so the realized loss is
        # truth-telling's whole total divergence
        assert result.rhs == pytest.approx(
            total_divergence_symmetric(prior3, np.eye(3)), abs=1e-15
        )

    def test_near_permutation_sweep(self, prior2):
        # rows have two entries above tau until delta crosses the threshold
        tau = 0.2
        for delta in (0.2, 0.1, 0.05):
            theta = np.array([[1 - tau - delta, tau + delta], [tau + delta, 1 - tau - delta]])
            result = far_from_permutation_gap(prior2, theta, tau=tau)
            assert result.passed

    def test_permutation_rejected(self, prior2):
        with pytest.raises(AuditError, match="tau-close"):
            far_from_permutation_gap(prior2, np.eye(2), tau=0.3)

    @pytest.mark.parametrize("tau", [-0.1, -1e200, float("nan")])
    def test_negative_tau_rejected(self, prior2, tau):
        theta = np.array([[0.6, 0.4], [0.4, 0.6]])
        with pytest.raises(AuditError, match="non-negative"):
            far_from_permutation_gap(prior2, theta, tau=tau)


class TestRelabelingCycle:
    def test_identity_rejected(self, prior3):
        with pytest.raises(AuditError, match="non-identity"):
            relabeling_cycle_audit(
                prior3, truth_telling_profile(prior3, 4), PermutationMap(tuple(range(3)))
            )

    def test_size_mismatch_checked_first(self, prior3):
        with pytest.raises(PriorError, match="2 signals, prior has 3"):
            relabeling_cycle_audit(
                prior3, truth_telling_profile(prior3, 4), PermutationMap(tuple(range(2)))
            )

    def test_truth_binary_swap(self, prior2):
        results = relabeling_cycle_audit(
            prior2, truth_telling_profile(prior2, 4), PermutationMap((1, 0))
        )
        assert len(results) == 3  # two steps plus closure
        assert all(r.passed for r in results)
        # the swapped profile on the original prior equals truth's welfare on
        # the swapped prior (the step-0 identity)
        assert abs(results[0].slack) <= 1e-15

    def test_random_profile_three_cycle(self, prior3):
        rng = np.random.default_rng(4)
        thetas = np.stack([random_signal_strategy(rng, 3) for _ in range(4)])
        profile = StrategyProfile(thetas, rng.dirichlet(np.ones(3), size=(4, 3, 3)))
        perm = PermutationMap((1, 2, 0))
        results = relabeling_cycle_audit(prior3, profile, perm)
        assert len(results) == perm.order + 1
        for r in results:
            assert r.passed
            assert abs(r.slack) <= 1e-12


    @pytest.mark.parametrize("block_cells", (1, 2**12, 2**16))
    @pytest.mark.parametrize("m", (2, 3, 4))
    def test_closure_slack_exactly_zero(self, m, block_cells):
        # 1 and 2**12 split the 2 ord + 1 scenarios over several passes
        prior = from_latent(random_snife_prior(m, 2, seed=60 + m))
        rng = np.random.default_rng(m)
        for perm in all_permutations(m)[1:]:
            thetas = random_signal_strategies(rng, m, (5,))
            profile = StrategyProfile(thetas, rng.dirichlet(np.ones(m), size=(5, m, m)))
            with mock.patch.object(mechanism, "_BLOCK_CELLS", block_cells):
                results = relabeling_cycle_audit(prior, profile, perm)
            closure = results[-1]
            assert closure.name == "relabeling-closure"
            assert closure.slack == 0.0
            assert closure.lhs == results[-2].lhs  # the last step's welfare on Q_ord


class TestSweepRow:
    @pytest.mark.parametrize("m, n, samples", [(2, 6, 3), (3, 4, 5), (3, 16, 2), (4, 8, 5)])
    def test_matches_scoring_one_sample_at_a_time(self, m, n, samples):
        prior = from_latent(random_snife_prior(m, 2, seed=70 + m))
        config = MechanismConfig(1.0, 1.0 / (8.0 * m), "log")
        rng = np.random.default_rng([5, n])
        truth = welfare_metrics(prior, truth_telling_profile(prior, n)).classification_score
        gaps = []
        for _ in range(samples):
            thetas = np.stack([random_signal_strategy(rng, m) for _ in range(n)])
            profile = solved_profile(config, prior, thetas)
            gaps.append(welfare_metrics(prior, profile).classification_score - truth)
        row = sweep_row(config, prior, n, samples, np.random.default_rng([5, n]))
        assert abs(row - max(gaps)) <= 1e-15


class TestTheoremConsequences:
    def test_strict_decrease_exists_for_non_permutations(self):
        # some signal pair's conditional divergence strictly drops under any
        # non-permutation post-processing, for fine-grained priors
        rng = np.random.default_rng(5)
        for seed in range(5):
            prior = from_latent(random_snife_prior(3, 2, seed=50 + seed))
            theta = random_signal_strategy(rng, 3)
            if tau_closeness(theta) <= 1e-12:
                continue
            best_drop = max(
                float(hellinger(prior.conditional[:, a], prior.conditional[:, b]))
                - float(hellinger(theta @ prior.conditional[:, a], theta @ prior.conditional[:, b]))
                for a in range(3)
                for b in range(3)
                if a != b
            )
            assert best_drop > 1e-12

    def test_score_chain_at_large_n(self, prior2, config):
        # solved symmetric profiles scoring within eps/2 of truth keep the
        # total divergence of their symmetrized best-prediction counterpart
        # within eps of truth's score, once n clears 128 m^2 / eps^2
        eps = 1.0
        n = 520
        truth_score = welfare_metrics(prior2, truth_telling_profile(prior2, n)).classification_score
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(5):
            theta = random_signal_strategy(rng, 2)
            profile = solved_profile(config, prior2, np.stack([theta] * n))
            score = welfare_metrics(prior2, profile).classification_score
            if score < truth_score - eps / 2:
                continue
            sym_td = total_divergence_symmetric(prior2, theta)
            assert truth_score - eps < sym_td <= truth_score + eps
            checked += 1
        assert checked > 0

    def test_near_truth_scores_force_near_permutation(self, config):
        prior = from_latent(random_snife_prior(2, 2, seed=77))
        c = prior_constants(prior)
        truth_score = welfare_metrics(prior, truth_telling_profile(prior, 6)).classification_score
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = random_signal_strategy(rng, 2)
            profile = solved_profile(config, prior, np.stack([theta] * 6))
            score = welfare_metrics(prior, profile).classification_score
            gamma1 = truth_score - score
            if gamma1 <= 0:
                gamma1 = 1e-12
            # the paper's closeness radius for the welfare loss gamma1
            tau1 = np.cbrt(gamma1 / (c.c2 * c.c3 * c.c4)) / c.c1
            if tau1 < 1.0:
                assert tau_closeness(theta) <= max(tau1, 1e-9)
