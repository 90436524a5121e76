import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerpred.priors import PermutationMap, all_permutations, from_latent
from peerpred.strategy import (
    ProfileError,
    StrategyProfile,
    aggregate_strategies,
    best_prediction_profile,
    candidate_profiles,
    constant_report_profile,
    counterexample_profile,
    permutation_profile,
    permute_profile,
    prediction_anchors,
    random_signal_strategy,
    tau_closeness,
    truth_telling_profile,
    uniform_report_profile,
    validate_signal_strategy,
)

APPENDIX_THETA = np.array([[0.3, 0.6, 0.0], [0.7, 0.4, 0.0], [0.0, 0.0, 1.0]])


def symmetric_profile(prior, n, theta):
    """All agents play ``theta`` and predict theta @ q_s."""
    theta = validate_signal_strategy(theta)
    m = theta.shape[0]
    per_signal = (theta @ prior.conditional).T  # row s = theta q_s
    thetas = np.broadcast_to(theta, (n, m, m)).copy()
    return StrategyProfile(thetas, np.broadcast_to(per_signal[:, None, :], (n, m, m, m)).copy())


def random_profile(rng, m, n):
    thetas = np.stack([random_signal_strategy(rng, m) for _ in range(n)])
    predictions = rng.dirichlet(np.ones(m), size=(n, m, m))
    return StrategyProfile(thetas, predictions)


class TestConstructors:
    def test_truth_telling(self, prior2):
        profile = truth_telling_profile(prior2, 3)
        assert np.array_equal(profile.thetas[1], np.eye(2))
        for s in range(2):
            assert np.array_equal(profile.predictions[0, s, s], prior2.q_sigma(s))
            # off-path cells carry the reported signal's conditional
            other = 1 - s
            assert np.array_equal(profile.predictions[0, s, other], prior2.q_sigma(other))
        agg = aggregate_strategies(profile)
        assert np.array_equal(agg.theta_bar, np.eye(2))
        assert np.allclose(agg.report_distribution(prior2.marginal), prior2.marginal)

    def test_permutation_identity_is_truth(self, prior3):
        profile = permutation_profile(prior3, 4, PermutationMap.identity(3))
        truth = truth_telling_profile(prior3, 4)
        assert np.array_equal(profile.thetas, truth.thetas)
        for s in range(3):
            assert np.array_equal(profile.predictions[0, s, s], truth.predictions[0, s, s])

    def test_permutation_binary_swap(self, prior2):
        swap = PermutationMap((1, 0))
        profile = permutation_profile(prior2, 3, swap)
        assert profile.thetas[0, 1, 0] == 1.0 and profile.thetas[0, 0, 1] == 1.0
        # prediction at (s, report pi(s)) is the relabeled conditional column
        expected = swap.matrix() @ prior2.q_sigma(0)
        assert np.array_equal(profile.predictions[0, 0, 1], expected)

    def test_constant_report(self, prior3):
        profile = constant_report_profile(prior3, 4, target=1)
        assert np.all(profile.thetas[:, 1, :] == 1.0)
        assert np.all(profile.predictions[..., 1] == 1.0)

    def test_uniform_report(self, prior3):
        profile = uniform_report_profile(prior3, 4)
        assert np.all(profile.thetas == 1 / 3)
        assert np.all(profile.predictions == 1 / 3)

    def test_counterexample_structure(self, prior3):
        profile = counterexample_profile(prior3, 3)
        for i in range(3):
            assert np.all(profile.thetas[i, i, :] == 1.0)
            assert profile.predictions[i, 0, 0, i] == 0.0
            others = [u for u in range(3) if u != i]
            assert np.allclose(profile.predictions[i, 0, 0, others], 0.5)

    def test_counterexample_needs_n_equal_m(self, prior3):
        with pytest.raises(ProfileError, match="n = m"):
            counterexample_profile(prior3, 4)

    def test_candidate_catalogue(self, prior2):
        named = candidate_profiles(prior2, 2)
        permutations = [k for k in named if k.startswith("permutation:")]
        assert len(permutations) == 1  # identity listed as "truth"
        assert "counterexample" in named  # n == m == 2
        assert "constant:s1" in named and "constant:s2" in named and "uniform" in named
        named4 = candidate_profiles(prior2, 4)
        assert "counterexample" not in named4


class TestValidation:
    def test_column_sums(self):
        with pytest.raises(ProfileError):
            validate_signal_strategy(np.array([[0.6, 0.5], [0.6, 0.5]]))

    def test_negative_entries(self):
        with pytest.raises(ProfileError):
            validate_signal_strategy(np.array([[1.2, 0.0], [-0.2, 1.0]]))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({1: [[0.6, 0.5], [0.6, 0.5]], 2: [[1.2, 0.0], [-0.2, 1.0]]}, "got [1.2 1. ]"),
            ({1: [[1.2, 0.0], [-0.2, 1.0]], 2: [[0.6, 0.5], [0.6, 0.5]]}, "non-negative"),
        ],
    )
    def test_profile_reports_first_failing_agent(self, bad, message):
        thetas = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
        for i, theta in bad.items():
            thetas[i] = theta
        with pytest.raises(ProfileError) as info:
            StrategyProfile(thetas, np.full((4, 2, 2, 2), 0.5))
        assert message in str(info.value)

    def test_profile_shapes(self, prior2):
        with pytest.raises(ProfileError):
            StrategyProfile(np.eye(2)[None], np.full((1, 2, 2, 2), 0.5))  # n = 1
        with pytest.raises(ProfileError, match="probability"):
            thetas = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
            StrategyProfile(thetas, np.full((2, 2, 2, 2), 0.3))


class TestAggregates:
    def test_two_agent_swap_example(self, prior2):
        thetas = np.stack([np.eye(2), PermutationMap((1, 0)).matrix()])
        predictions = np.full((2, 2, 2, 2), 0.5)
        profile = StrategyProfile(thetas, predictions)
        agg = aggregate_strategies(profile)
        assert np.allclose(agg.theta_bar, 0.5)
        assert np.allclose(agg.report_distribution(np.array([0.5, 0.5])), [0.5, 0.5])
        # exact enumeration of a uniformly chosen agent's report
        omega = np.array([0.3, 0.7])
        enumerated = np.zeros(2)
        for i in range(2):
            for s in range(2):
                for r in range(2):
                    enumerated[r] += 0.5 * omega[s] * thetas[i, r, s]
        assert np.allclose(enumerated, agg.report_distribution(omega), atol=1e-15)

    def test_equal_strategies_collapse(self, prior3):
        theta = random_signal_strategy(np.random.default_rng(0), 3)
        profile = symmetric_profile(prior3, 5, theta)
        agg = aggregate_strategies(profile)
        assert np.allclose(agg.theta_bar, theta, atol=1e-15)
        assert np.allclose(agg.theta_minus, theta[None], atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_consistency_identity(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        profile = random_profile(rng, 3, n)
        agg = aggregate_strategies(profile)
        lhs = (n - 1) * agg.theta_minus + profile.thetas
        rhs = n * agg.theta_bar[None]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_lone_reporter_anchors_nonnegative(self, lone_reporter):
        latent, thetas = lone_reporter
        prior = from_latent(latent)
        profile = StrategyProfile(thetas, np.full((49, 2, 2, 2), 0.5))
        assert aggregate_strategies(profile).theta_minus.min() == 0.0
        assert prediction_anchors(prior, thetas).min() >= 0.0
        best_prediction_profile(profile, prior)  # a valid profile, no ProfileError

    def test_report_distribution_enumeration(self):
        rng = np.random.default_rng(3)
        profile = random_profile(rng, 3, 4)
        omega = rng.dirichlet(np.ones(3))
        agg = aggregate_strategies(profile)
        enumerated = np.zeros(3)
        for i in range(4):
            for s in range(3):
                for r in range(3):
                    enumerated[r] += 0.25 * omega[s] * profile.thetas[i, r, s]
        assert np.max(np.abs(enumerated - agg.report_distribution(omega))) <= 1e-12


class TestBestPrediction:
    def test_truth_fixed_point(self, prior3):
        truth = truth_telling_profile(prior3, 4)
        bp = best_prediction_profile(truth, prior3)
        for s in range(3):
            assert np.allclose(bp.predictions[0, s, s], truth.predictions[0, s, s], atol=1e-15)

    def test_permutation_fixed_point(self, prior3):
        perm = PermutationMap((1, 2, 0))
        profile = permutation_profile(prior3, 4, perm)
        bp = best_prediction_profile(profile, prior3)
        for s in range(3):
            assert np.allclose(
                bp.predictions[2, s, perm(s)], profile.predictions[2, s, perm(s)], atol=1e-15
            )

    def test_asymmetric_three_agents(self, prior2):
        swap = PermutationMap((1, 0)).matrix()
        thetas = np.stack([np.eye(2), swap, swap])
        profile = StrategyProfile(thetas, np.full((3, 2, 2, 2), 0.5))
        bp = best_prediction_profile(profile, prior2)
        for s in range(2):
            assert np.allclose(bp.predictions[0, s, 0], swap @ prior2.q_sigma(s), atol=1e-15)
            mixed = 0.5 * (np.eye(2) + swap) @ prior2.q_sigma(s)
            assert np.allclose(bp.predictions[1, s, 0], mixed, atol=1e-15)

    def test_symmetric_profile_matches_best_prediction(self, prior3):
        theta = random_signal_strategy(np.random.default_rng(5), 3)
        profile = symmetric_profile(prior3, 4, theta)
        bp = best_prediction_profile(profile, prior3)
        assert np.allclose(profile.predictions, bp.predictions, atol=1e-14)


class TestTauCloseness:
    def test_against_exact_permutation_oracle(self):
        rng = np.random.default_rng(9)
        perms = all_permutations(3)
        for k in range(1000):
            if k % 4 == 0:
                theta = perms[k % len(perms)].matrix()
            else:
                theta = random_signal_strategy(rng, 3)
            is_perm = tau_closeness(theta) <= 1e-12
            exact = any(np.allclose(theta, p.matrix(), atol=1e-12) for p in perms)
            assert is_perm == exact

    def test_tau_closeness_scalar(self):
        assert tau_closeness(np.eye(3)) == 0.0
        assert tau_closeness(APPENDIX_THETA) == pytest.approx(0.4)
        assert tau_closeness(np.full((2, 2), 0.5)) == 0.5


class TestPermuteProfile:
    def test_identity(self, prior3):
        profile = truth_telling_profile(prior3, 4)
        out = permute_profile(profile, PermutationMap.identity(3))
        assert np.array_equal(out.thetas, profile.thetas)
        assert np.array_equal(out.predictions, profile.predictions)

    def test_involution(self, prior3):
        rng = np.random.default_rng(1)
        profile = random_profile(rng, 3, 4)
        swap = PermutationMap((1, 0, 2))
        twice = permute_profile(permute_profile(profile, swap), swap)
        assert np.array_equal(twice.thetas, profile.thetas)
        assert np.array_equal(twice.predictions, profile.predictions)

    def test_inverse_round_trip(self, prior3):
        rng = np.random.default_rng(2)
        profile = random_profile(rng, 3, 4)
        perm = PermutationMap((2, 0, 1))
        back = permute_profile(permute_profile(profile, perm), perm.inverse())
        assert np.array_equal(back.thetas, profile.thetas)
        assert np.array_equal(back.predictions, profile.predictions)

    def test_reindexing_semantics(self, prior3):
        rng = np.random.default_rng(3)
        profile = random_profile(rng, 3, 4)
        perm = PermutationMap((2, 0, 1))
        out = permute_profile(profile, perm)
        for s in range(3):
            assert np.array_equal(out.thetas[0][:, s], profile.thetas[0][:, perm(s)])
            assert np.array_equal(out.predictions[0, s], profile.predictions[0, perm(s)])
