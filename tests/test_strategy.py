from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import best_prediction_profile
from peerpred.priors import PermutationMap, all_permutations, from_latent, random_snife_prior
from peerpred.strategy import (
    ProfileError,
    StrategyProfile,
    _check_columns,
    agent_types,
    constant_report_profile,
    counterexample_profile,
    leave_one_out,
    permutation_profile,
    permute_profile,
    prediction_anchors,
    random_signal_strategies,
    random_signal_strategy,
    tau_closeness,
    truth_telling_profile,
    uniform_report_profile,
    validate_signal_strategy,
)
from peerpred.tolerances import STOCHASTIC_TOL

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
        assert np.array_equal(prediction_anchors(prior2, profile.thetas)[0], prior2.conditional.T)

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


def reference_check_columns(thetas, tol=STOCHASTIC_TOL):
    """The column check located strategy by strategy, with no whole-stack
    verdict first: raises for the first offending strategy."""
    negative = ~(thetas >= 0.0).all(axis=(1, 2))
    colsums = thetas.sum(axis=1)
    bad = negative | ~(np.abs(colsums - 1.0).max(axis=1) <= tol)
    if bad.any():
        i = int(np.argmax(bad))
        if negative[i]:
            raise ProfileError("signal strategy entries must be non-negative")
        raise ProfileError(f"columns must sum to 1, got {colsums[i]}")


def spoil_column(theta, defect):
    """Make a column of ``theta`` (m, m) fail the check, in place: a negative
    entry in a column that still sums to 1, a NaN, a sum off 1 by 1e-3, or
    finite entries whose sum overflows."""
    if defect == "negative":
        theta[:, 0] = 0.0
        theta[0, 0], theta[1, 0] = -0.25, 1.25
    elif defect == "nan":
        theta[1, -1] = np.nan
    elif defect == "off-sum":
        theta[:, 1] *= 1.001
    else:
        theta[:, 0] = 1e308


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

    @pytest.mark.parametrize(
        "defects",
        [
            {3: "negative"},
            {2: "nan"},
            {4: "off-sum"},
            {1: "huge"},
            {5: "negative", 2: "off-sum"},
            {4: "nan", 2: "negative"},
            {3: "off-sum", 5: "nan"},
            {1: "nan", 3: "huge"},
        ],
    )
    def test_names_the_strategy_located_one_by_one(self, defects):
        thetas = random_signal_strategies(np.random.default_rng(4), 3, (6,))
        for k, defect in defects.items():
            spoil_column(thetas[k], defect)
        with pytest.raises(ProfileError) as expected:
            reference_check_columns(thetas)
        with pytest.raises(ProfileError) as stack:
            _check_columns(thetas)
        with pytest.raises(ProfileError) as profile:
            StrategyProfile(thetas, np.full((6, 3, 3, 3), 1.0 / 3.0))
        assert str(stack.value) == str(profile.value) == str(expected.value)

    @pytest.mark.parametrize("defect", ["negative", "nan", "off-sum", "huge"])
    def test_prediction_cells_checked_at_every_agent(self, defect):
        thetas = random_signal_strategies(np.random.default_rng(4), 3, (6,))
        predictions = np.full((6, 3, 3, 3), 1.0 / 3.0)
        spoil_column(predictions[4, 2].T, defect)  # the cells of agent 4 at signal 2
        with pytest.raises(ProfileError, match="every prediction cell must be a probability"):
            StrategyProfile(thetas, predictions)

    def test_profile_shapes(self, prior2):
        with pytest.raises(ProfileError):
            StrategyProfile(np.eye(2)[None], np.full((1, 2, 2, 2), 0.5))  # n = 1
        with pytest.raises(ProfileError, match="probability"):
            thetas = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
            StrategyProfile(thetas, np.full((2, 2, 2, 2), 0.3))


def reference_agent_types(*arrays):
    """np.unique over the agents' row bytes: each type's first agent and count."""
    n = arrays[0].shape[0]
    rows = np.concatenate([np.asarray(a, dtype=float).reshape(n, -1) for a in arrays], axis=1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return first, counts


class TestAgentTypes:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_matches_unique_grouping(self, n, m, kinds, seed):
        rng = np.random.default_rng(seed)
        palette = rng.random((kinds + 2, m, m))
        palette[-2:] = 0.0
        palette[-1, 0, 0] = -0.0  # equal to the row before it, but not byte for byte
        thetas = palette[rng.integers(kinds + 2, size=n)]
        predictions = rng.random((2, m))[rng.integers(2, size=n)]
        for arrays in ((thetas,), (thetas, predictions)):
            got, want = agent_types(*arrays), reference_agent_types(*arrays)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


@cache
def prior_on(m):
    return from_latent(random_snife_prior(m, 2, seed=40 + m))


class TestPredictionAnchors:
    def test_two_agent_swap_example(self, prior2):
        swap = PermutationMap((1, 0)).matrix()
        thetas = np.stack([np.eye(2), swap])
        anchors = prediction_anchors(prior2, thetas)
        # each agent's only neighbor is the other one
        assert np.array_equal(anchors[0], (swap @ prior2.conditional).T)
        assert np.array_equal(anchors[1], prior2.conditional.T)

    def test_other_reports_enumeration(self, prior3):
        rng = np.random.default_rng(3)
        n, m = 4, 3
        thetas = random_profile(rng, m, n).thetas
        cond = prior3.conditional
        # Pr(a uniformly chosen other agent reports u | agent i's signal s)
        enumerated = np.zeros((n, m, m))
        for i in range(n):
            for s in range(m):
                for j in range(n):
                    if j == i:
                        continue
                    for v in range(m):
                        for u in range(m):
                            enumerated[i, s, u] += cond[v, s] * thetas[j, u, v] / (n - 1)
        anchors = prediction_anchors(prior3, thetas)
        assert np.max(np.abs(anchors - enumerated)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((2, 3, 4)), st.integers(2, 8), st.integers(1, 3), st.data())
    def test_explicit_mean_of_others(self, m, n, size, data):
        prior = prior_on(m)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        stack = random_signal_strategies(rng, m, (size, n))
        anchors = prediction_anchors(prior, stack)
        assert anchors.shape == (size, n, m, m)
        for k in range(size):
            alone = prediction_anchors(prior, stack[k])
            assert anchors[k].tobytes() == alone.tobytes()
            for i in range(n):
                others = [j for j in range(n) if j != i]
                mean = np.mean([stack[k, j] @ prior.conditional for j in others], axis=0)
                assert np.max(np.abs(alone[i] - mean.T)) <= 1e-15

    def test_equal_strategies_collapse(self, prior3):
        theta = random_signal_strategy(np.random.default_rng(0), 3)
        profile = symmetric_profile(prior3, 5, theta)
        anchors = prediction_anchors(prior3, profile.thetas)
        assert np.allclose(anchors, (theta @ prior3.conditional).T[None], atol=1e-15)

    def test_lone_reporter_anchors_nonnegative(self, lone_reporter):
        latent, thetas = lone_reporter
        prior = from_latent(latent)
        profile = StrategyProfile(thetas, np.full((49, 2, 2, 2), 0.5))
        assert prediction_anchors(prior, thetas).min() == 0.0
        best_prediction_profile(profile, prior)  # a valid profile, no ProfileError

    @pytest.mark.parametrize("n", (2, 3, 49, 257, 4097))
    @pytest.mark.parametrize("mass", (1e-8, 1e-11, 1e-14, 1e-16, 1e-17, 1e-18, 0.0))
    def test_lone_reporter_with_neighbor_mass(self, prior2, n, mass):
        """One agent always reports 1 and every other agent reports 1 with a
        tiny ``mass``: the lone agent's neighbors put (almost) no mass there,
        and its own 1 is what the total loses again."""
        thetas = np.empty((n, 2, 2))
        thetas[:, 0, :] = 1.0 - mass
        thetas[:, 1, :] = mass
        thetas[-1] = [[0.0, 0.0], [1.0, 1.0]]
        anchors = prediction_anchors(prior2, thetas)
        assert anchors.min() >= 0.0
        assert np.all(anchors[-1, :, 1] <= 2 * mass)

    def test_zero_one_lists_are_exact(self, prior3):
        n = 5
        profiles = [truth_telling_profile(prior3, n)]
        profiles += [permutation_profile(prior3, n, perm) for perm in all_permutations(3)]
        profiles += [constant_report_profile(prior3, n, t) for t in range(3)]
        for profile in profiles:
            expected = (profile.thetas[0] @ prior3.conditional).T  # row s = theta q_s
            anchors = prediction_anchors(prior3, profile.thetas)
            assert anchors.tobytes() == np.broadcast_to(expected, anchors.shape).tobytes()


    @pytest.mark.parametrize("axis", [0, 1, -3])
    def test_leave_one_out_on_any_agent_axis(self, axis):
        x = np.random.default_rng(5).random((3, 4, 5, 2))
        out = leave_one_out(x, axis=axis)
        for i in range(x.shape[axis]):
            others = np.delete(x, i, axis=axis).sum(axis=axis) / (x.shape[axis] - 1)
            np.testing.assert_allclose(np.take(out, i, axis=axis), others, rtol=1e-14)


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
