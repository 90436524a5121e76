import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerpred.priors import (
    LatentStatePrior,
    PairwisePrior,
    PermutationMap,
    PriorError,
    SignalSpace,
    all_permutations,
    build_pairwise_prior,
    from_latent,
    permute_prior,
    prior_constants,
    random_snife_prior,
    sample_categorical,
    theorem_bounds,
    validate_snife,
)

EXAMPLE_CONDITIONAL = np.array([[0.1, 0.2, 0.3], [0.2, 0.4, 0.6], [0.7, 0.4, 0.1]])


def latents(max_states=3, max_m=4):
    def build(args):
        probs, rows = args
        probs = np.array(probs) / np.sum(probs)
        emissions = np.array([np.array(r) / np.sum(r) for r in rows])
        return LatentStatePrior(SignalSpace.of_size(emissions.shape[1]), probs, emissions)

    def sized(mt):
        m, t = mt
        weight = st.floats(min_value=1e-2, max_value=1.0)
        return st.tuples(
            st.lists(weight, min_size=t, max_size=t),
            st.lists(st.lists(weight, min_size=m, max_size=m), min_size=t, max_size=t),
        )

    return (
        st.tuples(st.integers(2, max_m), st.integers(1, max_states))
        .flatmap(sized)
        .map(build)
    )


class TestSignalSpace:
    def test_labels_unique(self):
        with pytest.raises(PriorError):
            SignalSpace(("a", "a"))

    def test_needs_two_signals(self):
        with pytest.raises(PriorError):
            SignalSpace(("only",))

    def test_default_labels(self):
        assert SignalSpace.of_size(3).labels == ("s1", "s2", "s3")


class TestBuildPairwisePrior:
    def test_iid_binary_accepted(self):
        prior = build_pairwise_prior([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        assert prior.symmetry_residual() == 0.0

    def test_example_conditional_rejected_for_symmetry(self):
        # q(s1) q(s3|s1) = 0.7/3 but q(s3) q(s1|s3) = 0.3/3: no marginal fixes it
        with pytest.raises(PriorError, match="symmetry"):
            build_pairwise_prior(np.full(3, 1 / 3), EXAMPLE_CONDITIONAL)

    def test_dimension_mismatch(self):
        with pytest.raises(PriorError):
            build_pairwise_prior([0.5, 0.5], np.full((3, 3), 1 / 3))

    def test_nonstochastic_column(self):
        with pytest.raises(PriorError, match="stochastic"):
            build_pairwise_prior([0.5, 0.5], [[0.6, 0.5], [0.6, 0.5]])

    def test_latent_built_priors_accepted(self):
        latent = random_snife_prior(3, 2, seed=0)
        pw = from_latent(latent)
        rebuilt = build_pairwise_prior(pw.marginal, pw.conditional, tol=1e-12)
        assert rebuilt.symmetry_residual() <= 1e-15


class TestSampleCategorical:
    def test_counts_thresholds_as_int32(self):
        # m = 3 categories: [0, 0.2), [0.2, 0.5) and [0.5, 1)
        index = sample_categorical(np.array([[0.2], [0.5]]), np.array([0.0, 0.2, 0.49, 0.5, 0.99]))
        assert index.dtype == np.int32
        assert index.tolist() == [0, 1, 1, 2, 2]

    def test_sum_below_one_clamps_to_last_category(self):
        # a draw past every cumulative sum, the last of which rounded below 1
        thresholds = np.array([[0.5], [1.0 - 2**-52]])
        assert sample_categorical(thresholds, np.array([1.0 - 2**-53])).tolist() == [2]


class TestFromLatent:
    def test_single_state_gives_independent_signals(self):
        latent = LatentStatePrior(SignalSpace.of_size(2), [1.0], [[0.3, 0.7]])
        pw = from_latent(latent)
        assert np.allclose(pw.conditional[:, 0], pw.marginal)
        assert np.allclose(pw.conditional[:, 1], pw.marginal)
        assert not validate_snife(pw).informative_ok

    def test_two_state_mixture_value(self):
        latent = LatentStatePrior(
            SignalSpace.of_size(2), [0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]]
        )
        pw = from_latent(latent)
        assert np.allclose(pw.marginal, [0.5, 0.5])
        assert pw.conditional[0, 0] == pytest.approx(0.68, abs=1e-15)

    def test_deterministic_emissions_fail_nonzero(self):
        latent = LatentStatePrior(SignalSpace.of_size(2), [0.5, 0.5], np.eye(2))
        report = validate_snife(from_latent(latent))
        assert not report.nonzero_ok

    def test_degenerate_latent_rejected(self):
        latent = LatentStatePrior(
            SignalSpace.of_size(2), [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]
        )
        with pytest.raises(PriorError, match="degenerate"):
            from_latent(latent)

    @settings(max_examples=60, deadline=None)
    @given(latents())
    def test_matches_state_enumeration(self, latent):
        pw = from_latent(latent) if np.all(latent.marginal() > 0) else None
        if pw is None:
            return
        m = latent.m
        # brute force: joint over two agents' signals by summing over states
        joint = np.zeros((m, m))
        for t in range(latent.num_states):
            joint += latent.state_probs[t] * np.outer(
                latent.emissions[t], latent.emissions[t]
            )
        marginal = joint.sum(axis=0)
        assert np.allclose(pw.marginal, marginal, atol=1e-12)
        assert np.allclose(pw.conditional, joint / marginal[None, :], atol=1e-12)
        assert pw.symmetry_residual() <= 1e-15


class TestValidateSnife:
    def test_example_conditional_not_finegrained(self):
        prior = PairwisePrior(SignalSpace.of_size(3), np.full(3, 1 / 3), EXAMPLE_CONDITIONAL)
        report = validate_snife(prior)
        assert not report.finegrained_ok
        assert report.witnesses["finegrained"] == (0, 1)
        assert report.informative_ok

    def test_identity_conditional_fails_nonzero(self):
        prior = PairwisePrior(SignalSpace.of_size(2), [0.5, 0.5], np.eye(2))
        report = validate_snife(prior)
        assert not report.nonzero_ok

    def test_random_prior_passes(self):
        report = validate_snife(from_latent(random_snife_prior(3, 2, seed=5)))
        assert report.all_ok


class TestPermutePrior:
    def test_identity(self, prior3):
        out = permute_prior(prior3, PermutationMap.identity(3))
        assert np.array_equal(out.marginal, prior3.marginal)
        assert np.array_equal(out.conditional, prior3.conditional)

    def test_binary_swap(self):
        # latent model with marginal (0.7, 0.3)
        latent = LatentStatePrior(
            SignalSpace.of_size(2),
            [0.7, 0.3],
            [[0.9, 0.1], [0.2333333333333334, 0.7666666666666666]],
        )
        pw = from_latent(latent)
        assert pw.marginal[0] == pytest.approx(0.7)
        swapped = permute_prior(pw, PermutationMap((1, 0)))
        assert swapped.marginal[1] == pw.marginal[0]
        assert swapped.marginal[0] == pw.marginal[1]
        assert swapped.conditional[1, 1] == pw.conditional[0, 0]
        assert swapped.conditional[0, 1] == pw.conditional[1, 0]

    def test_round_trip_bit_exact(self, prior3):
        perm = PermutationMap((2, 0, 1))
        back = permute_prior(permute_prior(prior3, perm), perm.inverse())
        assert np.array_equal(back.marginal, prior3.marginal)
        assert np.array_equal(back.conditional, prior3.conditional)

    def test_flags_invariant_under_relabeling(self, prior3):
        base = validate_snife(prior3)
        for perm in all_permutations(3):
            report = validate_snife(permute_prior(prior3, perm))
            assert report.to_dict().keys() == base.to_dict().keys()
            assert (
                report.symmetric_ok,
                report.nonzero_ok,
                report.informative_ok,
                report.finegrained_ok,
            ) == (True, True, True, True)

    def test_constants_invariant_under_relabeling(self, prior3):
        base = prior_constants(prior3)
        for perm in all_permutations(3):
            consts = prior_constants(permute_prior(prior3, perm))
            for key, value in consts.to_dict().items():
                assert value == pytest.approx(base.to_dict()[key], rel=1e-12)

    def test_space_mismatch(self, prior3):
        with pytest.raises(PriorError):
            permute_prior(prior3, PermutationMap((1, 0)))


class TestPermutationMap:
    def test_order(self):
        assert PermutationMap((1, 2, 0)).order == 3
        assert PermutationMap((1, 0)).order == 2
        assert PermutationMap.identity(4).order == 1

    def test_not_bijection(self):
        with pytest.raises(PriorError):
            PermutationMap((0, 0))

    def test_matrix_and_inverse(self):
        perm = PermutationMap((2, 0, 1))
        theta = perm.matrix()
        assert theta[2, 0] == 1.0 and theta[0, 1] == 1.0 and theta[1, 2] == 1.0
        assert np.array_equal(perm.matrix() @ perm.inverse().matrix(), np.eye(3))

    def test_enumeration(self):
        assert len(all_permutations(2)) == 2
        assert len(all_permutations(4)) == 24


class TestRandomSnifePrior:
    def test_deterministic(self):
        a = random_snife_prior(3, 2, seed=42)
        b = random_snife_prior(3, 2, seed=42)
        assert np.array_equal(a.state_probs, b.state_probs)
        assert np.array_equal(a.emissions, b.emissions)

    def test_all_flags(self):
        for m, seed in ((2, 1), (4, 7)):
            report = validate_snife(from_latent(random_snife_prior(m, 2, seed=seed)), tol=1e-6)
            assert report.all_ok

    def test_rejects_small_sizes(self):
        with pytest.raises(PriorError):
            random_snife_prior(1, 2, seed=0)
        with pytest.raises(PriorError):
            random_snife_prior(2, 1, seed=0)


class TestPriorConstants:
    def test_iid_binary(self):
        prior = build_pairwise_prior([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        consts = prior_constants(prior)
        assert consts.c1 == 0.5
        assert consts.c2 == 0.25
        assert consts.c3 == 0.0  # all ratio profiles identical: informative fails
        assert consts.c4 == 0.5  # every ratio is 1 and f''(1) = 1/2

    def test_matches_loop_oracle(self, prior3):
        consts = prior_constants(prior3)
        c = prior3.conditional
        m = 3
        assert consts.c1 == pytest.approx(min(c[s, t] for s in range(m) for t in range(m)))
        joint = [prior3.marginal[t] * c[s, t] for s in range(m) for t in range(m)]
        assert consts.c2 == pytest.approx(min(joint))
        c3 = min(
            max(
                (c[u, s] / c[u, t] - c[v, s] / c[v, t]) ** 2
                for s in range(m)
                for t in range(m)
            )
            for u in range(m)
            for v in range(m)
            if u != v
        )
        assert consts.c3 == pytest.approx(c3, rel=1e-12)
        c4 = min(
            0.5 * (c[u, s] / c[u, t]) ** -1.5
            for s in range(m)
            for t in range(m)
            for u in range(m)
        )
        assert consts.c4 == pytest.approx(c4, rel=1e-12)
        assert consts.c4 <= 0.5
        assert consts.all_positive

    def test_zero_conditional_rejected(self):
        prior = PairwisePrior(SignalSpace.of_size(2), [0.5, 0.5], np.eye(2))
        with pytest.raises(PriorError):
            prior_constants(prior)


class TestTheoremBounds:
    def test_gamma2_algebra(self, prior3):
        bounds = theorem_bounds(prior_constants(prior3), m=3)
        n = 128 * 3 * 3
        assert bounds.gamma2(n) == pytest.approx(0.5)

    def test_tau1_at_zero(self, prior3):
        bounds = theorem_bounds(prior_constants(prior3), m=3)
        assert bounds.tau1(0.0) == 0.0

    def test_tau2_formula(self):
        latent = LatentStatePrior(
            SignalSpace.of_size(2), [0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]]
        )
        consts = prior_constants(from_latent(latent))
        bounds = theorem_bounds(consts, m=2)
        n = 10_000
        prod = consts.c2 * consts.c3 * consts.c4
        expected = (128 * 4 / (n * consts.c1**6 * prod**2)) ** (1 / 6)
        assert bounds.tau2(n) == pytest.approx(expected, rel=1e-12)
        assert bounds.tau2(n) > 0

    def test_degenerate_constants_rejected(self):
        prior = build_pairwise_prior([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(PriorError):
            theorem_bounds(prior_constants(prior), m=2)
