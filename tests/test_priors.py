import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inverse_permutation
from peerpred.tolerances import PROBABILITY_TOL
from peerpred.priors import (
    LatentStatePrior,
    PairwisePrior,
    PermutationMap,
    PriorError,
    SignalSpace,
    all_permutations,
    from_latent,
    gamma2,
    permute_prior,
    prior_constants,
    random_snife_prior,
    sample_categorical,
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


class TestPairwisePrior:
    def test_iid_binary_symmetric(self):
        prior = PairwisePrior(SignalSpace.of_size(2), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        assert prior.symmetry_residual() == 0.0

    def test_marginal_shape_checked(self):
        with pytest.raises(PriorError, match="marginal shape"):
            PairwisePrior(SignalSpace.of_size(2), np.full(3, 1 / 3), [[0.5, 0.5], [0.5, 0.5]])

    def test_conditional_shape_checked(self):
        with pytest.raises(PriorError, match="conditional shape"):
            PairwisePrior(SignalSpace.of_size(2), [0.5, 0.5], np.full((3, 3), 1 / 3))


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

    def test_out_is_overwritten(self):
        out = np.full(3, 7, dtype=np.int64)
        index = sample_categorical(np.array([[0.5]]), np.array([0.1, 0.5, 0.9]), out=out)
        assert index is out and out.tolist() == [0, 1, 1]

    # n = 3: runs of 2730 rows, three for 6000 trials; n = 9000: a run per row
    @pytest.mark.parametrize("n", [3, 9000])
    def test_signals_equal_one_whole_draw(self, n):
        """The signal uniforms, drawn a run of rows at a time, give the
        signals of the whole (trials, n) draw, into ``out`` or not."""
        latent = random_snife_prior(3, 3, seed=4)
        trials = 6000 if n == 3 else 4
        whole = np.random.default_rng(9)
        states = sample_categorical(np.cumsum(latent.state_probs[:-1]), whole.random(trials))
        rows = np.cumsum(latent.emissions[:, :-1], axis=1)[states].T[:, :, None]
        expected = sample_categorical(rows, whole.random((trials, n)))
        assert np.array_equal(latent.sample_signals(n, trials, np.random.default_rng(9)), expected)
        out = np.empty((trials, n), dtype=np.int64)
        assert latent.sample_signals(n, trials, np.random.default_rng(9), out=out) is out
        assert np.array_equal(out, expected)


class TestLatentValidation:
    @pytest.mark.parametrize(
        "probs", [[0.25, 0.5, -0.25, 0.5], [0.25, 0.25, np.nan, 0.5], [0.25, 0.25, 0.25, 0.3]]
    )
    def test_state_probs_checked_at_every_state(self, probs):
        with pytest.raises(PriorError, match="state_probs must be a probability vector"):
            LatentStatePrior(SignalSpace.of_size(3), probs, np.full((4, 3), 1.0 / 3.0))

    @pytest.mark.parametrize(
        "row", [[1.25, -0.25, 0.0], [0.5, np.nan, 0.5], [0.5, 0.25, 0.3], [1e308, 1e308, 0.0]]
    )
    def test_emission_rows_checked_at_every_state(self, row):
        emissions = np.full((4, 3), 1.0 / 3.0)
        emissions[2] = row
        with pytest.raises(PriorError, match="each emissions row must be a probability vector"):
            LatentStatePrior(SignalSpace.of_size(3), np.full(4, 0.25), emissions)


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

    def test_derived_moments_not_checked_again(self):
        """Each sum of the latent prior misses 1 by 0.9e-9, within
        PROBABILITY_TOL, and the derived marginal misses by their sum, 1.8e-9:
        the latent prior was checked, so its moments are accepted."""
        miss = 0.9e-9
        latent = LatentStatePrior(
            SignalSpace.of_size(2), [0.5, 0.5 - miss], [[0.7, 0.3 - miss], [0.2, 0.8 - miss]]
        )
        prior = from_latent(latent)
        assert abs(prior.marginal.sum() - 1.0) > PROBABILITY_TOL

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
        out = permute_prior(prior3, PermutationMap(tuple(range(3))))
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
        back = permute_prior(permute_prior(prior3, perm), inverse_permutation(perm))
        assert np.array_equal(back.marginal, prior3.marginal)
        assert np.array_equal(back.conditional, prior3.conditional)

    def test_flags_invariant_under_relabeling(self, prior3):
        base = validate_snife(prior3)
        for perm in all_permutations(3):
            report = validate_snife(permute_prior(prior3, perm))
            assert report.witnesses.keys() == base.witnesses.keys()
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
        assert PermutationMap(tuple(range(4))).order == 1

    def test_not_bijection(self):
        with pytest.raises(PriorError):
            PermutationMap((0, 0))

    def test_matrix_and_inverse(self):
        perm = PermutationMap((2, 0, 1))
        theta = perm.matrix()
        assert theta[2, 0] == 1.0 and theta[0, 1] == 1.0 and theta[1, 2] == 1.0
        assert np.array_equal(perm.matrix() @ inverse_permutation(perm).matrix(), np.eye(3))

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
        prior = PairwisePrior(SignalSpace.of_size(2), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
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
        assert consts.c1 > 0 and consts.c2 > 0 and consts.c3 > 0 and consts.c4 > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_c3_bit_equal_to_pair_loop(self, seed):
        rng = np.random.default_rng(seed)
        m = 2 + seed % 3
        conditional = rng.dirichlet(np.ones(m), size=m).T
        if seed >= 6:  # tiny entries: ratios overflow, and inf - inf gives NaN pairs
            conditional[:, 0] = [1.0 - (m - 1) * 1e-320] + [1e-320] * (m - 1)
        prior = PairwisePrior(SignalSpace.of_size(m), np.full(m, 1.0 / m), conditional)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = conditional[:, :, None] / conditional[:, None, :]
            c3 = np.inf
            for u in range(m):
                for v in range(m):
                    if u != v:
                        c3 = min(c3, float(np.max((ratio[u] - ratio[v]) ** 2)))
        assert prior_constants(prior).c3 == c3

    def test_zero_conditional_rejected(self):
        prior = PairwisePrior(SignalSpace.of_size(2), [0.5, 0.5], np.eye(2))
        with pytest.raises(PriorError):
            prior_constants(prior)


class TestGamma2:
    def test_gamma2_algebra(self, prior3):
        assert gamma2(prior3, 128 * 3 * 3) == pytest.approx(0.5)

    def test_degenerate_constants_rejected(self):
        prior = PairwisePrior(SignalSpace.of_size(2), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(PriorError) as exc:
            gamma2(prior, 4)
        assert str(exc.value) == (
            "bounds need strictly positive constants, "
            "got PriorConstants(c1=0.5, c2=0.25, c3=0.0, c4=0.5)"
        )
