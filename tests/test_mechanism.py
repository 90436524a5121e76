import math
import tracemalloc
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerpred import mechanism, scoring
from peerpred.divergence import hellinger
from peerpred.equilibrium import check_equilibrium, solved_profile
from peerpred.mechanism import (
    Matching,
    MechanismConfig,
    MechanismError,
    Report,
    _base_payments,
    _classification_reward,
    _round_payments,
    monte_carlo_payments,
    realized_payments,
    welfare_batch,
    welfare_metrics,
    zero_sum_group_scores,
)
from peerpred.priors import PairwisePrior, PermutationMap, from_latent, random_snife_prior
from peerpred.scoring import ProperScoringRule
from peerpred.strategy import (
    ProfileError,
    StrategyProfile,
    constant_report_profile,
    counterexample_profile,
    permutation_profile,
    random_signal_strategies,
    random_signal_strategy,
    truth_telling_profile,
    uniform_report_profile,
)


def pair_scores(config, r_i, r_j):
    """(score_P, score_I) of agent i matched with agent j, from the payment
    kernel's base payments at (alpha, beta) = (1, 0) and (1, 1); score_I is
    their difference, exact up to the rounding of the second sum."""
    pair = (r_i.signal, r_i.prediction, r_j.signal, r_j.prediction)
    score_p = float(_base_payments(MechanismConfig(1.0, 0.0, config.rule), *pair))
    both = float(_base_payments(MechanismConfig(1.0, 1.0, config.rule), *pair))
    return score_p, both - score_p


def classification_pair_score(r_j, r_k):
    """The payment kernel's classification reward for watching agents j and k."""
    return float(_classification_reward(r_j.signal, r_j.prediction, r_k.signal, r_k.prediction))


def random_profile(rng, m, n):
    thetas = np.stack([random_signal_strategy(rng, m) for _ in range(n)])
    predictions = rng.dirichlet(np.ones(m), size=(n, m, m))
    return StrategyProfile(thetas, predictions)


class TestConfig:
    @pytest.mark.filterwarnings("error")
    def test_parameter_signs(self):
        with pytest.raises(MechanismError):
            MechanismConfig(alpha=0.0)
        with pytest.raises(MechanismError):
            MechanismConfig(beta=-0.1)
        for alpha, beta in ((math.nan, 0.05), (math.inf, 0.05), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(MechanismError, match="finite"):
                MechanismConfig(alpha=alpha, beta=beta)
        for prediction in ([math.nan, 0.5], [1e308, 1e308]):
            with pytest.raises(MechanismError, match="probability vector"):
                Report(0, np.array(prediction))

    def test_variant_names(self):
        with pytest.raises(MechanismError):
            MechanismConfig(variant="zero-sum")

    def test_regime(self):
        assert MechanismConfig(alpha=1.0, beta=0.05).regime_ok(m=3)
        assert not MechanismConfig(alpha=1.0, beta=0.1).regime_ok(m=3)
        with pytest.warns(UserWarning, match="1/\\(4m\\)"):
            MechanismConfig(alpha=1.0, beta=0.1).warn_if_outside_regime(3)

    def test_default_groups(self):
        config = MechanismConfig(variant="disagreement")
        assert config.groups(5) == ((0, 1), (2, 3, 4))

    @pytest.mark.parametrize("group_a", [None, (4, 1, 7, 30), tuple(range(0, 40, 3))])
    def test_groups_complement(self, group_a):
        a, b = MechanismConfig(variant="disagreement", group_a=group_a).groups(40)
        assert a == (tuple(range(20)) if group_a is None else group_a)
        assert b == tuple(i for i in range(40) if i not in set(a))

    def test_small_groups_rejected(self):
        config = MechanismConfig(variant="disagreement")
        with pytest.raises(MechanismError, match="two agents per group"):
            config.groups(3)
        with pytest.raises(MechanismError):
            MechanismConfig(variant="disagreement", group_a=(0,)).groups(4)

    def test_duplicate_group_indices_rejected(self):
        with pytest.raises(MechanismError, match="more than once"):
            MechanismConfig(variant="disagreement", group_a=(0, 0, 1))


class TestPairScores:
    def test_different_signals_zero_information_score(self):
        config = MechanismConfig(rule="log")
        r1 = Report(0, np.array([0.6, 0.4]))
        r2 = Report(1, np.array([0.5, 0.5]))
        _, score_i = pair_scores(config, r1, r2)
        assert score_i == 0.0

    def test_equal_predictions_zero_information_score(self):
        config = MechanismConfig(rule="log")
        r = Report(0, np.array([0.6, 0.4]))
        _, score_i = pair_scores(config, r, r)
        assert score_i == 0.0

    def test_log_penalty_is_negative_kl(self):
        config = MechanismConfig(rule="log")
        r_i = Report(0, np.array([0.25, 0.75]))
        r_j = Report(0, np.array([0.5, 0.5]))
        _, score_i = pair_scores(config, r_i, r_j)
        kl = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert score_i == pytest.approx(-kl, abs=1e-12)
        assert score_i == pytest.approx(-0.143841, abs=1e-6)

    def test_prediction_score(self):
        config = MechanismConfig(rule="quadratic")
        r_i = Report(0, np.array([0.3, 0.7]))
        r_j = Report(1, np.array([0.5, 0.5]))
        score_p, _ = pair_scores(config, r_i, r_j)
        assert score_p == pytest.approx(2 * 0.7 - (0.09 + 0.49))

    def test_information_score_never_positive(self):
        rng = np.random.default_rng(0)
        for rule in ("log", "quadratic"):
            config = MechanismConfig(rule=rule)
            for _ in range(200):
                r_i = Report(1, rng.dirichlet(np.ones(3)))
                r_j = Report(1, rng.dirichlet(np.ones(3)))
                _, score_i = pair_scores(config, r_i, r_j)
                assert score_i <= 1e-15


class TestClassificationPairScore:
    def test_same_signal_same_prediction(self):
        r = Report(0, np.array([0.5, 0.5]))
        assert classification_pair_score(r, r) == 0.0

    def test_disjoint_supports(self):
        r_j = Report(0, np.array([1.0, 0.0]))
        r_k = Report(1, np.array([0.0, 1.0]))
        assert classification_pair_score(r_j, r_k) == 2.0

    def test_same_signal_distance_penalty(self):
        r_j = Report(0, np.array([1.0, 0.0]))
        r_k = Report(0, np.array([0.0, 1.0]))
        assert classification_pair_score(r_j, r_k) == pytest.approx(-math.sqrt(2.0))


class TestRealizedPayments:
    def test_truthful_matches_hand_computation(self):
        config = MechanismConfig(alpha=2.0, beta=0.5, rule="quadratic")
        rng = np.random.default_rng(1)
        reports = [Report(int(rng.integers(0, 2)), rng.dirichlet(np.ones(2))) for _ in range(4)]
        peers = np.array([1, 2, 3, 0])
        payments = realized_payments(config, reports, Matching(peers))
        for i in range(4):
            score_p, score_i = pair_scores(config, reports[i], reports[peers[i]])
            assert payments[i] == pytest.approx(2.0 * score_p + 0.5 * score_i, abs=1e-15)

    def test_identical_reports_reduce_to_prediction_score(self):
        config = MechanismConfig(alpha=1.0, beta=0.7, rule="log")
        report = Report(0, np.array([0.6, 0.4]))
        reports = [report] * 4
        payments = realized_payments(config, reports, Matching(np.array([1, 0, 3, 2])))
        assert np.allclose(payments, math.log(0.6))

    def test_zero_sum_identity(self):
        rng = np.random.default_rng(2)
        for n in (4, 5, 6, 7):
            config = MechanismConfig(1.0, 0.05, "quadratic", "disagreement")
            group_a, group_b = config.groups(n)
            reports = [Report(int(rng.integers(0, 3)), rng.dirichlet(np.ones(3))) for _ in range(n)]
            peers = np.empty(n, dtype=int)
            for group in (group_a, group_b):
                for i in group:
                    mates = [j for j in group if j != i]
                    peers[i] = mates[rng.integers(0, len(mates))]
            # the truthful variant pays the base payments alpha score_P + beta score_I
            truthful = MechanismConfig(1.0, 0.05, "quadratic")
            base = realized_payments(truthful, reports, Matching(peers))
            scores = zero_sum_group_scores(base, group_a, group_b)
            assert abs(math.fsum(scores)) <= 1e-12
            # full payments are the zero-sum scores plus the watched-pair reward
            pairs = np.array(
                [rng.choice([j for j in range(n) if j != i], size=2, replace=False) for i in range(n)]
            )
            payments = realized_payments(config, reports, Matching(peers, pairs))
            for i in range(n):
                j, k = pairs[i]
                expected = scores[i] + classification_pair_score(reports[j], reports[k])
                assert payments[i] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    @pytest.mark.parametrize("n", [4, 7, 16, 33])
    def test_zero_sum_keeps_the_bits_of_fancy_index_assignment(self, n, shape):
        """Random partitions, contiguous or not, in or out of order, of
        unequal sizes: the same bits as subtracting each group's share by
        fancy-index assignment."""

        def fancy_zero_sum(payments, group_a, group_b):
            a, b = list(group_a), list(group_b)
            sum_a = payments[..., a].sum(axis=-1, keepdims=True)
            sum_b = payments[..., b].sum(axis=-1, keepdims=True)
            payments[..., a] -= sum_b / len(a)
            payments[..., b] -= sum_a / len(b)
            return payments

        rng = np.random.default_rng([n, len(shape)])
        for _ in range(20):
            agents = rng.permutation(n)
            size = int(rng.integers(2, n - 1))
            group_a, group_b = agents[:size].tolist(), agents[size:].tolist()
            if rng.integers(0, 2):
                group_a.sort()
            base = rng.normal(size=shape + (n,)) * 10.0 ** rng.uniform(-3, 3, size=shape + (n,))
            scores = zero_sum_group_scores(base, group_a, group_b)
            expected = fancy_zero_sum(base.copy(), group_a, group_b)
            assert list(map(float.hex, scores.ravel().tolist())) == list(
                map(float.hex, expected.ravel().tolist())
            )

    @pytest.mark.parametrize("group_b", [(2,), (1, 2, 3), (2, 3, 4)])
    def test_zero_sum_needs_a_partition(self, group_b):
        """Each agent in exactly one group: one agent in neither, one in
        both, or one past the last agent is refused."""
        with pytest.raises(MechanismError, match="do not partition the agents"):
            zero_sum_group_scores(np.ones(4), (0, 1), group_b)

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_zero_beta_pays_alpha_score_p(self, alpha):
        # agent 0 predicts (1, 0) and is matched with agent 1, who reports
        # the same signal and predicts (0.5, 0.5): the agreement term, which
        # beta = 0 multiplies away, is undefined under the log rule
        config = MechanismConfig(alpha, 0.0, "log")
        predictions = [[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]]
        reports = [Report(0, np.array(p)) for p in predictions]
        payments = realized_payments(config, reports, Matching(np.array([1, 0, 0])))
        rule = config.scoring_rule()
        expected = [alpha * rule.point_score(0, np.array(p)) for p in predictions]
        assert payments.tolist() == expected
        assert payments.tolist() == [0.0, alpha * math.log(0.5), 0.0]

    def test_matching_validation(self):
        config = MechanismConfig(rule="log")
        reports = [Report(0, np.array([0.5, 0.5]))] * 4
        with pytest.raises(MechanismError, match="distinct from self"):
            realized_payments(config, reports, Matching(np.array([0, 0, 3, 2])))
        config_d = MechanismConfig(1.0, 0.05, "log", "disagreement")
        with pytest.raises(MechanismError, match="other group"):
            realized_payments(config_d, reports, Matching(np.array([2, 3, 0, 1]), np.zeros((4, 2), int)))
        with pytest.raises(MechanismError, match="pair"):
            realized_payments(
                config_d,
                reports,
                Matching(np.array([1, 0, 3, 2]), np.array([[0, 1]] * 4)),
            )


def payments_oracle(config, signals, preds, peers, pairs):
    """Per-agent scalar re-derivation of one round's payments."""
    rule = config.scoring_rule()
    n = len(signals)
    base = []
    for i in range(n):
        j = peers[i]
        pay = config.alpha * float(rule.point_score(signals[j], preds[i]))
        if signals[i] == signals[j]:
            pay += config.beta * (
                rule.expected_score(preds[j], preds[i]) - rule.expected_score(preds[j], preds[j])
            )
        base.append(pay)
    if config.variant == "truthful":
        return np.array(base)
    group_a, group_b = config.groups(n)
    payments = []
    for i in range(n):
        own, other = (group_a, group_b) if i in group_a else (group_b, group_a)
        j, k = pairs[i]
        d = sum((math.sqrt(x) - math.sqrt(y)) ** 2 for x, y in zip(preds[j], preds[k]))
        reward = -math.sqrt(d) if signals[j] == signals[k] else d
        payments.append(base[i] - math.fsum(base[o] for o in other) / len(own) + reward)
    return np.array(payments)


def random_matchings(rng, config, n, rounds):
    """(rounds, n) base-payment peers and (rounds, n, 2) classification pairs."""
    peers = np.empty((rounds, n), dtype=int)
    pairs = np.empty((rounds, n, 2), dtype=int)
    groups = config.groups(n) if config.variant == "disagreement" else (range(n),)
    for t in range(rounds):
        for i in range(n):
            own = next(g for g in groups if i in g)
            peers[t, i] = rng.choice([j for j in own if j != i])
            pairs[t, i] = rng.choice([j for j in range(n) if j != i], size=2, replace=False)
    return peers, pairs


kernel_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 9),
    m=st.integers(2, 4),
    rule=st.sampled_from(("log", "quadratic")),
    variant=st.sampled_from(("truthful", "disagreement")),
    rounds=st.integers(1, 4),
)


def random_reports(rng, n, m, size=()):
    """Reported signals and predictions; predictions come from a small pool so
    that agents often agree exactly."""
    pool = rng.dirichlet(np.ones(m), size=3)
    return rng.integers(0, m, size=size + (n,)), pool[rng.integers(0, 3, size=size + (n,))]


class TestPaymentKernel:
    @settings(max_examples=60, deadline=None)
    @given(**kernel_cases)
    def test_matches_scalar_oracle(self, seed, n, m, rule, variant, rounds):
        rng = np.random.default_rng(seed)
        config = MechanismConfig(rng.uniform(0.1, 3.0), rng.uniform(0.0, 1.0), rule, variant)
        signals, preds = random_reports(rng, n, m, size=(rounds,))
        peers, pairs = random_matchings(rng, config, n, rounds)
        payments = _round_payments(config, signals, preds, peers, (pairs[..., 0], pairs[..., 1]))
        for t in range(rounds):
            expected = payments_oracle(config, signals[t], preds[t], peers[t], pairs[t])
            np.testing.assert_allclose(payments[t], expected, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(**kernel_cases)
    def test_batched_matchings_equal_single_rounds(self, seed, n, m, rule, variant, rounds):
        rng = np.random.default_rng(seed)
        config = MechanismConfig(rng.uniform(0.1, 3.0), rng.uniform(0.0, 1.0), rule, variant)
        signals, preds = random_reports(rng, n, m)
        reports = [Report(int(s), p) for s, p in zip(signals, preds)]
        peers, pairs = random_matchings(rng, config, n, rounds)
        batched = realized_payments(config, reports, Matching(peers, pairs))
        assert batched.shape == (rounds, n)
        for t in range(rounds):
            single = realized_payments(config, reports, Matching(peers[t], pairs[t]))
            assert np.array_equal(batched[t], single)
            expected = payments_oracle(config, signals, preds, peers[t], pairs[t])
            np.testing.assert_allclose(single, expected, rtol=0, atol=1e-12)


class DoubledLogRule(ProperScoringRule):
    """Twice the log score, defined by its weighted score alone, as every
    rule is: its point and self-scores are derived from it."""

    _log = scoring.LogRule()

    def weighted_score(self, weights, prediction):
        return 2.0 * self._log.weighted_score(weights, prediction)


@pytest.mark.parametrize("variant", ["truthful", "disagreement"])
def test_third_rule_scored_by_its_own_methods(monkeypatch, latent3, variant):
    """Doubling every score equals doubling alpha and beta under the log rule,
    in the realized and the Monte Carlo path and in the equilibrium check."""
    monkeypatch.setitem(scoring._RULES, "doubled-log", DoubledLogRule())
    doubled = MechanismConfig(1.0, 0.05, "doubled-log", variant)
    log = MechanismConfig(2.0, 0.1, "log", variant)
    rng = np.random.default_rng(6)
    profile = random_profile(rng, 3, 5)

    signals, preds = random_reports(rng, 5, 3)
    reports = [Report(int(s), p) for s, p in zip(signals, preds)]
    matching = Matching(*random_matchings(rng, doubled, 5, 3))
    np.testing.assert_allclose(
        realized_payments(doubled, reports, matching),
        realized_payments(log, reports, matching),
        rtol=0,
        atol=1e-12,
    )

    a = monte_carlo_payments(doubled, latent3, profile, trials=3000, seed=2)
    b = monte_carlo_payments(log, latent3, profile, trials=3000, seed=2)
    np.testing.assert_allclose(a.mean, b.mean, rtol=0, atol=1e-12)
    assert a.welfare_mean == pytest.approx(b.welfare_mean, abs=1e-12)

    prior = from_latent(latent3)
    a = check_equilibrium(doubled, prior, profile)
    b = check_equilibrium(log, prior, profile)
    for got, want in ((a.values, b.values), (a.payoffs, b.payoffs), (a.gaps, b.gaps)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def welfare_oracle(prior, profile):
    """Nested-loop re-derivation of the welfare decomposition."""
    n, m = profile.n, profile.m
    joint = prior.joint()
    diversity = inconsistency = total = 0.0
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            for a in range(m):
                for b in range(m):
                    w_sig = joint[a, b] / (n * (n - 1))
                    for rj in range(m):
                        for rk in range(m):
                            w = (
                                w_sig
                                * profile.thetas[j, rj, a]
                                * profile.thetas[k, rk, b]
                            )
                            if w == 0.0:
                                continue
                            d = float(
                                hellinger(
                                    profile.predictions[j, a, rj],
                                    profile.predictions[k, b, rk],
                                )
                            )
                            total += w * d
                            if rj == rk:
                                inconsistency += w * math.sqrt(d)
                            else:
                                diversity += w * d
    return diversity, inconsistency, total


class TestWelfareMetrics:
    def test_truth_telling_consistency(self, prior3):
        truth = truth_telling_profile(prior3, 5)
        wb = welfare_metrics(prior3, truth)
        assert wb.inconsistency == 0.0
        assert wb.classification_score == wb.total_divergence == wb.diversity
        # direct double sum over signal pairs
        expected = sum(
            prior3.joint()[a, b] * float(hellinger(prior3.conditional[:, a], prior3.conditional[:, b]))
            for a in range(3)
            for b in range(3)
        )
        assert wb.total_divergence == pytest.approx(expected, abs=1e-14)

    def test_permutation_parity(self, prior3):
        truth = welfare_metrics(prior3, truth_telling_profile(prior3, 4)).to_dict()
        for mapping in ((1, 0, 2), (1, 2, 0), (2, 1, 0)):
            profile = permutation_profile(prior3, 4, PermutationMap(mapping))
            wb = welfare_metrics(prior3, profile).to_dict()
            for key in truth:
                assert wb[key] == pytest.approx(truth[key], abs=1e-12)

    def test_constant_report_all_zero(self, prior3):
        wb = welfare_metrics(prior3, constant_report_profile(prior3, 4, 0))
        assert wb.to_dict() == {
            "diversity": 0.0,
            "inconsistency": 0.0,
            "total_divergence": 0.0,
            "classification_score": 0.0,
            "average_welfare": 0.0,
        }

    def test_identical_predictions_have_no_negative_divergence(self):
        # every agent predicts the same, so each Hellinger term is 0 and the
        # bilinear diversity sum cancels to rounding noise of either sign
        for m in (2, 3, 4):
            for seed in range(1, 31):
                prior = from_latent(random_snife_prior(m, 2, seed=seed))
                for n in (4, 7):
                    wb = welfare_metrics(prior, uniform_report_profile(prior, n))
                    assert wb.diversity >= 0.0
                    assert wb.total_divergence >= 0.0

    def test_matches_nested_loop_oracle(self, prior3):
        rng = np.random.default_rng(4)
        for _ in range(3):
            profile = random_profile(rng, 3, 4)
            wb = welfare_metrics(prior3, profile)
            div, inc, total = welfare_oracle(prior3, profile)
            assert wb.diversity == pytest.approx(div, abs=1e-13)
            assert wb.inconsistency == pytest.approx(inc, abs=1e-13)
            assert wb.total_divergence == pytest.approx(total, abs=1e-13)

    def test_identity_and_ordering(self, prior3):
        rng = np.random.default_rng(5)
        for _ in range(50):
            profile = random_profile(rng, 3, 4)
            wb = welfare_metrics(prior3, profile)
            assert wb.classification_score == wb.diversity - wb.inconsistency
            assert wb.total_divergence >= wb.diversity - 1e-15
            assert wb.average_welfare == wb.classification_score


def welfare_pairwise_oracle(prior, profile):
    """The former welfare_metrics: every ordered pair of (agent, signal,
    report) cells, in row blocks, O(n^2 m^5).  Returns (diversity,
    inconsistency, total divergence)."""
    n, m = profile.n, profile.m
    joint = prior.joint()
    t_flat = profile.thetas.transpose(0, 2, 1).reshape(n * m * m)
    pred_flat = profile.predictions.reshape(n * m * m, m)
    agent_ix, sig_ix, rep_ix = np.unravel_index(np.arange(n * m * m), (n, m, m))
    sq = np.sqrt(pred_flat)
    size = n * m * m
    block = max(1, min(size, 2**22 // (size * m)))
    diversity = inconsistency = total = 0.0
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        weight = (
            t_flat[lo:hi, None]
            * t_flat[None, :]
            * joint[sig_ix[lo:hi, None], sig_ix[None, :]]
            * (agent_ix[lo:hi, None] != agent_ix[None, :])
        ) / (n * (n - 1))
        diff = sq[lo:hi, None, :] - sq[None, :, :]
        dstar = np.sum(diff * diff, axis=-1)
        same_report = rep_ix[lo:hi, None] == rep_ix[None, :]
        diversity += float(np.sum(weight * dstar * ~same_report))
        inconsistency += float(np.sum(weight * np.sqrt(dstar) * same_report))
        total += float(np.sum(weight * dstar))
    return diversity, inconsistency, total


@cache
def cached_prior(m, seed):
    return from_latent(random_snife_prior(m, 2, seed=seed))


def typed_profile(rng, m, agents):
    """A profile whose agent i plays random type agents[i]; some strategy
    columns report one signal and some predictions hold zeros."""
    types = int(agents.max()) + 1
    thetas = np.stack([random_signal_strategy(rng, m) for _ in range(types)])
    point = rng.random((types, m)) < 0.4  # these columns report one signal
    thetas[point.nonzero()[0], :, point.nonzero()[1]] = np.eye(m)[rng.integers(m, size=point.sum())]
    predictions = rng.dirichlet(np.ones(m), size=(types, m, m))
    predictions[rng.random((types, m, m)) < 0.3, 0] = 0.0
    predictions /= predictions.sum(axis=-1, keepdims=True)
    return StrategyProfile(thetas[agents], predictions[agents])


@st.composite
def welfare_cases(draw):
    """(kind, prior, profile) for m in 2..5 and n in 2..12.  Random profiles
    repeat agent types and have zero entries in some strategy columns and
    some predictions; mixed profiles hold types of two or more agents next
    to single-agent types, in shuffled agent order."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(2, 12))
    prior = cached_prior(m, draw(st.integers(0, 2)))
    kinds = ["random", "mixed", "truth", "permutation", "constant", "counterexample"]
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "truth":
        return kind, prior, truth_telling_profile(prior, n)
    if kind == "permutation":
        perm = PermutationMap(tuple(int(v) for v in rng.permutation(m)))
        return kind, prior, permutation_profile(prior, n, perm)
    if kind == "constant":
        return kind, prior, constant_report_profile(prior, n, int(rng.integers(m)))
    if kind == "counterexample":
        return kind, prior, counterexample_profile(prior, m)
    if kind == "mixed":
        n = max(n, 3)
        singles = draw(st.integers(1, n - 2))
        repeated = draw(st.integers(1, (n - singles) // 2))
        extra = rng.integers(repeated, size=n - singles - 2 * repeated)
        agents = np.concatenate([np.arange(repeated).repeat(2), extra, repeated + np.arange(singles)])
        agents = rng.permutation(agents)
    else:
        agents = rng.integers(draw(st.integers(1, n)), size=n)
    return kind, prior, typed_profile(rng, m, agents)


class TestWelfareAgainstPairwiseOracle:
    # 1 and 7 put one type pair in each tile, 100 one row type against
    # several column types, 2**10 several row types per block, and 2**16 a
    # single tile at these sizes
    @settings(max_examples=150, deadline=None)
    @given(welfare_cases(), st.sampled_from((1, 7, 100, 2**10, 2**16)))
    def test_matches_pairwise_oracle(self, case, block_cells):
        kind, prior, profile = case
        with mock.patch.object(mechanism, "_BLOCK_CELLS", block_cells):
            wb = welfare_metrics(prior, profile)
        div, inc, total = welfare_pairwise_oracle(prior, profile)
        assert abs(wb.diversity - div) <= 1e-13
        assert abs(wb.inconsistency - inc) <= 1e-13
        assert abs(wb.total_divergence - total) <= 1e-13
        assert wb.classification_score == wb.diversity - wb.inconsistency
        assert wb.inconsistency >= 0.0
        if kind == "constant":
            assert wb.diversity == 0.0
            assert wb.total_divergence == 0.0
        if kind in ("truth", "permutation"):
            assert wb.inconsistency == 0.0
            assert wb.total_divergence == wb.diversity
        if kind == "counterexample":
            # no two agents ever share a report
            assert wb.inconsistency == 0.0

    @pytest.mark.parametrize("block_cells", (1, 7, 100, 2**10, 2**16))
    @pytest.mark.parametrize("m", (2, 3))
    def test_tiles_of_many_types(self, m, block_cells):
        # 30 agents: six types of three agents and twelve single-agent types.
        # The joint is asymmetric within the input tolerance, so a sum that
        # pairs each tile twice must use its symmetric part.
        base = cached_prior(m, 0)
        conditional = base.conditional.copy()
        conditional[:2, 1] += (4e-10, -4e-10)
        prior = PairwisePrior(base.space, base.marginal, conditional)
        assert prior.symmetry_residual() > 1e-11
        rng = np.random.default_rng(m)
        profile = typed_profile(rng, m, rng.permutation(np.r_[np.arange(6).repeat(3), 6 + np.arange(12)]))
        with mock.patch.object(mechanism, "_BLOCK_CELLS", block_cells):
            wb = welfare_metrics(prior, profile)
        div, inc, total = welfare_pairwise_oracle(prior, profile)
        assert abs(wb.diversity - div) <= 1e-13
        assert abs(wb.inconsistency - inc) <= 1e-13
        assert abs(wb.total_divergence - total) <= 1e-13
        assert wb.inconsistency >= 0.0

    def test_truth_independent_of_n(self, prior3):
        small = welfare_metrics(prior3, truth_telling_profile(prior3, 4)).to_dict()
        large = welfare_metrics(prior3, truth_telling_profile(prior3, 10_000)).to_dict()
        for key in small:
            assert abs(large[key] - small[key]) <= 1e-15


@st.composite
def welfare_batches(draw):
    """Scenarios sharing (n, m) under different priors: profiles with
    different numbers of agent types, or up to 7 with one number, as sweep
    rows and relabeling cycles make."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        counts = [draw(st.integers(1, n))] * draw(st.integers(2, 7))
    else:
        counts = draw(st.lists(st.integers(1, n), min_size=2, max_size=6, unique=True))
    priors, profiles = [], []
    for types in counts:
        priors.append(cached_prior(m, draw(st.integers(0, 2))))
        agents = rng.permutation(np.r_[np.arange(types), rng.integers(types, size=n - types)])
        profiles.append(typed_profile(rng, m, agents))
    if draw(st.booleans()):
        priors.append(priors[0])
        profiles.append(truth_telling_profile(priors[0], n))
    return priors, profiles


class TestWelfareBatch:
    # 2**16 scores small batches in one pass; 2**10 splits them into passes
    # and the passes' tiles into groups of scenarios; 1 scores one scenario
    # per pass, tile by tile
    @settings(max_examples=100, deadline=None)
    @given(welfare_batches(), st.sampled_from((1, 2**10, 2**16)))
    def test_each_entry_matches_its_scenario_alone(self, batch, block_cells):
        priors, profiles = batch
        with mock.patch.object(mechanism, "_BLOCK_CELLS", block_cells):
            together = welfare_batch(priors, profiles)
            alone = [welfare_metrics(prior, profile) for prior, profile in zip(priors, profiles)]
        assert len(together) == len(profiles)
        for wb, single in zip(together, alone):
            for key, value in single.to_dict().items():
                assert wb.to_dict()[key].hex() == value.hex(), key
            assert wb.classification_score == wb.diversity - wb.inconsistency

    def test_equal_scenarios_score_alike(self, prior3):
        rng = np.random.default_rng(3)
        profile = typed_profile(rng, 3, rng.integers(4, size=7))
        other = typed_profile(rng, 3, np.arange(7))
        first, _, third = welfare_batch([prior3] * 3, [profile, other, profile])
        assert first == third

    def test_batch_of_two_equals_single_call(self):
        # no padding and one tile: a scenario's bits are its single call's,
        # diversity included, whose m(m - 1) = 12 report blocks a batch of
        # two once summed in another order
        cycle = PermutationMap((1, 2, 3, 0))
        for seed in range(40):
            prior = cached_prior(4, seed)
            for profile in (truth_telling_profile(prior, 6), permutation_profile(prior, 6, cycle)):
                pair = welfare_batch([prior, prior], [profile, profile])
                assert pair[0] == pair[1] == welfare_metrics(prior, profile)

    def test_layout_does_not_move_bits(self, prior3):
        rng = np.random.default_rng(5)
        profile = typed_profile(rng, 3, rng.integers(3, size=6))
        c_order = StrategyProfile(
            np.ascontiguousarray(profile.thetas), np.ascontiguousarray(profile.predictions)
        )
        assert not profile.thetas.flags.c_contiguous
        assert welfare_metrics(prior3, profile) == welfare_metrics(prior3, c_order)

    def test_empty_batch(self):
        assert welfare_batch([], []) == []

    def test_shape_mismatch_rejected(self, prior3):
        with pytest.raises(MechanismError, match="shares n and m"):
            welfare_batch(
                [prior3, prior3],
                [truth_telling_profile(prior3, 4), truth_telling_profile(prior3, 5)],
            )
        with pytest.raises(MechanismError, match="1 priors for 2 profiles"):
            welfare_batch([prior3], [truth_telling_profile(prior3, 4)] * 2)


class TestMonteCarlo:
    def test_deterministic_per_seed(self, latent3):
        prior = from_latent(latent3)
        config = MechanismConfig(1.0, 0.03, "log", "disagreement")
        profile = truth_telling_profile(prior, 4)
        a = monte_carlo_payments(config, latent3, profile, trials=2000, seed=5)
        b = monte_carlo_payments(config, latent3, profile, trials=2000, seed=5)
        assert np.array_equal(a.mean, b.mean)
        assert a.welfare_mean == b.welfare_mean

    def test_identical_reports_zero_variance(self, latent3):
        prior = from_latent(latent3)
        config = MechanismConfig(1.0, 0.5, "quadratic")
        profile = constant_report_profile(prior, 4, target=1)
        mc = monte_carlo_payments(config, latent3, profile, trials=500, seed=1)
        assert np.allclose(mc.stderr, 0.0)
        assert np.allclose(mc.mean, 2.0 - 1.0)  # point-mass quadratic score

    def test_truthful_variant_matches_exact_payoff(self, latent3):
        from peerpred.equilibrium import expected_conditional_payoff

        prior = from_latent(latent3)
        config = MechanismConfig(1.0, 0.04, "log")
        profile = truth_telling_profile(prior, 5)
        mc = monte_carlo_payments(config, latent3, profile, trials=60_000, seed=2)
        exact = np.array(
            [
                sum(
                    prior.marginal[s] * expected_conditional_payoff(config, prior, profile, i, s)
                    for s in range(3)
                )
                for i in range(5)
            ]
        )
        assert np.all(np.abs(mc.mean - exact) <= 5.0 * mc.stderr + 1e-12)

    def test_disagreement_welfare_consistency(self, latent3):
        prior = from_latent(latent3)
        config = MechanismConfig(1.0, 1.0 / 24.0, "log", "disagreement")
        profile = truth_telling_profile(prior, 6)
        mc = monte_carlo_payments(config, latent3, profile, trials=50_000, seed=3)
        exact = welfare_metrics(prior, profile).classification_score
        assert abs(mc.welfare_mean - exact) <= 5.0 * mc.welfare_stderr

    def test_needs_positive_trials(self, latent3):
        prior = from_latent(latent3)
        with pytest.raises(MechanismError):
            monte_carlo_payments(
                MechanismConfig(), latent3, truth_telling_profile(prior, 4), trials=0
            )

    # Recorded from the block streams default_rng(SeedSequence(seed,
    # spawn_key=(b,))), 4096 trials per block b: (mean per agent, welfare
    # mean, welfare stderr) for seed 4.
    PINNED = {
        ("log", "truthful"): (
            [-1.4855304726070218, -1.3775481942552217, -1.7681326927897434,
             -1.455802597149596, -1.5431270961828518],
            -1.526028210596884,
            0.009437480150508357,
        ),
        ("log", "disagreement"): (
            [0.9512706484964314, 0.9093552928929411, -0.6456271900708808,
             -0.4675083497136846, -0.3640589389326609],
            0.07668629253442875,
            0.00466657197841385,
        ),
        ("quadratic", "truthful"): (
            [0.16676593841368675, 0.19715442531070868, 0.12017453715744839,
             0.1566770364872079, 0.10385755206981992],
            0.14892589788777416,
            0.0045070244495162125,
        ),
        ("quadratic", "disagreement"): (
            [0.08858134597650695, 0.017061731651172297, 0.08569861794870483,
             0.08467223455144184, 0.10741753254431817],
            0.07668629253442878,
            0.004666571978413852,
        ),
    }  # fmt: skip

    @pytest.mark.parametrize("rule, variant", sorted(PINNED))
    def test_pinned_values(self, latent3, rule, variant):
        profile = random_profile(np.random.default_rng(8), 3, 5)
        config = MechanismConfig(1.0, 0.05, rule, variant)
        mc = monte_carlo_payments(config, latent3, profile, trials=2500, seed=4)
        mean, welfare_mean, welfare_stderr = self.PINNED[rule, variant]
        np.testing.assert_allclose(mc.mean, mean, rtol=0, atol=1e-12)
        assert mc.welfare_mean == pytest.approx(welfare_mean, abs=1e-12)
        assert mc.welfare_stderr == pytest.approx(welfare_stderr, abs=1e-12)


def monte_carlo_oracle(config, latent, profile, trials, seed):
    """Monte Carlo from the documented block streams, one round at a time.

    Block b draws from default_rng(SeedSequence(seed, spawn_key=(b,))):
    signals, report uniforms, mate draws below the common multiple of the
    mate counts, and in the disagreement variant the draws of j and k.
    Rounds are scored by ``realized_payments``; means and variances are
    taken in two passes over all trials."""
    n, m = profile.n, profile.m
    disagreement = config.variant == "disagreement"
    pools = config.groups(n) if disagreement else (tuple(range(n)),)
    mates = [next([j for j in pool if j != i] for pool in pools if i in pool) for i in range(n)]
    common = math.lcm(*map(len, mates))
    cums = np.cumsum(profile.thetas, axis=1)
    block = mechanism._MC_BLOCK
    payments = []
    for b in range(-(-trials // block)):
        size = min(block, trials - b * block)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        signals = latent.sample_signals(n, size, rng)
        uniforms = rng.random((size, n))
        mate_draws = rng.integers(0, common, (size, n))
        if disagreement:
            j_draws = rng.integers(0, n - 1, (size, n))
            k_draws = rng.integers(0, n - 2, (size, n))
        for t in range(size):
            reports, peers, pairs = [], [], []
            for i in range(n):
                s = signals[t, i]
                r = min(int(np.sum(uniforms[t, i] >= cums[i, :, s])), m - 1)
                reports.append(Report(r, profile.predictions[i, s, r]))
                peers.append(mates[i][mate_draws[t, i] % len(mates[i])])
                if disagreement:
                    j = [x for x in range(n) if x != i][j_draws[t, i]]
                    k = [x for x in range(n) if x not in (i, j)][k_draws[t, i]]
                    pairs.append((j, k))
            matching = Matching(np.array(peers), np.array(pairs) if disagreement else None)
            payments.append(realized_payments(config, reports, matching))
    payments = np.array(payments)
    welfare = payments.mean(axis=1)
    mean = payments.mean(axis=0)
    var = ((payments - mean) ** 2).mean(axis=0)
    wvar = float(((welfare - welfare.mean()) ** 2).mean())
    return mean, np.sqrt(var / trials), float(welfare.mean()), math.sqrt(wvar / trials)


def vectorized_monte_carlo_oracle(config, latent, profile, trials, seed):
    """The block loop of ``monte_carlo_payments`` as it was before its
    per-call workspace: fresh arrays in every block, int32 take indices, the
    signal uniforms drawn whole and every mate draw taken modulo its count.
    It returns (mean, stderr, welfare mean, welfare stderr), which the
    workspace must reproduce bit for bit."""
    n, m = profile.n, profile.m
    block_size = mechanism._MC_BLOCK
    disagreement = config.variant == "disagreement"
    groups = config.groups(n) if disagreement else (tuple(range(n)),)
    draws = math.lcm(*(len(members) - 1 for members in groups))
    bound = max(draws, n * m * m, n * min(trials, block_size))
    index = np.int32 if bound <= np.iinfo(np.int32).max else np.int64
    agents = np.arange(n, dtype=index)
    pools = np.zeros((len(groups), max(map(len, groups))), dtype=index)
    pool_of, pos = np.empty(n, dtype=index), np.empty(n, dtype=index)
    for g, members in enumerate(groups):
        pools[g, : len(members)] = members
        pool_of[list(members)] = g
        pos[list(members)] = np.arange(len(members))
    sizes = np.array([len(members) - 1 for members in groups], dtype=index)[pool_of]
    pool_at = pools.shape[1] * pool_of
    cums = np.cumsum(profile.thetas, axis=1).transpose(0, 2, 1)
    reachable = profile.thetas.transpose(0, 2, 1) > 0.0
    reachable[..., -1] |= cums[..., -2] < 1.0
    thresholds = np.ascontiguousarray(cums[..., :-1].reshape(n * m, m - 1).T)
    tables = mechanism._mc_tables(config, profile, reachable, trials)
    rows_per_block = max(1, mechanism._BLOCK_CELLS // (n * m))

    def categorical(rows, u):
        index = np.zeros(u.shape, dtype=np.int32)
        for row in rows:
            index += u >= row
        return index

    def score(at, reports, peers, pairs, out):
        if tables is None:
            preds = profile.predictions.reshape(n * m, m, m)
            for lo in range(0, peers.shape[0], rows_per_block):
                x = slice(lo, lo + rows_per_block)
                out[x] = _round_payments(
                    config,
                    reports[x],
                    preds[at[x], reports[x]],
                    peers[x],
                    None if pairs is None else (pairs[0][x], pairs[1][x]),
                )
            return
        cell_of, base, reward = tables
        width = base.shape[0]
        cells = np.take(cell_of, at * m + reports)
        offsets = np.arange(peers.shape[0], dtype=index)[:, None] * n

        def cells_of(x):
            return np.take(cells, x + offsets)

        mechanism._assemble_payments(
            config,
            lambda x: np.take(base, cells * width + cells_of(x), out=out, mode="clip"),
            lambda j, k: np.take(reward, cells_of(j) * width + cells_of(k)),
            peers,
            pairs,
        )

    paid = np.empty((min(trials, block_size), n + 1))
    moments = None
    for b, lo in enumerate(range(0, trials, block_size)):
        size = min(block_size, trials - lo)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        states = categorical(np.cumsum(latent.state_probs[:-1]), rng.random(size))
        emitted = np.cumsum(latent.emissions[:, :-1], axis=1)[states].T[:, :, None]
        at = agents * m + categorical(emitted, rng.random((size, n)))
        gathered = paid.reshape(-1)[: size * n].reshape(size, n)
        rows = (np.take(row, at, out=gathered, mode="clip") for row in thresholds)
        reports = categorical(rows, rng.random((size, n)))
        d = rng.integers(0, draws, (size, n), dtype=index) % sizes
        d += d >= pos
        peers = np.take(pools, pool_at + d)
        pairs = None
        if disagreement:
            j = rng.integers(0, n - 1, (size, n), dtype=index)
            k = rng.integers(0, n - 2, (size, n), dtype=index)
            j += j >= agents
            k += k >= np.minimum(agents, j)
            k += k >= np.maximum(agents, j)
            pairs = (j, k)
        payments = paid[:size]
        score(at, reports, peers, pairs, payments[:, :n])
        np.mean(payments[:, :n], axis=1, out=payments[:, n])
        block = mechanism._moments(payments)
        moments = block if moments is None else mechanism._merge_moments(moments, block)
    _, mean, m2 = moments
    stderr = np.sqrt(m2 / trials / trials)
    return mean[:n], stderr[:n], float(mean[n]), float(stderr[n])


class TestMonteCarloWorkspace:
    @pytest.mark.parametrize("tables", [True, False])
    @pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (3, 7)])
    @pytest.mark.parametrize("rule", ["log", "quadratic"])
    @pytest.mark.parametrize(
        "variant, group",
        [
            ("truthful", None),
            ("disagreement", None),
            ("disagreement", (4, 1)),
            ("disagreement", (0, 2, 3)),  # mate counts 2 and n - 4: d % sizes is no identity
        ],
    )
    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("n", [5, 16, 33])
    def test_matches_vectorized_oracle(
        self, monkeypatch, latent3, n, variant, group, rule, blocks, tables, chunked
    ):
        """Bit for bit the block loop that allocated fresh arrays per block,
        on both scoring paths, over one block short of full, one full block
        and four blocks with a partial last one; with the default chunks of
        rows, and with a few rows per chunk."""
        m = 3
        # every profile gets tables from n m^4 trials on (C^2 <= trials n); the
        # kernel, slower, runs short blocks
        block_size = n * m**4 + 1 if tables else 64
        monkeypatch.setattr(mechanism, "_MC_BLOCK", block_size)
        if not tables:
            monkeypatch.setattr(mechanism, "_MC_TABLE_ENTRIES", 0)
        count, extra = blocks
        trials = count * block_size + extra
        if chunked:
            # the most rows per chunk, below every block's size, that leave at
            # least two rows over in each block, so that each spans several
            # chunks with a partial last one (a single row over joins the
            # chunk before)
            sizes = {min(block_size, trials - lo) for lo in range(0, trials, block_size)}
            rows = next(r for r in range(min(sizes) - 1, 1, -1) if all(s % r > 1 for s in sizes))
            monkeypatch.setattr(mechanism, "_BLOCK_CELLS", rows * n * m)
        profile = random_profile(np.random.default_rng(n), m, n)
        config = MechanismConfig(1.0, 0.05, rule, variant, group)
        reachable = profile.thetas.transpose(0, 2, 1) > 0.0
        built = mechanism._mc_tables(config, profile, reachable, trials) is not None
        assert built == tables
        mc = monte_carlo_payments(config, latent3, profile, trials=trials, seed=6)
        mean, stderr, welfare_mean, welfare_stderr = vectorized_monte_carlo_oracle(
            config, latent3, profile, trials, seed=6
        )
        assert np.array_equal(mc.mean, mean)
        assert np.array_equal(mc.stderr, stderr)
        assert mc.welfare_mean == welfare_mean
        assert mc.welfare_stderr == welfare_stderr

    @pytest.mark.parametrize("tables", [True, False])
    def test_lone_last_row_joins_chunk_before(self, monkeypatch, latent3, tables):
        """Blocks of 97 trials in chunks of 32 rows: the row left over is
        scored with the chunk before it, so both paths give the bits of the
        whole block.  Scored alone, its groups of 8 would be summed pairwise
        rather than one column at a time, and the kernel would differ from
        the tables in the last bits."""
        n, m, trials = 16, 3, 14 * 97  # the tables need C^2 = 144^2 <= n trials
        monkeypatch.setattr(mechanism, "_MC_BLOCK", 97)
        monkeypatch.setattr(mechanism, "_BLOCK_CELLS", 32 * n * m)
        profile = random_profile(np.random.default_rng(n), m, n)
        config = MechanismConfig(1.0, 0.05, "log", "disagreement")
        reachable = profile.thetas.transpose(0, 2, 1) > 0.0
        assert mechanism._mc_tables(config, profile, reachable, trials) is not None
        # the oracle looks every payment up in one whole-block pass
        expected = vectorized_monte_carlo_oracle(config, latent3, profile, trials, seed=2)
        if not tables:
            monkeypatch.setattr(mechanism, "_MC_TABLE_ENTRIES", 0)
        mc = monte_carlo_payments(config, latent3, profile, trials=trials, seed=2)
        assert np.array_equal(mc.mean, expected[0])
        assert np.array_equal(mc.stderr, expected[1])
        assert (mc.welfare_mean, mc.welfare_stderr) == expected[2:]

    @pytest.mark.parametrize(
        "dtype, high", [(np.int32, 15), (np.int64, 15), (np.int64, 2**31 + 12345)]
    )
    def test_chunked_integer_draws_equal_whole_draw(self, dtype, high):
        """Rows drawn a block of at most _DRAW_BYTES at a time take the
        values of one whole draw and leave the stream where it leaves it."""
        shape = (50_000, 3)  # 10 blocks at int32, 19 at int64
        out = np.empty(shape, dtype=dtype)
        chunked = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0,)))
        whole = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0,)))
        assert mechanism._fill_integers(chunked, high, out) is out
        expected = whole.integers(0, high, shape, dtype=dtype)
        assert out.nbytes > 8 * mechanism._DRAW_BYTES
        assert np.array_equal(out, expected)
        assert chunked.random() == whole.random()

    # bytes per _BLOCK_CELLS cell that a chunk's arrays may take beyond the
    # workspace and the tables: traced, about 14 on the tables path and 54 on
    # the kernel path (numpy 2.4.6, Python 3.11.7)
    CHUNK_BYTES = {True: 24, False: 80}

    @pytest.mark.parametrize("tables, n", [(True, 32), (False, 128)])
    def test_peak_memory_within_workspace_bound(self, monkeypatch, latent3, tables, n):
        """The traced peak of one call is at most the documented workspace, the
        (B, n + 1) payments and four int32 (B, n) draws, plus the tables and
        CHUNK_BYTES per _BLOCK_CELLS cell.  When every block kept its uniforms,
        a mask and intp indices whole as well, the peak was 8.0 MB at n = 32
        (tables) and 27.1 MB at n = 128 (kernel), against bounds of 6.1 MB and
        17.9 MB."""
        profile = random_profile(np.random.default_rng(8), 3, n)
        config = MechanismConfig(1.0, 0.05, "log", "disagreement")
        trials = 60_000 if tables else 2 * mechanism._MC_BLOCK
        if not tables:
            monkeypatch.setattr(mechanism, "_MC_TABLE_ENTRIES", 0)
        reachable = profile.thetas.transpose(0, 2, 1) > 0.0
        built = mechanism._mc_tables(config, profile, reachable, trials)
        assert (built is not None) == tables
        table_bytes = sum(table.nbytes for table in built) if tables else 0
        block = mechanism._MC_BLOCK
        workspace = 8 * block * (n + 1) + 4 * 4 * block * n
        bound = workspace + table_bytes + self.CHUNK_BYTES[tables] * mechanism._BLOCK_CELLS
        tracemalloc.start()
        try:
            monte_carlo_payments(config, latent3, profile, trials=trials, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestMonteCarloStreams:
    BLOCK = 64

    @pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("rule", ["log", "quadratic"])
    @pytest.mark.parametrize(
        "variant, group", [("truthful", None), ("disagreement", None), ("disagreement", (4, 1))]
    )
    def test_matches_block_stream_oracle(self, monkeypatch, latent3, trials, rule, variant, group):
        monkeypatch.setattr(mechanism, "_MC_BLOCK", self.BLOCK)
        profile = random_profile(np.random.default_rng(8), 3, 5)
        config = MechanismConfig(1.0, 0.05, rule, variant, group)
        mc = monte_carlo_payments(config, latent3, profile, trials=trials, seed=4)
        mean, stderr, welfare_mean, welfare_stderr = monte_carlo_oracle(
            config, latent3, profile, trials, seed=4
        )
        np.testing.assert_allclose(mc.mean, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mc.stderr, stderr, rtol=0, atol=1e-12)
        assert mc.welfare_mean == pytest.approx(welfare_mean, abs=1e-12)
        assert mc.welfare_stderr == pytest.approx(welfare_stderr, abs=1e-12)

    def test_blocks_are_independent(self, monkeypatch, latent3):
        """Over 200 seeds of 4 blocks each, the welfare z against the exact
        classification score has mean near 0 and variance near 1, whatever
        the generator.  Blocks that shared one stream would repeat one
        block's draws: the estimates would stay unbiased, but the stderr,
        taken over all trials, would shrink by sqrt(4) and the variance of
        z would be about 4."""
        monkeypatch.setattr(mechanism, "_MC_BLOCK", 50)
        prior = from_latent(latent3)
        config = MechanismConfig(1.0, 0.05, "log", "disagreement")
        profile = truth_telling_profile(prior, 4)
        exact = welfare_metrics(prior, profile).classification_score
        z = []
        for seed in range(200):
            mc = monte_carlo_payments(config, latent3, profile, trials=200, seed=seed)
            z.append((mc.welfare_mean - exact) / mc.welfare_stderr)
        assert abs(np.mean(z)) <= 0.25
        assert 0.6 <= np.var(z) <= 1.6

    @staticmethod
    def table_case(case, latent3, rule):
        """(profile, beta, _BLOCK_CELLS) of a tables-path case, m = 3."""
        rng = np.random.default_rng(3)
        if case == "solved32":
            # every cell reachable, C = 288; rows of 10 cells split each
            # report's 96 cells into ten row blocks
            config = MechanismConfig(1.0, 0.05, rule)
            thetas = random_signal_strategies(rng, 3, (32,))
            return solved_profile(config, from_latent(latent3), thetas), 0.05, 10 * 288 * 3
        profile = random_profile(rng, 3, 7)
        if case == "constant":  # every cell reports signal 1: one report's cells
            thetas = np.zeros_like(profile.thetas)
            thetas[:, 1] = 1.0
            profile = StrategyProfile(thetas, profile.predictions)
        if case == "unheld":
            # no cell reports signal 2, and every prediction gives it zero
            # mass: the log rule is never asked to score a report of 2
            thetas = profile.thetas.copy()
            thetas[:, 1] += thetas[:, 2]
            thetas[:, 2] = 0.0
            predictions = profile.predictions.copy()
            predictions[..., 2] = 0.0
            predictions /= predictions.sum(axis=-1, keepdims=True)
            profile = StrategyProfile(thetas, predictions)
        return profile, 0.0 if case == "beta=0" else 0.05, 64

    def test_no_two_seeds_share_a_block_stream(self, monkeypatch, latent3):
        """Block 1 of seed 0 and block 0 of seed 2**32 draw different
        payments.  Keyed by the entropy [seed, b], they shared one stream:
        SeedSequence splits a seed of 2**32 or more into two 32-bit words
        and pads short entropy with zeros, so both keys read [0, 1]."""
        monkeypatch.setattr(mechanism, "_MC_BLOCK", 50)
        blocks = []  # each block's payments, as the moments receive them
        block_moments = mechanism._moments

        def moments(x):
            blocks.append(x.copy())
            return block_moments(x)

        monkeypatch.setattr(mechanism, "_moments", moments)
        profile = random_profile(np.random.default_rng(8), 3, 5)
        config = MechanismConfig(1.0, 0.05, "log", "disagreement")
        monte_carlo_payments(config, latent3, profile, trials=100, seed=0)
        monte_carlo_payments(config, latent3, profile, trials=50, seed=2**32)
        assert len(blocks) == 3
        assert not np.array_equal(blocks[1], blocks[2])

    @pytest.mark.parametrize("rule", ["log", "quadratic"])
    @pytest.mark.parametrize("variant", ["truthful", "disagreement"])
    @pytest.mark.parametrize("case", ["random", "beta=0", "constant", "unheld", "solved32"])
    def test_tables_equal_kernel(self, monkeypatch, latent3, case, rule, variant):
        """Every table entry has the bits of the payment kernel on its pair
        of cells, scored as one broadcast call over all pairs, and the
        sampled payments are those of the kernel path."""
        profile, beta, block_cells = self.table_case(case, latent3, rule)
        monkeypatch.setattr(mechanism, "_BLOCK_CELLS", block_cells)
        config = MechanismConfig(1.0, beta, rule, variant)
        reachable = profile.thetas.transpose(0, 2, 1) > 0.0
        built = mechanism._mc_tables(config, profile, reachable, 5000)
        assert built is not None
        cell_of, base, reward = built
        agent, sig, rep = np.nonzero(reachable)
        order = np.argsort(cell_of[agent, sig, rep])
        rep = rep[order]
        preds = profile.predictions[agent[order], sig[order], rep]
        if case == "solved32":
            assert rep.size == 288 and block_cells // (288 * 3) < np.bincount(rep).min()
        pairs = np.broadcast_to(rep[:, None], base.shape), np.broadcast_to(rep, base.shape)
        pred_pairs = (
            np.broadcast_to(preds[:, None], base.shape + (3,)),
            np.broadcast_to(preds, base.shape + (3,)),
        )
        expected = _base_payments(config, pairs[0], pred_pairs[0], pairs[1], pred_pairs[1])
        assert base.tobytes() == expected.tobytes()
        if variant == "disagreement":
            expected = _classification_reward(pairs[0], pred_pairs[0], pairs[1], pred_pairs[1])
            assert reward.tobytes() == expected.tobytes()
        tables = monte_carlo_payments(config, latent3, profile, trials=5000, seed=9)
        monkeypatch.setattr(mechanism, "_MC_TABLE_ENTRIES", 0)
        kernel = monte_carlo_payments(config, latent3, profile, trials=5000, seed=9)
        assert np.array_equal(tables.mean, kernel.mean)
        assert np.array_equal(tables.stderr, kernel.stderr)
        assert tables.welfare_mean == kernel.welfare_mean
        assert tables.welfare_stderr == kernel.welfare_stderr

    def test_domain_error_only_on_sampled_pairs(self, latent3):
        """Agents 0 and 1 always report signal 0 and predict zero mass on
        signal 2, which agents 2 and 3 report.  Their in-group matches are
        defined; a match across the groups is not."""
        thetas = np.stack([np.eye(3)] * 4)
        thetas[:2] = [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        predictions = np.full((4, 3, 3, 3), 1.0 / 3.0)
        predictions[:2] = [0.5, 0.5, 0.0]
        profile = StrategyProfile(thetas, predictions)
        config = MechanismConfig(1.0, 0.05, "log", "disagreement")
        mc = monte_carlo_payments(config, latent3, profile, trials=3000, seed=1)
        assert np.all(np.isfinite(mc.mean))
        with pytest.raises(scoring.ScoreDomainError):
            monte_carlo_payments(
                MechanismConfig(1.0, 0.05, "log"), latent3, profile, trials=3000, seed=1
            )

    def test_int64_indices_past_int32_range(self):
        """Mate counts 46343 and 46345 have a common multiple past 2**31 - 1,
        so the mate draws, and with them every index, are int64.  One trial of
        truth-tellers is scored by ``realized_payments`` on the matching drawn
        from the documented stream of block 0."""
        n, size_a, seed = 92690, 46344, 1
        latent = random_snife_prior(2, 2, seed=3)
        profile = truth_telling_profile(from_latent(latent), n)
        config = MechanismConfig(1.0, 0.05, "log", "disagreement", tuple(range(size_a)))
        mc = monte_carlo_payments(config, latent, profile, trials=1, seed=seed)

        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        signals = latent.sample_signals(n, 1, rng)[0]
        rng.random(n)  # report uniforms: truth-tellers report their signal
        mates = np.where(np.arange(n) < size_a, size_a - 1, n - size_a - 1)
        draw = rng.integers(0, (size_a - 1) * (n - size_a - 1), n) % mates
        start = np.where(np.arange(n) < size_a, 0, size_a)
        peers = start + draw + (start + draw >= np.arange(n))
        agents = np.arange(n)
        j = rng.integers(0, n - 1, n)
        k = rng.integers(0, n - 2, n)
        j += j >= agents
        k += k >= np.minimum(agents, j)
        k += k >= np.maximum(agents, j)
        reports = [Report(int(s), profile.predictions[i, s, s]) for i, s in enumerate(signals)]
        expected = realized_payments(config, reports, Matching(peers, np.stack([j, k], axis=-1)))
        np.testing.assert_allclose(mc.mean, expected, rtol=0, atol=1e-12)
        assert np.all(mc.stderr == 0.0)

    def test_signal_count_mismatch_rejected(self, latent3):
        profile = truth_telling_profile(from_latent(random_snife_prior(2, 2, seed=1)), 4)
        with pytest.raises(ProfileError, match="signals"):
            monte_carlo_payments(MechanismConfig(), latent3, profile, trials=10)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_out_of_range_rejected(self, latent3, seed):
        profile = truth_telling_profile(from_latent(latent3), 4)
        with pytest.raises(MechanismError, match="seed"):
            monte_carlo_payments(MechanismConfig(), latent3, profile, trials=10, seed=seed)

    def test_largest_seed_accepted(self, latent3):
        profile = truth_telling_profile(from_latent(latent3), 4)
        mc = monte_carlo_payments(MechanismConfig(), latent3, profile, trials=10, seed=2**64 - 1)
        assert mc.mean.shape == (4,) and np.isfinite(mc.welfare_mean)
