import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simplex
from peerpred.scoring import RULE_IDS, ScoreDomainError, get_rule


class TestPointScores:
    def test_log_uniform(self):
        rule = get_rule("log")
        assert rule.point_score(0, np.array([0.5, 0.5])) == pytest.approx(np.log(0.5))

    def test_log_reference_value(self):
        assert get_rule("log").point_score(1, np.array([0.25, 0.75])) == pytest.approx(
            -0.287682, abs=1e-6
        )

    def test_quadratic_maximum(self):
        assert get_rule("quadratic").point_score(0, np.array([1.0, 0.0])) == 1.0

    def test_log_zero_probability_names_signal(self):
        with pytest.raises(ScoreDomainError, match="index 1"):
            get_rule("log").point_score(1, np.array([1.0, 0.0]))

    def test_unknown_rule(self):
        with pytest.raises(ScoreDomainError):
            get_rule("spherical")
        assert RULE_IDS == ("log", "quadratic")


class TestExpectedScores:
    def test_log_self_score_is_negative_entropy(self):
        rule = get_rule("log")
        delta = np.array([0.2, 0.8])
        entropy = -np.sum(delta * np.log(delta))
        assert rule.expected_score(delta, delta) == pytest.approx(-entropy)

    def test_log_reference_value(self):
        value = get_rule("log").expected_score(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert value == pytest.approx(-0.836988, abs=1e-6)

    def test_zero_weight_skips_prediction_zero(self):
        value = get_rule("log").expected_score(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert value == 0.0

    def test_positive_weight_on_zero_errors(self):
        with pytest.raises(ScoreDomainError):
            get_rule("log").expected_score(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_matches_point_score_mixture(self, rule_id):
        rule = get_rule(rule_id)
        delta = np.array([0.3, 0.2, 0.5])
        pred = np.array([0.25, 0.3, 0.45])
        direct = sum(delta[s] * rule.point_score(s, pred) for s in range(3))
        assert rule.expected_score(delta, pred) == pytest.approx(direct, abs=1e-14)


class TestPropriety:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_strict_propriety_random(self, rule_id):
        rule = get_rule(rule_id)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            delta = rng.dirichlet(np.ones(3))
            other = rng.dirichlet(np.ones(3))
            truth_score = rule.expected_score(delta, delta)
            if np.max(np.abs(other - delta)) < 1e-9:
                continue
            assert truth_score > rule.expected_score(delta, other)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_gap_vanishes_approaching_truth(self, rule_id):
        rule = get_rule(rule_id)
        delta = np.array([0.3, 0.7])
        gaps = []
        for t in (0.1, 0.01, 0.001):
            near = delta + np.array([t, -t])
            gaps.append(rule.expected_score(delta, delta) - rule.expected_score(delta, near))
        assert gaps[0] > gaps[1] > gaps[2] > 0

    @settings(max_examples=200, deadline=None)
    @given(simplex(3), simplex(3), simplex(3))
    def test_first_argument_linearity(self, d1, d2, pred):
        for rule_id in RULE_IDS:
            rule = get_rule(rule_id)
            lam = 0.3
            mix = lam * d1 + (1 - lam) * d2
            combined = lam * rule.expected_score(d1, pred) + (1 - lam) * rule.expected_score(
                d2, pred
            )
            assert rule.expected_score(mix, pred) == pytest.approx(combined, abs=1e-14)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_grid_argmax_at_truth(self, rule_id):
        rule = get_rule(rule_id)
        delta = np.array([0.3, 0.7])
        grid = np.stack([np.linspace(0.005, 0.995, 199), 1 - np.linspace(0.005, 0.995, 199)], axis=1)
        values = [rule.expected_score(delta, g) for g in grid]
        best = grid[int(np.argmax(values))]
        assert np.max(np.abs(best - delta)) <= 0.005 + 1e-12

    def test_weighted_mixture_maximizer(self):
        # sum_u w_u PS(delta_u, p) is maximized at the normalized weighted mixture
        rng = np.random.default_rng(1)
        for rule_id in RULE_IDS:
            rule = get_rule(rule_id)
            deltas = rng.dirichlet(np.ones(3), size=4)
            w = rng.random(4)
            target = (w[:, None] * deltas).sum(axis=0) / w.sum()

            def objective(pred):
                return sum(w[u] * rule.expected_score(deltas[u], pred) for u in range(4))

            base = objective(target)
            for _ in range(200):
                other = rng.dirichlet(np.ones(3))
                assert objective(other) <= base + 1e-12


class TestVectorizedHelpers:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_weighted_score_matches_expected(self, rule_id):
        rule = get_rule(rule_id)
        rng = np.random.default_rng(2)
        weights = rng.random(4)[:, None] * rng.dirichlet(np.ones(3), size=4)
        preds = rng.dirichlet(np.ones(3), size=4)
        out = rule.weighted_score(weights, preds)
        for k in range(4):
            total = weights[k].sum()
            direct = total * rule.expected_score(weights[k] / total, preds[k])
            assert out[k] == pytest.approx(direct, abs=1e-13)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_self_score(self, rule_id):
        rule = get_rule(rule_id)
        preds = np.array([[0.2, 0.8], [1.0, 0.0]])
        out = rule.self_score(preds)
        assert out[0] == pytest.approx(rule.expected_score(preds[0], preds[0]))
        assert out[1] == 0.0 if rule_id == "log" else out[1] == 1.0

    def test_log_weighted_score_domain_error(self):
        with pytest.raises(ScoreDomainError):
            get_rule("log").weighted_score(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


@st.composite
def predictions_and_signals(draw):
    """A stack of predictions over m signals, some entries exactly zero, and
    a realized signal index per prediction."""
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, 4))
    preds = np.stack([draw(simplex(m)) for _ in range(k)])
    zeros = np.array(draw(st.lists(st.booleans(), min_size=k * m, max_size=k * m)))
    preds[zeros.reshape(k, m)] = 0.0
    signals = np.array(draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k)))
    return preds, signals


class TestDerivedScores:
    """A rule defines weighted_score alone; the point score and the
    self-score derived from it equal the rules' direct forms bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(predictions_and_signals())
    def test_point_score(self, case):
        preds, signals = case
        at = preds[np.arange(len(signals)), signals]
        quadratic = 2.0 * at - np.sum(preds * preds, axis=-1)
        assert np.array_equal(get_rule("quadratic").point_score(signals, preds), quadratic)
        for p, s, value in zip(preds, signals.tolist(), at):
            assert get_rule("quadratic").point_score(s, p) == 2.0 * value - np.sum(p * p)
            if value > 0.0:
                assert get_rule("log").point_score(s, p) == np.log(value)
            else:
                with pytest.raises(ScoreDomainError, match=f"index {s}"):
                    get_rule("log").point_score(s, p)

    @settings(max_examples=200, deadline=None)
    @given(predictions_and_signals())
    def test_log_self_score(self, case):
        preds, _ = case
        direct = np.sum(preds * np.log(np.where(preds > 0.0, preds, 1.0)), axis=-1)
        assert np.array_equal(get_rule("log").self_score(preds), direct)
