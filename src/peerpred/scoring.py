"""Strictly proper scoring rules.

A rule scores a prediction against a realized signal; in expectation over a
signal distribution ``delta`` the score is uniquely maximized by predicting
``delta`` itself.  Both rules here extend linearly in the first argument:
``PS(sum_u w_u delta_u, p) = sum_u w_u PS(delta_u, p)``, which is what makes
weighted-mixture best responses closed-form.  A rule therefore codes its
formula once, as :meth:`ProperScoringRule.weighted_score`; the point score
(the weights of a realized signal are its one-hot), the expected score and
the self-score ``PS(p, p)`` are that one formula at particular weights.

Shipped rules: ``log`` (ln of the probability assigned to the realized
signal; rejects zero-probability predictions) and ``quadratic``
(``2 p(s) - sum p^2``; bounded and tolerant of zeros).  Scores are reported
raw, with no affine normalization.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ProperScoringRule",
    "LogRule",
    "QuadraticRule",
    "get_rule",
    "RULE_IDS",
    "ScoreDomainError",
]


class ScoreDomainError(ValueError):
    """Raised for predictions outside a rule's domain."""


class ProperScoringRule:
    """Interface: a rule defines ``weighted_score(w, p)``, sum_s w[s] PS(s, p)
    for weights w over the signals that need not normalize, and nothing else.

    ``point_score(s, p)`` is its score at the one-hot of the realized signal
    index s, ``expected_score(delta, p)`` at a distribution delta, and
    ``self_score(p)`` at w = p.  All of them broadcast over leading axes, so
    the payment rule scores many agents and rounds at once through these
    methods alone.
    """

    def weighted_score(self, weights: np.ndarray, prediction: np.ndarray) -> np.ndarray:
        """sum_s weights[..., s] * PS(s, prediction[..., :]), broadcast over
        leading axes.  Zero-weight signals never probe the prediction."""
        raise NotImplementedError

    def point_score(self, s, prediction: np.ndarray) -> np.ndarray:
        """Score of prediction[..., :] against the realized signal index s[...]."""
        prediction = np.asarray(prediction, dtype=float)
        one_hot = np.arange(prediction.shape[-1]) == np.asarray(s)[..., None]
        return self.weighted_score(one_hot, prediction)[()]

    def expected_score(self, delta: np.ndarray, prediction: np.ndarray) -> float:
        """E_{s ~ delta} PS(s, prediction)."""
        return float(self.weighted_score(delta, prediction))

    def self_score(self, prediction: np.ndarray) -> np.ndarray:
        """expected_score(p, p) over the last axis, broadcast over leading axes."""
        return self.weighted_score(prediction, prediction)

    def __repr__(self):
        return f"{type(self).__name__}()"


class LogRule(ProperScoringRule):
    def weighted_score(self, weights, prediction) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        prediction = np.asarray(prediction, dtype=float)
        weighted = weights > 0.0
        bad = weighted & (prediction <= 0.0)
        if bad.any():
            s = int(np.argwhere(bad)[0][-1])
            raise ScoreDomainError(
                f"log score undefined: prediction assigns 0 to signal index {s} with positive weight"
            )
        logs = np.log(np.where(prediction > 0.0, prediction, 1.0))
        return np.where(weighted, weights * logs, 0.0).sum(axis=-1)


class QuadraticRule(ProperScoringRule):
    def weighted_score(self, weights, prediction) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        prediction = np.asarray(prediction, dtype=float)
        total = np.sum(weights, axis=-1)
        return 2.0 * np.sum(weights * prediction, axis=-1) - total * np.sum(
            prediction * prediction, axis=-1
        )


_RULES = {"log": LogRule(), "quadratic": QuadraticRule()}
RULE_IDS = tuple(sorted(_RULES))


def get_rule(rule_id: str) -> ProperScoringRule:
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ScoreDomainError(f"unknown scoring rule {rule_id!r}; available: {RULE_IDS}") from None
