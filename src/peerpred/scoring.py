"""Strictly proper scoring rules.

A rule scores a prediction against a realized signal; in expectation over a
signal distribution ``delta`` the score is uniquely maximized by predicting
``delta`` itself.  Both rules here extend linearly in the first argument:
``PS(sum_u w_u delta_u, p) = sum_u w_u PS(delta_u, p)``, which is what makes
weighted-mixture best responses closed-form.

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
    """Interface: point_score(s, p) for a realized signal index, and
    expected_score(delta, p) = E_{s ~ delta} point_score(s, p).

    ``point_score``, ``weighted_score`` and ``self_score`` broadcast over
    leading axes, so the payment rule scores many agents and rounds at once
    through these methods alone.
    """

    id: str

    def point_score(self, s, prediction: np.ndarray) -> np.ndarray:
        """Score of prediction[..., :] against the realized signal index s[...]."""
        raise NotImplementedError

    def expected_score(self, delta: np.ndarray, prediction: np.ndarray) -> float:
        return float(self.weighted_score(delta, prediction))

    def weighted_score(self, weights: np.ndarray, prediction: np.ndarray) -> np.ndarray:
        """sum_s weights[..., s] * point_score(s, prediction[..., :]).

        Like expected_score but the weights need not normalize; broadcasts
        over leading axes.  Zero-weight signals never probe the prediction.
        """
        raise NotImplementedError

    def self_score(self, prediction: np.ndarray) -> np.ndarray:
        """expected_score(p, p) over the last axis, broadcast over leading axes."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


def _at(prediction: np.ndarray, s) -> np.ndarray:
    """prediction[..., s[...]], with s broadcast over the leading axes of prediction."""
    s = np.broadcast_to(s, prediction.shape[:-1])
    return np.take_along_axis(prediction, s[..., None], axis=-1)[..., 0]


class LogRule(ProperScoringRule):
    id = "log"

    def point_score(self, s, prediction) -> np.ndarray:
        value = _at(np.asarray(prediction, dtype=float), s)
        bad = value <= 0.0
        if bad.any():
            raise ScoreDomainError(
                f"log score undefined: prediction assigns {value[bad].flat[0]} "
                f"to signal index {np.broadcast_to(s, bad.shape)[bad].flat[0]}"
            )
        return np.log(value)[()]

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

    def self_score(self, prediction) -> np.ndarray:
        prediction = np.asarray(prediction, dtype=float)
        logs = np.log(np.where(prediction > 0.0, prediction, 1.0))
        return np.sum(prediction * logs, axis=-1)


class QuadraticRule(ProperScoringRule):
    id = "quadratic"

    def point_score(self, s, prediction) -> np.ndarray:
        prediction = np.asarray(prediction, dtype=float)
        return (2.0 * _at(prediction, s) - np.sum(prediction * prediction, axis=-1))[()]

    def weighted_score(self, weights, prediction) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        prediction = np.asarray(prediction, dtype=float)
        total = np.sum(weights, axis=-1)
        return 2.0 * np.sum(weights * prediction, axis=-1) - total * np.sum(
            prediction * prediction, axis=-1
        )

    def self_score(self, prediction) -> np.ndarray:
        prediction = np.asarray(prediction, dtype=float)
        return np.sum(prediction * prediction, axis=-1)


_RULES = {"log": LogRule(), "quadratic": QuadraticRule()}
RULE_IDS = tuple(sorted(_RULES))


def get_rule(rule_id: str) -> ProperScoringRule:
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ScoreDomainError(f"unknown scoring rule {rule_id!r}; available: {RULE_IDS}") from None
