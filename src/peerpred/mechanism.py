"""Payment rules and welfare accounting.

Two variants share one report format (a signal plus a prediction):

* ``truthful`` -- each agent is matched with one random peer and paid
  ``alpha * score_P + beta * score_I``, where score_P is a proper score of the
  prediction against the peer's reported signal and score_I penalizes, only on
  matching reported signals, the score shortfall of one's prediction against
  the peer's own prediction (always <= 0, and 0 exactly at agreement).

* ``disagreement`` -- the agents are split into two groups; within each group
  the truthful payments are computed against an in-group peer and the other
  group's average payment is subtracted, so base payments sum to zero across
  agents in every realized round.  On top, every agent observes two random
  other agents j, k and collects a classification reward: the Hellinger
  divergence of their predictions when their reported signals differ, minus
  the Hellinger distance when they coincide.

The zero-sum-plus-classification construction is generic: it upgrades any
decomposable pairwise payment, not just the truthful one, which is what
:func:`zero_sum_group_scores` together with :func:`classification_pair_score`
expresses.

The payment rule itself is written once, in :func:`_round_payments`, over
arrays of T rounds of n agents.  :func:`realized_payments` feeds it
:class:`Report` objects with one or T matchings, :func:`monte_carlo_payments`
feeds it sampled rounds in row blocks, and :func:`pair_scores`,
:func:`pairwise_payment` and :func:`classification_pair_score` apply the same
formulas to single reports.  Scores are reached only through
:class:`~peerpred.scoring.ProperScoringRule` methods.

Average per-agent welfare of the disagreement variant equals the
classification score Diversity - Inconsistency; :func:`welfare_metrics`
computes the exact finite sums over agent pairs, private-signal pairs, and
report pairs.  It groups byte-identical agents into T types and sums over
type pairs, in O(T^2 m^4) rather than O(n^2 m^5): diversity through the
bilinear form D*(p, q) = sum p + sum q - 2 <sqrt p, sqrt q> summed over the
report pairs r != r' only, and inconsistency together with the same-report
divergence through one elementwise pass over the cells that share a report.
Total divergence is diversity plus the same-report divergence, so it equals
diversity bit for bit whenever no two cells sharing a report differ, as for
truth-telling and permutation profiles.  T = 1 for symmetric profiles, whose
welfare therefore costs the same at any n; heterogeneous profiles (T = n)
remain quadratic in n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergence import hellinger
from .priors import LatentStatePrior, PairwisePrior, sample_categorical
from .scoring import ProperScoringRule, get_rule
from .strategy import StrategyProfile

__all__ = [
    "MechanismConfig",
    "Report",
    "Matching",
    "WelfareBreakdown",
    "MonteCarloPayments",
    "MechanismError",
    "pair_scores",
    "pairwise_payment",
    "classification_pair_score",
    "zero_sum_group_scores",
    "realized_payments",
    "welfare_metrics",
    "monte_carlo_payments",
]


class MechanismError(ValueError):
    """Raised for invalid mechanism configuration or matchings."""


@dataclass(frozen=True)
class MechanismConfig:
    """Parameters of the payment rule.

    ``group_a`` fixes the first group for the disagreement variant; when
    omitted the first half of the agents (by index) is used.  The welfare
    ordering guarantees need beta/alpha < 1/(4m); :meth:`regime_ok` checks it
    and welfare audits warn when it fails.  Truthfulness itself holds for any
    positive alpha, beta.
    """

    alpha: float = 1.0
    beta: float = 0.05
    rule: str = "log"
    variant: str = "truthful"
    group_a: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.alpha <= 0 or self.beta < 0:
            raise MechanismError(f"need alpha > 0 and beta >= 0, got {self.alpha}, {self.beta}")
        if self.variant not in ("truthful", "disagreement"):
            raise MechanismError(f"unknown variant {self.variant!r}")
        get_rule(self.rule)
        if self.group_a is not None:
            group_a = tuple(int(i) for i in self.group_a)
            if len(set(group_a)) != len(group_a):
                raise MechanismError(f"group_a lists an agent more than once: {group_a}")
            object.__setattr__(self, "group_a", group_a)

    def scoring_rule(self) -> ProperScoringRule:
        return get_rule(self.rule)

    def regime_ok(self, m: int) -> bool:
        return self.beta / self.alpha < 1.0 / (4.0 * m)

    def warn_if_outside_regime(self, m: int):
        if not self.regime_ok(m):
            warnings.warn(
                f"beta/alpha = {self.beta / self.alpha:.4g} >= 1/(4m) = {1.0 / (4 * m):.4g}; "
                "the welfare-ordering guarantees need the agreement penalty kept small "
                "relative to the prediction score and may fail in this regime",
                stacklevel=2,
            )

    def groups(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self.group_a is None:
            a = tuple(range(n // 2))
        else:
            a = self.group_a
            if any(i < 0 or i >= n for i in a):
                raise MechanismError(f"group indices out of range for n={n}: {a}")
        b = tuple(i for i in range(n) if i not in set(a))
        if len(a) < 2 or len(b) < 2:
            raise MechanismError(
                f"the zero-sum split needs two agents per group (every agent needs an "
                f"in-group peer), got sizes {len(a)} and {len(b)}"
            )
        return a, b

    def to_dict(self) -> dict:
        out = {"alpha": self.alpha, "beta": self.beta, "rule": self.rule, "variant": self.variant}
        if self.group_a is not None:
            out["groupA"] = list(self.group_a)
        return out


@dataclass(frozen=True)
class Report:
    """A reported signal index together with a reported prediction."""

    signal: int
    prediction: np.ndarray

    def __post_init__(self):
        prediction = np.asarray(self.prediction, dtype=float)
        object.__setattr__(self, "prediction", prediction)
        if prediction.ndim != 1 or abs(prediction.sum() - 1.0) > 1e-9 or np.any(prediction < 0):
            raise MechanismError("a report's prediction must be a probability vector")
        if not 0 <= self.signal < prediction.size:
            raise MechanismError(f"signal index {self.signal} out of range")


@dataclass(frozen=True)
class Matching:
    """Realized matchings: ``peers[i]`` is the agent whose report scores agent
    i's base payment; ``pairs[i]`` is the ordered pair (j, k) whose reports set
    agent i's classification reward (disagreement variant only).  A leading
    axis, peers (T, n) and pairs (T, n, 2), holds T matchings of one set of
    reports."""

    peers: np.ndarray
    pairs: np.ndarray | None = None

    def __post_init__(self):
        peers = np.asarray(self.peers, dtype=int)
        object.__setattr__(self, "peers", peers)
        if self.pairs is not None:
            object.__setattr__(self, "pairs", np.asarray(self.pairs, dtype=int))


def _pair_terms(rule: ProperScoringRule, sig_i, pred_i, sig_j, pred_j):
    """(score_P, score_I) of agents i matched with peers j, over leading axes.

    score_P = PS(sigma_hat_j, p_hat_i).  score_I is 0 on differing reported
    signals; otherwise -(PS(p_j, p_j) - PS(p_j, p_i)), which is <= 0 with
    equality iff the predictions coincide.  Pairs with differing signals never
    reach the rule, so the log rule does not probe their predictions.
    """
    score_p = rule.point_score(sig_j, pred_i)
    same = np.asarray(sig_i == sig_j)
    score_i = np.zeros(same.shape)
    score_i[same] = rule.weighted_score(pred_j[same], pred_i[same]) - rule.weighted_score(
        pred_j[same], pred_j[same]
    )
    return score_p, score_i


def _base_payments(config: MechanismConfig, sig_i, pred_i, sig_j, pred_j):
    score_p, score_i = _pair_terms(config.scoring_rule(), sig_i, pred_i, sig_j, pred_j)
    return config.alpha * score_p + config.beta * score_i


def _classification_reward(sig_j, pred_j, sig_k, pred_k):
    """Hellinger divergence of the predictions on differing reported signals;
    minus the Hellinger distance on matching ones.  Broadcasts."""
    d = hellinger(pred_j, pred_k)
    return np.where(sig_j == sig_k, -np.sqrt(d), d)


def pair_scores(config: MechanismConfig, r_i: Report, r_j: Report) -> tuple[float, float]:
    """(score_P, score_I) for agent i matched with agent j."""
    score_p, score_i = _pair_terms(
        config.scoring_rule(), r_i.signal, r_i.prediction, r_j.signal, r_j.prediction
    )
    return float(score_p), float(score_i)


def pairwise_payment(config: MechanismConfig, r_i: Report, r_j: Report) -> float:
    return float(_base_payments(config, r_i.signal, r_i.prediction, r_j.signal, r_j.prediction))


def classification_pair_score(r_j: Report, r_k: Report) -> float:
    """Hellinger divergence of the two predictions on differing reported
    signals; minus the Hellinger distance on matching ones."""
    return float(_classification_reward(r_j.signal, r_j.prediction, r_k.signal, r_k.prediction))


def zero_sum_group_scores(
    base_payments: Sequence[float] | np.ndarray,
    group_a: Sequence[int],
    group_b: Sequence[int],
) -> np.ndarray:
    """Subtract the other group's payments, split evenly over one's own group.

    Generic over how the base payments were produced; agents lie on the last
    axis, and leading axes are independent rounds.  Each round sums to zero
    across all agents up to float rounding of the group averages.
    """
    base = np.asarray(base_payments, dtype=float)
    a, b = list(group_a), list(group_b)
    base_a, base_b = base[..., a], base[..., b]
    out = np.empty_like(base)
    out[..., a] = base_a - base_b.sum(axis=-1, keepdims=True) / len(a)
    out[..., b] = base_b - base_a.sum(axis=-1, keepdims=True) / len(b)
    return out


def _round_payments(config: MechanismConfig, signals, preds, peers, pairs) -> np.ndarray:
    """Payments of T rounds: the one implementation of the payment rule.

    ``signals`` (T, n) and ``preds`` (T, n, m) hold each round's reported
    signals and predictions, ``peers`` (T, n) the base-payment peers and
    ``pairs`` (T, n, 2) the classification pairs (disagreement variant only).
    Matchings are taken as valid.
    """
    rows = np.arange(peers.shape[0])[:, None]
    base = _base_payments(config, signals, preds, signals[rows, peers], preds[rows, peers])
    if config.variant == "truthful":
        return base
    payments = zero_sum_group_scores(base, *config.groups(peers.shape[1]))
    j, k = pairs[..., 0], pairs[..., 1]
    return payments + _classification_reward(
        signals[rows, j], preds[rows, j], signals[rows, k], preds[rows, k]
    )


def realized_payments(
    config: MechanismConfig, reports: Sequence[Report], matching: Matching
) -> np.ndarray:
    """Payments of one realized round, or of T rounds sharing one set of reports.

    Truthful variant: alpha * score_P + beta * score_I against the matched
    peer.  Disagreement variant: the zero-sum group score on the in-group base
    payments plus the classification reward of the matched pair.  With
    ``matching.peers`` of shape (n,) the result has shape (n,); with peers of
    shape (T, n) and pairs of shape (T, n, 2) it has shape (T, n), row t being
    the payments under matching t.
    """
    n = len(reports)
    peers = matching.peers
    if peers.ndim not in (1, 2) or peers.shape[-1] != n:
        raise MechanismError(f"need one peer per agent, got shape {peers.shape}")
    agents = np.arange(n)
    if ((peers == agents) | (peers < 0) | (peers >= n)).any():
        raise MechanismError("peers must be valid agent indices distinct from self")

    pairs = None
    if config.variant == "disagreement":
        in_a = np.zeros(n, dtype=bool)
        in_a[list(config.groups(n)[0])] = True
        crossed = in_a[peers] != in_a
        if crossed.any():
            at = tuple(np.argwhere(crossed)[0])
            raise MechanismError(
                f"agent {at[-1]}'s base-payment peer {peers[at]} is in the other group"
            )
        if matching.pairs is None:
            raise MechanismError("disagreement variant needs a (j, k) pair per agent")
        pairs = matching.pairs
        if pairs.shape != peers.shape + (2,):
            raise MechanismError(f"pairs must have shape {peers.shape + (2,)}, got {pairs.shape}")
        j, k = pairs[..., 0], pairs[..., 1]
        bad = (j == k) | (j == agents) | (k == agents) | ((pairs < 0) | (pairs >= n)).any(axis=-1)
        if bad.any():
            at = tuple(np.argwhere(bad)[0])
            raise MechanismError(
                f"agent {at[-1]}'s pair {tuple(pairs[at].tolist())} must be two distinct other agents"
            )
        pairs = pairs.reshape(-1, n, 2)

    rounds = peers.reshape(-1, n)
    signals = np.broadcast_to([r.signal for r in reports], rounds.shape)
    preds = np.stack([r.prediction for r in reports])
    preds = np.broadcast_to(preds, rounds.shape + preds.shape[-1:])
    return _round_payments(config, signals, preds, rounds, pairs).reshape(peers.shape)


# Cells per block of the array passes (trials x n x m in Monte Carlo scoring,
# rows x m x m x types in the welfare passes): bounds the arrays they gather,
# whatever the chunk size or n.
_BLOCK_CELLS = 2**16


@dataclass(frozen=True)
class WelfareBreakdown:
    """Exact welfare decomposition of a profile under a prior.

    classification_score = diversity - inconsistency holds by construction;
    total_divergence >= diversity with equality exactly when inconsistency is
    zero; average_welfare is the disagreement variant's expected per-agent
    payment, which equals the classification score.
    """

    diversity: float
    inconsistency: float
    total_divergence: float
    classification_score: float
    average_welfare: float

    def to_dict(self) -> dict:
        return {
            "diversity": self.diversity,
            "inconsistency": self.inconsistency,
            "total_divergence": self.total_divergence,
            "classification_score": self.classification_score,
            "average_welfare": self.average_welfare,
        }


def welfare_metrics(prior: PairwisePrior, profile: StrategyProfile) -> WelfareBreakdown:
    """Diversity, inconsistency, total divergence, classification score.

    Sums over ordered agent pairs j != k with weight 1/(n(n-1)), private
    signals weighted by the pairwise joint, and reports weighted by the two
    signal strategies.  Diversity keeps report-differing pairs (Hellinger
    divergence), inconsistency keeps report-matching pairs (Hellinger
    distance), total divergence drops the indicator.

    The sums run over the T distinct agent types, agents with byte-identical
    strategy and prediction rows; with c_t agents of type t, the ordered
    type pair (t, u) stands for c_t c_u - [t = u] c_t agent pairs, a count
    that is exact in floats.  Three exact pieces:

    * diversity from D*(p, q) = sum p + sum q - 2 <sqrt p, sqrt q> with the
      actual sums of p and q, aggregated per report pair (r, r') and then
      summed over the blocks r != r' only, never as a total minus a
      same-report part, so a profile with a single report has diversity
      exactly 0;
    * one elementwise pass over the pairs of (type, signal) cells that share
      a report, in row blocks of at most ``_BLOCK_CELLS`` cells; it gives
      the inconsistency, sum w sqrt(D*), and the same-report divergence,
      sum w D*, and takes no square root of a cancelling difference;
    * total = diversity + same-report divergence, so total == diversity bit
      for bit whenever every same-report distance is exactly 0, as for
      truth-telling and permutation profiles.

    Cost O(T^2 m^4) time and O(T m^3 + _BLOCK_CELLS) memory: independent of
    n for truth-telling, permutation, constant and other symmetric profiles
    (T = 1), quadratic in n for heterogeneous ones (T = n).
    """
    n, m = profile.n, profile.m
    joint = prior.joint()  # joint[a, b] = Pr(one agent a, another b)

    # agents with byte-identical rows form one type; c counts its agents
    rows = np.concatenate([profile.thetas.reshape(n, -1), profile.predictions.reshape(n, -1)], 1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    c = counts.astype(float)
    types = c.size

    def pair_weights(t):
        """Rows t of the ordered type-pair weight (c c^T - diag(c)) / (n(n-1))."""
        out = np.outer(c[t], c)
        out[np.arange(t.size), t] -= c[t]
        return out / (n * (n - 1))

    # cell (t, a, r): type t at private signal a reports r with weight w
    thetas, preds = profile.thetas[first], profile.predictions[first]
    w = thetas.transpose(0, 2, 1)
    roots = np.sqrt(preds)

    # diversity: sum_{x, y} pair[t, u] joint[a, b] left[x, f, r] right[y, f, r']
    # over cells x = (t, a), y = (u, b) and fields f pairing the terms of
    # sum p + sum q - 2 <sqrt p, sqrt q> of the two reported predictions
    weighted = w * preds.sum(axis=-1)
    weighted_roots = (w[..., None] * roots).transpose(0, 1, 3, 2)
    left = np.concatenate([weighted[:, :, None], w[:, :, None], weighted_roots], axis=2)
    right = np.concatenate([w[:, :, None], weighted[:, :, None], -2.0 * weighted_roots], axis=2)
    spread = (joint @ right.reshape(types, m, -1)).reshape(types, -1)
    rows_per_block = max(1, _BLOCK_CELLS // types)
    paired = np.concatenate(
        [
            pair_weights(np.arange(lo, min(lo + rows_per_block, types))) @ spread
            for lo in range(0, types, rows_per_block)
        ]
    )
    per_report = left.reshape(-1, m).T @ paired.reshape(-1, m)
    # + 0.0 turns a sum of signed zeros into +0.0
    diversity = float(per_report[~np.eye(m, dtype=bool)].sum()) + 0.0

    # same-report pass: rows are the cells (t, a, r) of positive weight,
    # columns every cell (u, b) at the same report r, stored [r, ..., b, u]
    # so that the inner loops run over types
    cols_w = np.ascontiguousarray(thetas.transpose(1, 2, 0))
    cols_roots = np.ascontiguousarray(roots.transpose(2, 3, 1, 0))
    typ, sig, rep = np.nonzero(w)
    cell_w, cell_roots = w[typ, sig, rep], roots[typ, sig, rep]
    rows_per_block = max(1, _BLOCK_CELLS // (types * m * m))
    inconsistency = same = 0.0
    for lo in range(0, typ.size, rows_per_block):
        x = slice(lo, lo + rows_per_block)
        weight = joint[sig[x], :, None] * pair_weights(typ[x])[:, None, :]
        weight *= cols_w[rep[x]]
        weight *= cell_w[x, None, None]
        # in place: the out-of-place subtraction of a gathered block measured
        # about ten times slower at this block size
        diff = cols_roots[rep[x]]
        diff -= cell_roots[x, :, None, None]
        dstar = np.square(diff, out=diff).sum(axis=1)
        inconsistency += float(np.vdot(weight, np.sqrt(dstar)))
        same += float(np.vdot(weight, dstar))

    classification = diversity - inconsistency
    return WelfareBreakdown(
        diversity, inconsistency, diversity + same, classification, classification
    )


@dataclass(frozen=True)
class MonteCarloPayments:
    """Per-agent sampled mean payments with standard errors, plus the sampled
    average welfare (mean over agents of a round's payments)."""

    mean: np.ndarray
    stderr: np.ndarray
    welfare_mean: float
    welfare_stderr: float
    trials: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "stderr": self.stderr.tolist(),
            "welfare_mean": self.welfare_mean,
            "welfare_stderr": self.welfare_stderr,
            "trials": self.trials,
        }


def _skip(draw: np.ndarray, i) -> np.ndarray:
    """Map uniform draws over range(n - 1) onto range(n) without ``i``."""
    return draw + (draw >= i)


def monte_carlo_payments(
    config: MechanismConfig,
    latent: LatentStatePrior,
    profile: StrategyProfile,
    trials: int,
    seed: int = 0,
    chunk: int = 65536,
) -> MonteCarloPayments:
    """Unbiased sampled payments under the full mechanism.

    Samples latent states, conditionally independent signals, mixed reports,
    and uniform matchings, ``chunk`` trials at a time, from a Philox
    generator keyed by ``seed``; each chunk is then scored by the payment
    kernel in row blocks.  The same seed and chunk reproduce the result
    exactly.  The order of the draws depends on ``chunk``, so another chunk
    size gives another, equally valid sample with different estimates, and
    the trials cannot be split across workers without changing the result.
    """
    if trials < 1:
        raise MechanismError("need at least one trial")
    n, m = profile.n, profile.m
    disagreement = config.variant == "disagreement"
    rng = np.random.Generator(np.random.Philox(seed))
    agents = np.arange(n)
    if disagreement:
        group_a, group_b = config.groups(n)
        mates = []
        for i in range(n):
            own = group_a if i in group_a else group_b
            mates.append(np.array([j for j in own if j != i]))
    report_cums = np.cumsum(profile.thetas, axis=1).transpose(0, 2, 1)  # [agent, signal, report]
    block = max(1, _BLOCK_CELLS // (n * m))

    pay_sum = np.zeros(n)
    pay_sumsq = np.zeros(n)
    welfare_sum = 0.0
    welfare_sumsq = 0.0

    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        done += k

        signals = latent.sample_signals(n, k, rng)  # (k, n)
        reports = np.empty((k, n), dtype=int)
        for i in range(n):
            reports[:, i] = sample_categorical(report_cums[i, signals[:, i]], rng.random(k))
        # base-payment peer: uniform over the eligible set minus self
        peers = np.empty((k, n), dtype=int)
        for i in range(n):
            if disagreement:
                peers[:, i] = mates[i][rng.integers(0, mates[i].size, size=k)]
            else:
                peers[:, i] = _skip(rng.integers(0, n - 1, size=k), i)
        pairs = None
        if disagreement:
            pairs = np.empty((k, n, 2), dtype=int)
            for i in range(n):
                j = _skip(rng.integers(0, n - 1, size=k), i)
                draw_k = rng.integers(0, n - 2, size=k)
                pairs[:, i, 0] = j
                pairs[:, i, 1] = _skip(_skip(draw_k, np.minimum(i, j)), np.maximum(i, j))

        payments = np.empty((k, n))
        for lo in range(0, k, block):
            rows = slice(lo, lo + block)
            preds = profile.predictions[agents, signals[rows], reports[rows]]
            payments[rows] = _round_payments(
                config, reports[rows], preds, peers[rows], None if pairs is None else pairs[rows]
            )

        # summed per chunk, so the estimates do not depend on the block size
        pay_sum += payments.sum(axis=0)
        pay_sumsq += (payments * payments).sum(axis=0)
        w = payments.mean(axis=1)
        welfare_sum += w.sum()
        welfare_sumsq += float(w @ w)

    mean = pay_sum / trials
    var = np.maximum(pay_sumsq / trials - mean * mean, 0.0)
    stderr = np.sqrt(var / trials)
    wmean = welfare_sum / trials
    wvar = max(welfare_sumsq / trials - wmean * wmean, 0.0)
    return MonteCarloPayments(mean, stderr, wmean, math.sqrt(wvar / trials), trials)
