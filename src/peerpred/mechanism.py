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
:func:`zero_sum_group_scores` expresses.

The payment rule itself is assembled once, in :func:`_assemble_payments`,
over arrays of T rounds of n agents, from a base-payment and a
classification-reward lookup.  :func:`_round_payments` computes them from
reported predictions; :func:`realized_payments` feeds it :class:`Report`
objects with one or T matchings.  :func:`monte_carlo_payments`
tabulates the payments of every ordered pair of reachable (agent, signal,
report) cells, scoring each cell once per row block rather than each pair,
and looks each sampled payment up; it falls back to the kernel,
with identical results, when the tables would pass ``_MC_TABLE_ENTRIES``
entries or hold a pair outside the scoring rule's domain.  Its trials run in
fixed blocks, each drawn once, as int32 indices that both scoring paths read,
from its own PCG64 stream, the child ``SeedSequence(seed, spawn_key=(block,))``
of the seed, so its estimates depend on the seed and the trial count alone.
Scores are reached only through :class:`~peerpred.scoring.ProperScoringRule`
methods.

Average per-agent welfare of the disagreement variant equals the
classification score Diversity - Inconsistency; :func:`welfare_metrics`
computes the exact finite sums over agent pairs, private-signal pairs, and
report pairs.  It groups byte-identical agents into T types and sums over
type pairs rather than agent pairs: diversity in O(T m^4) through the
bilinear form D*(p, q) = sum p + sum q - 2 <sqrt p, sqrt q> summed over the
report pairs r != r' only, with the rank-one-plus-diagonal pair weight, and
inconsistency together with the same-report divergence through one
elementwise pass over the pairs of cells that share a report, each
unordered pair of types once, in O(T^2 m^4 / 2).  Total divergence is
diversity plus the same-report divergence, so it equals diversity bit for
bit whenever no two cells sharing a report differ, as for truth-telling and
permutation profiles.  T = 1 for symmetric profiles, whose welfare therefore
costs the same at any n; heterogeneous profiles (T = n) remain quadratic in
n.  :func:`welfare_batch` scores scenarios that share (n, m) with a leading
scenario axis through the same steps, and :func:`welfare_metrics` is its
batch of one.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .divergence import hellinger
from .priors import _DRAW_BYTES, LatentStatePrior, PairwisePrior, sample_categorical
from .scoring import ProperScoringRule, ScoreDomainError, get_rule
from .strategy import StrategyProfile, agent_types, check_signal_count
from .tolerances import PROBABILITY_TOL, probability_table_fault

__all__ = [
    "MechanismConfig",
    "Report",
    "Matching",
    "WelfareBreakdown",
    "MonteCarloPayments",
    "MechanismError",
    "zero_sum_group_scores",
    "realized_payments",
    "welfare_metrics",
    "welfare_batch",
    "monte_carlo_payments",
]


class MechanismError(ValueError):
    """Raised for invalid mechanism configuration or matchings."""


@dataclass(frozen=True)
class MechanismConfig:
    """Parameters of the payment rule.

    ``group_a`` fixes the first group for the disagreement variant; when
    omitted the first half of the agents (by index) is used.  The welfare
    ordering guarantees need beta/alpha < 1/(4m); :meth:`regime_ok` checks it,
    and :meth:`warn_if_outside_regime`, which the ``welfare`` subcommand and
    ``scripts/welfare_table.py`` call, warns when it fails.  Truthfulness
    itself holds for any positive alpha, beta.
    """

    alpha: float = 1.0
    beta: float = 0.05
    rule: str = "log"
    variant: str = "truthful"
    group_a: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise MechanismError(
                f"need finite alpha > 0 and beta >= 0, got {self.alpha}, {self.beta}"
            )
        if self.variant not in ("truthful", "disagreement"):
            raise MechanismError(f"unknown variant {self.variant!r}")
        get_rule(self.rule)
        if self.group_a is not None:
            group_a = tuple(self.group_a)
            # int() would truncate 1.7 and parse "0"; bool is an int subclass
            if any(isinstance(i, bool) or not isinstance(i, numbers.Integral) for i in group_a):
                raise MechanismError(f"group_a entries must be integers, got {group_a}")
            group_a = tuple(int(i) for i in group_a)
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
        members = set(a)
        b = tuple(i for i in range(n) if i not in members)
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
        if prediction.ndim != 1 or probability_table_fault(prediction, 0, PROBABILITY_TOL):
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


def _base_payments(config: MechanismConfig, sig_i, pred_i, sig_j, pred_j):
    """alpha * score_P + beta * score_I of agents i matched with peers j, over
    leading axes.

    score_P = PS(sigma_hat_j, p_hat_i).  score_I is 0 on differing reported
    signals; otherwise -(PS(p_j, p_j) - PS(p_j, p_i)), which is <= 0 with
    equality iff the predictions coincide.  score_I is scored only for pairs
    with matching signals, and not at all when beta = 0, so the log rule
    never probes predictions that the payment does not use.
    """
    rule = config.scoring_rule()
    payments = config.alpha * rule.point_score(sig_j, pred_i)
    if config.beta == 0.0:
        return payments
    same = np.asarray(sig_i == sig_j)
    score_i = np.zeros(same.shape)
    score_i[same] = rule.weighted_score(pred_j[same], pred_i[same]) - rule.self_score(pred_j[same])
    return payments + config.beta * score_i


def _classification_reward(sig_j, pred_j, sig_k, pred_k):
    """Hellinger divergence of the predictions on differing reported signals;
    minus the Hellinger distance on matching ones.  Broadcasts."""
    d = hellinger(pred_j, pred_k)
    return np.where(sig_j == sig_k, -np.sqrt(d), d)


def zero_sum_group_scores(
    base_payments: Sequence[float] | np.ndarray,
    group_a: Sequence[int],
    group_b: Sequence[int],
) -> np.ndarray:
    """Subtract the other group's payments, split evenly over one's own group.

    Generic over how the base payments were produced; agents lie on the last
    axis, and leading axes are independent rounds; the two groups must
    partition the agents, or a :class:`MechanismError` is raised.  Each
    round sums to zero across all agents up to float rounding of the group
    averages.
    """
    payments = np.array(base_payments, dtype=float)
    if sorted([*group_a, *group_b]) != list(range(payments.shape[-1])):
        raise MechanismError(f"groups {group_a} and {group_b} do not partition the agents")
    return _zero_sum(payments, group_a, group_b)


def _zero_sum(payments: np.ndarray, group_a, group_b) -> np.ndarray:
    """:func:`zero_sum_group_scores` in place on ``payments``.

    Each group's sum is taken over its gathered payments, in group order,
    which the bits depend on (a sum over a strided view adds in another
    order); both shares are then subtracted in one pass through a mask of
    group a."""
    a, b = list(group_a), list(group_b)
    in_a = np.zeros(payments.shape[-1], dtype=bool)
    in_a[a] = True
    sum_a = payments[..., a].sum(axis=-1, keepdims=True)
    sum_b = payments[..., b].sum(axis=-1, keepdims=True)
    payments -= np.where(in_a, sum_b / len(a), sum_a / len(b))
    return payments


def _assemble_payments(config: MechanismConfig, base, reward, peers, pairs) -> np.ndarray:
    """The payment rule over T rounds of n agents, written once.

    ``base(x)`` is every agent's base payment against the agents ``x`` (T, n)
    names, and ``reward(j, k)`` the classification reward of the pairs (j, k);
    :func:`_round_payments` computes both from reported predictions and the
    Monte Carlo tables look them up.  ``peers`` (T, n) are the base-payment
    peers and ``pairs`` the two (T, n) arrays (j, k) of classification pairs
    (disagreement variant only).  Matchings are taken as valid.  The zero-sum
    and the reward steps work in place on the array that ``base`` returns.
    """
    payments = base(peers)
    if config.variant == "disagreement":
        _zero_sum(payments, *config.groups(peers.shape[1]))
        payments += reward(*pairs)
    return payments


def _round_payments(config: MechanismConfig, signals, preds, peers, pairs) -> np.ndarray:
    """Payments of T rounds from ``signals`` (T, n) and ``preds`` (T, n, m),
    each round's reported signals and predictions, peers (T, n) and, in the
    disagreement variant, the classification pairs as the two (T, n) arrays
    (j, k); the rest as in :func:`_assemble_payments`."""
    rows = np.arange(peers.shape[0])[:, None]

    def base(x):
        return _base_payments(config, signals, preds, signals[rows, x], preds[rows, x])

    def reward(j, k):
        return _classification_reward(
            signals[rows, j], preds[rows, j], signals[rows, k], preds[rows, k]
        )

    return _assemble_payments(config, base, reward, peers, pairs)


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
        pairs = (j.reshape(-1, n), k.reshape(-1, n))

    rounds = peers.reshape(-1, n)
    signals = np.broadcast_to([r.signal for r in reports], rounds.shape)
    preds = np.stack([r.prediction for r in reports])
    preds = np.broadcast_to(preds, rounds.shape + preds.shape[-1:])
    return _round_payments(config, signals, preds, rounds, pairs).reshape(peers.shape)


# Cells per block of the array passes (trials x n x m when the kernel scores
# Monte Carlo rounds, cells x cells x m when its tables are built, the
# differences m x m x rows x columns of a welfare tile, rows x m x types x m
# cell pairs in the audits' anchor-pair scan): bounds the arrays they
# gather, whatever n.
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

    This is :func:`welfare_batch` on a batch of one scenario.  The sums run
    over the T distinct agent types, agents with byte-identical strategy and
    prediction rows; with c_t agents of type t, the ordered type pair (t, u)
    stands for c_t c_u - [t = u] c_t agent pairs, a count that is exact in
    floats.  Three exact pieces:

    * diversity from D*(p, q) = sum p + sum q - 2 <sqrt p, sqrt q> with the
      actual sums of p and q, aggregated per report pair (r, r') and then
      summed over the blocks r != r' only, never as a total minus a
      same-report part, so a profile with a single report has diversity
      exactly 0.  The pair weight is rank one plus a diagonal, so this
      costs O(T m^4);
    * one elementwise pass over the pairs of (type, signal) cells that share
      a report, all reports at once, in tiles of whole types of at most
      ``_BLOCK_CELLS`` differences (or one type pair's m^4).  It gives the
      inconsistency, sum w sqrt(D*), and the same-report divergence,
      sum w D*, takes D* as sum_f (sqrt p_f - sqrt q_f)^2 and so no square
      root of a cancelling difference.  Both sums are symmetric in the pair
      once the joint is replaced by its symmetric part, so each pair of
      different blocks is visited once and counted twice: O(T^2 m^4 / 2).
      The weights enter by matrix products, with same-type pairs weighted
      explicitly, so every term is non-negative and inconsistency >= 0;
    * total = diversity + same-report divergence, so total == diversity bit
      for bit whenever every same-report distance is exactly 0, as for
      truth-telling and permutation profiles.

    Memory O(T m^3 + _BLOCK_CELLS + m^4) beyond the profile: independent of
    n for truth-telling, permutation, constant and other symmetric profiles
    (T = 1), whose time is too; quadratic time in n for heterogeneous ones
    (T = n).
    """
    return welfare_batch([prior], [profile])[0]


def welfare_batch(
    priors: Sequence[PairwisePrior], profiles: Sequence[StrategyProfile]
) -> list[WelfareBreakdown]:
    """:func:`welfare_metrics` of every scenario (priors[k], profiles[k]),
    in input order; the profiles share n and m.  Each entry is its
    scenario's single call, bit for bit.

    A pass holds only scenarios with the same number T of agent types, S of
    them with S T m^4 <= ``_BLOCK_CELLS`` (at least one), in input order; a
    profile listed more than once is grouped once.  A scenario's tiles
    depend on its own (T, m) alone, so a single call, a short pass and a
    full pass tile it alike, and every sum across the scenario axis is taken
    scenario by scenario.  The pass tiles as many scenarios at a time as
    keep their tiles within ``_BLOCK_CELLS`` differences (at least one), so
    its memory is O(_BLOCK_CELLS + T m^4) beyond the profiles.
    """
    if len(priors) != len(profiles):
        raise MechanismError(f"got {len(priors)} priors for {len(profiles)} profiles")
    if not profiles:
        return []
    n, m = profiles[0].n, profiles[0].m
    # agents with byte-identical rows form one type; counts[t] is its agents.
    # A profile listed more than once (the relabeling cycle repeats two) is
    # grouped once.  alike[T] lists the scenarios with T types, in order.
    types_of, scenarios, alike = {}, [], {}
    for k, (prior, profile) in enumerate(zip(priors, profiles)):
        if (profile.n, profile.m) != (n, m):
            raise MechanismError(
                f"a batch shares n and m: got ({profile.n}, {profile.m}) after ({n}, {m})"
            )
        check_signal_count(prior, m)
        if id(profile) not in types_of:
            types_of[id(profile)] = agent_types(profile.thetas, profile.predictions)
        first, counts = types_of[id(profile)]
        scenarios.append((prior, profile, (first, counts)))
        alike.setdefault(first.size, []).append(k)

    out: list[WelfareBreakdown] = [None] * len(profiles)
    for types, ks in alike.items():
        per_pass = max(1, _BLOCK_CELLS // (types * m**4))
        for lo in range(0, len(ks), per_pass):
            chunk = ks[lo : lo + per_pass]
            scored = _welfare_pass(n, m, types, [scenarios[k] for k in chunk])
            for k, breakdown in zip(chunk, scored):
                out[k] = breakdown
    return out


def _welfare_pass(n, m, types, scenarios) -> list[WelfareBreakdown]:
    """One pass of :func:`welfare_batch` over S scenarios (prior, profile,
    its agent types), each with ``types`` agent types; every array carries
    the scenario axis s first."""
    batch = len(scenarios)
    joint = np.empty((batch, m, m))  # joint[s, a, b]
    c = np.empty((batch, types))
    thetas = np.empty((batch, types, m, m))
    preds = np.empty((batch, types, m, m, m))
    for s, (prior, profile, (first, counts)) in enumerate(scenarios):
        joint[s] = prior.joint()
        c[s] = counts
        thetas[s] = profile.thetas[first]
        preds[s] = profile.predictions[first]
    pairs = n * (n - 1)

    # cell (t, a, r): type t at private signal a reports r with weight w
    w = thetas.transpose(0, 1, 3, 2)
    roots = np.sqrt(preds)

    # diversity: sum_{x, y} pair[t, u] joint[a, b] left[x, f, r] right[y, f, r']
    # over cells x = (t, a), y = (u, b) and fields f pairing the terms of
    # sum p + sum q - 2 <sqrt p, sqrt q> of the two reported predictions
    weighted = w * preds.sum(axis=-1)
    weighted_roots = (w[..., None] * roots).transpose(0, 1, 2, 4, 3)
    left = np.concatenate([weighted[..., None, :], w[..., None, :], weighted_roots], axis=3)
    right = np.concatenate([w[..., None, :], weighted[..., None, :], -2.0 * weighted_roots], axis=3)
    spread = (joint[:, None] @ right.reshape(batch, types, m, -1)).reshape(batch, types, -1)
    # the pair weight (c c^T - diag c) / (n(n-1)) is rank one plus a diagonal:
    # sum_u pair[t, u] v_u = c_t (c . v - v_t) / (n(n-1))
    paired = (c / pairs)[..., None] * (c[:, None] @ spread - spread)
    per_report = left.reshape(batch, -1, m).transpose(0, 2, 1) @ paired.reshape(batch, -1, m)
    # every D* is >= 0, so a sum below zero is rounding; + 0.0 turns a sum of
    # signed zeros into +0.0.  Boolean indexing returns the blocks r != r' of
    # S > 1 scenarios column-major; made contiguous, each scenario sums them
    # in the order of its single call.
    identity = np.eye(m)
    off_diagonal = np.ascontiguousarray(per_report[:, identity == 0.0])
    diversity = np.maximum(off_diagonal.sum(axis=-1), 0.0) + 0.0

    # same-report pass over the cells x = (t, a), types in order, all reports
    # at once.  D* and the weight are symmetric once the joint is replaced by
    # its symmetric part, which leaves the sum unchanged; so a block of types
    # pairs with itself once, where same-type pairs count c_t (c_t - 1), and
    # with the types after it twice.
    cells = types * m
    sym = 0.5 * (joint + joint.transpose(0, 2, 1))
    cell_w = thetas.transpose(0, 2, 1, 3).reshape(batch, m, cells)  # [s, r, x]
    # every difference sqrt p_f - sqrt q_f is the product [sqrt p_f, 1] @
    # [1, -sqrt q_f]: both terms are exact and their sum rounds once, as the
    # subtraction does, which numpy's broadcasting took three times as long for
    row_pairs = np.empty((batch, m, m, types, m, 2))  # [s, r, f, t, a, (sqrt p_f, 1)]
    row_pairs[..., 0] = roots.transpose(0, 3, 4, 1, 2)
    row_pairs[..., 1] = 1.0
    row_pairs = row_pairs.reshape(batch, m, m, cells, 2)
    col_pairs = np.empty((batch, m, m, 2, cells))  # [s, r, f, (1, -sqrt q_f), y]
    col_pairs[:, :, :, 0] = 1.0
    np.negative(row_pairs[..., 0], out=col_pairs[:, :, :, 1])

    # Tiles of whole types, a block of `rows` types against `span` types,
    # hold at most _BLOCK_CELLS differences per scenario (or one type pair's
    # m^4).  One tile when the whole triangle fits; else about square tiles,
    # and blocks of at most an eighth of the types, since a block against
    # itself sums both orders of its pairs.  The pass tiles `group`
    # scenarios at a time, whose tiles hold at most _BLOCK_CELLS differences
    # (or one scenario's).
    per_pair = m**4
    if per_pair * types * types <= _BLOCK_CELLS:
        rows = types
    else:
        rows = max(1, min(math.isqrt(_BLOCK_CELLS // per_pair), types // 8))
    span = min(types, max(rows, _BLOCK_CELLS // (per_pair * rows)))
    group = max(1, _BLOCK_CELLS // (per_pair * rows * span))
    if rows < types:
        # weights by matmul: with column weights G[r, (u, b), b'] = c_u w [b = b']
        # and row weights H[r, (t, a), b] = c_t w sym[a, b], the distances
        # D[r, x, y] of a tile of different types sum to <H, D @ G>
        counted = (cell_w * np.repeat(c, m, axis=-1)[:, None]).reshape(batch, m, types, m, 1)
        col_weights = (counted * identity).reshape(batch, m, cells, m)
        row_weights = (counted * sym[:, None, None]).reshape(batch, m, cells, m)
    # one buffer each for the largest tile: fresh arrays of that size cost
    # page faults on every tile
    largest = min(group, batch) * rows * m * span * m
    diff_buffer, dist_buffer = np.empty(m * m * largest), np.empty(2 * m * largest)
    block_identity = np.eye(rows)
    # (inconsistency, same-report divergence) * n(n-1), each scenario's
    # summed apart, as its single call sums it
    sums = np.zeros((batch, 2))
    for s0 in range(0, batch, group):
        g, size = slice(s0, s0 + group), min(group, batch - s0)
        for lo in range(0, types, rows):
            hi = min(lo + rows, types)
            x = slice(lo * m, hi * m)
            height = x.stop - x.start
            # a block against itself: c_t (c_u - [t = u]) pairs of types t, u
            block_c = c[g, lo:hi]
            own = block_identity[: hi - lo, : hi - lo]
            block_pairs = block_c[:, :, None] * (block_c[:, None] - own)
            square = cell_w[g, :, x, None] * cell_w[g, :, None, x]
            square *= (block_pairs[:, :, None, :, None] * sym[g, None, :, None]).reshape(
                size, 1, height, height
            )
            for start in range(lo, types, span):
                y = slice(start * m, min(start + span, types) * m)
                width = y.stop - y.start
                diff = diff_buffer[: size * m * m * height * width].reshape(size, m, m, height, width)
                np.matmul(row_pairs[g, :, :, x], col_pairs[g, ..., y], out=diff)  # [s, r, f, x, y]
                dist = dist_buffer[: size * 2 * m * height * width].reshape(size, m, 2, height, width)
                # [s, r, (sqrt D*, D*), x, y]
                np.einsum("srfxy,srfxy->srxy", diff, diff, out=dist[:, :, 1])
                np.sqrt(dist[:, :, 1], out=dist[:, :, 0])
                after = 0
                if start == lo:
                    after = height
                    for s in range(size):
                        sums[s0 + s] += np.einsum("rkxy,rxy->k", dist[s, ..., :height], square[s])
                if after < width:
                    columns = col_weights[g, :, y.start + after : y.stop]
                    pulled = dist[..., after:].reshape(size, m, 2 * height, -1) @ columns
                    pulled = pulled.reshape(size, m, 2, height, m)
                    for s in range(size):
                        weights = row_weights[s0 + s, :, x]
                        sums[s0 + s] += 2.0 * np.einsum("rkxb,rxb->k", pulled[s], weights)

    out = []
    for div, (inconsistency, same) in zip(diversity.tolist(), (sums / pairs).tolist()):
        classification = div - inconsistency
        out.append(
            WelfareBreakdown(div, inconsistency, div + same, classification, classification)
        )
    return out


@dataclass(frozen=True)
class MonteCarloPayments:
    """Per-agent sampled mean payments with standard errors, plus the sampled
    average welfare (mean over agents of a round's payments)."""

    mean: np.ndarray
    stderr: np.ndarray
    welfare_mean: float
    welfare_stderr: float


# Trials per Monte Carlo block.  Block b draws from its own stream, so the
# estimates depend on the seed and the trial count alone.
_MC_BLOCK = 4096
# Most entries of a cell-pair payment table; larger tables are not built.
_MC_TABLE_ENTRIES = 2**22


def _mc_tables(config: MechanismConfig, profile: StrategyProfile, reachable, trials: int):
    """Cell-pair payment tables for Monte Carlo, or None to score by the kernel.

    The cells are the reachable (agent, private signal, report) triples; a
    sampled reporter always sits in one of them.  Returns ``cell_of`` (n, m,
    m), the int32 index of each reachable cell, and the (C, C) tables
    ``base[c, c']``, the base payment of a reporter in cell c matched with one
    in cell c', and ``reward[c, c']``, the classification reward of the pair
    (c, c') (disagreement variant only).  The cells are numbered report by
    report, so each report's cells form one range, and the tables are built
    in row blocks of one report's cells, at most ``_BLOCK_CELLS // (C m)``
    of them (at least one).  Each block writes its rows of both tables in
    place, scoring each cell once rather than once per cell pair:

    * ``base`` as :func:`_base_payments` composes it: alpha times the point
      score of each row cell's prediction against every report that some
      cell holds, gathered by the column cell's report, plus, within the
      block's own report range only and not at beta = 0, beta times
      ``weighted_score(p_j, p_i) - self_score(p_j)``;
    * ``reward`` by :func:`_classification_reward` on the row cells against
      all cells, shapes (rows, 1, m) and (1, C, m), so that each cell's
      square roots are taken once per block.

    Every reduction runs over the last axis of a C-contiguous array, which
    numpy sums in the same order whatever the leading shape, so each entry
    has the bits of the payment kernel on that pair.  The rule probes
    exactly the pairs that the tables hold.  None when C^2 exceeds
    ``_MC_TABLE_ENTRIES`` or the trials' n * trials sampled pairs, and when
    any entry, sampled or not, is outside the scoring rule's domain: the
    kernel then scores the sampled pairs alone.
    """
    rep, agent, sig = np.nonzero(reachable.transpose(2, 0, 1))
    cells = rep.size
    if cells * cells > min(_MC_TABLE_ENTRIES, trials * profile.n):
        return None
    cell_of = np.full(reachable.shape, -1, dtype=np.int32)
    cell_of[agent, sig, rep] = np.arange(cells)
    preds = profile.predictions[agent, sig, rep]
    # held[column[c]] is cell c's report; starts and counts give each report's range
    held, starts, column, counts = np.unique(
        rep, return_index=True, return_inverse=True, return_counts=True
    )
    rule = config.scoring_rule()
    base = np.empty((cells, cells))
    reward = np.empty((cells, cells)) if config.variant == "disagreement" else None
    rows_per_block = max(1, _BLOCK_CELLS // (cells * profile.m))
    try:
        for start, stop in zip(starts, starts + counts):
            same = slice(start, stop)
            if config.beta != 0.0:
                own = rule.self_score(preds[same])
            for lo in range(start, stop, rows_per_block):
                x = slice(lo, min(lo + rows_per_block, stop))
                scores = config.alpha * rule.point_score(held, preds[x, None])
                np.take(scores, column, axis=1, out=base[x], mode="clip")
                if config.beta != 0.0:
                    agree = rule.weighted_score(preds[None, same], preds[x, None]) - own
                    base[x, same] += config.beta * agree
                if reward is not None:
                    reward[x] = _classification_reward(rep[x, None], preds[x, None], rep, preds)
    except ScoreDomainError:
        return None
    return cell_of, base, reward


def _lookup(table: np.ndarray, c: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Entries (c, c2) of a (C, C) cell-pair table, as one flat take."""
    return np.take(table, c * np.intp(table.shape[0]) + c2, mode="clip")


def _fill_integers(rng: np.random.Generator, high: int, out: np.ndarray) -> np.ndarray:
    """``out[...] = rng.integers(0, high, out.shape, dtype=out.dtype)``, drawn
    a run of rows at a time through temporaries of at most ``_DRAW_BYTES``
    (at least one row), since ``Generator.integers`` has no ``out=``.  Each
    run continues the stream, so the values are those of the whole draw."""
    rows = max(1, _DRAW_BYTES // out[0].nbytes)
    for lo in range(0, out.shape[0], rows):
        part = out[lo : lo + rows]
        part[...] = rng.integers(0, high, part.shape, dtype=out.dtype)
    return out


def _moments(x: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, sum of squared deviations) over the first axis; ``x``
    is overwritten by the squared deviations."""
    mean = x.mean(axis=0)
    x -= mean
    np.square(x, out=x)
    return x.shape[0], mean, x.sum(axis=0)


def _merge_moments(a, b):
    """Moments of the union of two samples (Chan, Golub and LeVeque, 1983)."""
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    count = count_a + count_b
    delta = mean_b - mean_a
    return (
        count,
        mean_a + delta * (count_b / count),
        m2_a + m2_b + delta * delta * (count_a * count_b / count),
    )


# overflow is caught once, in the merged moments, rather than warned about per block
@np.errstate(over="ignore", invalid="ignore")
def monte_carlo_payments(
    config: MechanismConfig,
    latent: LatentStatePrior,
    profile: StrategyProfile,
    trials: int,
    seed: int = 0,
) -> MonteCarloPayments:
    """Unbiased sampled payments under the full mechanism.

    The trials run in blocks of ``_MC_BLOCK``: block b holds the B trials
    from b * _MC_BLOCK on and draws them from PCG64 seeded by child b of the
    seed, ``np.random.default_rng(np.random.SeedSequence(seed,
    spawn_key=(b,)))`` (``SeedSequence(seed).spawn`` gives the same
    children), each quantity for all B rounds of n agents at once, in this
    order:

    1. signals, (B, n): ``latent.sample_signals(n, B, rng)``, a latent state
       per round and then each agent's signal, both by ``sample_categorical``;
    2. reports, (B, n): ``sample_categorical`` of the m - 1 cumulative report
       probabilities of each agent at its signal against ``rng.random((B, n))``;
    3. base-payment peers, (B, n): ``d = rng.integers(0, L, (B, n))``, where
       L is the least common multiple of the agents' mate counts; agent i
       is matched with entry d mod (its count) of its mates, the other agents
       of its pool in pool order.  The pool is every agent (truthful variant)
       or the agent's group from :meth:`MechanismConfig.groups`;
    4. classification pairs (disagreement variant only), j and k, each
       (B, n): ``rng.integers(0, n - 1, (B, n))`` onto the agents other than
       i, then ``rng.integers(0, n - 2, (B, n))`` onto the agents other than
       i and j, in increasing order.

    Each draw is made once per block and held as an int32 array (int64 only
    when a mate draw, an (agent, signal, report) position or a flat (trial,
    agent) position could pass the int32 range); the payment tables and the
    kernel fallback both read the same arrays, and the integer draws take
    the same values in either width.  The mate draw skips ``mod`` when every
    mate count is L, as for the truthful pool and for even halves.

    Each call allocates one workspace that every block reuses, so no block
    maps fresh pages.  It holds only what the stream order makes a block
    keep whole: the payments (B, n + 1), with the welfare in the last
    column, since their moments are taken over the block; and the int (B,
    n) draws that later draws depend on.  These are each agent-trial's flat
    (agent, signal, report) position, into which its signal and then its
    report fold (its table cell, once the report is drawn, when there are
    tables); the mate draws, then the peers; and j and k.  That is about
    24 B n bytes in the disagreement variant at int32 and 16 B n in the
    truthful one: 3.2 MB at B = 4096, n = 32.  Everything else runs in
    chunks of ``_BLOCK_CELLS // (n m)`` rows: the report uniforms, drawn a
    chunk at a time, and the threshold gathers; then the mate and pair
    skips, the table lookups or the kernel call, the zero-sum step and the
    rewards.  Each chunk continues the stream and every step is row-local,
    so the chunks give the bits of whole-block arrays.  A chunk has at least
    two rows (one only in a block of one trial), and a lone last row joins
    the chunk before it: numpy sums the groups of a lone row in another
    order than those of the rows of a larger array.  Integer
    draws fill their rows a run of at most ``_DRAW_BYTES`` at a time, since
    ``Generator.integers`` has no ``out=``, and continue the stream, so they
    equal the whole draw.

    The result therefore depends only on (config, latent, profile, trials,
    seed); any block can be drawn alone and draws the same numbers, and
    merging the blocks' moments in block order gives the same bits.  No two
    (seed, block) keys share a stream.  The entropy [seed, b] would not
    ensure that: ``SeedSequence`` splits a seed of 2**32 or more into two
    32-bit words and pads short entropy with zeros, so seed s, block b and
    seed s + b * 2**32, block 0 would both read [s, b].
    Per-agent and welfare means and squared deviations are taken per block
    and merged block by block with Chan, Golub and LeVeque's pairwise
    formula; stderr is sqrt(variance / trials), with the variance over the
    trials.

    Every sampled payment is a table lookup: ``_mc_tables`` scores every
    ordered pair of reachable (agent, signal, report) cells once, and a
    chunk's lookups are flat ``np.take`` gathers, the agents of chunk row t
    offset by t * n and a table entry (c, c') at c * C + c'.  When the
    tables would exceed ``_MC_TABLE_ENTRIES`` entries or the sampled pairs,
    or hold a pair outside the scoring rule's domain, each chunk is scored
    by the payment kernel on its gathered predictions instead; both give
    identical results, and a :class:`~peerpred.scoring.ScoreDomainError` is
    raised exactly when a sampled pair is undefined.  Memory is the
    workspace plus O(n m^2 + _BLOCK_CELLS m + _MC_TABLE_ENTRIES): the
    thresholds and cells, a chunk's arrays and the tables.  ``seed`` must be
    an integer in [0, 2**64).  A :class:`MechanismError` is raised when the
    merged means or squared deviations overflow to a non-finite value, as
    huge ``alpha`` and ``beta`` make them.
    """
    if trials < 1:
        raise MechanismError("need at least one trial")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise MechanismError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    n, m = profile.n, profile.m
    check_signal_count(latent, m)
    disagreement = config.variant == "disagreement"
    # agent i's mates are pools[pool_of[i]] without i, which sits at pos[i];
    # a draw below the common multiple of the mate counts, taken modulo
    # agent i's count, is uniform over its mates
    groups = config.groups(n) if disagreement else (tuple(range(n)),)
    draws = math.lcm(*(len(members) - 1 for members in groups))
    # indices are int32 unless one of a block's could pass its range: a mate
    # draw, an (agent, signal, report) position, or a flat (trial, agent) one
    bound = max(draws, n * m * m, n * min(trials, _MC_BLOCK))
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

    # cums[i, s, r]: agent i's probability at signal s of reports 0..r
    cums = np.cumsum(profile.thetas, axis=1).transpose(0, 2, 1)
    reachable = profile.thetas.transpose(0, 2, 1) > 0.0
    # the sampler clamps a draw past a cumulative sum that rounds below 1 to
    # the last report, whatever its probability
    reachable[..., -1] |= cums[..., -2] < 1.0
    # thresholds[t, i * m + s] = cums[i, s, t], the m - 1 that the sampler reads
    thresholds = np.ascontiguousarray(cums[..., :-1].reshape(n * m, m - 1).T)
    tables = _mc_tables(config, profile, reachable, trials)
    cell_of, base, reward = tables or (None, None, None)
    # at least two: a lone row's groups are summed pairwise, a larger
    # array's one column at a time
    rows_per_block = max(2, _BLOCK_CELLS // (n * m))

    # The workspace, allocated once per call, since fresh (B, n) arrays per
    # block cost a page fault per page.  ``paid`` holds the payments, their
    # mean over agents in the last column, then the squared deviations.
    # ``ints`` holds the flat positions i * m^2 + s * m + r (then the cells),
    # the mate draws (then the peers) and, in the disagreement variant, j and k.
    capacity = min(trials, _MC_BLOCK)
    paid = np.empty((capacity, n + 1))
    ints = np.empty((4 if disagreement else 2, capacity * n), dtype=index)
    # agent i of chunk row t sits at t * n + i; a chunk has at most
    # rows_per_block + 1 rows
    offsets = np.arange(min(capacity, rows_per_block + 1))[:, None] * n
    agent_at = agents * m  # i * m + s
    pools = pools.reshape(-1)
    # d % sizes is d itself when every mate count is the draw range
    identity = bool((sizes == draws).all())

    moments = None
    for b, lo in enumerate(range(0, trials, _MC_BLOCK)):
        size = min(_MC_BLOCK, trials - lo)
        # a lone last row joins the chunk before it
        edges = [0, *range(rows_per_block, size - 1, rows_per_block), size]
        chunks = [slice(*edge) for edge in zip(edges, edges[1:])]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        at, d, *pairs = (x[: size * n].reshape(size, n) for x in ints)
        latent.sample_signals(n, size, rng, out=at)
        at += agent_at
        for x in chunks:
            spots = at[x]
            where = spots.astype(np.intp)  # converted once, not by each take
            rows = (np.take(row, where, mode="clip") for row in thresholds)
            reports = sample_categorical(rows, rng.random(spots.shape))
            spots *= m
            spots += reports
            if tables is not None:
                spots[...] = np.take(cell_of, spots)
        _fill_integers(rng, draws, d)
        for x, high in zip(pairs, (n - 1, n - 2)):
            _fill_integers(rng, high, x)
        for x in chunks:
            spots, peers = at[x], d[x]
            if not identity:
                np.remainder(peers, sizes, out=peers)
            peers += peers >= pos  # skip agent i itself
            np.take(pools, peers + pool_at, out=peers, mode="clip")
            pair = None
            if disagreement:
                j, k = pair = (pairs[0][x], pairs[1][x])
                j += j >= agents
                # onto the agents other than i and j, in increasing order
                for bound in (np.minimum, np.maximum):
                    k += k >= bound(agents, j)
            if tables is None:
                preds = profile.predictions.reshape(n * m * m, m)[spots]
                paid[x, :n] = _round_payments(config, spots % m, preds, peers, pair)
                continue
            for agent in (peers, *(pair or ())):  # each agent's cell
                np.take(spots, agent + offsets[: len(agent)], out=agent, mode="clip")
            paid[x, :n] = _assemble_payments(
                config, partial(_lookup, base, spots), partial(_lookup, reward), peers, pair
            )
        payments = paid[:size]
        np.mean(payments[:, :n], axis=1, out=payments[:, n])
        block_moments = _moments(payments)
        moments = block_moments if moments is None else _merge_moments(moments, block_moments)

    _, mean, m2 = moments
    if not (np.isfinite(mean).all() and np.isfinite(m2).all()):
        raise MechanismError(
            "sampled payments overflow: their mean or variance is not finite "
            f"(alpha = {config.alpha:g}, beta = {config.beta:g})"
        )
    stderr = np.sqrt(m2 / trials / trials)
    return MonteCarloPayments(mean[:n], stderr[:n], float(mean[n]), float(stderr[n]))
