"""Signal spaces and common priors for peer-prediction games.

A prior is represented by its first two moments: the marginal q(sigma) of a
single agent's private signal and the conditional matrix q(sigma'|sigma) of a
peer's signal given one's own.  The conditional is stored with columns as the
conditioning signal: ``conditional[a, b] = q(sigma_a | sigma_b)``, so that
``conditional[:, s]`` is the distribution of a peer's signal given own signal
``s`` (written ``q_s`` throughout).

A full exchangeable joint for any number of agents is supplied by
:class:`LatentStatePrior`, a conditionally-i.i.d. model: a latent state is
drawn, then every agent's signal is drawn independently from the state's
emission row.  Its derived pairwise moments satisfy pairwise symmetry by
construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import DEFAULT_TOL, PROBABILITY_TOL, SAMPLED_PRIOR_TOL, probability_table_fault

__all__ = [
    "SignalSpace",
    "PairwisePrior",
    "LatentStatePrior",
    "AssumptionReport",
    "PermutationMap",
    "PriorConstants",
    "PriorError",
    "from_latent",
    "validate_snife",
    "permute_prior",
    "random_snife_prior",
    "prior_constants",
    "gamma2",
    "all_permutations",
    "sample_categorical",
]


class PriorError(ValueError):
    """Raised when a prior fails structural validation."""


def default_labels(m: int) -> tuple[str, ...]:
    return tuple(f"s{i + 1}" for i in range(m))


@dataclass(frozen=True)
class SignalSpace:
    """An ordered finite set of signal labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise PriorError(f"signal labels must be unique, got {self.labels}")
        if len(self.labels) < 2:
            raise PriorError("a signal space needs at least two signals")

    @property
    def m(self) -> int:
        return len(self.labels)

    @classmethod
    def of_size(cls, m: int) -> "SignalSpace":
        return cls(default_labels(m))

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class PairwisePrior:
    """First two moments of a symmetric prior.

    ``conditional[a, b] = q(sigma_a | sigma_b)``; column ``b`` is the peer
    distribution given own signal ``b``.  Construction here checks shapes and
    finiteness only.  A prior file's stochasticity is checked where it is
    read (:func:`peerpred.io.prior_from_dict`), and :func:`validate_snife`
    gives the symmetry verdict among its itemized checks.
    """

    space: SignalSpace
    marginal: np.ndarray
    conditional: np.ndarray

    def __post_init__(self):
        marginal = np.asarray(self.marginal, dtype=float)
        conditional = np.asarray(self.conditional, dtype=float)
        object.__setattr__(self, "marginal", marginal)
        object.__setattr__(self, "conditional", conditional)
        m = self.space.m
        if marginal.shape != (m,):
            raise PriorError(f"marginal shape {marginal.shape} != ({m},)")
        if conditional.shape != (m, m):
            raise PriorError(f"conditional shape {conditional.shape} != ({m}, {m})")
        if not (np.isfinite(marginal).all() and np.isfinite(conditional).all()):
            raise PriorError("marginal and conditional entries must be finite")
        marginal.setflags(write=False)
        conditional.setflags(write=False)

    @property
    def m(self) -> int:
        return self.space.m

    def joint(self) -> np.ndarray:
        """Joint ``J[a, b] = Pr(peer = a, own = b) = q(a|b) q(b)``.

        Symmetric exactly when the pairwise-symmetry invariant holds.
        """
        return self.conditional * self.marginal[None, :]

    def symmetry_residual(self) -> float:
        j = self.joint()
        return float(np.max(np.abs(j - j.T)))


@dataclass(frozen=True)
class LatentStatePrior:
    """Conditionally-i.i.d. generative prior.

    A latent state ``t`` is drawn from ``state_probs``; each agent's signal is
    then an independent draw from the row ``emissions[t]``.  The derived
    pairwise moments are identical for every number of agents.
    """

    space: SignalSpace
    state_probs: np.ndarray
    emissions: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.state_probs, dtype=float)
        emissions = np.asarray(self.emissions, dtype=float)
        object.__setattr__(self, "state_probs", probs)
        object.__setattr__(self, "emissions", emissions)
        if probs.ndim != 1 or probs.size < 1:
            raise PriorError("state_probs must be a non-empty vector")
        if probability_table_fault(probs, 0, PROBABILITY_TOL):
            raise PriorError("state_probs must be a probability vector")
        if emissions.shape != (probs.size, self.space.m):
            raise PriorError(
                f"emissions shape {emissions.shape} != ({probs.size}, {self.space.m})"
            )
        if probability_table_fault(emissions, 1, PROBABILITY_TOL):
            raise PriorError("each emissions row must be a probability vector")
        probs.setflags(write=False)
        emissions.setflags(write=False)

    @property
    def m(self) -> int:
        return self.space.m

    @property
    def num_states(self) -> int:
        return self.state_probs.size

    def marginal(self) -> np.ndarray:
        return self.state_probs @ self.emissions

    def sample_signals(
        self, n: int, trials: int, rng: np.random.Generator, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Draw ``trials`` independent rounds of ``n`` agents' signals, shape
        (trials, n), as int32 or into the integer array ``out``.

        A latent state per round from ``rng.random(trials)``, then each
        agent's signal from ``rng.random((trials, n))``, both by
        :func:`sample_categorical`.  The second uniforms are drawn a run of
        rows at a time into one buffer of at most ``_DRAW_BYTES`` (at least
        one row); each run continues the stream, so the values are those of
        the whole draw.  Memory beyond the signals is O(trials m) plus that
        buffer, whatever n, so a caller that passes ``out`` maps no (trials,
        n) temporary.
        """
        states = sample_categorical(np.cumsum(self.state_probs[:-1]), rng.random(trials))
        thresholds = np.cumsum(self.emissions[:, :-1], axis=1)[states].T[:, :, None]
        signals = np.empty((trials, n), dtype=np.int32) if out is None else out
        rows = max(1, _DRAW_BYTES // (8 * n))
        u = np.empty((min(rows, trials), n))
        for lo in range(0, trials, rows):
            hi = min(lo + rows, trials)
            rng.random(out=u[: hi - lo])
            sample_categorical(thresholds[:, lo:hi], u[: hi - lo], out=signals[lo:hi])
        return signals


# Most bytes of a temporary that holds part of a larger draw
_DRAW_BYTES = 2**16


def sample_categorical(
    thresholds: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Category index of each uniform draw ``u``, as int32 or into the
    integer array ``out`` of u's shape.

    ``thresholds`` yields (an array by rows, or any iterable) for t < m - 1
    the cumulative probability of categories 0..t, broadcast to u's shape.
    The index counts the m - 1 comparisons u >= thresholds[t].  The last
    category's cumulative sum is never read, so the index is clamped at m - 1:
    a sum that rounds to just under 1 never yields an index past it.
    """
    index = np.empty(u.shape, dtype=np.int32) if out is None else out
    index[...] = 0
    for row in thresholds:
        index += u >= row
    return index


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of checking the symmetric / non-zero / informative / fine-grained
    assumptions on a pairwise prior, with a witness for each failure."""

    symmetric_ok: bool
    nonzero_ok: bool
    informative_ok: bool
    finegrained_ok: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return (
            self.symmetric_ok
            and self.nonzero_ok
            and self.informative_ok
            and self.finegrained_ok
        )


@dataclass(frozen=True)
class PermutationMap:
    """A relabeling of signals.  ``mapping[s]`` is the image of signal ``s``;
    ``order`` is the smallest positive power equal to the identity."""

    mapping: tuple[int, ...]
    order: int = field(init=False)

    def __post_init__(self):
        mapping = tuple(int(x) for x in self.mapping)
        object.__setattr__(self, "mapping", mapping)
        m = len(mapping)
        if sorted(mapping) != list(range(m)):
            raise PriorError(f"mapping {mapping} is not a bijection on 0..{m - 1}")
        current = list(range(m))
        order = 0
        while True:
            current = [mapping[i] for i in current]
            order += 1
            if current == list(range(m)):
                break
        object.__setattr__(self, "order", order)

    @property
    def m(self) -> int:
        return len(self.mapping)

    @property
    def is_identity(self) -> bool:
        return self.order == 1

    def matrix(self) -> np.ndarray:
        """The induced 0/1 signal strategy: row ``mapping[s]``, column ``s`` is 1."""
        return _map_strategy(self.mapping)


def _map_strategy(images) -> np.ndarray:
    """The 0/1 signal strategy of the signal map s -> images[s]: row
    ``images[s]``, column ``s`` is 1."""
    m = len(images)
    theta = np.zeros((m, m))
    theta[list(images), range(m)] = 1.0
    return theta


def all_permutations(m: int) -> list[PermutationMap]:
    return [PermutationMap(p) for p in itertools.permutations(range(m))]


@dataclass(frozen=True)
class PriorConstants:
    """Prior-dependent constants entering the welfare-gap bounds.

    c1: smallest conditional entry min q(s|t).
    c2: smallest pairwise joint entry min q(t) q(s|t).
    c3: min over signal pairs (u, v), u != v, of the largest squared difference
        of conditional-ratio profiles max_{s,t} (q(u|s)/q(u|t) - q(v|s)/q(v|t))^2.
    c4: smallest second derivative of f(x) = (sqrt(x) - 1)^2 over the realized
        conditional ratios, f''(x) = x^(-3/2) / 2.
    """

    c1: float
    c2: float
    c3: float
    c4: float

    def to_dict(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "c3": self.c3, "c4": self.c4}


def from_latent(latent: LatentStatePrior) -> PairwisePrior:
    """Derive the pairwise moments of a latent-state prior.

    q(s) mixes emissions by state probability; q(s'|s) mixes emissions by the
    state posterior given s.  Pairwise symmetry holds by construction.  A
    degenerate latent model (some signal with zero marginal) is rejected since
    no conditional is defined there.
    """
    marginal = latent.marginal()
    if np.any(marginal <= 0.0):
        dead = [latent.space.labels[i] for i in np.nonzero(marginal <= 0.0)[0]]
        raise PriorError(f"degenerate latent prior: zero marginal for {dead}")
    # posterior[t, s] = Pr(state t | signal s)
    posterior = latent.state_probs[:, None] * latent.emissions / marginal[None, :]
    conditional = np.einsum("ts,ta->as", posterior, latent.emissions)
    return PairwisePrior(latent.space, marginal, conditional)


def _fine_grained_witness(conditional: np.ndarray, tol: float):
    """Return (u, v) rows whose entrywise ratio is constant across columns, or None."""
    m = conditional.shape[0]
    for u in range(m):
        for v in range(u + 1, m):
            # constant ratio q(u|.)/q(v|.) <=> all cross products q(u|s)q(v|t)
            # agree with q(u|t)q(v|s); compare products to avoid division
            cross_diff = np.abs(
                conditional[u][:, None] * conditional[v][None, :]
                - conditional[u][None, :] * conditional[v][:, None]
            )
            if np.max(cross_diff) <= tol:
                return (u, v)
    return None


def validate_snife(prior: PairwisePrior, tol: float = DEFAULT_TOL) -> AssumptionReport:
    """Check the four testable prior assumptions at tolerance ``tol``.

    Returns a report rather than raising: symmetric (two-agent joint is
    symmetric), non-zero (all marginals and conditionals > tol), informative
    (distinct signals induce distinct peer distributions), fine-grained (no two
    conditional rows are proportional).  The ensemble assumption is structural
    and carried by :class:`LatentStatePrior` construction.
    """
    witnesses: dict = {}
    c = prior.conditional

    symmetric_ok = prior.symmetry_residual() <= tol
    if not symmetric_ok:
        j = prior.joint()
        a, b = np.unravel_index(np.argmax(np.abs(j - j.T)), j.shape)
        witnesses["symmetric"] = (int(a), int(b))

    nonzero_ok = bool(np.all(prior.marginal > tol) and np.all(c > tol))
    if not nonzero_ok:
        if np.any(prior.marginal <= tol):
            witnesses["nonzero"] = (int(np.argmin(prior.marginal)),)
        else:
            a, b = np.unravel_index(np.argmin(c), c.shape)
            witnesses["nonzero"] = (int(a), int(b))

    informative_ok = True
    for s, t in itertools.combinations(range(prior.m), 2):
        if np.max(np.abs(c[:, s] - c[:, t])) <= tol:
            informative_ok = False
            witnesses["informative"] = (s, t)
            break

    fg = _fine_grained_witness(c, tol)
    finegrained_ok = fg is None
    if fg is not None:
        witnesses["finegrained"] = fg

    return AssumptionReport(symmetric_ok, nonzero_ok, informative_ok, finegrained_ok, witnesses)


def permute_prior(prior: PairwisePrior, perm: PermutationMap) -> PairwisePrior:
    """Relabel signals: q'(perm(s)) = q(s), q'(perm(a)|perm(b)) = q(a|b).

    Pure reindexing, so permuting by ``perm`` and then by its inverse
    permutation restores the input bit-exactly.
    """
    if perm.m != prior.m:
        raise PriorError(f"permutation on {perm.m} signals, prior has {prior.m}")
    idx = np.asarray(perm.mapping)
    marginal = np.empty_like(prior.marginal)
    marginal[idx] = prior.marginal
    conditional = np.empty_like(prior.conditional)
    conditional[np.ix_(idx, idx)] = prior.conditional
    return PairwisePrior(prior.space, marginal, conditional)


# Draws :func:`random_snife_prior` makes before it gives up.
_MAX_PRIOR_DRAWS = 10_000


def random_snife_prior(m: int, num_states: int = 2, seed: int = 0) -> LatentStatePrior:
    """Rejection-sample a latent prior whose pairwise moments pass all checks
    at ``SAMPLED_PRIOR_TOL``, in at most ``_MAX_PRIOR_DRAWS`` draws.

    State probabilities and emission rows are uniform on the simplex
    (Dirichlet with all-ones concentration).  Deterministic for a fixed seed.
    """
    if m < 2 or num_states < 2:
        raise PriorError("need m >= 2 signals and at least 2 latent states")
    rng = np.random.default_rng(seed)
    ones = np.ones(m)  # before the labels, so that an m too large for numpy fails at once
    space = SignalSpace.of_size(m)
    for _ in range(_MAX_PRIOR_DRAWS):
        state_probs = rng.dirichlet(np.ones(num_states))
        emissions = rng.dirichlet(ones, size=num_states)
        latent = LatentStatePrior(space, state_probs, emissions)
        marginal = latent.marginal()
        if np.any(marginal <= 0.0):
            continue
        if validate_snife(from_latent(latent), tol=SAMPLED_PRIOR_TOL).all_ok:
            return latent
    raise PriorError(
        f"no valid prior found in {_MAX_PRIOR_DRAWS} draws (m={m}, states={num_states})"
    )


# a ratio past the float range is inf; the NaN spreads it gives are passed over
@np.errstate(over="ignore", invalid="ignore")
def prior_constants(prior: PairwisePrior) -> PriorConstants:
    """Evaluate c1..c4 for a prior with strictly positive conditionals."""
    c = prior.conditional
    if np.any(c <= 0.0):
        raise PriorError("prior constants need strictly positive conditionals")
    m = prior.m
    c1 = float(np.min(c))
    c2 = float(np.min(prior.joint()))

    # ratio[u, s, t] = q(u|s) / q(u|t)
    ratio = c[:, :, None] / c[:, None, :]
    # spread[u, v] = max_{s,t} (ratio[u, s, t] - ratio[v, s, t])^2, and c3 its
    # least entry off the diagonal; fmin passes over a pair whose spread is
    # NaN (from inf - inf), as Python's min over the pairs does
    spread = ((ratio[:, None] - ratio[None, :]) ** 2).max(axis=(2, 3))
    c3 = np.fmin.reduce(spread[~np.eye(m, dtype=bool)], initial=np.inf)
    # f''(x) = x^(-3/2) / 2 is decreasing, so the minimum sits at the largest ratio
    c4 = float(0.5 * np.max(ratio) ** (-1.5))
    return PriorConstants(c1, c2, float(c3), c4)


def gamma2(prior: PairwisePrior, n: int) -> float:
    """The closed-form welfare-gap bound gamma2(n) = 4 sqrt(2) m / sqrt(n) for
    n agents; raises :class:`PriorError` unless each of the prior's constants
    c1..c4 is strictly positive."""
    consts = prior_constants(prior)
    # each constant on its own: a NaN fails its own test, where a min() could skip it
    if not (consts.c1 > 0 and consts.c2 > 0 and consts.c3 > 0 and consts.c4 > 0):
        raise PriorError(f"bounds need strictly positive constants, got {consts}")
    # math.sqrt takes any int that a float can hold; np.sqrt fails past int64
    return 4.0 * math.sqrt(2.0) * prior.m / math.sqrt(n)
