"""f-divergences between finite distributions.

The divergence of ``p`` from ``q`` under a convex generator ``f`` with
``f(1) = 0`` is ``D_f(p, q) = sum_s q(s) f(p(s) / q(s))``.  The generator
``(sqrt(x) - 1)^2`` gives the Hellinger divergence in its un-halved form,

    D*(p, q) = sum_s (sqrt(p(s)) - sqrt(q(s)))^2,

which ranges over [0, 2] (2 on disjoint supports) and whose square root is a
metric.  ``x log x`` gives KL(p||q).

Post-processing both arguments by one column-stochastic matrix ``theta`` never
increases an f-divergence, with equality exactly when no theta-row mixes two
signals carrying different likelihood ratios; :func:`monotonicity_strict_predicate`
evaluates that condition directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConvexGenerator",
    "HELLINGER",
    "KL",
    "get_generator",
    "f_divergence",
    "hellinger",
    "monotonicity_strict_predicate",
    "convex_gap_lower_bound",
    "DivergenceDomainError",
]


class DivergenceDomainError(ValueError):
    """Raised when a generator is evaluated outside its domain (e.g. KL with
    q(s) = 0 but p(s) > 0)."""


@dataclass(frozen=True)
class ConvexGenerator:
    """Convex generator f on (0, inf) with f(1) = 0.

    ``slope_at_inf`` is lim_{x->inf} f(x)/x, used for terms with q(s) = 0 and
    p(s) > 0; ``math.inf`` marks an unbounded generator that must error there.
    ``d2`` is the second derivative, used for curvature lower bounds.
    """

    id: str
    f: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    slope_at_inf: float

    def d2_lower_bound(self, lo: float, hi: float) -> float:
        """Lower bound of f'' on [lo, hi], by scanning a fine grid plus endpoints."""
        xs = np.linspace(lo, hi, 1025)
        return float(np.min(self.d2(xs)))


HELLINGER = ConvexGenerator(
    id="hellinger",
    f=lambda x: (np.sqrt(x) - 1.0) ** 2,
    d2=lambda x: 0.5 * np.asarray(x, dtype=float) ** (-1.5),
    slope_at_inf=1.0,
)

KL = ConvexGenerator(
    id="kl",
    f=lambda x: np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0),
    d2=lambda x: 1.0 / np.asarray(x, dtype=float),
    slope_at_inf=math.inf,
)

_GENERATORS = {"hellinger": HELLINGER, "kl": KL}


def get_generator(gen_id: str) -> ConvexGenerator:
    try:
        return _GENERATORS[gen_id]
    except KeyError:
        raise DivergenceDomainError(
            f"unknown generator {gen_id!r}; available: {sorted(_GENERATORS)}"
        ) from None


def hellinger(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hellinger divergence sum_s (sqrt(p) - sqrt(q))^2 over the last axis.

    Broadcasts over leading axes.  Exactly zero when p and q hold identical
    values, since the square roots cancel elementwise.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = np.sqrt(p) - np.sqrt(q)
    return np.sum(d * d, axis=-1)


def f_divergence(gen: ConvexGenerator | str, p, q) -> float:
    """D_f(p, q) = sum_s q(s) f(p(s)/q(s)) with the 0-mass conventions.

    Terms with q(s) = 0 contribute p(s) * lim f(x)/x; an unbounded generator
    (KL) raises :class:`DivergenceDomainError` when such a term has p(s) > 0.
    """
    if isinstance(gen, str):
        gen = get_generator(gen)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DivergenceDomainError(f"shape mismatch {p.shape} vs {q.shape}")
    if gen.id == "hellinger":
        # closed form is exact and needs no ratio conventions
        return float(hellinger(p, q))
    support = q > 0.0
    escaped = p[~support]
    total = 0.0
    if escaped.size and np.any(escaped > 0.0):
        if math.isinf(gen.slope_at_inf):
            s = int(np.nonzero(~support & (p > 0.0))[0][0])
            raise DivergenceDomainError(
                f"generator {gen.id!r} is unbounded but q is zero at index {s} with p > 0"
            )
        total += gen.slope_at_inf * float(escaped.sum())
    qs = q[support]
    total += float(np.sum(qs * gen.f(p[support] / qs)))
    return total


def monotonicity_strict_predicate(
    theta: np.ndarray, p, q, tol: float = 1e-12
) -> bool:
    """Whether post-processing by ``theta`` strictly lowers the divergence.

    True iff some row of ``theta`` carries positive p-mass from two signals
    whose p:q likelihood ratios differ, i.e. there exist s, s', s'' with
    theta[s, s'] p(s') > 0, theta[s, s''] p(s'') > 0 and
    p(s'') / p(s') != q(s'') / q(s') (compared by cross products at ``tol``).
    For strictly convex generators this is equivalent to
    D_f(theta p, theta q) < D_f(p, q).
    """
    theta = np.asarray(theta, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = p.size
    if theta.shape != (m, m) or q.shape != p.shape:
        raise DivergenceDomainError(
            f"shape mismatch: theta {theta.shape}, p {p.shape}, q {q.shape}"
        )
    mass = theta * p[None, :]
    for row in range(m):
        active = np.nonzero(mass[row] > 0.0)[0]
        if active.size < 2:
            continue
        pa, qa = p[active], q[active]
        # ratios differ iff p(s'') q(s') != p(s') q(s'')
        cross = np.abs(pa[:, None] * qa[None, :] - pa[None, :] * qa[:, None])
        if np.max(cross) > tol:
            return True
    return False


def convex_gap_lower_bound(weights, points, idx1: int, idx2: int, d2: float) -> float:
    """Jensen-gap lower bound from two weighted points.

    For any convex g with g'' >= d2 on the relevant interval,
    sum_u w_u g(x_u) - g(sum_u w_u x_u) >= (d2 / 2) * w1 w2 / (w1 + w2) * ||x1 - x2||^2.
    """
    weights = np.asarray(weights, dtype=float)
    points = np.asarray(points, dtype=float)
    w1, w2 = float(weights[idx1]), float(weights[idx2])
    if w1 + w2 <= 0.0:
        raise DivergenceDomainError("the two selected weights must not both be zero")
    diff = np.atleast_1d(points[idx1] - points[idx2])
    return 0.5 * d2 * (w1 * w2 / (w1 + w2)) * float(np.dot(diff, diff))
