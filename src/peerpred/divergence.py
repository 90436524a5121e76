"""The Hellinger divergence and the strictness of information monotonicity.

The un-halved Hellinger divergence between finite distributions,

    D*(p, q) = sum_s (sqrt(p(s)) - sqrt(q(s)))^2,

is the f-divergence of the generator ``(sqrt(x) - 1)^2``; it ranges over
[0, 2] (2 on disjoint supports) and its square root is a metric.

Post-processing both arguments by one column-stochastic matrix ``theta`` never
increases an f-divergence, with equality exactly when no theta-row mixes two
signals carrying different likelihood ratios; :func:`monotonicity_strict_predicate`
evaluates that condition directly.
"""

from __future__ import annotations

import numpy as np

from .tolerances import RATIO_TOL

__all__ = [
    "hellinger",
    "monotonicity_strict_predicate",
    "DivergenceDomainError",
]


class DivergenceDomainError(ValueError):
    """Raised for arguments outside a divergence's domain, such as mismatched
    shapes."""


def hellinger(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hellinger divergence sum_s (sqrt(p) - sqrt(q))^2 over the last axis.

    Broadcasts over leading axes.  Exactly zero when p and q hold identical
    values, since the square roots cancel elementwise.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = np.sqrt(p) - np.sqrt(q)
    return np.sum(d * d, axis=-1)


def monotonicity_strict_predicate(theta: np.ndarray, p, q) -> np.ndarray:
    """Whether post-processing by ``theta`` strictly lowers the divergence.

    True iff some row of ``theta`` carries positive p-mass from two signals
    whose p:q likelihood ratios differ, i.e. there exist s, s', s'' with
    theta[s, s'] p(s') > 0, theta[s, s''] p(s'') > 0 and
    p(s'') / p(s') != q(s'') / q(s') (compared by cross products at ``RATIO_TOL``).
    For strictly convex generators this is equivalent to
    D_f(theta p, theta q) < D_f(p, q).  Takes stacks, theta of shape
    (..., m, m) with p and q of shape (..., m), and returns a bool per entry.
    """
    theta = np.asarray(theta, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim == 0 or theta.shape != p.shape + p.shape[-1:] or q.shape != p.shape:
        raise DivergenceDomainError(
            f"shape mismatch: theta {theta.shape}, p {p.shape}, q {q.shape}"
        )
    # active[..., row, s]: row carries positive p-mass from signal s
    active = theta * p[..., None, :] > 0.0
    # ratios differ iff p(s'') q(s') != p(s') q(s'')
    cross = np.abs(p[..., :, None] * q[..., None, :] - p[..., None, :] * q[..., :, None])
    differ = cross > RATIO_TOL
    mixed = active[..., :, :, None] & active[..., :, None, :] & differ[..., None, :, :]
    return mixed.any(axis=(-3, -2, -1))
