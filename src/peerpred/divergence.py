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


def monotonicity_strict_predicate(theta: np.ndarray, p, q) -> bool:
    """Whether post-processing by ``theta`` strictly lowers the divergence.

    True iff some row of ``theta`` carries positive p-mass from two signals
    whose p:q likelihood ratios differ, i.e. there exist s, s', s'' with
    theta[s, s'] p(s') > 0, theta[s, s''] p(s'') > 0 and
    p(s'') / p(s') != q(s'') / q(s') (compared by cross products at ``RATIO_TOL``).
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
        if np.max(cross) > RATIO_TOL:
            return True
    return False

