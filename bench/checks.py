"""Output checks of the benchmark's operations.

Each ``check_*`` function takes the output of one operation (CLI stdout text,
or the value a library call returned) and returns ``None`` when it is
correct, or a one-line reason otherwise.  The checks run outside the timed
region.  Reference values are recomputed here with numpy, independently of
the code under test, except where noted.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from peerpred import divergence

TOL = 1e-12
RESIDUAL_TOL = 1e-10
ZERO_SUM_TOL = 1e-9
MC_SIGMAS = 4.0


def rows_of(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def welfare_reference(joint, thetas, predictions) -> tuple[float, float]:
    """(diversity, total divergence) of a profile, computed bilinearly.

    D*(x, y) = |x| + |y| - 2 <sqrt x, sqrt y>, so the sum over ordered agent
    pairs j != k is the sum over all pairs, built from per-report totals over
    agents, minus the j == k terms.  Costs O(n m^5) instead of the O(n^2 m^5)
    of the pairwise loop it checks.
    """
    n = thetas.shape[0]
    t = thetas.transpose(0, 2, 1)  # t[j, a, r] = Pr(report r | signal a)
    root = np.sqrt(predictions)  # [j, a, r, u]
    tm = t * predictions.sum(axis=-1)
    tr = t[..., None] * root
    total_t, total_tm, total_tr = t.sum(axis=0), tm.sum(axis=0), tr.sum(axis=0)
    all_pairs = (
        np.einsum("ar,bs->arbs", total_tm, total_t)
        + np.einsum("ar,bs->arbs", total_t, total_tm)
        - 2.0 * np.einsum("aru,bsu->arbs", total_tr, total_tr)
    )
    same_agent = (
        np.einsum("jar,jbs->arbs", tm, t)
        + np.einsum("jar,jbs->arbs", t, tm)
        - 2.0 * np.einsum("jaru,jbsu->arbs", tr, tr)
    )
    d = (all_pairs - same_agent) * joint[:, None, :, None] / (n * (n - 1))
    differ = ~np.eye(d.shape[1], dtype=bool)[None, :, None, :]
    return float(np.sum(d * differ)), float(np.sum(d))


def check_welfare(text, reference) -> str | None:
    """``reference()`` gives (diversity, total divergence)."""
    rows = rows_of(text)
    if len(rows) != 1:
        return f"welfare: expected one row, got {len(rows)}"
    r = {k: float(v) for k, v in rows[0].items()}
    if abs(r["classification_score"] - (r["diversity"] - r["inconsistency"])) > TOL:
        return "welfare: classification != diversity - inconsistency"
    if r["total_divergence"] < r["diversity"] - TOL:
        return "welfare: total divergence below diversity"
    diversity, total = reference()
    if abs(r["diversity"] - diversity) > TOL or abs(r["total_divergence"] - total) > TOL:
        return (
            f"welfare: (diversity, total) = ({r['diversity']!r}, {r['total_divergence']!r}), "
            f"recomputed ({diversity!r}, {total!r})"
        )
    return None


def check_gaps(text, n: int, m: int, equilibrium: bool, eps: float, label: str) -> str | None:
    """Rows with a ``gap`` column (check-eq, exact payout): one per (agent,
    signal), none below -TOL, and all within ``eps`` for an equilibrium."""
    rows = rows_of(text)
    if len(rows) != n * m:
        return f"{label}: expected {n * m} rows, got {len(rows)}"
    gaps = np.array([float(r["gap"]) for r in rows])
    if "payoff" in rows[0] and not all(math.isfinite(float(r["payoff"])) for r in rows):
        return f"{label}: non-finite payoff"
    if np.min(gaps) < -TOL:
        return f"{label}: negative gap {np.min(gaps)!r}"
    if equilibrium and np.max(gaps) > eps:
        return f"{label}: equilibrium profile has gap {np.max(gaps)!r} > {eps}"
    return None


def fixed_point_residual(conditional, thetas, predictions, alpha: float, beta: float) -> float:
    """Sup-norm change of one step of the equilibrium-prediction map.

    The map sends agent i's prediction at (signal s, report r) to the mixture
    (alpha * anchor + beta * neighbor_mix) / (alpha + beta * neighbor_weight)
    over the other agents j, each weighted by q(v|s) theta_j[r, v].
    """
    n = thetas.shape[0]
    loo = (thetas.sum(axis=0)[None] - thetas) / (n - 1)  # leave-one-out theta
    anchor = np.einsum("iuv,vs->isu", loo, conditional)
    w = np.einsum("vs,jrv->jsr", conditional, thetas)
    y = np.einsum("vs,jrv,jvru->jsru", conditional, thetas, predictions)
    neighbor_w = (w.sum(axis=0)[None] - w) / (n - 1)
    neighbor_mix = (y.sum(axis=0)[None] - y) / (n - 1)
    step = (alpha * anchor[:, :, None, :] + beta * neighbor_mix) / (
        alpha + beta * neighbor_w
    )[..., None]
    return float(np.max(np.abs(step - predictions)))


def check_solve(text, labels, conditional, thetas, alpha, beta) -> str | None:
    rows = rows_of(text)
    n, m = thetas.shape[0], thetas.shape[1]
    if len(rows) != n * m * m:
        return f"solve-predictions: expected {n * m * m} rows, got {len(rows)}"
    index = {label: k for k, label in enumerate(labels)}
    predictions = np.empty((n, m, m, m))
    for row in rows:
        i, s, r = int(row["agent"]), index[row["signal"]], index[row["report"]]
        predictions[i, s, r] = [float(row[f"p_{u}"]) for u in labels]
    residual = fixed_point_residual(conditional, thetas, predictions, alpha, beta)
    if residual > RESIDUAL_TOL:
        return f"solve-predictions: fixed-point residual {residual!r}"
    return None


def check_mc(text, n: int, reference) -> str | None:
    """Sampled average welfare within MC_SIGMAS standard errors of
    ``reference()``, the exact expected average payment."""
    rows = rows_of(text)
    if len(rows) != n + 1 or rows[-1]["agent"] != "average":
        return f"payout --trials: expected {n} agent rows and an average row"
    mean, stderr = float(rows[-1]["mean_payment"]), float(rows[-1]["stderr"])
    exact = reference()
    if not stderr > 0.0 or abs(mean - exact) > MC_SIGMAS * stderr:
        return f"payout --trials: sampled {mean!r} +- {stderr!r}, exact {exact!r}"
    return None


def check_flags(text, column: str, label: str, expected_rows: int | None = None) -> str | None:
    """Every row's boolean ``column`` (``passed``, ``within_bound``) is True."""
    rows = rows_of(text)
    if not rows or (expected_rows is not None and len(rows) != expected_rows):
        return f"{label}: expected {expected_rows or 'some'} rows, got {len(rows)}"
    failed = [r.get("name", r.get("n")) for r in rows if r[column] != "True"]
    if failed:
        return f"{label}: {column} is False for {failed}"
    return None


def check_rounds(payments_per_round, rounds) -> str | None:
    """Base payments (total minus the classification reward, recomputed with
    ``hellinger`` from the program) sum to zero in every round.

    ``rounds`` holds (reported signals, predictions, pairs) arrays per round.
    """
    for index, (payments, (reports, predictions, pairs)) in enumerate(
        zip(payments_per_round, rounds)
    ):
        j, k = pairs[:, 0], pairs[:, 1]
        d = np.asarray(divergence.hellinger(predictions[j], predictions[k]))
        reward = np.where(reports[j] != reports[k], d, -np.sqrt(d))
        residual = abs(float(np.sum(np.asarray(payments) - reward)))
        if not residual <= ZERO_SUM_TOL:
            return f"realized_payments: round {index} base payments sum to {residual!r}"
    return None
