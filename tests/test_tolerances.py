"""The probability-table rule at every site that checks a table: each defect
gets the verdict of the oracle rule, with no warning."""

import numpy as np
import pytest

from conftest import reference_is_probability_table
from peerpred.io import FormatError, prior_from_dict
from peerpred.mechanism import MechanismError, Report
from peerpred.priors import LatentStatePrior, PriorError, SignalSpace
from peerpred.strategy import ProfileError, StrategyProfile, validate_signal_strategy
from peerpred.tolerances import PROBABILITY_TOL, STOCHASTIC_TOL, probability_table_fault

ROW = np.array([0.5, 0.3, 0.2])  # sums to 1 exactly
SPACE = SignalSpace.of_size(3)
COLUMNS = np.tile(ROW[:, None], (1, 3))
THETAS = np.tile(COLUMNS, (2, 1, 1))
PREDICTIONS = np.tile(ROW, (2, 3, 3, 1))


def pairwise_file(marginal, conditional):
    """Read a pairwise prior file's tables, where a pairwise prior is checked."""
    data = {"signals": list(SPACE.labels), "kind": "pairwise"}
    return prior_from_dict({**data, "marginal": marginal.tolist(), "conditional": conditional.tolist()})


# site: (valid table, axis of its probability vectors, tolerance, build from the table)
SITES = {
    "latent-state-probs": (
        ROW, 0, PROBABILITY_TOL, lambda t: LatentStatePrior(SPACE, t, np.tile(ROW, (3, 1)))
    ),
    "latent-emissions": (
        np.tile(ROW, (2, 1)), 1, PROBABILITY_TOL, lambda t: LatentStatePrior(SPACE, [0.5, 0.5], t)
    ),
    "pairwise-file-marginal": (ROW, 0, PROBABILITY_TOL, lambda t: pairwise_file(t, COLUMNS)),
    "pairwise-file-conditional": (COLUMNS, 0, PROBABILITY_TOL, lambda t: pairwise_file(ROW, t)),
    "profile-thetas": (THETAS, 1, STOCHASTIC_TOL, lambda t: StrategyProfile(t, PREDICTIONS)),
    "profile-predictions": (PREDICTIONS, -1, PROBABILITY_TOL, lambda t: StrategyProfile(THETAS, t)),
    "report": (ROW, 0, PROBABILITY_TOL, lambda t: Report(0, t)),
    "signal-strategy": (COLUMNS, 0, PROBABILITY_TOL, validate_signal_strategy),
}


def spoiled(site, defect):
    """The site's valid table with the vector values ``defect`` written into
    its last probability vector."""
    table, axis = SITES[site][:2]
    table = table.copy()
    vectors = np.moveaxis(table, axis, -1)
    vectors[(-1,) * (vectors.ndim - 1)] = defect
    return table


def accepted(site, table) -> bool:
    try:
        SITES[site][3](table)
    except (FormatError, MechanismError, PriorError, ProfileError):
        return False
    return True


# defect: the values of one probability vector, given the site's tolerance
DEFECTS = {
    "valid": lambda tol: ROW,
    "zero": lambda tol: [0.0, 0.8, 0.2],
    "negative": lambda tol: [-0.25, 0.75, 0.5],
    "nan": lambda tol: [0.5, np.nan, 0.2],
    "inf": lambda tol: [np.inf, 0.3, 0.2],
    "minus-inf": lambda tol: [-np.inf, 0.3, 0.2],
    "huge": lambda tol: [1e308, 1e308, 1e308],
    "huge-entry": lambda tol: [1e308, 0.0, 0.0],
    "above-one": lambda tol: [1.0 + 2.0 * tol, 0.0, 0.0],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("defect", DEFECTS)
def test_verdict_matches_oracle(site, defect):
    axis, tol = SITES[site][1:3]
    table = spoiled(site, DEFECTS[defect](tol))
    assert accepted(site, table) == reference_is_probability_table(table, axis, tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", SITES)
def test_sums_at_the_tolerance_get_the_oracle_verdict(site):
    """Sums a few ulp either side of 1 + tol and of 1 - tol: the verdicts
    agree with the oracle, and each side is both accepted and refused."""
    table, axis, tol = SITES[site][:3]
    for sign in (1.0, -1.0):
        verdicts = set()
        for k in range(-4, 5):
            last = ROW[-1] + sign * tol + k * np.finfo(float).eps
            edge = spoiled(site, [*ROW[:-1], last])
            verdict = reference_is_probability_table(edge, axis, tol)
            assert accepted(site, edge) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}


@pytest.mark.parametrize(
    "table, fault",
    [
        (np.empty((0, 3)), "no entries"),
        (np.array([0.5, np.nan, 0.5]), "a negative or NaN entry"),
        (np.array([1.0 + 2e-9, 0.0]), "an entry above 1"),
        (np.array([0.5, 0.5 + 3e-9]), "a sum that misses 1 by 3.0e-09, more than 1e-09"),
        (np.array([0.5, 0.5 + 3e-10]), None),
    ],
)
def test_fault_names_what_failed_first(table, fault):
    assert probability_table_fault(table, 0, PROBABILITY_TOL) == fault
