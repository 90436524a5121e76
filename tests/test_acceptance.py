"""Acceptance battery: every criterion at its pinned tolerance.

Each test runs one criterion through the runner that ``peerpred suite``
uses and prints its pass/fail line.  Criterion 5's array enumeration of the
average welfare is checked against the report-by-report loop it replaced.
"""

import itertools

import numpy as np
import pytest

from peerpred import acceptance
from peerpred.mechanism import Matching, MechanismConfig, Report, realized_payments
from peerpred.priors import from_latent, random_snife_prior


@pytest.mark.parametrize(
    "number",
    range(1, len(acceptance.CRITERIA) + 1),
    ids=[check.__name__.replace("criterion_", "") for _, check in acceptance.CRITERIA],
)
def test_criterion(number):
    result = acceptance.run(number)
    print(result.line())
    assert result.passed, result.line()


def oracle_enumerated_average_welfare(config, latent, profile):
    """Average per-agent expected payment, one signal vector and one report
    vector at a time: every report vector of positive probability becomes n
    :class:`Report` objects, scored under every (peer assignment, pair
    assignment) matching in one ``realized_payments`` call."""
    n, m = profile.n, profile.m
    group_a, group_b = config.groups(n)
    peer_choices = []
    for i in range(n):
        own = group_a if i in group_a else group_b
        peer_choices.append([j for j in own if j != i])
    pair_options = [
        [(j, k) for j in range(n) if j != i for k in range(n) if k != i and k != j]
        for i in range(n)
    ]
    num_pairs = len(pair_options[0])
    peer_cfgs = np.array(list(itertools.product(*peer_choices)))
    pair_cfgs = np.array([[pair_options[i][t] for i in range(n)] for t in range(num_pairs)])
    # every (peer assignment, pair assignment) combination is one round
    matching = Matching(
        np.repeat(peer_cfgs, num_pairs, axis=0), np.tile(pair_cfgs, (len(peer_cfgs), 1, 1))
    )

    states = range(latent.num_states)
    total = 0.0
    for signals in itertools.product(range(m), repeat=n):
        p_signals = sum(
            latent.state_probs[t] * np.prod([latent.emissions[t, s] for s in signals])
            for t in states
        )
        if p_signals == 0.0:
            continue
        support = [np.nonzero(profile.thetas[i][:, signals[i]] > 0)[0] for i in range(n)]
        for reports_vec in itertools.product(*support):
            p_reports = np.prod(
                [profile.thetas[i][reports_vec[i], signals[i]] for i in range(n)]
            )
            reports = [
                Report(reports_vec[i], profile.predictions[i, signals[i], reports_vec[i]])
                for i in range(n)
            ]
            pays = realized_payments(config, reports, matching)
            total += p_signals * p_reports / n * pays.sum() / len(pays)
    return total


@pytest.mark.parametrize(
    "n, rule, deterministic, group_a",
    [
        (4, "quadratic", False, None),
        (4, "log", True, None),
        (4, "log", False, (0, 3)),
        (5, "quadratic", True, (1, 2, 4)),
        (5, "log", True, None),
    ],
)
def test_enumeration_matches_the_per_report_oracle(n, rule, deterministic, group_a):
    m = 2
    latent = random_snife_prior(m, 2, seed=50 + n)
    config = MechanismConfig(1.0, 1.0 / (8.0 * m), rule, "disagreement", group_a=group_a)
    rng = np.random.default_rng(n)
    profile = acceptance._random_profile(rng, from_latent(latent), n, deterministic)
    enumerated = acceptance._enumerated_average_welfare(config, latent, profile)
    oracle = oracle_enumerated_average_welfare(config, latent, profile)
    assert abs(enumerated - oracle) <= 1e-16
