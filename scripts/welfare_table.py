"""Welfare comparison across benchmark strategy profiles.

Samples a validated prior, then prints the classification score, equilibrium
gap, and permutation-closeness of truth-telling, every permutation profile,
collusive and uninformative profiles, and the fixed points of symmetric
best-response dynamics.

    python3 scripts/welfare_table.py --m 3 --n 4 --seed 7 --beta 0.02
"""

import argparse
import itertools

import numpy as np

from peerpred.equilibrium import check_equilibrium, solve_prediction_stack, solved_profile
from peerpred.mechanism import _BLOCK_CELLS, MechanismConfig, MechanismError, welfare_batch
from peerpred.priors import _map_strategy, all_permutations, from_latent, random_snife_prior
from peerpred.strategy import (
    StrategyProfile,
    constant_report_profile,
    counterexample_profile,
    permutation_profile,
    tau_closeness,
    truth_telling_profile,
    uniform_report_profile,
)


def candidate_profiles(prior, n: int) -> dict[str, StrategyProfile]:
    """Named catalogue of benchmark profiles for welfare comparisons."""
    m = prior.m
    out = {"truth": truth_telling_profile(prior, n)}
    if m <= 4:
        for perm in all_permutations(m):
            if not perm.is_identity:
                name = f"permutation:{','.join(map(str, perm.mapping))}"
                out[name] = permutation_profile(prior, n, perm)
    for target in range(m):
        out[f"constant:{prior.space.labels[target]}"] = constant_report_profile(prior, n, target)
    out["uniform"] = uniform_report_profile(prior, n)
    if n == m:
        out["counterexample"] = counterexample_profile(prior, n)
    return out


def symmetric_fixed_points(
    config, prior, n: int
) -> dict[tuple[int, ...], tuple[StrategyProfile, float]]:
    """Fixed points of best-response dynamics on the m^m deterministic
    symmetric signal maps, in sorted order, each with its solved profile and
    that profile's equilibrium max gap.

    For each map, all agents play it with solved predictions; the
    best-response map sends each private signal to the optimal report.  A map
    is fixed when it is its own best response.  The maps are solved in
    stacks of at most ``_BLOCK_CELLS`` prediction entries (at least one map),
    each member bit for bit as alone, and a fixed point keeps a copy of its
    member only, so memory stays bounded whatever m^m.
    """
    m = prior.m
    maps = list(itertools.product(range(m), repeat=m))
    per_stack = max(1, _BLOCK_CELLS // (n * m**3))
    fixed = {}
    for lo in range(0, len(maps), per_stack):
        stack = maps[lo : lo + per_stack]
        thetas = np.repeat(np.stack([_map_strategy(g) for g in stack])[:, None], n, axis=1)
        predictions, _ = solve_prediction_stack(config, prior, thetas)
        for g, theta, prediction in zip(stack, thetas, predictions):
            profile = StrategyProfile(theta.copy(), prediction.copy())
            report = check_equilibrium(config, prior, profile)
            if tuple(report.values[0].argmax(axis=-1).tolist()) == g:
                fixed[g] = (profile, report.max_gap)
    return fixed


def welfare_comparison(config, prior, n: int, include_dynamics: bool = True) -> list[tuple]:
    """Rows (name, classification score, equilibrium max gap, tau-closeness of
    the mean strategy, margin to truth) of the benchmark profiles, sorted
    best first.

    Covers truth-telling, every permutation profile, constant-report
    collusion, uniform reporting with solved predictions, the one-agent-per-
    signal counterexample when n = m, and (optionally) the fixed points of
    symmetric best-response dynamics with solved predictions.  Every profile
    is scored in one batch, each bit for bit as alone.
    """
    config.warn_if_outside_regime(prior.m)
    profiles = candidate_profiles(prior, n)
    profiles["uniform"] = solved_profile(config, prior, profiles.pop("uniform").thetas)
    gaps = {}  # a fixed point's gap from its own search
    if include_dynamics:
        for g, (profile, gap) in symmetric_fixed_points(config, prior, n).items():
            name = f"solved:{','.join(map(str, g))}"
            profiles[name], gaps[name] = profile, gap

    scores = dict(zip(profiles, welfare_batch([prior] * len(profiles), list(profiles.values()))))
    truth_score = scores["truth"].classification_score
    rows = []
    for name, profile in profiles.items():
        score = scores[name].classification_score
        gap = gaps[name] if name in gaps else check_equilibrium(config, prior, profile).max_gap
        closeness = tau_closeness(profile.thetas.mean(axis=0))
        rows.append((name, score, gap, closeness, truth_score - score))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--rule", default="log", choices=("log", "quadratic"))
    parser.add_argument("--no-dynamics", action="store_true")
    args = parser.parse_args(argv)
    if args.m < 2:
        parser.error("--m must be at least 2")
    if args.n < 2:
        parser.error("--n must be at least 2")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    beta = args.beta if args.beta is not None else 1.0 / (8.0 * args.m)
    try:
        config = MechanismConfig(alpha=args.alpha, beta=beta, rule=args.rule)
    except MechanismError as exc:
        parser.error(str(exc))
    prior = from_latent(random_snife_prior(args.m, 2, seed=args.seed))

    rows = welfare_comparison(config, prior, args.n, include_dynamics=not args.no_dynamics)
    width = max(len(name) for name, *_ in rows)
    print(f"{'profile':<{width}}  {'score':>12}  {'eq gap':>10}  {'tau*':>8}  {'vs truth':>12}")
    for name, score, gap, closeness, margin in rows:
        print(
            f"{name:<{width}}  {score:>12.6f}  {gap:>10.2e}  {closeness:>8.4f}  {-margin:>+12.6f}"
        )


if __name__ == "__main__":
    main()
