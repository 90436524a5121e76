"""Welfare-gap and aggregation-error scaling against the closed-form bounds.

For a sampled prior, sweeps the number of agents and reports (a) the largest
welfare excess of solved random profiles over truth-telling next to the
4*sqrt(2)*m/sqrt(n) ceiling, and (b) the leave-one-out aggregation error next
to its 1/n trend.

    python3 scripts/bound_sweep.py --m 2 --ns 64,128,256,512 --seed 1
"""

import argparse

import numpy as np

from peerpred.audits import aggregation_error_audit, sweep_row
from peerpred.mechanism import MechanismConfig
from peerpred.priors import from_latent, gamma2, random_snife_prior
from peerpred.strategy import random_signal_strategy


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--ns", default="64,128,256,512")
    parser.add_argument("--samples", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    prior = from_latent(random_snife_prior(args.m, 2, seed=args.seed))
    config = MechanismConfig(alpha=1.0, beta=1.0 / (8.0 * args.m), rule="log")
    ns = [int(x) for x in args.ns.split(",")]
    bounds = [gamma2(prior, n) for n in ns]
    # one fixed deviant among truth-tellers isolates the 1/n aggregation trend
    deviant = random_signal_strategy(np.random.default_rng(args.seed), args.m)

    print(f"{'n':>6}  {'max gap':>12}  {'gamma2(n)':>12}  {'agg error':>12}  {'n*error':>10}")
    for n, bound in zip(ns, bounds):
        max_gap = sweep_row(config, prior, n, args.samples, np.random.default_rng([args.seed, n]))
        thetas = np.broadcast_to(np.eye(args.m), (n, args.m, args.m)).copy()
        thetas[0] = deviant
        err = aggregation_error_audit(prior, thetas, eps=10.0).lhs
        print(
            f"{n:>6}  {max_gap:>12.6f}  {bound:>12.6f}  {err:>12.3e}  {err * n:>10.5f}"
        )


if __name__ == "__main__":
    main()
