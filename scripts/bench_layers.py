"""Per-layer timings of prior validation, far_from_permutation_gap,
welfare_metrics, check_equilibrium, solve_equilibrium_predictions,
classification_bound_audit, relabeling_cycle_audit, sweep_row,
save_profile, load_profile, one CLI call, aggregation_error_audit and
monte_carlo_payments.

For every signal count m a validated random prior is sampled (fixed seed) and
two profiles are built per agent count n: truth-telling, and random signal
strategies with solved equilibrium predictions ("solved").  Each layer is
timed on each profile, and the median of ``--repeats`` runs is recorded.  A
cell whose first run takes longer than BUDGET_S seconds is recorded with that
one run, and the larger n of the same (layer, profile, m) are skipped.
Setup (prior sampling, prediction solving) is not timed.

Prior validation (``load_prior`` of the sampled latent prior's JSON file, its
pairwise moments and ``validate_snife``, as ``validate-prior`` runs them) and
far_from_permutation_gap (the uniform signal strategy at tau = 1/(2m)) do not
depend on n; they run once per m of ``--ms``, with n recorded as null.

welfare_metrics, check_equilibrium, solve_equilibrium_predictions (of the
profile's signal strategies), classification_bound_audit and
relabeling_cycle_audit (swapping signals 0 and 1, five scenarios) run over
``--ns`` x ``--ms`` at beta = alpha/(8m), and solve_equilibrium_predictions
once more at beta = 10 alpha, as layer
``solve_equilibrium_predictions:beta=10``.  sweep_row, one row of ``sweep-n``
(SWEEP_SAMPLES random strategy lists drawn, solved and scored against
truth-telling), runs over the same grid as profile "random".
aggregation_error_audit runs over ``--ns`` and LARGE_N at m = 2 and 3
(eps = 10, which every n >= 3 clears) on two strategy lists: random
strategies ("random", n agent types) and truth-tellers with one random
deviant ("one-deviant", two types).
monte_carlo_payments runs ``--mc-trials`` trials (seed 0) at m = 3 and n in
``--mc-ns``, for both variants, and its rows add ``trials_per_s``.

Every timed row also records ``minflt_per_call``: the process's minor page
faults (``ru_minflt``) over its timed runs, divided by the number of runs.
A fault costs a few microseconds of system time; the count shows the
memory a layer maps afresh on each call.

The I/O layer runs at m = 3 on the solved profile: save_profile and
load_profile over ``--io-ns``, and three in-process ``cli.main`` calls at
n = LARGE_N, the agent count of the exact-large benchmark workload (prior,
mechanism and profile files in, the output to a file): ``solve-predictions
--format json --out``, which writes the solved profile, recorded as layer
``cli:solve-predictions``; and ``solve-predictions`` and ``check-eq`` with
CSV ``--out``, the n m^2 and n m row tables, recorded as layers
``cli:solve-predictions:csv`` and ``cli:check-eq:csv``.

Every run first records a ``control`` row: a fixed numpy workload (generator
fills, a sort, a matrix product and a gather) that calls nothing from
peerpred.  Only the machine's speed moves it, so comparing the control rows
of two files separates the machine's drift from the change between them.

The results go to ``BENCH_<label>.json`` with the python and numpy versions
and the CPU count, so that files written on one machine can be compared:

    python3 scripts/bench_layers.py --label before --out-dir .
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from peerpred import cli
from peerpred.audits import (
    aggregation_error_audit,
    classification_bound_audit,
    far_from_permutation_gap,
    relabeling_cycle_audit,
    sweep_row,
)
from peerpred.equilibrium import check_equilibrium, solve_equilibrium_predictions, solved_profile
from peerpred.mechanism import MechanismConfig, monte_carlo_payments, welfare_metrics
from peerpred.io import (
    load_prior,
    load_profile,
    pairwise_from_loaded,
    save_mechanism,
    save_prior,
    save_profile,
)
from peerpred.priors import PermutationMap, from_latent, random_snife_prior, validate_snife
from peerpred.strategy import random_signal_strategies, truth_telling_profile

BUDGET_S = 5.0
SEED = 7
MC_M = 3
AUDIT_MS = (2, 3)
AUDIT_EPS = 10.0
SWEEP_SAMPLES = 5
IO_M = 3
LARGE_N = 512


def _ints(text):
    return [int(x) for x in text.split(",")]


def _profiles(config, prior, n, seed):
    rng = np.random.default_rng(seed)
    thetas = random_signal_strategies(rng, prior.m, (n,))
    return {
        "truth": truth_telling_profile(prior, n),
        "solved": solved_profile(config, prior, thetas),
    }


def _control():
    """Fixed numpy work that calls nothing from peerpred."""
    rng = np.random.default_rng(SEED)
    x = rng.random((256, 256))
    np.sort(rng.random(2**18))
    np.take(x @ x, rng.integers(0, x.size, 2**18))


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _time(call, repeats):
    """Seconds of each run, stopping after the first if it took more than
    BUDGET_S, and the minor page faults per run."""
    runs = []
    faults = _minflt()
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        runs.append(time.perf_counter() - start)
        if runs[0] > BUDGET_S:
            break
    return runs, (_minflt() - faults) / len(runs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--ns", type=_ints, default=[16, 64, 256, 1024])
    parser.add_argument("--ms", type=_ints, default=[2, 3, 4, 8])
    parser.add_argument("--mc-ns", type=_ints, default=[6, 16, 32])
    parser.add_argument("--mc-trials", type=int, default=20000)
    parser.add_argument("--io-ns", type=_ints, default=[64, 512, 4096])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()

    layers = {
        "welfare_metrics": lambda config, prior, profile: welfare_metrics(prior, profile),
        "check_equilibrium": check_equilibrium,
        "solve_equilibrium_predictions": lambda config, prior, profile: (
            solve_equilibrium_predictions(config, prior, profile.thetas)
        ),
        "solve_equilibrium_predictions:beta=10": lambda config, prior, profile: (
            solve_equilibrium_predictions(
                MechanismConfig(config.alpha, 10.0 * config.alpha, config.rule),
                prior,
                profile.thetas,
            )
        ),
        "classification_bound_audit": classification_bound_audit,
        "relabeling_cycle_audit": lambda config, prior, profile: relabeling_cycle_audit(
            prior, profile, PermutationMap((1, 0, *range(2, prior.m)))
        ),
    }
    rows = []
    over_budget = set()

    def record(layer, name, m, n, call):
        row = {"layer": layer, "profile": name, "m": m, "n": n}
        if (layer, name, m) in over_budget:
            rows.append({**row, "skipped": True})
            return
        runs, faults = _time(call, args.repeats)
        if runs[0] > BUDGET_S:
            over_budget.add((layer, name, m))
        median = statistics.median(runs)
        rows.append({**row, "median_s": median, "runs": len(runs), "minflt_per_call": faults})
        size = "" if n is None else n
        cell = f"{layer:<29} {name:<11} {m:>2} {size:>5}"
        print(f"{cell} {median:>10.3g} {len(runs):>4} {faults:>8.0f}")

    header = f"{'profile':<11} {'m':>2} {'n':>5} {'median_s':>10} {'runs':>4} {'minflt':>8}"
    print(f"{'layer':<29} {header}")
    runs, faults = _time(_control, args.repeats)
    median = statistics.median(runs)
    rows.append(
        {"layer": "control", "median_s": median, "runs": len(runs), "minflt_per_call": faults}
    )
    cell = f"{'control':<29} {'':<11} {'':>2} {'':>5}"
    print(f"{cell} {median:>10.3g} {len(runs):>4} {faults:>8.0f}")
    with tempfile.TemporaryDirectory() as scratch:
        for m in args.ms:
            latent = random_snife_prior(m, 2, seed=SEED + m)
            prior = from_latent(latent)
            config = MechanismConfig(alpha=1.0, beta=1.0 / (8.0 * m), rule="log")
            path = Path(scratch) / f"prior{m}.json"
            save_prior(latent, path)
            record(
                "validate_prior",
                "latent",
                m,
                None,
                lambda: validate_snife(pairwise_from_loaded(load_prior(path))),
            )
            uniform = np.full((m, m), 1.0 / m)
            record(
                "far_from_permutation_gap",
                "uniform",
                m,
                None,
                lambda: far_from_permutation_gap(prior, uniform, tau=1.0 / (2.0 * m)),
            )
            for n in sorted(args.ns):
                profiles = _profiles(config, prior, n, seed=SEED + 1000 * m + n)
                for layer, run in layers.items():
                    for name, profile in profiles.items():
                        record(layer, name, m, n, lambda: run(config, prior, profile))
                record(
                    "sweep_row",
                    "random",
                    m,
                    n,
                    lambda: sweep_row(config, prior, n, SWEEP_SAMPLES, np.random.default_rng(SEED)),
                )

        latent = random_snife_prior(IO_M, 2, seed=SEED + IO_M)
        prior = from_latent(latent)
        config = MechanismConfig(alpha=1.0, beta=1.0 / (8.0 * IO_M), rule="log")
        files = {name: Path(scratch) / f"io-{name}.json" for name in ("prior", "mech", "out")}
        save_prior(latent, files["prior"])
        save_mechanism(config, files["mech"])
        for n in sorted({*args.io_ns, LARGE_N}):
            solved = _profiles(config, prior, n, seed=SEED + 1000 * IO_M + n)["solved"]
            path = Path(scratch) / f"io-profile{n}.json"
            save_profile(solved, path)
            if n in args.io_ns:
                record("save_profile", "solved", IO_M, n, lambda: save_profile(solved, path))
                record("load_profile", "solved", IO_M, n, lambda: load_profile(path))
            if n == LARGE_N:
                inputs = ["--prior", str(files["prior"]), "--profile", str(path),
                          "--mech", str(files["mech"]), "--out", str(files["out"])]  # fmt: skip
                calls = {
                    "cli:solve-predictions": ["solve-predictions", *inputs, "--format", "json"],
                    "cli:solve-predictions:csv": ["solve-predictions", *inputs],
                    "cli:check-eq:csv": ["check-eq", *inputs],
                }
                for layer, argv in calls.items():
                    if cli.main(argv) != 0:
                        raise SystemExit(f"bench_layers: {' '.join(argv)} failed")
                    record(layer, "random", IO_M, n, lambda: cli.main(argv))

    for m in AUDIT_MS:
        prior = from_latent(random_snife_prior(m, 2, seed=SEED + m))
        for n in sorted({*args.ns, LARGE_N}):
            rng = np.random.default_rng(SEED + 1000 * m + n)
            lists = {"random": random_signal_strategies(rng, m, (n,))}
            lists["one-deviant"] = np.broadcast_to(np.eye(m), (n, m, m)).copy()
            lists["one-deviant"][0] = lists["random"][0]
            for name, thetas in lists.items():
                record(
                    "aggregation_error_audit",
                    name,
                    m,
                    n,
                    lambda: aggregation_error_audit(prior, thetas, AUDIT_EPS),
                )

    latent = random_snife_prior(MC_M, 2, seed=SEED + MC_M)
    prior = from_latent(latent)
    print(f"{'variant':<29} {header} trials/s")
    for variant in ("truthful", "disagreement"):
        config = MechanismConfig(1.0, 1.0 / (8.0 * MC_M), "log", variant)
        for n in sorted(args.mc_ns):
            profiles = _profiles(config, prior, n, seed=SEED + 1000 * MC_M + n)
            for name, profile in profiles.items():
                runs, faults = _time(
                    lambda: monte_carlo_payments(config, latent, profile, args.mc_trials),
                    args.repeats,
                )
                median = statistics.median(runs)
                rate = args.mc_trials / median
                rows.append(
                    {
                        "layer": "monte_carlo_payments",
                        "variant": variant,
                        "profile": name,
                        "m": MC_M,
                        "n": n,
                        "trials": args.mc_trials,
                        "median_s": median,
                        "runs": len(runs),
                        "trials_per_s": rate,
                        "minflt_per_call": faults,
                    }
                )
                cell = f"{variant:<29} {name:<11} {MC_M:>2} {n:>5}"
                print(f"{cell} {median:>10.3g} {len(runs):>4} {faults:>8.0f} {rate:.4g}")

    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "budget_s": BUDGET_S,
        "seed": SEED,
        "rows": rows,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
