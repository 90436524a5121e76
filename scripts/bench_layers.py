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
``--mc-ns``, for both variants, and its rows add ``trials_per_s`` and
``traced_peak_bytes``: the peak that ``tracemalloc`` traces over one more,
untimed call, made before the timed runs.

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

With ``--parent PATH`` one run times two source trees: PATH's
``src/peerpred``, imported under the package name ``peerpred_parent`` (as
``compare_trees.py`` imports a second tree), and this checkout's.  Each
tree builds its own inputs from the same seeds, and every row alternates the
two trees' repeats, the first tree of a repeat alternating too, so both
trees' numbers of a row come from the same stretch of the machine's time.
The run writes ``BENCH_<label>_before.json`` (PATH) and
``BENCH_<label>_after.json`` (this checkout):

    python3 scripts/bench_layers.py --parent ../parent --label bound --ns 512,2048 --ms 3
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from compare_trees import import_tree

BUDGET_S = 5.0
SEED = 7
MC_M = 3
AUDIT_MS = (2, 3)
AUDIT_EPS = 10.0
SWEEP_SAMPLES = 5
IO_M = 3
LARGE_N = 512
PARENT_PACKAGE = "peerpred_parent"
MODULES = ("audits", "cli", "equilibrium", "io", "mechanism", "priors", "strategy")

# exact layers over --ns x --ms: each a call of (library, config, prior, profile)
LAYERS = {
    "welfare_metrics": lambda lib, config, prior, profile: lib.mechanism.welfare_metrics(
        prior, profile
    ),
    "check_equilibrium": lambda lib, config, prior, profile: lib.equilibrium.check_equilibrium(
        config, prior, profile
    ),
    "solve_equilibrium_predictions": lambda lib, config, prior, profile: (
        lib.equilibrium.solve_equilibrium_predictions(config, prior, profile.thetas)
    ),
    "solve_equilibrium_predictions:beta=10": lambda lib, config, prior, profile: (
        lib.equilibrium.solve_equilibrium_predictions(
            lib.mechanism.MechanismConfig(config.alpha, 10.0 * config.alpha, config.rule),
            prior,
            profile.thetas,
        )
    ),
    "classification_bound_audit": lambda lib, config, prior, profile: (
        lib.audits.classification_bound_audit(config, prior, profile)
    ),
    "relabeling_cycle_audit": lambda lib, config, prior, profile: (
        lib.audits.relabeling_cycle_audit(
            prior, profile, lib.priors.PermutationMap((1, 0, *range(2, prior.m)))
        )
    ),
}


def _ints(text):
    return [int(x) for x in text.split(",")]


def _library(package: str) -> SimpleNamespace:
    """The modules of one source tree, imported as ``package``."""
    return SimpleNamespace(
        **{name: importlib.import_module(f"{package}.{name}") for name in MODULES}
    )


def _profiles(lib, config, prior, n, seed):
    rng = np.random.default_rng(seed)
    thetas = lib.strategy.random_signal_strategies(rng, prior.m, (n,))
    return {
        "truth": lib.strategy.truth_telling_profile(prior, n),
        "solved": lib.equilibrium.solved_profile(config, prior, thetas),
    }


def _control():
    """Fixed numpy work that calls nothing from peerpred."""
    rng = np.random.default_rng(SEED)
    x = rng.random((256, 256))
    np.sort(rng.random(2**18))
    np.take(x @ x, rng.integers(0, x.size, 2**18))


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _traced_peak(call) -> int:
    """Peak bytes that ``tracemalloc`` traces over one untimed run of ``call``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _time(calls: dict, repeats: int) -> dict:
    """{tree: (seconds of each run, minor page faults per run)} of each
    tree's call.  A repeat runs every tree once, in an order that alternates
    between repeats; the runs stop after the first repeat if a tree's run
    took more than BUDGET_S."""
    runs = {tree: [] for tree in calls}
    faults = dict.fromkeys(calls, 0)
    for k in range(repeats):
        for tree in list(calls)[:: 1 if k % 2 == 0 else -1]:
            before = _minflt()
            start = time.perf_counter()
            calls[tree]()
            runs[tree].append(time.perf_counter() - start)
            faults[tree] += _minflt() - before
        if max(times[0] for times in runs.values()) > BUDGET_S:
            break
    return {tree: (runs[tree], faults[tree] / len(runs[tree])) for tree in calls}


class _Recorder:
    """The rows of every tree, and the printed table."""

    def __init__(self, trees, repeats):
        self.trees, self.repeats = trees, repeats
        self.rows = {tree: [] for tree in trees}
        self.over_budget = set()
        medians = " ".join(f"{f'{tree}_s':>10}" for tree in trees)
        self.columns = f"{'profile':<11} {'m':>2} {'n':>5} {medians} {'runs':>4} {'minflt':>8}"

    def time(self, key, row, cell, calls, extra=lambda tree, seconds: {}, note=lambda seconds: ""):
        """Time ``calls`` {tree: call}; add ``row`` with its median, run
        count, page faults and ``extra(tree, median)`` to each tree's rows.  A
        row whose ``key`` (None: never skipped) ran over budget at a smaller
        n is recorded as skipped.  The printed line holds every tree's
        median and the last tree's runs and faults."""
        if key in self.over_budget:
            for tree in self.trees:
                self.rows[tree].append({**row, "skipped": True})
            return
        timed = _time(calls, self.repeats)
        printed = []
        for tree, (runs, faults) in timed.items():
            if runs[0] > BUDGET_S and key is not None:
                self.over_budget.add(key)
            median = statistics.median(runs)
            entry = {"median_s": median, "runs": len(runs), "minflt_per_call": faults}
            self.rows[tree].append({**row, **entry, **extra(tree, median)})
            printed.append((median, len(runs), faults))
        medians = " ".join(f"{median:>10.3g}" for median, _, _ in printed)
        _, count, faults = printed[-1]
        print(f"{cell} {medians} {count:>4} {faults:>8.0f}{note(printed[-1][0])}")

    def record(self, layer, name, m, n, calls):
        row = {"layer": layer, "profile": name, "m": m, "n": n}
        size = "" if n is None else n
        cell = f"{layer:<29} {name:<11} {m:>2} {size:>5}"
        self.time((layer, name, m), row, cell, calls)


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
    parser.add_argument(
        "--parent", type=Path, help="root of a second source tree, timed beside this one"
    )
    args = parser.parse_args()

    libs = {"after": _library("peerpred")}
    if args.parent is not None:
        src = args.parent.resolve() / "src"
        if not (src / "peerpred" / "__init__.py").is_file():
            parser.error(f"no src/peerpred under {args.parent}")
        import_tree(src, PARENT_PACKAGE)
        libs = {"before": _library(PARENT_PACKAGE), **libs}
    rec = _Recorder(list(libs), args.repeats)

    def each(build):
        """{tree: build(library)}"""
        return {tree: build(lib) for tree, lib in libs.items()}

    print(f"{'layer':<29} {rec.columns}")
    cell = f"{'control':<29} {'':<11} {'':>2} {'':>5}"
    rec.time(None, {"layer": "control"}, cell, dict.fromkeys(libs, _control))
    with tempfile.TemporaryDirectory() as workdir:
        for m in args.ms:

            def setup(lib):
                latent = lib.priors.random_snife_prior(m, 2, seed=SEED + m)
                path = Path(workdir) / f"prior{m}-{lib.priors.__name__}.json"
                lib.io.save_prior(latent, path)
                config = lib.mechanism.MechanismConfig(1.0, 1.0 / (8.0 * m), "log")
                return SimpleNamespace(
                    lib=lib, prior=lib.priors.from_latent(latent), config=config, path=path
                )

            env = each(setup)
            rec.record(
                "validate_prior",
                "latent",
                m,
                None,
                {
                    tree: lambda e=e: e.lib.priors.validate_snife(
                        e.lib.io.pairwise_from_loaded(e.lib.io.load_prior(e.path))
                    )
                    for tree, e in env.items()
                },
            )
            uniform = np.full((m, m), 1.0 / m)
            rec.record(
                "far_from_permutation_gap",
                "uniform",
                m,
                None,
                {
                    tree: lambda e=e: e.lib.audits.far_from_permutation_gap(
                        e.prior, uniform, tau=1.0 / (2.0 * m)
                    )
                    for tree, e in env.items()
                },
            )
            for n in sorted(args.ns):
                profiles = {
                    tree: _profiles(e.lib, e.config, e.prior, n, seed=SEED + 1000 * m + n)
                    for tree, e in env.items()
                }
                for layer, run in LAYERS.items():
                    for name in ("truth", "solved"):
                        calls = {
                            tree: lambda e=e, p=profiles[tree][name]: run(
                                e.lib, e.config, e.prior, p
                            )
                            for tree, e in env.items()
                        }
                        rec.record(layer, name, m, n, calls)
                calls = {
                    tree: lambda e=e: e.lib.audits.sweep_row(
                        e.config, e.prior, n, SWEEP_SAMPLES, np.random.default_rng(SEED)
                    )
                    for tree, e in env.items()
                }
                rec.record("sweep_row", "random", m, n, calls)

        def io_setup(lib):
            latent = lib.priors.random_snife_prior(IO_M, 2, seed=SEED + IO_M)
            config = lib.mechanism.MechanismConfig(1.0, 1.0 / (8.0 * IO_M), "log")
            stem = Path(workdir) / f"io-{lib.priors.__name__}"
            files = {name: Path(f"{stem}-{name}.json") for name in ("prior", "mech", "out")}
            lib.io.save_prior(latent, files["prior"])
            lib.io.save_mechanism(config, files["mech"])
            prior = lib.priors.from_latent(latent)
            return SimpleNamespace(lib=lib, prior=prior, config=config, stem=stem, files=files)

        env = each(io_setup)
        for n in sorted({*args.io_ns, LARGE_N}):
            paths = {}
            for tree, e in env.items():
                seed = SEED + 1000 * IO_M + n
                solved = _profiles(e.lib, e.config, e.prior, n, seed)["solved"]
                paths[tree] = (solved, Path(f"{e.stem}-profile{n}.json"))
                e.lib.io.save_profile(solved, paths[tree][1])
            if n in args.io_ns:
                save = {
                    tree: lambda e=e, sp=paths[tree]: e.lib.io.save_profile(*sp)
                    for tree, e in env.items()
                }
                load = {
                    tree: lambda e=e, sp=paths[tree]: e.lib.io.load_profile(sp[1])
                    for tree, e in env.items()
                }
                rec.record("save_profile", "solved", IO_M, n, save)
                rec.record("load_profile", "solved", IO_M, n, load)
            if n == LARGE_N:
                for layer, extra in (
                    ("cli:solve-predictions", ["solve-predictions", "--format", "json"]),
                    ("cli:solve-predictions:csv", ["solve-predictions"]),
                    ("cli:check-eq:csv", ["check-eq"]),
                ):
                    calls = {}
                    for tree, e in env.items():
                        argv = [*extra, "--prior", str(e.files["prior"]), "--profile",
                                str(paths[tree][1]), "--mech", str(e.files["mech"]),
                                "--out", str(e.files["out"])]  # fmt: skip
                        if e.lib.cli.main(argv) != 0:
                            raise SystemExit(f"bench_layers: {' '.join(argv)} failed")
                        calls[tree] = lambda e=e, argv=argv: e.lib.cli.main(argv)
                    rec.record(layer, "random", IO_M, n, calls)

    for m in AUDIT_MS:
        priors = each(
            lambda lib: lib.priors.from_latent(lib.priors.random_snife_prior(m, 2, seed=SEED + m))
        )
        for n in sorted({*args.ns, LARGE_N}):
            # strategy lists are plain arrays, which both trees read
            rng = np.random.default_rng(SEED + 1000 * m + n)
            lists = {"random": libs["after"].strategy.random_signal_strategies(rng, m, (n,))}
            lists["one-deviant"] = np.broadcast_to(np.eye(m), (n, m, m)).copy()
            lists["one-deviant"][0] = lists["random"][0]
            for name, thetas in lists.items():
                calls = {
                    tree: lambda lib=lib, prior=priors[tree]: lib.audits.aggregation_error_audit(
                        prior, thetas, AUDIT_EPS
                    )
                    for tree, lib in libs.items()
                }
                rec.record("aggregation_error_audit", name, m, n, calls)

    print(f"{'variant':<29} {rec.columns} trials/s")
    for variant in ("truthful", "disagreement"):

        def mc_setup(lib):
            latent = lib.priors.random_snife_prior(MC_M, 2, seed=SEED + MC_M)
            config = lib.mechanism.MechanismConfig(1.0, 1.0 / (8.0 * MC_M), "log", variant)
            return SimpleNamespace(
                lib=lib, latent=latent, prior=lib.priors.from_latent(latent), config=config
            )

        env = each(mc_setup)
        for n in sorted(args.mc_ns):
            profiles = {
                tree: _profiles(e.lib, e.config, e.prior, n, seed=SEED + 1000 * MC_M + n)
                for tree, e in env.items()
            }
            for name in ("truth", "solved"):
                calls = {
                    tree: lambda e=e, p=profiles[tree][name]: (
                        e.lib.mechanism.monte_carlo_payments(e.config, e.latent, p, args.mc_trials)
                    )
                    for tree, e in env.items()
                }
                row = {"layer": "monte_carlo_payments", "variant": variant, "profile": name,
                       "m": MC_M, "n": n, "trials": args.mc_trials}  # fmt: skip
                peaks = {tree: _traced_peak(call) for tree, call in calls.items()}
                rec.time(
                    None,
                    row,
                    f"{variant:<29} {name:<11} {MC_M:>2} {n:>5}",
                    calls,
                    extra=lambda tree, median: {
                        "trials_per_s": args.mc_trials / median,
                        "traced_peak_bytes": peaks[tree],
                    },
                    note=lambda median: f" {args.mc_trials / median:.4g}",
                )

    if len(libs) == 1:
        names = {"after": args.label}
    else:
        names = {tree: f"{args.label}_{tree}" for tree in libs}
    for tree, label in names.items():
        out = Path(args.out_dir) / f"BENCH_{label}.json"
        record = {
            "label": label,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "repeats": args.repeats,
            "budget_s": BUDGET_S,
            "seed": SEED,
            "trees": list(libs),
            "rows": rec.rows[tree],
        }
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
