"""Compare the CLI of two source trees on a benchmark workload or a job set.

    python3 scripts/compare_trees.py PARENT CHANGE --workload exact-small --rounds 6
    python3 scripts/compare_trees.py PARENT CHANGE --workload malformed --rounds 1

PARENT and CHANGE are repository roots, each with ``src/peerpred``.
``--workload`` names a workload of PARENT's ``bench/run.py`` ``WORKLOADS``
(built by its ``bench/workloads.py``; this script only imports both) or a
job set of ``JOB_SETS``; any other name is refused.  PARENT's ``peerpred``
writes the inputs into a temporary directory: a workload's for seed 1, a job
set's by ``write_inputs``.  CHANGE's ``src/peerpred`` is imported as
``peerpred_change``, so that both trees run in one process.  Every job runs
through both trees ``--rounds`` times, after an untimed round for a workload,
alternating per job and round which tree runs first: a CLI job as a
``cli.main`` call, a script job as each tree's own script in a subprocess.

Compared: the exit code, stdout and stderr of every job; ``suite``'s criterion
runtimes "(N.NNs)" are removed first.  Printed: each differing job's argv, the
largest |change - parent| between numbers at the same place of the two stdouts
(same line, same position among the line's numbers) and the head of a diff of
the stdouts and the stderrs; the number of differing jobs and, if any, the
largest such |change - parent| over them; for a workload (a job set is not
timed), the paired time ratio, CHANGE over PARENT summed over a round's jobs,
as the median and range over the timed rounds.  A workload's library calls
(jobs without an argv) are skipped.  Exits 1 when any job differs.

When both stdouts of a job are ``payout --trials`` tables (agent,
mean_payment, stderr) of the same agents, its report also gives the largest
|change - parent| of a mean over its row's combined stderr,
sqrt(stderr_parent^2 + stderr_change^2), and whether every row is within
``CONSISTENT_STDERRS`` of them: a new random stream moves each estimate by
about one combined stderr, a broken estimate by more.
"""

import argparse
import contextlib
import difflib
import importlib
import importlib.util
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

CHANGE_PACKAGE = "peerpred_change"
SEED = 1
DIFF_LINES = 12
PAYMENT_HEADER = "agent,mean_payment,stderr"
CONSISTENT_STDERRS = 4.0
# a decimal number that is not part of a word such as a signal label "s1"
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
RUNTIME = re.compile(r" \([0-9]+\.[0-9]+s\)")


def _jobs(*argvs: str) -> list[tuple[str, ...]]:
    """The argvs of CLI or ``scripts/`` calls; a ``.json`` argument names an input file."""
    return [tuple(argv.split()) for argv in argvs]


def _pairwise(marginal, conditional):
    return {"signals": ["s1", "s2"], "kind": "pairwise", "marginal": marginal,
            "conditional": conditional}  # fmt: skip


def _two_agents(theta):
    third = [[[1 / 3] * 3] * 3] * 3
    return {"n": 2, "agents": [{"theta": np.eye(3).tolist(), "predictions": third},
                               {"theta": theta, "predictions": third}]}  # fmt: skip


# Inputs written as they are: a pairwise prior, the two variants, and files
# that each break one check of a probability table or of the mechanism reader
FILES = {
    "pairwise": _pairwise([0.5, 0.5], [[0.68, 0.32], [0.32, 0.68]]),
    "truthful": {"variant": "truthful"},
    "disagreement": {"variant": "disagreement"},
    "prior-nonstochastic": _pairwise([0.5, 0.5], [[0.7, 0.3], [0.4, 0.6]]),
    "prior-nan": _pairwise([math.nan, 0.5], [[0.7, 0.3], [0.3, 0.7]]),
    "prior-huge": _pairwise([1e308, 1e308], [[0.7, 0.3], [0.3, 0.7]]),
    "prior-negative": _pairwise([0.5, 0.5], [[1.2, 0.3], [-0.2, 0.7]]),
    "profile-nan": _two_agents([[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "profile-huge": _two_agents([[1e308, 0.0, 0.0], [1e308, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "profile-negative": _two_agents([[1.2, 0.0, 0.0], [-0.2, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "profile-9-digits": _two_agents(
        [[0.333333333, 0.0, 0.0], [0.333333333, 1.0, 0.0], [0.333333333, 0.0, 1.0]]
    ),
    "mech-unknown-field": {"alpha": 1.0, "Beta": 0.5},
}
SOLVE = "solve-predictions --prior latent.json --profile profile64.json --beta"
PAYOUT = "payout --prior latent.json --profile"

JOB_SETS = {
    # bound_sweep.py calls priors.gamma2, which no workload runs
    "scripts": _jobs(
        "welfare_table.py --m 3 --n 3",
        "welfare_table.py --m 4 --n 4 --rule quadratic",
        "bound_sweep.py --m 2 --ns 16,32,64",
        "bound_sweep.py --m 3 --ns 16,32,64",
    ),
    "suite": _jobs("suite"),
    # no workload runs gen-prior or validate-prior; the prior reader is on both input paths
    "prior-files": _jobs(
        "gen-prior --m 3 --seed 7",
        "validate-prior --in latent.json --format csv",
        "validate-prior --in latent.json --format json",
        "validate-prior --in pairwise.json --format csv",
        "validate-prior --in pairwise.json --format json",
    ),
    # No workload runs above beta/alpha = 0.02: from about 1e4 the solver's residuals pass
    # SOLVER_TOL, and near 1e6 and above its error bound passes PROBABILITY_TOL and the
    # solve is refused.  Nor does one take the Monte Carlo kernel fallback, as payout
    # does at n = 64: the 576^2 cell pairs exceed 2,000 trials * 64 agents.
    "solve": _jobs(
        *(f"{SOLVE} {beta}" for beta in ("10", "1e3", "1e5", "3e6", "1e7")),
        f"{PAYOUT} solved64.json --mech truthful.json --trials 2000 --seed 3",
        f"{PAYOUT} solved64.json --mech disagreement.json --trials 2000 --seed 3",
    ),
    # Monte Carlo's tables path: truth at n = 512 has C = 1,536 cells, C^2 within
    # 10,000 trials * 512 agents, in chunks of _BLOCK_CELLS // (n m) = 42 rows;
    # solved n = 128 reaches all C = 1,152, C^2 within 2^22 and 12,000 * 128.
    "tables": _jobs(
        f"{PAYOUT} truth --n 512 --mech truthful.json --trials 10000 --seed 3",
        f"{PAYOUT} truth --n 512 --mech disagreement.json --trials 10000 --seed 3",
        f"{PAYOUT} solved128.json --mech truthful.json --trials 12000 --seed 3",
        f"{PAYOUT} solved128.json --mech disagreement.json --trials 12000 --seed 3",
    ),
    # the classification-bound, aggregation-error and relabeling scans in many
    # tiles: no workload runs them past n = 512
    "audits": _jobs(
        "audit --prior latent.json --profile solved2048.json",
        "impossibility --prior latent.json --profile solved2048.json --perm 1,0,2",
    ),
    # the validators' messages: the exit code and stderr of each malformed file
    "malformed": _jobs(
        *(f"welfare --prior {name}.json --profile truth --n 2" for name in FILES
          if name.startswith("prior-")),
        *(f"welfare --prior latent.json --profile {name}.json" for name in FILES
          if name.startswith("profile-")),
        "check-eq --prior latent.json --profile truth --n 2 --mech mech-unknown-field.json",
    ),  # fmt: skip
}


def import_tree(src: Path, name: str):
    """Import ``src/peerpred`` as the package ``name``, beside any other
    ``peerpred`` of the process; return the package."""
    package = src / "peerpred"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _paths(argv, directory: Path) -> list[str]:
    """``argv`` with each ``.json`` argument in ``directory``; a workload's
    arguments are absolute paths already, and stay as they are."""
    return [str(directory / arg) if arg.endswith(".json") else arg for arg in argv]


def write_inputs(directory: Path) -> None:
    """Write the job sets' inputs into ``directory`` with the process's
    ``peerpred``: the seed-7 latent prior, ``FILES``, and the n = 64, 128 and
    2048 profiles of ``default_rng(11)`` with their predictions solved."""
    from peerpred import cli
    from peerpred.io import save_profile
    from peerpred.strategy import StrategyProfile, random_signal_strategies

    def call(argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(_paths(argv.split(), directory)) != 0:
                raise RuntimeError(f"could not write an input: {argv}")

    call("gen-prior --m 3 --seed 7 --out latent.json")
    for name, data in FILES.items():
        (directory / f"{name}.json").write_text(json.dumps(data))
    for n in (64, 128, 2048):
        thetas = random_signal_strategies(np.random.default_rng(11), 3, (n,))
        profile = StrategyProfile(thetas, np.full((n, 3, 3, 3), 1 / 3))
        save_profile(profile, directory / f"profile{n}.json")
        call(f"solve-predictions --prior latent.json --profile profile{n}.json"
             f" --format json --out solved{n}.json")  # fmt: skip


def _run(tree, job, directory: Path) -> tuple[tuple[int, str, str], float]:
    """(exit code, stdout, stderr) of one job through one (root, cli module)
    tree, and its seconds.  An exception that ``cli.main`` lets through ends
    the job as in a process, its class named without the tree's package."""
    root, cli = tree
    argv = _paths(job, directory)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    if argv[0].endswith(".py"):
        command = [sys.executable, str(root / "scripts" / argv[0]), *argv[1:]]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(command, capture_output=True, text=True, env=env)
        code, out, err = done.returncode, done.stdout, done.stderr
    else:
        # catch_warnings resets the warning registries: each call warns as a new process would
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():  # fmt: skip
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=err)
        out, err = out.getvalue(), err.getvalue()
    elapsed = perf_counter() - start
    if job[0] == "suite":
        out = RUNTIME.sub("", out)
    return (code, out, err), elapsed


def _largest_delta(parent: str, change: str) -> float:
    """Largest |change - parent| between the numbers at the same place of two
    outputs; 0 when no number pairs up."""
    return max(
        (
            abs(float(a) - float(b))
            for x, y in zip(parent.splitlines(), change.splitlines())
            for a, b in zip(NUMBER.findall(x), NUMBER.findall(y))
        ),
        default=0.0,
    )


def _payments(text: str):
    """{agent: (mean, stderr)} of a ``payout --trials`` CSV table, or None
    for any other output."""
    lines = text.splitlines()
    if not lines or lines[0] != PAYMENT_HEADER:
        return None
    rows = (line.split(",") for line in lines[1:])
    return {agent: (float(mean), float(stderr)) for agent, mean, stderr in rows}


def _largest_z(parent: str, change: str):
    """Largest |change - parent| of a mean over the combined stderr of its row,
    over two payment tables of the same agents; None for other outputs."""
    a, b = _payments(parent), _payments(change)
    if a is None or b is None or a.keys() != b.keys():
        return None
    z = 0.0
    for agent, (mean, stderr) in a.items():
        delta, combined = abs(b[agent][0] - mean), math.hypot(stderr, b[agent][1])
        if combined:
            z = max(z, delta / combined)
        elif delta:  # a moved mean of zero stderr
            z = math.inf
    return z


def _diff(argv, parent, change) -> tuple[str, float]:
    """The report of one differing job, given the (exit code, stdout, stderr)
    of each tree, and its largest numeric |change - parent| of stdout."""
    delta = _largest_delta(parent[1], change[1])
    lines = [f"differs: {' '.join(argv)}", f"  largest |change - parent| of a number: {delta:.1e}"]
    z = _largest_z(parent[1], change[1])
    if z is not None:
        lines.append(f"  largest |change - parent| of a mean / combined stderr: {z:.2f}")
        consistent = "yes" if z <= CONSISTENT_STDERRS else "no"
        lines.append(f"  consistent within {CONSISTENT_STDERRS:g} combined stderr: {consistent}")
    if parent[0] != change[0]:
        lines.append(f"  exit code {parent[0]} -> {change[0]}")
    for stream, label in ((1, ""), (2, " stderr")):
        if stream == 1 or parent[2] != change[2]:  # stdout's even when it is equal
            body = difflib.unified_diff(parent[stream].splitlines(), change[stream].splitlines(),
                                        f"parent{label}", f"change{label}", lineterm="", n=0)
            lines += [f"  {line}" for line in list(body)[:DIFF_LINES]]
    return "\n".join(lines), delta


def compare(jobs, trees, directory: Path, rounds: int, warm_up: bool = True):
    """Run every job through both (root, cli module) trees ``rounds`` times,
    after an untimed round if ``warm_up``; return each differing job's (report,
    largest numeric |change - parent|) and each timed round's time ratio."""
    differing: dict[int, tuple[str, float]] = {}
    ratios = []
    for round_ in range(rounds + warm_up):
        totals = [0.0, 0.0]
        for k, job in enumerate(jobs):
            results = [None, None]
            for side in ((0, 1) if (round_ + k) % 2 == 0 else (1, 0)):
                results[side], elapsed = _run(trees[side], job, directory)
                totals[side] += elapsed
            if results[0] != results[1] and k not in differing:
                differing[k] = _diff(job, *results)
        if round_ >= warm_up:
            ratios.append(totals[1] / totals[0])
    return [differing[k] for k in sorted(differing)], ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the reference tree")
    parser.add_argument("change", type=Path, help="root of the tree under test")
    sets = ", ".join(JOB_SETS)
    parser.add_argument("--workload", required=True,
                        help=f"a workload of bench/run.py or a job set: {sets}")  # fmt: skip
    parser.add_argument("--tiny", action="store_true", help="the workload's small inputs")
    parser.add_argument("--rounds", type=int, default=3, help="rounds (default 3)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.tiny and args.workload in JOB_SETS:
        parser.error("--tiny applies to the workloads of bench/workloads.py only")
    parent, change = args.parent.resolve(), args.change.resolve()
    for root in (parent, change):
        if not (root / "src" / "peerpred" / "__init__.py").is_file():
            parser.error(f"no src/peerpred under {root}")

    sys.path[:0] = [str(parent / "src"), str(parent / "bench")]
    names = (*JOB_SETS, *importlib.import_module("run").WORKLOADS)
    if args.workload not in names:
        parser.error(f"unknown --workload {args.workload!r}; choose from {', '.join(names)}")
    parent_cli = importlib.import_module("peerpred.cli")
    import_tree(change / "src", CHANGE_PACKAGE)
    trees = ((parent, parent_cli), (change, importlib.import_module(f"{CHANGE_PACKAGE}.cli")))
    timed = args.workload not in JOB_SETS
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        if not timed:
            write_inputs(directory)
            jobs = JOB_SETS[args.workload]
        else:
            build = importlib.import_module("workloads").build
            built = build(args.workload, SEED, directory, args.tiny)
            jobs = [tuple(job.argv) for job in built if job.argv is not None]
        diffs, ratios = compare(jobs, trees, directory, args.rounds, warm_up=timed)

    for report, _ in diffs:
        print(report)
    print(f"{args.workload}: {len(jobs)} CLI jobs, {len(diffs)} with differing output")
    if diffs:
        largest = max(delta for _, delta in diffs)
        print(f"largest |change - parent| of a number over the differing jobs: {largest:.1e}")
    if timed:
        mid, low, high = statistics.median(ratios), min(ratios), max(ratios)
        print(f"time ratio change/parent over {len(ratios)} rounds: "
              f"median {mid:.3f} [{low:.3f}, {high:.3f}]")  # fmt: skip
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
