"""Compare the CLI of two source trees on one benchmark workload.

    python3 scripts/compare_trees.py PARENT CHANGE --workload exact-small --rounds 6

PARENT and CHANGE are repository roots, each with ``src/peerpred``.  The
inputs of the workload for seed 1 are built by PARENT's ``bench/workloads.py``
(which this script only imports) into a temporary directory, with PARENT's
``peerpred`` importable under its own name.  CHANGE's ``src/peerpred`` is
imported under the package name ``peerpred_change``, so that both trees run
in one process.  Every CLI job of the workload then runs through both trees:
one untimed round, then ``--rounds`` timed rounds, alternating per job and
round which tree runs first.

Printed: for each job whose exit code or stdout differs between the trees,
its argv, the largest |change - parent| between the numbers at the same place
of the two outputs (same line, same position among the line's numbers) and
the first lines of a diff of the two outputs; then the number of differing
jobs and, when there are any, the largest such |change - parent| over all of
them; then the paired time ratio, CHANGE over PARENT summed over the jobs of a
round, as the median and range over the timed rounds.  Library calls of the
workload (jobs without an argv) are skipped.  Exits 1 when any output differs.

When both outputs of a job are ``payout --trials`` tables (agent,
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
import math
import re
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

CHANGE_PACKAGE = "peerpred_change"
SEED = 1
DIFF_LINES = 12
PAYMENT_HEADER = "agent,mean_payment,stderr"
CONSISTENT_STDERRS = 4.0
# a decimal number that is not part of a word such as a signal label "s1"
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


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


def _run(cli, argv) -> tuple[tuple[int, str], float]:
    """(exit code, stdout) of one in-process CLI call, and its seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - start
    return (code, out.getvalue()), elapsed


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
    """The report of one differing job, and its largest numeric |change - parent|."""
    delta = _largest_delta(parent[1], change[1])
    lines = [f"differs: {' '.join(argv)}", f"  largest |change - parent| of a number: {delta:.1e}"]
    z = _largest_z(parent[1], change[1])
    if z is not None:
        lines.append(f"  largest |change - parent| of a mean / combined stderr: {z:.2f}")
        consistent = "yes" if z <= CONSISTENT_STDERRS else "no"
        lines.append(f"  consistent within {CONSISTENT_STDERRS:g} combined stderr: {consistent}")
    if parent[0] != change[0]:
        lines.append(f"  exit code {parent[0]} -> {change[0]}")
    body = difflib.unified_diff(
        parent[1].splitlines(), change[1].splitlines(), "parent", "change", lineterm="", n=0
    )
    lines += [f"  {line}" for line in list(body)[:DIFF_LINES]]
    return "\n".join(lines), delta


def compare(jobs, parent_cli, change_cli, rounds: int):
    """Run every job through both trees; return the (report, largest numeric
    |change - parent|) of each differing job and each timed round's time
    ratio, change over parent."""
    clis = (parent_cli, change_cli)
    differing: dict[int, tuple[str, float]] = {}
    ratios = []
    for round_ in range(rounds + 1):
        totals = [0.0, 0.0]
        for k, argv in enumerate(jobs):
            results = [None, None]
            for side in ((0, 1) if (round_ + k) % 2 == 0 else (1, 0)):
                results[side], elapsed = _run(clis[side], argv)
                totals[side] += elapsed
            if results[0] != results[1] and k not in differing:
                differing[k] = _diff(argv, *results)
        if round_ > 0:  # round 0 warms both trees up
            ratios.append(totals[1] / totals[0])
    return [differing[k] for k in sorted(differing)], ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the reference tree")
    parser.add_argument("change", type=Path, help="root of the tree under test")
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--tiny", action="store_true", help="the workload's small inputs")
    parser.add_argument("--rounds", type=int, default=3, help="timed rounds (default 3)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    for root in (parent, change):
        if not (root / "src" / "peerpred" / "__init__.py").is_file():
            parser.error(f"no src/peerpred under {root}")

    sys.path[:0] = [str(parent / "src"), str(parent / "bench")]
    workloads = importlib.import_module("workloads")
    parent_cli = importlib.import_module("peerpred.cli")
    import_tree(change / "src", CHANGE_PACKAGE)
    change_cli = importlib.import_module(f"{CHANGE_PACKAGE}.cli")
    with tempfile.TemporaryDirectory() as directory:
        built = workloads.build(args.workload, SEED, Path(directory), args.tiny)
        jobs = [job.argv for job in built if job.argv is not None]
        diffs, ratios = compare(jobs, parent_cli, change_cli, args.rounds)

    for report, _ in diffs:
        print(report)
    print(f"{args.workload}: {len(jobs)} CLI jobs, {len(diffs)} with differing output")
    if diffs:
        largest = max(delta for _, delta in diffs)
        print(f"largest |change - parent| of a number over the differing jobs: {largest:.1e}")
    print(
        f"time ratio change/parent over {len(ratios)} rounds: median "
        f"{statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]"
    )
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
