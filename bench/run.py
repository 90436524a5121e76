#!/usr/bin/env python3
"""peerpred benchmark.

    python3 bench/run.py --workload exact-large --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed``, then runs its job list back to
back (one process, one thread, a closed loop) for about ``--seconds``
seconds through ``peerpred.cli.main`` in-process, checks every output, and
prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, taken from spans around the layer functions.  The lines
before it name every end-to-end metric that applies to the workload, with
its unit.  ``--workload all`` runs each workload in its own process.

The program is imported from ``src/`` next to this directory.  Run files
(inputs, spans, result.json) go to ``.bench_runs/`` there.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import import_module
from io import StringIO
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact-large", "exact-small", "monte-carlo")
SETUP_REPEATS = 5

# Reported times are reference seconds.  Between operations the benchmark
# times a fixed probe (see Clock._probe; it never touches peerpred, so only
# the machine's speed moves it).  The probe gives the machine's slowdown
# relative to PROBE_REF_S.  The measured time of the operations between two
# probe samples is divided by the mean of those samples' slowdowns raised to
# SLOWDOWN_EXPONENT.  On a shared machine speed drifts by 10-40% within
# minutes, and the numpy-heavy exact-large jobs slow down less than the
# probe: full correction (exponent 1) over-corrects them.  Over 6 seeds of
# each workload, the exponent 0.75 gave the smallest worst-case spread.
# PROBE_REF_S holds typical times of the probe's four parts on a 2-vCPU
# x86-64 VM with Python 3.11 and numpy 2.4.
PROBE_REF_S = (0.0021, 0.00125, 0.0020, 0.0013)
SLOWDOWN_EXPONENT = 0.75
PROBE_EVERY_S = 0.5

# End-to-end metrics reported on the workloads where they apply, besides the
# ones BENCHMARK.json names (which apply to every workload).
KIND_METRICS = {
    "welfare": "welfare_s",
    "check_eq": "check_eq_s",
    "payout": "payout_s",
    "solve": "solve_s",
    "audit": "audit_s",
    "sweep": "sweep_s",
    "impossibility": "impossibility_s",
}
RATE_METRICS = {"rounds": "rounds_per_s", "mc": "mc_trials_per_s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Pin BLAS/OpenMP pools to one thread before numpy loads.

    The client is one thread.  An idle BLAS worker keeps spinning after each
    threaded call, and on a machine whose vCPUs share cores it slows the
    client's thread by up to 2x for a while afterwards.
    """
    threads = min(1, nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import peerpred.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Seconds to import peerpred.cli, numpy included, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC)], capture_output=True, text=True, check=True
    )
    return float(proc.stdout)


class Clock:
    """Converts measured seconds into reference seconds.

    ``add`` books measured seconds under a key; each probe sample converts
    what was booked since the previous sample and adds it to ``totals``.
    """

    def __init__(self):
        import numpy

        self._np = numpy
        rng = numpy.random.default_rng(0)
        self._small = rng.random((4, 4))
        self._big = rng.random((300, 300))
        self._doc = json.dumps({"rows": rng.random((200, 4)).tolist()})
        self._last_sample: float | None = None
        self._last_time = -math.inf
        self._booked: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)

    def _probe(self) -> float:
        """Slowdown of a fixed mix of what the workloads do: the mean, over
        four parts, of the part's time over its PROBE_REF_S.  The parts are an
        interpreted loop, numpy calls on tiny arrays, JSON parsing with CSV
        writing, and numpy on a large array."""
        np = self._np
        marks = [perf_counter()]
        total = 0
        for i in range(20_000):
            total += i * i % 7
        marks.append(perf_counter())
        for _ in range(300):
            np.einsum("ij,jk->ik", self._small, self._small)
        marks.append(perf_counter())
        writer = csv.writer(StringIO())
        for row in json.loads(self._doc)["rows"]:
            writer.writerow([format(x, ".17g") for x in row])
        marks.append(perf_counter())
        np.sort(np.exp(self._big), axis=1)
        marks.append(perf_counter())
        parts = [(b - a) / ref for a, b, ref in zip(marks, marks[1:], PROBE_REF_S)]
        return sum(parts) / len(parts)

    def add(self, key: str, seconds: float):
        self._booked[key] += seconds

    def sample(self, force: bool = False):
        """Take a sample (the median of three probes) unless one was taken
        less than PROBE_EVERY_S ago and ``force`` is false."""
        if not force and perf_counter() - self._last_time < PROBE_EVERY_S:
            return
        value = statistics.median(self._probe() for _ in range(3))
        if self._booked:
            factor = (0.5 * (self._last_sample + value)) ** -SLOWDOWN_EXPONENT
            for key, seconds in self._booked.items():
                self.totals[key] += seconds * factor
            self._booked.clear()
        self._last_sample = value
        self._last_time = perf_counter()

    def take(self) -> dict[str, float]:
        """Sample, then return the totals so far and start new ones."""
        self.sample(force=True)
        totals, self.totals = self.totals, defaultdict(float)
        return totals


@dataclass
class Pass:
    """Reference seconds of one pass (``wall``, per job kind) and its
    measured wall time."""

    wall: float = 0.0
    measured: float = 0.0
    kind_s: dict = field(default_factory=dict)
    kind_work: dict = field(default_factory=lambda: defaultdict(int))
    spans: list = field(default_factory=list)

    @property
    def factor(self) -> float:
        return self.wall / self.measured


class Runner:
    """Runs job lists in passes and keeps the failure log."""

    def __init__(self, tracer, clock: Clock):
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, jobs, label: str) -> Pass:
        import peerpred.cli

        tracer, clock = self.tracer, self.clock
        result = Pass()
        clock.take()
        for k, job in enumerate(jobs):
            clock.sample()
            tracer.job = f"{label}.{k}"
            out, reason, code = None, None, 0
            start = perf_counter()
            try:
                with ExitStack() as stack:
                    if tracer.on:
                        stack.enter_context(tracer.span(f"job.{job.kind}"))
                    if job.argv is not None:
                        buf = StringIO()
                        stack.enter_context(redirect_stdout(buf))
                        stack.enter_context(redirect_stderr(StringIO()))
                        code = peerpred.cli.main(job.argv)
                        out = buf.getvalue()
                    else:
                        out = job.call()
            except Exception:  # a failing operation is counted, not fatal
                reason = traceback.format_exc(limit=-2).strip().replace("\n", " | ")
            elapsed = perf_counter() - start
            traced, tracer.on = tracer.on, False
            if reason is None and code != 0:
                reason = f"exit code {code}"
            if reason is None:
                reason = job.check(out)
            tracer.on = traced
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{label}.{k} {job.argv or job.kind}: {reason}")
            result.measured += elapsed
            clock.add(job.kind, elapsed)
            result.kind_work[job.kind] += job.work
        result.kind_s = clock.take()
        result.wall = sum(result.kind_s.values())
        result.spans = tracer.take()
        return result

    def measure(self, jobs, budget: float, label: str) -> list[Pass]:
        """Passes back to back while the next one is expected to end within
        ``budget`` seconds; at least one."""
        passes = []
        start = perf_counter()
        while True:
            passes.append(self.run_pass(jobs, f"{label}{len(passes)}"))
            typical = statistics.median(p.measured for p in passes)
            if perf_counter() - start + typical > budget:
                return passes


def workload_metrics(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    """Per-subcommand totals and throughputs, medians over passes."""
    out = {}
    for kind, name in KIND_METRICS.items():
        if kind in passes[0].kind_s:
            out[name] = (statistics.median(p.kind_s[kind] for p in passes), "s")
    for kind, name in RATE_METRICS.items():
        if kind in passes[0].kind_s:
            rates = [p.kind_work[kind] / p.kind_s[kind] for p in passes]
            out[name] = (statistics.median(rates), "1/s")
    return out


def layer_metrics(spec, setup: Pass, traced: list[Pass], untraced: list[Pass], tracing):
    """Per-layer values: calls and self time of the traced set-up plus one
    traced pass (self time: the median pass).  Returns (metrics, problem)."""

    def reference_totals(p: Pass):
        return {k: (c, t * p.factor) for k, (c, t) in tracing.layer_totals(p.spans).items()}

    setup_totals = reference_totals(setup)
    per_pass = [reference_totals(p) for p in traced]
    calls = [{name: c for name, (c, _) in totals.items()} for totals in per_pass]
    problem = None
    if any(c != calls[0] for c in calls):
        problem = "per-layer call counts differ between traced passes"
    metrics = {}
    for name, unit in spec:
        if name == "trace.overhead_s":
            value = statistics.median(p.wall for p in traced) - statistics.median(
                p.wall for p in untraced
            )
        else:
            span, stat = name.rsplit(".", 1)
            index = {"calls": 0, "self_s": 1}[stat]
            value = setup_totals.get(span, (0, 0.0))[index]
            pass_values = [totals.get(span, (0, 0.0))[index] for totals in per_pass]
            value += pass_values[0] if stat == "calls" else statistics.median(pass_values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problem


def run_workload(args, spec) -> int:
    if not (SRC / "peerpred" / "__init__.py").is_file():
        print(f"error: no peerpred sources under {SRC}", file=sys.stderr)
        return 1
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import_module("peerpred.cli")
    import numpy

    sys.path.insert(0, str(HERE))
    tracing = import_module("tracing")
    workloads = import_module("workloads")

    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    clock = Clock()

    def timed_build() -> tuple[list, Pass]:
        clock.take()
        start = perf_counter()
        jobs = workloads.build(args.workload, args.seed, run_dir, args.tiny)
        measured = perf_counter() - start
        clock.add("build", measured)
        return jobs, Pass(clock.take()["build"], measured)

    # set-up = median import of peerpred in a fresh interpreter plus median build
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        clock.take()
        clock.add("import", import_seconds())
        imports.append(clock.take()["import"])
        jobs, build = timed_build()
        builds.append(build.wall)
    setup_s = statistics.median(imports) + statistics.median(builds)

    tracer = tracing.Tracer()
    runner = Runner(tracer, clock)
    if args.trace:
        untraced = runner.measure(jobs, args.seconds / 2, "u")
        tracing.install(tracer)
        tracer.on, tracer.job = True, "setup"
        jobs, setup = timed_build()
        setup.spans = tracer.take()
        traced = runner.measure(jobs, args.seconds / 2, "t")
        tracer.on = False
        metrics, problem = layer_metrics(spec["per_layer"], setup, traced, untraced, tracing)
        if problem:
            runner.failures.append(problem)
        # the set-up and the first traced pass hold every call counted
        tracing.write_spans(
            run_dir / "spans.jsonl", [("setup", setup.spans), ("t0", traced[0].spans)]
        )
        passes = untraced
    else:
        passes = runner.measure(jobs, args.seconds, "u")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        **workload_metrics(passes),
        "ops_failed_frac": (len(runner.failures) / runner.attempted, "frac"),
    }
    if not args.trace:
        metrics = {
            name: {"value": e2e[name][0], "unit": unit} for name, unit in spec["end_to_end"]
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "measured_pass_s": [p.measured for p in passes],
        "pass_factors": [p.factor for p in passes],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "commit": git_commit(),
    }
    print(f"peerpred benchmark: {json.dumps(record)}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<18} {value:>14.6g} {unit}")
    for failure in runner.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(
        json.dumps(
            {
                "record": record,
                "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
                "failures": runner.failures,
                **result,
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])  # fmt: skip
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def load_spec() -> dict:
    """Metric names and units from BENCHMARK.json."""
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        key: [(m["name"], m["unit"]) for m in data[key]] for key in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="peerpred benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
