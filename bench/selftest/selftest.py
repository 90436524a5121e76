#!/usr/bin/env python3
"""Self-test of the peerpred benchmark.

    python3 bench/selftest/selftest.py

Runs every workload at its ``--tiny`` size, untraced and twice traced, and
checks that:

* every end-to-end metric of BENCHMARK.json, and every workload metric that
  applies, is printed by name with its unit, and no operation fails;
* every per-layer metric is emitted with its unit, and the ``calls`` counts
  of two traced runs are identical;
* a deliberately perturbed output (welfare diversity + 1e-6) counts as a
  failed operation;
* without the program's sources the benchmark exits non-zero and prints no
  result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SEED = 3

# workload metrics, besides those of BENCHMARK.json, that must be printed
APPLIES = {
    "exact-large": {"welfare_s", "check_eq_s", "solve_s", "audit_s", "sweep_s", "rounds_per_s"},
    "exact-small": {
        "welfare_s", "check_eq_s", "payout_s", "solve_s", "audit_s", "sweep_s",
        "impossibility_s", "rounds_per_s", "mc_trials_per_s",
    },  # fmt: skip
    "monte-carlo": {"mc_trials_per_s"},
}
UNITS = {"peak_rss_mb": "MB", "ops_failed_frac": "frac", "rounds_per_s": "1/s", "mc_trials_per_s": "1/s"}
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)$")

problems: list[str] = []


def expect(condition: bool, message: str):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def run(workload: str, trace: int, cwd=ROOT, bench=RUN) -> tuple[int, list[str]]:
    argv = [sys.executable, str(bench), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--tiny"]  # fmt: skip
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(label: str, metrics: dict, declared: list[dict]):
    for m in declared:
        got = metrics.get(m["name"])
        expect(
            got is not None and got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
            f"{label}: {m['name']} emitted in {m['unit']}",
        )
    expect(set(metrics) == {m["name"] for m in declared}, f"{label}: no undeclared metrics")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in APPLIES:
        code, lines = run(workload, 0)
        expect(code == 0 and bool(lines), f"{workload}: untraced run exits 0")
        if code != 0 or not lines:
            continue
        result = json.loads(lines[-1])
        expect(result["correct"] and result["failed"] == 0, f"{workload}: no operation fails")
        check_metrics(f"{workload} trace 0", result["metrics"], spec["end_to_end"])
        printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, lines) if m}
        wanted = APPLIES[workload] | {m["name"] for m in spec["end_to_end"]} | {"ops_failed_frac"}
        for name in sorted(wanted):
            unit = UNITS.get(name, "s")
            expect(printed.get(name) == unit, f"{workload}: prints {name} in {unit}")

        calls = []
        for attempt in range(2):
            code, lines = run(workload, 1)
            expect(code == 0 and bool(lines), f"{workload}: traced run {attempt} exits 0")
            if code != 0 or not lines:
                break
            result = json.loads(lines[-1])
            expect(result["correct"], f"{workload}: traced run {attempt} is correct")
            check_metrics(f"{workload} trace 1", result["metrics"], spec["per_layer"])
            calls.append({k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")})
        if len(calls) == 2:
            expect(calls[0] == calls[1], f"{workload}: calls identical across two traced runs")
            expect(any(calls[0].values()), f"{workload}: some layer is called")

    check_perturbed_output()

    bare = ROOT / ".bench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = run("exact-small", 0, cwd=bare, bench=bare / "bench" / "run.py")
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           "without src/ the benchmark exits non-zero and prints no result")  # fmt: skip
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


def check_perturbed_output():
    """Run exact-small in-process with welfare diversity shifted by 1e-6."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import peerpred.mechanism as mechanism

    import run as bench_run

    original = mechanism.WelfareBreakdown.to_dict

    def perturbed(self):
        out = original(self)
        out["diversity"] += 1e-6
        return out

    mechanism.WelfareBreakdown.to_dict = perturbed
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = bench_run.main(
                ["--workload", "exact-small", "--seed", str(SEED), "--seconds", "1", "--tiny"]
            )
    finally:
        mechanism.WelfareBreakdown.to_dict = original
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(
        code == 0 and not result["correct"] and result["failed"] > 0,
        f"perturbed welfare output counts as failed ({result['failed']} of {result['attempted']})",
    )


if __name__ == "__main__":
    sys.exit(main())
