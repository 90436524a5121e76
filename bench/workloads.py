"""Seed-generated inputs and the job list of each benchmark workload.

:func:`build` writes a workload's prior, profile and mechanism files into a
directory and returns the jobs of one pass.  A job is a ``peerpred`` CLI
invocation, or one library call that no subcommand reaches, paired with an
output check that runs outside the timed region.  Why each workload exists
is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import Callable

import numpy as np
from peerpred import cli, equilibrium, mechanism, priors, strategy
from peerpred import io as pio

import checks

ALPHA, BETA = 1.0, 0.02  # beta/alpha < 1/(4m) for every m used here (m <= 8)
EQ_EPS = 1e-9  # largest best-response gap of an equilibrium profile


@dataclass
class Job:
    """One operation.  ``kind`` names its end-to-end group (``welfare`` adds
    to ``welfare_s``); ``work`` counts the trials or rounds it performs."""

    kind: str
    check: Callable[[object], str | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    work: int = 0


@dataclass(eq=False)
class PriorFile:
    path: str
    latent: priors.LatentStatePrior

    @property
    def m(self) -> int:
        return self.latent.m

    @property
    def labels(self) -> tuple[str, ...]:
        return self.latent.space.labels

    @cached_property
    def joint(self) -> np.ndarray:
        """joint[a, b] = Pr(one agent a, another b), from the latent model."""
        p, e = self.latent.state_probs, self.latent.emissions
        return np.einsum("t,ta,tb->ab", p, e, e)

    @cached_property
    def conditional(self) -> np.ndarray:
        """conditional[a, b] = q(a | b)."""
        return self.joint / self.joint.sum(axis=0)[None, :]

    @cached_property
    def pairwise(self) -> priors.PairwisePrior:
        return priors.from_latent(self.latent)


@dataclass(eq=False)
class ProfileRef:
    """A ``--profile`` argument and how to rebuild the profile it names."""

    spec: str
    n: int
    prior: PriorFile
    equilibrium: bool
    build: Callable[[], strategy.StrategyProfile] = field(repr=False)

    @cached_property
    def profile(self) -> strategy.StrategyProfile:
        return self.build()

    def args(self) -> list[str]:
        return ["--prior", self.prior.path, "--profile", self.spec, "--n", str(self.n)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Inputs:
    """Writes one workload's input files, drawing everything from ``rng``."""

    def __init__(self, directory: Path, rng: np.random.Generator):
        self.dir = directory
        self.rng = rng

    def seed(self) -> int:
        return int(self.rng.integers(2**31))

    def prior(self, name: str, m: int) -> PriorFile:
        latent = priors.random_snife_prior(m, 2, seed=self.seed())
        path = self.dir / f"{name}.json"
        pio.save_prior(latent, path)
        return PriorFile(str(path), latent)

    def mechanism(self, rule: str, variant: str) -> tuple[str, mechanism.MechanismConfig]:
        config = mechanism.MechanismConfig(ALPHA, BETA, rule, variant)
        path = self.dir / f"mech-{rule}-{variant}.json"
        pio.save_mechanism(config, path)
        return str(path), config

    def solved(self, name: str, prior: PriorFile, n: int) -> ProfileRef:
        """Random signal strategies with predictions from
        ``solve-predictions --format json --out``."""
        m = prior.m
        thetas = np.stack([strategy.random_signal_strategy(self.rng, m) for _ in range(n)])
        raw = self.dir / f"{name}-raw.json"
        pio.save_profile(strategy.StrategyProfile(thetas, np.full((n, m, m, m), 1.0 / m)), raw)
        path = self.dir / f"{name}.json"
        code, _ = run_cli(
            ["solve-predictions", "--prior", prior.path, "--profile", str(raw),
             "--beta", str(BETA), "--format", "json", "--out", str(path)]
        )  # fmt: skip
        if code != 0:
            raise RuntimeError(f"setup: solve-predictions exited {code} for {path}")
        return ProfileRef(str(path), n, prior, False, lambda: pio.load_profile(path))

    def permutation(self, m: int) -> tuple[int, ...]:
        while True:
            perm = tuple(int(x) for x in self.rng.permutation(m))
            if perm != tuple(range(m)):
                return perm


def named(prior: PriorFile, n: int, spec: str, perm=None, target=None) -> ProfileRef:
    """A named ``--profile`` spec with the strategy constructor it stands for."""
    pw = lambda: prior.pairwise  # noqa: E731
    constructors = {
        "truth": lambda: strategy.truth_telling_profile(pw(), n),
        "uniform": lambda: strategy.uniform_report_profile(pw(), n),
        "counterexample": lambda: strategy.counterexample_profile(pw(), n),
        "constant": lambda: strategy.constant_report_profile(pw(), n, target),
        "permutation": lambda: strategy.permutation_profile(pw(), n, priors.PermutationMap(perm)),
    }
    arg = spec
    if spec == "constant":
        arg = f"constant:{prior.labels[target]}"
    elif spec == "permutation":
        arg = "permutation:" + ",".join(map(str, perm))
    return ProfileRef(arg, n, prior, spec in ("truth", "permutation"), constructors[spec])


# -- jobs -------------------------------------------------------------------


def _mech_args(rule: str) -> list[str]:
    return ["--alpha", str(ALPHA), "--beta", str(BETA), "--rule", rule]


def welfare_job(p: ProfileRef) -> Job:
    reference = cache(
        lambda: checks.welfare_reference(p.prior.joint, p.profile.thetas, p.profile.predictions)
    )
    return Job(
        "welfare",
        lambda out: checks.check_welfare(out, reference),
        ["welfare", *p.args(), "--beta", str(BETA)],
    )


def check_eq_job(p: ProfileRef, rule: str) -> Job:
    return Job(
        "check_eq",
        lambda out: checks.check_gaps(out, p.n, p.prior.m, p.equilibrium, EQ_EPS, "check-eq"),
        ["check-eq", *p.args(), *_mech_args(rule), "--eps", str(EQ_EPS)],
    )


def payout_job(p: ProfileRef, rule: str) -> Job:
    return Job(
        "payout",
        lambda out: checks.check_gaps(out, p.n, p.prior.m, p.equilibrium, EQ_EPS, "payout"),
        ["payout", *p.args(), *_mech_args(rule)],
    )


def solve_job(p: ProfileRef, rule: str) -> Job:
    return Job(
        "solve",
        lambda out: checks.check_solve(
            out, p.prior.labels, p.prior.conditional, p.profile.thetas, ALPHA, BETA
        ),
        ["solve-predictions", *p.args(), *_mech_args(rule)],
    )


def audit_job(p: ProfileRef, rule: str, eps: float | None = None) -> Job:
    extra = [] if eps is None else ["--eps", str(eps)]
    return Job(
        "audit",
        lambda out: checks.check_flags(out, "passed", "audit"),
        ["audit", *p.args(), *_mech_args(rule), *extra],
    )


def impossibility_job(p: ProfileRef, perm: tuple[int, ...]) -> Job:
    order = priors.PermutationMap(perm).order
    return Job(
        "impossibility",
        lambda out: checks.check_flags(out, "passed", "impossibility", order + 1),
        ["impossibility", *p.args(), "--perm", ",".join(map(str, perm))],
    )


def sweep_job(prior: PriorFile, ns: str, samples: int, seed: int, rule: str) -> Job:
    count = len(ns.split(","))
    return Job(
        "sweep",
        lambda out: checks.check_flags(out, "within_bound", "sweep-n", count),
        ["sweep-n", "--prior", prior.path, "--n", ns, "--samples", str(samples),
         "--seed", str(seed), *_mech_args(rule)],
    )  # fmt: skip


def _exact_average_payment(config: mechanism.MechanismConfig, p: ProfileRef) -> float:
    """Expected average payment, from the program's exact layers: the
    classification score for the disagreement variant (base payments are
    zero-sum), else the signal-weighted conditional payoffs."""
    pw, profile = p.prior.pairwise, p.profile
    if config.variant == "disagreement":
        return mechanism.welfare_metrics(pw, profile).average_welfare
    marginal = p.prior.joint.sum(axis=0)
    return float(
        np.mean(
            [
                sum(
                    marginal[s]
                    * equilibrium.expected_conditional_payoff(config, pw, profile, i, s)
                    for s in range(profile.m)
                )
                for i in range(profile.n)
            ]
        )
    )


def mc_job(inputs: Inputs, p: ProfileRef, rule: str, variant: str, trials: int) -> Job:
    mech_path, config = inputs.mechanism(rule, variant)
    reference = cache(lambda: _exact_average_payment(config, p))
    return Job(
        "mc",
        lambda out: checks.check_mc(out, p.n, reference),
        ["payout", *p.args(), "--mech", mech_path, "--trials", str(trials),
         "--seed", str(inputs.seed())],
        work=trials,
    )  # fmt: skip


def rounds_job(inputs: Inputs, p: ProfileRef, count: int) -> Job:
    """``count`` realized rounds of the disagreement mechanism, scored by
    ``mechanism.realized_payments``.  Reports are drawn from the profile:
    a latent state, then each agent's signal, report and prediction."""
    rng, latent, profile = inputs.rng, p.prior.latent, p.profile
    n, m = profile.n, profile.m
    config = mechanism.MechanismConfig(ALPHA, BETA, "log", "disagreement")
    groups = [np.arange(n // 2), np.arange(n // 2, n)]
    built, arrays = [], []
    for _ in range(count):
        state = rng.choice(latent.num_states, p=latent.state_probs)
        signals = np.array([rng.choice(m, p=latent.emissions[state]) for _ in range(n)])
        reports = np.array([rng.choice(m, p=profile.thetas[i][:, signals[i]]) for i in range(n)])
        preds = profile.predictions[np.arange(n), signals, reports]
        peers = np.empty(n, dtype=int)
        pairs = np.empty((n, 2), dtype=int)
        for i in range(n):
            mates = groups[0] if i < n // 2 else groups[1]
            peers[i] = rng.choice(mates[mates != i])
            pairs[i] = rng.choice(np.delete(np.arange(n), i), size=2, replace=False)
        round_reports = [mechanism.Report(int(reports[i]), preds[i]) for i in range(n)]
        built.append((round_reports, mechanism.Matching(peers, pairs)))
        arrays.append((reports, preds, pairs))
    return Job(
        "rounds",
        lambda out: checks.check_rounds(out, arrays),
        call=lambda: [mechanism.realized_payments(config, r, mt) for r, mt in built],
        work=count,
    )


# -- workloads --------------------------------------------------------------


def exact_large(inputs: Inputs, tiny: bool) -> list[Job]:
    n = 64 if tiny else 512
    ns = "16,32,64" if tiny else "64,128,256,512"
    p3 = inputs.prior("p3", 3)
    p8 = inputs.prior("p8", 8)
    solved = inputs.solved("solved", p3, n)
    truth = named(p3, n, "truth")
    truth8 = named(p8, 16 if tiny else 64, "truth")
    return [
        welfare_job(solved),
        welfare_job(truth),
        check_eq_job(solved, "log"),
        solve_job(solved, "log"),
        audit_job(solved, "log", eps=1.0),
        sweep_job(p3, ns, 2, inputs.seed(), "log"),
        welfare_job(truth8),
        check_eq_job(truth8, "log"),
        rounds_job(inputs, solved, 2 if tiny else 4),
    ]


SMALL_CELLS = [(m, n) for m in (2, 3, 4) for n in (4, 6, 8)]
SMALL_CELLS_TINY = [(4, 4), (3, 6), (2, 8)]


def exact_small(inputs: Inputs, tiny: bool) -> list[Job]:
    cells = SMALL_CELLS_TINY if tiny else SMALL_CELLS * 3
    jobs: list[Job] = []
    solved_by_n: dict[int, ProfileRef] = {}
    mc_profile = None
    for k, (m, n) in enumerate(cells):
        prior = inputs.prior(f"p{k}", m)
        rule = ("log", "quadratic")[k % 2]
        solved = inputs.solved(f"solved{k}", prior, n)
        solved_by_n.setdefault(n, solved)
        if (m, n) == (3, 6) and mc_profile is None:
            mc_profile = solved
        profiles = [
            named(prior, n, "truth"),
            named(prior, n, "uniform"),
            named(prior, n, "constant", target=int(inputs.rng.integers(m))),
            named(prior, n, "permutation", perm=inputs.permutation(m)),
            solved,
        ]
        if n == m:
            profiles.append(named(prior, n, "counterexample"))
        perm = inputs.permutation(m)
        for p in profiles:
            jobs += [
                welfare_job(p),
                check_eq_job(p, rule),
                payout_job(p, rule),
                solve_job(p, rule),
                audit_job(p, rule),
                impossibility_job(p, perm),
            ]
        jobs.append(sweep_job(prior, "4,6,8,16", 5, inputs.seed(), rule))
    jobs.append(mc_job(inputs, mc_profile, "log", "disagreement", 2000 if tiny else 20000))
    for n in sorted(solved_by_n):
        jobs.append(rounds_job(inputs, solved_by_n[n], 10 if tiny else 100))
    return jobs


def monte_carlo(inputs: Inputs, tiny: bool) -> list[Job]:
    scale = 0.05 if tiny else 1.0
    prior = inputs.prior("p3", 3)
    return [
        mc_job(inputs, inputs.solved("solved32", prior, 32), "log", "disagreement", int(60000 * scale)),
        mc_job(inputs, named(prior, 32, "truth"), "quadratic", "disagreement", int(60000 * scale)),
        mc_job(inputs, named(prior, 16, "truth"), "log", "truthful", int(100000 * scale)),
    ]


def build(workload: str, seed: int, directory: Path, tiny: bool = False) -> list[Job]:
    """Write the inputs of ``workload`` for ``seed`` and return one pass of jobs."""
    makers = {"exact-large": exact_large, "exact-small": exact_small, "monte-carlo": monte_carlo}
    inputs = Inputs(directory, np.random.default_rng([seed, list(makers).index(workload)]))
    return makers[workload](inputs, tiny)
