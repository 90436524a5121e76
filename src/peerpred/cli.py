"""Command-line front end.

Subcommands wire the file formats to the library: validate-prior, gen-prior,
payout, welfare, check-eq, solve-predictions, audit, impossibility, sweep-n,
and suite.  :func:`_resolve` turns the inputs a subcommand declares (prior
file, mechanism, profile) into objects once, before its handler runs.  Results
go through one writer, :func:`_write`, to stdout (or --out) as CSV or JSON;
human-facing status lines go to stderr so machine output stays
byte-deterministic for fixed inputs and seed.

Exit codes: 0 success, 1 usage or input errors, 2 validation failures (a
prior failing its assumption checks, or acceptance-suite failures).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io as _io
import json
import math
import re
import sys

import numpy as np

from . import acceptance
from .audits import (
    AuditError,
    aggregation_error_audit,
    classification_bound_audit,
    far_from_permutation_gap,
    relabeling_cycle_audit,
)
from .divergence import DivergenceDomainError
from .equilibrium import check_equilibrium, solved_profile
from .io import (
    FormatError,
    load_mechanism,
    load_prior,
    load_profile,
    pairwise_from_loaded,
    prior_to_dict,
    profile_to_dict,
)
from .mechanism import MechanismConfig, MechanismError, monte_carlo_payments, welfare_metrics
from .priors import (
    LatentStatePrior,
    PermutationMap,
    PriorError,
    prior_constants,
    random_snife_prior,
    theorem_bounds,
    validate_snife,
)
from .scoring import ScoreDomainError
from .strategy import (
    ProfileError,
    aggregate_strategies,
    constant_report_profile,
    counterexample_profile,
    permutation_profile,
    random_signal_strategy,
    truth_telling_profile,
    uniform_report_profile,
)
from .tolerances import DEFAULT_TOL, EQUILIBRIUM_EPS

__all__ = ["main"]

NAMED_PROFILES = "truth | uniform | counterexample | constant:<label> | permutation:<imgs>"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a value such as -1e308 or -inf as an option unless it
        # looks like a negative number; no option here starts with a digit,
        # '.', 'inf' or 'nan', so every such value reaches its type check
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise CliError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write(text: str, args):
    """The one writer of results: ``--out`` when given, else stdout."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc.strerror}") from None


def _emit(rows: list[dict], args):
    """Write rows as CSV (one header from the first row) or a JSON list."""
    if args.format == "json":
        return _write(json.dumps(rows, indent=2) + "\n", args)
    buf = _io.StringIO()
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
    _write(buf.getvalue(), args)


def _status(message: str):
    print(message, file=sys.stderr)


def _resolve(args):
    """Replace each input the subcommand declares by the object it names, in
    this order: ``prior`` (a path) by its pairwise moments, keeping the prior
    as loaded in ``loaded``; ``mech`` (a path or None) by the mechanism with
    the ``--alpha/--beta/--rule`` overrides; ``profile`` (a spec) by the
    profile of ``--n`` agents.  Handlers only read the objects."""
    declared = vars(args)
    if "prior" not in declared:
        return
    args.loaded = load_prior(args.prior)
    args.prior = pairwise_from_loaded(args.loaded)
    if "mech" in declared:
        config = load_mechanism(args.mech) if args.mech else MechanismConfig()
        overrides = {k: declared[k] for k in ("alpha", "beta", "rule") if declared[k] is not None}
        args.mech = dataclasses.replace(config, **overrides)
    if "profile" in declared:
        args.profile = _resolve_profile(args.profile, args.prior, args.n)


def _parse_indices(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"{what} must be comma-separated integers, got {text!r}") from None


def _resolve_profile(spec: str, prior, n: int):
    if spec == "truth":
        return truth_telling_profile(prior, n)
    if spec == "uniform":
        return uniform_report_profile(prior, n)
    if spec == "counterexample":
        return counterexample_profile(prior, prior.m)
    if spec.startswith("constant:"):
        label = spec.split(":", 1)[1]
        if label in prior.space.labels:
            target = prior.space.index(label)
        elif label.isdecimal() and int(label) < prior.m:
            target = int(label)
        else:
            raise CliError(
                f"constant profile needs a signal label {prior.space.labels} "
                f"or an index below {prior.m}, got {label!r}"
            )
        return constant_report_profile(prior, n, target)
    if spec.startswith("permutation:"):
        imgs = _parse_indices(spec.split(":", 1)[1], "permutation images")
        return permutation_profile(prior, n, PermutationMap(imgs))
    return load_profile(spec)


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer in [0, 2**64)."""
    try:
        seed = int(text)
    except ValueError:
        pass
    else:
        if 0 <= seed < 2**64:
            return seed
    raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {text!r}")


def _finite(text: str) -> float:
    """A real-valued option: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = _Parser(prog="peerpred", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, prior=True, profile=False, mech=False):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write results to this path instead of stdout")
        if prior:
            p.add_argument("--prior", required=True, help="prior JSON file")
        if profile:
            p.add_argument(
                "--profile",
                required=True,
                help=f"profile JSON file or one of: {NAMED_PROFILES}",
            )
            p.add_argument("--n", type=int, default=4, help="agents for named profiles")
        if mech:
            p.add_argument("--mech", help="mechanism JSON file")
            p.add_argument("--alpha", type=_finite)
            p.add_argument("--beta", type=_finite)
            p.add_argument("--rule", choices=("log", "quadratic"))

    p = sub.add_parser("validate-prior", help="check the prior assumptions")
    p.add_argument("--in", dest="prior", metavar="INFILE", required=True)
    p.add_argument("--tol", type=_finite, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")

    p = sub.add_parser("gen-prior", help="sample a validated latent prior")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--states", type=int, default=2)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")

    p = sub.add_parser("payout", help="expected payoffs, or sampled payments with --trials")
    common(p, profile=True, mech=True)
    p.add_argument("--trials", type=int, help="Monte Carlo trials (needs a latent prior)")
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("welfare", help="welfare decomposition of a profile")
    common(p, profile=True, mech=True)

    p = sub.add_parser("check-eq", help="best-response gaps of a profile")
    common(p, profile=True, mech=True)
    p.add_argument("--eps", type=_finite, default=EQUILIBRIUM_EPS)

    p = sub.add_parser("solve-predictions", help="equilibrium predictions for fixed signal strategies")
    common(p, profile=True, mech=True)

    p = sub.add_parser("audit", help="welfare-bound audits on a profile")
    common(p, profile=True, mech=True)
    p.add_argument(
        "--which",
        choices=("classification-bound", "far-from-permutation", "aggregation-error", "all"),
        default="all",
    )
    p.add_argument("--tau", type=_finite, default=0.2)
    p.add_argument("--eps", type=_finite, default=0.5)

    p = sub.add_parser("impossibility", help="relabeling welfare-cycle identities")
    common(p, profile=True)
    p.add_argument("--perm", required=True, help="comma-separated image indices, e.g. 1,0")

    p = sub.add_parser("sweep-n", help="welfare gaps of solved profiles vs the n-dependence bound")
    common(p, mech=True)
    p.add_argument("--n", required=True, help="comma-separated agent counts")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)

    sub.add_parser("suite", help="run the acceptance battery")
    return parser


def _cmd_validate_prior(args) -> int:
    report = validate_snife(args.prior, tol=args.tol)
    rows = [
        {"assumption": name, "ok": ok, "witness": ";".join(map(str, report.witnesses.get(name, ())))}
        for name, ok in (
            ("symmetric", report.symmetric_ok),
            ("nonzero", report.nonzero_ok),
            ("informative", report.informative_ok),
            ("finegrained", report.finegrained_ok),
        )
    ]
    _emit(rows, args)
    if not report.all_ok:
        _status("validation failed: " + ", ".join(r["assumption"] for r in rows if not r["ok"]))
        return 2
    return 0


def _cmd_gen_prior(args) -> int:
    latent = random_snife_prior(args.m, args.states, seed=args.seed)
    _write(json.dumps(prior_to_dict(latent), indent=2) + "\n", args)
    return 0


def _cmd_payout(args) -> int:
    prior, profile = args.prior, args.profile
    if args.trials is not None:
        if args.trials < 1:
            raise CliError(f"--trials must be at least 1, got {args.trials}")
        if not isinstance(args.loaded, LatentStatePrior):
            raise CliError("--trials needs a latent prior (sampling requires the full joint)")
        mc = monte_carlo_payments(args.mech, args.loaded, profile, args.trials, seed=args.seed)
        rows = [
            {"agent": i, "mean_payment": mc.mean[i], "stderr": mc.stderr[i]}
            for i in range(profile.n)
        ]
        rows.append(
            {"agent": "average", "mean_payment": mc.welfare_mean, "stderr": mc.welfare_stderr}
        )
        _emit(rows, args)
        return 0
    report = check_equilibrium(args.mech, prior, profile)
    rows = [
        {
            "agent": i,
            "signal": prior.space.labels[s],
            "payoff": float(report.payoffs[i, s]),
            "gap": float(report.gaps[i, s]),
        }
        for i in range(profile.n)
        for s in range(prior.m)
    ]
    _emit(rows, args)
    return 0


def _cmd_welfare(args) -> int:
    args.mech.warn_if_outside_regime(args.prior.m)
    _emit([welfare_metrics(args.prior, args.profile).to_dict()], args)
    return 0


def _cmd_check_eq(args) -> int:
    report = check_equilibrium(args.mech, args.prior, args.profile, eps=args.eps)
    _emit(report.to_rows(), args)
    _status(
        f"max_gap={report.max_gap:.3e} eps={args.eps:g} "
        f"is_eps_equilibrium={report.is_eps_equilibrium}"
    )
    return 0


def _cmd_solve_predictions(args) -> int:
    prior = args.prior
    solved = solved_profile(args.mech, prior, args.profile.thetas)
    if args.format == "json":
        # a profile object, directly reusable as a --profile input
        _write(json.dumps(profile_to_dict(solved), indent=2) + "\n", args)
        return 0
    rows = [
        {
            "agent": i,
            "signal": prior.space.labels[s],
            "report": prior.space.labels[r],
            **{
                f"p_{prior.space.labels[u]}": float(solved.predictions[i, s, r, u])
                for u in range(prior.m)
            },
        }
        for i in range(solved.n)
        for s in range(prior.m)
        for r in range(prior.m)
    ]
    _emit(rows, args)
    return 0


def _cmd_audit(args) -> int:
    prior, profile = args.prior, args.profile
    if not args.eps > 0:
        raise CliError(f"--eps must be positive, got {args.eps:g}")
    audits = {
        "classification-bound": lambda: classification_bound_audit(args.mech, prior, profile),
        "far-from-permutation": lambda: far_from_permutation_gap(
            prior, aggregate_strategies(profile).theta_bar, tau=args.tau
        ),
        "aggregation-error": lambda: aggregation_error_audit(prior, profile.thetas, eps=args.eps),
    }
    results = []
    for name, audit in audits.items():
        if args.which not in (name, "all"):
            continue
        try:
            results.append(audit())
        except AuditError as exc:
            if args.which != "all":
                raise
            _status(f"{name} skipped: {exc}")
    _emit([_audit_row(r) for r in results], args)
    return 0


def _audit_row(result) -> dict:
    return {**result.to_dict(), "context": json.dumps(result.context, sort_keys=True, default=str)}


def _cmd_impossibility(args) -> int:
    perm = PermutationMap(_parse_indices(args.perm, "--perm"))
    results = relabeling_cycle_audit(args.prior, args.profile, perm)
    _emit([_audit_row(r) for r in results], args)
    return 0


def _cmd_sweep_n(args) -> int:
    prior, config = args.prior, args.mech
    bounds = theorem_bounds(prior_constants(prior), prior.m)
    ns = _parse_indices(args.n, "--n")
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")

    def unit(n: int) -> dict:
        truth_score = welfare_metrics(
            prior, truth_telling_profile(prior, n)
        ).classification_score
        # per-n generator, so a row does not depend on the other agent counts
        rng = np.random.default_rng([args.seed, n])
        max_gap = -np.inf
        for _ in range(args.samples):
            thetas = np.stack([random_signal_strategy(rng, prior.m) for _ in range(n)])
            profile = solved_profile(config, prior, thetas)
            score = welfare_metrics(prior, profile).classification_score
            max_gap = max(max_gap, score - truth_score)
        gamma2 = bounds.gamma2(n)
        return {
            "n": n,
            "max_welfare_gap": float(max_gap),
            "gamma2": float(gamma2),
            "within_bound": bool(max_gap <= gamma2),
        }

    _emit([unit(n) for n in ns], args)
    return 0


def _cmd_suite(args) -> int:
    results = acceptance.run_all()
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 2 if failed else 0


_COMMANDS = {
    "validate-prior": _cmd_validate_prior,
    "gen-prior": _cmd_gen_prior,
    "payout": _cmd_payout,
    "welfare": _cmd_welfare,
    "check-eq": _cmd_check_eq,
    "solve-predictions": _cmd_solve_predictions,
    "audit": _cmd_audit,
    "impossibility": _cmd_impossibility,
    "sweep-n": _cmd_sweep_n,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(args)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        FormatError,
        PriorError,
        ProfileError,
        MechanismError,
        ScoreDomainError,
        DivergenceDomainError,
        AuditError,
    ) as exc:
        print(f"error: {type(exc).__module__.split('.')[-1]}: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError) as exc:
        # numpy refusing an array whose size comes from an input count (--n, --m, --states)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
