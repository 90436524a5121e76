"""Command-line front end.

Subcommands wire the file formats to the library: validate-prior, gen-prior,
payout, welfare, check-eq, solve-predictions, audit, impossibility, sweep-n,
and suite.  :func:`_parse` hands the arguments after a subcommand name
straight to that subcommand's parser, which yields the namespace the
top-level parser would; anything else (no arguments, -h, an unknown command)
goes through the top-level parser and its messages.  :func:`_resolve` turns
the inputs a subcommand declares (prior file, mechanism, profile) into
objects once, before its handler runs.  Results go through one writer,
:func:`_write`, to stdout (or --out) as CSV or as one line of JSON from
:func:`peerpred.io.json_text`, the writer of the files; human-facing status
lines go to stderr so machine output stays byte-deterministic for fixed
inputs and seed.

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
import os
import re
import sys

import numpy as np

from .audits import (
    AuditError,
    aggregation_error_audit,
    classification_bound_audit,
    far_from_permutation_gap,
    relabeling_cycle_audit,
    sweep_row,
)
from .equilibrium import check_equilibrium, solved_profile
from .io import (
    json_text,
    load_mechanism,
    load_prior,
    load_profile,
    pairwise_from_loaded,
    prior_to_dict,
    profile_to_dict,
)
from .mechanism import MechanismConfig, monte_carlo_payments, welfare_metrics
from .priors import (
    LatentStatePrior,
    PermutationMap,
    gamma2,
    random_snife_prior,
    validate_snife,
)
from .strategy import (
    constant_report_profile,
    counterexample_profile,
    permutation_profile,
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


def _write(text: str, args):
    """The one writer of results: ``--out`` when given, else stdout."""
    if not args.out:
        sys.stdout.write(text)
        sys.stdout.flush()  # so that a closed pipe raises here, inside main
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc.strerror}") from None


def _emit(header: tuple, columns: list, args):
    """Write a table given as its columns, sequences of one length: with
    ``--format json`` a JSON list of one object per row, else CSV by
    ``csv.writer``, the header line first (floats in 17 significant digits,
    which round-trip; a table without rows writes nothing)."""
    if args.format == "json":
        return _write(json_text([dict(zip(header, row)) for row in zip(*columns)]), args)
    buf = _io.StringIO()
    if columns and columns[0]:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*map(_column_text, columns)))
    _write(buf.getvalue(), args)


def _column_text(column):
    """The CSV text of one column: a column of floats alone by one ``map``,
    any other value by value, ``.17g`` for a float and ``str`` else."""
    if set(map(type, column)) == {float}:
        return map("%.17g".__mod__, column)
    return [f"{v:.17g}" if isinstance(v, float) else str(v) for v in column]


def _emit_records(records: list[dict], args):
    """:func:`_emit` of rows given as dicts with the same keys in one order."""
    header = tuple(records[0]) if records else ()
    _emit(header, list(zip(*(record.values() for record in records))), args)


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
    args.prior = pairwise_from_loaded(args.loaded, args.prior)
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


def _resolve_profile(spec: str, prior, n: int | None):
    if spec == "counterexample":  # --n defaults to m here, to 4 for the other names
        return counterexample_profile(prior, prior.m if n is None else n)
    n = 4 if n is None else n
    if spec == "truth":
        return truth_telling_profile(prior, n)
    if spec == "uniform":
        return uniform_report_profile(prior, n)
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
    """The one parser of the process; parsing leaves it unchanged.  Its
    ``commands`` map each subcommand name to the subcommand's parser."""
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
            p.add_argument("--n", type=int, help="agents for named profiles (4; counterexample: m)")
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
    p.add_argument(
        "--eps",
        type=_finite,
        default=EQUILIBRIUM_EPS,
        help="gap tolerance in units of max(alpha, beta), the scale of the gaps' rounding: "
        "the profile is an eps-equilibrium when max_gap <= eps * max(alpha, beta)",
    )

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

    sub.add_parser("suite", help="run the acceptance battery").set_defaults(out=None)
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``parser.parse_args(argv)``.  When ``argv`` starts
    with a subcommand, that subcommand's parser reads the rest directly, as
    the top-level parser would pass it on, and ``command`` is set after."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # usage errors, -h: the top-level parser's messages
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _cmd_validate_prior(args) -> int:
    if not args.tol >= 0:
        raise CliError(f"--tol must be non-negative, got {args.tol:g}")
    report = validate_snife(args.prior, tol=args.tol)
    checks = {
        "symmetric": report.symmetric_ok,
        "nonzero": report.nonzero_ok,
        "informative": report.informative_ok,
        "finegrained": report.finegrained_ok,
    }
    witnesses = [";".join(map(str, report.witnesses.get(name, ()))) for name in checks]
    _emit(("assumption", "ok", "witness"), [list(checks), list(checks.values()), witnesses], args)
    if not report.all_ok:
        _status("validation failed: " + ", ".join(name for name, ok in checks.items() if not ok))
        return 2
    return 0


def _cmd_gen_prior(args) -> int:
    latent = random_snife_prior(args.m, args.states, seed=args.seed)
    _write(json_text(prior_to_dict(latent)), args)
    return 0


def _cmd_payout(args) -> int:
    prior, profile = args.prior, args.profile
    if args.trials is not None:
        if args.trials < 1:
            raise CliError(f"--trials must be at least 1, got {args.trials}")
        if not isinstance(args.loaded, LatentStatePrior):
            raise CliError("--trials needs a latent prior (sampling requires the full joint)")
        mc = monte_carlo_payments(args.mech, args.loaded, profile, args.trials, seed=args.seed)
        columns = [
            [*range(profile.n), "average"],
            np.append(mc.mean, mc.welfare_mean).tolist(),
            np.append(mc.stderr, mc.welfare_stderr).tolist(),
        ]
        _emit(("agent", "mean_payment", "stderr"), columns, args)
        return 0
    report = check_equilibrium(args.mech, prior, profile)
    n, m = report.gaps.shape
    columns = [
        np.repeat(np.arange(n), m).tolist(),
        list(prior.space.labels) * n,
        report.payoffs.ravel().tolist(),
        report.gaps.ravel().tolist(),
    ]
    _emit(("agent", "signal", "payoff", "gap"), columns, args)
    return 0


def _cmd_welfare(args) -> int:
    args.mech.warn_if_outside_regime(args.prior.m)
    _emit_records([welfare_metrics(args.prior, args.profile).to_dict()], args)
    return 0


def _cmd_check_eq(args) -> int:
    if not args.eps >= 0:
        raise CliError(f"--eps must be non-negative, got {args.eps:g}")
    report = check_equilibrium(args.mech, args.prior, args.profile)
    n, m = report.gaps.shape
    columns = [np.repeat(np.arange(n), m).tolist(), list(range(m)) * n]
    _emit(("agent", "signal", "gap"), [*columns, report.gaps.ravel().tolist()], args)
    tolerance = args.eps * max(args.mech.alpha, args.mech.beta)
    _status(
        f"max_gap={report.max_gap:.3e} eps={args.eps:g} "
        f"is_eps_equilibrium={report.max_gap <= tolerance}"
    )
    return 0


def _cmd_solve_predictions(args) -> int:
    prior = args.prior
    solved = solved_profile(args.mech, prior, args.profile.thetas)
    if args.format == "json":
        # a profile object, directly reusable as a --profile input
        _write(json_text(profile_to_dict(solved)), args)
        return 0
    labels = list(prior.space.labels)
    n, m = solved.n, solved.m
    # rows (agent, signal, report), reports fastest
    columns = [
        np.repeat(np.arange(n), m * m).tolist(),
        [label for label in labels for _ in labels] * n,
        labels * (n * m),
        *solved.predictions.reshape(-1, m).T.tolist(),
    ]
    _emit(("agent", "signal", "report", *(f"p_{label}" for label in labels)), columns, args)
    return 0


def _cmd_audit(args) -> int:
    prior, profile = args.prior, args.profile
    if not args.eps > 0:
        raise CliError(f"--eps must be positive, got {args.eps:g}")
    audits = {
        "classification-bound": lambda: classification_bound_audit(args.mech, prior, profile),
        "far-from-permutation": lambda: far_from_permutation_gap(
            prior, profile.thetas.mean(axis=0), tau=args.tau
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
    _emit_records([_audit_row(r) for r in results], args)
    return 0


def _audit_row(result) -> dict:
    return {**result.to_dict(), "context": json.dumps(result.context, sort_keys=True, default=str)}


def _cmd_impossibility(args) -> int:
    perm = PermutationMap(_parse_indices(args.perm, "--perm"))
    results = relabeling_cycle_audit(args.prior, args.profile, perm)
    _emit_records([_audit_row(r) for r in results], args)
    return 0


def _cmd_sweep_n(args) -> int:
    prior, config = args.prior, args.mech
    ns = _parse_indices(args.n, "--n")
    if min(ns) < 2:  # checked before any row runs
        raise CliError(f"--n {min(ns)}: need n >= 2")
    bounds = [gamma2(prior, n) for n in ns]
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")

    def unit(n: int, bound: float) -> dict:
        # per-n generator, so a row does not depend on the other agent counts
        max_gap = sweep_row(config, prior, n, args.samples, np.random.default_rng([args.seed, n]))
        return {
            "n": n,
            "max_welfare_gap": float(max_gap),
            "gamma2": float(bound),
            "within_bound": bool(max_gap <= bound),
        }

    _emit_records([unit(n, bound) for n, bound in zip(ns, bounds)], args)
    return 0


def _cmd_suite(args) -> int:
    from . import acceptance  # only this subcommand needs it: imported when it runs

    results = acceptance.run_all()
    failed = [r for r in results if not r.passed]
    summary = f"{len(results) - len(failed)}/{len(results)} criteria passed\n"
    _write("".join(r.line() + "\n" for r in results) + summary, args)
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
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        _resolve(args)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # the reader left early: stdout to devnull, so the final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError, ValueError) as exc:
        # an input error of the package names its module; anything else, such as
        # numpy refusing an array whose size comes from an input count (--n, --m,
        # --states) or a count too large for a float, is printed alone
        module = type(exc).__module__
        source = f"{module.rpartition('.')[2]}: " if module.startswith(f"{__package__}.") else ""
        print(f"error: {source}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
