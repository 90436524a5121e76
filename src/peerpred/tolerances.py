"""Every numeric tolerance of the package, named once, and the table rule.

Each constant says what it guards.  Most functions read their constant
directly; a tolerance is a keyword default only where callers choose it, in
``validate_snife`` (``validate-prior --tol``).  ``EQUILIBRIUM_EPS`` is the
default of ``check-eq --eps``, which the command compares with
``check_equilibrium``'s largest gap.  The acceptance criteria in
:mod:`peerpred.acceptance` pin their own thresholds.  The one rule of a
probability table, :func:`probability_table_fault`, is checked where each
table is built, or for a pairwise prior where its file is read.
"""

__all__ = [
    "PROBABILITY_TOL",
    "DEFAULT_TOL",
    "SAMPLED_PRIOR_TOL",
    "STOCHASTIC_TOL",
    "SOLVER_TOL",
    "EQUILIBRIUM_EPS",
    "RATIO_TOL",
    "BOUND_TOL",
    "BEST_PREDICTION_TOL",
    "AUDIT_TOL",
    "probability_table_fault",
]

# Input checks on numbers from outside the program.
#
# Largest |sum - 1| accepted for a probability vector given as input: a latent
# prior's state distribution and emission rows, a pairwise prior file's marginal
# and conditional columns, a prediction, and the signal strategy of the
# far-from-permutation audit; also the largest error bound an exact prediction
# solve may return.  It admits vectors written out to nine or more digits.
PROBABILITY_TOL = 1e-9
# Default margin of the assumption checks in ``validate_snife``
# (``validate-prior --tol``), the symmetry check among them.
DEFAULT_TOL = 1e-9
# Margin of the assumption checks that ``random_snife_prior`` demands of a
# sampled prior: wider than DEFAULT_TOL, so sampled priors keep clear of the
# checks' boundaries.
SAMPLED_PRIOR_TOL = 1e-6

# Checks on numbers the program computes.
#
# Largest |column sum - 1| of a signal strategy that a profile holds.  Tighter
# than a prediction's PROBABILITY_TOL: strategies set the prediction anchors,
# which the audits compare at 1e-12 to 1e-10 (AUDIT_TOL, BOUND_TOL).
STOCHASTIC_TOL = 1e-12
# Most that an exact prediction solve's residual may exceed its own roundoff: a
# member past it whose residual carries over half its error bound takes one step
# of iterative refinement, and a member still past it per unit of max(1, beta/alpha),
# the growth of any backward-stable solve's residual, is solved again densely.
SOLVER_TOL = 1e-12
# Default of ``check-eq --eps``: the largest best-response gain at which the
# command still calls a profile an equilibrium.
EQUILIBRIUM_EPS = 1e-9
# Two likelihood ratios differ in ``monotonicity_strict_predicate`` when
# their cross products differ by more than this.
RATIO_TOL = 1e-12

# Audit verdicts.
#
# Slack within which the classification bound counts as met, and as met
# with equality, at which point the inconsistency must be below it too.
BOUND_TOL = 1e-10
# At equality in the classification bound, a profile's predictions on
# realized cells must lie this close to the best predictions.
BEST_PREDICTION_TOL = 1e-6
# Slack of the far-from-permutation bound and of the relabeling-cycle
# equalities, which compare two welfare sums of the same terms.
AUDIT_TOL = 1e-12


def probability_table_fault(table, axis: int, tol: float) -> str | None:
    """What keeps a slice of the array ``table`` along ``axis`` from being a
    probability vector within ``tol``, or None.  Every entry must lie in
    [0, 1 + tol], checked first: NaN fails every comparison, and no sum of such
    entries overflows.  A float sum of non-negative terms is never below its
    largest term, so this refuses no table that the sums accept.  Then every
    sum must lie within ``tol`` of 1.  An empty table is refused."""
    if table.size == 0:
        return "no entries"
    if not table.min() >= 0.0:
        return "a negative or NaN entry"
    if not table.max() <= 1.0 + tol:
        return "an entry above 1"
    miss = abs(table.sum(axis=axis) - 1.0).max()
    if miss > tol:
        return f"a sum that misses 1 by {miss:.1e}, more than {tol:g}"
    return None
