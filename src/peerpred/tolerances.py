"""Every numeric tolerance of the package, named once.

Each constant says what it guards.  Most functions read their constant
directly; a tolerance is a keyword default only where callers choose it:
``validate_snife`` (``validate-prior --tol``) and ``check_equilibrium``
(``check-eq --eps``).  The acceptance criteria in :mod:`peerpred.acceptance`
pin their own thresholds.
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
]

# Input checks on numbers from outside the program.
#
# Largest |sum - 1| accepted for a probability vector given as input: a
# latent prior's state distribution and emission rows, a pairwise prior
# file's marginal and conditional columns, a prediction, and the signal
# strategy of the far-from-permutation audit.  It admits vectors
# written out to nine or more digits, as in hand-entered files.
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
# Largest |column sum - 1| of a signal strategy that a profile holds.
STOCHASTIC_TOL = 1e-12
# Most that an exact prediction solve's residual may exceed its own roundoff: a
# member past it takes one step of iterative refinement, and a member still past
# it per unit of max(1, beta/alpha) (the residual of any backward-stable solve
# grows like 1 + beta/alpha) is solved again by the dense solve.
SOLVER_TOL = 1e-12
# Largest best-response gain at which ``check_equilibrium`` (and
# ``check-eq --eps``) still calls a profile an equilibrium.
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
