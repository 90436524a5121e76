"""Peer-prediction mechanisms over explicit common priors.

Implements signal elicitation without verification: a truthful base mechanism
(proper prediction score plus an agreement penalty) and its disagreement
variant (zero-sum group payments plus a Hellinger classification reward),
with exact expected payments, closed-form best responses, equilibrium
prediction solving, welfare decomposition into diversity and inconsistency,
and numeric audits of the welfare-ordering guarantees.
"""

from .divergence import DivergenceDomainError, hellinger, monotonicity_strict_predicate
from .equilibrium import (
    EquilibriumReport,
    check_equilibrium,
    expected_conditional_payoff,
    solve_equilibrium_predictions,
    solve_equilibrium_predictions_direct,
    solve_prediction_stack,
    solved_profile,
)
from .mechanism import (
    Matching,
    MechanismConfig,
    MechanismError,
    MonteCarloPayments,
    Report,
    WelfareBreakdown,
    monte_carlo_payments,
    realized_payments,
    welfare_batch,
    welfare_metrics,
    zero_sum_group_scores,
)
from .priors import (
    AssumptionReport,
    LatentStatePrior,
    PairwisePrior,
    PermutationMap,
    PriorConstants,
    PriorError,
    SignalSpace,
    TheoremBounds,
    all_permutations,
    from_latent,
    permute_prior,
    prior_constants,
    random_snife_prior,
    validate_snife,
)
from .scoring import ProperScoringRule, ScoreDomainError, get_rule
from .strategy import (
    ProfileError,
    StrategyProfile,
    constant_report_profile,
    counterexample_profile,
    permutation_profile,
    permute_profile,
    random_signal_strategies,
    random_signal_strategy,
    tau_closeness,
    truth_telling_profile,
    uniform_report_profile,
)

__version__ = "0.1.0"
