"""Component-level security adaptation via Bayesian games.

The library turns a component-based system model plus a component-level
attack model into a Bayesian multi-player game, splits system utility into
per-component payoffs by Shapley value, enumerates pure Bayesian Nash
equilibria, and drives a deterministic monitor-analyze-plan-execute loop
with the selected equilibrium.
"""

from .attacks import (
    AttackAnalysisError,
    AttackEvent,
    AttackModel,
    RewardRule,
    UnknownVulnerabilityError,
    VulnerabilityRecord,
    analyze_attacks,
    validate_attack_model,
)
from .game import (
    BayesianGame,
    PlayerType,
    build_game,
    payoff,
    prior_probability,
    realized_system_utility,
)
from .loop import (
    TICK_BUDGET,
    AdaptationDecision,
    LoopRecord,
    ScenarioAborted,
    SolveStats,
    Trace,
    compromise_draw,
    plan,
    run_scenario,
    script_fingerprint,
    trace_to_lines,
    write_trace,
)
from .model import (
    Component,
    InvalidJointActionError,
    QualityAttribute,
    SystemModel,
    UtilityRule,
    Violation,
    baseline_action,
    system_utility,
    validate_model,
)
from .scenario import ScenarioError, ScenarioScript, parse_scenario, parse_scenario_file, parse_system_model
from .shapley import (
    CharacteristicContext,
    coalition_value,
    shapley_allocation,
    shapley_values,
)
from .solver import (
    DEFAULT_EPSILON,
    DEFAULT_PROFILE_BUDGET,
    BudgetExceededError,
    EquilibriumResult,
    enumerate_pure_bne,
    examined_profile_count,
    export_induced_nfg,
    full_profile_count,
    induced_strategy_counts,
    interim_payoff,
    maximin_fallback,
    select_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationDecision",
    "AttackAnalysisError",
    "AttackEvent",
    "AttackModel",
    "BayesianGame",
    "BudgetExceededError",
    "CharacteristicContext",
    "Component",
    "DEFAULT_EPSILON",
    "DEFAULT_PROFILE_BUDGET",
    "EquilibriumResult",
    "InvalidJointActionError",
    "LoopRecord",
    "PlayerType",
    "QualityAttribute",
    "RewardRule",
    "ScenarioAborted",
    "ScenarioError",
    "ScenarioScript",
    "SolveStats",
    "SystemModel",
    "TICK_BUDGET",
    "Trace",
    "UnknownVulnerabilityError",
    "UtilityRule",
    "Violation",
    "VulnerabilityRecord",
    "analyze_attacks",
    "baseline_action",
    "build_game",
    "coalition_value",
    "compromise_draw",
    "enumerate_pure_bne",
    "examined_profile_count",
    "export_induced_nfg",
    "full_profile_count",
    "induced_strategy_counts",
    "interim_payoff",
    "maximin_fallback",
    "parse_scenario",
    "parse_scenario_file",
    "parse_system_model",
    "payoff",
    "plan",
    "prior_probability",
    "realized_system_utility",
    "run_scenario",
    "script_fingerprint",
    "select_equilibrium",
    "shapley_allocation",
    "shapley_values",
    "system_utility",
    "trace_to_lines",
    "validate_attack_model",
    "validate_model",
    "write_trace",
]
