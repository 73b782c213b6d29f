"""Component-level security adaptation via Bayesian games.

The library turns a component-based system model plus a component-level
attack model into a Bayesian multi-player game, splits system utility into
per-component payoffs by Shapley value, enumerates pure Bayesian Nash
equilibria, and drives a deterministic monitor-analyze-plan-execute loop
with the selected equilibrium. An exported name's module is imported when
the name is first used.
"""

from importlib import import_module

# Each exported name by its home module, read by `__getattr__` (PEP 562):
# `import bayesadapt` loads no submodule, and a command that never runs the
# loop never loads `loop`.
_EXPORTS = {
    name: home
    for home, names in {
        "attacks": ("AttackAnalysisError", "AttackEvent", "AttackModel", "RewardRule", "UnknownVulnerabilityError",
                    "VulnerabilityRecord", "analyze_attacks", "validate_attack_model"),
        "game": ("BayesianGame", "PlayerType", "build_game", "payoff", "prior_probability",
                 "realized_system_utility"),
        "loop": ("TICK_BUDGET", "AdaptationDecision", "LoopRecord", "ScenarioAborted", "SolveStats", "Trace",
                 "compromise_draw", "plan", "run_scenario", "script_fingerprint", "trace_to_lines", "write_trace"),
        "model": ("Component", "InvalidJointActionError", "QualityAttribute", "SystemModel", "UtilityRule",
                  "Violation", "baseline_action", "system_utility", "validate_model"),
        "scenario": ("ScenarioError", "ScenarioScript", "parse_scenario", "parse_scenario_file",
                     "parse_system_model"),
        "shapley": ("CharacteristicContext", "coalition_value", "shapley_allocation", "shapley_values"),
        "solver": ("DEFAULT_EPSILON", "DEFAULT_PROFILE_BUDGET", "BudgetExceededError", "EquilibriumResult",
                   "enumerate_pure_bne", "examined_profile_count", "export_induced_nfg", "full_profile_count",
                   "induced_strategy_counts", "interim_payoff", "maximin_fallback", "select_equilibrium"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An exported name or a submodule such as `bayesadapt.loop`, imported on first use and then kept."""
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
