"""Inputs are checked once at the boundary, never inside the solver or the loop.

Parsing, `build_game` and `CharacteristicContext` check their inputs; the
joint-action and type-profile checks behind the public `system_utility`,
`payoff` and `realized_system_utility` must not run again per evaluation,
and no `CharacteristicContext` is built while solving, exporting or
simulating: games pay Normal players and Malicious players straight from
index keys.
"""

from __future__ import annotations

import bayesadapt.game as game_module
import bayesadapt.model as model_module
from bayesadapt import (
    CharacteristicContext,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    export_induced_nfg,
    maximin_fallback,
    parse_scenario_file,
    run_scenario,
    trace_to_lines,
)

CHECKS = (
    (model_module, "_check_joint_action"),
    (game_module, "_check_joint_action"),
    (game_module, "_check_type_profile"),
    (CharacteristicContext, "__post_init__"),
)


def _solve_export_simulate(lb3_path, pennies_path):
    # Every operation gets a freshly built game, so no memo of an earlier
    # operation can hide a check.
    def fresh_game(script):
        return build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))

    lb3 = parse_scenario_file(lb3_path)
    pennies = parse_scenario_file(pennies_path)
    return (
        enumerate_pure_bne(fresh_game(lb3)),
        enumerate_pure_bne(fresh_game(pennies)),
        maximin_fallback(fresh_game(pennies)),
        export_induced_nfg(fresh_game(lb3), "lb3"),
        trace_to_lines(run_scenario(lb3)),
    )


def test_inner_loops_run_no_joint_action_or_type_checks(monkeypatch, lb3_path, pennies_path):
    expected = _solve_export_simulate(lb3_path, pennies_path)
    calls = []

    def forbidden(name):
        def check(*_args):
            calls.append(name)
            raise AssertionError(f"{name} ran inside an inner loop")
        return check

    for module, name in CHECKS:
        monkeypatch.setattr(module, name, forbidden(f"{module.__name__}.{name}"))

    assert _solve_export_simulate(lb3_path, pennies_path) == expected
    assert calls == []
