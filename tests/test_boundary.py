"""Inputs are checked once at the boundary, never inside the solver or the loop.

Parsing, `build_game` and `CharacteristicContext` check their inputs, a
model is validated once, by whichever boundary reads it first, and the
joint-action and type-profile checks behind the public `system_utility`,
`payoff` and `realized_system_utility` must not run again per evaluation,
and no `CharacteristicContext` is built while solving, exporting or
simulating: games pay Normal players and Malicious players straight from
index keys.
"""

from __future__ import annotations

import sys

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
    plan,
    run_scenario,
    trace_to_lines,
    validate_model,
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


def test_each_model_is_validated_once(monkeypatch, two_vulns_path):
    # Parsing checks the model and the model keeps the verdict, which every
    # game, replan and compile on it reads.
    calls = []

    def counted(model):
        calls.append(model)
        return validate_model(model)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("bayesadapt") and getattr(module, "validate_model", None) is validate_model:
            monkeypatch.setattr(module, "validate_model", counted)

    trace = run_scenario(parse_scenario_file(two_vulns_path))
    assert sum(record.replanned for record in trace.records) == 3
    assert len(calls) == 1

    calls.clear()
    script = parse_scenario_file(two_vulns_path)
    att = analyze_attacks(script.timeline, script.kb, script.model)
    plan(script.model, att)
    export_induced_nfg(build_game(script.model, att), "lb3-two-vulns")
    assert calls == [script.model]
