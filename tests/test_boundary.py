"""Inputs are checked once at the boundary, never inside the solver or the loop.

Parsing, `build_game`, `plan` and `CharacteristicContext` check their
inputs, a game that `build_game` did not make is rejected by every entry
point, a model is validated once, by
whichever boundary reads it first, a run of a checked script checks no
attack model or game again, and the
joint-action and type-profile checks behind the public `system_utility`,
`payoff` and `realized_system_utility` must not run again per evaluation,
and no `CharacteristicContext` is built while solving, exporting or
simulating: games pay Normal players and Malicious players straight from
index keys.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import pytest

import bayesadapt.game as game_module
import bayesadapt.model as model_module
import bayesadapt.solver as solver_module
from bayesadapt import (
    AttackAnalysisError,
    CharacteristicContext,
    RewardRule,
    ScenarioError,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    export_induced_nfg,
    maximin_fallback,
    parse_scenario_file,
    plan,
    run_scenario,
    script_fingerprint,
    shapley_allocation,
    system_utility,
    trace_to_lines,
    validate_attack_model,
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


def test_a_run_checks_no_attack_model_or_game_again(monkeypatch, two_vulns_path):
    # The script checked every record, label and event the loop folds, so
    # no replan runs the attack model's check. The public entry points
    # `plan` and `build_game` still run it, and a copy of a built game,
    # which no check made, is rejected, not compiled afresh.
    calls = []

    def counted(name, check):
        def wrapper(*args):
            calls.append(name)
            return check(*args)
        return wrapper

    check = counted("validate_attack_model", validate_attack_model)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("bayesadapt") and getattr(module, "validate_attack_model", None) is validate_attack_model:
            monkeypatch.setattr(module, "validate_attack_model", check)

    script = parse_scenario_file(two_vulns_path)
    trace = run_scenario(script)
    assert sum(record.replanned for record in trace.records) == 3
    assert calls == []

    att = trace.records[-1].attack_model
    assert plan(script.model, att) == trace.records[-1].decision
    assert calls == ["validate_attack_model"]
    calls.clear()
    game = build_game(script.model, att)
    enumerate_pure_bne(game)
    assert calls == ["validate_attack_model"]
    calls.clear()
    with pytest.raises(ValueError, match="^a game must come from build_game"):
        enumerate_pure_bne(dataclasses.replace(game))
    assert calls == []


# A hand-built attack model is checked in full by `build_game`, and so by `plan`.
@pytest.mark.parametrize("changes, message", [
    ({"malicious_actions": {"s1": ("drop", "hack")}},
     r"unknown action 'hack' for component 's1' \[malicious_actions\.s1\[1\]\]"),
    ({"rewards": {"s1": ((RewardRule({"s1": "hack"}, 1.0),), 0.0)}},
     r"unknown action 'hack' for component 's1' \[rewards\.s1\[0\]\]"),
    ({"rewards": {"s1": ((RewardRule({"s1": "drop"}, math.nan),), 0.0)}}, r"got nan \[rewards\.s1\[0\]\]"),
    ({"rewards": {"s1": ((), math.inf)}}, r"got inf \[rewards\.s1\]"),
], ids=["malicious-label", "rule-label", "nan-rule-reward", "infinite-default"])
def test_build_game_checks_a_hand_built_attack_model(lb3_script, changes, message):
    att = dataclasses.replace(_attack(lb3_script), **changes)
    for route in (build_game, plan):
        with pytest.raises(ValueError, match="^cannot build game from invalid inputs:\n.*" + message):
            route(lb3_script.model, att)


# A hand-built game, here a copy of a built one with another attack, is
# refused when it is compiled, before any solver reads it; `build_game`
# refuses the same attack with the fault at its path.
@pytest.mark.parametrize("changes, message", [
    ({"rewards": {}}, r"rewards misses attacked component 's1' \[rewards\]"),
    ({"rewards": {"s1": ((RewardRule({"s1": "drop"}, math.nan),), 0.0)}}, r"got nan \[rewards\.s1\[0\]\]"),
    ({"rewards": {"s1": ()}}, r"expected reward rules and a default reward, got a tuple of length 0 \[rewards\.s1\]"),
    ({"malicious_actions": None}, r"expected a mapping keyed by component, got NoneType \[malicious_actions\]"),
], ids=["missing-reward", "nan-rule-reward", "short-reward-entry", "malicious-actions-none"])
def test_a_hand_built_game_with_a_malformed_attack_is_rejected_at_compile(lb3_script, changes, message):
    game = build_game(lb3_script.model, _attack(lb3_script))
    att = dataclasses.replace(game.attack, **changes)
    for route in (lambda g: g.compiled, enumerate_pure_bne, maximin_fallback):
        with pytest.raises(ValueError, match="^a game must come from build_game; this one was built directly or copied$"):
            route(dataclasses.replace(game, attack=att))
    with pytest.raises(ValueError, match="^cannot build game from invalid inputs:\n.*" + message):
        build_game(lb3_script.model, att)


def _attack(script):
    return analyze_attacks(script.timeline, script.kb, script.model)


# An input whose root is of another class is rejected by the root check of
# the field tables' walk, with the error type of its boundary, at its path.
# Unchecked, each raised a bare AttributeError or TypeError.
@pytest.mark.parametrize("route, error, path, message", [
    (lambda s: dataclasses.replace(s, model=None), ScenarioError, "", "expected a system model, got NoneType"),
    (lambda s: build_game(None, _attack(s)), ValueError, None, "MalformedField(None): expected a system model, got NoneType"),
    (lambda s: build_game(s.model, None), ValueError, None, "MalformedField(None): expected an attack model, got NoneType"),
    (lambda s: plan(s.model, "att"), ValueError, None, "MalformedField('att'): expected an attack model, got str"),
    (lambda s: validate_model(None), None, "", "expected a system model, got NoneType"),
    (lambda s: validate_attack_model(None, s.model), None, "", "expected an attack model, got NoneType"),
    (lambda s: analyze_attacks(s.timeline, ("x",), s.model), AttackAnalysisError, "knowledge_base.vulnerabilities[0]",
     "expected a vulnerability record, got str"),
    (lambda s: analyze_attacks(None, s.kb, s.model), AttackAnalysisError, "timeline",
     "expected an array of attack events, got NoneType"),
    (lambda s: run_scenario("x"), ScenarioError, "", "expected a scenario script, got str"),
    (lambda s: run_scenario(None), ScenarioError, "", "expected a scenario script, got NoneType"),
    (lambda s: script_fingerprint(None), ScenarioError, "", "expected a scenario script, got NoneType"),
    (lambda s: export_induced_nfg(build_game(s.model, _attack(s)), 5), ValueError, None,
     "title must be a string, got int"),
    (lambda s: CharacteristicContext(None, {}, ()), ValueError, None, "expected a system model, got NoneType"),
    (lambda s: CharacteristicContext(s.model, {"lb": "to_s1"}, "lb"), ValueError, None,
     "participants must be a sequence of ids, not the string 'lb'"),
    (lambda s: CharacteristicContext(s.model, {"lb": "to_s1"}, iter(["lb"])), ValueError, None,
     "participants must be a sequence of ids, not a one-shot list_iterator"),
    (lambda s: CharacteristicContext(s.model, {"lb": "to_s1"}, map(str, ["lb"])), ValueError, None,
     "participants must be a sequence of ids, not a one-shot map"),
    (lambda s: CharacteristicContext(s.model, {"lb": "to_s1"}, ["lb"], None), ValueError, None,
     "fixed must be a mapping keyed by component, got NoneType"),
    (lambda s: CharacteristicContext(s.model, {"lb": "to_s1"}, ["lb"], "s1"), ValueError, None,
     "fixed must be a mapping keyed by component, got str"),
], ids=["script-model", "build-game-model", "build-game-attack", "plan-attack", "validate-model",
        "validate-attack-model", "analyze-record", "analyze-events", "run-scenario-str", "run-scenario-none",
        "fingerprint-none", "export-title", "context-model", "context-participants", "context-participants-iterator",
        "context-participants-map", "context-fixed-none", "context-fixed-str"])
def test_root_of_another_class_rejected_at_its_boundary(lb3_script, route, error, path, message):
    if error is None:  # a check that returns its violations
        assert [(v.code, v.path, v.message) for v in route(lb3_script)] == [("MalformedField", path, message)]
        return
    with pytest.raises(error) as exc:
        route(lb3_script)
    assert str(exc.value).endswith(message)
    if path is not None:
        assert exc.value.path == path


def test_context_participants_of_any_reusable_collection_allocate_alike(lb3_model):
    # a one-shot iterator is rejected above, since the checks would use it
    # up and leave nothing to allocate; a view or a list is read anew
    action = {"lb": "to_s2", "s1": "serve", "s2": "serve"}
    want = shapley_allocation(CharacteristicContext(lb3_model, action, lb3_model.component_ids))
    assert want == {"lb": -2.0, "s1": 0.0, "s2": 0.0}
    for participants in (action.keys(), list(lb3_model.component_ids)):
        assert repr(shapley_allocation(CharacteristicContext(lb3_model, action, participants))) == repr(want)


def test_export_title_checked_before_the_budget_and_any_payoff(monkeypatch, lb3_script):
    def never(_game):
        raise AssertionError("the budget was checked before the title")

    monkeypatch.setattr(solver_module, "_check_budget", never)
    game = build_game(lb3_script.model, _attack(lb3_script))
    with pytest.raises(ValueError, match="^title must be a string, got NoneType$"):
        export_induced_nfg(game, None)
    assert game.compiled.outcomes == {}


# A model whose own field is out of shape is rejected at the field's path,
# from the model's kept verdict, as `system_utility` rejects it through the
# compiled model. Unchecked, both raised a bare TypeError.
@pytest.mark.parametrize("route, error", [
    (lambda s, model: analyze_attacks(s.timeline, s.kb, model), AttackAnalysisError),
    (lambda s, model: validate_attack_model(_attack(s), model), None),
], ids=["analyze-attacks", "validate-attack-model"])
def test_model_field_out_of_shape_rejected_at_its_path(lb3_script, route, error):
    model = dataclasses.replace(lb3_script.model, components=None)
    message = "expected an array of components, got NoneType"
    with pytest.raises(ValueError, match=r"MalformedField\(None\): " + message + r" \[components\]"):
        system_utility(model, {})
    if error is None:  # a check that returns its violations
        assert [(v.code, v.path, v.message) for v in route(lb3_script, model)] == [("MalformedField", "components", message)]
        return
    with pytest.raises(error) as exc:
        route(lb3_script, model)
    assert (str(exc.value), exc.value.path) == (message, "components")
