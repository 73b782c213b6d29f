"""The compiled utility core: exact agreement with the naive oracles, and its work.

`SystemModel.compiled` is the only rule-table evaluator in the package. It
must give the same floats as a plain first-match scan of the rule table,
the bitmask Shapley route must give the same floats as the frozenset subset
formula, and while planning each distinct joint action is evaluated once.
`BayesianGame.compiled` computes each outcome of a game once, whichever
solver entry points ask for it, and each interim payoff of a slot's action
against the other players' actions once.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import weakref

import pytest

import bayesadapt.game as game_module
import bayesadapt.loop as loop_module
from bayesadapt import (
    AttackEvent,
    CharacteristicContext,
    Component,
    QualityAttribute,
    RewardRule,
    SystemModel,
    UtilityRule,
    VulnerabilityRecord,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    export_induced_nfg,
    interim_payoff,
    maximin_fallback,
    parse_scenario_file,
    plan,
    shapley_allocation,
    shapley_values,
    system_utility,
)
from bayesadapt.attacks import knowledge_base_actions
from bayesadapt.model import CompiledModel
from oracles import (
    oracle_allocation,
    oracle_subset_shapley,
    oracle_utility,
    random_bayes_game,
    random_system_model,
)


def random_attack_model(rng: random.Random) -> SystemModel:
    """A random model with attack-context labels and overlapping rules.

    Extra rules are cut from sampled joint actions over all admissible
    labels, so several rules often match one joint action, some need an
    attack label, and an empty `when` matches everything.
    """
    model = random_system_model(rng)
    attack = {
        c.id: tuple(f"x{j}" for j in range(rng.randint(1, 2)))
        for c in model.components
        if rng.random() < 0.5
    }
    labels = {c.id: c.actions + attack.get(c.id, ()) for c in model.components}
    rules = list(model.utility_rules)
    for _ in range(rng.randint(2, 6)):
        sample = {cid: rng.choice(ls) for cid, ls in labels.items()}
        named = rng.sample(sorted(sample), rng.randint(0, len(sample)))
        attrs = rng.sample(model.quality_attributes, rng.randint(1, len(model.quality_attributes)))
        rules.append(UtilityRule({cid: sample[cid] for cid in named},
                                 {q.name: rng.uniform(-10.0, 10.0) for q in attrs}))
    rng.shuffle(rules)
    return dataclasses.replace(model, utility_rules=tuple(rules), attack_actions=attack)


def all_joint_actions(model: SystemModel):
    ids = model.component_ids
    for labels in itertools.product(*(model.allowed_actions(cid) for cid in ids)):
        yield dict(zip(ids, labels))


def chain(n: int, k: int):
    """Chain of n two-action components; the first k are attacked with p=0.5.

    Each attack adds one malicious label, so a game has 2^(n-k) * 3^k
    distinct joint actions.
    """
    comps = tuple(Component(f"c{i}", ("a0", "a1"), "a0") for i in range(n))
    rules = []
    for i in range(n - 1):
        rules.append(UtilityRule({f"c{i}": "a1", f"c{i + 1}": "a1"}, {"perf": 3.0 + i}))
        rules.append(UtilityRule({f"c{i}": "a1"}, {"perf": 1.0, "sec": -0.5 * i}))
    kb = tuple(
        VulnerabilityRecord(f"v{i}", f"c{i}", 0.5, (f"x{i}",),
                            (RewardRule({f"c{i}": f"x{i}", f"c{i + 1}": "a1"}, 4.0),), 0.5)
        for i in range(k)
    )
    rules.extend(UtilityRule({rec.component: rec.malicious_actions[0]}, {"sec": -6.0}) for rec in kb)
    model = SystemModel(
        comps,
        (QualityAttribute("perf", 1.0), QualityAttribute("sec", 2.0)),
        tuple(rules),
        {"perf": 0.0, "sec": 1.0},
        knowledge_base_actions(kb),
    )
    events = [AttackEvent(0, rec.component, rec.vuln_id) for rec in kb]
    return model, analyze_attacks(events, kb, model)


class TestUtilityDifferential:
    def test_equals_rule_table_scan_on_random_models(self):
        rng = random.Random(131)
        checked = 0
        for _ in range(60):
            model = random_attack_model(rng)
            for action in all_joint_actions(model):
                want = oracle_utility(model, action)
                assert system_utility(model, action) == want
                assert system_utility(model, action) == want  # a memo hit
                checked += 1
        assert checked > 1000

    def test_rule_naming_an_undeclared_label_never_matches(self, lb3_model):
        ghost = UtilityRule({"s1": "ghost"}, {"perf": 99.0})
        model = dataclasses.replace(lb3_model, utility_rules=(ghost,) + lb3_model.utility_rules)
        action = {"lb": "to_s1", "s1": "serve", "s2": "serve"}
        assert system_utility(model, action) == oracle_utility(model, action) == 10.0

    def test_compiled_once_per_model(self, lb3_model):
        model = dataclasses.replace(lb3_model)
        assert model.compiled is model.compiled
        assert dataclasses.replace(model).compiled is not model.compiled


class TestShapleyBits:
    def test_allocation_equals_frozenset_formula_exactly(self):
        rng = random.Random(137)
        for _ in range(150):
            model = random_attack_model(rng)
            labels = {c.id: c.actions + model.attack_actions.get(c.id, ()) for c in model.components}
            ids = list(model.component_ids)
            participants = tuple(cid for cid in ids if rng.random() < 0.7) or (ids[0],)
            fixed = {cid: rng.choice(labels[cid]) for cid in ids
                     if cid not in participants and rng.random() < 0.6}
            action = {cid: rng.choice(labels[cid]) for cid in participants}
            ctx = CharacteristicContext(model, action, participants, fixed)
            assert shapley_allocation(ctx) == oracle_allocation(ctx)

    def test_values_equal_frozenset_formula_exactly(self):
        rng = random.Random(139)
        for _ in range(100):
            ids = [f"p{j}" for j in range(rng.randint(1, 8))]
            table: dict = {}

            def value(s, _t=table, _r=rng):
                return _t.setdefault(s, _r.uniform(-10.0, 10.0))

            got = shapley_values(ids, value)
            assert got == oracle_subset_shapley(ids, value)
            assert list(got) == ids


class TestPlanningWork:
    """Count rule-table evaluations (memo misses), not time."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        keys: list = []
        evaluate = CompiledModel._evaluate

        def counting(compiled, key):
            keys.append((id(compiled), key))
            return evaluate(compiled, key)

        monkeypatch.setattr(CompiledModel, "_evaluate", counting)
        return keys

    def test_lb3_evaluates_each_joint_action_once(self, lb3_script, evaluated):
        att = analyze_attacks(lb3_script.timeline, lb3_script.kb, lb3_script.model)
        plan(lb3_script.model, att)
        # lb, s1 and s2 each play one of two labels ("drop" is declared for s1)
        assert len(evaluated) == len(set(evaluated)) == 8

    def test_chain_evaluates_each_joint_action_once(self, evaluated):
        model, att = chain(6, 2)
        decision = plan(model, att)
        assert not decision.fallback
        assert len(evaluated) == len(set(evaluated)) == 2**4 * 3**2

    def test_fallback_reuses_the_enumeration_allocations(self, pennies_path, outcomes):
        script = parse_scenario_file(pennies_path)
        decision = plan(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        assert decision.fallback
        assert outcomes and len(outcomes) == len(set(outcomes))


@pytest.fixture
def outcomes(monkeypatch):
    """Records every outcome a model-backed game computes (memo misses)."""
    computed: list = []
    compute = game_module._model_payoffs

    def recording(compiled, attack, players, normal, key):
        computed.append((id(compiled), tuple(normal), key))
        return compute(compiled, attack, players, normal, key)

    monkeypatch.setattr(game_module, "_model_payoffs", recording)
    return computed


def _every_solver_entry_point(game):
    results = enumerate_pure_bne(game)
    fallback = maximin_fallback(game)
    nfg = export_induced_nfg(game, "g")
    profile = (results[0] if results else fallback).profile
    interim = [interim_payoff(game, p, t, profile) for p in game.players for t in game.type_sets[p]]
    return results, fallback, nfg, interim


class TestCompiledGame:
    @pytest.mark.parametrize("scenario", ["lb3_path", "pennies_path"])
    def test_solver_entry_points_share_one_outcome_memo(self, scenario, request, outcomes):
        script = parse_scenario_file(request.getfixturevalue(scenario))
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        _every_solver_entry_point(game)
        assert outcomes and len(outcomes) == len(set(outcomes))
        assert len(outcomes) == len(game.compiled.outcomes)

    def test_hand_built_game_pays_each_outcome_once(self):
        game = random_bayes_game(random.Random(149), max_players=3)
        calls = []

        def counting(types, action, player, _f=game.payoff_fn):
            calls.append((tuple(types.items()), tuple(action.items()), player))
            return _f(types, action, player)

        counted = dataclasses.replace(game, payoff_fn=counting)
        assert _every_solver_entry_point(counted) == _every_solver_entry_point(game)
        assert calls and len(calls) == len(set(calls))

    def test_freed_without_the_cyclic_collector(self, lb3_model, lb3_attack):
        game = build_game(lb3_model, lb3_attack)
        _every_solver_entry_point(game)
        compiled = weakref.ref(game.compiled)
        gc.disable()
        try:
            del game
            assert compiled() is None
        finally:
            gc.enable()

    def test_compiled_once_per_game(self, lb3_model, lb3_attack):
        game = build_game(lb3_model, lb3_attack)
        assert game.compiled is game.compiled
        assert build_game(lb3_model, lb3_attack).compiled is not game.compiled


@pytest.fixture
def interims(monkeypatch):
    """Records every interim payoff a compiled game computes, as (game, slot, action, rival actions)."""
    computed: list = []
    compute = game_module.CompiledGame.interims

    def recording(cg, k, choice):
        rivals = tuple(c for s, c in enumerate(choice) if cg.slots[s][0] != cg.slots[k][0])
        row = compute(cg, k, choice)
        computed.extend((id(cg), k, a, rivals) for a in range(len(row)))
        return row

    monkeypatch.setattr(game_module.CompiledGame, "interims", recording)
    return computed


def _every_interim_reader(game):
    results = enumerate_pure_bne(game) + enumerate_pure_bne(game, 0.5)
    fallback = maximin_fallback(game)
    for profile in [r.profile for r in results] + [fallback.profile]:
        for p in game.players:
            for t in game.type_sets[p]:
                interim_payoff(game, p, t, profile)


def _row_entries(game) -> int:
    return sum(len(row) for rows in game.compiled.rows for row in rows.values())


class TestInterimRows:
    @pytest.mark.parametrize("scenario", ["lb3_path", "pennies_path"])
    def test_model_backed_game_computes_each_interim_once(self, scenario, request, interims):
        script = parse_scenario_file(request.getfixturevalue(scenario))
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        _every_interim_reader(game)
        assert interims and len(interims) == len(set(interims)) == _row_entries(game)

    def test_hand_built_game_computes_each_interim_once(self, interims):
        game = random_bayes_game(random.Random(149), max_players=3)
        _every_interim_reader(game)
        assert interims and len(interims) == len(set(interims)) == _row_entries(game)

    def test_fallback_inside_plan_computes_no_interim_again(self, pennies_path, interims, monkeypatch):
        script = parse_scenario_file(pennies_path)
        before_fallback: list = []
        fallback = loop_module.maximin_fallback

        def marking(game, **kwargs):
            before_fallback.append(len(interims))
            return fallback(game, **kwargs)

        monkeypatch.setattr(loop_module, "maximin_fallback", marking)
        decision = plan(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        assert decision.fallback and before_fallback[0] > 0
        assert len(interims) == len(set(interims))
