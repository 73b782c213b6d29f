"""The compiled utility core: exact agreement with the naive oracles, and its work.

`SystemModel.compiled` is the only rule-table evaluator in the package. It
must give the same floats as a plain first-match scan of the rule table,
the bitmask Shapley route must give the same floats as the frozenset subset
formula, and while planning each distinct joint action is evaluated once.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

import bayesadapt.game as game_module
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

    def test_fallback_reuses_the_enumeration_allocations(self, pennies_path, monkeypatch):
        computed = []
        allocate = game_module.shapley_allocation

        def recording(ctx, **kwargs):
            computed.append((ctx.participants, tuple(ctx.action.items()), tuple(ctx.fixed.items())))
            return allocate(ctx, **kwargs)

        monkeypatch.setattr(game_module, "shapley_allocation", recording)
        script = parse_scenario_file(pennies_path)
        decision = plan(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        assert decision.fallback
        assert computed and len(computed) == len(set(computed))
