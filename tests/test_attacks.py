from __future__ import annotations

import dataclasses
import random
import re

import pytest

from bayesadapt import (
    AttackAnalysisError,
    AttackEvent,
    AttackModel,
    PlayerType,
    RewardRule,
    UnknownVulnerabilityError,
    VulnerabilityRecord,
    analyze_attacks,
    build_game,
    payoff,
    validate_attack_model,
)
from oracles import random_attack_inputs, random_system_model


def kb_entry(component="s1", vuln_id="cve-x", p=0.6, actions=("drop",), reward=5.0):
    return VulnerabilityRecord(
        vuln_id=vuln_id,
        component=component,
        compromise_probability=p,
        malicious_actions=tuple(actions),
        reward_rules=(RewardRule({"lb": "to_s1", "s1": "drop"}, reward),),
        reward_default=0.0,
    )


class TestAnalyzeAttacks:
    def test_record_with_a_string_of_malicious_actions_rejected(self, lb3_model):
        # unchecked, "drop" folded into the labels 'd', 'r', 'o' and 'p'
        record = dataclasses.replace(kb_entry(), malicious_actions="drop")
        with pytest.raises(AttackAnalysisError, match="expected an array of action labels, got str") as exc:
            analyze_attacks([AttackEvent(2, "s1", "cve-x")], [record], lb3_model)
        assert exc.value.path == "knowledge_base.vulnerabilities.cve-x.malicious_actions"

    def test_single_event_lookup(self, lb3_model):
        kb = [kb_entry()]
        att = analyze_attacks([AttackEvent(2, "s1", "cve-x")], kb, lb3_model)
        assert att.attacked == ("s1",)
        assert att.malicious_actions == {"s1": ("drop",)}
        assert att.probabilities == {"s1": 0.6}
        rules, default = att.rewards["s1"]
        assert len(rules) == 1 and rules[0].reward == 5.0 and default == 0.0

    def test_independent_exploits_combine_noisy_or(self, lb3_model):
        kb = [
            kb_entry(vuln_id="cve-a", p=0.5),
            kb_entry(vuln_id="cve-b", p=0.5, actions=("drop", "stall")),
        ]
        events = [AttackEvent(0, "s1", "cve-a"), AttackEvent(1, "s1", "cve-b")]
        att = analyze_attacks(events, kb, lb3_model)
        assert att.probabilities["s1"] == pytest.approx(0.75)
        assert att.malicious_actions["s1"] == ("drop", "stall")
        rules, _ = att.rewards["s1"]
        assert len(rules) == 2  # concatenated in event order

    def test_unknown_vulnerability(self, lb3_model):
        with pytest.raises(UnknownVulnerabilityError, match="cve-z") as exc:
            analyze_attacks([AttackEvent(0, "s1", "cve-z")], [kb_entry()], lb3_model)
        assert exc.value.vuln_id == "cve-z"

    def test_component_mismatch(self, lb3_model):
        with pytest.raises(ValueError, match="does not match"):
            analyze_attacks([AttackEvent(0, "s2", "cve-x")], [kb_entry()], lb3_model)

    def test_unknown_component(self, lb3_model):
        with pytest.raises(ValueError, match="s9"):
            analyze_attacks([AttackEvent(0, "s9", "cve-x")], [kb_entry()], lb3_model)

    def test_empty_events_empty_model(self, lb3_model):
        att = analyze_attacks([], [kb_entry()], lb3_model)
        assert att == AttackModel.empty()

    def test_duplicate_events_are_idempotent(self, lb3_model):
        kb = [kb_entry()]
        once = analyze_attacks([AttackEvent(2, "s1", "cve-x")], kb, lb3_model)
        twice = analyze_attacks(
            [AttackEvent(2, "s1", "cve-x"), AttackEvent(2, "s1", "cve-x")], kb, lb3_model
        )
        assert once == twice

    def test_monotonicity_under_event_accumulation(self):
        rng = random.Random(59)
        for _ in range(30):
            model = random_system_model(rng)
            model, kb, events = random_attack_inputs(rng, model)
            if not events:
                continue
            prefix = analyze_attacks(events[:-1], kb, model)
            full = analyze_attacks(events, kb, model)
            assert set(prefix.attacked) <= set(full.attacked)
            for cid in prefix.attacked:
                assert full.probabilities[cid] >= prefix.probabilities[cid] - 1e-12

    @pytest.mark.parametrize("fault, cls, message, path", [
        ("repeated-id", AttackAnalysisError, "repeated vulnerability id 'cve-x'",
         "knowledge_base.vulnerabilities.cve-x"),
        ("unknown-component", AttackAnalysisError, "unknown component 's9'", "timeline[1].component"),
        ("unknown-vulnerability", UnknownVulnerabilityError, "unknown vulnerability 'cve-z'",
         "timeline[1].vuln_id"),
        ("other-component", AttackAnalysisError,
         "event component 's2' does not match vulnerability 'cve-x' (declared for 's1')",
         "timeline[1].component"),
        ("string-probability", AttackAnalysisError, "expected a probability, got str",
         "knowledge_base.vulnerabilities.cve-x.compromise_probability"),
        ("probability-above-one", AttackAnalysisError, "expected a probability, got 1.5",
         "knowledge_base.vulnerabilities.cve-x.compromise_probability"),
    ], ids=["repeated-id", "unknown-component", "unknown-vulnerability", "other-component", "string-probability",
            "probability-above-one"])
    def test_fault_names_its_scenario_path(self, lb3_script, fault, cls, message, path):
        kb, events = lb3_script.kb, lb3_script.timeline
        if fault == "repeated-id":
            kb += (dataclasses.replace(kb[0], component="s2"),)
        elif fault in ("string-probability", "probability-above-one"):
            # a hand-built record, which no script construction has checked
            p = "0.5" if fault == "string-probability" else 1.5
            kb = tuple(dataclasses.replace(rec, compromise_probability=p) for rec in kb)
        else:
            extra = {"unknown-component": ("s9", "cve-x"), "unknown-vulnerability": ("s1", "cve-z"),
                     "other-component": ("s2", "cve-x")}[fault]
            events += (AttackEvent(3, *extra),)
        with pytest.raises(AttackAnalysisError) as exc:
            analyze_attacks(events, kb, lb3_script.model)
        assert type(exc.value) is cls
        assert str(exc.value) == message
        assert exc.value.path == path

    def test_path_defaults_to_empty(self):
        assert AttackAnalysisError("no path").path == ""
        assert UnknownVulnerabilityError("cve-z").path == ""

    def test_attacked_order_follows_declaration(self, lb3_model):
        kb = [kb_entry(), kb_entry(component="lb", vuln_id="cve-lb", actions=("to_s2",))]
        events = [AttackEvent(0, "s1", "cve-x"), AttackEvent(1, "lb", "cve-lb")]
        att = analyze_attacks(events, kb, lb3_model)
        assert att.attacked == ("lb", "s1")


class TestAttackerReward:
    """A Malicious player's payoff is its attack's first matching reward rule, else the default."""

    @pytest.fixture
    def game(self, lb3_model):
        record = dataclasses.replace(kb_entry(), reward_default=-2.0)
        return build_game(lb3_model, analyze_attacks([AttackEvent(0, "s1", "cve-x")], [record], lb3_model))

    def test_first_matching_rule_wins(self, game):
        types = {"lb": PlayerType.NORMAL, "s1": PlayerType.MALICIOUS, "s2": PlayerType.NORMAL}
        assert payoff(game, types, {"lb": "to_s1", "s1": "drop", "s2": "serve"}, "s1") == 5.0

    def test_no_matching_rule_falls_to_the_default(self, game):
        types = {"lb": PlayerType.NORMAL, "s1": PlayerType.MALICIOUS, "s2": PlayerType.NORMAL}
        assert payoff(game, types, {"lb": "to_s2", "s1": "drop", "s2": "serve"}, "s1") == -2.0

    def test_non_attacked_component_rejected(self, game):
        types = {"lb": PlayerType.NORMAL, "s1": PlayerType.NORMAL, "s2": PlayerType.MALICIOUS}
        with pytest.raises(ValueError, match="s2"):
            payoff(game, types, {"lb": "to_s1", "s1": "drop", "s2": "serve"}, "s2")


class TestValidateAttackModel:
    def test_valid_model(self, lb3_model, lb3_attack):
        assert validate_attack_model(lb3_attack, lb3_model) == []

    def test_probability_out_of_range(self, lb3_model, lb3_attack):
        bad = dataclasses.replace(lb3_attack, probabilities={"s1": 1.3})
        violations = validate_attack_model(bad, lb3_model)
        assert any(v.code == "ProbabilityOutOfRange" and v.subject == "s1" for v in violations)

    def test_unknown_attacked_component(self, lb3_model):
        bad = AttackModel(("s9",), {"s9": ("x",)}, {"s9": 0.5}, {"s9": ((), 0.0)})
        violations = validate_attack_model(bad, lb3_model)
        assert any(v.code == "UnknownComponent" and v.subject == "s9" for v in violations)

    def test_missing_map_entry(self, lb3_model, lb3_attack):
        bad = dataclasses.replace(lb3_attack, probabilities={})
        violations = validate_attack_model(bad, lb3_model)
        assert any(v.code == "MissingAttackEntry" for v in violations)

    def test_attack_labels_are_admissible_in_reward_rules(self, lb3_model, lb3_attack):
        bare = dataclasses.replace(lb3_model, attack_actions={})
        assert validate_attack_model(lb3_attack, bare) == []
        stalling = dataclasses.replace(
            lb3_attack,
            malicious_actions={"s1": ("stall",)},
            rewards={"s1": ((RewardRule({"s1": "stall"}, 3.0),), 0.0)},
        )
        violations = validate_attack_model(stalling, bare)
        assert [(v.code, v.subject, v.path) for v in violations] == [
            ("UnknownAction", "stall", "malicious_actions.s1[0]"),
            ("UnknownAction", "stall", "rewards.s1[0]"),
        ]
        declared = dataclasses.replace(lb3_model, attack_actions={"s1": ("stall",)})
        assert validate_attack_model(stalling, declared) == []

    def test_reward_rule_with_unknown_label(self, lb3_model, lb3_attack):
        bare = dataclasses.replace(lb3_model, attack_actions={})
        bad = dataclasses.replace(lb3_attack, rewards={"s1": ((RewardRule({"s1": "fly"}, 1.0),), 0.0)})
        violations = validate_attack_model(bad, bare)
        assert [(v.code, v.subject, v.path) for v in violations] == [("UnknownAction", "fly", "rewards.s1[0]")]

    def test_non_finite_rewards_rejected(self, lb3_model, lb3_attack):
        nan = float("nan")
        bad = dataclasses.replace(lb3_attack, rewards={"s1": ((RewardRule({"s1": "drop"}, nan),), -float("inf"))})
        violations = validate_attack_model(bad, lb3_model)
        assert [(v.code, v.subject, v.path) for v in violations] == [
            ("NonFiniteReward", "s1", "rewards.s1[0]"),
            ("NonFiniteReward", "s1", "rewards.s1"),
        ]

    @pytest.mark.parametrize("changes, expected", [
        ({"probabilities": {"s1": "0.6"}},
         ("ProbabilityOutOfRange", "probabilities.s1", "expected a probability, got str")),
        ({"probabilities": {"s1": True}},
         ("ProbabilityOutOfRange", "probabilities.s1", "expected a probability, got a boolean")),
        ({"rewards": {"s1": ((RewardRule({"s1": "drop"}, "5"),), 0.0)}},
         ("NonFiniteReward", "rewards.s1[0]", "expected a numeric reward, got str")),
        ({"rewards": {"s1": ((), None)}},
         ("NonFiniteReward", "rewards.s1", "expected a numeric reward, got NoneType")),
        ({"rewards": {"s1": ((), 10**400)}},
         ("NonFiniteReward", "rewards.s1", "expected a numeric reward, got an integer beyond the float range")),
        ({"attacked": (["s1"],)}, ("UnknownComponent", "attacked", "expected a component id, got list")),
    ], ids=["string-probability", "bool-probability", "string-rule-reward", "none-default", "huge-int-default",
            "unhashable-attacked-id"])
    def test_numbers_that_are_not_numbers_rejected(self, lb3_model, lb3_attack, changes, expected):
        bad = dataclasses.replace(lb3_attack, **changes)
        violations = validate_attack_model(bad, lb3_model)
        assert [(v.code, v.path, v.message) for v in violations] == [expected]

    @pytest.mark.parametrize("changes, expected", [
        ({"attacked": ("s1", "s1")}, ("DuplicateAttackedComponent", "attacked", "component 's1' attacked twice")),
        ({"malicious_actions": {"s1": ()}},
         ("EmptyMaliciousActions", "malicious_actions.s1", "no malicious actions for 's1'")),
        ({"rewards": {"s1": ((RewardRule({"s9": "drop"}, 1.0),), 0.0)}},
         ("UnknownComponent", "rewards.s1[0]", "unknown component 's9'")),
        # unchecked, a string was read as one action per character, and a
        # `when` that is no mapping raised a bare AttributeError
        ({"malicious_actions": {"s1": "drop"}},
         ("MalformedField", "malicious_actions.s1", "expected an array of action labels, got str")),
        ({"rewards": {"s1": ((RewardRule("s1=drop", 5.0),), 0.0)}},
         ("MalformedField", "rewards.s1[0].when", "expected a partial joint action, got str")),
        ({"rewards": {"s1": ((RewardRule(None, 5.0),), 0.0)}},
         ("MalformedField", "rewards.s1[0].when", "expected a partial joint action, got NoneType")),
        # unchecked, a container in another shape raised a bare
        # AttributeError or TypeError where a check iterated it
        ({"rewards": {"s1": ("ab", 0.0)}},
         ("MalformedField", "rewards.s1", "expected an array of reward rules, got str")),
        ({"rewards": {"s1": None}},
         ("MalformedField", "rewards.s1", "expected reward rules and a default reward, got NoneType")),
        ({"attacked": None}, ("MalformedField", "attacked", "expected an array of component ids, got NoneType")),
        ({"probabilities": None},
         ("MalformedField", "probabilities", "expected a mapping keyed by component, got NoneType")),
    ], ids=["attacked-twice", "no-malicious-action", "reward-rule-component", "string-malicious-actions",
            "string-when", "none-when", "string-reward-rules", "none-reward-entry", "none-attacked",
            "none-probabilities"])
    def test_structural_faults_rejected(self, lb3_model, lb3_attack, changes, expected):
        bad = dataclasses.replace(lb3_attack, **changes)
        violations = validate_attack_model(bad, lb3_model)
        assert [(v.code, v.path, v.message) for v in violations] == [expected]
        with pytest.raises(ValueError, match=re.escape(f"[{expected[1]}]")):
            build_game(lb3_model, bad)

    def test_random_analyzed_models_are_valid(self):
        rng = random.Random(61)
        for _ in range(30):
            model = random_system_model(rng)
            model, kb, events = random_attack_inputs(rng, model)
            att = analyze_attacks(events, kb, model)
            assert validate_attack_model(att, model) == []
