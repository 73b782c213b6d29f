from __future__ import annotations

import dataclasses
import random
import re

import pytest

from bayesadapt import (
    AttackModel,
    CharacteristicContext,
    Component,
    InvalidJointActionError,
    PlayerType,
    QualityAttribute,
    SystemModel,
    UtilityRule,
    baseline_action,
    build_game,
    coalition_value,
    payoff,
    shapley_allocation,
    system_utility,
    validate_model,
)
from oracles import random_system_model


def lb3_by_hand() -> SystemModel:
    return SystemModel(
        components=(
            Component("lb", ("to_s1", "to_s2"), "to_s1"),
            Component("s1", ("serve", "drop"), "serve"),
            Component("s2", ("serve", "drop"), "serve"),
        ),
        quality_attributes=(QualityAttribute("perf", 1.0),),
        utility_rules=(
            UtilityRule({"lb": "to_s1", "s1": "serve"}, {"perf": 10.0}),
            UtilityRule({"lb": "to_s2", "s2": "serve"}, {"perf": 8.0}),
        ),
        utility_default={"perf": 0.0},
    )


class TestSystemUtility:
    def test_rule_matches_in_order(self, lb3_model):
        assert system_utility(lb3_model, {"lb": "to_s1", "s1": "serve", "s2": "serve"}) == 10.0
        assert system_utility(lb3_model, {"lb": "to_s2", "s1": "serve", "s2": "serve"}) == 8.0

    def test_no_match_falls_back_to_default(self, lb3_model):
        assert system_utility(lb3_model, {"lb": "to_s1", "s1": "drop", "s2": "serve"}) == 0.0

    def test_missing_component_rejected(self, lb3_model):
        with pytest.raises(InvalidJointActionError, match="s2"):
            system_utility(lb3_model, {"lb": "to_s1", "s1": "serve"})

    def test_unknown_action_label_names_component(self, lb3_model):
        with pytest.raises(InvalidJointActionError, match="s1"):
            system_utility(lb3_model, {"lb": "to_s1", "s1": "fly", "s2": "serve"})

    def test_action_that_is_not_a_mapping_rejected(self, lb3_model):
        with pytest.raises(ValueError, match=r"^joint action must be a mapping keyed by component, got NoneType$"):
            system_utility(lb3_model, None)

    def test_unknown_component_rejected(self, lb3_model):
        action = {"lb": "to_s1", "s1": "serve", "s2": "serve", "s9": "serve"}
        with pytest.raises(InvalidJointActionError, match="s9") as exc:
            system_utility(lb3_model, action)
        assert exc.value.component == "s9"

    def test_attribute_that_nothing_scores_rejected(self):
        # No rule and no default scores "perf" at the baseline a = x. The
        # model is checked when it is compiled, so it is rejected at every
        # joint action, even at a = y, which a rule scores.
        model = SystemModel((Component("a", ("x", "y"), "x"),), (QualityAttribute("perf", 1.0),),
                            (UtilityRule({"a": "y"}, {"perf": 2.0}),), {})
        ctx = CharacteristicContext(model, {"a": "y"}, ("a",))
        message = r"^MissingDefaultScore\('perf'\): .* \[utility_default\]$"
        for route in (lambda: system_utility(model, {"a": "x"}), lambda: system_utility(model, {"a": "y"}),
                      lambda: coalition_value(ctx, []), lambda: shapley_allocation(ctx)):
            with pytest.raises(ValueError, match=message):
                route()

    def test_attack_context_label_is_accepted(self, lb3_model):
        # lb3's knowledge base grants s1 the "drop" label (already declared);
        # a model can also grant novel labels.
        model = dataclasses.replace(lb3_by_hand(), attack_actions={"s2": ("tamper",)})
        value = system_utility(model, {"lb": "to_s1", "s1": "serve", "s2": "tamper"})
        assert value == 10.0

    def test_repeated_evaluation_is_bit_identical(self):
        rng = random.Random(7)
        for _ in range(25):
            model = random_system_model(rng)
            action = {c.id: rng.choice(c.actions) for c in model.components}
            first = system_utility(model, action)
            assert all(system_utility(model, action) == first for _ in range(3))

    def test_weight_linearity(self):
        rng = random.Random(11)
        for _ in range(25):
            model = random_system_model(rng)
            k = rng.uniform(0.1, 5.0)
            scaled = dataclasses.replace(
                model,
                quality_attributes=tuple(
                    dataclasses.replace(q, weight=q.weight * k) for q in model.quality_attributes
                ),
            )
            for _ in range(5):
                action = {c.id: rng.choice(c.actions) for c in model.components}
                assert system_utility(scaled, action) == pytest.approx(
                    k * system_utility(model, action), abs=1e-9
                )

    def test_default_completeness_without_rules(self):
        rng = random.Random(13)
        for _ in range(10):
            model = dataclasses.replace(random_system_model(rng), utility_rules=())
            expected = sum(q.weight * model.utility_default[q.name] for q in model.quality_attributes)
            for _ in range(5):
                action = {c.id: rng.choice(c.actions) for c in model.components}
                assert system_utility(model, action) == pytest.approx(expected, abs=1e-12)

    def test_rule_order_is_significant(self):
        base = lb3_by_hand()
        r1 = UtilityRule({"lb": "to_s1"}, {"perf": 5.0})
        r2 = UtilityRule({"s1": "serve"}, {"perf": 7.0})
        overlap = {"lb": "to_s1", "s1": "serve", "s2": "serve"}
        first = dataclasses.replace(base, utility_rules=(r1, r2))
        swapped = dataclasses.replace(base, utility_rules=(r2, r1))
        assert system_utility(first, overlap) == 5.0
        assert system_utility(swapped, overlap) == 7.0

    def test_rule_scores_fall_through_per_attribute(self):
        model = SystemModel(
            components=(Component("c", ("x", "y"), "x"),),
            quality_attributes=(QualityAttribute("a", 1.0), QualityAttribute("b", 2.0)),
            utility_rules=(
                UtilityRule({"c": "x"}, {"a": 3.0}),
                UtilityRule({"c": "x"}, {"b": 4.0}),
            ),
            utility_default={"a": 0.0, "b": 1.0},
        )
        # "a" from the first rule, "b" falls through to the second.
        assert system_utility(model, {"c": "x"}) == 3.0 + 2.0 * 4.0
        # neither rule matches "y": both attributes take the default.
        assert system_utility(model, {"c": "y"}) == 0.0 + 2.0 * 1.0


class TestValidateModel:
    def test_valid_model_has_no_violations(self, lb3_model):
        assert validate_model(lb3_model) == []

    def test_duplicate_component_id(self):
        model = dataclasses.replace(
            lb3_by_hand(),
            components=(
                Component("s1", ("serve",), "serve"),
                Component("s1", ("serve",), "serve"),
            ),
        )
        codes = [v.code for v in validate_model(model)]
        assert "DuplicateComponentId" in codes

    def test_unknown_quality_attribute_in_rule(self):
        model = dataclasses.replace(
            lb3_by_hand(),
            utility_rules=(UtilityRule({"lb": "to_s1"}, {"latency": 1.0}),),
        )
        violations = validate_model(model)
        assert any(v.code == "UnknownQualityAttribute" and v.subject == "latency" for v in violations)

    def test_empty_component_list(self):
        model = dataclasses.replace(lb3_by_hand(), components=(), utility_rules=())
        assert any(v.code == "EmptyComponentList" for v in validate_model(model))

    def test_baseline_not_in_actions(self):
        model = dataclasses.replace(
            lb3_by_hand(),
            components=(
                Component("lb", ("to_s1", "to_s2"), "to_s1"),
                Component("s1", ("serve", "drop"), "fly"),
                Component("s2", ("serve", "drop"), "serve"),
            ),
        )
        violations = validate_model(model)
        assert any(v.code == "BaselineNotInActions" and v.subject == "s1" for v in violations)

    def test_rule_referencing_unknown_component(self):
        model = dataclasses.replace(
            lb3_by_hand(),
            utility_rules=(UtilityRule({"s9": "serve"}, {"perf": 1.0}),),
        )
        assert any(v.code == "UnknownComponent" and v.subject == "s9" for v in validate_model(model))

    @pytest.mark.parametrize("attack_actions, label, expected", [
        ({"s1": ("drop",)}, "fly", [("UnknownAction", "fly", "utility_rules[2].when.s1")]),
        ({"s1": ("drop",)}, "drop", []),
        ({"s1": ("stall",)}, "stall", []),
        ({}, "stall", [("UnknownAction", "stall", "utility_rules[2].when.s1")]),
        ({"s9": ("drop",)}, "drop", [("UnknownComponent", "s9", "attack_actions.s9")]),
    ])
    def test_rule_labels_are_declared_or_attack_labels(self, lb3_model, attack_actions, label, expected):
        model = dataclasses.replace(
            lb3_model,
            attack_actions=attack_actions,
            utility_rules=lb3_model.utility_rules + (UtilityRule({"s1": label}, {"perf": 1.0}),),
        )
        assert [(v.code, v.subject, v.path) for v in validate_model(model)] == expected

    @pytest.mark.parametrize("changes, expected", [
        ({"components": (Component("lb", ("to_s1", "to_s2"), "to_s1"), Component("s1", (), "serve"),
                         Component("s2", ("serve", "drop"), "serve"))},
         [("EmptyActionList", "s1", "components[1].actions"),
          ("UnknownAction", "serve", "utility_rules[0].when.s1")]),
        ({"components": (Component("lb", ("to_s1", "to_s2", "to_s1"), "to_s1"),) + lb3_by_hand().components[1:]},
         [("DuplicateAction", "lb", "components[0].actions")]),
        ({"quality_attributes": (QualityAttribute("perf", 1.0), QualityAttribute("perf", 2.0))},
         [("DuplicateQualityAttribute", "perf", "quality_attributes[1].name")]),
    ], ids=["empty-action-list", "duplicate-action", "duplicate-quality-attribute"])
    def test_structural_faults(self, changes, expected):
        model = dataclasses.replace(lb3_by_hand(), **changes)
        assert [(v.code, v.subject, v.path) for v in validate_model(model)] == expected

    def test_missing_default_score(self):
        model = dataclasses.replace(lb3_by_hand(), utility_default={})
        assert any(v.code == "MissingDefaultScore" for v in validate_model(model))

    def test_utility_bound_beyond_the_float_range(self):
        def model(weights, score):
            attrs = tuple(QualityAttribute(f"q{i}", w) for i, w in enumerate(weights))
            rules = (UtilityRule({"c": "x"}, {a.name: score for a in attrs}),)
            return SystemModel((Component("c", ("x", "y"), "x"),), attrs, rules,
                               {a.name: 1.0 for a in attrs})

        # 2 * (4e307 + 4e307) * 1 is finite, 2 * (5e307 + 5e307) * 1 is not
        assert validate_model(model((4e307, -4e307), 1.0)) == []
        (v,) = validate_model(model((5e307, -5e307), 1.0))
        assert (v.code, v.subject, v.path) == ("UtilityOverflow", "q1", "quality_attributes[1].weight")
        # the bound takes the largest score of each attribute, default included
        assert validate_model(model((1.0,), 1e308))[0].code == "UtilityOverflow"
        assert validate_model(model((1.0,), 8e307)) == []
        for weight in (float("inf"), float("nan")):
            assert validate_model(model((weight,), 0.0))[0].code == "UtilityOverflow"

    @pytest.mark.parametrize("changes, expected", [
        ({"quality_attributes": (QualityAttribute("perf", "1"),)},
         ("quality_attributes[0].weight", "expected a numeric weight, got str")),
        ({"quality_attributes": (QualityAttribute("perf", True),)},
         ("quality_attributes[0].weight", "expected a numeric weight, got a boolean")),
        ({"quality_attributes": (QualityAttribute("perf", None),)},
         ("quality_attributes[0].weight", "expected a numeric weight, got NoneType")),
        ({"utility_rules": (UtilityRule({"lb": "to_s1"}, {"perf": "10"}),)},
         ("utility_rules[0].scores.perf", "expected a number, got str")),
        ({"utility_rules": (UtilityRule({"lb": "to_s1"}, {"perf": True}),)},
         ("utility_rules[0].scores.perf", "expected a number, got a boolean")),
        ({"utility_default": {"perf": None}}, ("utility_default.perf", "expected a number, got NoneType")),
        ({"utility_default": {"perf": -(10**400)}},
         ("utility_default.perf", "expected a number, got an integer beyond the float range")),
    ], ids=["string-weight", "bool-weight", "none-weight", "string-score", "bool-score", "none-default",
            "huge-int-default"])
    def test_numbers_that_are_not_numbers_rejected(self, changes, expected):
        model = dataclasses.replace(lb3_by_hand(), **changes)
        assert [(v.code, v.subject, v.path, v.message) for v in validate_model(model)] == [
            ("UtilityOverflow", "perf", *expected)
        ]
        # Every route that compiles the model rejects it at the field, where
        # an unchecked model read "10" as 10.0 and True as 1.0, and None
        # raised a bare TypeError.
        action = {"lb": "to_s1", "s1": "serve", "s2": "serve"}
        ctx = CharacteristicContext(model, action, model.component_ids)
        game = build_game(lb3_by_hand(), AttackModel.empty())
        game = dataclasses.replace(game, model=model)  # a hand-built model-backed game
        types = dict.fromkeys(action, PlayerType.NORMAL)
        message = rf"UtilityOverflow\('perf'\): .*{re.escape(f'[{expected[0]}]')}"
        for route in (lambda: system_utility(model, action), lambda: coalition_value(ctx, ["lb"]),
                      lambda: shapley_allocation(ctx), lambda: payoff(game, types, action, "lb")):
            with pytest.raises(ValueError, match=message):
                route()

    # Unchecked, a field in another shape than a document's raised a bare
    # AttributeError or TypeError, or was read character by character.
    @pytest.mark.parametrize("changes, expected", [
        ({"utility_rules": (UtilityRule(None, {"perf": 10.0}),)},
         ("when", "utility_rules[0].when", "expected a partial joint action, got NoneType")),
        ({"utility_rules": (UtilityRule({"lb": "to_s1"}, [1.0]),)},
         ("scores", "utility_rules[0].scores", "expected per-attribute scores, got list")),
        ({"utility_default": None},
         ("utility_default", "utility_default", "expected per-attribute default scores, got NoneType")),
        ({"components": (Component("lb", "to", "t"),) + lb3_by_hand().components[1:]},
         ("lb", "components[0].actions", "expected an array of action labels, got str")),
        ({"attack_actions": {"s1": "zz"}},
         ("s1", "attack_actions.s1", "expected an array of action labels, got str")),
        ({"components": None}, ("components", "components", "expected an array of components, got NoneType")),
        ({"quality_attributes": None},
         ("quality_attributes", "quality_attributes", "expected an array of quality attributes, got NoneType")),
        ({"utility_rules": None},
         ("utility_rules", "utility_rules", "expected an array of utility rules, got NoneType")),
        # unchecked, an id, name or label that is no string raised a bare
        # TypeError where a check hashed it
        ({"components": (Component(["lb"], ("to_s1", "to_s2"), "to_s1"),) + lb3_by_hand().components[1:]},
         (["lb"], "components[0].id", "expected a component id, got list")),
        ({"components": (Component("lb", ("to_s1", {}), "to_s1"),) + lb3_by_hand().components[1:]},
         ({}, "components[0].actions[1]", "expected an action label, got dict")),
        ({"quality_attributes": (QualityAttribute(["perf"], 1.0),)},
         (["perf"], "quality_attributes[0].name", "expected an attribute name, got list")),
        ({"attack_actions": {"s1": ({},)}}, ({}, "attack_actions.s1[0]", "expected an action label, got dict")),
    ], ids=["none-when", "list-scores", "none-default", "string-actions", "string-attack-actions", "none-components",
            "none-attributes", "none-rules", "list-component-id", "dict-action", "list-attribute-name",
            "dict-attack-label"])
    def test_field_in_the_wrong_shape_rejected_alone(self, changes, expected):
        model = dataclasses.replace(lb3_by_hand(), **changes)
        assert [(v.code, v.subject, v.path, v.message) for v in validate_model(model)] == [
            ("MalformedField", *expected)
        ]
        # every entry point that compiles or validates the model names the
        # field, a hand-built model-backed game too
        at = re.escape(f"[{expected[1]}]")
        action = baseline_action(lb3_by_hand())
        game = dataclasses.replace(build_game(lb3_by_hand(), AttackModel.empty()), model=model)
        for route in (lambda: system_utility(model, action), lambda: build_game(model, AttackModel.empty()),
                      lambda: payoff(game, dict.fromkeys(action, PlayerType.NORMAL), action, "lb")):
            with pytest.raises(ValueError, match=at):
                route()

    def test_build_game_rejects_overflowing_hand_built_model(self, lb3_model):
        heavy = dataclasses.replace(lb3_model, quality_attributes=(QualityAttribute("perf", 1e307),))
        with pytest.raises(ValueError, match="UtilityOverflow"):
            build_game(heavy, AttackModel.empty())

    def test_missing_defaults_reported_in_declaration_order(self):
        # These violations, and the messages that list them, follow the
        # declared order, not the string hash seed that a set of names follows.
        names = ("perf", "cost", "sec", "avail", "power", "lat")
        model = dataclasses.replace(lb3_by_hand(), quality_attributes=tuple(QualityAttribute(n, 1.0) for n in names),
                                    utility_rules=(), utility_default={})
        assert [(v.code, v.subject) for v in validate_model(model)] == [("MissingDefaultScore", n) for n in names]

    def test_random_models_are_valid(self):
        rng = random.Random(17)
        for _ in range(30):
            assert validate_model(random_system_model(rng)) == []


def test_baseline_action(lb3_model):
    assert baseline_action(lb3_model) == {"lb": "to_s1", "s1": "serve", "s2": "serve"}
