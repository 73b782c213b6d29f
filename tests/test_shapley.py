from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from bayesadapt import (
    BudgetExceededError,
    CharacteristicContext,
    Component,
    InvalidJointActionError,
    QualityAttribute,
    SystemModel,
    UtilityRule,
    coalition_value,
    shapley_allocation,
    shapley_values,
    system_utility,
    validate_model,
)
from bayesadapt.shapley import SUBSET_PARTICIPANT_LIMIT
from oracles import (
    oracle_context_value,
    oracle_exact_shapley,
    oracle_permutation_allocation,
    oracle_permutation_shapley,
    random_context,
    random_system_model,
)


def glove(coalition) -> float:
    return 1.0 if "L" in coalition and ("R1" in coalition or "R2" in coalition) else 0.0


def random_characteristic(rng: random.Random, players: list[str]):
    """Random value per coalition, grounded at v(empty)."""
    table = {
        frozenset(sub): rng.uniform(-10.0, 10.0)
        for sub in _powerset(players)
    }
    return lambda s: table[frozenset(s)]


def _powerset(items):
    out = [[]]
    for it in items:
        out += [sub + [it] for sub in out]
    return out


class TestCoalitionValue:
    def test_empty_coalition_is_all_baseline(self, lb3_model):
        ctx = CharacteristicContext(
            lb3_model, {"lb": "to_s2", "s1": "serve", "s2": "serve"}, lb3_model.component_ids
        )
        assert coalition_value(ctx, []) == 10.0

    def test_member_plays_its_action(self, lb3_model):
        ctx = CharacteristicContext(
            lb3_model, {"lb": "to_s2", "s1": "serve", "s2": "serve"}, lb3_model.component_ids
        )
        assert coalition_value(ctx, ["lb"]) == 8.0
        assert coalition_value(ctx, ["s2"]) == 10.0  # action equals baseline

    def test_fixed_components_stay_fixed(self, lb3_model):
        ctx = CharacteristicContext(
            lb3_model,
            {"lb": "to_s2", "s2": "serve"},
            ("lb", "s2"),
            fixed={"s1": "drop"},
        )
        assert coalition_value(ctx, []) == 0.0
        assert coalition_value(ctx, ["lb"]) == 8.0

    def test_member_outside_participants_rejected(self, lb3_model):
        ctx = CharacteristicContext(
            lb3_model, {"lb": "to_s2", "s1": "serve", "s2": "serve"}, ("lb",)
        )
        with pytest.raises(ValueError, match="s1"):
            coalition_value(ctx, ["s1"])

    def test_string_coalition_rejected(self):
        # unchecked, "ab" was read as the coalition {a, b}
        model = SystemModel(
            (Component("a", ("x", "y"), "x"), Component("b", ("x", "y"), "x")),
            (QualityAttribute("perf", 1.0),),
            (UtilityRule({"a": "y", "b": "y"}, {"perf": 5.0}),),
            {"perf": 0.0},
        )
        ctx = CharacteristicContext(model, {"a": "y", "b": "y"}, ("a", "b"))
        assert coalition_value(ctx, ("a", "b")) == 5.0
        with pytest.raises(ValueError, match="coalition must be a collection of ids, not the string 'ab'"):
            coalition_value(ctx, "ab")

    def test_overlapping_fixed_and_participants_rejected(self, lb3_model):
        with pytest.raises(ValueError, match="overlap"):
            CharacteristicContext(
                lb3_model,
                {"lb": "to_s2", "s1": "serve", "s2": "serve"},
                ("lb", "s1"),
                fixed={"s1": "drop"},
            )


class TestContextChecks:
    """Construction rejects every label a coalition could put into a joint action."""

    ACTION = {"lb": "to_s2", "s1": "serve", "s2": "serve"}

    def test_unknown_participant_label(self, lb3_model):
        with pytest.raises(InvalidJointActionError, match="fly") as exc:
            CharacteristicContext(lb3_model, {**self.ACTION, "lb": "fly"}, lb3_model.component_ids)
        assert exc.value.component == "lb"

    def test_unknown_fixed_label(self, lb3_model):
        with pytest.raises(InvalidJointActionError, match="stall") as exc:
            CharacteristicContext(lb3_model, self.ACTION, ("lb", "s2"), fixed={"s1": "stall"})
        assert exc.value.component == "s1"

    def test_undeclared_baseline_of_hand_built_model(self, lb3_model):
        broken = dataclasses.replace(
            lb3_model,
            components=(dataclasses.replace(lb3_model.components[0], baseline="nope"),)
            + lb3_model.components[1:],
        )
        with pytest.raises(InvalidJointActionError, match="nope"):
            CharacteristicContext(broken, self.ACTION, broken.component_ids)

    def test_unknown_component(self, lb3_model):
        for participants, fixed in ((("lb", "s9"), {}), (("lb",), {"s9": "serve"})):
            with pytest.raises(ValueError, match=r"^unknown component 's9' in characteristic context$"):
                CharacteristicContext(lb3_model, {**self.ACTION, "s9": "serve"}, participants, fixed)

    def test_action_that_is_not_a_mapping(self, lb3_model):
        with pytest.raises(ValueError, match=r"^joint action must be a mapping keyed by component, got NoneType$"):
            CharacteristicContext(lb3_model, None, ("lb",))

    def test_coalition_value_rechecks_a_changed_context(self, lb3_model):
        ctx = CharacteristicContext(lb3_model, dict(self.ACTION), lb3_model.component_ids)
        ctx.action["lb"] = "fly"
        with pytest.raises(InvalidJointActionError, match="fly"):
            coalition_value(ctx, ["lb"])

    def test_attack_context_labels_accepted(self, lb3_model):
        extended = dataclasses.replace(lb3_model, attack_actions={"s1": ("stall",)})
        ctx = CharacteristicContext(extended, self.ACTION, ("lb", "s2"), fixed={"s1": "stall"})
        assert coalition_value(ctx, ["lb"]) == 8.0


class TestAllocations:
    def test_lb3_example(self, lb3_model):
        ctx = CharacteristicContext(
            lb3_model, {"lb": "to_s2", "s1": "serve", "s2": "serve"}, lb3_model.component_ids
        )
        assert shapley_allocation(ctx) == {"lb": -2.0, "s1": 0.0, "s2": 0.0}
        assert oracle_permutation_allocation(ctx) == {"lb": -2.0, "s1": 0.0, "s2": 0.0}

    def test_single_participant(self):
        values = shapley_values(["x"], lambda s: 5.0 if "x" in s else 0.0)
        assert values == {"x": 5.0}
        assert oracle_permutation_shapley(["x"], lambda s: 5.0 if "x" in s else 0.0) == values

    def test_glove_game(self):
        expected = {"L": 2 / 3, "R1": 1 / 6, "R2": 1 / 6}
        for route in (shapley_values, oracle_permutation_shapley):
            got = route(["L", "R1", "R2"], glove)
            for pid, want in expected.items():
                assert got[pid] == pytest.approx(want, abs=1e-12)

    def test_participant_limit(self):
        def never(_coalition):
            raise AssertionError("a coalition was valued past the limit")

        many = [f"p{i}" for i in range(SUBSET_PARTICIPANT_LIMIT + 1)]
        with pytest.raises(BudgetExceededError,
                           match="over 21 participants exceeds the participant budget 20$"):
            shapley_values(many, never)
        assert SUBSET_PARTICIPANT_LIMIT == 20

    def test_string_of_participants_rejected(self):
        # a string is one id, not a sequence of one-letter participants
        def never(_coalition):
            raise AssertionError("a coalition of characters was valued")

        for ids in ("xy", ""):
            with pytest.raises(ValueError, match="^participants must be a sequence of ids, not the string "):
                shapley_values(ids, never)
        assert shapley_values(("xy",), lambda s: 1.0 if s else 0.0) == {"xy": 1.0}

    def test_set_of_participants_rejected(self, lb3_model):
        # a set iterates in string-hash order, so its summation order, and
        # the shares' last bits, would follow PYTHONHASHSEED
        def never(_coalition):
            raise AssertionError("a coalition of an unordered set was valued")

        action = {"lb": "to_s2", "s1": "serve", "s2": "serve"}
        for kind in (set, frozenset):
            message = f"^participants must be a sequence of ids, not the unordered {kind.__name__}$"
            with pytest.raises(ValueError, match=message):
                shapley_values(kind(["a", "b", "c"]), never)
            ctx = CharacteristicContext(lb3_model, action, kind(lb3_model.component_ids))
            with pytest.raises(ValueError, match=message):
                shapley_allocation(ctx)

    def test_duplicate_participants_rejected(self, lb3_model):
        def never(_coalition):
            raise AssertionError("a coalition of repeated participants was valued")

        with pytest.raises(ValueError, match="^duplicate participant ids$"):
            shapley_values(["x", "y", "x"], never)
        ctx = CharacteristicContext(lb3_model, {"lb": "to_s2", "s1": "serve", "s2": "serve"}, ("lb", "lb"))
        with pytest.raises(ValueError, match="^duplicate participant ids$"):
            shapley_allocation(ctx)

    def test_empty_participants(self):
        assert shapley_values([], lambda s: 0.0) == {}


class TestNonFiniteValues:
    """A coalition value that is NaN or infinite is rejected, never shared out."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_characteristic_function(self, bad):
        with pytest.raises(ValueError, match=rf"coalition \['x'\] the non-finite value {bad!r}$"):
            shapley_values(["x", "y"], lambda s: bad if "x" in s else 0.0)

    @pytest.mark.parametrize("bad, got", [
        (None, "a value: expected a number, got NoneType"),
        ("2", "a value: expected a number, got str"),
        (True, "a value: expected a number, got a boolean"),
        (10**400, "a value: expected a number, got an integer beyond the float range"),
        (math.nan, "the non-finite value nan"),
    ], ids=["None", "str", "bool", "int-beyond-float", "nan"])
    def test_characteristic_function_value_that_is_no_number(self, bad, got):
        # the one number rule: an int or a float, never a bool, finite
        with pytest.raises(ValueError, match=rf"^characteristic function gave coalition \['a'\] {got}$"):
            shapley_values(["a"], lambda s: bad if s else 0.0)

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_hand_built_model(self, lb3_model, weight):
        # checked when compiled, before any utility is valued
        heavy = dataclasses.replace(lb3_model, quality_attributes=(QualityAttribute("perf", weight),))
        action = {"lb": "to_s2", "s1": "serve", "s2": "serve"}
        ctx = CharacteristicContext(heavy, action, heavy.component_ids)
        message = r"^UtilityOverflow\('perf'\): .* \[quality_attributes\[0\]\.weight\]$"
        for route in (lambda: shapley_allocation(ctx), lambda: coalition_value(ctx, []),
                      lambda: system_utility(heavy, {**action, "lb": "to_s1"}), lambda: heavy.compiled):
            with pytest.raises(ValueError, match=message):
                route()

    # Every value is finite, but for x both v({x}) - v({}) and
    # v({x, y}) - v({y}) overflow, to inf and -inf, so the sum is NaN.
    BIG = 1.7e308
    OVERFLOW = r"Shapley share of participant 'x' is the non-finite value nan$"

    def test_share_that_overflows(self):
        values = {frozenset(): -self.BIG, frozenset("x"): self.BIG, frozenset("y"): self.BIG,
                  frozenset("xy"): -self.BIG}
        with pytest.raises(ValueError, match=self.OVERFLOW):
            shapley_values(["x", "y"], values.__getitem__)

    def test_share_that_overflows_on_a_hand_built_model(self):
        big = self.BIG
        model = SystemModel(
            components=(Component("x", ("off", "on"), "off"), Component("y", ("off", "on"), "off")),
            quality_attributes=(QualityAttribute("q", 1.0),),
            utility_rules=(UtilityRule({"x": "on", "y": "on"}, {"q": -big}),
                           UtilityRule({"x": "on"}, {"q": big}), UtilityRule({"y": "on"}, {"q": big})),
            utility_default={"q": -big},
        )
        # the model's check, run when it is compiled, keeps every model away
        # from this case; `test_share_that_overflows` reaches it
        assert [v.code for v in validate_model(model)] == ["UtilityOverflow"]
        with pytest.raises(ValueError, match=r"^UtilityOverflow\('q'\): .* \[quality_attributes\[0\]\.weight\]$"):
            shapley_allocation(CharacteristicContext(model, {"x": "on", "y": "on"}, ("x", "y")))


class TestAxioms:
    def test_efficiency(self):
        rng = random.Random(23)
        for _ in range(50):
            players = [f"p{i}" for i in range(rng.randint(1, 6))]
            v = random_characteristic(rng, players)
            phi = shapley_values(players, v)
            total = sum(phi.values())
            assert total == pytest.approx(v(frozenset(players)) - v(frozenset()), abs=1e-9)

    def test_dummy_player_gets_exactly_zero(self):
        rng = random.Random(29)
        for _ in range(50):
            players = [f"p{i}" for i in range(rng.randint(2, 6))]
            dummy = rng.choice(players)
            base = random_characteristic(rng, [p for p in players if p != dummy])
            v = lambda s, _b=base, _d=dummy: _b(frozenset(s) - {_d})
            assert shapley_values(players, v)[dummy] == 0.0

    def test_symmetry(self):
        rng = random.Random(31)
        for _ in range(50):
            players = [f"p{i}" for i in range(rng.randint(2, 6))]
            i, j = rng.sample(players, 2)
            rest = [p for p in players if p not in (i, j)]
            table = {
                (frozenset(sub), k): rng.uniform(-10, 10)
                for sub in _powerset(rest)
                for k in range(3)
            }
            v = lambda s, _t=table, _i=i, _j=j: _t[
                (frozenset(s) - {_i, _j}, len(frozenset(s) & {_i, _j}))
            ]
            phi = shapley_values(players, v)
            assert phi[i] == pytest.approx(phi[j], abs=1e-12)

    def test_additivity(self):
        rng = random.Random(37)
        for _ in range(50):
            players = [f"p{i}" for i in range(rng.randint(1, 6))]
            v = random_characteristic(rng, players)
            w = random_characteristic(rng, players)
            combined = shapley_values(players, lambda s: v(s) + w(s))
            phi_v = shapley_values(players, v)
            phi_w = shapley_values(players, w)
            for p in players:
                assert combined[p] == pytest.approx(phi_v[p] + phi_w[p], abs=1e-9)

    def test_formula_equals_permutation_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            players = [f"p{i}" for i in range(rng.randint(1, 5))]
            v = random_characteristic(rng, players)
            phi = shapley_values(players, v)
            oracle = oracle_permutation_shapley(players, v)
            for p in players:
                assert phi[p] == pytest.approx(oracle[p], abs=1e-12)

    def test_formula_is_near_the_exact_oracle(self):
        rng = random.Random(59)
        for _ in range(60):
            players = [f"p{i}" for i in range(rng.randint(1, 6))]
            v = random_characteristic(rng, players)
            phi = shapley_values(players, v)
            exact = oracle_exact_shapley(players, v)
            for p in players:
                assert abs(phi[p] - float(exact[p])) <= 1e-12
        for _ in range(60):
            model = random_system_model(rng)
            ctx = random_context(rng, model)
            alloc = shapley_allocation(ctx)
            exact = oracle_exact_shapley(ctx.participants, oracle_context_value(ctx))
            for p in ctx.participants:
                assert abs(alloc[p] - float(exact[p])) <= 1e-12

    def test_exact_oracle_is_efficient(self):
        rng = random.Random(61)
        for _ in range(60):
            model = random_system_model(rng)
            ctx = random_context(rng, model)
            v = oracle_context_value(ctx)
            exact = oracle_exact_shapley(ctx.participants, v)
            assert sum(exact.values()) == Fraction(v(frozenset(ctx.participants))) - Fraction(v(frozenset()))

    def test_context_routes_agree(self):
        rng = random.Random(43)
        for _ in range(40):
            model = random_system_model(rng)
            ctx = random_context(rng, model)
            a = shapley_allocation(ctx)
            b = oracle_permutation_allocation(ctx)
            assert set(a) == set(b)
            for p in a:
                assert a[p] == pytest.approx(b[p], abs=1e-12)

    def test_allocation_efficiency_is_baseline_relative(self):
        rng = random.Random(47)
        for _ in range(40):
            model = random_system_model(rng)
            ctx = random_context(rng, model)
            alloc = shapley_allocation(ctx)
            gain = coalition_value(ctx, ctx.participants) - coalition_value(ctx, ())
            assert sum(alloc.values()) == pytest.approx(gain, abs=1e-9)

    def test_argmax_invariant_under_positive_scaling(self):
        rng = random.Random(53)
        for _ in range(20):
            model = random_system_model(rng)
            k = rng.uniform(0.5, 4.0)
            scaled = dataclasses.replace(
                model,
                quality_attributes=tuple(
                    dataclasses.replace(q, weight=q.weight * k) for q in model.quality_attributes
                ),
            )
            target = model.components[0].id
            candidates = [
                {c.id: rng.choice(c.actions) for c in model.components} for _ in range(4)
            ]
            base_scores, scaled_scores = [], []
            for action in candidates:
                ctx = CharacteristicContext(model, action, model.component_ids)
                sctx = CharacteristicContext(scaled, action, scaled.component_ids)
                base_scores.append(shapley_allocation(ctx)[target])
                scaled_scores.append(shapley_allocation(sctx)[target])
            best = max(base_scores)
            sbest = max(scaled_scores)
            argmax = {i for i, s in enumerate(base_scores) if abs(s - best) <= 1e-9}
            sargmax = {i for i, s in enumerate(scaled_scores) if abs(s - sbest) <= k * 1e-9}
            assert argmax == sargmax
