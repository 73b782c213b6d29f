from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc

import pytest

from bayesadapt import (
    AttackModel,
    Component,
    PlayerType,
    QualityAttribute,
    RewardRule,
    SystemModel,
    analyze_attacks,
    baseline_action,
    InvalidJointActionError,
    build_game,
    enumerate_pure_bne,
    interim_payoff,
    parse_scenario_file,
    payoff,
    prior_probability,
    realized_system_utility,
    system_utility,
)
from conftest import memo_outcomes
from oracles import (
    attacked_game,
    oracle_payoff,
    oracle_utility,
    prisoners_dilemma,
    random_attack_inputs,
    random_game,
    random_system_model,
)

N = PlayerType.NORMAL
M = PlayerType.MALICIOUS


class TestBuildGame:
    def test_lb3_structure(self, lb3_game):
        assert lb3_game.players == ("lb", "s1", "s2")
        assert lb3_game.type_sets == {"lb": (N,), "s1": (N, M), "s2": (N,)}
        assert lb3_game.prior_malicious == {"lb": 0.0, "s1": 0.6, "s2": 0.0}
        # "drop" is already a normal action of s1, so the union deduplicates
        assert lb3_game.action_sets[("s1", M)] == ("serve", "drop")

    def test_empty_attack_degenerates(self, lb3_model):
        game = build_game(lb3_model, AttackModel.empty())
        assert all(game.type_sets[p] == (N,) for p in game.players)
        assert all(p == 0.0 for p in game.prior_malicious.values())
        assert prior_probability(game, {p: N for p in game.players}) == 1.0

    def test_novel_attack_action_appended(self, lb3_model):
        model = dataclasses.replace(lb3_model, attack_actions={"s2": ("tamper",)})
        att = AttackModel(
            attacked=("s2",),
            malicious_actions={"s2": ("tamper",)},
            probabilities={"s2": 0.3},
            rewards={"s2": ((), 0.0)},
        )
        game = build_game(model, att)
        assert game.action_sets[("s2", M)] == ("serve", "drop", "tamper")
        assert game.action_sets[("s2", N)] == ("serve", "drop")

    def test_nan_reward_rejected(self, lb3_model, lb3_attack):
        bad = dataclasses.replace(lb3_attack, rewards={"s1": ((RewardRule({"s1": "drop"}, float("nan")),), 0.0)})
        with pytest.raises(ValueError, match=r"expected a numeric reward, got nan \[rewards\.s1\[0\]\]"):
            build_game(lb3_model, bad)

    @pytest.mark.parametrize("changes, message", [
        ({"probabilities": {"s1": "0.6"}}, r"expected a probability, got str \[probabilities\.s1\]"),
        ({"rewards": {"s1": ((RewardRule({"s1": "drop"}, "5"),), 0.0)}},
         r"expected a numeric reward, got str \[rewards\.s1\[0\]\]"),
        ({"rewards": {"s1": ((), "0")}}, r"expected a numeric reward, got str \[rewards\.s1\]"),
    ], ids=["string-probability", "string-rule-reward", "string-default"])
    def test_numbers_that_are_not_numbers_rejected(self, lb3_model, lb3_attack, changes, message):
        with pytest.raises(ValueError, match=message):
            build_game(lb3_model, dataclasses.replace(lb3_attack, **changes))

    def test_invalid_inputs_rejected(self, lb3_model):
        att = AttackModel(("s9",), {"s9": ("x",)}, {"s9": 0.5}, {"s9": ((), 0.0)})
        with pytest.raises(ValueError, match="s9"):
            build_game(lb3_model, att)

    def test_structure_on_random_pairs(self):
        rng = random.Random(67)
        for _ in range(40):
            model = random_system_model(rng)
            model, kb, events = random_attack_inputs(rng, model)
            att = analyze_attacks(events, kb, model)
            game = build_game(model, att)
            assert game.players == model.component_ids
            for p in game.players:
                attacked = p in att.attacked
                assert (game.type_sets[p] == (N, M)) == attacked
                assert game.prior_malicious[p] == (att.probabilities[p] if attacked else 0.0)
                if attacked:
                    normal = game.action_sets[(p, N)]
                    mal = game.action_sets[(p, M)]
                    assert mal[: len(normal)] == normal
                    extras = [a for a in att.malicious_actions[p] if a not in normal]
                    assert mal[len(normal):] == tuple(extras)
            total = 0.0
            for combo in itertools.product(*(game.type_sets[p] for p in game.players)):
                total += prior_probability(game, dict(zip(game.players, combo)))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestPriorProbability:
    def test_lb3_marginals(self, lb3_game):
        assert prior_probability(lb3_game, {"lb": N, "s1": M, "s2": N}) == pytest.approx(0.6)
        assert prior_probability(lb3_game, {"lb": N, "s1": N, "s2": N}) == pytest.approx(0.4)

    def test_two_attacked_components_independent(self, lb3_model):
        att = AttackModel(
            attacked=("s1", "s2"),
            malicious_actions={"s1": ("drop",), "s2": ("drop",)},
            probabilities={"s1": 0.5, "s2": 0.5},
            rewards={"s1": ((), 0.0), "s2": ((), 0.0)},
        )
        game = build_game(lb3_model, att)
        assert prior_probability(game, {"lb": N, "s1": M, "s2": M}) == pytest.approx(0.25)

    def test_malicious_on_non_attacked_rejected(self, lb3_game):
        with pytest.raises(ValueError, match="lb"):
            prior_probability(lb3_game, {"lb": M, "s1": N, "s2": N})


class TestPayoff:
    def test_malicious_reward_rule(self, lb3_game):
        types = {"lb": N, "s1": M, "s2": N}
        action = {"lb": "to_s1", "s1": "drop", "s2": "serve"}
        assert payoff(lb3_game, types, action, "s1") == 5.0

    def test_normal_shapley_share(self, lb3_game):
        types = {"lb": N, "s1": M, "s2": N}
        action = {"lb": "to_s2", "s1": "drop", "s2": "serve"}
        assert payoff(lb3_game, types, action, "lb") == pytest.approx(8.0)
        assert payoff(lb3_game, types, action, "s2") == pytest.approx(0.0)

    def test_all_baseline_all_normal_is_zero(self, lb3_game, lb3_model):
        types = {p: N for p in lb3_game.players}
        action = baseline_action(lb3_model)
        for p in lb3_game.players:
            assert payoff(lb3_game, types, action, p) == 0.0

    def test_action_outside_type_set_rejected(self, lb3_game):
        types = {"lb": N, "s1": N, "s2": N}
        action = {"lb": "to_s1", "s1": "fly", "s2": "serve"}
        with pytest.raises(ValueError, match="fly"):
            payoff(lb3_game, types, action, "s1")

    def test_unknown_player_rejected(self, lb3_game):
        message = r"^unknown player 'nobody'$"
        game = prisoners_dilemma()
        for game, types, action in (
            (lb3_game, {"lb": N, "s1": N, "s2": N}, {"lb": "to_s1", "s1": "serve", "s2": "serve"}),
            (game, {"p1": M, "p2": M}, {"p1": "C", "p2": "D"}),
        ):
            with pytest.raises(ValueError, match=message):
                payoff(game, types, action, "nobody")
            profile = {p: dict.fromkeys(game.type_sets[p], a) for p, a in action.items()}
            with pytest.raises(ValueError, match=message):
                interim_payoff(game, "nobody", N, profile)

    NORMAL = {"lb": N, "s1": N, "s2": N}
    ACTION = {"lb": "to_s1", "s1": "serve", "s2": "serve"}

    @pytest.mark.parametrize("read, message", [
        (lambda game: payoff(game, TestPayoff.NORMAL, {"lb": "to_s1", "s1": "serve"}, "lb"),
         "joint action misses player 's2'"),
        (lambda game: payoff(game, TestPayoff.NORMAL, {**TestPayoff.ACTION, "zz": "serve"}, "lb"),
         "unknown player 'zz' in joint action"),
        (lambda game: payoff(game, TestPayoff.NORMAL, "to_s1", "lb"),
         "joint action must be a mapping keyed by player, got str"),
        (lambda game: payoff(game, None, TestPayoff.ACTION, "lb"),
         "type profile must be a mapping keyed by player, got NoneType"),
        (lambda game: prior_probability(game, None), "type profile must be a mapping keyed by player, got NoneType"),
        (lambda game: realized_system_utility(game, TestPayoff.NORMAL, None),
         "joint action must be a mapping keyed by component, got NoneType"),
        (lambda game: payoff(game, TestPayoff.NORMAL, TestPayoff.ACTION, ["lb"]), r"unknown player \['lb'\]"),
        (lambda game: interim_payoff(game, ["lb"], N, {p: {t: game.action_sets[(p, t)][0] for t in game.type_sets[p]}
                                                       for p in game.players}),
         r"unknown player \['lb'\]"),
    ], ids=["action-misses-player", "action-unknown-player", "action-not-a-mapping", "types-not-a-mapping",
            "prior-types-not-a-mapping", "realized-action-not-a-mapping", "payoff-list-player",
            "interim-list-player"])
    def test_arguments_keyed_by_player_rejected(self, lb3_game, read, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read(lb3_game)

    def test_payoff_before_a_pass_fills_no_memo(self, lb3_model, lb3_attack):
        game = build_game(lb3_model, lb3_attack)
        types = {"lb": N, "s1": M, "s2": N}
        action = {"lb": "to_s2", "s1": "drop", "s2": "serve"}
        paid = tuple(payoff(game, types, action, p) for p in game.players)
        assert game.compiled.outcomes == {}
        enumerate_pure_bne(game)
        # the solver's pass holds the outcome, and a read returns its floats
        held = memo_outcomes(game.compiled)[((0, 2, 3), (1, 1, 0))]
        assert held == paid
        assert all(repr(payoff(game, types, action, p)) == repr(x) for p, x in zip(game.players, held))

    def test_outcome_memo_stays_sparse(self):
        # 20 players of 10 actions, each attacked with probability 1 and
        # paid j for its own action aj: 10**20 joint actions in one type
        # profile, of which one read stores nothing
        players = tuple(f"p{i}" for i in range(20))
        labels = tuple(f"a{j}" for j in range(10))
        game = attacked_game(dict.fromkeys(players, labels),
                             {p: [({p: a}, float(j)) for j, a in enumerate(labels)] for p in players})
        types = dict.fromkeys(players, M)
        action = {p: labels[i % 10] for i, p in enumerate(players)}
        tracemalloc.start()
        try:
            paid = payoff(game, types, action, "p13")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert paid == 3.0
        assert game.compiled.outcomes == {}
        assert peak < 1_000_000

    def test_equals_the_payoff_oracle(self):
        # every type profile and joint action of small random games, bit for bit
        rng = random.Random(73)
        games = [random_game(rng) for _ in range(15)]
        for _ in range(15):
            model, kb, events = random_attack_inputs(rng, random_system_model(rng, max_components=4))
            games.append(build_game(model, analyze_attacks(events, kb, model)))
        checked = 0
        for game in games:
            for combo in itertools.product(*(game.type_sets[p] for p in game.players)):
                types = dict(zip(game.players, combo))
                for labels in itertools.product(*(game.action_sets[(p, types[p])] for p in game.players)):
                    action = dict(zip(game.players, labels))
                    for p in game.players:
                        assert payoff(game, types, action, p) == oracle_payoff(game, types, action, p)
                        checked += 1
                    assert realized_system_utility(game, types, action) == oracle_utility(game.model, action)
        assert checked > 1000

    def test_realized_utility_checks_the_type_profile(self, lb3_game):
        action = {"lb": "to_s1", "s1": "serve", "s2": "serve"}
        assert realized_system_utility(lb3_game, {"lb": N, "s1": N, "s2": N}, action) == 10.0
        for types, message in (
            ({}, "type profile misses player 'lb'"),
            ({"lb": M, "zz": N}, "player 'lb' cannot be of type Malicious"),
            ({"lb": N, "s1": M, "s2": N, "zz": N}, "unknown player 'zz' in type profile"),
            (None, "type profile must be a mapping keyed by player, got NoneType"),
        ):
            with pytest.raises(ValueError, match=message):
                realized_system_utility(lb3_game, types, action)

    def test_realized_utility_rejects_an_action_the_type_cannot_play(self, two_vulns_path):
        script = parse_scenario_file(two_vulns_path)
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        action = {"lb": "to_s1", "s1": "stall", "s2": "serve"}
        normal = {"lb": N, "s1": N, "s2": N}
        message = r"^action 'stall' not available to player 's1' of type Normal$"
        for read in (lambda: realized_system_utility(game, normal, action),
                     lambda: payoff(game, normal, action, "s1")):
            with pytest.raises(ValueError, match=message) as caught:
                read()
            assert not isinstance(caught.value, InvalidJointActionError)
        malicious = {"lb": N, "s1": M, "s2": N}
        assert realized_system_utility(game, malicious, action) == system_utility(game.model, action) == 0.0

    def test_realized_utility_rejects_bad_model_action(self, lb3_game):
        types = {"lb": N, "s1": N, "s2": N}
        with pytest.raises(InvalidJointActionError, match="fly"):
            realized_system_utility(lb3_game, types, {"lb": "to_s1", "s1": "fly", "s2": "serve"})
        with pytest.raises(InvalidJointActionError, match="s2"):
            realized_system_utility(lb3_game, types, {"lb": "to_s1", "s1": "serve"})

    def test_utility_sums_are_left_folds(self):
        # Python 3.12's sum() of floats is compensated and would give 1.0
        # for these three weighted scores; the left fold from 0.0 gives 0.0
        # on every interpreter.
        attrs = (QualityAttribute("q1", 1.0), QualityAttribute("q2", 1.0), QualityAttribute("q3", 1.0))
        model = SystemModel(tuple(Component(p, ("a",), "a") for p in ("p1", "p2", "p3")), attrs, (),
                            {"q1": 1e16, "q2": 1.0, "q3": -1e16})
        game = build_game(model, AttackModel.empty())
        types = {p: N for p in game.players}
        assert realized_system_utility(game, types, {p: "a" for p in game.players}) == 0.0
        assert game.compiled.expected_system_utility((0, 0, 0)) == 0.0
        (result,) = enumerate_pure_bne(game)
        assert result.expected_system_utility == 0.0

    def test_normal_payoffs_are_efficient(self):
        # Sum of Normal players' payoffs equals the utility gain over the
        # all-baseline outcome with malicious actions held fixed.
        rng = random.Random(71)
        for _ in range(30):
            model = random_system_model(rng)
            model, kb, events = random_attack_inputs(rng, model)
            att = analyze_attacks(events, kb, model)
            game = build_game(model, att)

            types = {
                p: (M if p in att.attacked and rng.random() < 0.5 else N)
                for p in game.players
            }
            action = {p: rng.choice(game.action_sets[(p, types[p])]) for p in game.players}
            normal_sum = sum(
                payoff(game, types, action, p) for p in game.players if types[p] is N
            )
            reference = dict(action)
            for p in game.players:
                if types[p] is N:
                    reference[p] = model.component(p).baseline
            gain = system_utility(game.model, action) - system_utility(game.model, reference)
            assert normal_sum == pytest.approx(gain, abs=1e-9)
