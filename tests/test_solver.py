from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys
from collections.abc import Sequence

import pytest

from conftest import REPO_ROOT

from bayesadapt import (
    DEFAULT_EPSILON,
    DEFAULT_PROFILE_BUDGET,
    AttackModel,
    BudgetExceededError,
    Component,
    PlayerType,
    QualityAttribute,
    RewardRule,
    SystemModel,
    UtilityRule,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    examined_profile_count,
    export_induced_nfg,
    full_profile_count,
    induced_strategy_counts,
    interim_payoff,
    maximin_fallback,
    parse_scenario_file,
    payoff,
    plan,
    prior_probability,
    realized_system_utility,
    select_equilibrium,
)
from bayesadapt.game import BayesianGame, CompiledGame
from oracles import (
    attacked_game,
    matching_pennies,
    oracle_induced_nfg,
    oracle_interim,
    oracle_maximin,
    oracle_expected_system_utility,
    oracle_payoff,
    oracle_prior,
    oracle_pure_bne,
    prisoners_dilemma,
    profile_key,
    random_attack_inputs,
    random_game,
    random_system_model,
    table_game,
)

N = PlayerType.NORMAL
M = PlayerType.MALICIOUS


class _PayoffEvaluated(Exception):
    pass


def _unattacked_game(widths: Sequence[int]) -> BayesianGame:
    # one unattacked player per width, of that many actions
    comps = tuple(Component(f"p{i}", labels, labels[0])
                  for i, labels in enumerate(tuple(f"a{j}" for j in range(w)) for w in widths))
    return build_game(SystemModel(comps, (QualityAttribute("q", 1.0),), (), {"q": 0.0}), AttackModel.empty())


def _assert_budget_checked_first(monkeypatch, route, at: Sequence[int] = (10,) * 7, per_profile: int = 1) -> None:
    # 8 players x 8 actions is 16 777 216 profiles, over the budget: the
    # route must refuse before it pays a payoff. A game of the widths `at`,
    # 7 x 10 by default, holds exactly the budget when each profile counts
    # `per_profile`, so it passes the check and reaches its first payment.
    # Every writer and row route first allocates the type profile's payoff
    # columns (`CompiledGame.columns`), so that is where the sentinel stops
    # the route, before any column is allocated or payoff paid.
    def columns(*_args):
        raise _PayoffEvaluated

    monkeypatch.setattr(CompiledGame, "columns", columns)
    over = _unattacked_game((8,) * 8)
    with pytest.raises(BudgetExceededError,
                       match=f"16777216 profiles exceeds budget {DEFAULT_PROFILE_BUDGET}"):
        route(over)
    game = _unattacked_game(at)
    assert full_profile_count(game) * per_profile == DEFAULT_PROFILE_BUDGET == 10_000_000
    with pytest.raises(_PayoffEvaluated):
        route(game)


def _naive_counts(game: BayesianGame) -> tuple:
    # Strategy counts per player, the full product and the product over the
    # types of positive prior mass, straight from the game's declared sets.
    per_player = tuple(
        math.prod(len(game.action_sets[(p, t)]) for t in game.type_sets[p]) for p in game.players
    )
    examined = math.prod(
        len(game.action_sets[(p, t)])
        for p in game.players for t in game.type_sets[p] if game.marginal(p, t) > 0.0
    )
    return per_player, math.prod(per_player), examined


class TestCounts:
    def test_counts_equal_naive_products(self):
        rng = random.Random(131)
        games = [random_game(rng) for _ in range(120)]
        for _ in range(60):
            model = random_system_model(rng, max_components=3, max_actions=3)
            model, kb, events = random_attack_inputs(rng, model)
            # a probability of 0 or 1 leaves one of the two types without mass
            kb = [dataclasses.replace(rec, compromise_probability=rng.choice((0.0, 1.0, 0.4))) for rec in kb]
            games.append(build_game(model, analyze_attacks(events, kb, model)))
        zero_mass = 0
        for game in games:
            counts = (induced_strategy_counts(game), full_profile_count(game), examined_profile_count(game))
            assert counts == _naive_counts(game)
            zero_mass += counts[1] != counts[2]
        assert zero_mass > 0


class TestInterimPayoff:
    def test_lb3_derived_values(self, lb3_game):
        base = {"s1": {N: "serve", M: "drop"}, "s2": {N: "serve"}}
        stay = {"lb": {N: "to_s1"}, **base}
        move = {"lb": {N: "to_s2"}, **base}
        assert interim_payoff(lb3_game, "lb", N, stay) == pytest.approx(0.0, abs=1e-9)
        assert interim_payoff(lb3_game, "lb", N, move) == pytest.approx(4.0, abs=1e-9)

    def test_degenerate_prior_equals_complete_information(self):
        # attacked with probability 1, each player's Malicious type plays the table
        game = prisoners_dilemma()
        profile = {"p1": {N: "C", M: "D"}, "p2": {N: "C", M: "C"}}
        assert interim_payoff(game, "p1", M, profile) == 5.0
        assert interim_payoff(game, "p2", M, profile) == 0.0

    def test_invalid_strategy_rejected(self, lb3_game):
        with pytest.raises(ValueError):
            interim_payoff(lb3_game, "lb", N, {"lb": {N: "to_s1"}})

    # Unchecked, a profile naming a player or a type the game does not have
    # was read as if those keys were absent, and the payoff returned.
    LB3_PROFILE = {"lb": {N: "to_s1"}, "s1": {N: "serve", M: "drop"}, "s2": {N: "serve"}}

    def test_unknown_player_rejected(self, lb3_game):
        assert interim_payoff(lb3_game, "lb", N, self.LB3_PROFILE) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError) as exc:
            interim_payoff(lb3_game, "lb", N, {**self.LB3_PROFILE, "ghost": {N: "x"}})
        assert str(exc.value) == "unknown player 'ghost' in strategy profile"

    def test_type_the_player_lacks_rejected(self, lb3_game):
        profile = {**self.LB3_PROFILE, "s2": {N: "serve", M: "bogus"}}
        with pytest.raises(ValueError) as exc:
            interim_payoff(lb3_game, "lb", N, profile)
        assert str(exc.value) == "player 's2' cannot be of type Malicious"
        with pytest.raises(ValueError, match="cannot be of type 'Malicious'"):
            interim_payoff(lb3_game, "lb", N, {**self.LB3_PROFILE, "s2": {N: "serve", "Malicious": "drop"}})

    @pytest.mark.parametrize("changes, message", [
        ({"s1": {N: "serve"}}, "player 's1' has no action for type Malicious"),
        ({"s1": {N: "serve", M: "fly"}}, "action 'fly' not available to player 's1' of type Malicious"),
        ({"lb": "to_s1"}, "strategy of player 'lb' must be a mapping keyed by type, got str"),
        (None, "strategy profile must be a mapping keyed by player, got NoneType"),
    ], ids=["no-action-for-a-type", "action-the-type-cannot-play", "strategy-not-a-mapping",
            "profile-not-a-mapping"])
    def test_malformed_profile_rejected(self, lb3_game, changes, message):
        profile = None if changes is None else {**self.LB3_PROFILE, **changes}
        with pytest.raises(ValueError) as exc:
            interim_payoff(lb3_game, "lb", N, profile)
        assert str(exc.value) == message


    def test_budget_enforced(self, monkeypatch):
        # the row it reads pays every outcome of each type profile, so a
        # game over the budget is refused first
        _assert_budget_checked_first(
            monkeypatch, lambda game: interim_payoff(game, "p0", N, {p: {N: "a0"} for p in game.players}))


class TestEnumerate:
    def test_prisoners_dilemma_unique_defection(self):
        results = enumerate_pure_bne(prisoners_dilemma())
        assert len(results) == 1
        assert results[0].profile == {"p1": {N: "C", M: "D"}, "p2": {N: "C", M: "D"}}
        assert not results[0].fallback

    def test_single_player_argmax(self):
        game = table_game(["x"], {"x": ["a", "b", "c"]}, {("a",): (1.0,), ("b",): (3.0,), ("c",): (2.0,)})
        results = enumerate_pure_bne(game)
        assert [r.profile["x"][M] for r in results] == ["b"]

    def test_matching_pennies_has_no_pure_equilibrium(self):
        assert enumerate_pure_bne(matching_pennies()) == []

    def test_results_in_canonical_order(self):
        # all-zero payoffs: every profile is an equilibrium, listed lexicographically
        table = {(a, b): (0.0, 0.0) for a in "xy" for b in "uv"}
        game = table_game(["p1", "p2"], {"p1": ["x", "y"], "p2": ["u", "v"]}, table)
        results = enumerate_pure_bne(game)
        got = [(r.profile["p1"][M], r.profile["p2"][M]) for r in results]
        assert got == [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")]

    def test_budget_enforced(self, monkeypatch):
        _assert_budget_checked_first(monkeypatch, enumerate_pure_bne)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(73)
        for _ in range(60):
            game = random_game(rng)
            mine = {profile_key(r.profile) for r in enumerate_pure_bne(game)}
            theirs = {profile_key(p) for p in oracle_pure_bne(game, 1e-9)}
            assert mine == theirs

    def test_soundness_via_independent_recheck(self):
        # re-verify each reported equilibrium with the oracle's interim payoff
        # on a freshly built game (no shared caches, no shared evaluator)
        rng = random.Random(79)
        for _ in range(20):
            game = random_game(rng)
            for result in enumerate_pure_bne(game):
                fresh = build_game(dataclasses.replace(game.model), game.attack)
                for p in fresh.players:
                    for t in fresh.type_sets[p]:
                        if fresh.marginal(p, t) == 0.0:
                            continue
                        base = oracle_interim(fresh, p, t, result.profile)
                        for alt in fresh.action_sets[(p, t)]:
                            trial = {q: dict(st) for q, st in result.profile.items()}
                            trial[p][t] = alt
                            assert oracle_interim(fresh, p, t, trial) <= base + 1e-9

    def test_zero_probability_types_pinned_to_first_action(self):
        # a zero-probability malicious type must not multiply the results
        model = SystemModel((Component("p1", ("a", "b"), "b"),), (QualityAttribute("q", 1.0),),
                            (UtilityRule({"p1": "a"}, {"q": 1.0}),), {"q": 0.0}, {"p1": ("x", "y")})
        game = build_game(model, AttackModel(("p1",), {"p1": ("x", "y")}, {"p1": 0.0}, {"p1": ((), 0.0)}))
        assert game.action_sets[("p1", M)] == ("a", "b", "x", "y")
        results = enumerate_pure_bne(game)
        assert len(results) == 1
        assert results[0].profile["p1"] == {N: "a", M: "a"}

    def test_determinism_across_runs(self):
        rng = random.Random(83)
        game = random_game(rng)
        first = enumerate_pure_bne(game)
        second = enumerate_pure_bne(game)
        assert first == second

    def test_model_backed_results_survive_fresh_recheck(self, lb3_model, lb3_attack):
        from bayesadapt import build_game

        results = enumerate_pure_bne(build_game(lb3_model, lb3_attack))
        assert results
        fresh = build_game(lb3_model, lb3_attack)  # empty payoff caches
        for result in results:
            for p in fresh.players:
                for t in fresh.type_sets[p]:
                    if fresh.marginal(p, t) == 0.0:
                        continue
                    base = oracle_interim(fresh, p, t, result.profile)
                    for alt in fresh.action_sets[(p, t)]:
                        trial = {q: dict(st) for q, st in result.profile.items()}
                        trial[p][t] = alt
                        assert oracle_interim(fresh, p, t, trial) <= base + 1e-9

    def test_exante_interim_consistency(self):
        # with strictly positive marginals, interim stability is equivalent to
        # ex-ante stability against full single-player strategy changes
        rng = random.Random(89)
        for _ in range(15):
            game = random_game(rng, max_players=2)
            results = {profile_key(r.profile) for r in enumerate_pure_bne(game)}
            for profile in _all_profiles(game):
                stable = profile_key(profile) in results
                assert stable == _exante_stable(game, profile, 1e-9)

    def test_positive_affine_invariance(self):
        # the first attacked player's rewards mapped by r -> alpha * r + beta
        rng = random.Random(97)
        scaled_games = 0
        for _ in range(30):
            game = random_game(rng)
            if not game.attack.attacked:
                continue
            alpha, beta = rng.uniform(0.2, 5.0), rng.uniform(-8.0, 8.0)
            target = game.attack.attacked[0]
            rules, default = game.attack.rewards[target]
            rewards = {**game.attack.rewards, target: (
                tuple(dataclasses.replace(rule, reward=alpha * rule.reward + beta) for rule in rules),
                alpha * default + beta)}
            scaled = build_game(game.model, dataclasses.replace(game.attack, rewards=rewards))
            before = {profile_key(r.profile) for r in enumerate_pure_bne(game, 1e-9)}
            after = {profile_key(r.profile) for r in enumerate_pure_bne(scaled, alpha * 1e-9)}
            assert before == after
            scaled_games += 1
        assert scaled_games >= 15


def _assert_equals_the_oracles(game: BayesianGame, epsilon: float) -> list:
    # The equilibria as a full ordered list, each with every slot's interim
    # payoff and its expected system utility, equal to the oracles' bit for bit.
    results = enumerate_pure_bne(game, epsilon)
    assert [r.profile for r in results] == oracle_pure_bne(game, epsilon)
    for r in results:
        assert not r.fallback
        assert r.interim == {
            (p, t): oracle_interim(game, p, t, r.profile) for p in game.players for t in game.type_sets[p]
        }
        assert r.expected_system_utility == oracle_expected_system_utility(game, r.profile)
    return results


def _last_component_attacked(rng: random.Random, prior: float) -> BayesianGame:
    # A random model-backed game whose last component is attacked with `prior`.
    while True:
        model, kb, events = random_attack_inputs(rng, random_system_model(rng, max_components=3))
        att = analyze_attacks(events, kb, model)
        last = model.component_ids[-1]
        if last in att.attacked:
            att = dataclasses.replace(att, probabilities={**att.probabilities, last: prior})
            return build_game(model, att)


def _tail_slots(monkeypatch, game: BayesianGame) -> list:
    # The slots whose rows enumerate_pure_bne reads by table: the tail's positive slots.
    read = []
    table = CompiledGame.table

    def recorded(self, k, ranges):
        read.append(k)
        return table(self, k, ranges)

    monkeypatch.setattr(CompiledGame, "table", recorded)
    enumerate_pure_bne(game)
    monkeypatch.undo()
    return read


def _spans_game(spans: list, rng: random.Random | None = None, priors: dict | None = None) -> BayesianGame:
    # One player per entry: a count is a Normal-only player with that many
    # actions, a pair (n, m) an attacked player whose Normal type has n
    # actions and whose Malicious type m >= n, the first n and m - n attack
    # labels, with the prior `priors[player]`, 0.5 if unnamed. Without `rng`
    # every payoff is 0; with it, utility scores and Malicious rewards are 0
    # or 1 by one rule per joint action of every label, so many profiles tie.
    comps, extra = [], {}
    for i, w in enumerate(spans):
        n, m = (w, w) if isinstance(w, int) else w
        comps.append(Component(f"p{i}", tuple(f"a{j}" for j in range(n)), "a0"))
        if not isinstance(w, int):
            extra[f"p{i}"] = tuple(f"x{j}" for j in range(m - n))
    labels = {c.id: c.actions + extra.get(c.id, ()) for c in comps}
    joints = [dict(zip(labels, joint)) for joint in itertools.product(*labels.values())] if rng else []
    model = SystemModel(tuple(comps), (QualityAttribute("q", 1.0),),
                        tuple(UtilityRule(when, {"q": float(rng.randint(0, 1))}) for when in joints),
                        {"q": 0.0}, {cid: xs for cid, xs in extra.items() if xs})
    attacked = tuple(extra)
    return build_game(model, AttackModel(
        attacked,
        {cid: extra[cid] or ("a0",) for cid in attacked},
        {cid: (priors or {}).get(cid, 0.5) for cid in attacked},
        {cid: (tuple(RewardRule(when, float(rng.randint(0, 1))) for when in joints), 0.0) for cid in attacked},
    ))


def _middle_attacked(rng: random.Random, prior: float) -> BayesianGame:
    # Three players paid 0 or 1, so many profiles pass, in an order other
    # than the canonical one; the middle one is attacked with `prior`, and
    # its Malicious type has the widest action set, five, its Normal type
    # the next, four. The last one, attacked with prior 0.5, has one action
    # as Normal and two as Malicious.
    return _spans_game([3, (4, 5), (1, 2)], rng, {"p1": prior})


class TestHeadAndTail:
    """The widest player's stable actions bound the enumeration; the results must not move."""

    @pytest.mark.parametrize("path, attacked", [("scenarios/lb3.scn", "s1"),
                                                ("tests/golden/chain-n8-k1.scn", "c5")])
    def test_the_attacked_player_is_the_tail(self, monkeypatch, path, attacked):
        script = parse_scenario_file(REPO_ROOT / path)
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        assert game.players[-1] != attacked
        # the golden solve outputs pin these games' equilibria
        assert _tail_slots(monkeypatch, game) == list(game.compiled.own[game.players.index(attacked)])

    @pytest.mark.parametrize("spans", [[2, 2, 2], [4, (2, 2), 4], [(1, 3), 3, (1, 3)]])
    def test_the_last_of_equally_wide_players_is_the_tail(self, monkeypatch, spans):
        game = _spans_game(spans)
        assert _tail_slots(monkeypatch, game) == list(game.compiled.own[-1])
        # every profile qualifies, in canonical order
        assert len(_assert_equals_the_oracles(game, 1e-9)) == examined_profile_count(game)

    def test_the_last_of_the_widest_players_is_the_tail(self, monkeypatch):
        game = _spans_game([(2, 2), 4, 3])
        assert _tail_slots(monkeypatch, game) == list(game.compiled.own[1])
        assert len(_assert_equals_the_oracles(game, 1e-9)) == examined_profile_count(game)

    @pytest.mark.parametrize("prior", [0.0, 1.0])
    def test_zero_marginal_slot_in_a_middle_tail(self, monkeypatch, prior):
        rng = random.Random(211 if prior else 209)
        zero = M if prior == 0.0 else N
        found = 0
        for _ in range(12):
            game = _middle_attacked(rng, prior)
            assert game.marginal("p1", zero) == 0.0
            positive = [k for k in game.compiled.own[1] if game.compiled.slots[k][1] is not zero]
            assert _tail_slots(monkeypatch, game) == positive
            for r in _assert_equals_the_oracles(game, 1e-9):
                assert r.profile["p1"][zero] == "a0"
                found += 1
        assert found >= 12

    @pytest.mark.parametrize("prior", [0.0, 1.0])
    def test_zero_marginal_slot_in_the_tail(self, prior):
        rng = random.Random(181 if prior else 179)
        pinned = 0
        for _ in range(12):
            game = _last_component_attacked(rng, prior)
            last = game.players[-1]
            zero = M if prior == 0.0 else N
            assert game.marginal(last, zero) == 0.0
            for r in _assert_equals_the_oracles(game, 1e-9):
                assert r.profile[last][zero] == game.action_sets[(last, zero)][0]
                pinned += 1
        assert pinned >= 12

    def test_single_player_has_an_empty_head(self):
        rng = random.Random(191)
        found = 0
        for _ in range(40):
            game = random_game(rng, max_players=1, min_players=1, max_actions=4)
            found += len(_assert_equals_the_oracles(game, 1e-9))
        assert found >= 40

    @pytest.mark.parametrize("epsilon", [0.0, 1e9])
    def test_epsilon_extremes(self, epsilon):
        rng = random.Random(193)
        games = [random_game(rng) for _ in range(20)]
        for _ in range(6):
            model, kb, events = random_attack_inputs(rng, random_system_model(rng, max_components=3))
            games.append(build_game(model, analyze_attacks(events, kb, model)))
        for game in games:
            results = _assert_equals_the_oracles(game, epsilon)
            if epsilon == 1e9:
                # every payoff is far inside 1e9, so every profile qualifies
                assert len(results) == examined_profile_count(game)

    def test_interim_sums_that_overflow(self):
        # Three players, each attacked with prior 0.2, each Malicious type
        # paid +-max float or 1.0 by its own action: a Malicious slot's
        # interim sums four such weighted rewards, which round to +inf or
        # -inf, and rows tie at +inf and at -inf, where a difference of two
        # entries is NaN. The Normal types are paid 0.
        big = sys.float_info.max
        actions = dict.fromkeys(("x", "y", "z"), ("a", "b"))
        interims = []
        for seed in range(8):
            rng = random.Random(197 + seed)
            rules = {p: [({p: a}, rng.choice((big, -big, 1.0))) for a in acts] for p, acts in actions.items()}
            game = attacked_game(actions, rules, 0.2)
            for r in _assert_equals_the_oracles(game, 1e-9):
                interims.extend(r.interim.values())
        assert {math.inf, -math.inf} <= set(interims) and any(map(math.isfinite, interims))


def _all_profiles(game):
    slots = [(p, t) for p in game.players for t in game.type_sets[p]]
    for labels in itertools.product(*(game.action_sets[s] for s in slots)):
        profile: dict = {}
        for (p, t), a in zip(slots, labels):
            profile.setdefault(p, {})[t] = a
        yield profile


def _exante_payoff(game, profile, player):
    total = 0.0
    for combo in itertools.product(*(game.type_sets[p] for p in game.players)):
        types = dict(zip(game.players, combo))
        rho = oracle_prior(game, types)
        if rho == 0.0:
            continue
        action = {p: profile[p][types[p]] for p in game.players}
        total += rho * oracle_payoff(game, types, action, player)
    return total


def _exante_stable(game, profile, epsilon):
    for player in game.players:
        base = _exante_payoff(game, profile, player)
        pools = [game.action_sets[(player, t)] for t in game.type_sets[player]]
        for alternative in itertools.product(*pools):
            trial = {q: dict(st) for q, st in profile.items()}
            trial[player] = dict(zip(game.type_sets[player], alternative))
            if _exante_payoff(game, trial, player) > base + epsilon:
                return False
    return True


class TestSelection:
    def test_picks_max_expected_utility(self, lb3_game):
        results = enumerate_pure_bne(lb3_game)
        assert len(results) == 2
        selected = select_equilibrium(results)
        assert selected.profile["lb"][N] == "to_s2"
        assert selected.expected_system_utility == pytest.approx(8.0)

    def test_tie_breaks_to_canonical_first(self):
        table = {(a, b): (0.0, 0.0) for a in "xy" for b in "uv"}
        game = table_game(["p1", "p2"], {"p1": ["x", "y"], "p2": ["u", "v"]}, table)
        results = enumerate_pure_bne(game)
        assert len(results) == 4
        assert select_equilibrium(results) is results[0]

    def test_empty_is_none(self):
        assert select_equilibrium([]) is None


class TestExistenceWithoutAttacks:
    """With no attacked component each interim payoff is the player's share.

    Shapley shares form a potential game (Hart & Mas-Colell's potential) and
    correctly rounded shares round monotonically, so a maximiser of the
    potential is a pure equilibrium at every epsilon >= 0 and `plan` never
    falls back.
    """

    def test_random_games_without_attacks_never_fall_back(self):
        rng = random.Random(20261020)
        for _ in range(400):
            model = random_system_model(rng)
            game = build_game(model, AttackModel.empty())
            assert enumerate_pure_bne(game, DEFAULT_EPSILON)
            assert enumerate_pure_bne(game, 0.0)
            assert plan(model, AttackModel.empty()).fallback is False


class TestMaximin:
    def test_matching_pennies_fallback(self):
        # both actions of every slot tie at their worst value, so each slot
        # takes its first
        result = maximin_fallback(matching_pennies())
        assert result.fallback
        assert result.profile == {"p1": {N: "H", M: "H"}, "p2": {N: "H", M: "H"}}
        assert result.interim[("p1", M)] == -1.0
        assert result.interim[("p2", M)] == -1.0

    def test_dominant_action_is_maximin(self):
        result = maximin_fallback(prisoners_dilemma())
        assert result.profile == {"p1": {N: "C", M: "D"}, "p2": {N: "C", M: "D"}}

    def test_single_player_is_argmax(self):
        game = table_game(["x"], {"x": ["a", "b", "c"]}, {("a",): (1.0,), ("b",): (3.0,), ("c",): (2.0,)})
        result = maximin_fallback(game)
        assert result.profile["x"][M] == "b"
        assert result.interim[("x", M)] == 3.0

    def test_equals_brute_force_oracle_on_random_games(self):
        rng = random.Random(97)
        for _ in range(120):
            game = random_game(rng, max_players=3, max_actions=3)
            result = maximin_fallback(game)
            assert (result.profile, result.interim, result.expected_system_utility) == oracle_maximin(game)

    def test_equals_brute_force_oracle_on_model_backed_games(self):
        rng = random.Random(98)
        for _ in range(60):
            model = random_system_model(rng, max_components=3, max_actions=3)
            model, kb, events = random_attack_inputs(rng, model)
            game = build_game(model, analyze_attacks(events, kb, model))
            result = maximin_fallback(game)
            assert (result.profile, result.interim, result.expected_system_utility) == oracle_maximin(game)

    def test_budget_enforced(self, monkeypatch):
        _assert_budget_checked_first(monkeypatch, maximin_fallback)


_LB3_ACTION = {"lb": "to_s1", "s1": "serve", "s2": "serve"}
_LB3_PROFILE = {"lb": {N: "to_s1"}, "s1": {N: "serve", M: "drop"}, "s2": {N: "serve"}}
# every entry point that reads a game, with arguments that fit lb3
_ROUTES = {
    "enumerate": enumerate_pure_bne,
    "fallback": maximin_fallback,
    "export": lambda game: export_induced_nfg(game, "t"),
    "interim": lambda game: interim_payoff(game, "lb", N, _LB3_PROFILE),
    "payoff": lambda game: payoff(game, {"lb": N, "s1": N, "s2": N}, _LB3_ACTION, "lb"),
    "prior": lambda game: prior_probability(game, {"lb": N, "s1": N, "s2": N}),
    "realized": lambda game: realized_system_utility(game, {"lb": N, "s1": N, "s2": N}, _LB3_ACTION),
}


class TestGamesNotFromBuildGame:
    """Only `build_game` makes a game: every entry point rejects any other, before its arguments."""

    @pytest.mark.parametrize("route", _ROUTES.values(), ids=_ROUTES.keys())
    @pytest.mark.parametrize("make", [
        # the one direct construction in the tests, to show it is refused
        lambda game: BayesianGame(game.players, game.type_sets, game.action_sets, game.prior_malicious,
                                  game.model, game.attack),
        dataclasses.replace,
    ], ids=["direct", "copy"])
    def test_rejected_by_every_entry_point(self, lb3_game, route, make):
        route(lb3_game)
        with pytest.raises(ValueError, match=_NOT_BUILT):
            route(make(lb3_game))

    @pytest.mark.parametrize("route", [*_ROUTES.values(), full_profile_count, induced_strategy_counts,
                                       examined_profile_count],
                             ids=[*_ROUTES, "full-count", "induced-counts", "examined-count"])
    @pytest.mark.parametrize("game", [None, {}, "lb3"], ids=["none", "dict", "str"])
    def test_anything_but_a_game_is_rejected_naming_its_type(self, route, game):
        with pytest.raises(ValueError, match=f"^expected a BayesianGame, got {type(game).__name__}$"):
            route(game)

    @pytest.mark.parametrize("routes", list(itertools.permutations(_ROUTES, 2)), ids="-then-".join)
    def test_rejected_again_by_the_next_entry_point(self, lb3_game, routes):
        # a rejection stores no compiled form, so the next entry point on
        # the same copy rejects it too
        copy = dataclasses.replace(lb3_game)
        for name in routes:
            with pytest.raises(ValueError, match=_NOT_BUILT):
                _ROUTES[name](copy)
        assert "compiled" not in vars(copy)


_NOT_BUILT = r"^a game must come from build_game; this one was built directly or copied$"


def _with_s1_prior(game: BayesianGame, prior: object) -> dict:
    return {**game.prior_malicious, "s1": prior}


class TestMalformedGames:
    """A copy of a built game whose shape or priors were changed is rejected, never solved."""

    @pytest.mark.parametrize("route", _ROUTES.values(), ids=_ROUTES.keys())
    @pytest.mark.parametrize("prior", [0.0, 1.0, 0.5])
    def test_well_formed_game_is_solved(self, lb3_model, lb3_attack, route, prior):
        game = build_game(lb3_model, dataclasses.replace(lb3_attack, probabilities={"s1": prior}))
        assert game.prior_malicious["s1"] == prior
        route(game)

    @pytest.mark.parametrize("route", _ROUTES.values(), ids=_ROUTES.keys())
    @pytest.mark.parametrize("changes", [
        lambda g: {"prior_malicious": _with_s1_prior(g, 1.5)},
        lambda g: {"prior_malicious": _with_s1_prior(g, -0.2)},
        lambda g: {"prior_malicious": _with_s1_prior(g, math.nan)},
        lambda g: {"prior_malicious": _with_s1_prior(g, "0.5")},
        lambda g: {"prior_malicious": _with_s1_prior(g, True)},
        lambda g: {"prior_malicious": {**g.prior_malicious, "lb": 0.3}},
        lambda g: {"prior_malicious": {**g.prior_malicious, "z": 0.5}},
        lambda g: {"players": ("lb", "s1", "s1", "s2")},
        lambda g: {"type_sets": {**g.type_sets, "lb": (N, N)}},
        lambda g: {"type_sets": {**g.type_sets, "lb": ("Normal",)}},
        lambda g: {"type_sets": {**g.type_sets, "lb": ()}},
        lambda g: {"type_sets": {p: ts for p, ts in g.type_sets.items() if p != "s2"}},
        lambda g: {"action_sets": {**g.action_sets, ("lb", N): ("to_s1", "to_s1")}},
        lambda g: {"action_sets": {k: v for k, v in g.action_sets.items() if k != ("s1", M)}},
        lambda g: {"action_sets": {**g.action_sets, ("s1", M): ()}},
        lambda g: {"model": None},
        lambda g: {"attack": None},
    ], ids=[
        "prior-above-1", "prior-below-0", "prior-nan", "prior-str", "prior-bool", "prior-without-malicious-type",
        "prior-of-unknown-player", "duplicate-player", "duplicate-type", "type-not-a-player-type",
        "empty-type-set", "missing-type-set", "duplicate-action", "missing-action-set", "empty-action-set",
        "no-model", "no-attack",
    ])
    def test_rejected_by_every_entry_point(self, lb3_game, route, changes):
        with pytest.raises(ValueError, match=_NOT_BUILT):
            route(dataclasses.replace(lb3_game, **changes(lb3_game)))


def _with_s1_rewards(att: AttackModel, rules: tuple, default: object) -> AttackModel:
    return dataclasses.replace(att, rewards={**att.rewards, "s1": (rules, default)})


class TestMalformedModelBackedGames:
    """A copy of a built game with other players, labels or rewards is rejected by every entry point.

    `build_game` rejects the same faulty attack, at its path, so no entry
    point ever pays a Malicious player an unchecked reward.
    """

    @pytest.mark.parametrize("route", _ROUTES.values(), ids=_ROUTES.keys())
    @pytest.mark.parametrize("changes", [
        {("s2", N): ("bogus", "serve")},
        {("s1", M): ("serve", "drop", "bogus")},
        {("lb", N): ("serve", "to_s1")},
        {("s2", N): ("drop",)},
    ], ids=["unknown-normal-label", "unknown-malicious-label", "label-of-another-component", "no-baseline"])
    def test_action_sets_rejected_by_every_entry_point(self, lb3_game, route, changes):
        with pytest.raises(ValueError, match=_NOT_BUILT):
            route(dataclasses.replace(lb3_game, action_sets={**lb3_game.action_sets, **changes}))

    @pytest.mark.parametrize("route", _ROUTES.values(), ids=_ROUTES.keys())
    def test_players_other_than_the_components_rejected(self, lb3_game, route):
        with pytest.raises(ValueError, match=_NOT_BUILT):
            route(dataclasses.replace(lb3_game, players=("s1", "lb", "s2")))

    @pytest.mark.parametrize("route", _ROUTES.values(), ids=_ROUTES.keys())
    @pytest.mark.parametrize("attack, message", [
        (lambda att: _with_s1_rewards(att, att.rewards["s1"][0], math.inf),
         r"NonFiniteReward\('s1'\): expected a numeric reward, got inf \[rewards\.s1\]"),
        (lambda att: _with_s1_rewards(att, att.rewards["s1"][0], math.nan),
         r"NonFiniteReward\('s1'\): expected a numeric reward, got nan \[rewards\.s1\]"),
        (lambda att: _with_s1_rewards(att, (RewardRule({}, -math.inf),) + att.rewards["s1"][0], 0.0),
         r"NonFiniteReward\('s1'\): expected a numeric reward, got -inf \[rewards\.s1\[0\]\]"),
        # built, an empty attack makes s1 Normal-only; only a copy pairs it
        # with a Malicious type
        (lambda att: AttackModel.empty(), None),
        (lambda att: _with_s1_rewards(att, att.rewards["s1"][0], "1"),
         r"NonFiniteReward\('s1'\): expected a numeric reward, got str \[rewards\.s1\]"),
        (lambda att: _with_s1_rewards(att, (RewardRule({}, "2"),) + att.rewards["s1"][0], 0.0),
         r"NonFiniteReward\('s1'\): expected a numeric reward, got str \[rewards\.s1\[0\]\]"),
        (lambda att: _with_s1_rewards(att, att.rewards["s1"][0], False),
         r"NonFiniteReward\('s1'\): expected a numeric reward, got a boolean \[rewards\.s1\]"),
        (lambda att: dataclasses.replace(att, rewards={**att.rewards, "s1": ()}),
         r"MalformedField\(\(\)\): expected reward rules and a default reward, got a tuple of length 0 \[rewards\.s1\]"),
        (lambda att: _with_s1_rewards(att, ("x",), 0.0),
         r"MalformedField\('x'\): expected a reward rule object, got str \[rewards\.s1\[0\]\]"),
        (lambda att: _with_s1_rewards(att, (RewardRule(None, 1.0),), 0.0),
         r"MalformedField\(None\): expected a partial joint action, got NoneType \[rewards\.s1\[0\]\.when\]"),
    ], ids=["inf-default", "nan-default", "inf-rule", "empty-attack", "string-default", "string-rule",
            "bool-default", "empty-reward-entry", "string-reward-rule", "none-when"])
    def test_bad_rewards_rejected_by_every_entry_point(self, two_vulns_path, route, attack, message):
        script = parse_scenario_file(two_vulns_path)
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        bad = attack(game.attack)
        with pytest.raises(ValueError, match=_NOT_BUILT):
            route(dataclasses.replace(game, attack=bad))
        if message is None:
            assert build_game(script.model, bad).type_sets["s1"] == (N,)
        else:
            with pytest.raises(ValueError, match="^cannot build game from invalid inputs:\n" + message + "$"):
                build_game(script.model, bad)


class TestTypesThatAreNotPlayerTypes:
    """A type given as its name, not as a PlayerType, is rejected with ValueError."""

    @pytest.mark.parametrize("route, message", [
        (lambda game: prior_probability(game, {"lb": "Normal", "s1": N, "s2": N}), "player 'lb' cannot be of type 'Normal'"),
        (lambda game: payoff(game, {"lb": N, "s1": "Malicious", "s2": N}, _LB3_ACTION, "lb"),
         "player 's1' cannot be of type 'Malicious'"),
        (lambda game: realized_system_utility(game, {"lb": N, "s1": "Malicious", "s2": N}, _LB3_ACTION),
         "player 's1' cannot be of type 'Malicious'"),
        (lambda game: interim_payoff(game, "lb", "Normal", _LB3_PROFILE), "player 'lb' cannot be of type 'Normal'"),
    ], ids=["prior", "payoff", "realized", "interim"])
    def test_rejected(self, lb3_game, route, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            route(lb3_game)


class TestEpsilon:
    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300, True, "0.1", None])
    def test_bad_epsilon_rejected(self, lb3_game, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            enumerate_pure_bne(lb3_game, epsilon)

    def test_zero_epsilon_accepted(self, lb3_game):
        assert enumerate_pure_bne(lb3_game, 0.0) == enumerate_pure_bne(lb3_game)
        assert enumerate_pure_bne(lb3_game, 0) == enumerate_pure_bne(lb3_game, 0.0)


class TestNfgExport:
    def test_prisoners_dilemma_golden_bytes(self):
        # a strategy is a (Normal, Malicious) action pair, and only the
        # Malicious action, the second, is paid
        script = parse_scenario_file(REPO_ROOT / "tests" / "golden" / "pd.scn")
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        text = export_induced_nfg(game, "pd")
        assert text == oracle_induced_nfg(game, "pd")
        assert text == (REPO_ROOT / "tests" / "golden" / "pd.nfg").read_text(encoding="utf-8")
        assert text.split("\n")[2].split()[:8] == ["3", "3", "5", "0", "3", "3", "5", "0"]

    def test_single_player_degenerate(self):
        game = table_game(["x"], {"x": ["a", "b"]}, {("a",): (1.0,), ("b",): (2.0,)})
        assert export_induced_nfg(game, "solo") == 'NFG 1 R "solo" { "x" } { 4 }\n\n1 2 1 2\n'

    def test_lb3_strategy_counts(self, lb3_game):
        assert induced_strategy_counts(lb3_game) == (2, 4, 2)
        header = export_induced_nfg(lb3_game, "lb3").splitlines()[0]
        assert header.endswith("{ 2 4 2 }")

    def test_reload_matches_exante_payoffs(self, lb3_game):
        # parse the emitted file and compare every outcome against an
        # independently computed ex-ante expectation
        text = export_induced_nfg(lb3_game, "lb3")
        counts, payoffs = _read_nfg(text)
        assert counts == [2, 4, 2]
        strategies = [
            list(itertools.product(*(lb3_game.action_sets[(p, t)] for t in lb3_game.type_sets[p])))
            for p in lb3_game.players
        ]
        idx = 0
        for rev in itertools.product(*(range(c) for c in reversed(counts))):
            combo = rev[::-1]
            profile = {
                p: dict(zip(lb3_game.type_sets[p], strategies[i][combo[i]]))
                for i, p in enumerate(lb3_game.players)
            }
            for p in lb3_game.players:
                assert payoffs[idx] == pytest.approx(_exante_payoff(lb3_game, profile, p), abs=1e-9)
                idx += 1
        assert idx == len(payoffs)

    def test_budget_enforced(self, monkeypatch):
        # the export holds a payoff per player of every profile, so its
        # budget counts payoffs: 5 players of 2 000 000 profiles are exactly
        # the budget, and one more action of the last player is over it
        _assert_budget_checked_first(monkeypatch, lambda game: export_induced_nfg(game, "big"),
                                     (10, 10, 10, 10, 200), per_profile=5)
        with pytest.raises(BudgetExceededError, match=f"^induced normal form of 10050000 payoffs exceeds budget "
                                                      f"{DEFAULT_PROFILE_BUDGET}$"):
            export_induced_nfg(_unattacked_game((10, 10, 10, 10, 201)), "big")

    def test_equals_oracle_on_random_games(self):
        for seed in range(200):
            _assert_export_equals_oracle(random_game(random.Random(seed)))

    def test_equals_oracle_on_model_backed_games(self):
        rng = random.Random(211)
        for _ in range(40):
            model = random_system_model(rng, max_components=3, max_actions=3)
            model, kb, events = random_attack_inputs(rng, model)
            kb = [dataclasses.replace(rec, compromise_probability=rng.choice((0.0, 1.0, 0.4, 0.7))) for rec in kb]
            _assert_export_equals_oracle(build_game(model, analyze_attacks(events, kb, model)))

    def test_equals_oracle_on_single_player_games(self):
        for seed in range(20):
            _assert_export_equals_oracle(random_game(random.Random(seed), min_players=1, max_players=1))

    def test_equals_oracle_on_one_action_slots(self):
        for seed in range(20):
            game = random_game(random.Random(seed), max_actions=1)
            assert set(induced_strategy_counts(game)) == {1}
            _assert_export_equals_oracle(game)

    @pytest.mark.parametrize("prior", [0.0, 1.0])
    def test_equals_oracle_when_one_type_has_no_mass(self, prior):
        # every attacked player's prior is `prior`, so one of its types has no mass
        games = [random_game(random.Random(seed), priors=(prior,)) for seed in range(30)]
        certain = [game for game in games if game.attack.attacked]
        assert len(certain) >= 20
        for game in certain:
            _assert_export_equals_oracle(game)

    def test_equals_oracle_when_slots_join_the_walk_at_different_steps(self):
        # Priors of 0, 0.3 and 1 give one game slots that join the walk at
        # its first type profile, at later ones, or never (zero mass).
        joins = []
        for seed in range(100):
            game = random_game(random.Random(seed), max_players=4, priors=(0.0, 0.3, 1.0))
            _assert_export_equals_oracle(game)
            cg = game.compiled
            first: dict[int, int] = {}
            for step, (_w, slots) in enumerate(cg.walk()):
                for k in slots:
                    first.setdefault(k, step)
            joins.append([first.get(k) for k in range(len(cg.slots)) if len(cg.slots[k][2]) > 1])
        later = [{s for s in steps if s} for steps in joins]
        assert sum(bool(at) and None in steps for at, steps in zip(later, joins)) >= 10
        assert any(len(at) >= 2 and None in steps for at, steps in zip(later, joins))

    def test_overflowing_exante_payoff_is_rejected(self):
        # Priors summing to slightly more than 1 take the ex-ante sum of
        # p0's largest reward to inf, though no reward is infinite.
        comps = tuple(Component(p, ("a",), "a") for p in ("p0", "p1", "p2"))
        model = SystemModel(comps, (QualityAttribute("q", 1.0),), (), {"q": 0.0})
        att = AttackModel(
            attacked=("p0", "p1", "p2"),
            malicious_actions=dict.fromkeys(("p0", "p1", "p2"), ("a",)),
            probabilities={"p0": 1.0, "p1": 0.02, "p2": 0.23},
            rewards={"p0": ((), sys.float_info.max), "p1": ((), 0.0), "p2": ((), 0.0)},
        )
        with pytest.raises(ValueError, match=r"^ex-ante payoff inf of player 'p0' is not a finite number$"):
            export_induced_nfg(build_game(model, att), "g")

    def test_names_with_backslashes_and_quotes_round_trip(self):
        names = ["s2\\", 'a"b', '\\"', "\\\\", "plain"]
        table = {("x",) * len(names): (0.0,) * len(names)}
        game = table_game(names, {p: ["x"] for p in names}, table)
        title = 'ti\\tle "q"'
        header = export_induced_nfg(game, title).split("\n")[0]
        assert _read_quoted(header) == [title, *names]


def _assert_export_equals_oracle(game: BayesianGame) -> None:
    assert export_induced_nfg(game, "g") == oracle_induced_nfg(game, "g")


def _read_quoted(text: str) -> list[str]:
    # The double-quoted strings of a line, where a backslash takes the next
    # character literally.
    out, i = [], text.find('"')
    while i != -1:
        chars, i = [], i + 1
        while text[i] != '"':
            if text[i] == "\\":
                i += 1
            chars.append(text[i])
            i += 1
        out.append("".join(chars))
        i = text.find('"', i + 1)
    return out


def _read_nfg(text: str):
    lines = text.split("\n")
    assert lines[1] == "" and lines[-1] == ""
    header = lines[0]
    counts = [int(tok) for tok in header[header.rindex("{") + 1 : header.rindex("}")].split()]
    payoffs = [float(tok) for tok in lines[2].split()]
    total = 1
    for c in counts:
        total *= c
    assert len(payoffs) == total * len(counts)
    return counts, payoffs
