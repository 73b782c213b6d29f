from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys

import pytest

from conftest import REPO_ROOT

from bayesadapt import (
    DEFAULT_EPSILON,
    DEFAULT_PROFILE_BUDGET,
    AttackModel,
    BudgetExceededError,
    PlayerType,
    RewardRule,
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
    make_matrix_game,
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
    random_bayes_game,
    random_system_model,
)

N = PlayerType.NORMAL
M = PlayerType.MALICIOUS


class _PayoffEvaluated(Exception):
    pass


def _unpaid_game(players: int, actions: int) -> BayesianGame:
    # Normal-only players whose payoff function raises if it is ever called.
    def payoff_fn(_types, _action, _player):
        raise _PayoffEvaluated

    names = tuple(f"p{i}" for i in range(players))
    labels = tuple(f"a{j}" for j in range(actions))
    return BayesianGame(
        players=names,
        type_sets={p: (N,) for p in names},
        action_sets={(p, N): labels for p in names},
        prior_malicious={p: 0.0 for p in names},
        payoff_fn=payoff_fn,
    )


def _assert_budget_checked_first(route) -> None:
    # 8 players x 8 actions is 16 777 216 profiles, over the budget: the
    # route must refuse before it evaluates a payoff. 7 x 10 is exactly the
    # budget, which passes the check, so the first payoff is evaluated.
    over = _unpaid_game(8, 8)
    with pytest.raises(BudgetExceededError,
                       match=f"16777216 profiles exceeds budget {DEFAULT_PROFILE_BUDGET}"):
        route(over)
    at = _unpaid_game(7, 10)
    assert full_profile_count(at) == DEFAULT_PROFILE_BUDGET == 10_000_000
    with pytest.raises(_PayoffEvaluated):
        route(at)


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
        games = [random_bayes_game(rng) for _ in range(120)]
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
        game = prisoners_dilemma()
        profile = {"p1": {N: "D"}, "p2": {N: "C"}}
        assert interim_payoff(game, "p1", N, profile) == 5.0
        assert interim_payoff(game, "p2", N, profile) == 0.0

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


    def test_budget_enforced(self):
        # the row it reads pays every outcome of each type profile, so a
        # game over the budget is refused first
        _assert_budget_checked_first(
            lambda game: interim_payoff(game, "p0", N, {p: {N: "a0"} for p in game.players}))


class TestEnumerate:
    def test_prisoners_dilemma_unique_defection(self):
        results = enumerate_pure_bne(prisoners_dilemma())
        assert len(results) == 1
        assert results[0].profile == {"p1": {N: "D"}, "p2": {N: "D"}}
        assert not results[0].fallback

    def test_single_player_argmax(self):
        game = make_matrix_game(["x"], {"x": ["a", "b", "c"]},
                                {("a",): (1.0,), ("b",): (3.0,), ("c",): (2.0,)})
        results = enumerate_pure_bne(game)
        assert [r.profile["x"][N] for r in results] == ["b"]

    def test_matching_pennies_has_no_pure_equilibrium(self):
        assert enumerate_pure_bne(matching_pennies()) == []

    def test_results_in_canonical_order(self):
        # all-zero payoffs: every profile is an equilibrium, listed lexicographically
        table = {(a, b): (0.0, 0.0) for a in "xy" for b in "uv"}
        game = make_matrix_game(["p1", "p2"], {"p1": ["x", "y"], "p2": ["u", "v"]}, table)
        results = enumerate_pure_bne(game)
        got = [(r.profile["p1"][N], r.profile["p2"][N]) for r in results]
        assert got == [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")]

    def test_budget_enforced(self):
        _assert_budget_checked_first(enumerate_pure_bne)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(73)
        for _ in range(60):
            game = random_bayes_game(rng)
            mine = {profile_key(r.profile) for r in enumerate_pure_bne(game)}
            theirs = {profile_key(p) for p in oracle_pure_bne(game, 1e-9)}
            assert mine == theirs

    def test_soundness_via_independent_recheck(self):
        # re-verify each reported equilibrium with the oracle's interim payoff
        # on a freshly built game (no shared caches, no shared evaluator)
        rng = random.Random(79)
        for _ in range(20):
            game = random_bayes_game(rng)
            for result in enumerate_pure_bne(game):
                fresh = BayesianGame(
                    players=game.players,
                    type_sets=game.type_sets,
                    action_sets=game.action_sets,
                    prior_malicious=game.prior_malicious,
                    payoff_fn=game.payoff_fn,
                )
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
        game = BayesianGame(
            players=("p1",),
            type_sets={"p1": (N, M)},
            action_sets={("p1", N): ("a", "b"), ("p1", M): ("x", "y")},
            prior_malicious={"p1": 0.0},
            payoff_fn=lambda types, action, player: 1.0 if action["p1"] == "a" else 0.0,
        )
        results = enumerate_pure_bne(game)
        assert len(results) == 1
        assert results[0].profile["p1"] == {N: "a", M: "x"}

    def test_determinism_across_runs(self):
        rng = random.Random(83)
        game = random_bayes_game(rng)
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
            game = random_bayes_game(rng, max_players=2)
            results = {profile_key(r.profile) for r in enumerate_pure_bne(game)}
            for profile in _all_profiles(game):
                stable = profile_key(profile) in results
                assert stable == _exante_stable(game, profile, 1e-9)

    def test_positive_affine_invariance(self):
        rng = random.Random(97)
        for _ in range(15):
            game = random_bayes_game(rng)
            alpha, beta = rng.uniform(0.2, 5.0), rng.uniform(-8.0, 8.0)
            target = game.players[0]
            base_fn = game.payoff_fn

            def scaled_fn(types, action, player, _f=base_fn, _t=target, _a=alpha, _b=beta):
                value = _f(types, action, player)
                return _a * value + _b if player == _t else value

            scaled = BayesianGame(
                players=game.players,
                type_sets=game.type_sets,
                action_sets=game.action_sets,
                prior_malicious=game.prior_malicious,
                payoff_fn=scaled_fn,
            )
            before = {profile_key(r.profile) for r in enumerate_pure_bne(game, 1e-9)}
            after = {profile_key(r.profile) for r in enumerate_pure_bne(scaled, alpha * 1e-9)}
            assert before == after


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


def _middle_attacked(rng: random.Random, prior: float) -> BayesianGame:
    # Three players paid 0 or 1, so many profiles pass, in an order other
    # than the canonical one; the middle one is attacked with `prior`, and
    # its Malicious type has the widest action set, five, its Normal type
    # the next, four.
    players = ("p0", "p1", "p2")
    type_sets = {"p0": (N,), "p1": (N, M), "p2": (N, M)}
    widths = {("p0", N): 3, ("p1", N): 4, ("p1", M): 5, ("p2", N): 2, ("p2", M): 1}
    action_sets = {slot: tuple(f"a{j}" for j in range(w)) for slot, w in widths.items()}
    paid = {
        (combo, acts, p): float(rng.randint(0, 1))
        for combo in itertools.product(*(type_sets[p] for p in players))
        for acts in itertools.product(*(action_sets[slot] for slot in zip(players, combo)))
        for p in players
    }

    def payoff_fn(types, action, player):
        return paid[(tuple(types[p] for p in players), tuple(action[p] for p in players), player)]

    return BayesianGame(players=players, type_sets=type_sets, action_sets=action_sets,
                        prior_malicious={"p0": 0.0, "p1": prior, "p2": 0.5}, payoff_fn=payoff_fn)


def _equally_wide(spans: list) -> BayesianGame:
    # One player per entry, Normal only with that many actions, or Normal
    # and Malicious (prior 0.5) with a pair of counts; every payoff is 0.
    players = tuple(f"p{i}" for i in range(len(spans)))
    type_sets = {p: (N,) if isinstance(w, int) else (N, M) for p, w in zip(players, spans)}
    action_sets = {}
    for p, w in zip(players, spans):
        for t, n in zip(type_sets[p], (w,) if isinstance(w, int) else w):
            action_sets[(p, t)] = tuple(f"a{j}" for j in range(n))
    return BayesianGame(players=players, type_sets=type_sets, action_sets=action_sets,
                        prior_malicious={p: 0.0 if len(type_sets[p]) == 1 else 0.5 for p in players},
                        payoff_fn=lambda _types, _action, _player: 0.0)


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

    @pytest.mark.parametrize("spans", [[2, 2, 2], [4, (2, 2), 4], [(1, 3), 3, (3, 1)]])
    def test_the_last_of_equally_wide_players_is_the_tail(self, monkeypatch, spans):
        game = _equally_wide(spans)
        assert _tail_slots(monkeypatch, game) == list(game.compiled.own[-1])
        # every profile qualifies, in canonical order
        assert len(_assert_equals_the_oracles(game, 1e-9)) == examined_profile_count(game)

    def test_the_last_of_the_widest_players_is_the_tail(self, monkeypatch):
        game = _equally_wide([(2, 2), 4, 3])
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
            game = random_bayes_game(rng, max_players=1, min_players=1, max_actions=4)
            found += len(_assert_equals_the_oracles(game, 1e-9))
        assert found >= 40

    @pytest.mark.parametrize("epsilon", [0.0, 1e9])
    def test_epsilon_extremes(self, epsilon):
        rng = random.Random(193)
        games = [random_bayes_game(rng) for _ in range(20)]
        for _ in range(6):
            model, kb, events = random_attack_inputs(rng, random_system_model(rng, max_components=3))
            games.append(build_game(model, analyze_attacks(events, kb, model)))
        for game in games:
            results = _assert_equals_the_oracles(game, epsilon)
            if epsilon == 1e9:
                # every payoff is far inside 1e9, so every profile qualifies
                assert len(results) == examined_profile_count(game)

    def test_interim_sums_that_overflow(self):
        # Three players, each attacked with prior 0.2, each paid +-max float
        # or 1.0 by its own type and action: a slot's interim sums four such
        # weighted payoffs, which round to +inf or -inf, and rows tie at
        # +inf and at -inf, where a difference of two entries is NaN.
        big = sys.float_info.max
        players = ("x", "y", "z")
        interims = []
        for seed in range(8):
            rng = random.Random(197 + seed)
            paid = {(p, t, a): rng.choice((big, -big, 1.0)) for p in players for t in (N, M) for a in "abc"}
            game = BayesianGame(
                players=players,
                type_sets={p: (N, M) for p in players},
                action_sets={(p, t): ("a", "b", "c") for p in players for t in (N, M)},
                prior_malicious={p: 0.2 for p in players},
                payoff_fn=lambda types, action, player, paid=paid: paid[(player, types[player], action[player])],
            )
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
        game = make_matrix_game(["p1", "p2"], {"p1": ["x", "y"], "p2": ["u", "v"]}, table)
        results = enumerate_pure_bne(game)
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
        result = maximin_fallback(matching_pennies())
        assert result.fallback
        assert result.profile == {"p1": {N: "H"}, "p2": {N: "H"}}
        assert result.interim[("p1", N)] == -1.0
        assert result.interim[("p2", N)] == -1.0

    def test_dominant_action_is_maximin(self):
        result = maximin_fallback(prisoners_dilemma())
        assert result.profile == {"p1": {N: "D"}, "p2": {N: "D"}}

    def test_single_player_is_argmax(self):
        game = make_matrix_game(["x"], {"x": ["a", "b", "c"]},
                                {("a",): (1.0,), ("b",): (3.0,), ("c",): (2.0,)})
        result = maximin_fallback(game)
        assert result.profile["x"][N] == "b"
        assert result.interim[("x", N)] == 3.0

    def test_equals_brute_force_oracle_on_random_games(self):
        rng = random.Random(97)
        for _ in range(120):
            game = random_bayes_game(rng, max_players=3, max_actions=3)
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

    def test_budget_enforced(self):
        _assert_budget_checked_first(maximin_fallback)


class TestNonFinitePayoffs:
    """A hand-built payoff function's NaN or infinity is rejected, never solved with."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("route", [
        enumerate_pure_bne,
        maximin_fallback,
        lambda game: export_induced_nfg(game, "g"),
        lambda game: interim_payoff(game, "p2", N, {"p1": {N: "D"}, "p2": {N: "D"}}),
    ], ids=["enumerate", "fallback", "export", "interim"])
    def test_rejected_by_every_entry_point(self, route, bad):
        table = {("C", "C"): (3, 3), ("C", "D"): (0, 5), ("D", "C"): (5, 0), ("D", "D"): (1, bad)}
        game = make_matrix_game(["p1", "p2"], {"p1": ["C", "D"], "p2": ["C", "D"]}, table)
        with pytest.raises(ValueError, match=(
            rf"player 'p2' the non-finite payoff {bad!r} at type profile "
            r"\{'p1': 'Normal', 'p2': 'Normal'\} and joint action \{'p1': 'D', 'p2': 'D'\}"
        )):
            route(game)

    @pytest.mark.parametrize("routes", list(itertools.permutations(range(4), 2)),
                             ids=lambda ks: "-then-".join(("enumerate", "fallback", "export", "interim")[k] for k in ks))
    def test_rejected_again_by_the_next_entry_point(self, routes):
        # a rejection leaves no payoff of the profile half stored, so the
        # next entry point on the same game rejects it too
        read = [
            enumerate_pure_bne,
            maximin_fallback,
            lambda game: export_induced_nfg(game, "g"),
            lambda game: interim_payoff(game, "p2", N, {"p1": {N: "C"}, "p2": {N: "D"}}),
        ]
        table = {("C", "C"): (3, 3), ("C", "D"): (0, 5), ("D", "C"): (5, 0), ("D", "D"): (1, float("nan"))}
        game = make_matrix_game(["p1", "p2"], {"p1": ["C", "D"], "p2": ["C", "D"]}, table)
        for k in routes:
            with pytest.raises(ValueError, match=r"player 'p2' the non-finite payoff nan"):
                read[k](game)


class TestEmptyActionSets:
    """A hand-built game with a (player, type) slot without actions is rejected."""

    @pytest.mark.parametrize("route", [
        enumerate_pure_bne,
        maximin_fallback,
        lambda game: export_induced_nfg(game, "t"),
        lambda game: interim_payoff(game, "x", N, {"x": {N: "a"}, "y": {N: "a", M: "a"}}),
    ], ids=["enumerate", "fallback", "export", "interim"])
    def test_rejected_by_every_entry_point(self, route):
        game = BayesianGame(
            players=("x", "y"),
            type_sets={"x": (N,), "y": (N, M)},
            action_sets={("x", N): ("a",), ("y", N): ("a",), ("y", M): ()},
            prior_malicious={"x": 0.0, "y": 0.5},
            payoff_fn=lambda types, action, player: 0.0,
        )
        with pytest.raises(ValueError, match=r"^player 'y' of type Malicious has no actions$"):
            route(game)


def _xy_game(**changes) -> BayesianGame:
    # x is Normal with actions a and b; y is Normal or Malicious with one action
    fields = dict(
        players=("x", "y"),
        type_sets={"x": (N,), "y": (N, M)},
        action_sets={("x", N): ("a", "b"), ("y", N): ("c",), ("y", M): ("c",)},
        prior_malicious={"x": 0.0, "y": 0.5},
        payoff_fn=lambda types, action, player: 1.0 if action["x"] == "a" else 2.0,
    )
    return BayesianGame(**{**fields, **changes})


_XY_ROUTES = {
    "enumerate": enumerate_pure_bne,
    "fallback": maximin_fallback,
    "export": lambda game: export_induced_nfg(game, "t"),
    "interim": lambda game: interim_payoff(game, "x", N, {"x": {N: "a"}, "y": {N: "c", M: "c"}}),
    "payoff": lambda game: payoff(game, {"x": N, "y": N}, {"x": "a", "y": "c"}, "x"),
    "prior": lambda game: prior_probability(game, {"x": N, "y": N}),
    "realized": lambda game: realized_system_utility(game, {"x": N, "y": N}, {"x": "a", "y": "c"}),
}


class TestMalformedGames:
    """A hand-built game whose shape or priors make no sense is rejected, never solved."""

    @pytest.mark.parametrize("route", _XY_ROUTES.values(), ids=_XY_ROUTES.keys())
    @pytest.mark.parametrize("prior", [0.0, 1.0, 0.5])
    def test_well_formed_game_is_solved(self, route, prior):
        route(_xy_game(prior_malicious={"y": prior}))

    @pytest.mark.parametrize("route", _XY_ROUTES.values(), ids=_XY_ROUTES.keys())
    @pytest.mark.parametrize("changes, message", [
        ({"prior_malicious": {"y": 1.5}}, r"player 'y' has the malicious prior 1\.5: expected a probability, got 1\.5"),
        ({"prior_malicious": {"y": -0.2}},
         r"player 'y' has the malicious prior -0\.2: expected a probability, got -0\.2"),
        ({"prior_malicious": {"y": math.nan}}, r"player 'y' has the malicious prior nan: expected a probability, got nan"),
        ({"prior_malicious": {"y": "0.5"}}, r"player 'y' has the malicious prior '0\.5': expected a probability, got str"),
        ({"prior_malicious": {"y": True}},
         r"player 'y' has the malicious prior True: expected a probability, got a boolean"),
        ({"prior_malicious": {"x": 0.3, "y": 0.5}}, r"player 'x' has the malicious prior 0\.3 but no Malicious type"),
        ({"prior_malicious": {"y": 0.5, "z": 0.5}}, r"prior_malicious names 'z', which is not a player"),
        ({"players": ("x", "x")}, r"player 'x' is listed twice"),
        ({"type_sets": {"x": (N, N), "y": (N, M)}}, r"player 'x' has the type Normal twice"),
        ({"type_sets": {"x": ("Normal",), "y": (N, M)}}, r"player 'x' has the type 'Normal', which is not a PlayerType"),
        ({"type_sets": {"x": (), "y": (N, M)}}, r"player 'x' has no types"),
        ({"type_sets": {"x": (N,)}}, r"player 'y' has no type set"),
        ({"action_sets": {("x", N): ("a", "a"), ("y", N): ("c",), ("y", M): ("c",)}},
         r"player 'x' of type Normal lists an action twice"),
        ({"action_sets": {("x", N): ("a", "b"), ("y", N): ("c",)}}, r"player 'y' of type Malicious has no action set"),
        ({"payoff_fn": None}, r"game carries neither a payoff function nor a payoff context"),
    ], ids=[
        "prior-above-1", "prior-below-0", "prior-nan", "prior-str", "prior-bool", "prior-without-malicious-type",
        "prior-of-unknown-player", "duplicate-player", "duplicate-type", "type-not-a-player-type",
        "empty-type-set", "missing-type-set", "duplicate-action", "missing-action-set", "no-payoff",
    ])
    def test_rejected_by_every_entry_point(self, route, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            route(_xy_game(**changes))


_LB3_ACTION = {"lb": "to_s1", "s1": "serve", "s2": "serve"}
_LB3_PROFILE = {"lb": {N: "to_s1"}, "s1": {N: "serve", M: "drop"}, "s2": {N: "serve"}}
_LB3_ROUTES = {
    **{name: _XY_ROUTES[name] for name in ("enumerate", "fallback", "export")},
    "interim": lambda game: interim_payoff(game, "lb", N, _LB3_PROFILE),
    "payoff": lambda game: payoff(game, {"lb": N, "s1": N, "s2": N}, _LB3_ACTION, "lb"),
    "prior": lambda game: prior_probability(game, {"lb": N, "s1": N, "s2": N}),
    "realized": lambda game: realized_system_utility(game, {"lb": N, "s1": N, "s2": N}, _LB3_ACTION),
}


def _with_s1_rewards(att: AttackModel, rules: tuple, default: float) -> AttackModel:
    return dataclasses.replace(att, rewards={**att.rewards, "s1": (rules, default)})


class TestMalformedModelBackedGames:
    """A hand-built game on a model plays only the model's components and labels, with every baseline.

    A game paid by its attack pays every Malicious player a finite reward.
    """

    @pytest.mark.parametrize("route", _LB3_ROUTES.values(), ids=_LB3_ROUTES.keys())
    @pytest.mark.parametrize("changes, message", [
        ({("s2", N): ("bogus", "serve")}, r"player 's2' of type Normal has the action 'bogus', which the model does not know"),
        ({("s1", M): ("serve", "drop", "bogus")},
         r"player 's1' of type Malicious has the action 'bogus', which the model does not know"),
        ({("lb", N): ("serve", "to_s1")}, r"player 'lb' of type Normal has the action 'serve', which the model does not know"),
        ({("s2", N): ("drop",)}, r"player 's2' of type Normal lacks its baseline 'serve'"),
    ], ids=["unknown-normal-label", "unknown-malicious-label", "label-of-another-component", "no-baseline"])
    def test_action_sets_rejected_by_every_entry_point(self, lb3_game, route, changes, message):
        game = dataclasses.replace(lb3_game, action_sets={**lb3_game.action_sets, **changes})
        with pytest.raises(ValueError, match=f"^{message}$"):
            route(game)

    @pytest.mark.parametrize("route", _LB3_ROUTES.values(), ids=_LB3_ROUTES.keys())
    def test_players_other_than_the_components_rejected(self, lb3_game, route):
        game = dataclasses.replace(lb3_game, players=("s1", "lb", "s2"))
        with pytest.raises(ValueError, match=(
            r"^players \('s1', 'lb', 's2'\) are not the model's components \('lb', 's1', 's2'\)$"
        )):
            route(game)

    @pytest.mark.parametrize("route", _LB3_ROUTES.values(), ids=_LB3_ROUTES.keys())
    @pytest.mark.parametrize("attack, message", [
        (lambda att: _with_s1_rewards(att, att.rewards["s1"][0], math.inf),
         r"player 's1' has the attacker reward inf: expected a numeric reward, got inf"),
        (lambda att: _with_s1_rewards(att, att.rewards["s1"][0], math.nan),
         r"player 's1' has the attacker reward nan: expected a numeric reward, got nan"),
        (lambda att: _with_s1_rewards(att, (RewardRule({}, -math.inf),) + att.rewards["s1"][0], 0.0),
         r"player 's1' has the attacker reward -inf: expected a numeric reward, got -inf"),
        (lambda att: AttackModel.empty(), r"player 's1' has a Malicious type but no attacker reward"),
        (lambda att: _with_s1_rewards(att, att.rewards["s1"][0], "1"),
         r"player 's1' has the attacker reward '1': expected a numeric reward, got str"),
        (lambda att: _with_s1_rewards(att, (RewardRule({}, "2"),) + att.rewards["s1"][0], 0.0),
         r"player 's1' has the attacker reward '2': expected a numeric reward, got str"),
        (lambda att: _with_s1_rewards(att, att.rewards["s1"][0], False),
         r"player 's1' has the attacker reward False: expected a numeric reward, got a boolean"),
        # unchecked, an entry that is no pair raised a bare ValueError where it
        # was unpacked, and a rule that is no RewardRule a bare AttributeError
        (lambda att: dataclasses.replace(att, rewards={**att.rewards, "s1": ()}),
         r"attack\.rewards\.s1: expected reward rules and a default reward, got a tuple of length 0"),
        (lambda att: _with_s1_rewards(att, ("x",), 0.0),
         r"attack\.rewards\.s1\[0\]: expected a reward rule object, got str"),
        (lambda att: _with_s1_rewards(att, (RewardRule(None, 1.0),), 0.0),
         r"attack\.rewards\.s1\[0\]\.when: expected a partial joint action, got NoneType"),
    ], ids=["inf-default", "nan-default", "inf-rule", "empty-attack", "string-default", "string-rule",
            "bool-default", "empty-reward-entry", "string-reward-rule", "none-when"])
    def test_bad_rewards_rejected_by_every_entry_point(self, two_vulns_path, route, attack, message):
        script = parse_scenario_file(two_vulns_path)
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        game = dataclasses.replace(game, attack=attack(game.attack))
        with pytest.raises(ValueError, match=f"^{message}$"):
            route(game)

    def test_a_malicious_set_may_lack_the_baseline(self, lb3_game):
        game = dataclasses.replace(lb3_game, action_sets={**lb3_game.action_sets, ("s1", M): ("drop",)})
        assert {r.profile["s1"][M] for r in enumerate_pure_bne(game)} == {"drop"}


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
        text = export_induced_nfg(prisoners_dilemma(), "pd")
        assert text == 'NFG 1 R "pd" { "p1" "p2" } { 2 2 }\n\n3 3 5 0 0 5 1 1\n'

    def test_single_player_degenerate(self):
        game = make_matrix_game(["x"], {"x": ["a", "b"]}, {("a",): (1.0,), ("b",): (2.0,)})
        assert export_induced_nfg(game, "solo") == 'NFG 1 R "solo" { "x" } { 2 }\n\n1 2\n'

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

    def test_budget_enforced(self):
        _assert_budget_checked_first(lambda game: export_induced_nfg(game, "big"))

    def test_equals_oracle_on_random_games(self):
        for seed in range(200):
            _assert_export_equals_oracle(random_bayes_game(random.Random(seed)))

    def test_equals_oracle_on_model_backed_games(self):
        rng = random.Random(211)
        for _ in range(40):
            model = random_system_model(rng, max_components=3, max_actions=3)
            model, kb, events = random_attack_inputs(rng, model)
            kb = [dataclasses.replace(rec, compromise_probability=rng.choice((0.0, 1.0, 0.4, 0.7))) for rec in kb]
            _assert_export_equals_oracle(build_game(model, analyze_attacks(events, kb, model)))

    def test_equals_oracle_on_single_player_games(self):
        for seed in range(20):
            _assert_export_equals_oracle(random_bayes_game(random.Random(seed), min_players=1, max_players=1))

    def test_equals_oracle_on_one_action_slots(self):
        for seed in range(20):
            game = random_bayes_game(random.Random(seed), max_actions=1)
            assert set(induced_strategy_counts(game)) == {1}
            _assert_export_equals_oracle(game)

    def test_game_without_type_mass_prints_zeros(self):
        # x's only type has prior mass 0.0, so no type profile is walked
        game = BayesianGame(
            players=("x", "y"),
            type_sets={"x": (M,), "y": (N,)},
            action_sets={("x", M): ("a", "b"), ("y", N): ("c",)},
            prior_malicious={"x": 0.0, "y": 0.0},
            payoff_fn=lambda _types, _action, _player: 1.0,
        )
        expected = 'NFG 1 R "g" { "x" "y" } { 2 1 }\n\n0 0 0 0\n'
        assert export_induced_nfg(game, "g") == expected == oracle_induced_nfg(game, "g")

    @pytest.mark.parametrize("prior", [0.0, 1.0])
    def test_equals_oracle_when_one_type_has_no_mass(self, prior):
        # random_bayes_game draws Malicious priors in 0.1-0.9 only
        games = [random_bayes_game(random.Random(seed)) for seed in range(30)]
        certain = [
            dataclasses.replace(game, prior_malicious={**game.prior_malicious, p: prior})
            for game in games for p in game.players if len(game.type_sets[p]) == 2
        ]
        assert len(certain) >= 20
        for game in certain:
            _assert_export_equals_oracle(game)

    def test_names_with_backslashes_and_quotes_round_trip(self):
        names = ["s2\\", 'a"b', '\\"', "\\\\", "plain"]
        table = {("x",) * len(names): (0.0,) * len(names)}
        game = make_matrix_game(names, {p: ["x"] for p in names}, table)
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
