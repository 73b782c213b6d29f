from __future__ import annotations

import itertools
import random

import pytest

from bayesadapt import (
    DEFAULT_PROFILE_BUDGET,
    BudgetExceededError,
    PlayerType,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    export_induced_nfg,
    full_profile_count,
    induced_strategy_counts,
    interim_payoff,
    maximin_fallback,
    prior_probability,
    payoff,
    select_equilibrium,
)
from bayesadapt.game import BayesianGame
from oracles import (
    make_matrix_game,
    matching_pennies,
    oracle_interim,
    oracle_maximin,
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
        rho = prior_probability(game, types)
        if rho == 0.0:
            continue
        action = {p: profile[p][types[p]] for p in game.players}
        total += rho * payoff(game, types, action, player)
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
            kb, events = random_attack_inputs(rng, model)
            game = build_game(model, analyze_attacks(events, kb, model))
            result = maximin_fallback(game)
            assert (result.profile, result.interim, result.expected_system_utility) == oracle_maximin(game)

    def test_budget_enforced(self):
        _assert_budget_checked_first(maximin_fallback)


class TestEpsilon:
    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300])
    def test_bad_epsilon_rejected(self, lb3_game, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            enumerate_pure_bne(lb3_game, epsilon)

    def test_zero_epsilon_accepted(self, lb3_game):
        assert enumerate_pure_bne(lb3_game, 0.0) == enumerate_pure_bne(lb3_game)


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

    def test_names_with_backslashes_and_quotes_round_trip(self):
        names = ["s2\\", 'a"b', '\\"', "\\\\", "plain"]
        table = {("x",) * len(names): (0.0,) * len(names)}
        game = make_matrix_game(names, {p: ["x"] for p in names}, table)
        title = 'ti\\tle "q"'
        header = export_induced_nfg(game, title).split("\n")[0]
        assert _read_quoted(header) == [title, *names]


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
