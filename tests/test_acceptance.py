"""Acceptance suite.

Each test prints one pass/fail line (visible with `pytest -s` or on
failure) and enforces the stated tolerance or runtime bound.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

import pytest

import conftest
from bayesadapt import (
    PlayerType,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    export_induced_nfg,
    induced_strategy_counts,
    interim_payoff,
    maximin_fallback,
    parse_scenario_file,
    plan,
    prior_probability,
    run_scenario,
    shapley_values,
    trace_to_lines,
)
from oracles import (
    oracle_permutation_allocation,
    oracle_permutation_shapley,
    oracle_pure_bne,
    profile_key,
    random_attack_inputs,
    random_context,
    random_game,
    random_system_model,
)
from test_shapley import _powerset, glove, random_characteristic

N = PlayerType.NORMAL
M = PlayerType.MALICIOUS
PD = conftest.REPO_ROOT / "tests" / "golden" / "pd.scn"


def _scenario_game(path):
    script = parse_scenario_file(path)
    return build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}] {status}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_1_shapley_axiom_suite():
    rng = random.Random(20260808)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        players = [f"p{i}" for i in range(rng.randint(1, 6))]
        v = random_characteristic(rng, players)
        phi = shapley_values(players, v)

        # efficiency
        gap = abs(sum(phi.values()) - (v(frozenset(players)) - v(frozenset())))
        worst = max(worst, gap)
        assert gap <= 1e-9

        # dummy: a player the function ignores is worth exactly zero
        extended = players + ["dummy"]
        phi_dummy = shapley_values(extended, lambda s: v(frozenset(s) - {"dummy"}))
        assert phi_dummy["dummy"] == 0.0

        # symmetry: exchangeable players earn the same
        if len(players) >= 2:
            i, j = rng.sample(players, 2)
            rest = [p for p in players if p not in (i, j)]
            table = {
                (frozenset(sub), k): rng.uniform(-10, 10)
                for sub in _powerset(rest)
                for k in range(3)
            }
            sym = lambda s: table[(frozenset(s) - {i, j}, len(frozenset(s) & {i, j}))]
            phi_sym = shapley_values(players, sym)
            assert abs(phi_sym[i] - phi_sym[j]) <= 1e-9

        # additivity
        w = random_characteristic(rng, players)
        phi_w = shapley_values(players, w)
        phi_sum = shapley_values(players, lambda s: v(s) + w(s))
        for p in players:
            assert abs(phi_sum[p] - (phi[p] + phi_w[p])) <= 1e-9

    elapsed = time.perf_counter() - started
    _report(
        1,
        "Shapley axiom suite on 1000 random characteristic functions",
        elapsed < 10.0,
        f"worst efficiency gap {worst:.2e}, {elapsed:.1f}s < 10s",
    )


def test_2_oracle_equivalence():
    from bayesadapt import shapley_allocation

    rng = random.Random(31337)
    worst = 0.0
    for _ in range(200):
        model = random_system_model(rng)
        ctx = random_context(rng, model, max_participants=5)
        formula = shapley_allocation(ctx)
        oracle = oracle_permutation_allocation(ctx)
        for p in formula:
            worst = max(worst, abs(formula[p] - oracle[p]))
    assert worst <= 1e-12

    expected = {"L": 2 / 3, "R1": 1 / 6, "R2": 1 / 6}
    for route in (shapley_values, oracle_permutation_shapley):
        got = route(["L", "R1", "R2"], glove)
        for pid, want in expected.items():
            assert abs(got[pid] - want) <= 1e-12

    _report(2, "formula vs permutation oracle on 200 random contexts + glove game",
            True, f"max |delta| {worst:.2e} <= 1e-12")


def test_3_solver_completeness_and_soundness():
    rng = random.Random(424242)
    started = time.perf_counter()
    total_equilibria = 0
    for _ in range(500):
        game = random_game(rng, max_players=3, max_actions=3)
        mine = [profile_key(r.profile) for r in enumerate_pure_bne(game, 1e-9)]
        theirs = [profile_key(p) for p in oracle_pure_bne(game, 1e-9)]
        assert mine == theirs  # same set and same canonical order
        total_equilibria += len(mine)
    elapsed = time.perf_counter() - started
    _report(
        3,
        "enumeration equals brute-force oracle on 500 random Bayesian games",
        elapsed < 60.0,
        f"{total_equilibria} equilibria compared, {elapsed:.1f}s < 60s",
    )


def test_4_known_game_sanity(pennies_path):
    # both prisoners are attacked with probability 1, so only their
    # Malicious types play; in pennies only p1 is, and p2 plays Normal
    pd_results = enumerate_pure_bne(_scenario_game(PD))
    assert len(pd_results) == 1
    assert pd_results[0].profile == {"p1": {N: "C", M: "D"}, "p2": {N: "C", M: "D"}}

    pennies = _scenario_game(pennies_path)
    assert enumerate_pure_bne(pennies) == []
    fallback = maximin_fallback(pennies)
    assert fallback.fallback
    assert fallback.profile == {"p1": {N: "heads", M: "heads"}, "p2": {N: "heads"}}
    assert fallback.interim[("p1", M)] == 0.0

    _report(4, "prisoner's dilemma unique (D,D); matching pennies empty + maximin", True)


def test_5_translation_structure():
    rng = random.Random(5150)
    checked = 0
    for _ in range(100):
        model = random_system_model(rng)
        model, kb, events = random_attack_inputs(rng, model)
        att = analyze_attacks(events, kb, model)
        game = build_game(model, att)

        assert len(game.players) == len(model.components)
        assert game.players == model.component_ids
        for p in game.players:
            attacked = p in att.attacked
            assert (len(game.type_sets[p]) == 2) == attacked
            expected_prior = att.probabilities[p] if attacked else 0.0
            assert game.prior_malicious[p] == expected_prior
            if attacked:
                normal = game.action_sets[(p, N)]
                mal = game.action_sets[(p, M)]
                assert mal[: len(normal)] == normal
                assert mal[len(normal):] == tuple(
                    a for a in att.malicious_actions[p] if a not in normal
                )
                assert len(set(mal)) == len(mal)

        total = 0.0
        for combo in itertools.product(*(game.type_sets[p] for p in game.players)):
            total += prior_probability(game, dict(zip(game.players, combo)))
        assert abs(total - 1.0) <= 1e-12
        checked += 1

    _report(5, "translation structure on 100 random (model, attack) pairs",
            checked == 100, f"{checked} pairs")


def test_6_threshold_switching(lb3_script, lb3_attack):
    model = lb3_script.model
    choices = []
    for k in range(21):
        p = k * 0.05
        att = dataclasses.replace(lb3_attack, probabilities={"s1": p})
        decision = plan(model, att)
        assert not decision.fallback
        choices.append(decision.strategy["lb"][N])

    switches = [i for i, (a, b) in enumerate(zip(choices, choices[1:])) if a != b]
    assert choices[0] == "to_s1"
    assert choices[-1] == "to_s2"
    assert len(switches) == 1
    assert all(c == "to_s1" for c in choices[: switches[0] + 1])
    assert all(c == "to_s2" for c in choices[switches[0] + 1 :])

    game = build_game(model, lb3_attack)  # p = 0.6
    base = {"s1": {N: "serve", M: "drop"}, "s2": {N: "serve"}}
    move = interim_payoff(game, "lb", N, {"lb": {N: "to_s2"}, **base})
    stay = interim_payoff(game, "lb", N, {"lb": {N: "to_s1"}, **base})
    assert move == pytest.approx(4.0, abs=1e-9)
    assert stay == pytest.approx(0.0, abs=1e-9)

    low, high = switches[0] * 0.05, (switches[0] + 1) * 0.05
    _report(6, "single monotone route switch over the compromise sweep",
            True, f"switch in ({low:.2f}, {high:.2f}]; interim 4.0 vs 0.0 at p=0.6")


def test_7_nfg_golden_file(lb3_game):
    text = export_induced_nfg(_scenario_game(PD), "pd")
    assert text == (conftest.REPO_ROOT / "tests" / "golden" / "pd.nfg").read_text(encoding="utf-8")
    assert text.startswith('NFG 1 R "pd" { "p1" "p2" } { 4 4 }\n\n3 3 5 0 3 3 5 0 0 5 1 1 0 5 1 1 ')
    assert induced_strategy_counts(lb3_game) == (2, 4, 2)
    _report(7, "PD export byte-equals reference; lb3 induced counts {2, 4, 2}", True)


def test_8_end_to_end_determinism(lb3_script):
    first = run_scenario(lb3_script)
    second = run_scenario(lb3_script)
    assert trace_to_lines(first) == trace_to_lines(second)

    replans = [r.time for r in first.records if r.replanned]
    assert replans == [0, 2]
    assert [r.realized_action["lb"] for r in first.records] == [
        "to_s1", "to_s1", "to_s2", "to_s2",
    ]
    _report(8, "lb3 simulation bit-identical; 2 plan invocations; switch at t=2", True)


@pytest.mark.suite_timer
def test_9_full_suite_runtime():
    elapsed = time.perf_counter() - conftest.SESSION_T0
    _report(9, "full test suite wall clock", elapsed < 120.0, f"{elapsed:.1f}s < 120s")
