"""Metamorphic relations of the translation: how outputs must move when an input is transformed.

An oracle checks a value against a second computation of it; a relation
checks instead how the outputs of two runs relate, so it needs no second
implementation and catches a bug an oracle shares with the code (Chen et
al., "Metamorphic Testing: A Review of Challenges and Opportunities", ACM
CSUR 2018). Each relation runs on seeded `perfbench/gen.py` documents and
on every solvable scenario and golden `.scn` file, and holds bit for bit.
`test_solver.py::TestEnumerate::test_positive_affine_invariance`,
on attacker rewards, is one more such relation.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from bayesadapt import (
    AttackModel,
    PlayerType,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    maximin_fallback,
    parse_scenario,
    parse_scenario_file,
    plan,
)
from conftest import SOLVABLE_SCRIPTS, bench_gen

N = PlayerType.NORMAL


def _documents(seeds: range):
    """(name, model, attack model) of four generated documents per seed, then of every solvable script."""
    gen = bench_gen()
    for seed in seeds:
        k = 1 + seed % 2
        for name, make in (
            ("chain-n5", lambda rng: gen.solve_document(rng, "chain", 5, 2, k, per_edge=2)),
            ("star-n5", lambda rng: gen.solve_document(rng, "star", 5, 2, k, per_edge=2)),
            ("random-n3", lambda rng: gen.solve_document(rng, "random", 3, 4, k, per_edge=2)),
            ("mimicry-n3", lambda rng: gen.mimicry_document(rng, 3, 3, k, per_edge=2)),
        ):
            script = parse_scenario(make(random.Random(seed)))
            yield f"{name}-k{k}-seed{seed}", script.model, analyze_attacks(script.timeline, script.kb, script.model)
    for path in SOLVABLE_SCRIPTS:
        script = parse_scenario_file(path)
        yield path.stem, script.model, analyze_attacks(script.timeline, script.kb, script.model)


def _scaled(interim: dict, scale: float) -> dict:
    # each interim's hex, a Normal slot's times `scale`
    return {key: (scale * x if key[1] is N else x).hex() for key, x in interim.items()}


def _normal_hex(interim: dict) -> dict:
    return {key: x.hex() for key, x in interim.items() if key[1] is N}


def _normal(profile: dict) -> dict:
    return {player: strategy[N] for player, strategy in profile.items()}


@pytest.mark.parametrize("epsilon", [0.0, 1e-9])
def test_doubling_every_weight_doubles_every_normal_payoff(epsilon):
    # Utilities, Shapley shares and interims are sums, differences and
    # products of the weighted scores, and scaling by 2 commutes with every
    # rounding unless a value overflows or becomes subnormal. The documents'
    # scores and weights lie within [-10, 10], far from either, so doubling
    # every quality-attribute weight (and epsilon, which is compared with
    # differences of interims) doubles every Normal interim and expected
    # system utility bit for bit, leaves every Malicious interim and
    # worst-case value as it was, and selects the same equilibria and
    # fallback profile.
    documents = equilibria = 0
    for name, model, att in _documents(range(6)):
        doubled = dataclasses.replace(model, quality_attributes=tuple(
            dataclasses.replace(qa, weight=2.0 * qa.weight) for qa in model.quality_attributes))
        game, twice = build_game(model, att), build_game(doubled, att)
        results = enumerate_pure_bne(game, epsilon)
        for got, want in zip(enumerate_pure_bne(twice, 2.0 * epsilon), results, strict=True):
            equilibria += 1
            assert got.profile == want.profile, name
            assert got.expected_system_utility.hex() == (2.0 * want.expected_system_utility).hex(), name
            assert _scaled(got.interim, 1.0) == _scaled(want.interim, 2.0), name
        got, want = maximin_fallback(twice), maximin_fallback(game)
        assert got.profile == want.profile, name
        assert _scaled(got.interim, 1.0) == _scaled(want.interim, 2.0), name
        documents += 1
    assert documents > 30 and equilibria > 30


def test_a_zero_prior_attack_solves_as_no_attack():
    # With every compromise probability 0.0, every Malicious slot has no
    # mass: the type profiles of positive weight are the all-Normal one
    # alone, weighing 1.0, as with no attack. So the equilibria, in
    # canonical order, have the Normal-slot actions, Normal interims and
    # expected system utility of the game with no attack, bit for bit, and
    # so does the plan.
    documents = equilibria = 0
    for name, model, att in _documents(range(22)):
        zero = dataclasses.replace(att, probabilities=dict.fromkeys(att.probabilities, 0.0))
        results = enumerate_pure_bne(build_game(model, zero))
        for got, want in zip(results, enumerate_pure_bne(build_game(model, AttackModel.empty())), strict=True):
            equilibria += 1
            assert _normal(got.profile) == _normal(want.profile), name
            assert _normal_hex(got.interim) == _normal_hex(want.interim), name
            assert got.expected_system_utility.hex() == want.expected_system_utility.hex(), name
        got, want = plan(model, zero), plan(model, AttackModel.empty())
        assert _normal(got.strategy) == _normal(want.strategy), name
        assert got.expected_system_utility.hex() == want.expected_system_utility.hex(), name
        documents += 1
    assert documents > 90 and equilibria > 90
