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

import copy
import dataclasses
import json
import random

import pytest

from bayesadapt import (
    AttackModel,
    PlayerType,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    export_induced_nfg,
    maximin_fallback,
    parse_scenario,
    plan,
)
from bayesadapt.cli import format_report
from conftest import SOLVABLE_SCRIPTS, bench_gen

N = PlayerType.NORMAL


def _texts(seeds: range):
    """(name, document text) of four generated documents per seed, then of every solvable script."""
    gen = bench_gen()
    for seed in seeds:
        k = 1 + seed % 2
        for name, make in (
            ("chain-n5", lambda rng: gen.solve_document(rng, "chain", 5, 2, k, per_edge=2)),
            ("star-n5", lambda rng: gen.solve_document(rng, "star", 5, 2, k, per_edge=2)),
            ("random-n3", lambda rng: gen.solve_document(rng, "random", 3, 4, k, per_edge=2)),
            ("mimicry-n3", lambda rng: gen.mimicry_document(rng, 3, 3, k, per_edge=2)),
        ):
            yield f"{name}-k{k}-seed{seed}", make(random.Random(seed))
    for path in SOLVABLE_SCRIPTS:
        yield path.stem, path.read_text(encoding="utf-8")


def _documents(seeds: range):
    """(name, model, attack model) of each document of `_texts`."""
    for name, text in _texts(seeds):
        script = parse_scenario(text)
        yield name, script.model, analyze_attacks(script.timeline, script.kb, script.model)


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


def _shadowed(doc: dict) -> tuple[dict, int, int]:
    """`doc` with a rule shadowed by each attribute's first scoring rule and
    each record's first reward rule, and how many of each it got.

    The shadow goes right after its rule. Its conditions are the rule's,
    plus the first action of the first component the rule does not name,
    so it matches only where that rule matched first. It scores that
    attribute alone, or rewards, 0, which is within every utility bound.
    """
    doc = copy.deepcopy(doc)
    first_actions = {c["id"]: c["actions"][0] for c in doc["components"]}

    def superset(when: dict) -> dict:
        extra = next((cid for cid in first_actions if cid not in when), None)
        return dict(when) if extra is None else {**when, extra: first_actions[extra]}

    rules = doc["utility_rules"]
    utility = reward = 0
    for name in [qa["name"] for qa in doc["quality_attributes"]]:
        i = next((i for i, rule in enumerate(rules) if name in rule["scores"]), None)
        if i is not None:
            rules.insert(i + 1, {"when": superset(rules[i]["when"]), "scores": {name: 0}})
            utility += 1
    for rec in doc["knowledge_base"]["vulnerabilities"].values():
        if rec.get("reward_rules"):
            rec["reward_rules"].insert(1, {"when": superset(rec["reward_rules"][0]["when"]), "reward": 0})
            reward += 1
    return doc, utility, reward


def _solve_and_export(text: str) -> list[str]:
    # What `solve --all --fallback` and `export-nfg` print of a document:
    # every equilibrium's report, the fallback's, and the export's bytes.
    script = parse_scenario(text)
    game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
    reports = [format_report(result) for result in enumerate_pure_bne(game)]
    return reports + [format_report(maximin_fallback(game)), export_induced_nfg(game, "doc")]


def test_shadowed_rules_change_no_solve_or_export():
    # A rule whose conditions include those of an earlier rule of the same
    # attribute, or an earlier reward rule of the same attacked component,
    # is never a first match, so no utility, share, reward or payoff moves:
    # the equilibria, the fallback and the export are the same bytes.
    documents = utility = reward = 0
    for name, text in _texts(range(6)):
        doc, u, r = _shadowed(json.loads(text))
        assert _solve_and_export(json.dumps(doc)) == _solve_and_export(text), name
        documents, utility, reward = documents + 1, utility + u, reward + r
    assert documents > 30 and utility > 30 and reward > 30
