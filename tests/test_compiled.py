"""The compiled utility core: exact agreement with the naive oracles, and its work.

`SystemModel.compiled` is the only rule-table evaluator in the package. It
must give the same floats as a plain first-match scan of the rule table,
the bitmask Shapley route must give the same floats as the frozenset subset
formula, and while planning each distinct joint action is evaluated once.
Participants at their baseline are null players: no key of theirs is looked
up, and the shares stay bit-identical; a model whose utilities could be
infinite is rejected when it is compiled, before any is shared out.
`BayesianGame.compiled` is the only place that computes a game's payoffs,
for the solvers and the public `payoff` alike. It pays each fiber of a game
(one player's payoffs over its own actions, the others fixed) once,
whichever entry points ask for it, the solvers only the fibers their rows
read and the export the rest, pays Malicious players exactly as the reward
oracle does, and computes each interim payoff of a slot's action against
the other players' actions once. Each game folds its own Normal players'
Shapley shares, so two games on one model (a replan, the export after a
plan) pay the same floats, bit for bit.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import operator
import random
import struct
import weakref

import pytest

import bayesadapt.game as game_module
import bayesadapt.loop as loop_module
from bayesadapt import (
    AttackEvent,
    AttackModel,
    CharacteristicContext,
    Component,
    QualityAttribute,
    RewardRule,
    SystemModel,
    UtilityRule,
    VulnerabilityRecord,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    export_induced_nfg,
    interim_payoff,
    maximin_fallback,
    parse_scenario_file,
    payoff,
    plan,
    prior_probability,
    run_scenario,
    shapley_allocation,
    shapley_values,
    system_utility,
    validate_attack_model,
    validate_model,
)
from bayesadapt.attacks import knowledge_base_actions
from bayesadapt.game import PlayerType
from bayesadapt.model import CompiledModel
from conftest import REPO_ROOT, SCENARIO_DIR, SOLVABLE_SCRIPTS, memo_fibers, memo_outcomes
from oracles import (
    oracle_allocation,
    oracle_context_value,
    oracle_reward,
    oracle_subset_shapley,
    oracle_utility,
    random_attack_inputs,
    random_bayes_game,
    random_system_model,
)


def random_attack_model(rng: random.Random) -> SystemModel:
    """A random model with attack-context labels and overlapping rules.

    Extra rules are cut from sampled joint actions over all admissible
    labels, so several rules often match one joint action, some need an
    attack label, and an empty `when` matches everything.
    """
    model = random_system_model(rng)
    attack = {
        c.id: tuple(f"x{j}" for j in range(rng.randint(1, 2)))
        for c in model.components
        if rng.random() < 0.5
    }
    labels = {c.id: c.actions + attack.get(c.id, ()) for c in model.components}
    rules = list(model.utility_rules)
    for _ in range(rng.randint(2, 6)):
        sample = {cid: rng.choice(ls) for cid, ls in labels.items()}
        named = rng.sample(sorted(sample), rng.randint(0, len(sample)))
        attrs = rng.sample(model.quality_attributes, rng.randint(1, len(model.quality_attributes)))
        rules.append(UtilityRule({cid: sample[cid] for cid in named},
                                 {q.name: rng.uniform(-10.0, 10.0) for q in attrs}))
    rng.shuffle(rules)
    return dataclasses.replace(model, utility_rules=tuple(rules), attack_actions=attack)


def all_joint_actions(model: SystemModel):
    ids = model.component_ids
    for labels in itertools.product(*(model.allowed_actions(cid) for cid in ids)):
        yield dict(zip(ids, labels))


def chain(n: int, k: int):
    """Chain of n two-action components; the first k are attacked with p=0.5.

    Each attack adds one malicious label, so a game has 2^(n-k) * 3^k
    distinct joint actions.
    """
    comps = tuple(Component(f"c{i}", ("a0", "a1"), "a0") for i in range(n))
    rules = []
    for i in range(n - 1):
        rules.append(UtilityRule({f"c{i}": "a1", f"c{i + 1}": "a1"}, {"perf": 3.0 + i}))
        rules.append(UtilityRule({f"c{i}": "a1"}, {"perf": 1.0, "sec": -0.5 * i}))
    kb = tuple(
        VulnerabilityRecord(f"v{i}", f"c{i}", 0.5, (f"x{i}",),
                            (RewardRule({f"c{i}": f"x{i}", f"c{i + 1}": "a1"}, 4.0),), 0.5)
        for i in range(k)
    )
    rules.extend(UtilityRule({rec.component: rec.malicious_actions[0]}, {"sec": -6.0}) for rec in kb)
    model = SystemModel(
        comps,
        (QualityAttribute("perf", 1.0), QualityAttribute("sec", 2.0)),
        tuple(rules),
        {"perf": 0.0, "sec": 1.0},
        knowledge_base_actions(kb),
    )
    events = [AttackEvent(0, rec.component, rec.vuln_id) for rec in kb]
    return model, analyze_attacks(events, kb, model)


class TestUtilityDifferential:
    def test_equals_rule_table_scan_on_random_models(self):
        rng = random.Random(131)
        checked = 0
        for _ in range(60):
            model = random_attack_model(rng)
            for action in all_joint_actions(model):
                want = oracle_utility(model, action)
                assert system_utility(model, action) == want
                assert system_utility(model, action) == want  # a memo hit
                checked += 1
        assert checked > 1000

    def test_rule_naming_an_undeclared_label_never_matches(self, lb3_model):
        # A hand-built model is checked when it is compiled, so such a rule
        # never reaches a decision list: the model is rejected at its path.
        ghost = UtilityRule({"s1": "ghost"}, {"perf": 99.0})
        model = dataclasses.replace(lb3_model, utility_rules=(ghost,) + lb3_model.utility_rules)
        action = {"lb": "to_s1", "s1": "serve", "s2": "serve"}
        with pytest.raises(ValueError, match=r"^UnknownAction\('ghost'\): .* \[utility_rules\[0\]\.when\.s1\]$"):
            system_utility(model, action)

    def test_compiled_once_per_model(self, lb3_model):
        model = dataclasses.replace(lb3_model)
        assert model.compiled is model.compiled
        assert dataclasses.replace(model).compiled is not model.compiled


class TestShapleyBits:
    def test_allocation_equals_frozenset_formula_exactly(self):
        rng = random.Random(137)
        for _ in range(150):
            model = random_attack_model(rng)
            labels = {c.id: c.actions + model.attack_actions.get(c.id, ()) for c in model.components}
            ids = list(model.component_ids)
            participants = tuple(cid for cid in ids if rng.random() < 0.7) or (ids[0],)
            fixed = {cid: rng.choice(labels[cid]) for cid in ids
                     if cid not in participants and rng.random() < 0.6}
            action = {cid: rng.choice(labels[cid]) for cid in participants}
            ctx = CharacteristicContext(model, action, participants, fixed)
            assert shapley_allocation(ctx) == oracle_allocation(ctx)

    def test_values_equal_frozenset_formula_exactly(self):
        rng = random.Random(139)
        for _ in range(100):
            ids = [f"p{j}" for j in range(rng.randint(1, 8))]
            table: dict = {}

            def value(s, _t=table, _r=rng):
                return _t.setdefault(s, _r.uniform(-10.0, 10.0))

            got = shapley_values(ids, value)
            assert got == oracle_subset_shapley(ids, value)
            assert list(got) == ids


def baseline_heavy_context(rng: random.Random, model: SystemModel) -> CharacteristicContext:
    """A random context in which most participants play their baseline."""
    labels = {c.id: c.actions + model.attack_actions.get(c.id, ()) for c in model.components}
    ids = list(model.component_ids)
    participants = tuple(cid for cid in ids if rng.random() < 0.8) or (ids[0],)
    fixed = {cid: rng.choice(labels[cid]) for cid in ids
             if cid not in participants and rng.random() < 0.6}
    action = {cid: model.component(cid).baseline if rng.random() < 0.6 else rng.choice(labels[cid])
              for cid in participants}
    return CharacteristicContext(model, action, participants, fixed)


def huge_score(rng: random.Random) -> float:
    """A score near the float limit, which overflows times a weight of 1e10 half the time."""
    return rng.choice((1e296, -1e296) if rng.random() < 0.5 else (1e308, -1e308, math.inf, -math.inf))


def bits(values: dict) -> dict:
    """Each float as its IEEE bytes, so NaNs compare too."""
    return {k: struct.pack("<d", v) for k, v in values.items()}


class TestNullParticipants:
    def test_allocation_equals_frozenset_formula_exactly(self):
        rng = random.Random(151)
        nulls = 0
        for _ in range(200):
            model = random_attack_model(rng)
            ctx = baseline_heavy_context(rng, model)
            nulls += sum(ctx.action[p] == model.component(p).baseline for p in ctx.participants)
            assert shapley_allocation(ctx) == oracle_allocation(ctx)
        assert nulls > 200

    def test_looks_up_only_the_keys_of_the_active_participants(self, monkeypatch):
        calls: list = []
        utility = CompiledModel.utility

        def counting(compiled, key):
            calls.append(key)
            return utility(compiled, key)

        monkeypatch.setattr(CompiledModel, "utility", counting)
        rng = random.Random(157)
        for _ in range(150):
            model = random_attack_model(rng)
            ctx = baseline_heavy_context(rng, model)
            active = sum(ctx.action[p] != model.component(p).baseline for p in ctx.participants)
            calls.clear()
            shapley_allocation(ctx)
            assert len(calls) == len(set(calls)) == 2**active

    def test_games_look_up_only_the_keys_of_the_active_players(self, monkeypatch):
        # A game's fiber writer reads each utility of a type profile at most
        # once, by position, for all the coalitions of its fibers; the keyed
        # route reads the 2^active keys of every allocation, so the writer
        # reads fewer.
        lookups: list = []
        pay_fiber = game_module.CompiledGame._pay_fiber
        utility = CompiledModel.utility
        read: dict = {}  # per (game, type profile), the keys the writer looked up

        def counting(compiled, key):
            lookups.append(key)
            return utility(compiled, key)

        def recording(cg, slots, i, pos, akey):
            lookups.clear()
            got = pay_fiber(cg, slots, i, pos, akey)
            read.setdefault((id(cg), slots), []).extend(lookups)
            return got

        monkeypatch.setattr(CompiledModel, "utility", counting)
        monkeypatch.setattr(game_module.CompiledGame, "_pay_fiber", recording)
        # both players attacked: one type profile has no Normal player
        kb = tuple(VulnerabilityRecord(f"v{i}", f"c{i}", 0.5, (f"x{i}",), (), 1.0) for i in range(2))
        model = dataclasses.replace(chain(2, 1)[0], attack_actions=knowledge_base_actions(kb))
        game = build_game(model, analyze_attacks([AttackEvent(0, rec.component, rec.vuln_id) for rec in kb], kb, model))
        enumerate_pure_bne(game)
        without_normal = [keys for (_id, slots), keys in read.items() if not any(game.compiled.normal[k] for k in slots)]
        assert without_normal == [[]]
        read.clear()
        model, att = chain(6, 2)
        game = build_game(model, att)
        enumerate_pure_bne(game)
        cg = game.compiled
        for (_id, slots), keys in read.items():
            assert len(keys) == len(set(keys)) <= math.prod(len(cg.slots[k][2]) for k in slots)
        looked_up = sum(map(len, read.values()))
        # what the keyed route reads, 2^active keys per outcome a Normal
        # fiber shares out, and the coalitions of every such outcome
        compiled = model.compiled
        outcomes = set()
        for slots, i, akey in memo_fibers(cg):
            if cg.normal[slots[i]]:
                normal = tuple(map(cg.normal.__getitem__, slots))
                key = [cg.codes[k][a] for k, a in zip(slots, akey)]
                for c in cg.codes[slots[i]]:
                    key[i] = c
                    outcomes.add((normal, tuple(key)))
        keyed = coalitions = 0
        for normal, key in outcomes:
            keyed += 2 ** sum(key[j] != compiled.baseline[j] for j, is_normal in enumerate(normal) if is_normal)
            coalitions += 2 ** sum(normal)
        assert 0 < looked_up < keyed < coalitions / 2

    def test_infinite_utilities_are_rejected(self):
        # A hand-built model is checked when it is compiled: one whose
        # utilities could overflow is rejected before any is valued, and
        # one that passes values every coalition finitely and exactly, even
        # with utilities near the float limit.
        rng = random.Random(163)
        rejected = 0
        for _ in range(150):
            model = random_system_model(rng, max_components=6)
            attrs = [q.name for q in model.quality_attributes]
            huge = tuple(
                UtilityRule({c.id: rng.choice(c.actions)},
                            {rng.choice(attrs): huge_score(rng)})
                for c in rng.sample(model.components, 2)
            )
            weights = tuple(dataclasses.replace(q, weight=q.weight * 1e10)
                            for q in model.quality_attributes)
            model = dataclasses.replace(model, quality_attributes=weights,
                                        utility_rules=huge + model.utility_rules)
            ctx = baseline_heavy_context(rng, model)
            if validate_model(model):
                with pytest.raises(ValueError, match=r"^UtilityOverflow\(.*\[quality_attributes\[\d\]\.weight\]$"):
                    shapley_allocation(ctx)
                rejected += 1
                continue
            value = oracle_context_value(ctx)
            coalitions = itertools.chain.from_iterable(
                itertools.combinations(ctx.participants, r) for r in range(len(ctx.participants) + 1))
            assert all(math.isfinite(value(s)) for s in coalitions)
            assert bits(shapley_allocation(ctx)) == bits(oracle_allocation(ctx))
        assert 20 < rejected < 150


def mangled_rewards(rng: random.Random, model: SystemModel, att):
    """`att` with more reward rules, some naming unknown components or labels.

    Each added rule is cut from a sampled joint action, so many match; about
    half of them also name a `ghost` component or label and can never match.
    """
    labels = {c.id: model.allowed_actions(c.id) for c in model.components}
    rewards = {}
    for cid, (rules, default) in att.rewards.items():
        rules = list(rules)
        for _ in range(rng.randint(1, 4)):
            sample = {c: rng.choice(ls) for c, ls in labels.items()}
            when = {c: sample[c] for c in rng.sample(sorted(sample), rng.randint(0, 2))}
            if rng.random() < 0.5:
                target = rng.choice(sorted(labels))
                if rng.random() < 0.5:
                    when["ghost"] = sample[target]
                else:
                    when[target] = "ghost"
            rules.insert(rng.randint(0, len(rules)), RewardRule(when, rng.uniform(-5.0, 5.0)))
        rewards[cid] = (tuple(rules), default)
    return dataclasses.replace(att, rewards=rewards)


class TestMaliciousRewards:
    def test_every_malicious_payoff_equals_the_reward_oracle(self):
        rng = random.Random(167)
        checked = 0
        for _ in range(80):
            model = random_system_model(rng, max_components=4)
            model, kb, events = random_attack_inputs(rng, model)
            att = analyze_attacks(events, kb, model)
            game = build_game(model, att)
            # replaced after build_game, which rejects unknown names
            game = dataclasses.replace(game, attack=mangled_rewards(rng, game.model, att))
            maximin_fallback(game)
            cg = game.compiled
            for (slots, i, akey), payoffs in memo_fibers(cg).items():
                if cg.slots[slots[i]][1] is PlayerType.MALICIOUS:
                    action = {cg.players[cg.slots[k][0]]: cg.slots[k][2][a] for k, a in zip(slots, akey)}
                    player = cg.players[i]
                    for label, x in zip(cg.slots[slots[i]][2], payoffs):
                        assert x == oracle_reward(game.attack, player, {**action, player: label})
                        checked += 1
        assert checked > 1000


class TestPlanningWork:
    """Count rule-table evaluations (memo misses), not time."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        keys: list = []
        evaluate = CompiledModel._evaluate

        def counting(compiled, key):
            keys.append((id(compiled), key))
            return evaluate(compiled, key)

        monkeypatch.setattr(CompiledModel, "_evaluate", counting)
        return keys

    def test_lb3_evaluates_each_joint_action_once(self, lb3_path, evaluated):
        # A fresh parse: the memo lives as long as the model, so the session
        # script may have evaluated these joint actions already.
        script = parse_scenario_file(lb3_path)
        plan(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        # lb, s1 and s2 each play one of two labels ("drop" is declared for s1)
        assert len(evaluated) == len(set(evaluated)) == 8

    def test_run_compiles_the_script_model_once(self, two_vulns_path, evaluated, monkeypatch):
        built = []
        init = CompiledModel.__init__

        def recording(compiled, model):
            built.append(model)
            init(compiled, model)

        monkeypatch.setattr(CompiledModel, "__init__", recording)
        script = parse_scenario_file(two_vulns_path)
        assert len(run_scenario(script).records) == 6
        assert len(built) == 1 and built[0] is script.model
        # every replan and tick shares one memo: lb and s2 play one of two
        # labels each, s1 one of serve, drop and stall
        assert len(evaluated) == len(set(evaluated)) == 12

    def test_games_play_on_the_given_model(self, lb3_model, lb3_attack):
        assert build_game(lb3_model, lb3_attack).model is lb3_model
        undeclared = AttackModel(("s2",), {"s2": ("tamper",)}, {"s2": 0.3}, {"s2": ((), 0.0)})
        (v,) = validate_attack_model(undeclared, lb3_model)
        assert (v.code, v.subject, v.path) == ("UnknownAction", "tamper", "malicious_actions.s2[0]")
        with pytest.raises(ValueError, match=r"UnknownAction\('tamper'\).*\[malicious_actions\.s2\[0\]\]"):
            build_game(lb3_model, undeclared)

    def test_chain_evaluates_each_joint_action_once(self, evaluated):
        model, att = chain(6, 2)
        decision = plan(model, att)
        assert not decision.fallback
        assert len(evaluated) == len(set(evaluated)) == 2**4 * 3**2

    def test_fallback_reuses_the_enumeration_allocations(self, pennies_path, outcomes):
        script = parse_scenario_file(pennies_path)
        decision = plan(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        assert decision.fallback
        assert outcomes and len(outcomes) == len(set(outcomes))


@pytest.fixture
def outcomes(monkeypatch):
    """Records every payment a model-backed compiled game makes.

    A lone read pays its one outcome (`_pay`), recorded as ("outcome", game,
    type profile, position); the writer pays one fiber per call
    (`_pay_fiber`), recorded as ("fiber", game, type profile, player,
    position of its first action).
    """
    paid: list = []
    pay = game_module.CompiledGame._pay
    pay_fiber = game_module.CompiledGame._pay_fiber

    def lone(cg, slots, akey):
        widths = [len(cg.slots[k][2]) for k in slots]
        strides = [math.prod(widths[:j]) for j in range(len(widths))]
        paid.append(("outcome", id(cg), slots, sum(map(operator.mul, akey, strides))))
        return pay(cg, slots, akey)

    def fiber(cg, slots, i, pos, akey):
        assert pos == sum(map(operator.mul, akey, cg.outcomes[slots][0]))
        paid.append(("fiber", id(cg), slots, i, pos))
        return pay_fiber(cg, slots, i, pos, akey)

    monkeypatch.setattr(game_module.CompiledGame, "_pay", lone)
    monkeypatch.setattr(game_module.CompiledGame, "_pay_fiber", fiber)
    return paid


def _every_solver_entry_point(game):
    results = enumerate_pure_bne(game)
    fallback = maximin_fallback(game)
    nfg = export_induced_nfg(game, "g")
    profile = (results[0] if results else fallback).profile
    interim = [interim_payoff(game, p, t, profile) for p in game.players for t in game.type_sets[p]]
    return results, fallback, nfg, interim


class TestCompiledGame:
    @pytest.mark.parametrize("scenario", ["lb3_path", "pennies_path"])
    def test_solver_entry_points_share_one_outcome_memo(self, scenario, request, outcomes):
        script = parse_scenario_file(request.getfixturevalue(scenario))
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        _every_solver_entry_point(game)
        assert outcomes and len(outcomes) == len(set(outcomes))
        assert len(outcomes) == len(memo_fibers(game.compiled))

    def test_hand_built_game_pays_each_outcome_once(self):
        game = random_bayes_game(random.Random(149), max_players=3)
        calls = []

        def counting(types, action, player, _f=game.payoff_fn):
            calls.append((tuple(types.items()), tuple(action.items()), player))
            return _f(types, action, player)

        counted = dataclasses.replace(game, payoff_fn=counting)
        assert _every_solver_entry_point(counted) == _every_solver_entry_point(game)
        assert calls and len(calls) == len(set(calls))

    @pytest.mark.parametrize("path", [
        SCENARIO_DIR / "lb3.scn", SCENARIO_DIR / "pennies.scn", REPO_ROOT / "tests" / "golden" / "random-n4-m4-k1.scn",
    ], ids=lambda path: path.stem)
    def test_export_reads_each_outcome_once(self, path, monkeypatch, outcomes):
        script = parse_scenario_file(path)
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        reads = []
        read = game_module.CompiledGame.paid

        def counting(cg, slots):
            got = read(cg, slots)
            assert all(None not in column for column in got[1])
            reads.append((slots, len(got[1][0])))
            return got

        monkeypatch.setattr(game_module.CompiledGame, "paid", counting)
        export_induced_nfg(game, "g")
        # one read of each type profile of positive prior, which pays each
        # fiber of each player once, and so holds each joint action
        expected = fibers = 0
        for combo in itertools.product(*(game.type_sets[p] for p in game.players)):
            types = dict(zip(game.players, combo))
            if prior_probability(game, types) > 0.0:
                size = math.prod(len(game.action_sets[(p, types[p])]) for p in game.players)
                expected += size
                fibers += sum(size // len(game.action_sets[(p, types[p])]) for p in game.players)
        assert len(reads) == len({slots for slots, _n in reads})
        assert sum(n for _slots, n in reads) == expected == len(memo_outcomes(game.compiled))
        assert len(outcomes) == len(set(outcomes)) == fibers == len(memo_fibers(game.compiled))

    def test_freed_without_the_cyclic_collector(self, lb3_path):
        # The model outlives the game, and its utility memo, filled by this
        # game, holds only tuples of ints and floats, so nothing in it leads
        # back to the game.
        script = parse_scenario_file(lb3_path)
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        _every_solver_entry_point(game)
        compiled = weakref.ref(game.compiled)
        utilities = script.model.compiled.utilities
        assert utilities and all(
            type(key) is tuple and all(type(a) is int for a in key) and type(x) is float
            for key, x in utilities.items()
        )
        gc.disable()
        try:
            del game
            assert compiled() is None
        finally:
            gc.enable()
        assert script.model.compiled.utilities is utilities

    def test_compiled_once_per_game(self, lb3_model, lb3_attack):
        game = build_game(lb3_model, lb3_attack)
        assert game.compiled is game.compiled
        assert build_game(lb3_model, lb3_attack).compiled is not game.compiled


class TestGamesOnOneModel:
    """Each game folds its own shares; games on one model pay the same floats."""

    @pytest.mark.parametrize("path", [
        SCENARIO_DIR / "lb3.scn",
        REPO_ROOT / "tests" / "golden" / "lb3-two-vulns.scn",
        REPO_ROOT / "tests" / "golden" / "mimicry-n3-m4-k2.scn",
        REPO_ROOT / "tests" / "golden" / "random-n4-m4-k1.scn",
        REPO_ROOT / "tests" / "golden" / "chain-n8-k1.scn",
    ], ids=lambda path: path.stem)
    def test_export_after_plan_equals_a_fresh_export(self, path):
        # the export's game reads the utilities the plan memoized on the
        # model, and prints the bytes of an export on a fresh parse
        script = parse_scenario_file(path)
        att = analyze_attacks(script.timeline, script.kb, script.model)
        plan(script.model, att)
        assert script.model.compiled.utilities
        text = export_induced_nfg(build_game(script.model, att), "g")
        fresh = parse_scenario_file(path)
        assert text == export_induced_nfg(build_game(fresh.model, analyze_attacks(fresh.timeline, fresh.kb, fresh.model)), "g")

    def test_second_game_pays_the_first_games_floats(self, lb3_path):
        script = parse_scenario_file(lb3_path)
        att = analyze_attacks(script.timeline, script.kb, script.model)
        game = build_game(script.model, att)
        solved = _every_solver_entry_point(game)
        again = build_game(script.model, att)
        assert repr(_every_solver_entry_point(again)) == repr(solved)
        assert memo_fibers(again.compiled) == memo_fibers(game.compiled)
        assert memo_outcomes(again.compiled) == memo_outcomes(game.compiled)


def _golden_game(name: str):
    """A game on a fresh parse of a golden document, so its model's utility memo is empty."""
    script = parse_scenario_file(REPO_ROOT / "tests" / "golden" / f"{name}.scn")
    return build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))


def _fibers_read(cg) -> set:
    # (type profile, player, joint action with the player at its first
    # action) of every fiber a memoized row of `cg` reads
    read = set()
    for k, rows in enumerate(cg.rows):
        i = cg.slots[k][0]
        lo, hi = cg.spans[k]
        for rivals in rows:
            choice = rivals[:lo] + (0,) * (hi - lo) + rivals[lo:]
            for _w, slots in cg.walk(k):
                read.add((slots, i, tuple(0 if j == i else choice[s] for j, s in enumerate(slots))))
    return read


class TestFibers:
    """The solver pays only the fibers its rows read; the export pays the rest."""

    @pytest.fixture
    def folds(self, monkeypatch):
        # the shares of every Normal fiber the writer pays
        calls: list = []
        pay_fiber = game_module.CompiledGame._pay_fiber

        def recording(cg, slots, i, pos, akey):
            got = pay_fiber(cg, slots, i, pos, akey)
            if cg.normal[slots[i]]:
                calls.append(tuple(got))
            return got

        monkeypatch.setattr(game_module.CompiledGame, "_pay_fiber", recording)
        return calls

    @pytest.mark.parametrize("name", ["chain-n8-k1", "star-n8-k1"])
    def test_enumeration_folds_only_the_fibers_its_rows_read(self, name, folds):
        game = _golden_game(name)
        enumerate_pure_bne(game)
        cg = game.compiled
        read = _fibers_read(cg)
        assert set(memo_fibers(cg)) == read
        assert len(folds) == len({(slots, i, akey) for slots, i, akey in read if cg.normal[slots[i]]})
        # the shares a profile-wide pass would fold: one per outcome and Normal player
        pairs = sum(len(columns[0]) * sum(map(cg.normal.__getitem__, slots))
                    for slots, (_strides, columns) in cg.outcomes.items())
        assert len(folds) < sum(map(len, folds)) < pairs / 2

    @pytest.mark.parametrize("name", ["chain-n8-k1", "star-n8-k1"])
    def test_export_completes_every_column(self, name, folds):
        game = _golden_game(name)
        enumerate_pure_bne(game)
        solved = len(folds)
        text = export_induced_nfg(game, "g")
        cg = game.compiled
        assert len(folds) > solved
        assert {slots for _p, slots in cg.walk()} == cg.outcomes.keys()
        assert all(None not in column for _strides, columns in cg.outcomes.values() for column in columns)
        assert text == export_induced_nfg(_golden_game(name), "g")


def _equivalence_inputs(seed: int):
    """(name, model, attack model) of every scenario and golden file, then of 100 random games.

    A random game's compromise probabilities are sometimes 0 or 1, so some
    of its type profiles weigh nothing.
    """
    for path in SOLVABLE_SCRIPTS:
        script = parse_scenario_file(path)
        yield path.stem, script.model, analyze_attacks(script.timeline, script.kb, script.model)
    rng = random.Random(seed)
    for i in range(100):
        model, kb, events = random_attack_inputs(rng, random_system_model(rng, max_components=4))
        kb = [dataclasses.replace(rec, compromise_probability=rng.choice((0.0, 1.0, 0.3, 0.7))) for rec in kb]
        yield f"random-{i}", model, analyze_attacks(events, kb, model)


def _decoded(cg, slots, pos) -> tuple[dict, dict]:
    # the type profile and joint action of position `pos` of `slots`
    types, action = {}, {}
    for k in slots:
        i, t, acts, _m = cg.slots[k]
        types[cg.players[i]] = t
        action[cg.players[i]] = acts[pos % len(acts)]
        pos //= len(acts)
    return types, action


class TestRouteEquivalence:
    """The fiber writer pays what lone reads pay, bit for bit, and the two mix freely."""

    def test_every_outcome_of_a_pass_equals_the_lone_payoffs_of_a_fresh_game(self):
        checked = 0
        for name, model, att in _equivalence_inputs(173):
            cg = build_game(model, att).compiled
            # a copy of the model compiles anew, so its utility memo is empty
            lone = build_game(dataclasses.replace(model), att)
            for slots in itertools.product(*cg.own):
                _strides, columns = cg.paid(slots)
                for pos, got in enumerate(zip(*columns)):
                    types, action = _decoded(cg, slots, pos)
                    want = tuple(payoff(lone, types, action, p) for p in cg.players)
                    assert repr(got) == repr(want), (name, types, action)
                    checked += 1
        assert checked > 10_000

    def test_lone_reads_first_then_every_solver_entry_point(self, outcomes):
        # outcomes read one at a time are paid alone and stored nowhere;
        # the solvers that follow pay each fiber once, their outputs are
        # those of a fresh game, byte for byte, and a read after them
        # returns the very float of the writer
        rng = random.Random(179)
        again = 0
        for name, model, att in _equivalence_inputs(181):
            outcomes.clear()  # a freed game's id may come back
            game = build_game(model, att)
            cg = game.compiled
            reads = []
            for slots in itertools.product(*cg.own):
                size = math.prod(len(cg.slots[k][2]) for k in slots)
                for pos in rng.sample(range(size), rng.randint(0, size)):
                    types, action = _decoded(cg, slots, pos)
                    player = rng.choice(cg.players)
                    reads.append((slots, pos, types, action, player, payoff(game, types, action, player)))
            assert len(outcomes) == len(reads), name
            assert cg.outcomes == {}, name
            outcomes.clear()
            solved = _every_solver_entry_point(game)
            fresh = build_game(dataclasses.replace(model), att)
            assert repr(solved) == repr(_every_solver_entry_point(fresh)), name
            assert len(outcomes) == len(set(outcomes)), name
            memo = memo_outcomes(cg)
            for slots, pos, types, action, player, got in reads:
                widths = [len(cg.slots[k][2]) for k in slots]
                held = memo.get((slots, tuple(pos // math.prod(widths[:j]) % w for j, w in enumerate(widths))))
                if held is not None:
                    held = held[cg.players.index(player)]
                    assert payoff(game, types, action, player) is held
                    assert repr(held) == repr(got), name
                    again += 1
        assert again > 1000


@pytest.fixture
def interims(monkeypatch):
    """Records every interim payoff a compiled game computes, as (game, slot, action, rival actions)."""
    computed: list = []
    compute = game_module.CompiledGame.interims

    def recording(cg, k, choice):
        rivals = tuple(c for s, c in enumerate(choice) if cg.slots[s][0] != cg.slots[k][0])
        row = compute(cg, k, choice)
        computed.extend((id(cg), k, a, rivals) for a in range(len(row)))
        return row

    monkeypatch.setattr(game_module.CompiledGame, "interims", recording)
    return computed


def _every_interim_reader(game):
    results = enumerate_pure_bne(game) + enumerate_pure_bne(game, 0.5)
    fallback = maximin_fallback(game)
    for profile in [r.profile for r in results] + [fallback.profile]:
        for p in game.players:
            for t in game.type_sets[p]:
                interim_payoff(game, p, t, profile)


def _row_entries(game) -> int:
    return sum(len(row) for rows in game.compiled.rows for row in rows.values())


class TestInterimRows:
    @pytest.mark.parametrize("scenario", ["lb3_path", "pennies_path"])
    def test_model_backed_game_computes_each_interim_once(self, scenario, request, interims):
        script = parse_scenario_file(request.getfixturevalue(scenario))
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        _every_interim_reader(game)
        assert interims and len(interims) == len(set(interims)) == _row_entries(game)

    def test_hand_built_game_computes_each_interim_once(self, interims):
        game = random_bayes_game(random.Random(149), max_players=3)
        _every_interim_reader(game)
        assert interims and len(interims) == len(set(interims)) == _row_entries(game)

    def test_fallback_inside_plan_computes_no_interim_again(self, pennies_path, interims, monkeypatch):
        script = parse_scenario_file(pennies_path)
        before_fallback: list = []
        fallback = loop_module.maximin_fallback

        def marking(game, **kwargs):
            before_fallback.append(len(interims))
            return fallback(game, **kwargs)

        monkeypatch.setattr(loop_module, "maximin_fallback", marking)
        decision = plan(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        assert decision.fallback and before_fallback[0] > 0
        assert len(interims) == len(set(interims))
