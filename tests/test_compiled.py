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
the other players' actions once. Normal columns belong to the model and
Malicious columns to the game, so two games on one model (a replan, the
export after a plan) fold each Normal fiber once between them and pay the
floats of a game on a fresh model, bit for bit.
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
import bayesadapt.shapley as shapley_module
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
    parse_scenario,
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
from conftest import REPO_ROOT, SCENARIO_DIR, SOLVABLE_SCRIPTS, bench_gen, memo_fibers, memo_outcomes
from oracles import (
    oracle_allocation,
    oracle_context_value,
    oracle_reward,
    oracle_subset_shapley,
    oracle_utility,
    random_attack_inputs,
    random_game,
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
        # A game's writers read each utility of a type profile at most once,
        # by position, for all the coalitions of its fibers; the keyed route
        # reads the 2^active keys of every allocation, so the writers read
        # fewer.
        lookups: list = []
        utility = CompiledModel.utility
        read: dict = {}  # per (game, type profile), the keys the writers looked up

        def counting(compiled, key):
            lookups.append(key)
            return utility(compiled, key)

        def recording(write):
            # the column writer calls the fiber writer: each lookup is
            # counted once, by the innermost writer that made it
            def wrapped(cg, slots, *args):
                mark = len(lookups)
                got = write(cg, slots, *args)
                read.setdefault((id(cg), slots), []).extend(lookups[mark:])
                del lookups[mark:]
                return got
            return wrapped

        monkeypatch.setattr(CompiledModel, "utility", counting)
        for name in ("_pay_fiber", "_pay_column"):
            monkeypatch.setattr(game_module.CompiledGame, name, recording(getattr(game_module.CompiledGame, name)))
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


def overlapping_rewards(rng: random.Random, model: SystemModel, att):
    """`att` with more reward rules, inserted at random places.

    Each added rule is cut from a sampled joint action, so many match, and
    one joint action often matches several rules.
    """
    labels = {c.id: model.allowed_actions(c.id) for c in model.components}
    rewards = {}
    for cid, (rules, default) in att.rewards.items():
        rules = list(rules)
        for _ in range(rng.randint(1, 4)):
            sample = {c: rng.choice(ls) for c, ls in labels.items()}
            when = {c: sample[c] for c in rng.sample(sorted(sample), rng.randint(0, 2))}
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
            game = build_game(model, overlapping_rewards(rng, model, analyze_attacks(events, kb, model)))
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


def profile_key(cg, slots) -> tuple:
    """The key of type profile `slots` of `cg` in its model's `profiles`: each slot's label codes and Normal flag."""
    return tuple((cg.codes[k], cg.normal[k]) for k in slots)


def record_fibers(monkeypatch, record) -> None:
    """Calls `record(cg, slots, player, position, fiber)` for every fiber a game pays.

    A Malicious column is paid whole when its game opens its profile
    (`columns`), and each of its fibers is recorded then, once. A Normal
    column belongs to the model: it is all None the first time a game on
    the model opens the profile, and a later game's opening finds the very
    same list, with whatever fibers the games before paid. The fiber writer
    (`_pay_fiber`) pays one Normal fiber per call, also when the column
    writer (`_pay_column`) calls it, and each such fiber is recorded once,
    by the fiber writer; the column writer writes no fiber itself. The
    position is that of the fiber's first action, and `fiber` its payoffs
    by action. A column write must leave every entry paid before it as it
    was, the same object, and the column paid whole.
    """
    open_profile = game_module.CompiledGame.columns
    pay_fiber = game_module.CompiledGame._pay_fiber
    pay_column = game_module.CompiledGame._pay_column
    written: set = set()  # the positions the fiber writer paid during the current column write

    def fibers(cg, slots, i, column):
        # the first position of each fiber of player i's column, and the fiber
        width, step = len(cg.slots[slots[i]][2]), cg.outcomes[slots][0][i]
        for pos in range(len(column)):
            if pos // step % width == 0:
                yield pos, column[pos : pos + width * step : step]

    def opening(cg, slots):
        opened = slots in cg.outcomes
        before = cg.model.profiles.get(profile_key(cg, slots))
        got = open_profile(cg, slots)
        if not opened:
            for i, column in enumerate(got[1]):
                if cg.normal[slots[i]]:
                    if before is None:
                        assert column == [None] * len(column)
                    else:
                        assert column is before[3][i]
                    continue
                assert before is None or before[3][i] is None
                for pos, fiber in fibers(cg, slots, i, column):
                    assert None not in fiber
                    record(cg, slots, i, pos, tuple(fiber))
        return got

    def fiber(cg, slots, i, pos):
        strides, columns = cg.outcomes[slots]
        assert cg.normal[slots[i]]
        assert 0 <= pos < len(columns[i]) and pos // strides[i] % len(cg.slots[slots[i]][2]) == 0
        got = pay_fiber(cg, slots, i, pos)
        written.add(pos)
        record(cg, slots, i, pos, tuple(got))
        return got

    def column(cg, slots, i):
        strides, columns = cg.outcomes[slots]
        before = list(columns[i])
        written.clear()
        pay_column(cg, slots, i)
        after = columns[i]
        assert all(was is None or was is now for was, now in zip(before, after, strict=True))
        assert None not in after
        assert written == {pos for pos, was in fibers(cg, slots, i, before) if was[0] is None}

    monkeypatch.setattr(game_module.CompiledGame, "columns", opening)
    monkeypatch.setattr(game_module.CompiledGame, "_pay_fiber", fiber)
    monkeypatch.setattr(game_module.CompiledGame, "_pay_column", column)


@pytest.fixture
def outcomes(monkeypatch):
    """Records every payment a model-backed compiled game makes.

    A lone read pays one player's payoff of one outcome (`lone`), recorded
    as ("lone", game, type profile, position, player); each fiber paid when
    its profile opens or by the fiber writer is recorded as ("fiber", game,
    type profile, player, position of its first action).
    """
    paid: list = []
    lone = game_module.CompiledGame.lone

    def alone(cg, slots, akey, i):
        widths = [len(cg.slots[k][2]) for k in slots]
        strides = [math.prod(widths[:j]) for j in range(len(widths))]
        paid.append(("lone", id(cg), slots, sum(map(operator.mul, akey, strides)), i))
        return lone(cg, slots, akey, i)

    monkeypatch.setattr(game_module.CompiledGame, "lone", alone)
    record_fibers(monkeypatch, lambda cg, slots, i, pos, _fiber: paid.append(("fiber", id(cg), slots, i, pos)))
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

    def test_random_games_pay_each_fiber_once(self, outcomes):
        rng = random.Random(149)
        for _ in range(20):
            outcomes.clear()  # a freed game's id may come back
            game = random_game(rng)
            solved = _every_solver_entry_point(game)
            assert outcomes and len(outcomes) == len(set(outcomes)) == len(memo_fibers(game.compiled))
            assert repr(solved) == repr(_every_solver_entry_point(build_game(dataclasses.replace(game.model),
                                                                             game.attack)))

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
        # The model outlives the game. Its utility memo, filled by this
        # game, holds only tuples of ints and floats, and its profile memo
        # only ints, floats, None and lists and tuples of them, so nothing
        # in either leads back to the game.
        script = parse_scenario_file(lb3_path)
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        _every_solver_entry_point(game)
        compiled = weakref.ref(game.compiled)
        utilities = script.model.compiled.utilities
        assert utilities and all(
            type(key) is tuple and all(type(a) is int for a in key) and type(x) is float
            for key, x in utilities.items()
        )

        def plain(x):
            return x is None or type(x) in (bool, int, float) or type(x) in (list, tuple) and all(map(plain, x))

        profiles = script.model.compiled.profiles
        assert len(profiles) == len(game.compiled.outcomes) and plain(list(profiles.items()))
        gc.disable()
        try:
            del game
            assert compiled() is None
        finally:
            gc.enable()
        assert script.model.compiled.utilities is utilities
        assert script.model.compiled.profiles is profiles

    def test_compiled_once_per_game(self, lb3_model, lb3_attack):
        game = build_game(lb3_model, lb3_attack)
        assert game.compiled is game.compiled
        assert build_game(lb3_model, lb3_attack).compiled is not game.compiled


class TestGamesOnOneModel:
    """Normal columns belong to the model, Malicious columns to the game.

    A Normal player's fiber depends only on the model and on the labels
    each player can play in the type profile, so every game on one model (a
    replan, the export after a plan) finds the Normal fibers that another
    paid and pays only the rest. Its Malicious columns it pays from its own
    reward rules. Either way it pays the floats of a game on a fresh model,
    bit for bit.
    """

    @pytest.mark.parametrize("path", [
        SCENARIO_DIR / "lb3.scn",
        REPO_ROOT / "tests" / "golden" / "lb3-two-vulns.scn",
        REPO_ROOT / "tests" / "golden" / "mimicry-n3-m4-k2.scn",
        REPO_ROOT / "tests" / "golden" / "random-n4-m4-k1.scn",
        REPO_ROOT / "tests" / "golden" / "chain-n8-k1.scn",
    ], ids=lambda path: path.stem)
    def test_export_after_plan_equals_a_fresh_export(self, path, monkeypatch):
        # the export's game reads the utilities and Normal fibers the plan
        # memoized on the model, pays only the Normal fibers the plan
        # skipped, and prints the bytes of an export on a fresh parse
        paid: dict = {"plan": [], "export": []}
        phase = "plan"

        def recording(cg, slots, i, pos, _fiber):
            if cg.normal[slots[i]]:
                paid[phase].append((profile_key(cg, slots), i, pos))

        record_fibers(monkeypatch, recording)
        script = parse_scenario_file(path)
        att = analyze_attacks(script.timeline, script.kb, script.model)
        plan(script.model, att)
        assert script.model.compiled.utilities and paid["plan"]
        phase = "export"
        game = build_game(script.model, att)
        text = export_induced_nfg(game, "g")
        cg = game.compiled
        every = set()  # the export's game's Normal fibers, all paid
        for slots, i, akey in memo_fibers(cg):
            if cg.normal[slots[i]]:
                every.add((profile_key(cg, slots), i, sum(map(operator.mul, akey, cg.outcomes[slots][0]))))
        # the plan may read profiles of no prior mass, which the export skips
        assert len(paid["plan"]) == len(set(paid["plan"])) and len(paid["export"]) == len(set(paid["export"]))
        assert set(paid["export"]) == every - set(paid["plan"]) and len(paid["export"]) < len(every)
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

    def test_other_rewards_share_the_normal_columns_alone(self, lb3_path):
        # a second attack on s1 that differs only in its reward rules: its
        # game shares every Normal column of the first game's profiles and
        # no Malicious column, and solves as a game on a fresh model does
        script = parse_scenario_file(lb3_path)
        att = analyze_attacks(script.timeline, script.kb, script.model)
        game = build_game(script.model, att)
        _every_solver_entry_point(game)
        rules, default = att.rewards["s1"]
        other = dataclasses.replace(att, rewards={"s1": (
            (RewardRule({"s1": "drop", "s2": "drop"}, 7.0),) + rules, default + 1.0)})
        again = build_game(script.model, other)
        solved = _every_solver_entry_point(again)
        cg, cg2 = game.compiled, again.compiled
        assert cg2.outcomes.keys() == cg.outcomes.keys()
        for slots, (_strides, columns) in cg.outcomes.items():
            for i, (column, column2) in enumerate(zip(columns, cg2.outcomes[slots][1], strict=True)):
                assert (column is column2) == cg.normal[slots[i]]
        assert any(not cg.normal[slots[i]] and columns[i] != cg2.outcomes[slots][1][i]
                   for slots, (_strides, columns) in cg.outcomes.items() for i in range(len(slots)))
        assert repr(solved) == repr(_every_solver_entry_point(build_game(dataclasses.replace(script.model), other)))

    @pytest.mark.parametrize("name", ["lb3-two-vulns", "generated"])
    def test_a_run_pays_each_normal_fiber_once_across_its_replans(self, name, monkeypatch):
        # every replan builds a game on the script's model, which finds the
        # Normal fibers the games before it paid
        paid = []

        def recording(cg, slots, i, pos, _fiber):
            if cg.normal[slots[i]]:
                paid.append((profile_key(cg, slots), i, pos))

        record_fibers(monkeypatch, recording)
        opened = []
        open_profile = game_module.CompiledGame.columns

        def opening(cg, slots):
            if slots not in cg.outcomes:
                opened.append(profile_key(cg, slots))
            return open_profile(cg, slots)

        monkeypatch.setattr(game_module.CompiledGame, "columns", opening)
        if name == "generated":
            script = parse_scenario(bench_gen().loop_script(random.Random(0), "chain", 4, 300, 20, 2))
        else:
            script = parse_scenario_file(REPO_ROOT / "tests" / "golden" / f"{name}.scn")
        trace = run_scenario(script)
        assert sum(r.replanned for r in trace.records) > 2
        assert paid and len(paid) == len(set(paid))
        assert len(opened) > len(set(opened)) == len(script.model.compiled.profiles)

    def test_each_type_of_a_slot_gets_its_own_profile(self, lb3_path):
        # s1's malicious action is among its own, so its two slots have the
        # same label codes; only the Normal flag tells their profiles apart
        script = parse_scenario_file(lb3_path)
        game = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        enumerate_pure_bne(game)
        cg = game.compiled
        s1 = game.players.index("s1")
        normal, malicious = cg.own[s1]
        assert cg.codes[normal] == cg.codes[malicious]
        base = tuple(own[0] for own in cg.own)
        attacked = base[:s1] + (malicious,) + base[s1 + 1:]
        assert cg.outcomes.keys() == {base, attacked}
        profiles = script.model.compiled.profiles
        assert len(profiles) == 2 and cg.payers[base] is not cg.payers[attacked]
        assert profiles[profile_key(cg, base)][3][s1] is cg.outcomes[base][1][s1]
        assert profiles[profile_key(cg, attacked)][3][s1] is None


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
        # the shares of every Normal fiber the fiber writer pays
        calls: list = []

        def recording(cg, slots, i, _pos, fiber):
            if cg.normal[slots[i]]:
                calls.append(fiber)

        record_fibers(monkeypatch, recording)
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
    """Opened columns and the writers pay what lone reads pay, bit for bit, and the routes mix freely."""

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
        # payoffs read one at a time are paid alone and stored nowhere;
        # the solvers that follow pay each fiber once, their outputs are
        # those of a fresh game, byte for byte, and a read after them
        # returns the writer's float, bit for bit
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
                    assert repr(payoff(game, types, action, player)) == repr(held)
                    assert repr(held) == repr(got), name
                    again += 1
        assert again > 1000

    def test_column_writer_pays_the_fiber_writers_floats(self):
        # Every Normal fiber `_pay_column` writes equals `_pay_fiber`'s on a
        # fresh game from the same inputs, with equal signs of zero, whether
        # the column is unpaid or some of its fibers were paid one at a time
        # first, which it leaves as they were. Every entry of a Malicious
        # column, paid whole when its profile opened, equals a fresh game's
        # lone read, and is the very reward object this game's lone read
        # returns.
        rng = random.Random(199)
        seen = dict.fromkeys(("width 1", "zero mass", "first", "last", "no Normal rival",
                              "default alone", "own component", "neighbour"), 0)
        checked = 0
        for name, game in _column_inputs():
            cg = game.compiled
            fresh = build_game(dataclasses.replace(game.model), game.attack).compiled
            for slots in itertools.product(*cg.own):
                strides, columns = cg.columns(slots)
                fresh.columns(slots)
                widths = [len(cg.slots[k][2]) for k in slots]
                normal = [cg.normal[k] for k in slots]
                for i, column in enumerate(columns):
                    fibers = [pos for pos in range(len(column)) if pos // strides[i] % widths[i] == 0]
                    early = rng.sample(fibers, rng.randint(0, len(fibers))) if normal[i] and rng.random() < 0.5 else []
                    for pos in early:
                        cg._pay_fiber(slots, i, pos)
                    before = list(column)
                    cg._pay_column(slots, i)
                    assert all(was is None or was is now for was, now in zip(before, column)), name
                    span = widths[i] * strides[i]
                    for pos in fibers:
                        got = column[pos : pos + span : strides[i]]
                        if normal[i]:
                            want = fresh._pay_fiber(slots, i, pos)
                        else:
                            akey = [pos // s % w for s, w in zip(strides, widths)]
                            akeys = [tuple(akey[:i] + [a] + akey[i + 1:]) for a in range(widths[i])]
                            want = [fresh.lone(slots, akey, i) for akey in akeys]
                            assert all(map(operator.is_, got, [cg.lone(slots, akey, i) for akey in akeys])), name
                        assert _hex(got) == _hex(want), (name, slots, i, pos)
                        checked += 1
                    seen["width 1"] += widths[i] == 1
                    seen["zero mass"] += any(cg.slots[k][3] == 0.0 for k in slots)
                    seen["first"] += i == 0 < len(slots) - 1
                    seen["last"] += i == len(slots) - 1 > 0
                    seen["no Normal rival"] += normal[i] and sum(normal) == 1 < len(slots)
                    if not normal[i]:
                        named = {j for conds, _value in cg.rewards[i] for j, _a in conds}
                        seen["default alone"] += not named
                        seen["own component"] += named == {i}
                        seen["neighbour"] += bool(named - {i})
        assert checked > 10_000
        assert min(seen.values()) > 20, seen

    def test_a_lone_read_folds_its_own_players_share_only(self, lb3_game, monkeypatch):
        # a Malicious player is paid its reward with no Shapley fold, and a
        # Normal player its own share with one, however many Normal players
        # share the outcome
        folded: list = []
        fold = shapley_module._fold

        def counting(utils, start, others, moves, name):
            folded.append(name)
            return fold(utils, start, others, moves, name)

        monkeypatch.setattr(shapley_module, "_fold", counting)
        rng = random.Random(191)
        shared = beside = 0
        for game in [lb3_game] + [random_game(rng) for _ in range(20)]:
            cg = game.compiled
            for slots in itertools.product(*cg.own):
                normal = {cg.players[cg.slots[k][0]] for k in slots if cg.normal[k]}
                for pos in range(math.prod(len(cg.slots[k][2]) for k in slots)):
                    types, action = _decoded(cg, slots, pos)
                    for player in cg.players:
                        folded.clear()
                        payoff(game, types, action, player)
                        assert folded == ([player] if player in normal else []), (types, action, player)
                        shared += player in normal and len(normal) > 1
                        beside += player not in normal and bool(normal)
        assert shared > 100 and beside > 100


def _column_inputs():
    """(name, game) of 150 seeded `random_game`s and the chain and star golden walls.

    Every third random game has its attacked players' priors drawn from 0,
    0.3 and 1, so some slots have no mass. Every game with an attacked
    player is then rebuilt with reward rules of one kind per attacked
    player, chosen by the seed: the default alone, rules that name only the
    attacked component, or rules that name only another component.
    """
    for name in ("chain-n8-k1", "star-n8-k1"):
        yield name, _golden_game(name)
    for seed in range(150):
        rng = random.Random(seed)
        game = random_game(rng, priors=(0.0, 0.3, 1.0) if seed % 3 == 0 else None)
        yield f"random-{seed}", game
        model, att = game.model, game.attack
        if not att.attacked:
            continue
        rewards = {}
        for cid, (_rules, default) in att.rewards.items():
            named = rng.choice([()] + [(cid,)] + [(c,) for c in model.component_ids if c != cid])
            rules = tuple(RewardRule({c: label}, rng.uniform(-5.0, 5.0))
                          for c in named for label in model.allowed_actions(c) if rng.random() < 0.7)
            rewards[cid] = (rules, default)
        yield f"random-{seed}-rewards", build_game(model, dataclasses.replace(att, rewards=rewards))


def _hex(fiber) -> list[str]:
    return [float(x).hex() for x in fiber]


def _tabled_rows_equal_lone_rows(game, fresh, rng: random.Random) -> int:
    # Every slot's table over every rival action, zero-mass slots too, after
    # a random share of its rows was read one at a time, equals the lone
    # rows of `fresh`, an equal game that has computed nothing, bit for bit.
    cg, lone = game.compiled, fresh.compiled
    checked = 0
    for k in range(len(cg.slots)):
        lo, hi = cg.spans[k]
        ranges = [range(len(actions)) for _i, _t, actions, _m in cg.slots[:lo] + cg.slots[hi:]]
        keys = list(itertools.product(*ranges))
        for rivals in rng.sample(keys, rng.randint(0, len(keys))):
            cg.row(k, rivals[:lo] + (0,) * (hi - lo) + rivals[lo:])
        read = dict(cg.rows[k])
        for rivals, row in zip(keys, cg.table(k, ranges), strict=True):
            assert row is read.get(rivals, row)
            assert repr(row) == repr(lone.interims(k, rivals[:lo] + (0,) * (hi - lo) + rivals[lo:]))
            checked += 1
        assert len(cg.rows[k]) == len(keys)
    return checked


class TestRowTables:
    """`table` computes each row as a lone read of a fresh game does, bit for bit."""

    def test_model_backed_rows_equal_lone_rows(self):
        rng = random.Random(191)
        checked = 0
        for _name, model, att in _equivalence_inputs(193):
            # a copy of the model compiles anew, so its utility memo is empty
            fresh = build_game(dataclasses.replace(model), att)
            checked += _tabled_rows_equal_lone_rows(build_game(model, att), fresh, rng)
        assert checked > 10_000

    def test_random_game_rows_equal_lone_rows(self):
        # games on random models with attack labels and dense reward tables
        rng = random.Random(197)
        checked = 0
        for seed in range(100):
            checked += _tabled_rows_equal_lone_rows(random_game(random.Random(seed)),
                                                    random_game(random.Random(seed)), rng)
        assert checked > 1_000


@pytest.fixture
def interims(monkeypatch):
    """Records every interim payoff a compiled game computes, as (game, slot, action, rival actions).

    Both row kernels are recorded: a lone row (`interims`) and every row a
    table (`table`) adds to the game's row memo, which holds only the rows
    it had not computed before.
    """
    computed: list = []
    compute = game_module.CompiledGame.interims
    table = game_module.CompiledGame.table

    def recording(cg, k, choice):
        rivals = tuple(c for s, c in enumerate(choice) if cg.slots[s][0] != cg.slots[k][0])
        row = compute(cg, k, choice)
        computed.extend((id(cg), k, a, rivals) for a in range(len(row)))
        return row

    def tabling(cg, k, ranges):
        before = set(cg.rows[k])
        rows = table(cg, k, ranges)
        for rivals, row in cg.rows[k].items():
            if rivals not in before:
                computed.extend((id(cg), k, a, rivals) for a in range(len(row)))
        return rows

    monkeypatch.setattr(game_module.CompiledGame, "interims", recording)
    monkeypatch.setattr(game_module.CompiledGame, "table", tabling)
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

    def test_random_game_computes_each_interim_once(self, interims):
        game = random_game(random.Random(149), max_players=3)
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
