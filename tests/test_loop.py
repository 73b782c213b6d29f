from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import pickle
import random
import weakref

import pytest

from bayesadapt import (
    DEFAULT_PROFILE_BUDGET,
    AttackEvent,
    AttackModel,
    PlayerType,
    RewardRule,
    ScenarioError,
    VulnerabilityRecord,
    analyze_attacks,
    compromise_draw,
    parse_scenario,
    parse_scenario_file,
    plan,
    run_scenario,
    script_fingerprint,
    system_utility,
    trace_to_lines,
    write_trace,
)
import bayesadapt.attacks as attacks_module
import bayesadapt.cli as cli_module
import bayesadapt.loop as loop_module
from bayesadapt.cli import format_report
from bayesadapt.game import build_game
from bayesadapt.loop import LoopRecord, ScenarioAborted
from bayesadapt.solver import BudgetExceededError, full_profile_count
from conftest import REPO_ROOT, SOLVABLE_SCRIPTS, bench_gen, over_budget_at_tick_three
from oracles import oracle_attack_model, oracle_run_scenario, oracle_trace_objs, oracle_utility

N = PlayerType.NORMAL
M = PlayerType.MALICIOUS
LONG_GOLDEN = REPO_ROOT / "tests" / "golden" / "loop-chain-n4-h3000.scn"


def _over_budget_at_tick_three():
    return parse_scenario(json.dumps(over_budget_at_tick_three()))


class TestPlan:
    def test_no_attack_routes_to_s1(self, lb3_model):
        decision = plan(lb3_model, AttackModel.empty())
        assert decision.strategy["lb"][N] == "to_s1"
        assert not decision.fallback
        assert decision.expected_system_utility == pytest.approx(10.0)
        assert decision.solve_stats.profiles_examined == 8
        assert decision.solve_stats.equilibria_found >= 1

    def test_attack_routes_to_s2(self, lb3_model, lb3_attack):
        decision = plan(lb3_model, lb3_attack)
        assert decision.strategy["lb"][N] == "to_s2"
        assert not decision.fallback

    def test_zero_probability_attack_matches_no_attack(self, lb3_model, lb3_attack):
        harmless = dataclasses.replace(lb3_attack, probabilities={"s1": 0.0})
        with_attack = plan(lb3_model, harmless)
        without = plan(lb3_model, AttackModel.empty())
        assert with_attack.strategy["lb"] == without.strategy["lb"]
        assert with_attack.expected_system_utility == pytest.approx(
            without.expected_system_utility
        )

    def test_pennies_scenario_falls_back(self, pennies_path):
        from bayesadapt import parse_scenario_file

        script = parse_scenario_file(pennies_path)
        att = analyze_attacks(script.timeline, script.kb, script.model)
        decision = plan(script.model, att)
        assert decision.fallback
        assert decision.solve_stats.equilibria_found == 0


class TestRunScenario:
    def test_lb3_end_to_end(self, lb3_script):
        trace = run_scenario(lb3_script)
        assert len(trace.records) == 4
        assert [r.time for r in trace.records] == [0, 1, 2, 3]
        assert [r.realized_action["lb"] for r in trace.records] == [
            "to_s1", "to_s1", "to_s2", "to_s2",
        ]
        assert [r.replanned for r in trace.records] == [True, False, True, False]
        assert trace.records[2].events == (AttackEvent(2, "s1", "cve-x"),)
        assert trace.records[0].attack_model == AttackModel.empty()
        assert trace.records[2].attack_model.probabilities == {"s1": 0.6}

    def test_trace_is_bit_identical_across_runs(self, lb3_script):
        a = trace_to_lines(run_scenario(lb3_script))
        b = trace_to_lines(run_scenario(lb3_script))
        assert a == b

    def test_empty_timeline_plans_once(self, lb3_script):
        script = dataclasses.replace(lb3_script, timeline=(), horizon=3)
        trace = run_scenario(script)
        assert len(trace.records) == 3
        assert sum(1 for r in trace.records if r.replanned) == 1
        assert len({json.dumps(r.realized_action, sort_keys=True) for r in trace.records}) == 1

    def test_zero_horizon_empty_trace(self, lb3_script):
        script = dataclasses.replace(lb3_script, timeline=(), horizon=0)
        assert run_scenario(script).records == ()

    def test_utility_consistency(self, lb3_script):
        trace = run_scenario(lb3_script)
        for record in trace.records:
            assert record.realized_utility == system_utility(lb3_script.model, record.realized_action)

    def test_undeclared_attack_label_of_hand_built_model(self, lb3_script):
        # The model declares no attack labels, so "x1" is known only to the
        # knowledge base: the script is rejected before any tick runs.
        kb = (dataclasses.replace(lb3_script.kb[0], malicious_actions=("x1",)),)
        with pytest.raises(ScenarioError, match="unknown action 'x1' for component 's1'") as exc:
            dataclasses.replace(
                lb3_script, model=dataclasses.replace(lb3_script.model, attack_actions={}), kb=kb
            )
        assert exc.value.path == "knowledge_base.vulnerabilities.cve-x.malicious_actions[0]"

    def test_declared_attack_label_of_hand_built_model(self, lb3_script):
        # Declared in the model, "x1" is played and its utility evaluated.
        kb = (dataclasses.replace(lb3_script.kb[0], malicious_actions=("x1",),
                                  compromise_probability=1.0,
                                  reward_rules=(RewardRule({"s1": "x1"}, 9.0),)),)
        model = dataclasses.replace(lb3_script.model, attack_actions={"s1": ("x1",)})
        script = dataclasses.replace(lb3_script, model=model, kb=kb)
        trace = run_scenario(script)
        assert trace.records[-1].realized_action["s1"] == "x1"
        for record in trace.records:
            assert record.realized_utility == oracle_utility(script.model, record.realized_action)

    def test_late_invalid_probability_rejected_at_construction(self, lb3_script):
        # Unchecked, this script ran 3 000 ticks before planning raised a
        # bare ValueError without a partial trace.
        kb = (dataclasses.replace(lb3_script.kb[0], compromise_probability=1.5),)
        with pytest.raises(ScenarioError, match=r"expected a probability, got 1.5") as exc:
            dataclasses.replace(lb3_script, kb=kb, timeline=(AttackEvent(3000, "s1", "cve-x"),),
                                horizon=3001)
        assert exc.value.path == "knowledge_base.vulnerabilities.cve-x.compromise_probability"

    def test_label_of_a_later_vulnerability_must_be_declared(self):
        # cve-x's reward rule names cve-y's label "stall". Parsed, the model
        # declares it and the script runs. Unchecked, a copy whose model drops
        # the attack labels would fail at cve-x's event, outside ScenarioAborted.
        doc = json.loads((REPO_ROOT / "tests" / "golden" / "lb3-two-vulns.scn").read_text(encoding="utf-8"))
        doc["knowledge_base"]["vulnerabilities"]["cve-x"]["reward_rules"] = [
            {"when": {"s1": "stall"}, "reward": 4}
        ]
        script = parse_scenario(json.dumps(doc))
        assert len(run_scenario(script).records) == script.horizon
        with pytest.raises(ScenarioError, match="unknown action 'stall'") as exc:
            dataclasses.replace(script, model=dataclasses.replace(script.model, attack_actions={}))
        assert exc.value.path == "knowledge_base.vulnerabilities.cve-y.malicious_actions[0]"

    def test_attacks_folded_at_tick_zero_and_on_first_reports(self, lb3_script, monkeypatch):
        expected = trace_to_lines(run_scenario(lb3_script))
        folded, built = _count_folds(monkeypatch)
        timeline = (AttackEvent(2, "s1", "cve-x"), AttackEvent(2, "s1", "cve-x"),
                    AttackEvent(5, "s1", "cve-x"))
        script = dataclasses.replace(lb3_script, timeline=timeline, horizon=8)
        trace = run_scenario(script)
        # tick 5 only re-reports cve-x
        assert folded == ["cve-x"]
        assert len(built) == 2
        assert _new_attack_models(trace) == [0, 2]
        assert [len(r.events) for r in trace.records] == [0, 0, 2, 0, 0, 1, 0, 0]
        folded.clear()
        assert trace_to_lines(run_scenario(lb3_script)) == expected
        assert folded == ["cve-x"]

    def test_re_reports_are_not_folded_again(self, lb3_script, monkeypatch):
        # A re-report cannot change the attack picture, so hundreds of them
        # over a long horizon fold nothing beyond the first one.
        folded, built = _count_folds(monkeypatch)
        timeline = tuple(AttackEvent(t, "s1", "cve-x") for t in range(2, 2000, 5))
        script = dataclasses.replace(lb3_script, timeline=timeline, horizon=2000)
        trace = run_scenario(script)
        assert len(timeline) == 400
        assert (folded, len(built)) == (["cve-x"], 2)
        assert _new_attack_models(trace) == [0, 2]
        # each record's attack model is still the analysis of every event delivered by its tick
        for record in trace.records[::37]:
            delivered = [ev for ev in timeline if ev.time <= record.time]
            assert record.attack_model == analyze_attacks(delivered, script.kb, script.model)

    def test_first_reports_that_leave_the_attack_model_equal_do_not_replan(self, lb3_script):
        # cve-a and cve-b, first reported together at tick 4, change nothing
        # but the default, and cve-b sets it back; cve-c at tick 5 moves no
        # float of s1's probability. Neither tick replans, as `!=` on the
        # attack model tells, though each holds a new attack model.
        extra = (VulnerabilityRecord("cve-a", "s1", 0.0, ("drop",), (), 1.0),
                 VulnerabilityRecord("cve-b", "s1", 0.0, ("drop",), (), 0.0),
                 VulnerabilityRecord("cve-c", "s1", 1e-17, ("drop",), (), 0.0))
        timeline = lb3_script.timeline + (AttackEvent(4, "s1", "cve-a"), AttackEvent(4, "s1", "cve-b"),
                                          AttackEvent(5, "s1", "cve-c"))
        script = dataclasses.replace(lb3_script, kb=lb3_script.kb + extra, timeline=timeline, horizon=7)
        trace = run_scenario(script)
        assert trace.records == oracle_run_scenario(script)
        assert [r.replanned for r in trace.records] == [True, False, True, False, False, False, False]
        assert _new_attack_models(trace) == [0, 2, 4, 5]

    def test_each_attack_model_is_the_analysis_of_the_events_delivered(self):
        # Seeded bench scripts with more records per attacked component: a
        # probability of 0 or 1, a label of an earlier record or of the
        # component's own actions, no reward rules, an equal default. Each
        # record's attack model is the public fold's, and a plain
        # restatement's, of every event delivered by its tick, and the loop
        # replans exactly when that model changed.
        unchanged = certain = impossible = 0
        for seed in range(16):
            script = _varied_records(seed)
            trace = run_scenario(script)
            assert trace.records == oracle_run_scenario(script)
            reported: set[str] = set()
            for record in trace.records:
                delivered = [ev for ev in script.timeline if ev.time <= record.time]
                att = record.attack_model
                assert att == analyze_attacks(delivered, script.kb, script.model)
                assert (att.attacked, att.malicious_actions, att.probabilities, att.rewards) == oracle_attack_model(
                    delivered, script.kb, script.model)
                first = {ev.vuln_id for ev in record.events} - reported
                reported |= first
                unchanged += bool(first) and not record.replanned
            ps = [rec.compromise_probability for rec in script.kb]
            certain += ps.count(1.0)
            impossible += ps.count(0.0)
        assert unchanged and certain and impossible

    def test_seed_changes_only_realized_fields(self, lb3_script):
        base = run_scenario(lb3_script)
        other = run_scenario(dataclasses.replace(lb3_script, seed=12345))
        for a, b in zip(base.records, other.records):
            assert a.time == b.time
            assert a.events == b.events
            assert a.attack_model == b.attack_model
            assert a.decision == b.decision
            assert a.replanned == b.replanned

    def test_certain_compromise_is_seed_independent(self, lb3_script):
        kb = (dataclasses.replace(lb3_script.kb[0], compromise_probability=1.0),)
        for seed in (0, 1, 99):
            script = dataclasses.replace(lb3_script, kb=kb, seed=seed)
            trace = run_scenario(script)
            assert [r.realized_types["s1"] for r in trace.records] == [N, N, M, M]

    def test_impossible_compromise_is_seed_independent(self, lb3_script):
        kb = (dataclasses.replace(lb3_script.kb[0], compromise_probability=0.0),)
        for seed in (0, 1, 99):
            script = dataclasses.replace(lb3_script, kb=kb, seed=seed)
            trace = run_scenario(script)
            assert all(r.realized_types["s1"] is N for r in trace.records)

    def test_replans_equal_one_plus_changes(self, lb3_script):
        rng = random.Random(101)
        for _ in range(10):
            horizon = rng.randint(1, 6)
            times = sorted(rng.randint(0, horizon - 1) for _ in range(rng.randint(0, 3)))
            timeline = tuple(AttackEvent(t, "s1", "cve-x") for t in times)
            script = dataclasses.replace(lb3_script, timeline=timeline, horizon=horizon)
            trace = run_scenario(script)

            changes = 0
            delivered: list[AttackEvent] = []
            previous = analyze_attacks(
                [e for e in timeline if e.time == 0], lb3_script.kb, lb3_script.model
            )
            delivered += [e for e in timeline if e.time == 0]
            for tick in range(1, horizon):
                delivered += [e for e in timeline if e.time == tick]
                current = analyze_attacks(delivered, lb3_script.kb, lb3_script.model)
                if current != previous:
                    changes += 1
                    previous = current
            assert sum(1 for r in trace.records if r.replanned) == 1 + changes

    def test_unsorted_script_rejected(self, lb3_script):
        timeline = (AttackEvent(3, "s1", "cve-x"), AttackEvent(2, "s1", "cve-x"))
        with pytest.raises(ValueError, match="sorted"):
            run_scenario(dataclasses.replace(lb3_script, timeline=timeline))

    @pytest.mark.parametrize("kb_extra, event, path, message", [
        ((), AttackEvent(5000, "s1", "cve-nope"), "timeline[1].vuln_id", "unknown vulnerability 'cve-nope'"),
        ((), AttackEvent(5000, "s2", "cve-x"), "timeline[1].component", "does not match vulnerability 'cve-x'"),
        ((VulnerabilityRecord("cve-9", "s9", 0.5, ("x",)),), AttackEvent(5000, "s9", "cve-9"),
         "timeline[1].component", "unknown component 's9'"),
    ], ids=["unknown-vulnerability", "other-component", "unknown-component"])
    def test_unresolvable_event_rejected_at_construction(self, lb3_script, kb_extra, event, path, message):
        # Without the check the script would run 5 000 ticks before the
        # analyzer failed, outside ScenarioAborted and without a trace.
        with pytest.raises(ScenarioError, match=message) as exc:
            dataclasses.replace(lb3_script, kb=lb3_script.kb + kb_extra,
                                timeline=lb3_script.timeline + (event,), horizon=5001)
        assert exc.value.path == path

    def test_repeated_vulnerability_id_rejected_at_construction(self, lb3_script):
        twice = dataclasses.replace(lb3_script.kb[0], component="s2")
        with pytest.raises(ScenarioError, match="repeated vulnerability id 'cve-x'") as exc:
            dataclasses.replace(lb3_script, kb=lb3_script.kb + (twice,))
        assert exc.value.path == "knowledge_base.vulnerabilities.cve-x"

    def test_event_outside_horizon_rejected(self, lb3_script):
        with pytest.raises(ValueError, match="horizon"):
            run_scenario(dataclasses.replace(lb3_script, horizon=2))

    def test_plan_failure_carries_partial_trace(self):
        script = _over_budget_at_tick_three()
        with pytest.raises(ScenarioAborted) as exc:
            run_scenario(script)
        assert isinstance(exc.value.cause, BudgetExceededError)
        partial = exc.value.partial_trace
        assert [(r.time, r.replanned) for r in partial.records] == [(0, True), (1, True), (2, False)]
        over = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        assert full_profile_count(over) == 244**3 > DEFAULT_PROFILE_BUDGET


# A bool is not read as 0 or 1, and a string, None or an int past the float
# range is rejected as a bad number is, not with a TypeError.
BAD_EPSILONS = [float("nan"), float("inf"), -1.0, True, False, "0.1", None, pytest.param(2**1024, id="2**1024")]


class TestEpsilon:
    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_plan_rejects_bad_epsilon(self, lb3_model, lb3_attack, epsilon):
        with pytest.raises(ValueError, match="^epsilon must be a finite number >= 0, got "):
            plan(lb3_model, lb3_attack, epsilon)

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_run_scenario_rejects_bad_epsilon_before_tick_zero(self, lb3_script, monkeypatch, epsilon):
        def no_planning(*args, **kwargs):
            raise AssertionError("planned with a bad epsilon")

        monkeypatch.setattr(loop_module, "plan", no_planning)
        with pytest.raises(ValueError, match="epsilon"):
            run_scenario(lb3_script, epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            run_scenario(dataclasses.replace(lb3_script, horizon=0, timeline=()), epsilon)

    def test_equal_epsilons_give_equal_trace_bytes(self, lb3_script):
        by_int, by_float = run_scenario(lb3_script, 1), run_scenario(lb3_script, 1.0)
        assert type(by_int.epsilon) is float
        assert trace_to_lines(by_int) == trace_to_lines(by_float)
        assert json.loads(trace_to_lines(by_int)[0])["epsilon"] == 1.0


class _IntSubclass(int):
    pass


class TestCompromiseDraw:
    def test_uniform_range_and_determinism(self):
        seen = set()
        for tick in range(50):
            value = compromise_draw(0, tick, 1)
            assert 0.0 <= value < 1.0
            assert compromise_draw(0, tick, 1) == value
            seen.add(value)
        assert len(seen) == 50

    def test_cells_are_independent_of_each_other(self):
        assert compromise_draw(0, 1, 2) != compromise_draw(0, 2, 1)
        assert compromise_draw(1, 0, 0) != compromise_draw(0, 0, 0)

    @pytest.mark.parametrize("seed", [0, -3, 2**70])
    def test_cell_from_the_seed_prefix_equals_the_formula(self, seed):
        prefix = loop_module._prefix(seed)
        for tick, index in [(0, 0), (1, 2), (2, 1), (12, 3), (2999, 0), (10**6, 17)]:
            digest = hashlib.sha256(f"{seed}:{tick}:{index}".encode("ascii")).digest()
            expected = int.from_bytes(digest[:8], "big") / 2.0**64
            assert loop_module._cell(prefix, tick, index) == digest
            assert compromise_draw(seed, tick, index) == expected

    @pytest.mark.parametrize("args, name", [
        ((True, 0, 0), "seed"),
        ((0, True, 0), "tick"),
        ((0, 0, False), "component_index"),
        (("0", 0, 0), "seed"),
        ((0, "1", 0), "tick"),
        ((0, 0, b"1"), "component_index"),
        ((0.0, 0, 0), "seed"),
        ((0, 1.0, 0), "tick"),
        ((0, 1.5, 0), "tick"),
        ((0, 0, 2.0), "component_index"),
        ((0, 0, None), "component_index"),
        ((_IntSubclass(0), 0, 0), "seed"),
    ])
    def test_rejects_what_is_not_an_exact_int(self, args, name):
        # A bool or a string would hash as another cell's text, a float as
        # "1.0", and an int subclass may print as anything.
        with pytest.raises(ValueError, match=rf"^compromise_draw: {name} must be an int, got "):
            compromise_draw(*args)


# The probabilities the bound's exactness is checked at: the ends, the
# smallest subnormal, 2**-64 (one draw step), the floats around 0.5 and the
# largest float below 1.
EDGE_PROBABILITIES = [0.0, 5e-324, 2**-64, 2**-53, math.nextafter(0.5, 0), 0.5, math.nextafter(0.5, 1),
                      1 - 2**-53, 1.0]


def _random_probabilities(count: int) -> list[float]:
    # Uniform floats, and floats spread over every binary exponent down to
    # the subnormals, where p * 2**64 falls between two integers.
    rng = random.Random(0)
    return [rng.random() if i % 2 else math.ldexp(rng.random(), -rng.randrange(1075)) for i in range(count)]


def _assert_exact_bound(p: float) -> None:
    # T is the least x whose draw is not below p, and for every x around it
    # and at the top the byte test of a 32-byte digest equals the draw test.
    bound = loop_module._bound(p)
    assert type(bound) is bytes and len(bound) == 8
    t = int.from_bytes(bound, "big")
    assert float(t) >= p * 2.0**64
    assert t == 0 or float(t - 1) < p * 2.0**64
    top = 2**64 - 2**10
    for x in {0, t - 1, t, t + 1, top - 1, top, top + 1, 2**64 - 1}:
        if not 0 <= x < 2**64:
            continue
        for tail in (bytes(24), b"\xff" * 24):
            digest = x.to_bytes(8, "big") + tail
            assert (digest < bound) == (x / 2.0**64 < p), (p, x, tail[:1])


class TestDrawBound:
    @pytest.mark.parametrize("p", EDGE_PROBABILITIES)
    def test_edge_probabilities(self, p):
        _assert_exact_bound(p)

    def test_random_probabilities(self):
        for p in _random_probabilities(1000):
            _assert_exact_bound(p)

    def test_top_draws_round_to_one(self):
        # At p = 1.0 every x >= 2**64 - 2**10 gives a draw of exactly 1.0,
        # which is not below p.
        assert int.from_bytes(loop_module._bound(1.0), "big") == 2**64 - 2**10
        for x in (2**64 - 2**10, 2**64 - 2**10 + 1, 2**64 - 1):
            assert x / 2.0**64 == 1.0
        assert (2**64 - 2**10 - 1) / 2.0**64 < 1.0


FORMULA_PROBABILITIES = [0.0, 1e-300, 0.3, 0.5, 1 - 2**-53, 1.0]


def _lb3_variant(path, trial: int):
    """lb3 with a vulnerability on each component, each of a probability
    drawn from FORMULA_PROBABILITIES and reported at a drawn tick, a second
    one on s1, a drawn seed and 120 ticks."""
    rng = random.Random(trial)
    doc = json.loads(path.read_text(encoding="utf-8"))
    vulns = doc["knowledge_base"]["vulnerabilities"]
    for cid, label in (("lb", "to_s1"), ("s1", "drop"), ("s2", "drop")):
        vulns[f"cve-{cid}"] = {"component": cid, "compromise_probability": rng.choice(FORMULA_PROBABILITIES),
                               "malicious_actions": [label], "reward_default": 0}
    vulns["cve-x"]["compromise_probability"] = rng.choice(FORMULA_PROBABILITIES)
    timeline = [{"time": rng.randrange(60), "component": rec["component"], "vuln_id": vuln_id}
                for vuln_id, rec in vulns.items()]
    doc["timeline"] = sorted(timeline, key=lambda ev: ev["time"])
    doc["horizon"] = 120
    doc["seed"] = rng.choice([0, 7, -12, 2**40])
    return parse_scenario(json.dumps(doc))


class TestLoopDrawsByTheFormula:
    """Each record's realized types follow `compromise_draw(seed, tick, index) < p`
    with p read from the record's own attack model: an independent check of
    the loop's byte-bound route."""

    @staticmethod
    def _assert_formula(script):
        trace = run_scenario(script)
        ids = script.model.component_ids
        seen = set()
        for record in trace.records:
            probabilities = record.attack_model.probabilities
            for index, cid in enumerate(ids):
                p = probabilities.get(cid)
                malicious = p is not None and compromise_draw(script.seed, record.time, index) < p
                assert record.realized_types[cid] is (M if malicious else N), (record.time, cid)
                seen.add((p, malicious))
        return seen

    def test_seeded_lb3_variants(self, lb3_path):
        seen = set()
        for trial in range(12):
            seen |= self._assert_formula(_lb3_variant(lb3_path, trial))
        # The variants reach both outcomes at a probability strictly inside
        # (0, 1), and each certain one.
        assert {(0.5, True), (0.5, False), (1.0, True), (0.0, False)} <= seen

    def test_long_golden_chain(self):
        seen = self._assert_formula(parse_scenario_file(LONG_GOLDEN))
        assert {malicious for _p, malicious in seen} == {True, False}


class TestLoopRecord:
    def test_frozen_slotted_value(self, lb3_script):
        trace = run_scenario(lb3_script)
        record = trace.records[2]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.realized_utility = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.time
        with pytest.raises(TypeError):
            vars(record)
        with pytest.raises(TypeError):
            weakref.ref(record)
        for record in trace.records:
            assert pickle.loads(pickle.dumps(record)) == record

    def test_every_record_of_the_long_golden(self):
        # Records built through their slots are the constructor's values.
        trace = run_scenario(parse_scenario_file(LONG_GOLDEN))
        assert len(trace.records) == 3000
        for record in trace.records:
            assert type(record) is LoopRecord
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.time = 0
            assert pickle.loads(pickle.dumps(record)) == record


def _count_folds(monkeypatch) -> tuple[list[str], list[tuple[AttackModel, bool]]]:
    """Record the fold's steps: the vulnerability of each record added, and
    each attack model built with whether it changed, in two lists the
    caller reads."""
    folded: list[str] = []
    built: list[tuple[AttackModel, bool]] = []
    add, attack_model = attacks_module._Fold.add, attacks_module._Fold.attack_model

    def counted_add(fold, rec):
        folded.append(rec.vuln_id)
        return add(fold, rec)

    def counted_attack_model(fold):
        built.append(attack_model(fold))
        return built[-1]

    monkeypatch.setattr(attacks_module._Fold, "add", counted_add)
    monkeypatch.setattr(attacks_module._Fold, "attack_model", counted_attack_model)
    return folded, built


def _new_attack_models(trace) -> list[int]:
    # The ticks whose record holds another attack model object than the tick before.
    return [r.time for i, r in enumerate(trace.records)
            if i == 0 or r.attack_model is not trace.records[i - 1].attack_model]


def _generated(seed: int, horizon: int):
    return parse_scenario(bench_gen().loop_script(random.Random(seed), "chain", 3, horizon, 12, 2))


def _varied_records(seed: int):
    """A seeded bench chain script with two to four more records per attacked
    component, each first reported at a drawn tick and re-reported once.

    A record's probability is 0, 1, one too small to move the float, or
    drawn; its labels repeat an earlier record's, add the component's own
    `a1` or a label of its own; half have no reward rules; its default is
    omitted (0.0) or 0.5."""
    rng = random.Random(seed)
    doc = json.loads(bench_gen().loop_script(rng, "chain", 4, 90, 20, 2))
    vulns = doc["knowledge_base"]["vulnerabilities"]
    for cid, label in sorted({(rec["component"], rec["malicious_actions"][0]) for rec in vulns.values()}):
        for j in range(rng.randint(2, 4)):
            rec = {"component": cid,
                   "compromise_probability": rng.choice([0, 0.0, 1, 1.0, 1e-17, round(rng.random(), 2)]),
                   "malicious_actions": rng.choice([[label], [label, "a1"], [f"y{j}", label]])}
            if rng.random() < 0.5:
                rec["reward_rules"] = [{"when": {cid: label}, "reward": round(rng.uniform(-2, 5), 1)}]
            if rng.random() < 0.5:
                rec["reward_default"] = 0.5
            vid = f"cve-{cid}-extra-{j}"
            vulns[vid] = rec
            for _ in range(2):
                doc["timeline"].append({"time": rng.randrange(doc["horizon"]), "component": cid, "vuln_id": vid})
    doc["timeline"].sort(key=lambda ev: ev["time"])
    return parse_scenario(json.dumps(doc))


def _one_event_per_tick(script):
    # Tick j re-delivers event j * len // horizon, so the first reports keep
    # their order and every tick has exactly one event.
    timeline, horizon = script.timeline, script.horizon
    events = tuple(dataclasses.replace(timeline[j * len(timeline) // horizon], time=j) for j in range(horizon))
    return dataclasses.replace(script, timeline=events)


def _events_on_the_last_tick(script):
    # The last first report of a vulnerability and every event after it
    # move to the last tick, so that tick replans.
    timeline, last = script.timeline, script.horizon - 1
    k = max(i for i, ev in enumerate(timeline) if ev.vuln_id not in {e.vuln_id for e in timeline[:i]})
    moved = tuple(dataclasses.replace(ev, time=last) for ev in timeline[k:])
    return dataclasses.replace(script, timeline=timeline[:k] + moved)


class TestLoopOracle:
    """`run_scenario` equals a plain tick-by-tick loop record for record."""

    @pytest.mark.parametrize("path", [
        REPO_ROOT / "scenarios" / "lb3.scn", REPO_ROOT / "scenarios" / "pennies.scn",
        REPO_ROOT / "tests" / "golden" / "lb3-two-vulns.scn", LONG_GOLDEN,
    ], ids=lambda path: path.stem)
    def test_golden_scripts(self, path):
        script = parse_scenario_file(path)
        assert run_scenario(script).records == oracle_run_scenario(script)

    @pytest.mark.parametrize("shape", ["event-free", "one-event-per-tick", "events-on-the-last-tick", "horizon-0"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_scripts(self, shape, seed):
        script = _generated(seed, 80)
        script = {
            "event-free": lambda s: dataclasses.replace(s, timeline=()),
            "one-event-per-tick": _one_event_per_tick,
            "events-on-the-last-tick": _events_on_the_last_tick,
            "horizon-0": lambda s: dataclasses.replace(s, timeline=(), horizon=0),
        }[shape](script)
        records = run_scenario(script).records
        assert records == oracle_run_scenario(script)
        assert len(records) == script.horizon
        if shape == "one-event-per-tick":
            assert all(len(r.events) == 1 for r in records)
        if shape == "events-on-the-last-tick":
            assert records[-1].events and records[-1].replanned


class TestTraceSerialization:
    def test_header_and_record_lines(self, lb3_script):
        trace = run_scenario(lb3_script)
        lines = trace_to_lines(trace)
        assert len(lines) == 1 + 4
        header = json.loads(lines[0])
        assert header == {"script_hash": trace.script_hash, "seed": 0, "epsilon": 1e-9}
        record = json.loads(lines[3])
        assert record["time"] == 2
        assert record["realized_action"]["lb"] == "to_s2"
        assert record["decision"]["strategy"]["lb"] == {"Normal": "to_s2"}
        assert json.loads(lines[4])["decision"] == "unchanged"

    def test_write_trace_round_trip(self, lb3_script):
        trace = run_scenario(lb3_script)
        buffer = io.StringIO()
        write_trace(trace, buffer)
        assert buffer.getvalue() == "\n".join(trace_to_lines(trace)) + "\n"

    @pytest.mark.parametrize("trace", [None, {}, "trace"], ids=["none", "dict", "str"])
    def test_anything_but_a_trace_is_rejected_naming_its_type(self, trace):
        message = f"^expected a Trace, got {type(trace).__name__}$"
        buffer = io.StringIO()
        for route in (trace_to_lines, lambda t: write_trace(t, buffer), format_report):
            with pytest.raises(ValueError, match=message):
                route(trace)
        assert buffer.getvalue() == ""

    def test_script_hash_tracks_content(self, lb3_script):
        trace = run_scenario(lb3_script)
        reseeded = run_scenario(dataclasses.replace(lb3_script, seed=7))
        assert trace.script_hash != reseeded.script_hash
        again = run_scenario(lb3_script)
        assert trace.script_hash == again.script_hash

    def test_script_hash_ignores_the_model_memos(self, two_vulns_path):
        # The hash encodes dataclass fields; `compiled` and its memos are not one.
        script = parse_scenario_file(two_vulns_path)
        assert "compiled" not in vars(script.model)
        before = script_fingerprint(script)
        trace = run_scenario(script)
        assert script.model.compiled.utilities
        assert script_fingerprint(script) == before == trace.script_hash


def _assert_spliced(trace):
    """The spliced lines and report equal `json.dumps` of the oracle's objects."""
    header, *records = oracle_trace_objs(trace)
    assert trace_to_lines(trace) == [json.dumps(obj, separators=(",", ":")) for obj in (header, *records)]
    assert format_report(trace) == json.dumps({**header, "records": records}, indent=2)


class TestSplicedLines:
    """`trace_to_lines` and the `simulate` report splice fragments; `json.dumps`
    of `oracle_trace_objs` is their oracle."""

    @pytest.mark.parametrize("path", SOLVABLE_SCRIPTS, ids=lambda p: p.stem)
    def test_every_golden_script(self, path):
        _assert_spliced(run_scenario(parse_scenario(path.read_text(encoding="utf-8"))))

    def test_records_that_share_no_objects(self, lb3_script):
        trace = run_scenario(dataclasses.replace(lb3_script, horizon=40))
        copies = (pickle.loads(pickle.dumps(r)) for r in trace.records)
        fresh = tuple(dataclasses.replace(r, realized_utility=float(repr(r.realized_utility))) for r in copies)
        assert not {id(r.attack_model) for r in trace.records} & {id(r.attack_model) for r in fresh}
        unshared = dataclasses.replace(trace, records=fresh)
        _assert_spliced(unshared)
        assert trace_to_lines(unshared) == trace_to_lines(trace)
        assert format_report(unshared) == format_report(trace)

    def test_shared_dicts_with_other_utilities_and_decisions(self, lb3_script):
        # Hand-built records that share realized dicts and decisions in ways
        # `run_scenario` never makes: each utility, including the non-finite
        # and signed zeros, and each replanned flag must still show.
        trace = run_scenario(lb3_script)
        first, attacked = trace.records[0], trace.records[2]
        utilities = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, first.realized_utility)
        records = [dataclasses.replace(first, realized_utility=u, replanned=i % 2 == 0)
                   for i, u in enumerate(utilities)]
        records += [attacked, dataclasses.replace(first, attack_model=attacked.attack_model), first]
        _assert_spliced(dataclasses.replace(trace, records=tuple(records)))

    def test_non_ascii_ids_and_labels(self, lb3_path):
        text = lb3_path.read_text(encoding="utf-8")
        for old, new in (('"lb"', '"lb→ü"'), ('"s1"', '"sérvice-1"'), ('"to_s2"', '"zu_s2 🛡"'),
                         ('"drop"', '"fallen lassen"'), ('"cve-x"', '"cve-ß"')):
            text = text.replace(old, new)
        script = parse_scenario(text)
        assert "lb→ü" in script.model.component_ids
        trace = run_scenario(dataclasses.replace(script, horizon=12))
        _assert_spliced(trace)
        assert all(line.isascii() for line in trace_to_lines(trace))
        assert format_report(trace).isascii()

    def test_event_dense_script(self):
        # 20 000 events over 20 000 ticks, 10 041 of them with events: each
        # event's text is spliced from its pair's, encoded once.
        script = parse_scenario(bench_gen().loop_script(random.Random(0), "chain", 3, 20000, 20000, 2))
        trace = run_scenario(script)
        assert sum(1 for r in trace.records if r.events) == 10041
        assert max(len(r.events) for r in trace.records) > 2
        _assert_spliced(trace)

    def test_bool_typed_time(self, lb3_script):
        trace = run_scenario(lb3_script)
        records = tuple(dataclasses.replace(r, time=bool(i % 2)) for i, r in enumerate(trace.records))
        hand_built = dataclasses.replace(trace, records=records)
        _assert_spliced(hand_built)
        assert trace_to_lines(hand_built)[2].startswith('{"time":true,')
        # an event's time of another type than int goes through the encoder
        (event,) = trace.records[2].events
        events = (dataclasses.replace(event, time=True), dataclasses.replace(event, time=2.0), event)
        hand_built = dataclasses.replace(trace, records=(dataclasses.replace(trace.records[2], events=events),))
        _assert_spliced(hand_built)
        assert '"events":[{"time":true,' in trace_to_lines(hand_built)[1]

    def test_partial_trace_of_an_aborted_run(self):
        with pytest.raises(ScenarioAborted) as exc:
            run_scenario(_over_budget_at_tick_three())
        partial = exc.value.partial_trace
        assert len(partial.records) == 3
        _assert_spliced(partial)

    def test_empty_trace(self, lb3_script):
        trace = run_scenario(dataclasses.replace(lb3_script, timeline=(), horizon=0))
        assert trace.records == ()
        _assert_spliced(trace)
        assert format_report(trace).endswith('"records": []\n}')

    def test_report_encodes_each_fragment_once(self, monkeypatch):
        # The report's indenting encoder runs once per attack model object,
        # decision, shared realized tail and tick with events, plus once for
        # the header: its work grows with what changed, not with the ticks.
        trace = run_scenario(parse_scenario_file(LONG_GOLDEN))
        records = trace.records
        fragments = (len({id(r.attack_model) for r in records})
                     + len({id(r.decision) for r in records if r.replanned})
                     + len({(id(r.realized_types), id(r.realized_action), id(r.realized_utility)) for r in records})
                     + len([r for r in records if r.events]) + 1)
        assert fragments * 20 < len(records)
        calls = []
        indented = cli_module._indented

        def counted(obj):
            calls.append(obj)
            return indented(obj)

        monkeypatch.setattr(cli_module, "_indented", counted)
        format_report(trace)
        assert 0 < len(calls) <= fragments

    def test_an_epoch_shares_its_realized_objects(self, lb3_script):
        # lb3 with s1 attacked at tick 2 and 60 ticks: the ticks after the
        # attack form one epoch, and s1 draws one of two patterns.
        trace = run_scenario(dataclasses.replace(lb3_script, horizon=60))
        epoch = trace.records[2:]
        outcomes = {(id(r.realized_types), id(r.realized_action), id(r.realized_utility)) for r in epoch}
        assert len(outcomes) == len({r.realized_types["s1"] for r in epoch}) == 2
