from __future__ import annotations

import dataclasses
import io
import json
import random

import pytest

from bayesadapt import (
    DEFAULT_PROFILE_BUDGET,
    AttackEvent,
    AttackModel,
    PlayerType,
    RewardRule,
    analyze_attacks,
    compromise_draw,
    parse_scenario,
    plan,
    run_scenario,
    system_utility,
    trace_to_lines,
    write_trace,
)
import bayesadapt.loop as loop_module
from bayesadapt.game import build_game, extend_attack_actions
from bayesadapt.loop import ScenarioAborted
from bayesadapt.solver import BudgetExceededError, full_profile_count
from oracles import oracle_utility

N = PlayerType.NORMAL
M = PlayerType.MALICIOUS


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
            extended = extend_attack_actions(lb3_script.model, record.attack_model)
            assert record.realized_utility == system_utility(extended, record.realized_action)

    def test_undeclared_attack_label_of_hand_built_model(self, lb3_script):
        # The model declares no attack labels, so "x1" is known only to the
        # knowledge base; the realized utility must still be evaluated.
        kb = (dataclasses.replace(lb3_script.kb[0], malicious_actions=("x1",),
                                  compromise_probability=1.0,
                                  reward_rules=(RewardRule({"s1": "x1"}, 9.0),)),)
        script = dataclasses.replace(
            lb3_script, model=dataclasses.replace(lb3_script.model, attack_actions={}), kb=kb
        )
        trace = run_scenario(script)
        assert trace.records[-1].realized_action["s1"] == "x1"
        for record in trace.records:
            assert record.realized_utility == oracle_utility(script.model, record.realized_action)

    def test_attacks_analyzed_at_tick_zero_and_on_event_ticks(self, lb3_script, monkeypatch):
        expected = trace_to_lines(run_scenario(lb3_script))
        ticks = []
        analyze = loop_module.analyze_attacks

        def counting(events, kb, model):
            ticks.append(max((ev.time for ev in events), default=0))
            return analyze(events, kb, model)

        monkeypatch.setattr(loop_module, "analyze_attacks", counting)
        timeline = (AttackEvent(2, "s1", "cve-x"), AttackEvent(2, "s1", "cve-x"),
                    AttackEvent(5, "s1", "cve-x"))
        script = dataclasses.replace(lb3_script, timeline=timeline, horizon=8)
        trace = run_scenario(script)
        assert ticks == [0, 2, 5]
        assert [len(r.events) for r in trace.records] == [0, 0, 2, 0, 0, 1, 0, 0]
        ticks.clear()
        assert trace_to_lines(run_scenario(lb3_script)) == expected
        assert ticks == [0, 2]

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

    def test_event_outside_horizon_rejected(self, lb3_script):
        with pytest.raises(ValueError, match="horizon"):
            run_scenario(dataclasses.replace(lb3_script, horizon=2))

    def test_plan_failure_carries_partial_trace(self):
        # Three two-action components, each attacked with 120 extra labels:
        # c0 at t=1 gives a 976-profile game, c1 and c2 at t=3 give
        # (2 * 122)^3, about 14.5 M profiles, over the budget.
        labels = [f"x{j}" for j in range(120)]
        doc = {
            "components": [{"id": f"c{i}", "actions": ["on", "off"], "baseline": "on"} for i in range(3)],
            "quality_attributes": [{"name": "q", "weight": 1.0}],
            "utility_rules": [{"when": {"c0": "on", "c1": "on"}, "scores": {"q": 1}}],
            "utility_default": {"q": 0},
            "knowledge_base": {"vulnerabilities": {
                f"cve-{i}": {"component": f"c{i}", "compromise_probability": 0.5,
                             "malicious_actions": labels}
                for i in range(3)
            }},
            "timeline": [{"time": 1 if i == 0 else 3, "component": f"c{i}", "vuln_id": f"cve-{i}"}
                         for i in range(3)],
            "horizon": 5,
        }
        script = parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioAborted) as exc:
            run_scenario(script)
        assert isinstance(exc.value.cause, BudgetExceededError)
        partial = exc.value.partial_trace
        assert [(r.time, r.replanned) for r in partial.records] == [(0, True), (1, True), (2, False)]
        over = build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        assert full_profile_count(over) == 244**3 > DEFAULT_PROFILE_BUDGET


class TestEpsilon:
    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0])
    def test_plan_rejects_bad_epsilon(self, lb3_model, lb3_attack, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            plan(lb3_model, lb3_attack, epsilon)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0])
    def test_run_scenario_rejects_bad_epsilon_before_tick_zero(self, lb3_script, monkeypatch, epsilon):
        def no_planning(*args, **kwargs):
            raise AssertionError("planned with a bad epsilon")

        monkeypatch.setattr(loop_module, "plan", no_planning)
        with pytest.raises(ValueError, match="epsilon"):
            run_scenario(lb3_script, epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            run_scenario(dataclasses.replace(lb3_script, horizon=0, timeline=()), epsilon)


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

    def test_script_hash_tracks_content(self, lb3_script):
        trace = run_scenario(lb3_script)
        reseeded = run_scenario(dataclasses.replace(lb3_script, seed=7))
        assert trace.script_hash != reseeded.script_hash
        again = run_scenario(lb3_script)
        assert trace.script_hash == again.script_hash
