"""Deterministic MAPE-K style simulation over a scripted attack timeline.

Each tick delivers the due attack events, re-analyzes the cumulative attack
picture when events arrived, re-plans only when that picture changed,
realizes component types from their compromise probabilities with a
replayable generator, executes the planned strategy and records the
outcome.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import IO, Iterator

from .attacks import (
    AttackEvent,
    AttackModel,
    VulnerabilityRecord,
    analyze_attacks,
    knowledge_base_actions,
)
from .game import PlayerType, build_game
from .model import SystemModel, _utility
from .solver import (
    DEFAULT_EPSILON,
    BudgetExceededError,
    _check_epsilon,
    enumerate_pure_bne,
    examined_profile_count,
    maximin_fallback,
    select_equilibrium,
)

__all__ = [
    "ScenarioScript",
    "SolveStats",
    "AdaptationDecision",
    "LoopRecord",
    "Trace",
    "ScenarioAborted",
    "plan",
    "run_scenario",
    "compromise_draw",
    "script_fingerprint",
    "trace_to_lines",
    "write_trace",
]


class ScenarioError(ValueError):
    """A scenario document or script is malformed or violates a model invariant."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class ScenarioScript:
    """A complete simulation input: system, knowledge base, timeline, horizon.

    Construction rejects a negative horizon and a timeline that is unsorted,
    has negative times or reaches past the horizon, naming the document path.
    """

    model: SystemModel
    kb: tuple[VulnerabilityRecord, ...]
    timeline: tuple[AttackEvent, ...]
    horizon: int
    seed: int = 0

    def __post_init__(self):
        last = -1
        for i, ev in enumerate(self.timeline):
            if ev.time < 0:
                raise ScenarioError(f"timeline[{i}].time", f"negative event time {ev.time}")
            if ev.time < last:
                raise ScenarioError(f"timeline[{i}].time", "timeline not sorted by time")
            last = ev.time
        # Checked after the ordering, which a defaulted horizon relies on.
        if self.horizon < 0:
            raise ScenarioError("horizon", "horizon must be nonnegative")
        for i, ev in enumerate(self.timeline):
            if ev.time >= self.horizon:
                raise ScenarioError(
                    f"timeline[{i}].time", f"event time {ev.time} outside horizon {self.horizon}"
                )


@dataclass(frozen=True)
class SolveStats:
    profiles_examined: int
    equilibria_found: int


@dataclass(frozen=True)
class AdaptationDecision:
    """The planner's output: the strategy to enact plus solver bookkeeping."""

    strategy: dict[str, dict[PlayerType, str]]
    expected_system_utility: float
    fallback: bool
    solve_stats: SolveStats


@dataclass(frozen=True)
class LoopRecord:
    """One tick of the loop: what arrived, what was decided, what happened."""

    time: int
    events: tuple[AttackEvent, ...]
    attack_model: AttackModel
    decision: AdaptationDecision
    replanned: bool
    realized_types: dict[str, PlayerType]
    realized_action: dict[str, str]
    realized_utility: float


@dataclass(frozen=True)
class Trace:
    records: tuple[LoopRecord, ...]
    script_hash: str
    seed: int
    epsilon: float


class ScenarioAborted(RuntimeError):
    """Planning failed mid-run; `partial_trace` holds the completed ticks."""

    def __init__(self, cause: Exception, partial_trace: Trace):
        self.cause = cause
        self.partial_trace = partial_trace
        super().__init__(f"scenario aborted at tick {len(partial_trace.records)}: {cause}")


def plan(model: SystemModel, att: AttackModel, epsilon: float = DEFAULT_EPSILON) -> AdaptationDecision:
    """Solve the game induced by the current attack picture.

    Selects the pure equilibrium with the best expected system utility; when
    none exists, falls back to the per-player maximin profile so the loop
    always has a strategy to enact.
    """
    game = build_game(model, att)
    results = enumerate_pure_bne(game, epsilon)
    chosen = select_equilibrium(results)
    if chosen is None:
        chosen = maximin_fallback(game)
    return AdaptationDecision(
        strategy=chosen.profile,
        expected_system_utility=chosen.expected_system_utility,
        fallback=chosen.fallback,
        solve_stats=SolveStats(examined_profile_count(game), len(results)),
    )


def compromise_draw(seed: int, tick: int, component_index: int) -> float:
    """Replayable uniform draw in [0, 1) for one (tick, component) cell.

    Hash-based rather than stateful so any cell can be recomputed in
    isolation and results do not depend on platform RNG details.
    """
    digest = hashlib.sha256(f"{seed}:{tick}:{component_index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def run_scenario(script: ScenarioScript, epsilon: float = DEFAULT_EPSILON) -> Trace:
    """Run the scripted loop for `horizon` ticks and return the full trace.

    Attacks are cumulative: the knowledge of an on-going attack never
    expires. The planner runs at tick 0 and again whenever the delivered
    events changed the analyzed attack model. A compromised component
    behaves maliciously in a tick iff its per-tick draw falls below its
    compromise probability, so traces are bit-identical for equal
    (script, epsilon) pairs. A planning failure raises ScenarioAborted
    carrying the trace of the ticks completed so far. `epsilon` must be
    finite and non-negative; it is checked before tick 0.
    """
    _check_epsilon(epsilon)
    model = script.model
    ids = model.component_ids
    # Realized utilities go through the compiled memo of one model that knows
    # every label the knowledge base can give a compromised component.
    labelled = dataclasses.replace(
        model, attack_actions=knowledge_base_actions(script.kb, model.attack_actions)
    )

    def partial() -> Trace:
        return Trace(
            records=tuple(records),
            script_hash=script_fingerprint(script),
            seed=script.seed,
            epsilon=epsilon,
        )

    records: list[LoopRecord] = []
    timeline = script.timeline
    next_event = 0
    current_att: AttackModel | None = None
    decision: AdaptationDecision | None = None

    for tick in range(script.horizon):
        # The timeline is sorted, so the due events are the next ones.
        first = next_event
        while next_event < len(timeline) and timeline[next_event].time == tick:
            next_event += 1
        due = tuple(timeline[first:next_event])

        # The attack model depends only on the delivered events, so it is
        # analyzed again only when some arrive.
        if due or current_att is None:
            att = analyze_attacks(timeline[:next_event], script.kb, model)
        replanned = decision is None or att != current_att
        if replanned:
            try:
                decision = plan(model, att, epsilon)
            except BudgetExceededError as e:
                raise ScenarioAborted(e, partial()) from e
            current_att = att

        realized_types: dict[str, PlayerType] = {}
        for index, cid in enumerate(ids):
            if cid in att.probabilities:
                draw = compromise_draw(script.seed, tick, index)
                malicious = draw < att.probabilities[cid]
                realized_types[cid] = PlayerType.MALICIOUS if malicious else PlayerType.NORMAL
            else:
                realized_types[cid] = PlayerType.NORMAL

        realized_action = {cid: decision.strategy[cid][realized_types[cid]] for cid in ids}
        # The labels come from the planned strategy, which the game built
        # from validated inputs.
        utility = _utility(labelled, realized_action)

        records.append(
            LoopRecord(
                time=tick,
                events=due,
                attack_model=att,
                decision=decision,
                replanned=replanned,
                realized_types=realized_types,
                realized_action=realized_action,
                realized_utility=utility,
            )
        )

    return partial()


def script_fingerprint(script: ScenarioScript) -> str:
    """Stable content hash of a scenario script."""
    doc = {
        "components": [
            {"id": c.id, "actions": list(c.actions), "baseline": c.baseline}
            for c in script.model.components
        ],
        "quality_attributes": [
            {"name": q.name, "weight": q.weight} for q in script.model.quality_attributes
        ],
        "utility_rules": [
            {"when": dict(r.when), "scores": dict(r.scores)} for r in script.model.utility_rules
        ],
        "utility_default": dict(script.model.utility_default),
        "attack_actions": {cid: list(v) for cid, v in script.model.attack_actions.items()},
        "knowledge_base": [
            {
                "vuln_id": rec.vuln_id,
                "component": rec.component,
                "compromise_probability": rec.compromise_probability,
                "malicious_actions": list(rec.malicious_actions),
                "reward_rules": [{"when": dict(r.when), "reward": r.reward} for r in rec.reward_rules],
                "reward_default": rec.reward_default,
            }
            for rec in script.kb
        ],
        "timeline": [
            {"time": ev.time, "component": ev.component, "vuln_id": ev.vuln_id}
            for ev in script.timeline
        ],
        "horizon": script.horizon,
        "seed": script.seed,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _attack_model_obj(att: AttackModel) -> dict:
    return {
        "attacked": list(att.attacked),
        "malicious_actions": {cid: list(v) for cid, v in att.malicious_actions.items()},
        "probabilities": dict(att.probabilities),
        "rewards": {
            cid: {
                "rules": [{"when": dict(r.when), "reward": r.reward} for r in rules],
                "default": default,
            }
            for cid, (rules, default) in att.rewards.items()
        },
    }


def decision_obj(decision: AdaptationDecision) -> dict:
    return {
        "strategy": {
            player: {t.value: a for t, a in per_type.items()}
            for player, per_type in decision.strategy.items()
        },
        "expected_system_utility": decision.expected_system_utility,
        "fallback": decision.fallback,
        "solve_stats": {
            "profiles_examined": decision.solve_stats.profiles_examined,
            "equilibria_found": decision.solve_stats.equilibria_found,
        },
    }


def record_obj(record: LoopRecord, attack_model: dict) -> dict:
    return {
        "time": record.time,
        "events": [
            {"time": ev.time, "component": ev.component, "vuln_id": ev.vuln_id}
            for ev in record.events
        ],
        "attack_model": attack_model,
        "decision": decision_obj(record.decision) if record.replanned else "unchanged",
        "realized_types": {cid: t.value for cid, t in record.realized_types.items()},
        "realized_action": dict(record.realized_action),
        "realized_utility": record.realized_utility,
    }


def trace_objs(trace: Trace) -> Iterator[dict]:
    """The trace as JSON objects, made one at a time: a header, then one per tick.

    `run_scenario` keeps one attack model object from one event tick to the
    next, and the ticks in between share its JSON object.
    """
    yield {"script_hash": trace.script_hash, "seed": trace.seed, "epsilon": trace.epsilon}
    att = None
    for record in trace.records:
        if record.attack_model is not att:
            att = record.attack_model
            att_obj = _attack_model_obj(att)
        yield record_obj(record, att_obj)


def trace_to_lines(trace: Trace) -> list[str]:
    """Line-delimited serialization: one header line, then one line per tick."""
    return [json.dumps(obj, separators=(",", ":")) for obj in trace_objs(trace)]


def write_trace(trace: Trace, out: IO[str]) -> None:
    for line in trace_to_lines(trace):
        out.write(line + "\n")
