"""Deterministic MAPE-K style simulation over a scripted attack timeline.

The loop moves from one event tick to the next. An event tick delivers the
due attack events, folds the record of each newly reported vulnerability
onto the cumulative attack picture and re-plans only when that picture
changed.
Every tick, up to the next event, then realizes component types from their
compromise probabilities with a replayable generator, executes the planned
strategy and records the outcome. The module plans, runs and traces; the
`ScenarioScript` it runs is built and checked in `scenario`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator

from .attacks import AttackEvent, AttackModel, _Fold
from .game import BayesianGame, PlayerType, _build, _compiled, build_game
from .model import SystemModel, _shape_fault, _utility
from .scenario import ScenarioError, ScenarioScript
from .solver import (
    DEFAULT_EPSILON,
    BudgetExceededError,
    _check_budget,
    _check_epsilon,
    _stable,
    _to_profile,
    examined_profile_count,
    maximin_fallback,
)

__all__ = [
    "SolveStats",
    "AdaptationDecision",
    "LoopRecord",
    "Trace",
    "ScenarioAborted",
    "TICK_BUDGET",
    "plan",
    "run_scenario",
    "compromise_draw",
    "script_fingerprint",
    "trace_to_lines",
    "write_trace",
]


# Ticks `run_scenario` may run: over 30 times the longest script the tests
# and the benchmark run, and small enough to fail in seconds, not hang.
TICK_BUDGET = 100_000


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


@dataclass(frozen=True, slots=True)
class LoopRecord:
    """One tick of the loop: what arrived, what was decided, what happened.

    Records are shared, not copied: the ticks between two reports of a new
    vulnerability share one attack model, the ticks between two replans one
    decision, and the records of one epoch whose attacked components drew
    the same malicious pattern share their `realized_types` and
    `realized_action` dicts and their utility.

    A record is a frozen, slotted value: it has no instance `__dict__`, so
    `vars(record)` raises `TypeError`, and it takes no weak reference.
    `LoopRecord(...)` is its constructor; `run_scenario` builds its records
    a run of ticks at a time through their slots (`_run_records`), which
    gives equal values.
    """

    time: int
    events: tuple[AttackEvent, ...]
    attack_model: AttackModel
    decision: AdaptationDecision
    replanned: bool
    realized_types: dict[str, PlayerType]
    realized_action: dict[str, str]
    realized_utility: float


def _run_records(times: range, outcomes: Iterable[tuple[dict, dict, float]], events: tuple[AttackEvent, ...],
                 att: AttackModel, decision: AdaptationDecision, replanned: bool) -> list[LoopRecord]:
    """The records of a run of ticks that share one attack model and one decision.

    The run is nonempty. Its first tick carries `events` and `replanned`,
    the others `()` and False; tick i's realized fields are the i-th of
    `outcomes`. Each record is built through its slots, by `object.__new__`
    and each field's member descriptor, not by the frozen `__init__`, which
    sets every field through `object.__setattr__` by name.
    """
    (set_time, set_events, set_attack_model, set_decision, set_replanned,
     set_realized_types, set_realized_action, set_realized_utility) = _SLOT_SETTERS
    new = object.__new__
    records = []
    append = records.append
    for time, (realized_types, realized_action, realized_utility) in zip(times, outcomes):
        record = new(LoopRecord)
        set_time(record, time)
        set_events(record, ())
        set_attack_model(record, att)
        set_decision(record, decision)
        set_replanned(record, False)
        set_realized_types(record, realized_types)
        set_realized_action(record, realized_action)
        set_realized_utility(record, realized_utility)
        append(record)
    set_events(records[0], events)
    set_replanned(records[0], replanned)
    return records


# Each field's slot setter, in field order, captured once.
_SLOT_SETTERS = tuple(getattr(LoopRecord, f.name).__set__ for f in dataclasses.fields(LoopRecord))


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
    epsilon = _check_epsilon(epsilon)
    return _decide(build_game(model, att), epsilon)


def _decide(game: BayesianGame, epsilon: float) -> AdaptationDecision:
    # `plan`'s core, on a game of checked inputs and a checked epsilon: what
    # `select_equilibrium(enumerate_pure_bne(...))`, else `maximin_fallback`,
    # would choose, building the chosen equilibrium's profile alone.
    _check_budget(game)
    cg = _compiled(game)
    choices = _stable(cg, epsilon)
    best, best_value = None, 0.0
    for choice in choices:
        value = cg.expected_system_utility(choice)
        if best is None or value > best_value:
            best, best_value = choice, value
    if best is None:
        chosen = maximin_fallback(game)
        strategy, best_value = chosen.profile, chosen.expected_system_utility
    else:
        strategy = _to_profile(cg, best)
    return AdaptationDecision(
        strategy=strategy,
        expected_system_utility=best_value,
        fallback=best is None,
        solve_stats=SolveStats(examined_profile_count(game), len(choices)),
    )


def compromise_draw(seed: int, tick: int, component_index: int) -> float:
    """Replayable uniform draw in [0, 1) for one (tick, component) cell.

    Hash-based rather than stateful so any cell can be recomputed in
    isolation and results do not depend on platform RNG details: the first
    8 bytes of the sha256 of `f"{seed}:{tick}:{component_index}"`, big-endian,
    over 2**64. Each argument must be an exact int: a bool, float, string or
    int subclass would hash the text of another cell or of none, and raises
    ValueError. `run_scenario` hashes the same cells, but tests each digest
    against an 8-byte bound computed once per epoch from the component's
    probability (`_bound`), which decides `draw < p` exactly.
    """
    for name, value in (("seed", seed), ("tick", tick), ("component_index", component_index)):
        if type(value) is not int:
            raise ValueError(f"compromise_draw: {name} must be an int, got {type(value).__name__}")
    return int.from_bytes(_cell(_prefix(seed), tick, component_index)[:8], "big") / 2.0**64


def _prefix(seed: int) -> hashlib._Hash:
    # The sha256 state of a seed's prefix, hashed once per seed.
    return hashlib.sha256(b"%d:" % seed)


def _cell(prefix: hashlib._Hash, tick: int, component_index: int) -> bytes:
    # The sha256 digest of one cell, from its seed's prefix state. For ints,
    # %d writes the bytes the f-string of `compromise_draw` encodes.
    cell = prefix.copy()
    cell.update(b"%d:%d" % (tick, component_index))
    return cell.digest()


def _bound(p: float) -> bytes:
    """The 8 big-endian bytes of T, the least int x with float(x) >= p * 2**64.

    For a 32-byte digest d with x = int.from_bytes(d[:8], "big"),
    `d < _bound(p)` iff `x / 2.0**64 < p`: float() of an int is monotone,
    scaling by 2**64 is exact, and d compares greater than its own first 8
    bytes. The least such x lies within 2**12 below ceil(p * 2**64), since
    floats below 2**64 are at most 2**11 apart; for p = 1.0 it is
    2**64 - 2**10, so T fits in 8 bytes for every p in [0, 1].
    """
    scaled = p * 2.0**64
    hi = math.ceil(scaled)
    lo = hi - 2**12
    while lo < hi:
        mid = (lo + hi) // 2
        if float(mid) >= scaled:
            hi = mid
        else:
            lo = mid + 1
    return hi.to_bytes(8, "big")


def run_scenario(script: ScenarioScript, epsilon: float = DEFAULT_EPSILON) -> Trace:
    """Run the scripted loop for `horizon` ticks and return the full trace.

    Attacks are cumulative: the knowledge of an on-going attack never
    expires. The record of each event delivered is added to the fold of
    `analyze_attacks` (`attacks._Fold`), found through one index of the
    knowledge base per run; the fold takes each vulnerability once, on the
    tick that first reports it. A tick that folded a record takes the
    fold's attack model, and the planner runs at tick 0 and whenever that
    model is `!=` to the one before. The script checked every record and event, so the loop's
    games are built and solved through the cores of `build_game` and `plan`,
    which check nothing again, and each record's reward rules are compiled
    once, as it is folded. A compromised
    component behaves maliciously in a tick iff its per-tick draw falls
    below its compromise probability, so traces are bit-identical for equal
    (script, epsilon) pairs. The loop moves from event to event: tick 0 and
    each tick with events deliver, analyze and plan, and the run of ticks
    from such a tick up to the next event time, or the horizon, keeps its
    attack model and decision, so each attacked component's draws for the
    whole run are made as one column and the run's records are built
    together. A planning failure raises ScenarioAborted carrying the trace
    of the ticks completed so far. `epsilon` must be
    finite and non-negative, and `horizon` at most `TICK_BUDGET`; both are
    checked before tick 0, and a longer horizon raises BudgetExceededError.
    Anything but a ScenarioScript raises ScenarioError.
    """
    _check_script(script)
    epsilon = _check_epsilon(epsilon)
    if script.horizon > TICK_BUDGET:
        raise BudgetExceededError(f"horizon of {script.horizon} ticks exceeds budget {TICK_BUDGET}")
    model = script.model
    ids = model.component_ids

    def partial() -> Trace:
        return Trace(
            records=tuple(records),
            script_hash=script_fingerprint(script),
            seed=script.seed,
            epsilon=epsilon,
        )

    records: list[LoopRecord] = []
    prefix = _prefix(script.seed)
    timeline = script.timeline
    horizon = script.horizon
    next_event = 0
    # The script checked every record and event, so each first report is
    # folded as it is: its record found in one index, its rules compiled once.
    by_id = {rec.vuln_id: rec for rec in script.kb}
    fold = _Fold(model, model.compiled)
    att: AttackModel | None = None
    decision: AdaptationDecision | None = None

    tick = 0
    while tick < horizon:
        # The timeline is sorted, so the due events are the next ones.
        first = next_event
        while next_event < len(timeline) and timeline[next_event].time == tick:
            next_event += 1
        due = tuple(timeline[first:next_event])

        # The fold refuses a re-report, which cannot change the attack
        # model, and the loop replans when a fold changed the model.
        replanned = False
        folded = decision is None
        for ev in due:
            folded |= fold.add(by_id[ev.vuln_id])
        if folded:
            last, att = att, fold.attack_model()
            if att != last:
                try:
                    decision = _decide(_build(model, att, fold.entries), epsilon)
                except BudgetExceededError as e:
                    raise ScenarioAborted(e, partial()) from e
                replanned = True
                # A new epoch: within it, a tick's outcome depends only on
                # which attacked components draw malicious, and each draw
                # is tested against its component's byte bound.
                cells = [(index, _bound(att.probabilities[cid]))
                         for index, cid in enumerate(ids) if cid in att.probabilities]
                outcomes: dict[tuple[bool, ...], tuple[dict, dict, float]] = {}

        # No event falls between this tick and the next event time, so the
        # run up to it keeps this epoch: each cell draws its whole column.
        stop = timeline[next_event].time if next_event < len(timeline) else horizon
        times = range(tick, stop)
        columns = [[_cell(prefix, t, index) < bound for t in times] for index, bound in cells]
        patterns = list(zip(*columns)) if columns else [()] * len(times)
        for pattern in dict.fromkeys(patterns):
            if pattern not in outcomes:
                drawn = {cid for cid, malicious in zip(att.attacked, pattern) if malicious}
                realized_types = {cid: PlayerType.MALICIOUS if cid in drawn else PlayerType.NORMAL for cid in ids}
                realized_action = {cid: decision.strategy[cid][realized_types[cid]] for cid in ids}
                # The labels come from the planned strategy, whose game plays on the
                # script's model: one compiled model and memo serve plans and ticks.
                outcomes[pattern] = (realized_types, realized_action, _utility(model, realized_action))

        records += _run_records(times, map(outcomes.__getitem__, patterns), due, att, decision, replanned)
        tick = stop

    return partial()


def script_fingerprint(script: ScenarioScript) -> str:
    """Stable content hash of a scenario script.

    The hash covers every dataclass field of the script, its model, records,
    rules and events; a memo such as the model's `compiled` is no field and
    is left out. The model's fields sit at the top level and the records
    under `knowledge_base`. Anything but a ScenarioScript raises
    ScenarioError.
    """
    _check_script(script)
    doc = _fields(script)
    doc.update(_fields(doc.pop("model")), knowledge_base=doc.pop("kb"))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_fields)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _check_script(script: object) -> None:
    # The root rule alone, as `model._model_fault` applies it to a model: a
    # ScenarioScript checked its own fields when it was built.
    fault = _shape_fault(script, "a scenario script", ScenarioScript)
    if fault is not None:
        raise ScenarioError("", fault)


def _fields(obj: object) -> dict:
    # A dataclass as the dict of its fields; any other value is not encodable.
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    # The field names of a dataclass, read once per class.
    return tuple(f.name for f in dataclasses.fields(cls))


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


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _spliced(trace: Trace, encode: Callable[[object], str], pad: str = "") -> Iterator[str]:
    """The trace's JSON texts: the header, then one per record.

    Each record is spliced from fragments that are encoded once each: the
    attack model per object, the decision per replan, the realized tail per
    shared (types, action, utility) triple, and an event's component and
    vulnerability per distinct pair, with each event's time spliced in
    before them. `encode` writes a value at depth 0. With no `pad` the texts are
    compact; otherwise `encode` indents by two spaces and `pad` is a newline
    plus the record's own indentation. The encoder writes a newline only as
    layout, since it escapes every newline in a string, so a fragment moves
    deeper by replacing its newlines; compact text has none. Anything but
    a Trace raises ValueError naming its type, before the first text.
    """
    if not isinstance(trace, Trace):
        raise ValueError(f"expected a Trace, got {type(trace).__name__}")
    yield encode({"script_hash": trace.script_hash, "seed": trace.seed, "epsilon": trace.epsilon})
    field = pad + "  " if pad else ""
    colon = ": " if pad else ":"
    time_key = f'{{{field}"time"{colon}'
    events_key = f',{field}"events"{colon}'
    att_key = f',{field}"attack_model"{colon}'
    decision_key = f',{field}"decision"{colon}'
    # An event sits one level deeper than the record's fields, and its
    # fields one more: it opens with its time and goes on with the text of
    # its component and vulnerability, encoded once per pair.
    item = field + "  " if pad else ""
    event_key = f'{{{item}  "time"{colon}' if pad else '{"time":'
    event_tails: dict[tuple[str, str], str] = {}
    att = decision = None
    # The records keep the realized objects alive, so their ids stay unique
    # for the whole call.
    tails: dict[tuple[int, int, int], str] = {}
    for record in trace.records:
        if record.attack_model is not att:
            att = record.attack_model
            att_json = encode(_attack_model_obj(att)).replace("\n", field)
        if record.replanned and record.decision is not decision:
            decision = record.decision
            decision_json = encode(decision_obj(decision)).replace("\n", field)
        key = (id(record.realized_types), id(record.realized_action), id(record.realized_utility))
        tail = tails.get(key)
        if tail is None:
            # The last fields as an object at the record's depth: its closing
            # brace closes the record, and a comma replaces its opening one.
            tail_json = encode({
                "realized_types": {cid: t.value for cid, t in record.realized_types.items()},
                "realized_action": dict(record.realized_action),
                "realized_utility": record.realized_utility,
            })
            tail = tails[key] = "," + tail_json[1:].replace("\n", pad)
        time = record.time
        # int.__repr__ is what the encoder writes for an int; a bool or a
        # subclass goes through the encoder itself.
        time_json = int.__repr__(time) if type(time) is int else encode(time)
        events_json = "[]"
        if record.events:
            texts = []
            for ev in record.events:
                pair = (ev.component, ev.vuln_id)
                event_tail = event_tails.get(pair)
                if event_tail is None:
                    event_tail = event_tails[pair] = "," + encode(
                        {"component": ev.component, "vuln_id": ev.vuln_id})[1:].replace("\n", item)
                event_time = int.__repr__(ev.time) if type(ev.time) is int else encode(ev.time)
                texts.append(f"{event_key}{event_time}{event_tail}")
            events_json = f"[{item}{f',{item}'.join(texts)}{field}]"
        shown = decision_json if record.replanned else '"unchanged"'
        # Every fragment is JSON text already.
        yield f"{time_key}{time_json}{events_key}{events_json}{att_key}{att_json}{decision_key}{shown}{tail}"


def trace_to_lines(trace: Trace) -> list[str]:
    """Line-delimited serialization: one header line, then one line per tick.

    Each line is what `json.dumps(obj, separators=(",", ":"))` writes for its
    header or record, spliced from fragments that are encoded once each.
    """
    return list(_spliced(trace, _encode))


def write_trace(trace: Trace, out: IO[str]) -> None:
    """Write the lines of `trace_to_lines`, each ended by a newline, as they are spliced."""
    out.writelines(line + "\n" for line in _spliced(trace, _encode))
