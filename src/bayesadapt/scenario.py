"""Scenario document parsing, and the checked script it yields.

A scenario is a single JSON object describing the managed system, the
vulnerability knowledge base and a timeline of attack events:

    {
      "components": [{"id": "lb", "actions": ["to_s1", "to_s2"], "baseline": "to_s1"}, ...],
      "quality_attributes": [{"name": "perf", "weight": 1.0}],
      "utility_rules": [{"when": {"lb": "to_s1", "s1": "serve"}, "scores": {"perf": 10}}, ...],
      "utility_default": {"perf": 0},
      "knowledge_base": {"vulnerabilities": {"cve-x": {
          "component": "s1", "compromise_probability": 0.6,
          "malicious_actions": ["drop"],
          "reward_rules": [{"when": {"lb": "to_s1", "s1": "drop"}, "reward": 5}],
          "reward_default": 0}}},
      "timeline": [{"time": 2, "component": "s1", "vuln_id": "cve-x"}],
      "horizon": 4,
      "seed": 0
    }

The field tables below (`_DOCUMENT` and the tables it reaches) are the one
statement of this format: each row names a field, its reader, the
description its messages use and, for an optional field, its default, and
one reader, `_object`, reads every object by its table. `knowledge_base`,
`timeline`, `horizon` and `seed` are optional; a missing horizon defaults to
one past the last event (or 1). Parse errors name the path of the offending
field. Every object accepts only the fields of its table; `when`, `scores`,
`utility_default` and `vulnerabilities` are keyed by data.
Numbers must be finite: `NaN`, `Infinity` and numbers beyond the float range
are rejected wherever they appear. An object that repeats a key is rejected
too, rather than keep only the key's last value.

The parser only reads JSON into dataclasses; every semantic check (unknown
components and labels, probabilities, the model's invariants, the timeline)
runs once, when the `ScenarioScript` is constructed, with the same paths,
for a parsed script and for one built by hand. The timeline resolves through
the analyzer's one resolver in `attacks`. The module depends only on
`attacks` and `model`, never on the game, solver, Shapley or loop layers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .attacks import (_RULE, AttackAnalysisError, AttackEvent, VulnerabilityRecord, _resolve_events,
                      knowledge_base_actions)
from .model import (_ARRAY, Component, QualityAttribute, SystemModel, UtilityRule, _label_fault, _number_fault,
                    _shape_fault)

__all__ = [
    "ScenarioError",
    "ScenarioScript",
    "parse_scenario",
    "parse_scenario_file",
    "parse_system_model",
]


class ScenarioError(ValueError):
    """A scenario document or script is malformed or violates a model invariant."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class ScenarioScript:
    """A complete simulation input: system, knowledge base, timeline, horizon.

    Construction runs every semantic check of a scenario, parsed or built by
    hand, and names the document path of the first fault: a field in
    another shape than the parser reads (a string of actions, a `when` that
    is no mapping, a timeline or list of rules that is no array, an
    array's item that is not of the class the parser builds for it); a
    component id, action, attack label, attribute name, vulnerability id or
    event field that is not a string, as the parser reads them; a repeated
    vulnerability id, a record the analyzer's record rule rejects (a
    probability that is no number in [0, 1], no malicious action, a reward
    that is no finite number) or an event the knowledge base cannot
    resolve; a record whose component is unknown or whose malicious actions
    are not all admitted by `model.allowed_actions`, with the parser's
    messages; a model that `validate_model` rejects, a verdict the model
    keeps for every game on it; a reward rule naming an
    unknown component or label; a horizon, seed or event time that is not
    an `int` (a `bool` is not); a negative horizon; a timeline that is
    unsorted, has negative times or reaches past the horizon.
    """

    model: SystemModel
    kb: tuple[VulnerabilityRecord, ...]
    timeline: tuple[AttackEvent, ...]
    horizon: int
    seed: int = 0

    def __post_init__(self):
        _check_strings(self)
        try:
            _resolve_events(self.timeline, self.kb, self.model)
        except AttackAnalysisError as e:
            raise ScenarioError(e.path, str(e)) from None
        # Records before the model: an unknown record component would otherwise
        # reach the model's check through the attack labels, at a path no document has.
        for rec in self.kb:
            _check_record(rec, self.model)
        problems = self.model._violations
        if problems:
            raise ScenarioError(problems[0].path, "; ".join(str(v) for v in problems))
        for rec in self.kb:
            for j, rule in enumerate(rec.reward_rules):
                for cid, label in rule.when.items():
                    _check_label(self.model, cid, label,
                                 f"knowledge_base.vulnerabilities.{rec.vuln_id}.reward_rules[{j}].when.{cid}")
        # Exact ints, as parsed: a float horizon fails in `range`, a float
        # time is delivered at the equal tick and a bool seed hashes as `True`.
        _expect(self.horizon, int, "horizon", "an integer tick count")
        _expect(self.seed, int, "seed", "an integer seed")
        last = -1
        for i, ev in enumerate(self.timeline):
            _expect(ev.time, int, f"timeline[{i}].time", "a nonnegative tick")
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


def _check_strings(script: ScenarioScript) -> None:
    # The fields of a script built by hand have the shapes the parser reads,
    # and its ids hold strings, as parsed: the checks below iterate and hash
    # them. The model's own are the `MalformedField`s of its one check.
    model, kb, timeline = script.model, script.kb, script.timeline
    shapes = [(v.path, v.message) for v in model._violations if v.code == "MalformedField"]
    shapes += [(path, _shape_fault(value, what, _ARRAY)) for value, what, path in (
        (kb, "an object keyed by vulnerability id", "knowledge_base.vulnerabilities"),
        (timeline, "an array of attack events", "timeline")) if not isinstance(value, _ARRAY)]
    if shapes:
        raise ScenarioError(*shapes[0])
    # each item is of the class the parser builds; a record that is not has
    # no id to key its path, so its index stands in
    items = [(f"knowledge_base.vulnerabilities[{i}]", _shape_fault(r, *_RECORD[:2]))
             for i, r in enumerate(kb) if not isinstance(r, VulnerabilityRecord)]
    items += [(f"timeline[{i}]", _shape_fault(e, *_EVENT[:2])) for i, e in enumerate(timeline)
              if not isinstance(e, AttackEvent)]
    if items:
        raise ScenarioError(*items[0])
    faults = [(r.vuln_id, f"knowledge_base.vulnerabilities.{r.vuln_id}", "a vulnerability id")
              for r in kb if not isinstance(r.vuln_id, str)]
    faults += [(e.component, f"timeline[{i}].component", "a component id")
               for i, e in enumerate(timeline) if not isinstance(e.component, str)]
    faults += [(e.vuln_id, f"timeline[{i}].vuln_id", "a vulnerability id")
               for i, e in enumerate(timeline) if not isinstance(e.vuln_id, str)]
    if faults:
        value, path, what = faults[0]
        _expect(value, str, path, what)


def _check_record(rec: VulnerabilityRecord, model: SystemModel) -> None:
    # The record's component and labels; `_resolve_events` checked the rest.
    path = f"knowledge_base.vulnerabilities.{rec.vuln_id}"
    if rec.component not in model.component_ids:
        raise ScenarioError(f"{path}.component", f"unknown component {rec.component!r}")
    for j, label in enumerate(rec.malicious_actions):
        _check_label(model, rec.component, label, f"{path}.malicious_actions[{j}]")


def _check_label(model: SystemModel, cid: str, label: str, path: str) -> None:
    fault = _label_fault(model, cid, label)
    if fault is not None:
        raise ScenarioError(path, fault[2])


def _expect(value: Any, kind: type, path: str, what: str) -> Any:
    if isinstance(value, bool) and kind is int:
        raise ScenarioError(path, f"expected {what}, got a boolean")
    if not isinstance(value, kind) or kind is int and type(value) is not int:
        raise ScenarioError(path, f"expected {what}, got {type(value).__name__}")
    return value


def _kind(kind: type) -> Callable[[Any, str, str], Any]:
    return lambda value, path, what: _expect(value, kind, path, what)


def _number(value: Any, path: str, what: str) -> float:
    if type(value) is float and math.isfinite(value):  # as JSON gives most numbers
        return value
    fault = _number_fault(value, what)
    if fault is not None:
        raise ScenarioError(path, fault)
    return float(value)


def _labels(value: Any, path: str, what: str) -> tuple[str, ...]:
    _expect(value, list, path, what)
    return tuple(_expect(a, str, f"{path}[{j}]", "an action label") for j, a in enumerate(value))


def _string_map(value: Any, path: str, what: str) -> dict[str, str]:
    _expect(value, dict, path, what)
    return {k: _expect(v, str, f"{path}.{k}", "an action label") for k, v in value.items()}


def _number_map(value: Any, path: str, what: str) -> dict[str, float]:
    _expect(value, dict, path, what)
    return {k: _number(v, f"{path}.{k}", "a number") for k, v in value.items()}


def _array(table: tuple) -> Callable[[Any, str, str], tuple]:
    def read(value: Any, path: str, what: str) -> tuple:
        _expect(value, list, path, what)
        return tuple(_object(raw, f"{path}[{i}]", table) for i, raw in enumerate(value))
    return read


def _keyed(table: tuple) -> Callable[[Any, str, str], tuple]:
    # An object keyed by data: each key leads its object's values.
    def read(value: Any, path: str, what: str) -> tuple:
        _expect(value, dict, path, what)
        return tuple(_object(raw, f"{path}.{key}", table, key) for key, raw in value.items())
    return read


# Defaults that are not values: a required field, and the horizon one past the last event.
_REQUIRED, _AFTER_TIMELINE = object(), object()


def _table(what: str, build: Callable, *rows: tuple) -> tuple:
    """A document object's field table: its description, the callable its
    values build, and one `(name, reader, description[, default])` row per
    field, in reading order. A row without a default is required."""
    rows = tuple(row if len(row) == 4 else (*row, _REQUIRED) for row in rows)
    names = [row[0] for row in rows]
    return what, build, frozenset(names), ", ".join(names), rows


def _object(raw: Any, path: str, table: tuple, *key: str) -> Any:
    """Read the JSON object `raw` at `path` by its field table."""
    described, build, names, listed, rows = table
    _expect(raw, dict, path, described)
    if not raw.keys() <= names:
        # A misspelt optional field would otherwise be silently ignored.
        name = next(name for name in raw if name not in names)
        raise ScenarioError(f"{path}.{name}" if path else name, f"unknown field (expected one of: {listed})")
    values = []
    for name, read, what, default in rows:
        where = f"{path}.{name}" if path else name
        if name in raw:
            values.append(read(raw[name], where, what))
        elif default is _REQUIRED:
            raise ScenarioError(where, f"missing required field ({what})")
        else:
            values.append(default)
    return build(*key, *values)


class _RepeatedKey(dict):
    # A JSON object that repeated `key`; the parsed dict kept its last value.
    key = ""


def _json_object(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _RepeatedKey(obj)
        seen: set[str] = set()
        for k, _v in pairs:
            if k in seen:
                obj.key = k
                break
            seen.add(k)
    return obj


def _reject_unsound(value: Any, path: str) -> None:
    # json.loads accepts NaN, Infinity and -Infinity, reads a number beyond
    # the float range as an infinity, and keeps the last of repeated keys.
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ScenarioError(path, f"non-finite number {value!r}")
    elif isinstance(value, dict):
        if isinstance(value, _RepeatedKey):
            raise ScenarioError(f"{path}.{value.key}" if path else value.key, "repeated key")
        for k, v in value.items():
            _reject_unsound(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _reject_unsound(v, f"{path}[{i}]")


def _script(components, attributes, rules, default, kb, timeline, horizon, seed) -> ScenarioScript:
    # The labels the knowledge base lets a compromised component play become
    # the model's attack labels, admissible in utility rules, reward rules and
    # joint actions. The default horizon reads the event times, checked ints.
    model = SystemModel(components, attributes, rules, default, knowledge_base_actions(kb))
    if horizon is _AFTER_TIMELINE:
        horizon = (timeline[-1].time + 1) if timeline else 1
    return ScenarioScript(model=model, kb=kb, timeline=timeline, horizon=horizon, seed=seed)


# The document format, stated once: every object's fields, readers and
# messages. The parser reads nothing that is not in a table.
_COMPONENT = _table(
    "a component object", Component,
    ("id", _kind(str), "a component id"),
    ("actions", _labels, "an array of action labels"),
    ("baseline", _kind(str), "a baseline action label"),
)
_ATTRIBUTE = _table(
    "a quality attribute object", QualityAttribute,
    ("name", _kind(str), "an attribute name"),
    ("weight", _number, "a numeric weight"),
)
_UTILITY_RULE = _table(
    "a utility rule object", UtilityRule,
    ("when", _string_map, "a partial joint action"),
    ("scores", _number_map, "per-attribute scores"),
)
_REWARD_RULE = _table(
    *_RULE,
    ("when", _string_map, "a partial joint action"),
    ("reward", _number, "a numeric reward"),
)
_RECORD = _table(  # keyed by its vulnerability id
    "a vulnerability record", VulnerabilityRecord,
    ("component", _kind(str), "a component id"),
    ("compromise_probability", _number, "a probability"),
    ("malicious_actions", _labels, "an array of action labels"),
    ("reward_rules", _array(_REWARD_RULE), "an array of reward rules", ()),
    ("reward_default", _number, "a numeric reward", 0.0),
)
_EVENT = _table(
    "an attack event object", AttackEvent,
    ("time", _kind(int), "a nonnegative tick"),
    ("component", _kind(str), "a component id"),
    ("vuln_id", _kind(str), "a vulnerability id"),
)
_KNOWLEDGE_BASE = _table(
    "a knowledge base object", lambda records: records,
    ("vulnerabilities", _keyed(_RECORD), "an object keyed by vulnerability id", ()),
)
_DOCUMENT = _table(
    "a JSON object", _script,
    ("components", _array(_COMPONENT), "an array of components"),
    ("quality_attributes", _array(_ATTRIBUTE), "an array of quality attributes"),
    ("utility_rules", _array(_UTILITY_RULE), "an array of utility rules", ()),
    ("utility_default", _number_map, "per-attribute default scores"),
    ("knowledge_base", lambda value, path, what: _object(value, path, _KNOWLEDGE_BASE),
     "a knowledge base object", ()),
    ("timeline", _array(_EVENT), "an array of attack events", ()),
    # Any value: ScenarioScript checks these two, as for a script built by hand.
    ("horizon", _kind(object), "an integer tick count", _AFTER_TIMELINE),
    ("seed", _kind(object), "an integer seed", 0),
)


def parse_scenario(text: str) -> ScenarioScript:
    """Parse a scenario document into a validated ScenarioScript."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
        _reject_unsound(doc, "")
    except json.JSONDecodeError as e:
        raise ScenarioError("", f"not valid JSON: {e}") from None
    except RecursionError:
        raise ScenarioError("", "document nested too deeply") from None
    return _object(doc, "", _DOCUMENT)


def parse_scenario_file(path: str | Path) -> ScenarioScript:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def parse_system_model(text: str) -> SystemModel:
    """Parse a scenario document and return just the system model."""
    return parse_scenario(text).model
