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

The input dataclasses' field tables (`model._FIELDS`) are the one
statement of this format's shapes: each row names a field, its shape and
the description its messages use, and one reader, `_object`, reads every
object by its class's table. The document is `ScenarioScript`'s table with
the model's rows in place of `model` (without `attack_actions`, which the
document derives from its knowledge base) and the knowledge base under
`knowledge_base.vulnerabilities`. What is specific to JSON stays here:
unknown keys, required fields and defaults, objects keyed by data, repeated
keys and non-finite numbers. `knowledge_base`, `timeline`, `horizon` and
`seed` are optional; a missing horizon defaults to one past the last event
(or 1). Parse errors name the path of the offending field. Every object
accepts only the fields of its table; `when`, `scores`, `utility_default`
and `vulnerabilities` are keyed by data.
Numbers must be finite: `NaN`, `Infinity` and numbers beyond the float range
are rejected, and so are an integer of more digits than `int` converts and an
object that repeats a key rather than keep only the key's last value, each
where the reader reads it; inside a field the document does not know, the
unknown field is the fault.

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
import os
from collections.abc import Callable
from dataclasses import dataclass

from .attacks import (_KB, _TIMELINE, AttackAnalysisError, AttackEvent, VulnerabilityRecord, _resolve_events,
                      knowledge_base_actions)
from .model import (_FIELDS, _KEYED, _MODEL, SystemModel, _label_fault, _number_fault, _shape_fault,
                    _shape_faults)

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

    Construction runs every check of a scenario, parsed or built by hand,
    and names the document path of the first fault: a value in another
    shape than its row of the field tables, walked from
    `_FIELDS[ScenarioScript]` down; a repeated vulnerability id, a record
    the analyzer's record rule rejects or an event the knowledge base cannot
    resolve; a record whose component or malicious action the model does
    not know; a model that `validate_model` rejects, a verdict the model
    keeps for every game on it; a reward rule naming an unknown component
    or label; a negative horizon; a timeline that is unsorted, has negative
    times or reaches past the horizon.
    """

    model: SystemModel
    kb: tuple[VulnerabilityRecord, ...]
    timeline: tuple[AttackEvent, ...]
    horizon: int
    seed: int = 0

    def __post_init__(self):
        for path, _value, fault in _shape_faults(self, ScenarioScript, "a scenario script"):
            raise ScenarioError(path, fault)
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


# Exact ints, as parsed: a float horizon fails in `range`, a float time is
# delivered at the equal tick and a bool seed hashes as `True`.
_FIELDS[ScenarioScript] = (
    ("model", *_MODEL, ""),  # the document's root holds the model's fields
    _KB,
    _TIMELINE,
    ("horizon", int, "an integer tick count"),
    ("seed", int, "an integer seed"),
)


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


class _RepeatedKey(dict):
    # A JSON object that repeated `key`; the parsed dict kept its last value.
    key = ""


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    # The decoder's object hook. `json.loads` keeps the last of repeated keys,
    # accepts NaN and Infinity and reads a number beyond the float range as
    # an infinity; `_expect` rejects both where the readers read them.
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


class _LongInt(str):
    # The digits of an integer longer than `int` converts.
    pass


def _json_int(digits: str) -> int | _LongInt:
    # The decoder's integer hook: `int` raises a bare ValueError past the
    # interpreter's limit on digits, so such digits are kept for `_expect`.
    try:
        return int(digits)
    except ValueError:
        return _LongInt(digits)


def _expect(value: object, kind: object, path: str, what: str) -> object:
    # Each value a reader reads comes here, or through `_number`: a repeated
    # key, a non-finite number or an integer too long to convert in any
    # field, then the one shape rule.
    if type(value) is _RepeatedKey:
        raise ScenarioError(f"{path}.{value.key}" if path else value.key, "repeated key")
    if type(value) is float and not math.isfinite(value):
        raise ScenarioError(path, f"non-finite number {value!r}")
    if type(value) is _LongInt:
        raise ScenarioError(path, f"integer of {len(value.lstrip('-'))} digits exceeds the conversion limit")
    fault = _shape_fault(value, what, kind)
    if fault is not None:
        raise ScenarioError(path, fault)
    return value


def _number(value: object, path: str, what: str) -> float:
    if type(value) is float and math.isfinite(value):  # as JSON gives most numbers
        return value
    # Every value is an `object`: `_expect` rejects only a repeated key or a non-finite number.
    fault = _number_fault(_expect(value, object, path, what), what)
    if fault is not None:
        raise ScenarioError(path, fault)
    return float(value)


def _reader(shape: object, what: str) -> Callable[[object, str], object]:
    """The reader of a JSON value in `shape` (see `model._FIELDS`) at a path."""
    kind = shape[0] if type(shape) is tuple else shape
    if kind is float:
        return lambda value, path: _number(value, path, what)
    if kind is str or kind is int:
        return lambda value, path: _expect(value, kind, path, what)
    if kind is list:
        item = _reader(*shape[1:])
        return lambda value, path: tuple([item(x, f"{path}[{i}]")
                                          for i, x in enumerate(_expect(value, list, path, what))])
    if kind is dict:
        item = _reader(*shape[1:])
        return lambda value, path: {k: item(x, f"{path}.{k}") for k, x in _expect(value, dict, path, what).items()}
    if kind is _KEYED:  # each key leads its object's values
        table = _table(shape[2], shape[1], _FIELDS[shape[1]])
        return lambda value, path: tuple([_object(x, f"{path}.{k}", table, k)
                                          for k, x in _expect(value, dict, path, what).items()])
    # an object of a class, or one the document alone has, read by its own table
    table = _table(what, kind, _FIELDS[kind]) if kind in _FIELDS else shape
    return lambda value, path: _object(value, path, table)


# Defaults that are not values: a required field, and the horizon one past the last event.
_REQUIRED, _AFTER_TIMELINE = object(), object()
# Each optional document field's default, by name: no name is optional in one object and required in another.
_DEFAULTS = {"utility_rules": (), "knowledge_base": (), "vulnerabilities": (), "timeline": (),
             "horizon": _AFTER_TIMELINE, "seed": 0, "reward_rules": (), "reward_default": 0.0}


def _table(what: str, build: Callable, rows: tuple) -> tuple:
    """A document object's reading table: its description, the callable its
    values build, and one `(name, reader, description, default)` entry per
    field of `rows`, the object's field table rows, in reading order. A row
    the document holds at its holder's own path (a key) is not a field."""
    rows = tuple((name, _reader(shape, field_what), field_what, _DEFAULTS.get(name, _REQUIRED))
                 for name, shape, field_what, *held in rows if held != [""])
    names = [row[0] for row in rows]
    return what, build, frozenset(names), ", ".join(names), rows


def _object(raw: object, path: str, table: tuple, *key: str) -> object:
    """Read the JSON object `raw` at `path` by its reading table."""
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
            values.append(read(raw[name], where))
        elif default is _REQUIRED:
            raise ScenarioError(where, f"missing required field ({what})")
        else:
            values.append(default)
    return build(*key, *values)


def _script(components, attributes, rules, default, kb, timeline, horizon, seed) -> ScenarioScript:
    # The labels the knowledge base lets a compromised component play become
    # the model's attack labels, admissible in utility rules, reward rules and
    # joint actions. The default horizon reads the event times, checked ints.
    model = SystemModel(components, attributes, rules, default, knowledge_base_actions(kb))
    if horizon is _AFTER_TIMELINE:
        horizon = (timeline[-1].time + 1) if timeline else 1
    return ScenarioScript(model=model, kb=kb, timeline=timeline, horizon=horizon, seed=seed)


# The document: `ScenarioScript`'s rows, with the model's but `attack_actions`
# in place of `model`, and the knowledge base in an object of its own.
_KNOWLEDGE_BASE = _table("a knowledge base object", lambda records: records, (("vulnerabilities", *_KB[1:3]),))
_DOCUMENT = _table("a JSON object", _script, (
    *_FIELDS[SystemModel][:-1],
    ("knowledge_base", _KNOWLEDGE_BASE, "a knowledge base object"),
    *_FIELDS[ScenarioScript][2:],
))


def parse_scenario(text: str) -> ScenarioScript:
    """Parse a scenario document into a validated ScenarioScript."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object, parse_int=_json_int)
    except json.JSONDecodeError as e:
        raise ScenarioError("", f"not valid JSON: {e}") from None
    except RecursionError:
        raise ScenarioError("", "document nested too deeply") from None
    return _object(doc, "", _DOCUMENT)


def parse_scenario_file(path: str | os.PathLike[str]) -> ScenarioScript:
    with open(path, encoding="utf-8") as f:
        return parse_scenario(f.read())


def parse_system_model(text: str) -> SystemModel:
    """Parse a scenario document and return just the system model."""
    return parse_scenario(text).model
