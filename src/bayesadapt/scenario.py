"""Scenario document parsing.

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

`knowledge_base`, `timeline`, `horizon` and `seed` are optional; a missing
horizon defaults to one past the last event (or 1). Parse errors name the
path of the offending field. Every object accepts only the fields shown;
`when`, `scores`, `utility_default` and `vulnerabilities` are keyed by data.
Numbers must be finite: `NaN`, `Infinity` and numbers beyond the float range
are rejected wherever they appear, and so is a model whose utilities could
overflow (see `validate_model`). An object that repeats a key is rejected
too, rather than keep only the key's last value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .attacks import AttackEvent, RewardRule, VulnerabilityRecord, knowledge_base_actions
from .loop import ScenarioError, ScenarioScript
from .model import Component, QualityAttribute, SystemModel, UtilityRule, validate_model

__all__ = [
    "ScenarioError",
    "parse_scenario",
    "parse_scenario_file",
    "parse_system_model",
]


def _expect(value: Any, kind: type | tuple[type, ...], path: str, what: str) -> Any:
    if isinstance(value, bool) and kind in (int, float, (int, float)):
        raise ScenarioError(path, f"expected {what}, got a boolean")
    if not isinstance(value, kind):
        raise ScenarioError(path, f"expected {what}, got {type(value).__name__}")
    return value


def _fields(obj: dict, path: str, known: tuple[str, ...]) -> None:
    # A misspelt optional field would otherwise be silently ignored.
    for key in obj:
        if key not in known:
            raise ScenarioError(f"{path}.{key}" if path else key,
                                f"unknown field (expected one of: {', '.join(known)})")


def _get(obj: dict, key: str, kind: type | tuple[type, ...], path: str, what: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"{path}.{key}" if path else key, f"missing required field ({what})")
    return _expect(obj[key], kind, f"{path}.{key}" if path else key, what)


def _string_map(value: Any, path: str) -> dict[str, str]:
    _expect(value, dict, path, "an object of action labels")
    out: dict[str, str] = {}
    for k, v in value.items():
        out[k] = _expect(v, str, f"{path}.{k}", "an action label")
    return out


def _number(value: Any, path: str, what: str) -> float:
    _expect(value, (int, float), path, what)
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(path, f"expected {what}, got an integer beyond the float range") from None


def _number_map(value: Any, path: str) -> dict[str, float]:
    _expect(value, dict, path, "an object of numeric scores")
    out: dict[str, float] = {}
    for k, v in value.items():
        out[k] = _number(v, f"{path}.{k}", "a number")
    return out


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


def parse_scenario(text: str) -> ScenarioScript:
    """Parse a scenario document into a validated ScenarioScript."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
        _reject_unsound(doc, "")
    except json.JSONDecodeError as e:
        raise ScenarioError("", f"not valid JSON: {e}") from None
    except RecursionError:
        raise ScenarioError("", "document nested too deeply") from None
    _expect(doc, dict, "", "a JSON object")
    _fields(doc, "", ("components", "quality_attributes", "utility_rules", "utility_default",
                      "knowledge_base", "timeline", "horizon", "seed"))

    model, kb = _parse_model(doc)
    timeline = _parse_timeline(doc, kb)

    if "horizon" in doc:
        horizon = _expect(doc["horizon"], int, "horizon", "an integer tick count")
    else:
        horizon = (timeline[-1].time + 1) if timeline else 1
    seed = _expect(doc.get("seed", 0), int, "seed", "an integer seed")

    return ScenarioScript(model=model, kb=kb, timeline=timeline, horizon=horizon, seed=seed)


def parse_scenario_file(path: str | Path) -> ScenarioScript:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def parse_system_model(text: str) -> SystemModel:
    """Parse a scenario document and return just the system model."""
    return parse_scenario(text).model


def _parse_model(doc: dict) -> tuple[SystemModel, tuple[VulnerabilityRecord, ...]]:
    # The knowledge base is parsed with the model: the labels it lets a
    # compromised component play become admissible in utility rules.
    raw_components = _get(doc, "components", list, "", "an array of components")
    components: list[Component] = []
    for i, raw in enumerate(raw_components):
        path = f"components[{i}]"
        _expect(raw, dict, path, "a component object")
        _fields(raw, path, ("id", "actions", "baseline"))
        cid = _get(raw, "id", str, path, "a component id")
        actions_raw = _get(raw, "actions", list, path, "an array of action labels")
        actions = tuple(
            _expect(a, str, f"{path}.actions[{j}]", "an action label")
            for j, a in enumerate(actions_raw)
        )
        baseline = _get(raw, "baseline", str, path, "a baseline action label")
        components.append(Component(id=cid, actions=actions, baseline=baseline))

    raw_attrs = _get(doc, "quality_attributes", list, "", "an array of quality attributes")
    attributes: list[QualityAttribute] = []
    for i, raw in enumerate(raw_attrs):
        path = f"quality_attributes[{i}]"
        _expect(raw, dict, path, "a quality attribute object")
        _fields(raw, path, ("name", "weight"))
        name = _get(raw, "name", str, path, "an attribute name")
        weight = _number(_get(raw, "weight", (int, float), path, "a numeric weight"),
                         f"{path}.weight", "a numeric weight")
        attributes.append(QualityAttribute(name=name, weight=weight))

    rules: list[UtilityRule] = []
    raw_rules = _expect(doc.get("utility_rules", []), list, "utility_rules", "an array of utility rules")
    for i, raw in enumerate(raw_rules):
        path = f"utility_rules[{i}]"
        _expect(raw, dict, path, "a utility rule object")
        _fields(raw, path, ("when", "scores"))
        when = _string_map(_get(raw, "when", dict, path, "a partial joint action"), f"{path}.when")
        scores = _number_map(_get(raw, "scores", dict, path, "per-attribute scores"), f"{path}.scores")
        rules.append(UtilityRule(when=when, scores=scores))

    default = _number_map(
        _get(doc, "utility_default", dict, "", "per-attribute default scores"), "utility_default"
    )

    kb = _parse_knowledge_base(doc, {c.id for c in components})
    model = SystemModel(
        components=tuple(components),
        quality_attributes=tuple(attributes),
        utility_rules=tuple(rules),
        utility_default=default,
        attack_actions=knowledge_base_actions(kb),
    )

    problems = validate_model(model)
    if problems:
        first = problems[0]
        detail = "; ".join(str(v) for v in problems)
        raise ScenarioError(first.path, detail)
    _check_reward_rules(kb, model)
    return model, kb


def _parse_knowledge_base(doc: dict, known: set[str]) -> tuple[VulnerabilityRecord, ...]:
    if "knowledge_base" not in doc:
        return ()
    kb = _expect(doc["knowledge_base"], dict, "knowledge_base", "a knowledge base object")
    _fields(kb, "knowledge_base", ("vulnerabilities",))
    vulns = kb.get("vulnerabilities", {})
    _expect(vulns, dict, "knowledge_base.vulnerabilities", "an object keyed by vulnerability id")

    records: list[VulnerabilityRecord] = []
    for vuln_id, raw in vulns.items():
        path = f"knowledge_base.vulnerabilities.{vuln_id}"
        _expect(raw, dict, path, "a vulnerability record")
        _fields(raw, path, ("component", "compromise_probability", "malicious_actions",
                            "reward_rules", "reward_default"))
        cid = _get(raw, "component", str, path, "a component id")
        if cid not in known:
            raise ScenarioError(f"{path}.component", f"unknown component {cid!r}")
        prob = _number(_get(raw, "compromise_probability", (int, float), path, "a probability"),
                       f"{path}.compromise_probability", "a probability")
        if not 0.0 <= prob <= 1.0:
            raise ScenarioError(f"{path}.compromise_probability", f"probability {prob} outside [0, 1]")
        actions_raw = _get(raw, "malicious_actions", list, path, "an array of action labels")
        if not actions_raw:
            raise ScenarioError(f"{path}.malicious_actions", "at least one malicious action is required")
        actions = tuple(
            _expect(a, str, f"{path}.malicious_actions[{j}]", "an action label")
            for j, a in enumerate(actions_raw)
        )
        rules: list[RewardRule] = []
        raw_rules = _expect(raw.get("reward_rules", []), list, f"{path}.reward_rules",
                            "an array of reward rules")
        for j, rr in enumerate(raw_rules):
            rpath = f"{path}.reward_rules[{j}]"
            _expect(rr, dict, rpath, "a reward rule object")
            _fields(rr, rpath, ("when", "reward"))
            when = _string_map(_get(rr, "when", dict, rpath, "a partial joint action"), f"{rpath}.when")
            reward = _number(_get(rr, "reward", (int, float), rpath, "a numeric reward"),
                             f"{rpath}.reward", "a numeric reward")
            rules.append(RewardRule(when=when, reward=reward))
        reward_default = _number(raw.get("reward_default", 0.0), f"{path}.reward_default",
                                 "a numeric reward")
        records.append(
            VulnerabilityRecord(
                vuln_id=vuln_id,
                component=cid,
                compromise_probability=prob,
                malicious_actions=actions,
                reward_rules=tuple(rules),
                reward_default=reward_default,
            )
        )
    return tuple(records)


def _check_reward_rules(kb: tuple[VulnerabilityRecord, ...], model: SystemModel) -> None:
    known = set(model.component_ids)
    for rec in kb:
        for j, rule in enumerate(rec.reward_rules):
            for wcid, wlabel in rule.when.items():
                path = f"knowledge_base.vulnerabilities.{rec.vuln_id}.reward_rules[{j}].when.{wcid}"
                if wcid not in known:
                    raise ScenarioError(path, f"unknown component {wcid!r}")
                if wlabel not in model.allowed_actions(wcid):
                    raise ScenarioError(path, f"unknown action {wlabel!r} for component {wcid!r}")


def _parse_timeline(doc: dict, kb: tuple[VulnerabilityRecord, ...]) -> tuple[AttackEvent, ...]:
    if "timeline" not in doc:
        return ()
    raw_events = _expect(doc["timeline"], list, "timeline", "an array of attack events")
    by_id = {rec.vuln_id: rec for rec in kb}

    events: list[AttackEvent] = []
    for i, raw in enumerate(raw_events):
        path = f"timeline[{i}]"
        _expect(raw, dict, path, "an attack event object")
        _fields(raw, path, ("time", "component", "vuln_id"))
        time = _get(raw, "time", int, path, "a nonnegative tick")
        cid = _get(raw, "component", str, path, "a component id")
        vuln_id = _get(raw, "vuln_id", str, path, "a vulnerability id")
        rec = by_id.get(vuln_id)
        if rec is None:
            raise ScenarioError(f"{path}.vuln_id", f"unknown vulnerability {vuln_id!r}")
        if rec.component != cid:
            raise ScenarioError(
                f"{path}.component",
                f"event component {cid!r} does not match vulnerability {vuln_id!r} "
                f"(declared for {rec.component!r})",
            )
        events.append(AttackEvent(time=time, component=cid, vuln_id=vuln_id))
    return tuple(events)
