from __future__ import annotations

import dataclasses
import json
import re
import sys

import pytest

from conftest import REPO_ROOT

from bayesadapt import (
    Component,
    QualityAttribute,
    RewardRule,
    ScenarioError,
    UtilityRule,
    parse_scenario,
    parse_scenario_file,
    parse_system_model,
)


def lb3_doc() -> dict:
    return {
        "components": [
            {"id": "lb", "actions": ["to_s1", "to_s2"], "baseline": "to_s1"},
            {"id": "s1", "actions": ["serve", "drop"], "baseline": "serve"},
            {"id": "s2", "actions": ["serve", "drop"], "baseline": "serve"},
        ],
        "quality_attributes": [{"name": "perf", "weight": 1.0}],
        "utility_rules": [
            {"when": {"lb": "to_s1", "s1": "serve"}, "scores": {"perf": 10}},
            {"when": {"lb": "to_s2", "s2": "serve"}, "scores": {"perf": 8}},
        ],
        "utility_default": {"perf": 0},
        "knowledge_base": {
            "vulnerabilities": {
                "cve-x": {
                    "component": "s1",
                    "compromise_probability": 0.6,
                    "malicious_actions": ["drop"],
                    "reward_rules": [{"when": {"lb": "to_s1", "s1": "drop"}, "reward": 5}],
                    "reward_default": 0,
                }
            }
        },
        "timeline": [{"time": 2, "component": "s1", "vuln_id": "cve-x"}],
        "horizon": 4,
        "seed": 0,
    }


def test_canonical_document_parses(lb3_path):
    script = parse_scenario(lb3_path.read_text(encoding="utf-8"))
    model = script.model
    assert model.component_ids == ("lb", "s1", "s2")
    assert [q.name for q in model.quality_attributes] == ["perf"]
    assert model.quality_attributes[0].weight == 1.0
    assert len(model.utility_rules) == 2
    assert model.utility_rules[0].when == {"lb": "to_s1", "s1": "serve"}
    assert script.horizon == 4
    assert script.seed == 0
    assert len(script.kb) == 1 and script.kb[0].vuln_id == "cve-x"
    assert len(script.timeline) == 1 and script.timeline[0].time == 2


def test_declaration_order_preserved():
    doc = lb3_doc()
    doc["components"] = list(reversed(doc["components"]))
    del doc["utility_rules"]  # rules reference the old order, not under test here
    model = parse_system_model(json.dumps(doc))
    assert model.component_ids == ("s2", "s1", "lb")


def test_baseline_not_in_actions_names_component():
    doc = lb3_doc()
    doc["components"][1]["baseline"] = "fly"
    with pytest.raises(ScenarioError, match="s1"):
        parse_system_model(json.dumps(doc))
    try:
        parse_system_model(json.dumps(doc))
    except ScenarioError as e:
        assert "components[1].baseline" in str(e)


def test_zero_components_is_an_error():
    doc = lb3_doc()
    doc["components"] = []
    doc["utility_rules"] = []
    doc["knowledge_base"] = {"vulnerabilities": {}}
    doc["timeline"] = []
    with pytest.raises(ScenarioError, match="empty component list"):
        parse_system_model(json.dumps(doc))


def test_not_json_is_reported():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        parse_scenario("{nope")


@pytest.mark.parametrize("depth", [900, 100_000])
def test_deeply_nested_document_is_reported(depth):
    text = '{"components": ' + "[" * depth + "]" * depth + "}"
    with pytest.raises(ScenarioError, match="nested too deeply|expected"):
        parse_scenario(text)


def test_duplicate_component_reported_with_path():
    doc = lb3_doc()
    doc["components"].append({"id": "s1", "actions": ["serve"], "baseline": "serve"})
    with pytest.raises(ScenarioError, match=r"DuplicateComponentId"):
        parse_scenario(json.dumps(doc))


def test_rule_with_unknown_attribute_rejected():
    doc = lb3_doc()
    doc["utility_rules"][0]["scores"] = {"latency": 10}
    with pytest.raises(ScenarioError, match="latency"):
        parse_scenario(json.dumps(doc))


def test_missing_field_has_path():
    doc = lb3_doc()
    del doc["components"][0]["baseline"]
    with pytest.raises(ScenarioError, match=r"components\[0\].baseline"):
        parse_scenario(json.dumps(doc))


def test_probability_out_of_range_rejected():
    doc = lb3_doc()
    doc["knowledge_base"]["vulnerabilities"]["cve-x"]["compromise_probability"] = 1.3
    with pytest.raises(ScenarioError, match="compromise_probability"):
        parse_scenario(json.dumps(doc))


def test_event_with_unknown_vulnerability_rejected():
    doc = lb3_doc()
    doc["timeline"][0]["vuln_id"] = "cve-z"
    with pytest.raises(ScenarioError, match="cve-z") as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "timeline[0].vuln_id"


def test_event_component_mismatch_rejected():
    doc = lb3_doc()
    doc["timeline"][0]["component"] = "s2"
    with pytest.raises(ScenarioError, match="does not match") as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "timeline[0].component"


def test_unsorted_timeline_rejected():
    doc = lb3_doc()
    doc["timeline"] = [
        {"time": 3, "component": "s1", "vuln_id": "cve-x"},
        {"time": 2, "component": "s1", "vuln_id": "cve-x"},
    ]
    with pytest.raises(ScenarioError, match="not sorted"):
        parse_scenario(json.dumps(doc))


def test_event_beyond_horizon_rejected():
    doc = lb3_doc()
    doc["horizon"] = 2
    with pytest.raises(ScenarioError, match="outside horizon"):
        parse_scenario(json.dumps(doc))


def test_horizon_defaults_to_one_past_last_event():
    doc = lb3_doc()
    del doc["horizon"]
    assert parse_scenario(json.dumps(doc)).horizon == 3


def test_knowledge_base_grants_attack_labels():
    doc = lb3_doc()
    doc["knowledge_base"]["vulnerabilities"]["cve-x"]["malicious_actions"] = ["drop", "stall"]
    # utility rules may reference attack-only labels
    doc["utility_rules"].append({"when": {"s1": "stall"}, "scores": {"perf": -3}})
    model = parse_system_model(json.dumps(doc))
    assert "stall" in model.allowed_actions("s1")


def test_reward_rule_with_unknown_action_rejected():
    doc = lb3_doc()
    doc["knowledge_base"]["vulnerabilities"]["cve-x"]["reward_rules"] = [
        {"when": {"s1": "explode"}, "reward": 1}
    ]
    with pytest.raises(ScenarioError, match="explode"):
        parse_scenario(json.dumps(doc))


def test_kb_entry_for_unknown_component_has_kb_path():
    doc = lb3_doc()
    doc["knowledge_base"]["vulnerabilities"]["cve-x"]["component"] = "zz"
    doc["timeline"] = []
    with pytest.raises(ScenarioError, match=r"knowledge_base.vulnerabilities.cve-x.component"):
        parse_scenario(json.dumps(doc))


NON_FINITE_SITES = [
    (("quality_attributes", 0, "weight"), "quality_attributes[0].weight"),
    (("utility_rules", 1, "scores", "perf"), "utility_rules[1].scores.perf"),
    (("utility_default", "perf"), "utility_default.perf"),
    (("knowledge_base", "vulnerabilities", "cve-x", "compromise_probability"),
     "knowledge_base.vulnerabilities.cve-x.compromise_probability"),
    (("knowledge_base", "vulnerabilities", "cve-x", "reward_rules", 0, "reward"),
     "knowledge_base.vulnerabilities.cve-x.reward_rules[0].reward"),
    (("knowledge_base", "vulnerabilities", "cve-x", "reward_default"),
     "knowledge_base.vulnerabilities.cve-x.reward_default"),
    (("horizon",), "horizon"),
]


def _document_with(site, token: str) -> str:
    # json.dumps cannot write a bare NaN token at a chosen place, so a
    # placeholder string is swapped for it.
    doc = lb3_doc()
    target = doc
    for step in site[:-1]:
        target = target[step]
    target[site[-1]] = "@@number@@"
    return json.dumps(doc).replace('"@@number@@"', token)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-2e308"])
@pytest.mark.parametrize("site,path", NON_FINITE_SITES)
def test_non_finite_number_rejected_with_path(site, path, token):
    with pytest.raises(ScenarioError, match="non-finite number") as exc:
        parse_scenario(_document_with(site, token))
    assert exc.value.path == path


def test_integer_beyond_float_range_rejected_with_path():
    text = _document_with(("quality_attributes", 0, "weight"), "1" + "0" * 400)
    with pytest.raises(ScenarioError, match="beyond the float range") as exc:
        parse_scenario(text)
    assert exc.value.path == "quality_attributes[0].weight"


# An integer of more digits than `int` converts, where the interpreter has
# such a limit, is rejected where a reader reads it, at its field's path, as
# a non-finite number is; `json.loads` alone raised a bare ValueError.
DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGITS_LIMIT, reason="the interpreter converts integers of any length")
@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("site,path", NON_FINITE_SITES + [
    (("seed",), "seed"),
    (("timeline", 0, "time"), "timeline[0].time"),
    (("components", 0, "id"), "components[0].id"),
    (("utility_rules", 0, "when", "lb"), "utility_rules[0].when.lb"),
])
def test_integer_of_too_many_digits_rejected_with_path(site, path, sign):
    digits = DIGITS_LIMIT + 1
    message = f"^{re.escape(path)}: integer of {digits} digits exceeds the conversion limit$"
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(_document_with(site, sign + "7" * digits))
    # in a field the document does not know, the unknown field is the fault
    with pytest.raises(ScenarioError, match="^components\\[1\\]\\.note: unknown field"):
        parse_scenario(_with_note('"note": ' + sign + "7" * digits))


@pytest.mark.parametrize("value,got", [("x", "got str"), (True, "got a boolean"), (None, "got NoneType")])
def test_reward_default_must_be_a_number(value, got):
    doc = lb3_doc()
    doc["knowledge_base"]["vulnerabilities"]["cve-x"]["reward_default"] = value
    with pytest.raises(ScenarioError, match=got) as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == "knowledge_base.vulnerabilities.cve-x.reward_default"


def test_reward_default_defaults_to_zero():
    doc = lb3_doc()
    del doc["knowledge_base"]["vulnerabilities"]["cve-x"]["reward_default"]
    assert parse_scenario(json.dumps(doc)).kb[0].reward_default == 0.0


VULN = ("knowledge_base", "vulnerabilities", "cve-x")
UNKNOWN_FIELD_SITES = [
    ((), "utilty_rules"),
    (("components", 0), "baseline_action"),
    (("quality_attributes", 0), "wieght"),
    (("utility_rules", 0), "score"),
    (("knowledge_base",), "vulns"),
    (VULN, "probability"),
    (VULN + ("reward_rules", 0), "rewards"),
    (("timeline", 0), "vuln"),
]


@pytest.mark.parametrize("site,key", UNKNOWN_FIELD_SITES)
def test_unknown_field_rejected_with_path(site, key):
    doc = lb3_doc()
    target = doc
    for step in site:
        target = target[step]
    target[key] = 1
    path = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in site + (key,))
    with pytest.raises(ScenarioError, match="unknown field") as exc:
        parse_scenario(json.dumps(doc))
    assert exc.value.path == path.lstrip(".")


def test_data_keyed_maps_stay_open():
    doc = lb3_doc()
    doc["knowledge_base"]["vulnerabilities"]["cve-y"] = dict(
        doc["knowledge_base"]["vulnerabilities"]["cve-x"], component="s2"
    )
    doc["utility_rules"][0]["when"]["s2"] = "drop"
    script = parse_scenario(json.dumps(doc))
    assert [rec.vuln_id for rec in script.kb] == ["cve-x", "cve-y"]


REPEATED_KEY_SITES = [
    # a second record under the same id, declared first for s2
    ('"vulnerabilities": {',
     '"vulnerabilities": {"cve-x": {"component": "s2", "compromise_probability": 0.5, '
     '"malicious_actions": ["drop"]}, ',
     "knowledge_base.vulnerabilities.cve-x"),
    # read as the last value, this used to be reported as an event outside the horizon
    ('"horizon": 4', '"horizon": 4, "horizon": 1', "horizon"),
    ('"when": {"lb": "to_s1", "s1": "serve"}', '"when": {"lb": "to_s1", "lb": "to_s2", "s1": "serve"}',
     "utility_rules[0].when.lb"),
    ('{"id": "s2", ', '{"id": "s2", "id": "s3", ', "components[2].id"),
]


@pytest.mark.parametrize("old,new,path", REPEATED_KEY_SITES, ids=[site[2] for site in REPEATED_KEY_SITES])
def test_repeated_key_rejected_with_path(old, new, path):
    text = json.dumps(lb3_doc())
    assert text.count(old) == 1
    with pytest.raises(ScenarioError, match="repeated key") as exc:
        parse_scenario(text.replace(old, new))
    assert exc.value.path == path


def test_repeated_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="repeated key") as exc:
        parse_scenario('{"seed": 0, "seed": 0}')
    assert exc.value.path == "seed"


# A field the document does not know, holding what JSON lets through
# against RFC 8259 directly or nested in arrays and objects: the reader
# never reads the field, so the unknown field is the fault.
UNKNOWN_NOTE = "components[1].note: unknown field (expected one of: id, actions, baseline)"
NOTE_SITES = [
    '"note": @@',
    '"note": [[0, @@], 1]',
    '"note": {"a": [{"b": @@}]}',
    '"note": [{"a": 1.5}, [2.5, {"b": [@@]}]]',
]


def _with_note(note: str) -> str:
    text = json.dumps(lb3_doc())
    old = '{"id": "s1", '
    assert text.count(old) == 1
    return text.replace(old, "{" + note + ', "id": "s1", ')


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1.5e999"])
@pytest.mark.parametrize("note", NOTE_SITES)
def test_non_finite_number_in_unknown_field_reported_as_the_field(note, token):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(_with_note(note.replace("@@", token)))
    assert (exc.value.path, str(exc.value)) == ("components[1].note", UNKNOWN_NOTE)


@pytest.mark.parametrize("note", [
    '"note": [[0, {"k": 1, "k": 2}], 1]',
    '"note": {"a": [{"b": 1, "b": 2}]}',
    '"note": [{"a": 1.5}, [2.5, {"b": [{"k": [], "k": {}}]}]]',
])
def test_repeated_key_in_unknown_field_reported_as_the_field(note):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(_with_note(note))
    assert (exc.value.path, str(exc.value)) == ("components[1].note", UNKNOWN_NOTE)


def test_first_fault_in_reading_order_is_reported():
    # The readers read an object's keys before its values, and the
    # document's fields in the order of its table, not of its text.
    for weight in ('"weight": NaN, "weight": 1.0', '"weight": 1.0, "weight": NaN'):
        text = json.dumps(lb3_doc()).replace('"weight": 1.0', weight)
        with pytest.raises(ScenarioError, match="repeated key") as exc:
            parse_scenario(text)
        assert exc.value.path == "quality_attributes[0].weight"
    doc = lb3_doc()
    del doc["horizon"]
    doc = {"horizon": "@@", **doc}  # first in the text, read after the weights
    text = json.dumps(doc).replace('"@@"', "NaN").replace('"weight": 1.0', '"weight": -Infinity')
    assert text.index("NaN") < text.index("-Infinity")
    with pytest.raises(ScenarioError, match=r"non-finite number -inf") as exc:
        parse_scenario(text)
    assert exc.value.path == "quality_attributes[0].weight"


@pytest.mark.parametrize("text", [
    json.dumps(lb3_doc()),
    _with_note('"note": [NaN]'),
    json.dumps(lb3_doc()).replace('"horizon": 4', '"horizon": 4, "horizon": 4'),
    json.dumps(lb3_doc()).replace('"horizon": 4', '"horizon": ' + "1" * 5000),
], ids=["sound", "non-finite", "repeated-key", "long-integer"])
def test_every_document_is_decoded_once(monkeypatch, text):
    import bayesadapt.scenario as scenario

    calls, loads = [], json.loads

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return loads(*args, **kwargs)

    monkeypatch.setattr(scenario.json, "loads", counted)
    try:
        parse_scenario(text)
    except ScenarioError:
        pass
    assert len(calls) == 1 and list(calls[0]) == ["object_pairs_hook", "parse_int"]


def _record(script, **changes):
    return (dataclasses.replace(script.kb[0], **changes),)


def _model(script, **changes):
    return dataclasses.replace(script.model, **changes)


def _component(script, i, **changes):
    components = list(script.model.components)
    components[i] = dataclasses.replace(components[i], **changes)
    return _model(script, components=tuple(components))


def _event(script, **changes):
    return (dataclasses.replace(script.timeline[0], **changes),)


# One fault of lb3 each: the document's assignments, the same fault
# made in the parsed dataclasses, and the exact rejection, path and message.
PINNED_FAULTS = {
    "record-component": (
        [(VULN + ("component",), "zz"), (("timeline",), [])],
        lambda s: dict(kb=_record(s, component="zz"), timeline=()),
        "knowledge_base.vulnerabilities.cve-x.component: unknown component 'zz'",
    ),
    "probability-above-one": (
        [(VULN + ("compromise_probability",), 1.3)],
        lambda s: dict(kb=_record(s, compromise_probability=1.3)),
        "knowledge_base.vulnerabilities.cve-x.compromise_probability: expected a probability, got 1.3",
    ),
    "probability-below-zero": (
        [(VULN + ("compromise_probability",), -0.5)],
        lambda s: dict(kb=_record(s, compromise_probability=-0.5)),
        "knowledge_base.vulnerabilities.cve-x.compromise_probability: expected a probability, got -0.5",
    ),
    "no-malicious-action": (
        [(VULN + ("malicious_actions",), [])],
        lambda s: dict(kb=_record(s, malicious_actions=())),
        "knowledge_base.vulnerabilities.cve-x.malicious_actions: at least one malicious action is required",
    ),
    "reward-rule-component": (
        [(VULN + ("reward_rules",), [{"when": {"s9": "serve"}, "reward": 1}])],
        lambda s: dict(kb=_record(s, reward_rules=(RewardRule({"s9": "serve"}, 1.0),))),
        "knowledge_base.vulnerabilities.cve-x.reward_rules[0].when.s9: unknown component 's9'",
    ),
    "reward-rule-label": (
        [(VULN + ("reward_rules",), [{"when": {"s1": "explode"}, "reward": 1}])],
        lambda s: dict(kb=_record(s, reward_rules=(RewardRule({"s1": "explode"}, 1.0),))),
        "knowledge_base.vulnerabilities.cve-x.reward_rules[0].when.s1: "
        "unknown action 'explode' for component 's1'",
    ),
    "utility-rule-label": (
        [(("utility_rules", 0, "when", "s1"), "fly")],
        lambda s: dict(model=_model(s, utility_rules=(
            UtilityRule({"lb": "to_s1", "s1": "fly"}, {"perf": 10.0}),) + s.model.utility_rules[1:])),
        "utility_rules[0].when.s1: UnknownAction('fly'): unknown action 'fly' "
        "for component 's1' [utility_rules[0].when.s1]",
    ),
    "baseline": (
        [(("components", 0, "baseline"), "to_s3")],
        lambda s: dict(model=_model(s, components=(
            Component("lb", ("to_s1", "to_s2"), "to_s3"),) + s.model.components[1:])),
        "components[0].baseline: BaselineNotInActions('lb'): baseline 'to_s3' of component 'lb' "
        "is not a declared action [components[0].baseline]",
    ),
    "default-score": (
        [(("utility_default",), {})],
        lambda s: dict(model=_model(s, utility_default={})),
        "utility_default: MissingDefaultScore('perf'): utility_default does not cover "
        "quality attribute 'perf' [utility_default]",
    ),
    "negative-horizon": (
        [(("horizon",), -1), (("timeline",), [])],
        lambda s: dict(horizon=-1, timeline=()),
        "horizon: horizon must be nonnegative",
    ),
    "string-reward-default": (
        [(VULN + ("reward_default",), "1")],
        lambda s: dict(kb=_record(s, reward_default="1")),
        "knowledge_base.vulnerabilities.cve-x.reward_default: expected a numeric reward, got str",
    ),
    "string-rule-reward": (
        [(VULN + ("reward_rules",), [{"when": {"lb": "to_s1", "s1": "drop"}, "reward": "2"}])],
        lambda s: dict(kb=_record(s, reward_rules=(RewardRule({"lb": "to_s1", "s1": "drop"}, "2"),))),
        "knowledge_base.vulnerabilities.cve-x.reward_rules[0].reward: expected a numeric reward, got str",
    ),
    "string-probability": (
        [(VULN + ("compromise_probability",), "0.5")],
        lambda s: dict(kb=_record(s, compromise_probability="0.5")),
        "knowledge_base.vulnerabilities.cve-x.compromise_probability: expected a probability, got str",
    ),
    # Unchecked, an unhashable id or label raised a bare TypeError where a check hashed it.
    "list-component-id": (
        [(("components", 1, "id"), [])],
        lambda s: dict(model=_component(s, 1, id=[])),
        "components[1].id: expected a component id, got list",
    ),
    "dict-action": (
        [(("components", 0, "actions", 1), {})],
        lambda s: dict(model=_component(s, 0, actions=("to_s1", {}))),
        "components[0].actions[1]: expected an action label, got dict",
    ),
    "list-attribute-name": (
        [(("quality_attributes", 0, "name"), [])],
        lambda s: dict(model=_model(s, quality_attributes=(QualityAttribute([], 1.0),))),
        "quality_attributes[0].name: expected an attribute name, got list",
    ),
    "list-event-component": (
        [(("timeline", 0, "component"), [])],
        lambda s: dict(timeline=_event(s, component=[])),
        "timeline[0].component: expected a component id, got list",
    ),
    "dict-event-vuln-id": (
        [(("timeline", 0, "vuln_id"), {})],
        lambda s: dict(timeline=_event(s, vuln_id={})),
        "timeline[0].vuln_id: expected a vulnerability id, got dict",
    ),
    # Unchecked, a field in another shape raised a bare AttributeError or
    # TypeError, or a string was read as one label per character.
    "string-actions": (
        [(("components", 0, "actions"), "to")],
        lambda s: dict(model=_component(s, 0, actions="to")),
        "components[0].actions: expected an array of action labels, got str",
    ),
    "null-rule-when": (
        [(("utility_rules", 0, "when"), None)],
        lambda s: dict(model=_model(s, utility_rules=(UtilityRule(None, {"perf": 10.0}),))),
        "utility_rules[0].when: expected a partial joint action, got NoneType",
    ),
    "list-rule-scores": (
        [(("utility_rules", 0, "scores"), [1.0])],
        lambda s: dict(model=_model(s, utility_rules=(UtilityRule({"lb": "to_s1"}, [1.0]),))),
        "utility_rules[0].scores: expected per-attribute scores, got list",
    ),
    "null-default": (
        [(("utility_default",), None)],
        lambda s: dict(model=_model(s, utility_default=None)),
        "utility_default: expected per-attribute default scores, got NoneType",
    ),
    "string-malicious-actions": (
        [(VULN + ("malicious_actions",), "drop")],
        lambda s: dict(kb=_record(s, malicious_actions="drop")),
        "knowledge_base.vulnerabilities.cve-x.malicious_actions: expected an array of action labels, got str",
    ),
    "string-reward-rule-when": (
        [(VULN + ("reward_rules",), [{"when": "s1=drop", "reward": 1}])],
        lambda s: dict(kb=_record(s, reward_rules=(RewardRule("s1=drop", 1.0),))),
        "knowledge_base.vulnerabilities.cve-x.reward_rules[0].when: expected a partial joint action, got str",
    ),
    # Unchecked, an array given as null raised a bare TypeError where a check iterated it.
    "null-components": (
        [(("components",), None)],
        lambda s: dict(model=_model(s, components=None)),
        "components: expected an array of components, got NoneType",
    ),
    "null-quality-attributes": (
        [(("quality_attributes",), None)],
        lambda s: dict(model=_model(s, quality_attributes=None)),
        "quality_attributes: expected an array of quality attributes, got NoneType",
    ),
    "null-utility-rules": (
        [(("utility_rules",), None)],
        lambda s: dict(model=_model(s, utility_rules=None)),
        "utility_rules: expected an array of utility rules, got NoneType",
    ),
    "null-vulnerabilities": (
        [(("knowledge_base", "vulnerabilities"), None)],
        lambda s: dict(kb=None),
        "knowledge_base.vulnerabilities: expected an object keyed by vulnerability id, got NoneType",
    ),
    "null-timeline": (
        [(("timeline",), None)],
        lambda s: dict(timeline=None),
        "timeline: expected an array of attack events, got NoneType",
    ),
    "null-reward-rules": (
        [(VULN + ("reward_rules",), None)],
        lambda s: dict(kb=_record(s, reward_rules=None)),
        "knowledge_base.vulnerabilities.cve-x.reward_rules: expected an array of reward rules, got NoneType",
    ),
    # Unchecked, an array's item of another class raised a bare
    # AttributeError where a check read its fields.
    "string-component": (
        [(("components", 0), "lb")],
        lambda s: dict(model=_model(s, components=("lb",) + s.model.components[1:])),
        "components[0]: expected a component object, got str",
    ),
    "string-quality-attribute": (
        [(("quality_attributes", 0), "perf")],
        lambda s: dict(model=_model(s, quality_attributes=("perf",))),
        "quality_attributes[0]: expected a quality attribute object, got str",
    ),
    "string-utility-rule": (
        [(("utility_rules", 1), "rule")],
        lambda s: dict(model=_model(s, utility_rules=s.model.utility_rules[:1] + ("rule",))),
        "utility_rules[1]: expected a utility rule object, got str",
    ),
    "string-event": (
        [(("timeline", 0), "s1")],
        lambda s: dict(timeline=("s1",)),
        "timeline[0]: expected an attack event object, got str",
    ),
    "string-reward-rule": (
        [(VULN + ("reward_rules",), ["rule"])],
        lambda s: dict(kb=_record(s, reward_rules=("rule",))),
        "knowledge_base.vulnerabilities.cve-x.reward_rules[0]: expected a reward rule object, got str",
    ),
    # Unchecked, a hand-built record's list component was blamed on the
    # timeline, and an int label or baseline was reported as unknown.
    "list-record-component": (
        [(VULN + ("component",), ["s1"])],
        lambda s: dict(kb=_record(s, component=["s1"])),
        "knowledge_base.vulnerabilities.cve-x.component: expected a component id, got list",
    ),
    "int-malicious-action": (
        [(VULN + ("malicious_actions", 0), 7)],
        lambda s: dict(kb=_record(s, malicious_actions=(7,))),
        "knowledge_base.vulnerabilities.cve-x.malicious_actions[0]: expected an action label, got int",
    ),
    "int-utility-rule-label": (
        [(("utility_rules", 0, "when", "s1"), 7)],
        lambda s: dict(model=_model(s, utility_rules=(
            UtilityRule({"lb": "to_s1", "s1": 7}, {"perf": 10.0}),) + s.model.utility_rules[1:])),
        "utility_rules[0].when.s1: expected an action label, got int",
    ),
    "int-reward-rule-label": (
        [(VULN + ("reward_rules",), [{"when": {"s1": 7}, "reward": 1}])],
        lambda s: dict(kb=_record(s, reward_rules=(RewardRule({"s1": 7}, 1.0),))),
        "knowledge_base.vulnerabilities.cve-x.reward_rules[0].when.s1: expected an action label, got int",
    ),
    "int-baseline": (
        [(("components", 0, "baseline"), 7)],
        lambda s: dict(model=_component(s, 0, baseline=7)),
        "components[0].baseline: expected a baseline action label, got int",
    ),
}


def _assigned(assignments) -> str:
    doc = lb3_doc()
    for site, value in assignments:
        target = doc
        for step in site[:-1]:
            target = target[step]
        target[site[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("name", PINNED_FAULTS)
def test_pinned_fault_rejected_with_exact_message(name):
    assignments, _changes, expected = PINNED_FAULTS[name]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(_assigned(assignments))
    assert str(exc.value) == expected


@pytest.mark.parametrize("name", PINNED_FAULTS)
def test_hand_built_script_rejected_like_the_document(name):
    # `dataclasses.replace` constructs a new ScenarioScript from the parsed
    # dataclasses, so the same checks must run on it.
    _assignments, changes, expected = PINNED_FAULTS[name]
    script = parse_scenario(json.dumps(lb3_doc()))
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(script, **changes(script))
    assert str(exc.value) == expected


TWO_VULNS = json.loads((REPO_ROOT / "tests" / "golden" / "lb3-two-vulns.scn").read_text(encoding="utf-8"))


def _sites(value, site=()):
    # The steps to every value of a document, below its root.
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, child in children:
        yield site + (step,)
        yield from _sites(child, site + (step,))


def _json_type(value) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string", list: "array", dict: "object"}.get(
        type(value), "null")


# Sites whose dataclass twin is rejected differently by design: a model
# number is reported as the `UtilityOverflow` of its attribute's bound, and
# a record is keyed by its id, so one of another class is named by its
# index. The knowledge base object has no twin, and neither has the model's
# `attack_actions`, which no document holds.
OWN_REJECTION = {("quality_attributes", 0, "weight"), ("utility_rules", 0, "scores", "perf"),
                 ("utility_rules", 1, "scores", "perf"), ("utility_default", "perf"), ("knowledge_base",),
                 ("knowledge_base", "vulnerabilities", "cve-x"), ("knowledge_base", "vulnerabilities", "cve-y")}
VULNERABILITIES = ("knowledge_base", "vulnerabilities")


def _placed(obj, steps, value):
    # `obj` with `value` at the end of `steps`; a dataclass is replaced, so
    # a ScenarioScript runs its checks.
    if not steps:
        return value
    step, rest = steps[0], steps[1:]
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{step: _placed(getattr(obj, step), rest, value)})
    if isinstance(obj, dict):
        return {**obj, step: _placed(obj[step], rest, value)}
    return tuple(_placed(x, rest, value) if i == step else x for i, x in enumerate(obj))


def _twin(steps):
    # The steps to a document site's value in the parsed dataclasses.
    if steps[0] == "knowledge_base":
        rest = steps[3:]
        return ("kb",) + ((list(TWO_VULNS["knowledge_base"]["vulnerabilities"]).index(steps[2]),) if rest else ()) + rest
    return steps if steps[0] in ("timeline", "horizon", "seed") else ("model",) + steps


@pytest.mark.parametrize("steps", [site for site in _sites(TWO_VULNS) if site not in OWN_REJECTION],
                         ids=lambda steps: ".".join(map(str, steps)))
def test_document_and_dataclasses_reject_a_value_of_another_type_alike(steps):
    # A value of another JSON type anywhere in lb3-two-vulns, once in the
    # document and once in the parsed dataclasses, is rejected with the
    # same message by both routes: the parser and the field tables' walk.
    script = parse_scenario(json.dumps(TWO_VULNS))
    current = TWO_VULNS
    for step in steps:
        current = current[step]
    for value in (None, True, 7, "s", [], {}):
        # the dataclasses hold the records as an array
        if _json_type(value) == _json_type(current) or steps == VULNERABILITIES and value == []:
            continue
        with pytest.raises(ScenarioError) as parsed:
            parse_scenario(json.dumps(_placed(TWO_VULNS, steps, value)))
        with pytest.raises(ScenarioError) as built:
            _placed(script, _twin(steps), value)
        assert str(built.value) == str(parsed.value), value


def _vuln(script, vuln_id, **changes):
    return tuple(dataclasses.replace(rec, **changes) if rec.vuln_id == vuln_id else rec for rec in script.kb)


def _reward(script, vuln_id, value):
    (rule,) = next(rec for rec in script.kb if rec.vuln_id == vuln_id).reward_rules
    return _vuln(script, vuln_id, reward_rules=(RewardRule(rule.when, value),))


def _score(script, i, value):
    rules = list(script.model.utility_rules)
    rules[i] = UtilityRule(rules[i].when, {"perf": value})
    return _model(script, utility_rules=tuple(rules))


# Every number of the hand-built lb3-two-vulns script: how to set it in the
# parsed dataclasses, and the path that rejects a non-finite value. A model
# number is reported where `UtilityOverflow` names its attribute.
WEIGHT = "quality_attributes[0].weight"
X, Y = "knowledge_base.vulnerabilities.cve-x", "knowledge_base.vulnerabilities.cve-y"
HAND_BUILT_NUMBERS = {
    "weight": (lambda s, v: dict(model=_model(s, quality_attributes=(QualityAttribute("perf", v),))), WEIGHT),
    "rule-0-score": (lambda s, v: dict(model=_score(s, 0, v)), WEIGHT),
    "rule-1-score": (lambda s, v: dict(model=_score(s, 1, v)), WEIGHT),
    "default-score": (lambda s, v: dict(model=_model(s, utility_default={"perf": v})), WEIGHT),
    "cve-x-probability": (lambda s, v: dict(kb=_vuln(s, "cve-x", compromise_probability=v)),
                          f"{X}.compromise_probability"),
    "cve-y-probability": (lambda s, v: dict(kb=_vuln(s, "cve-y", compromise_probability=v)),
                          f"{Y}.compromise_probability"),
    "cve-x-reward": (lambda s, v: dict(kb=_reward(s, "cve-x", v)), f"{X}.reward_rules[0].reward"),
    "cve-y-reward": (lambda s, v: dict(kb=_reward(s, "cve-y", v)), f"{Y}.reward_rules[0].reward"),
    "cve-x-reward-default": (lambda s, v: dict(kb=_vuln(s, "cve-x", reward_default=v)), f"{X}.reward_default"),
    "cve-y-reward-default": (lambda s, v: dict(kb=_vuln(s, "cve-y", reward_default=v)), f"{Y}.reward_default"),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", HAND_BUILT_NUMBERS)
def test_non_finite_number_of_hand_built_script_rejected(field, value, two_vulns_path):
    script = parse_scenario_file(two_vulns_path)
    changes, path = HAND_BUILT_NUMBERS[field]
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(script, **changes(script, value))
    assert exc.value.path == path


# A hand-built script's horizon, seed and event times must be exact ints, as
# the parser reads them. Unchecked, a float horizon failed in `run_scenario`
# with a bare TypeError, a float time was delivered at the equal tick, and a
# bool seed was hashed as `True:` and written to the trace header as `true`.
@pytest.mark.parametrize("value, got", [(2.5, "float"), (4.0, "float"), (True, "a boolean")])
def test_hand_built_horizon_must_be_an_int(lb3_script, value, got):
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(lb3_script, horizon=value)
    assert exc.value.path == "horizon"
    assert str(exc.value) == f"horizon: expected an integer tick count, got {got}"


# The two hashed strings that no document can get wrong: a record's id is
# its document key, and a model's attack labels come from its records. A
# string of attack labels was read as one label per character.
@pytest.mark.parametrize("changes, expected", [
    (lambda s: dict(kb=_record(s, vuln_id=["cve-x"])),
     "knowledge_base.vulnerabilities.['cve-x']: expected a vulnerability id, got list"),
    (lambda s: dict(model=_model(s, attack_actions={"s1": ({},)})),
     "attack_actions.s1[0]: expected an action label, got dict"),
    (lambda s: dict(model=_model(s, attack_actions={"s1": "zz"})),
     "attack_actions.s1: expected an array of action labels, got str"),
], ids=["vulnerability-id", "attack-label", "string-attack-labels"])
def test_hand_built_ids_without_a_document_twin_must_be_strings(lb3_script, changes, expected):
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(lb3_script, **changes(lb3_script))
    assert str(exc.value) == expected


# A document keys each record by its id, so a hand-built record of another
# class is named by its index. Unchecked, it raised a bare AttributeError
# where a check read its fields.
def test_hand_built_record_of_another_class_rejected(lb3_script):
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(lb3_script, kb=lb3_script.kb + ("cve-y",))
    assert str(exc.value) == "knowledge_base.vulnerabilities[1]: expected a vulnerability record, got str"


@pytest.mark.parametrize("value, got", [(True, "a boolean"), (1.5, "float"), ("0", "str")])
def test_hand_built_seed_must_be_an_int(lb3_script, value, got):
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(lb3_script, seed=value)
    assert exc.value.path == "seed"
    assert str(exc.value) == f"seed: expected an integer seed, got {got}"


@pytest.mark.parametrize("value, got", [(2.0, "float"), (False, "a boolean")])
def test_hand_built_event_time_must_be_an_int(lb3_script, value, got):
    timeline = (dataclasses.replace(lb3_script.timeline[0], time=value),)
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(lb3_script, timeline=timeline)
    assert exc.value.path == "timeline[0].time"
    assert str(exc.value) == f"timeline[0].time: expected a nonnegative tick, got {got}"


def test_int_subclass_is_not_an_int(lb3_script):
    class Tick(int):
        pass

    with pytest.raises(ScenarioError, match="got Tick") as exc:
        dataclasses.replace(lb3_script, horizon=Tick(4))
    assert exc.value.path == "horizon"


def test_construction_builds_no_attack_model(lb3_script, monkeypatch):
    # Construction resolves the timeline without the analyzer's fold, so a
    # malformed record still surfaces as a ScenarioError with its path.
    import bayesadapt.attacks as attacks_module

    def no_fold(*args, **kwargs):
        raise AssertionError("ScenarioScript construction built an AttackModel")

    monkeypatch.setattr(attacks_module, "AttackModel", no_fold)
    assert dataclasses.replace(lb3_script, horizon=5).horizon == 5
    with pytest.raises(ScenarioError) as exc:
        dataclasses.replace(lb3_script, kb=(dataclasses.replace(lb3_script.kb[0], malicious_actions=None),))
    assert exc.value.path == "knowledge_base.vulnerabilities.cve-x.malicious_actions"
