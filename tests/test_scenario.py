from __future__ import annotations

import json

import pytest

from bayesadapt import ScenarioError, parse_scenario, parse_system_model


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
    script = parse_scenario(lb3_path.read_text())
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
    with pytest.raises(ScenarioError, match="cve-z"):
        parse_scenario(json.dumps(doc))


def test_event_component_mismatch_rejected():
    doc = lb3_doc()
    doc["timeline"][0]["component"] = "s2"
    with pytest.raises(ScenarioError, match="does not match"):
        parse_scenario(json.dumps(doc))


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
    (("components", 0, "note"), "components[0].note"),
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
