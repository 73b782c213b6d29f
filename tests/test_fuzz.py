"""Mutated scenario documents are parsed or rejected with a ScenarioError.

Each example takes a document from `scenarios/`, replaces, deletes or adds
a few fields anywhere in it with junk (null, booleans, numbers far beyond
the float range, NaN, strings, arrays, objects), and parses the result. A
rejection must be a `ScenarioError`, never a bare `TypeError`, `KeyError`,
`AttributeError` or `ValueError`; a document that parses must also plan.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bayesadapt import ScenarioError, analyze_attacks, parse_scenario, plan

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
DOCUMENTS = {path.name: json.loads(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.scn"))}

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, -1, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
JUNK = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
)


def _paths(value, prefix=()):
    # Every (container path, key or index) of a JSON value, depth first.
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _container(doc, prefix):
    for key in prefix:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        container = _container(doc, prefix)
        kind = draw(st.sampled_from(("replace", "delete", "add")))
        if kind == "replace":
            container[key] = draw(JUNK)
        elif kind == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.text(max_size=4))] = draw(JUNK)
        else:
            container.append(draw(JUNK))
    return doc


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(mutated_documents())
def test_mutated_scenarios_parse_or_raise_scenario_error(doc):
    try:
        script = parse_scenario(json.dumps(doc))
    except Exception as e:  # every rejection must be a path-qualified ScenarioError
        assert isinstance(e, ScenarioError), f"{type(e).__name__}: {e}"
        return
    plan(script.model, analyze_attacks(script.timeline, script.kb, script.model))


@pytest.mark.parametrize("junk", [None, True, 5, "rules", {"when": {}}])
def test_non_array_utility_rules_are_rejected_with_their_path(junk):
    doc = json.loads(json.dumps(DOCUMENTS["lb3.scn"]))
    doc["utility_rules"] = junk
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.dumps(doc))
    assert info.value.path == "utility_rules"


@pytest.mark.parametrize("junk", [None, True, 5, "rules", {"when": {}}])
def test_non_array_reward_rules_are_rejected_with_their_path(junk):
    doc = json.loads(json.dumps(DOCUMENTS["lb3.scn"]))
    doc["knowledge_base"]["vulnerabilities"]["cve-x"]["reward_rules"] = junk
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.dumps(doc))
    assert info.value.path == "knowledge_base.vulnerabilities.cve-x.reward_rules"
