"""Mutated scenario documents and junk command-line values are rejected cleanly.

Each document example takes a document from `scenarios/`, or one that
`perfbench/gen.py` generates with at most 3 components, replaces, deletes
or adds a few fields anywhere in it with junk (null, booleans, numbers far
beyond the float range, NaN, strings, arrays, objects), and parses the
result. A rejection must be a `ScenarioError`, never a bare `TypeError`,
`KeyError`, `AttributeError` or `ValueError`; a document that parses must
also plan. The hand-built examples put the same junk into one number or
label of lb3's parsed script or analyzed attack model and build the script,
or a game on the attack. The command-line examples pass junk `--action` and
`--at-time` values to `run_cli`, which must exit 0, 1 or 2 and never report
an internal error. Inputs that once failed are kept as explicit examples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import random
from pathlib import Path

import pytest

from bayesadapt import ScenarioError, analyze_attacks, parse_scenario, plan
from bayesadapt.cli import run_cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"
DOCUMENTS = {path.name: json.loads(path.read_text(encoding="utf-8")) for path in sorted(SCENARIO_DIR.glob("*.scn"))}


def _generated_documents() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    texts = {
        "chain-n3-m2-k1": gen.solve_document(random.Random(0), "chain", 3, 2, 1, per_edge=2),
        "star-n3-m3-k2": gen.solve_document(random.Random(1), "star", 3, 3, 2, per_edge=2),
        "random-n3-m3-k2": gen.solve_document(random.Random(2), "random", 3, 3, 2, per_edge=2),
        "mimicry-n3-m2-k2": gen.mimicry_document(random.Random(3), 3, 2, 2, per_edge=2),
        "loop-chain-n3": gen.loop_script(random.Random(4), "chain", 3, 30, 6),
    }
    return {name: json.loads(text) for name, text in texts.items()}


GENERATED = _generated_documents()

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
def mutated_documents(draw, documents):
    doc = json.loads(json.dumps(documents[draw(st.sampled_from(sorted(documents)))]))
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


def _parse_or_reject(doc) -> None:
    try:
        script = parse_scenario(json.dumps(doc))
    except Exception as e:  # every rejection must be a path-qualified ScenarioError
        assert isinstance(e, ScenarioError), f"{type(e).__name__}: {e}"
        return
    plan(script.model, analyze_attacks(script.timeline, script.kb, script.model))


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(mutated_documents(DOCUMENTS))
def test_mutated_scenarios_parse_or_raise_scenario_error(doc):
    _parse_or_reject(doc)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(mutated_documents(GENERATED))
def test_mutated_generated_documents_parse_or_raise_scenario_error(doc):
    _parse_or_reject(doc)


def _leaves(value, path=()):
    # The path of every number and label in parsed dataclasses, through
    # their fields, tuples and dict values.
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name), path + (f.name,))
    elif isinstance(value, (tuple, dict)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _put(value, path, junk):
    # `value` with `junk` at `path`; a dataclass is rebuilt by `dataclasses.replace`.
    if not path:
        return junk
    key, rest = path[0], path[1:]
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{key: _put(getattr(value, key), rest, junk)})
    if isinstance(value, tuple):
        return value[:key] + (_put(value[key], rest, junk),) + value[key + 1:]
    return {**value, key: _put(value[key], rest, junk)}


LB3 = parse_scenario(json.dumps(DOCUMENTS["lb3.scn"]))
LB3_ATTACK = analyze_attacks(LB3.timeline, LB3.kb, LB3.model)
HAND_BUILT_SITES = [("script", path) for path in _leaves(LB3)] + [("attack", path) for path in _leaves(LB3_ATTACK)]


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(HAND_BUILT_SITES), JUNK)
def test_junk_in_hand_built_inputs_raises_value_error(site, junk):
    # The hand-built twin of the document fuzz: a script is built, or a game
    # is built on an attack model, with junk in one number or label. A
    # rejection must be a ScenarioError or, from `build_game`, a ValueError.
    target, path = site
    try:
        if target == "script":
            script = _put(LB3, path, junk)
            plan(script.model, analyze_attacks(script.timeline, script.kb, script.model))
        else:
            plan(LB3.model, _put(LB3_ATTACK, path, junk))
    except Exception as e:
        assert type(e) is (ScenarioError if target == "script" else ValueError), f"{type(e).__name__}: {e}"


def _cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return code, out.getvalue(), err.getvalue()


ASSIGNMENTS = st.tuples(
    st.sampled_from(["lb", "s1", "s2", "s3", "", " lb ", "lb=s1"]),
    st.sampled_from(["to_s1", "to_s2", "serve", "drop", "fly", "", " serve "]),
).map(lambda pair: "=".join(pair))
LB3_LABELS = {"lb": ("to_s1", "to_s2"), "s1": ("serve", "drop"), "s2": ("serve", "drop")}


@st.composite
def lb3_actions(draw):
    # A joint action of lb3 in any order, sometimes with one more
    # assignment, which may repeat a component, and with padded separators.
    parts = draw(st.permutations([f"{c}={draw(st.sampled_from(ls))}" for c, ls in LB3_LABELS.items()]))
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), draw(ASSIGNMENTS))
    return draw(st.sampled_from([",", ", ", " ,", ",,"])).join(parts)


ACTION_SPECS = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="lbs12=, _-", max_size=30),
    st.lists(st.one_of(ASSIGNMENTS, st.text(max_size=6)), max_size=5).map(",".join),
    lb3_actions(),
)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(ACTION_SPECS)
@hypothesis.example("lb=to_s1,lb=to_s2,s1=serve,s2=serve")  # a repeated component kept its last label
def test_junk_action_spec_is_exit_0_or_2(spec):
    code, out, err = _cli("shapley", str(SCENARIO_DIR / "lb3.scn"), f"--action={spec}")
    assert code in (0, 2) and "internal error" not in err, (code, err)
    if code == 0:
        # every assignment of the spec is in the action, once
        parts = [part.split("=", 1) for part in spec.split(",") if part.strip()]
        assert json.loads(out)["action"] == {c.strip(): a.strip() for c, a in parts}
        assert len(parts) == 3


AT_TIMES = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["", " 2", "2.0", "1e3", "-0", "0x2", "10" * 2500, "-" + "9" * 5000, "nan", "٣"]),
    st.text(max_size=8),
)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(["solve", "export-nfg"]), st.sampled_from(sorted(DOCUMENTS)), AT_TIMES)
def test_junk_at_time_is_exit_0_1_or_2(command, name, at_time):
    code, out, err = _cli(command, str(SCENARIO_DIR / name), f"--at-time={at_time}")
    assert code in (0, 1, 2) and "internal error" not in err, (code, err)
    assert (code == 0) == bool(out)


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
