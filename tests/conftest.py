from __future__ import annotations

import functools
import importlib.util
import math
import time
from pathlib import Path

import pytest

from bayesadapt import analyze_attacks, build_game, parse_scenario_file

# Wall-clock anchor for the whole-suite runtime criterion; conftest is
# imported before collection starts.
SESSION_T0 = time.perf_counter()

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"
# Every shipped and golden document a test can solve and simulate: all but
# the 20-component chain, which pins only a `shapley` output at the
# participant limit.
SOLVABLE_SCRIPTS = sorted(SCENARIO_DIR.glob("*.scn")) + [
    path for path in sorted((REPO_ROOT / "tests" / "golden").glob("*.scn")) if path.stem != "chain-n20-k1"
]


@functools.cache
def bench_gen():
    """`perfbench/gen.py`, the benchmark's document generator, loaded once as a module."""
    spec = importlib.util.spec_from_file_location("_bench_gen", REPO_ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def over_budget_at_tick_three() -> dict:
    """A scenario document whose run aborts at tick 3.

    Three two-action components, each attacked with 120 extra labels: c0 at
    t=1 gives a 976-profile game, c1 and c2 at t=3 give (2 * 122)^3, about
    14.5 M profiles, over the budget.
    """
    labels = [f"x{j}" for j in range(120)]
    return {
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


def memo_fibers(cg) -> dict:
    """A compiled game's paid fibers as `{(slots, player, akey): payoffs}`.

    The memo keeps, per type profile a solver has read, its strides and one
    column per player of that player's payoffs by the joint action's
    mixed-radix position, None where unpaid. A fiber is one player's
    positions that differ only in its own action: `akey` has the player at
    its first action and `payoffs` lists the player's payoffs by action.
    This checks that the strides are the products of the action widths, the
    first player's fastest, that each column holds every position, and that
    every fiber is paid whole or not at all.
    """
    fibers = {}
    for slots, (strides, columns) in cg.outcomes.items():
        widths = [len(cg.slots[k][2]) for k in slots]
        assert strides == tuple(math.prod(widths[:j]) for j in range(len(widths)))
        assert len(columns) == len(slots)
        for i, column in enumerate(columns):
            assert type(column) is list and len(column) == math.prod(widths)
            for pos in range(len(column)):
                akey = tuple(pos // s % w for s, w in zip(strides, widths))
                if akey[i] == 0:
                    got = column[pos : pos + widths[i] * strides[i] : strides[i]]
                    assert got.count(None) in (0, len(got))
                    if got[0] is not None:
                        fibers[(slots, i, akey)] = tuple(got)
    return fibers


def memo_outcomes(cg) -> dict:
    """Every outcome of a compiled game's memo with all its payoffs paid, as `{(slots, akey): payoffs}`.

    An outcome is held once every player's fiber through it is paid; its
    payoffs are read from the columns in player order, after `memo_fibers`
    checked their layout, so each held outcome has exactly one key here.
    """
    memo_fibers(cg)
    decoded = {}
    for slots, (strides, columns) in cg.outcomes.items():
        widths = [len(cg.slots[k][2]) for k in slots]
        for pos, payoffs in enumerate(zip(*columns)):
            if None not in payoffs:
                decoded[(slots, tuple(pos // s % w for s, w in zip(strides, widths)))] = payoffs
    return decoded


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "suite_timer: must run last; asserts total suite wall-clock time"
    )


def pytest_collection_modifyitems(session, config, items):
    # Stable sort: keep declaration order, move suite-timer tests to the end.
    items.sort(key=lambda item: item.get_closest_marker("suite_timer") is not None)


@pytest.fixture(scope="session")
def lb3_path() -> Path:
    return SCENARIO_DIR / "lb3.scn"


@pytest.fixture(scope="session")
def pennies_path() -> Path:
    return SCENARIO_DIR / "pennies.scn"


@pytest.fixture(scope="session")
def two_vulns_path() -> Path:
    """lb3 with a second vulnerability on s1 whose label `stall` is new."""
    return REPO_ROOT / "tests" / "golden" / "lb3-two-vulns.scn"


@pytest.fixture(scope="session")
def lb3_script(lb3_path):
    return parse_scenario_file(lb3_path)


@pytest.fixture(scope="session")
def lb3_model(lb3_script):
    return lb3_script.model


@pytest.fixture(scope="session")
def lb3_attack(lb3_script):
    return analyze_attacks(lb3_script.timeline, lb3_script.kb, lb3_script.model)


@pytest.fixture(scope="session")
def lb3_game(lb3_model, lb3_attack):
    return build_game(lb3_model, lb3_attack)
