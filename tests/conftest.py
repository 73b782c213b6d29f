from __future__ import annotations

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


def memo_outcomes(cg) -> dict:
    """A compiled game's outcome memo as `{(slots, akey): payoffs}`.

    The memo keeps, per type profile its pass has paid, the list of its
    outcomes by the joint action's mixed-radix position. This decodes every
    position by the profile's strides, after checking that the strides are
    the products of the action widths, the first player's fastest, and that
    the list holds every position, so each memoized outcome has exactly one
    key here.
    """
    decoded = {}
    for slots, (strides, paid) in cg.outcomes.items():
        widths = [len(cg.slots[k][2]) for k in slots]
        assert strides == tuple(math.prod(widths[:j]) for j in range(len(widths)))
        assert type(paid) is list and len(paid) == math.prod(widths)
        for pos, payoffs in enumerate(paid):
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
