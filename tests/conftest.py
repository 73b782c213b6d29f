from __future__ import annotations

import time
from pathlib import Path

import pytest

from bayesadapt import analyze_attacks, build_game, parse_scenario_file

# Wall-clock anchor for the whole-suite runtime criterion; conftest is
# imported before collection starts.
SESSION_T0 = time.perf_counter()

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"


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
