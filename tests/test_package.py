"""Package-wide contracts: a stdlib-only runtime, exports that resolve, and demos that run."""

from __future__ import annotations

import ast
import dataclasses
import json
import importlib
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "bayesadapt").glob("*.py"))
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    foreign = [m for m in _imported_modules(path) if m.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "bayesadapt" if path.stem == "__init__" else f"bayesadapt.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_every_export_resolves_to_its_home_modules_object():
    # Each name is read from its home module on first use, by attribute
    # and by a star import alike.
    bayesadapt = importlib.import_module("bayesadapt")
    assert sorted(bayesadapt._EXPORTS) == sorted(bayesadapt.__all__)
    starred = {}
    exec("from bayesadapt import *", starred)
    for name in bayesadapt.__all__:
        home = importlib.import_module(f"bayesadapt.{bayesadapt._EXPORTS[name]}")
        expected = getattr(home, name)
        assert bayesadapt.__getattr__(name) is expected
        assert getattr(bayesadapt, name) is expected
        assert starred[name] is expected
    assert set(bayesadapt.__all__) <= set(dir(bayesadapt))


def test_submodules_resolve_and_unknown_names_do_not():
    bayesadapt = importlib.import_module("bayesadapt")
    assert bayesadapt.__getattr__("loop") is importlib.import_module("bayesadapt.loop")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bayesadapt.no_such_name  # noqa: B018


# Run under `python -S`, so that `site` imports nothing first; it prints which
# modules each step left loaded.
IMPORT_PROBE = """
import io, json, sys
import bayesadapt
seen = [[name for name in sys.modules if name.startswith("bayesadapt.")]]
from bayesadapt.cli import run_cli
sys.stdout = io.StringIO()
codes = [run_cli(["solve", "--all", "--fallback", sys.argv[1]])]
seen.append([name for name in ("bayesadapt.loop", "hashlib", "typing", "pathlib") if name in sys.modules])
codes.append(run_cli(["simulate", sys.argv[1]]))
seen.append([name for name in ("bayesadapt.loop",) if name in sys.modules])
sys.__stdout__.write(json.dumps([codes, seen]))
"""


def test_only_simulate_loads_the_loop():
    # `import bayesadapt` loads no submodule; a solve loads neither the loop
    # nor what only the loop needs, nor pathlib, which only the export
    # needs; a simulate loads the loop.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE, str(REPO_ROOT / "scenarios" / "lb3.scn")],
                          cwd=REPO_ROOT, env=env, capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], [[], [], ["bayesadapt.loop"]]]


def _relative_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node.module


INPUT_CLASSES = ("Component", "QualityAttribute", "UtilityRule", "SystemModel", "RewardRule", "VulnerabilityRecord",
                 "AttackEvent", "AttackModel", "ScenarioScript")


@pytest.mark.parametrize("name", INPUT_CLASSES)
def test_field_table_names_every_dataclass_field_in_order(name):
    # One table per input dataclass states each field's shape, for the
    # parser and the shape walk alike; a field added without a row fails here.
    bayesadapt = importlib.import_module("bayesadapt")
    cls = getattr(bayesadapt, name)
    fields = importlib.import_module("bayesadapt.model")._FIELDS
    assert [row[0] for row in fields[cls]] == [f.name for f in dataclasses.fields(cls)]


def test_scenario_imports_only_attacks_and_model():
    # The parser and ScenarioScript's checks sit below the loop: they must
    # not depend on the game, solver, Shapley or loop layers.
    path = REPO_ROOT / "src" / "bayesadapt" / "scenario.py"
    assert set(_relative_imports(path)) == {"attacks", "model"}


# What the oracles may take from bayesadapt: its data types and the
# constructors of its inputs, `build_game` among them, the only maker of the
# games the random makers return. Everything that computes a game value
# (payoff, utility, prior, Shapley share, interim payoff) they compute
# themselves. The loop oracle checks only the loop's own bookkeeping, so it
# also takes the analyzer, the planner with its default epsilon, and the draw.
ORACLE_IMPORTS = frozenset({
    "AttackEvent", "AttackModel", "BayesianGame", "CharacteristicContext", "Component", "LoopRecord",
    "PlayerType", "QualityAttribute", "RewardRule", "SystemModel", "UtilityRule", "VulnerabilityRecord",
    "build_game", "knowledge_base_actions",
    "analyze_attacks", "plan", "DEFAULT_EPSILON", "compromise_draw",
})


def test_oracles_share_nothing_of_the_compiled_core():
    # The oracles check the package, so they take from it only the names in
    # ORACLE_IMPORTS, and never a whole module to take others from.
    path = REPO_ROOT / "tests" / "oracles.py"
    shared = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            shared += [alias.name for alias in node.names if alias.name.split(".")[0] == "bayesadapt"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bayesadapt":
            shared += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in ORACLE_IMPORTS]
    assert shared == []


def test_budget_error_is_one_class():
    modules = [importlib.import_module(m) for m in ("bayesadapt", "bayesadapt.game", "bayesadapt.solver")]
    shapley = importlib.import_module("bayesadapt.shapley")
    assert all(m.BudgetExceededError is shapley.BudgetExceededError for m in modules)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=REPO_ROOT, env=env,
                          capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_demo_is_collected():
    assert len(DEMOS) == 6
