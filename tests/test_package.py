"""Package-wide contracts: a stdlib-only runtime, exports that resolve, and demos that run."""

from __future__ import annotations

import ast
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


def _relative_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node.module


def test_scenario_imports_only_attacks_and_model():
    # The parser and ScenarioScript's checks sit below the loop: they must
    # not depend on the game, solver, Shapley or loop layers.
    path = REPO_ROOT / "src" / "bayesadapt" / "scenario.py"
    assert set(_relative_imports(path)) == {"attacks", "model"}


# What the oracles may take from bayesadapt: its data types and the
# constructors of its inputs. Everything that computes a game value (payoff,
# utility, prior, Shapley share, interim payoff) they compute themselves.
ORACLE_IMPORTS = frozenset({
    "AttackEvent", "BayesianGame", "CharacteristicContext", "Component", "PlayerType",
    "QualityAttribute", "RewardRule", "SystemModel", "UtilityRule", "VulnerabilityRecord",
    "knowledge_base_actions",
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
