"""Byte-exact golden outputs of the CLI on the model-backed scenarios.

The files under `tests/golden/` were produced once by the CLI and are never
regenerated: they pin every bit of the solver's JSON, the Gambit export and
the simulation trace, including float summation order in the Shapley
allocation. A refactor that changes any of these bytes changed observable
behavior.

Two larger model-backed documents live under `tests/golden/` as inputs,
made once by `perfbench/gen.py`: `random-n3-m5-k2.scn` is
`solve_document(random.Random(4), "random", 3, 5, 2, per_edge=2)`, whose
six equilibria pin their interim maps, and `mimicry-n3-m4-k2.scn` is
`mimicry_document(random.Random(0), 3, 4, 2, per_edge=2)`, which has no
pure equilibrium and pins the maximin fallback's worst values.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from bayesadapt.cli import run_cli
from conftest import SCENARIO_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("lb3", "pennies")
GENERATED = ("random-n3-m5-k2", "mimicry-n3-m4-k2")


def _scenario(name: str) -> str:
    return str(SCENARIO_DIR / f"{name}.scn")


def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", SCENARIOS)
def test_solve_all_fallback_stdout(capsys, name):
    code = run_cli(["solve", _scenario(name), "--all", "--fallback"])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{name}.solve-all-fallback.json")


@pytest.mark.parametrize("name", SCENARIOS)
def test_simulate_trace_lines(capsys, tmp_path, name):
    trace_file = tmp_path / "trace.jsonl"
    code = run_cli(["simulate", _scenario(name), "--trace", str(trace_file)])
    capsys.readouterr()
    assert code == 0
    assert trace_file.read_text(encoding="utf-8") == _golden(f"{name}.trace.jsonl")


@pytest.mark.parametrize("name", SCENARIOS)
def test_export_nfg_bytes(capsys, name):
    code = run_cli(["export-nfg", _scenario(name)])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{name}.nfg")


@pytest.mark.parametrize("name", GENERATED)
def test_generated_solve_all_fallback_stdout(capsys, name):
    code = run_cli(["solve", str(GOLDEN_DIR / f"{name}.scn"), "--all", "--fallback"])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{name}.solve-all-fallback.json")
