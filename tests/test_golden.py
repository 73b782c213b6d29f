"""Byte-exact golden outputs of the CLI on the model-backed scenarios.

The files under `tests/golden/` were produced once by the CLI and are never
regenerated: they pin every bit of the solver's JSON, the Gambit export, the
simulation trace and the indented report `simulate` prints, including float
summation order in the Shapley allocation. A refactor that changes any of these bytes changed observable
behavior.

Two larger model-backed documents live under `tests/golden/` as inputs,
made once by `perfbench/gen.py`: `random-n3-m5-k2.scn` is
`solve_document(random.Random(4), "random", 3, 5, 2, per_edge=2)`, whose
six equilibria pin their interim maps, and `mimicry-n3-m4-k2.scn` is
`mimicry_document(random.Random(0), 3, 4, 2, per_edge=2)`, which has no
pure equilibrium and pins the maximin fallback's worst values. Their
Gambit exports pin every ex-ante payoff of a model-backed game, Malicious
rewards included, and the `shapley` outputs pin `shapley_allocation` on
one joint action per shipped scenario.

`pd.scn`, written by hand, is the prisoner's dilemma in model-backed
form: both components are attacked with probability 1, so their Normal
types have no mass, and one reward rule per joint action pays each
Malicious type its column of the table. Its `solve --all --fallback` and
`export-nfg` outputs, which equal `oracle_pure_bne` and
`oracle_induced_nfg`, are pinned with the generated documents'.

`lb3-two-vulns.scn` is `lb3` with a second vulnerability on `s1`, `cve-y`,
delivered at t=3, whose malicious actions `stall, drop` repeat `drop` after
a new label. Its outputs pin the order of every union of labels: the
model's attack labels, the analyzed attack's, and the Malicious action set.

`loop-chain-n4-h3000.scn` is `loop_script(random.Random(0), "chain", 4,
3000, 12, attacked=2)` from `perfbench/gen.py`: 3 000 ticks over four
components, with events on 12 ticks, of which 8 re-report a vulnerability
already delivered and so re-analyze to an equal attack model without a
replan. Its trace is too long to keep as a file, so the sha256 of its
`trace_to_lines` and `format_report` bytes is pinned instead.

Two more generated documents pin the Gambit export of larger strategy
spaces by the sha256 of their `export-nfg` stdout, since the exports are
too big to keep as files: `random-n3-m6-k2.scn` is
`solve_document(random.Random(0), "random", 3, 6, 2, per_edge=2)`, with
induced strategy counts (6, 42, 42) and a 301 KB export, and
`random-n4-m4-k1.scn` is `solve_document(random.Random(0), "random", 4, 4,
1, per_edge=2)`, with counts (4, 4, 4, 20), which pins the outcome order
over four players.

`chain-n8-k1.scn` and `star-n8-k1.scn` are `solve_document(random.Random(0),
topology, 8, 2, 1, per_edge=2)` for the chain and the star: eight players,
where the solver's rows read well under half of a type profile's Shapley
shares. Their `solve --all --fallback` stdout is kept as files, and their
66 KB and 63 KB exports, which pay every share, are pinned by sha256. Their
`shapley` outputs, with every component playing `a1`, pin the keyed route
over eight participants, 256 coalitions whose shares are not round.

`chain-n20-k1.scn` is `solve_document(random.Random(0), "chain", 20, 2, 1,
per_edge=2)`, at the participant limit. Its `shapley` output, with every
odd component at `a1` and the rest at `a0`, pins the keyed route with ten
active participants among twenty, where the subset formula's weight table
is largest. The run takes about a second, so it stays out of the replays
under other interpreters and hash seeds below.

The CLI is stdlib only, so the same bytes are expected from every supported
interpreter: `test_other_interpreters_print_the_golden_bytes` reruns every
golden command under each `python3.1x` on PATH that starts and is not the
running version.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bayesadapt import (
    PlayerType,
    analyze_attacks,
    build_game,
    parse_scenario_file,
    run_scenario,
    trace_to_lines,
)
from bayesadapt.cli import format_report, run_cli
from conftest import REPO_ROOT, SCENARIO_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("lb3", "pennies")
# documents whose solve stdout and export are files: two generated, and the prisoner's dilemma
GENERATED = ("random-n3-m5-k2", "mimicry-n3-m4-k2", "pd")
# generated documents whose solve stdout is a file and whose export a digest
WALLS = ("chain-n8-k1", "star-n8-k1")
# One joint action per scenario; lb3's has s1 play the attack label `drop`
# and gives lb a share whose last bit depends on the summation order. Each
# wall's has all eight components off their baseline: 256 coalitions.
# The participant limit's has every odd one of twenty components off its
# baseline; it is not replayed.
LIMIT = "chain-n20-k1"
SHAPLEY_ACTIONS = {"lb3": "lb=to_s2,s1=drop,s2=drop", "pennies": "p1=tails,p2=heads",
                   **dict.fromkeys(WALLS, ",".join(f"c{j}=a1" for j in range(8))),
                   LIMIT: ",".join(f"c{j}=a{j % 2}" for j in range(20))}
TWO_VULNS = "lb3-two-vulns"
LONG_LOOP = "loop-chain-n4-h3000"
LONG_LOOP_SHA256 = {
    "trace_to_lines": "1171ecda34e3898961dfe6e787699abbb3f393e998b722c7f79f07ca0473d947",
    "format_report": "0c87be55c6926fd0887c622f183c38efcf090d5f223e87b0fb5e0c77e4fdd001",
}
# name -> (induced strategy counts, sha256 of the `export-nfg` stdout)
LARGE_EXPORTS = {
    "random-n3-m6-k2": ((6, 42, 42), "bb2e9b25dc6368341e0cdf6d66da44b096db2a2afad9cd98306f31f3238685a3"),
    "random-n4-m4-k1": ((4, 4, 4, 20), "9e6beccf33e425d179b9200b4958872f696fd266fad588e68691416513aa7b96"),
    "chain-n8-k1": ((2, 2, 2, 2, 2, 6, 2, 2), "6ff74b0892a5cd3d06dedcca7b43aee58d43a4a24402d796ea655d9f64a78390"),
    "star-n8-k1": ((2, 2, 2, 2, 2, 6, 2, 2), "b55cf4aae99a6f188401b85d8f3705bbd2062f5006c5ab73dbdf57534cf714e8"),
}


def _scenario(name: str) -> str:
    shipped = SCENARIO_DIR / f"{name}.scn"
    return str(shipped if shipped.exists() else GOLDEN_DIR / f"{name}.scn")


def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def _is_golden(out: str, golden: str) -> bool:
    # `out` equals the golden file, or for a large export its pinned sha256
    large = LARGE_EXPORTS.get(golden.removesuffix(".nfg"))
    if large is not None:
        return hashlib.sha256(out.encode("utf-8")).hexdigest() == large[1]
    return out == _golden(golden)


@pytest.mark.parametrize("name", SCENARIOS + (TWO_VULNS,))
def test_solve_all_fallback_stdout(capsys, name):
    code = run_cli(["solve", _scenario(name), "--all", "--fallback"])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{name}.solve-all-fallback.json")


@pytest.mark.parametrize("name", SCENARIOS + (TWO_VULNS,))
def test_simulate_trace_lines(capsys, tmp_path, name):
    trace_file = tmp_path / "trace.jsonl"
    code = run_cli(["simulate", _scenario(name), "--trace", str(trace_file)])
    capsys.readouterr()
    assert code == 0
    assert trace_file.read_text(encoding="utf-8") == _golden(f"{name}.trace.jsonl")


@pytest.mark.parametrize("name", SCENARIOS + (TWO_VULNS,))
def test_simulate_stdout(capsys, name):
    code = run_cli(["simulate", _scenario(name)])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{name}.simulate.json")


@pytest.mark.parametrize("name", SCENARIOS + (TWO_VULNS,))
def test_export_nfg_bytes(capsys, name):
    code = run_cli(["export-nfg", _scenario(name)])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{name}.nfg")


@pytest.mark.parametrize("name", GENERATED + WALLS)
def test_generated_solve_all_fallback_stdout(capsys, name):
    code = run_cli(["solve", str(GOLDEN_DIR / f"{name}.scn"), "--all", "--fallback"])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{name}.solve-all-fallback.json")


@pytest.mark.parametrize("name", GENERATED)
def test_generated_export_nfg_bytes(capsys, name):
    code = run_cli(["export-nfg", str(GOLDEN_DIR / f"{name}.scn")])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{name}.nfg")


@pytest.mark.parametrize("name", sorted(LARGE_EXPORTS))
def test_large_export_nfg_digests(capsys, name):
    counts, digest = LARGE_EXPORTS[name]
    code = run_cli(["export-nfg", str(GOLDEN_DIR / f"{name}.scn")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.split("\n", 1)[0].endswith("{ " + " ".join(map(str, counts)) + " }")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(SHAPLEY_ACTIONS))
def test_shapley_stdout(capsys, name):
    code = run_cli(["shapley", _scenario(name), "--action", SHAPLEY_ACTIONS[name]])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{name}.shapley.json")


def test_long_loop_trace_digests():
    trace = run_scenario(parse_scenario_file(GOLDEN_DIR / f"{LONG_LOOP}.scn"))
    records = trace.records
    assert len(records) == 3000 and len(records[0].realized_types) == 4
    assert len([r for r in records if r.events]) == 12
    assert len([r for r in records if r.replanned]) == 4
    # a repeated event: no analysis, so the last attack model object, and no replan
    repeat = next(i for i, r in enumerate(records) if r.events and not r.replanned)
    assert records[repeat].attack_model is records[repeat - 1].attack_model
    assert records[repeat].attack_model == records[repeat - 1].attack_model
    lines = "".join(line + "\n" for line in trace_to_lines(trace))
    digests = {
        "trace_to_lines": hashlib.sha256(lines.encode("utf-8")).hexdigest(),
        "format_report": hashlib.sha256(format_report(trace).encode("utf-8")).hexdigest(),
    }
    assert digests == LONG_LOOP_SHA256


def test_two_vulnerabilities_label_order():
    script = parse_scenario_file(_scenario(TWO_VULNS))
    att = analyze_attacks(script.timeline, script.kb, script.model)
    game = build_game(script.model, att)
    assert script.model.attack_actions["s1"] == ("drop", "stall")
    assert script.model.allowed_actions("s1") == ("serve", "drop", "stall")
    assert att.malicious_actions["s1"] == ("drop", "stall")
    assert game.action_sets[("s1", PlayerType.MALICIOUS)] == ("serve", "drop", "stall")
    assert game.model.attack_actions["s1"] == ("drop", "stall")


def _golden_commands(trace: str):
    # (CLI arguments, golden file) of every golden test above but the
    # participant limit's `shapley`; the golden of a simulate with `--trace`
    # pins the file written to `trace`, every other one stdout, and a large
    # export's is the digest in LARGE_EXPORTS.
    for name in SCENARIOS + (TWO_VULNS,):
        yield ["solve", _scenario(name), "--all", "--fallback"], f"{name}.solve-all-fallback.json"
        yield ["simulate", _scenario(name), "--trace", trace], f"{name}.trace.jsonl"
        yield ["simulate", _scenario(name)], f"{name}.simulate.json"
        yield ["export-nfg", _scenario(name)], f"{name}.nfg"
    for name in GENERATED + WALLS:
        yield ["solve", str(GOLDEN_DIR / f"{name}.scn"), "--all", "--fallback"], f"{name}.solve-all-fallback.json"
    for name in GENERATED + tuple(sorted(LARGE_EXPORTS)):
        # a large export is compared by its digest
        yield ["export-nfg", str(GOLDEN_DIR / f"{name}.scn")], f"{name}.nfg"
    for name in sorted(SHAPLEY_ACTIONS.keys() - {LIMIT}):
        yield ["shapley", _scenario(name), "--action", SHAPLEY_ACTIONS[name]], f"{name}.shapley.json"


def _other_interpreters() -> list[str]:
    # Each python3.1x on PATH that starts and reports another version than
    # the running interpreter; a pyenv shim without that version exits non-zero.
    found = []
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        probe = subprocess.run([exe, "-c", "import platform; print(platform.python_version())"],
                               capture_output=True, encoding="utf-8", timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() != platform.python_version():
            found.append(exe)
    return found


def test_other_interpreters_print_the_golden_bytes(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.1x interpreter on PATH")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    trace = tmp_path / "trace.jsonl"
    for exe in interpreters:
        for args, golden in _golden_commands(str(trace)):
            proc = subprocess.run([exe, "-m", "bayesadapt.cli", *args], cwd=REPO_ROOT, env=env,
                                  capture_output=True, encoding="utf-8", timeout=120)
            assert proc.returncode == 0, (exe, args, proc.stderr)
            out = trace.read_text(encoding="utf-8") if "--trace" in args else proc.stdout
            assert _is_golden(out, golden), (exe, args)


@pytest.mark.parametrize("seed", ["1", "2"])
def test_other_hash_seeds_print_the_golden_bytes(tmp_path, seed):
    # String hashing, and so the iteration order of every set of strings,
    # follows PYTHONHASHSEED; no printed byte may.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED=seed)
    trace = tmp_path / "trace.jsonl"
    for args, golden in _golden_commands(str(trace)):
        proc = subprocess.run([sys.executable, "-m", "bayesadapt.cli", *args], cwd=REPO_ROOT, env=env,
                              capture_output=True, encoding="utf-8", timeout=120)
        assert proc.returncode == 0, (seed, args, proc.stderr)
        out = trace.read_text(encoding="utf-8") if "--trace" in args else proc.stdout
        assert _is_golden(out, golden), (seed, args)
