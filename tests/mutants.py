"""Mutation checks: each mutant is one source edit that a named test must catch.

Run from anywhere, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

A mutant is one exact edit, old text to new text, to one file under
`src/bayesadapt`, and the ids of the tests that must catch it. For each
mutant the runner copies `src/` to a temporary directory, applies the edit
there and runs the mutant's tests on the copy with `python -m pytest`; the
mutant is killed when one of them fails. The named tests are first run
together on an unmutated copy, where they must pass, so a kill is the edit's
doing. Every survivor is reported by name, and the runner exits 1 if there
is one. It fails loudly, with exit 2, when a mutant's old text is not in its
file exactly once, which means the mutated code was rewritten and the mutant
must be re-pointed, or when a run ends in anything but passing or failing
tests, such as an unknown test id.

Mutation analysis after DeMillo, Lipton & Sayward, "Hints on Test Data
Selection: Help for the Practicing Programmer", IEEE Computer 1978. pytest
does not collect this file: its name does not match `test_*.py`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/bayesadapt
    old: str
    new: str
    tests: tuple[str, ...]  # ids relative to the repository root


MUTANTS = (
    Mutant(
        "no-epsilon", "solver.py",
        "not top > v + epsilon", "not top > v",
        ("tests/test_solver.py::TestHeadAndTail::test_epsilon_extremes",),
    ),
    Mutant(
        "unsorted-results", "solver.py",
        "for choice in sorted(passed):", "for choice in passed:",
        ("tests/test_solver.py::TestHeadAndTail::test_zero_marginal_slot_in_a_middle_tail",
         "tests/test_acceptance.py::test_3_solver_completeness_and_soundness"),
    ),
    Mutant(
        "maximin-last-action", "solver.py",
        "best_action = max(range(len(worst)), key=worst.__getitem__)",
        "best_action = max(reversed(range(len(worst))), key=worst.__getitem__)",
        ("tests/test_solver.py::TestMaximin::test_matching_pennies_fallback",
         "tests/test_acceptance.py::test_4_known_game_sanity"),
    ),
    Mutant(
        "selection-last-tie", "solver.py",
        "r.expected_system_utility > best.expected_system_utility",
        "r.expected_system_utility >= best.expected_system_utility",
        ("tests/test_solver.py::TestSelection::test_tie_breaks_to_canonical_first",),
    ),
    Mutant(
        "zero-mass-unpinned", "solver.py",
        "ranges = [range(len(cg.slots[k][2])) if cg.slots[k][3] > 0.0 else range(1) for k in rivals]",
        "ranges = [range(len(cg.slots[k][2])) for k in rivals]",
        ("tests/test_solver.py::TestHeadAndTail::test_zero_marginal_slot_in_the_tail",),
    ),
    Mutant(
        "last-match-rewards", "game.py",
        "got.append(head + (((), float(default)),))", "got.append(head[::-1] + (((), float(default)),))",
        ("tests/test_compiled.py::TestMaliciousRewards::test_every_malicious_payoff_equals_the_reward_oracle",),
    ),
    Mutant(
        "last-match-utility-rules", "model.py",
        "for r in model.utility_rules if qa.name in r.scores]",
        "for r in model.utility_rules[::-1] if qa.name in r.scores]",
        ("tests/test_model.py::TestSystemUtility::test_rule_order_is_significant",
         "tests/test_compiled.py::TestUtilityDifferential::test_equals_rule_table_scan_on_random_models"),
    ),
    Mutant(
        "reversed-shapley-order", "shapley.py",
        "for w, p in zip(weights, positions):", "for w, p in zip(weights[::-1], positions[::-1]):",
        ("tests/test_compiled.py::TestShapleyBits::test_values_equal_frozenset_formula_exactly",
         "tests/test_golden.py::test_shapley_stdout[chain-n8-k1]"),
    ),
    Mutant(
        "export-unwidened-zero-mass", "solver.py",
        "columns = _widen(columns, width, {k: n for k, n in enumerate(full) if width[k] < n}, len(cg.players))",
        "",
        ("tests/test_solver.py::TestNfgExport::test_equals_oracle_when_one_type_has_no_mass[1.0]",
         "tests/test_solver.py::TestNfgExport::test_equals_oracle_when_slots_join_the_walk_at_different_steps"),
    ),
    Mutant(
        "export-grown-stride", "solver.py",
        "radix.append((grown[k], 0) if k in grown else (w, stride))",
        "radix.append((grown[k], stride) if k in grown else (w, stride))",
        ("tests/test_solver.py::TestNfgExport::test_equals_oracle_when_slots_join_the_walk_at_different_steps",
         "tests/test_golden.py::test_large_export_nfg_digests[random-n4-m3-k3]"),
    ),
    Mutant(
        "fiber-digit-without-width", "game.py",
        "pos // s % n", "pos // s",
        ("tests/test_compiled.py::TestRouteEquivalence::"
         "test_every_outcome_of_a_pass_equals_the_lone_payoffs_of_a_fresh_game",),
    ),
    Mutant(
        "column-repays-paid-fibers", "game.py",
        "if column[pos] is None:", "if True:",
        ("tests/test_compiled.py::TestRouteEquivalence::test_column_writer_pays_the_fiber_writers_floats",
         "tests/test_compiled.py::TestCompiledGame::test_random_games_pay_each_fiber_once"),
    ),
    Mutant(
        "reward-grid-without-first-player", "model.py",
        "named = {j for conds, _value in entries for j, _a in conds}",
        "named = {j for conds, _value in entries for j, _a in conds} - {0}",
        ("tests/test_compiled.py::TestRouteEquivalence::test_column_writer_pays_the_fiber_writers_floats",
         "tests/test_compiled.py::TestMaliciousRewards::test_every_malicious_payoff_equals_the_reward_oracle"),
    ),
    Mutant(
        "opened-column-reversed-weights", "game.py",
        "_radix(list(zip(widths, weights)))", "_radix(list(zip(widths, weights[::-1])))",
        ("tests/test_compiled.py::TestRouteEquivalence::test_column_writer_pays_the_fiber_writers_floats",
         "tests/test_compiled.py::TestMaliciousRewards::test_every_malicious_payoff_equals_the_reward_oracle"),
    ),
    Mutant(
        "profile-key-without-normal-flags", "game.py",
        "self.parts = list(zip(self.codes, self.normal))", "self.parts = list(self.codes)",
        ("tests/test_golden.py::test_solve_all_fallback_stdout[lb3]",
         "tests/test_compiled.py::TestGamesOnOneModel::test_each_type_of_a_slot_gets_its_own_profile"),
    ),
    Mutant(
        "no-null-participant-skip", "shapley.py",
        "if a == base[j]:", "if False:",
        ("tests/test_compiled.py::TestNullParticipants::test_looks_up_only_the_keys_of_the_active_participants",),
    ),
    Mutant(
        "no-row-memo", "game.py",
        "got = self.rows[k].get(rivals)", "got = None",
        ("tests/test_compiled.py::TestInterimRows::test_random_game_computes_each_interim_once",
         "tests/test_compiled.py::TestInterimRows::test_model_backed_game_computes_each_interim_once[lb3_path]"),
    ),
    Mutant(
        "draw-tick-off-by-one", "loop.py",
        "[_cell(prefix, t, index) < bound for t in times]", "[_cell(prefix, t + 1, index) < bound for t in times]",
        ("tests/test_loop.py::TestLoopDrawsByTheFormula::test_long_golden_chain",
         "tests/test_loop.py::TestLoopOracle::test_golden_scripts[loop-chain-n4-h3000]"),
    ),
    Mutant(
        "run-one-tick-too-long", "loop.py",
        "times = range(tick, stop)", "times = range(tick, stop + 1)",
        ("tests/test_loop.py::TestLoopOracle::test_generated_scripts[0-event-free]",
         "tests/test_loop.py::TestLoopOracle::test_generated_scripts[0-one-event-per-tick]"),
    ),
    Mutant(
        "first-record-without-events", "loop.py",
        "set_events(records[0], events)", "set_events(records[0], ())",
        ("tests/test_loop.py::TestLoopOracle::test_generated_scripts[0-one-event-per-tick]",
         "tests/test_loop.py::TestLoopOracle::test_golden_scripts[lb3-two-vulns]"),
    ),
    Mutant(
        "replans-on-every-fold", "loop.py",
        "if att != last:", "if True:",
        ("tests/test_loop.py::TestRunScenario::test_first_reports_that_leave_the_attack_model_equal_do_not_replan",
         "tests/test_loop.py::TestRunScenario::test_each_attack_model_is_the_analysis_of_the_events_delivered"),
    ),
    Mutant(
        "fold-takes-a-vulnerability-twice", "attacks.py",
        "if rec.vuln_id in self.added:", "if False:",
        ("tests/test_attacks.py::TestAnalyzeAttacks::test_duplicate_events_are_idempotent",
         "tests/test_loop.py::TestRunScenario::test_re_reports_are_not_folded_again"),
    ),
    Mutant(
        "no-repeated-key-check", "scenario.py",
        "if type(value) is _RepeatedKey:", "if False:",
        ("tests/test_scenario.py::test_repeated_top_level_key_rejected",
         "tests/test_scenario.py::test_repeated_key_rejected_with_path[components[2].id]"),
    ),
)


class MutantError(Exception):
    pass


def _pytest(src: Path, tests: tuple[str, ...]) -> int:
    # pytest's exit code for `tests` run against the package under `src`
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy(tmp: str, mutant: Mutant | None = None) -> Path:
    # `src/` copied under `tmp`, with `mutant` applied
    src = Path(tmp) / "src"
    shutil.copytree(REPO_ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "bayesadapt" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise MutantError(f"mutant {mutant.name}: its old text occurs {text.count(mutant.old)} times "
                              f"in src/bayesadapt/{mutant.file}, not once; re-point it")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def run(mutants: tuple[Mutant, ...]) -> list[str]:
    """The names of the mutants that survive their tests; MutantError if a run says nothing."""
    for mutant in mutants:  # every edit applies before anything runs
        with tempfile.TemporaryDirectory() as tmp:
            _copy(tmp, mutant)
    tests = tuple(dict.fromkeys(t for mutant in mutants for t in mutant.tests))
    with tempfile.TemporaryDirectory() as tmp:
        code = _pytest(_copy(tmp), tests)
    if code != 0:
        raise MutantError(f"the named tests do not pass unmutated (pytest exit {code})")
    survivors = []
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            code = _pytest(_copy(tmp, mutant), mutant.tests)
        if code not in (0, 1):
            raise MutantError(f"mutant {mutant.name}: pytest exit {code}, neither a pass nor a test failure")
        print(f"{mutant.name}: {'killed' if code == 1 else 'SURVIVED'}", flush=True)
        if code == 0:
            survivors.append(mutant.name)
    return survivors


def main(argv: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"error: unknown mutant {', '.join(unknown)}; known: {', '.join(by_name)}", file=sys.stderr)
        return 2
    try:
        survivors = run(tuple(by_name[name] for name in argv) if argv else MUTANTS)
    except MutantError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if survivors:
        print(f"{len(survivors)} surviving: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
