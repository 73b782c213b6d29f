from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from bayesadapt.cli import format_report, run_cli
from bayesadapt import (
    PlayerType,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    parse_scenario_file,
    run_scenario,
    trace_to_lines,
)
from conftest import REPO_ROOT, over_budget_at_tick_three

N = PlayerType.NORMAL


def invoke(capsys, *argv: str):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_validate_ok(self, capsys, lb3_path):
        code, out, err = invoke(capsys, "validate", str(lb3_path))
        assert (code, out, err) == (0, "OK\n", "")

    def test_validate_bad_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text('{"components": [], "quality_attributes": [], "utility_default": {}}', encoding="utf-8")
        code, _out, err = invoke(capsys, "validate", str(bad))
        assert code == 2
        assert "empty component list" in err

    def test_missing_file(self, capsys):
        code, _out, err = invoke(capsys, "validate", "no-such-file.scn")
        assert code == 2 and err

    def test_solve_success(self, capsys, lb3_path):
        code, out, _err = invoke(capsys, "solve", str(lb3_path), "--at-time", "2")
        assert code == 0
        report = json.loads(out)
        assert report["strategies"]["lb"] == {"Normal": "to_s2"}
        assert report["fallback"] is False

    def test_solve_no_equilibrium_is_exit_1(self, capsys, pennies_path):
        code, out, err = invoke(capsys, "solve", str(pennies_path))
        assert code == 1
        assert out == ""
        assert "no pure equilibrium; rerun with --fallback" in err

    def test_solve_fallback_is_exit_0(self, capsys, pennies_path):
        code, out, _err = invoke(capsys, "solve", str(pennies_path), "--fallback")
        assert code == 0
        report = json.loads(out)
        assert report["fallback"] is True

    def test_unknown_command_is_exit_2(self, capsys):
        code, _out, _err = invoke(capsys, "frobnicate", "x.scn")
        assert code == 2

    def test_budget_error_is_exit_3(self, capsys, tmp_path):
        components = [
            {"id": f"c{i}", "actions": ["on", "off"], "baseline": "on"} for i in range(13)
        ]
        vulns = {
            f"cve-{i}": {
                "component": f"c{i}",
                "compromise_probability": 0.5,
                "malicious_actions": ["off"],
                "reward_rules": [],
                "reward_default": 0,
            }
            for i in range(13)
        }
        timeline = [{"time": 0, "component": f"c{i}", "vuln_id": f"cve-{i}"} for i in range(13)]
        doc = {
            "components": components,
            "quality_attributes": [{"name": "q", "weight": 1.0}],
            "utility_rules": [],
            "utility_default": {"q": 0},
            "knowledge_base": {"vulnerabilities": vulns},
            "timeline": timeline,
            "horizon": 1,
        }
        big = tmp_path / "big.scn"
        big.write_text(json.dumps(doc), encoding="utf-8")
        code, _out, err = invoke(capsys, "solve", str(big))
        assert code == 3
        assert "budget" in err


    def test_horizon_beyond_the_tick_budget_is_exit_3_at_once(self, tmp_path, lb3_path):
        doc = json.loads(lb3_path.read_text(encoding="utf-8"))
        doc["horizon"] = 10**9
        long = tmp_path / "long.scn"
        long.write_text(json.dumps(doc), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "bayesadapt.cli", "simulate", str(long)],
                              cwd=REPO_ROOT, env=env, capture_output=True, encoding="utf-8", timeout=2)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "horizon of 1000000000 ticks exceeds budget 100000" in proc.stderr

    def test_simulate_aborted_mid_run_is_exit_3_with_one_line(self, tmp_path):
        # The budget fails at tick 3's replan: nothing reaches stdout, and
        # stderr names the tick and the cause.
        doc = tmp_path / "over-budget.scn"
        doc.write_text(json.dumps(over_budget_at_tick_three()), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "bayesadapt.cli", "simulate", str(doc)],
                              cwd=REPO_ROOT, env=env, capture_output=True, encoding="utf-8", timeout=60)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("error: scenario aborted at tick 3: "
                               "profile space of 14526784 profiles exceeds budget 10000000\n")

    def test_closed_stdout_is_exit_3_with_one_line(self):
        # The 3 000-tick report is 5 MB, far more than a pipe buffers, so
        # the write fails once the reader has closed its end.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        scenario = REPO_ROOT / "tests" / "golden" / "loop-chain-n4-h3000.scn"
        with subprocess.Popen([sys.executable, "-m", "bayesadapt.cli", "simulate", str(scenario)],
                              cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read().decode("utf-8")
            code = proc.wait(timeout=60)
        assert code == 3
        assert err == "error: stdout closed before the output was written\n"

    def test_shapley_beyond_the_participant_limit_is_exit_3(self, capsys, tmp_path):
        # 21 single-type players make 2^21 profiles, within the profile
        # budget, but each Shapley allocation would span 2^21 coalitions
        doc = {
            "components": [
                {"id": f"c{i}", "actions": ["on", "off"], "baseline": "on"} for i in range(21)
            ],
            "quality_attributes": [{"name": "q", "weight": 1.0}],
            "utility_default": {"q": 0},
        }
        wide = tmp_path / "wide.scn"
        wide.write_text(json.dumps(doc), encoding="utf-8")
        every_off = ",".join(f"c{i}=off" for i in range(21))
        for argv in (["solve"], ["export-nfg"], ["simulate"], ["shapley", "--action", every_off]):
            code, out, err = invoke(capsys, argv[0], str(wide), *argv[1:])
            assert (code, out) == (3, "")
            assert "budget" in err

    def test_repeated_vulnerability_id_is_exit_2_on_every_command(self, capsys, tmp_path, lb3_path):
        text = lb3_path.read_text(encoding="utf-8")
        head = '"vulnerabilities": {'
        assert text.count(head) == 1
        twice = tmp_path / "twice.scn"
        record = '"cve-x": {"component": "s2", "compromise_probability": 0.5, "malicious_actions": ["drop"]},'
        twice.write_text(text.replace(head, head + record), encoding="utf-8")
        for argv in (["validate"], ["solve"], ["export-nfg"], ["simulate"],
                     ["shapley", "--action", "lb=to_s2,s1=serve,s2=serve"]):
            code, out, err = invoke(capsys, argv[0], str(twice), *argv[1:])
            assert (code, out) == (2, "")
            assert "knowledge_base.vulnerabilities.cve-x: repeated key" in err

    def test_unknown_field_is_exit_2(self, capsys, tmp_path, lb3_path):
        text = lb3_path.read_text(encoding="utf-8")
        assert '"utility_rules"' in text
        typo = tmp_path / "typo.scn"
        typo.write_text(text.replace('"utility_rules"', '"utilty_rules"', 1), encoding="utf-8")
        code, out, err = invoke(capsys, "solve", str(typo))
        assert (code, out) == (2, "")
        assert "utilty_rules: unknown field" in err


class TestNonFiniteInput:
    """Non-finite numbers are invalid input (exit 2), never results or crashes."""

    @staticmethod
    def _write(tmp_path, lb3_path, old: str, new: str):
        text = lb3_path.read_text(encoding="utf-8")
        assert old in text
        path = tmp_path / "bad.scn"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        return path

    def test_nan_reward_is_exit_2_on_every_command(self, capsys, tmp_path, lb3_path):
        bad = self._write(tmp_path, lb3_path, '"reward": 5', '"reward": NaN')
        for argv in (["validate"], ["solve", "--all"], ["export-nfg"], ["simulate"],
                     ["shapley", "--action", "lb=to_s2,s1=serve,s2=serve"]):
            code, out, err = invoke(capsys, argv[0], str(bad), *argv[1:])
            assert (code, out) == (2, "")
            assert "knowledge_base.vulnerabilities.cve-x.reward_rules[0].reward" in err
            assert "non-finite" in err

    def test_infinite_weight_is_exit_2(self, capsys, tmp_path, lb3_path):
        bad = self._write(tmp_path, lb3_path, '"weight": 1.0', '"weight": Infinity')
        code, _out, err = invoke(capsys, "solve", str(bad))
        assert code == 2
        assert "quality_attributes[0].weight" in err

    def test_boolean_reward_default_is_exit_2(self, capsys, tmp_path, lb3_path):
        bad = self._write(tmp_path, lb3_path, '"reward_default": 0', '"reward_default": true')
        code, _out, err = invoke(capsys, "validate", str(bad))
        assert code == 2
        assert "reward_default" in err

    def test_overflowing_utilities_are_exit_2_on_every_command(self, capsys, tmp_path):
        # Every number is finite, but utilities reach +-1e309 and Shapley
        # differences inf - inf: once printed as NaN/Infinity with exit 0.
        doc = {
            "components": [{"id": c, "actions": ["x", "y"], "baseline": "x"} for c in "abcd"],
            "quality_attributes": [{"name": "perf", "weight": 1e308},
                                   {"name": "sec", "weight": -1e308}],
            "utility_rules": [
                {"when": {"a": "y", "b": "y"}, "scores": {"perf": 10}},
                {"when": {"c": "y"}, "scores": {"sec": 10, "perf": -10}},
                {"when": {"d": "y"}, "scores": {"sec": -10}},
            ],
            "utility_default": {"perf": 0, "sec": 1},
            "knowledge_base": {"vulnerabilities": {"v": {
                "component": "a", "compromise_probability": 0.5, "malicious_actions": ["z"],
                "reward_rules": [{"when": {"a": "z"}, "reward": 2}]}}},
            "timeline": [{"time": 0, "component": "a", "vuln_id": "v"}],
            "horizon": 2,
        }
        bad = tmp_path / "overflow.scn"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["solve", "--all", "--fallback"], ["export-nfg"], ["simulate"]):
            code, out, err = invoke(capsys, argv[0], str(bad), *argv[1:])
            assert (code, out) == (2, "")
            assert err.startswith("error: quality_attributes[0].weight: UtilityOverflow")


class TestEpsilonOption:
    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1", "x"])
    def test_bad_epsilon_is_exit_2_on_solve(self, capsys, lb3_path, epsilon):
        code, out, err = invoke(capsys, "solve", str(lb3_path), "--epsilon", epsilon, "--all")
        assert (code, out) == (2, "")
        assert "--epsilon" in err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_bad_epsilon_is_exit_2_on_simulate(self, capsys, tmp_path, lb3_path, epsilon):
        trace_file = tmp_path / "trace.jsonl"
        code, out, err = invoke(capsys, "simulate", str(lb3_path), "--epsilon", epsilon,
                                "--trace", str(trace_file))
        assert (code, out) == (2, "")
        assert "--epsilon" in err
        assert not trace_file.exists()

    def test_zero_epsilon_is_accepted(self, capsys, lb3_path):
        code, out, _err = invoke(capsys, "solve", str(lb3_path), "--epsilon", "0", "--all")
        assert code == 0
        assert json.loads(out)["count"] == 2


class TestShapleyCommand:
    def test_allocation_output(self, capsys, lb3_path):
        code, out, _err = invoke(
            capsys, "shapley", str(lb3_path), "--action", "lb=to_s2,s1=serve,s2=serve"
        )
        assert code == 0
        report = json.loads(out)
        assert report["values"] == {"lb": -2.0, "s1": 0.0, "s2": 0.0}

    def test_malformed_action_spec(self, capsys, lb3_path):
        code, _out, err = invoke(capsys, "shapley", str(lb3_path), "--action", "lb:to_s2")
        assert code == 2 and "component=action" in err

    def test_unknown_action_label(self, capsys, lb3_path):
        code, _out, err = invoke(
            capsys, "shapley", str(lb3_path), "--action", "lb=fly,s1=serve,s2=serve"
        )
        assert code == 2 and "fly" in err

    def test_repeated_component_is_exit_2(self, capsys, lb3_path):
        code, out, err = invoke(
            capsys, "shapley", str(lb3_path), "--action", "lb=to_s1,lb=to_s2,s1=serve,s2=serve"
        )
        assert (code, out) == (2, "")
        assert "component 'lb' assigned twice in --action" in err


class TestSolveOutput:
    def test_all_flag_lists_equilibria(self, capsys, lb3_path):
        code, out, _err = invoke(capsys, "solve", str(lb3_path), "--all")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 2
        assert report["selected_index"] == 1
        assert [e["strategies"]["lb"]["Normal"] for e in report["equilibria"]] == [
            "to_s1", "to_s2",
        ]

    def test_at_time_before_attack(self, capsys, lb3_path):
        code, out, _err = invoke(capsys, "solve", str(lb3_path), "--at-time", "1")
        assert code == 0
        assert json.loads(out)["strategies"]["lb"] == {"Normal": "to_s1"}

    def test_all_with_no_equilibria_still_exit_1(self, capsys, pennies_path):
        code, out, err = invoke(capsys, "solve", str(pennies_path), "--all")
        assert code == 1
        report = json.loads(out)
        assert report == {"count": 0, "selected_index": None, "equilibria": []}
        assert "no pure equilibrium" in err

    def test_all_with_fallback_includes_maximin(self, capsys, pennies_path):
        code, out, _err = invoke(capsys, "solve", str(pennies_path), "--all", "--fallback")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 0
        assert report["fallback"]["fallback"] is True

    def test_byte_identical_output(self, capsys, lb3_path):
        _code, first, _ = invoke(capsys, "solve", str(lb3_path))
        _code, second, _ = invoke(capsys, "solve", str(lb3_path))
        assert first == second


class TestExportNfg:
    def test_stdout_export(self, capsys, lb3_path):
        code, out, _err = invoke(capsys, "export-nfg", str(lb3_path))
        assert code == 0
        assert out.startswith('NFG 1 R "lb3" { "lb" "s1" "s2" } { 2 4 2 }\n\n')
        assert out.endswith("\n")

    def test_file_export(self, capsys, tmp_path, lb3_path):
        target = tmp_path / "game.nfg"
        code, out, _err = invoke(capsys, "export-nfg", str(lb3_path), "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8").startswith("NFG 1 R")

    @pytest.mark.parametrize("name", ["foo.", "a.b.c", ".scn", "g.scn"])
    def test_title_is_the_file_stem(self, capsys, tmp_path, lb3_path, name):
        # the stem as pathlib gives it, for a trailing dot and several dots too
        path = tmp_path / name
        path.write_bytes(lb3_path.read_bytes())
        code, out, _err = invoke(capsys, "export-nfg", str(path))
        assert code == 0
        assert out.startswith(f'NFG 1 R "{path.stem}" {{ "lb" "s1" "s2" }}')

    def test_overflowing_exante_payoff_is_exit_2(self, capsys, tmp_path):
        # `validate` and `solve` accept it: every number is finite, but p0's
        # ex-ante payoff sums its largest reward over priors that add up to
        # slightly more than 1, which rounds to inf.
        vulns = {f"v{i}": {"component": f"p{i}", "compromise_probability": prob, "malicious_actions": ["a"],
                           "reward_rules": [], "reward_default": reward}
                 for i, (prob, reward) in enumerate(((1.0, 1.7976931348623157e308), (0.49, 0), (0.32, 0)))}
        doc = {
            "components": [{"id": f"p{i}", "actions": ["a"], "baseline": "a"} for i in range(3)],
            "quality_attributes": [{"name": "q", "weight": 1.0}],
            "utility_rules": [],
            "utility_default": {"q": 0},
            "knowledge_base": {"vulnerabilities": vulns},
            "timeline": [{"time": 0, "component": f"p{i}", "vuln_id": f"v{i}"} for i in range(3)],
            "horizon": 1,
        }
        path = tmp_path / "overflow.scn"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert invoke(capsys, "validate", str(path))[0] == 0
        code, out, err = invoke(capsys, "export-nfg", str(path))
        assert (code, out) == (2, "")
        assert err == "error: ex-ante payoff inf of player 'p0' is not a finite number\n"


class TestSimulate:
    def test_simulate_summary_and_trace_file(self, capsys, tmp_path, lb3_path):
        trace_file = tmp_path / "trace.jsonl"
        code, out, _err = invoke(
            capsys, "simulate", str(lb3_path), "--trace", str(trace_file)
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["records"]) == 4
        assert report["records"][2]["realized_action"]["lb"] == "to_s2"
        lines = trace_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["seed"] == 0

    def test_seed_override(self, capsys, lb3_path):
        code, out, _err = invoke(capsys, "simulate", str(lb3_path), "--seed", "42")
        assert code == 0
        assert json.loads(out)["seed"] == 42

    def test_byte_identical_output(self, capsys, lb3_path):
        _c, first, _ = invoke(capsys, "simulate", str(lb3_path))
        _c, second, _ = invoke(capsys, "simulate", str(lb3_path))
        assert first == second


class TestFormatReport:
    def test_equilibrium_report_shape(self):
        script = parse_scenario_file(REPO_ROOT / "tests" / "golden" / "pd.scn")
        result = enumerate_pure_bne(build_game(script.model, analyze_attacks(script.timeline, script.kb, script.model)))[0]
        report = json.loads(format_report(result))
        assert report["strategies"] == {"p1": {"Normal": "C", "Malicious": "D"}, "p2": {"Normal": "C", "Malicious": "D"}}
        assert list(report) == ["strategies", "interim", "expected_system_utility", "fallback"]

    def test_empty_trace_report(self, lb3_script):
        import dataclasses

        script = dataclasses.replace(lb3_script, timeline=(), horizon=0)
        report = json.loads(format_report(run_scenario(script)))
        assert report["records"] == []

    @pytest.mark.parametrize("scenario", ["lb3_path", "pennies_path"])
    def test_trace_report_equals_the_trace_lines_joined(self, scenario, request):
        trace = run_scenario(parse_scenario_file(request.getfixturevalue(scenario)))
        header, *records = trace_to_lines(trace)
        obj = json.loads(header)
        obj["records"] = [json.loads(line) for line in records]
        assert format_report(trace) == json.dumps(obj, indent=2)
