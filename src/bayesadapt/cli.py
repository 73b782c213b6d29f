"""Command-line interface.

Subcommands: validate, shapley, solve, export-nfg, simulate. All structured
results go to stdout as JSON with a fixed key order; diagnostics go to
stderr. Exit codes: 0 success, 1 no pure equilibrium (solve without
--fallback), 2 invalid input, 3 internal or budget error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attacks import analyze_attacks
from .game import build_game
from .loop import ScenarioAborted, Trace, run_scenario, trace_objs, write_trace
from .scenario import parse_scenario_file
from .shapley import CharacteristicContext, shapley_allocation
from .solver import (
    DEFAULT_EPSILON,
    BudgetExceededError,
    EquilibriumResult,
    _check_epsilon,
    enumerate_pure_bne,
    maximin_fallback,
    select_equilibrium,
)

__all__ = ["main", "run_cli", "format_report"]


def _equilibrium_obj(result: EquilibriumResult) -> dict:
    strategies = {
        player: {t.value: a for t, a in per_type.items()}
        for player, per_type in result.profile.items()
    }
    interim: dict[str, dict[str, float]] = {}
    for (player, t), value in result.interim.items():
        interim.setdefault(player, {})[t.value] = value
    return {
        "strategies": strategies,
        "interim": interim,
        "expected_system_utility": result.expected_system_utility,
        "fallback": result.fallback,
    }


def format_report(result: EquilibriumResult | Trace) -> str:
    """Stable JSON rendering of a solver result or a simulation trace."""
    if isinstance(result, Trace):
        header, *records = trace_objs(result)
        header["records"] = records
        return json.dumps(header, indent=2)
    return json.dumps(_equilibrium_obj(result), indent=2)


def _parse_action_spec(spec: str) -> dict[str, str]:
    action: dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed action assignment {part!r} (expected component=action)")
        cid, label = (text.strip() for text in part.split("=", 1))
        if cid in action:
            raise ValueError(f"component {cid!r} assigned twice in --action")
        action[cid] = label
    if not action:
        raise ValueError("empty action specification")
    return action


def _epsilon_arg(text: str) -> float:
    try:
        epsilon = float(text)
        _check_epsilon(epsilon)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return epsilon


def _attack_model_at(script, at_time):
    events = script.timeline
    if at_time is not None:
        events = tuple(ev for ev in events if ev.time <= at_time)
    return analyze_attacks(events, script.kb, script.model)


def _cmd_validate(args) -> int:
    parse_scenario_file(args.scenario)
    print("OK")
    return 0


def _cmd_shapley(args) -> int:
    script = parse_scenario_file(args.scenario)
    action = _parse_action_spec(args.action)
    for cid in action:
        if cid not in script.model.component_ids:
            raise ValueError(f"unknown component {cid!r} in --action")
    ctx = CharacteristicContext(
        model=script.model,
        action=action,
        participants=script.model.component_ids,
    )
    values = shapley_allocation(ctx)
    print(json.dumps({"action": action, "values": values}, indent=2))
    return 0


def _cmd_solve(args) -> int:
    script = parse_scenario_file(args.scenario)
    att = _attack_model_at(script, args.at_time)
    game = build_game(script.model, att)
    results = enumerate_pure_bne(game, args.epsilon)
    selected = select_equilibrium(results)

    if args.all:
        obj = {
            "count": len(results),
            "selected_index": results.index(selected) if selected is not None else None,
            "equilibria": [_equilibrium_obj(r) for r in results],
        }
        if not results and args.fallback:
            obj["fallback"] = _equilibrium_obj(maximin_fallback(game))
        print(json.dumps(obj, indent=2))
        if not results and not args.fallback:
            print("no pure equilibrium; rerun with --fallback", file=sys.stderr)
            return 1
        return 0

    if selected is None:
        if not args.fallback:
            print("no pure equilibrium; rerun with --fallback", file=sys.stderr)
            return 1
        selected = maximin_fallback(game)
    print(format_report(selected))
    return 0


def _cmd_export_nfg(args) -> int:
    from .solver import export_induced_nfg

    script = parse_scenario_file(args.scenario)
    att = _attack_model_at(script, args.at_time)
    game = build_game(script.model, att)
    text = export_induced_nfg(game, Path(args.scenario).stem)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    import dataclasses

    script = parse_scenario_file(args.scenario)
    if args.seed is not None:
        script = dataclasses.replace(script, seed=args.seed)
    trace = run_scenario(script, args.epsilon)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            write_trace(trace, fh)
    print(format_report(trace))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesadapt",
        description="Plan security adaptations by solving component-level Bayesian games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario document")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("shapley", help="decompose system utility for one joint action")
    p.add_argument("scenario")
    p.add_argument("--action", required=True, metavar="C=A,...", help="joint action, e.g. lb=to_s1,s1=serve")
    p.set_defaults(func=_cmd_shapley)

    p = sub.add_parser("solve", help="enumerate pure equilibria and select one")
    p.add_argument("scenario")
    p.add_argument("--at-time", type=int, default=None, metavar="T",
                   help="use only timeline events with time <= T (default: all)")
    p.add_argument("--epsilon", type=_epsilon_arg, default=DEFAULT_EPSILON)
    p.add_argument("--all", action="store_true", help="print every equilibrium, not just the selected one")
    p.add_argument("--fallback", action="store_true", help="fall back to maximin when no equilibrium exists")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("export-nfg", help="write the induced normal form in Gambit payoff format")
    p.add_argument("scenario")
    p.add_argument("--at-time", type=int, default=None, metavar="T")
    p.add_argument("-o", "--output", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_export_nfg)

    p = sub.add_parser("simulate", help="run the scripted adaptation loop")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None, help="override the script seed")
    p.add_argument("--epsilon", type=_epsilon_arg, default=DEFAULT_EPSILON)
    p.add_argument("--trace", default=None, metavar="FILE", help="also write the line-delimited trace")
    p.set_defaults(func=_cmd_simulate)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except (BudgetExceededError, ScenarioAborted) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal failure
        print(f"internal error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
