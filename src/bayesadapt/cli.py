"""Command-line interface.

Subcommands: validate, shapley, solve, export-nfg, simulate. All structured
results go to stdout as JSON with a fixed key order; diagnostics go to
stderr. Exit codes: 0 success, 1 no pure equilibrium (solve without
--fallback), 2 invalid input, 3 internal or budget error, or stdout closed
before the output was written. `simulate` prints its report as `json.dumps`
with `indent=2` would, spliced from fragments that are each encoded once and
written as they are spliced, so no more than one record's text is held.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections.abc import Iterator

from .attacks import analyze_attacks
from .game import build_game
from .scenario import parse_scenario_file
from .shapley import CharacteristicContext, shapley_allocation
from .solver import (
    DEFAULT_EPSILON,
    BudgetExceededError,
    EquilibriumResult,
    _check_epsilon,
    enumerate_pure_bne,
    export_induced_nfg,
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
        if not math.isfinite(value):  # the model's utility bound keeps the expected utility finite
            raise ValueError(f"interim payoff {value!r} of player {player!r} of type {t.value} is not a finite number")
        interim.setdefault(player, {})[t.value] = value
    return {
        "strategies": strategies,
        "interim": interim,
        "expected_system_utility": result.expected_system_utility,
        "fallback": result.fallback,
    }


_indented = json.JSONEncoder(indent=2).encode


def format_report(result: EquilibriumResult | Trace) -> str:
    """Stable JSON rendering of a solver result or a simulation trace.

    Both are `json.dumps(obj, indent=2)` of their object; a trace's is the
    join of `_report_texts`, which `simulate` writes piece by piece. Only a
    trace's report loads the loop, which rejects anything but a Trace with
    ValueError naming its type. JSON holds no infinity, so a result's
    interim payoff that is not finite raises ValueError naming its player
    and type.
    """
    if isinstance(result, EquilibriumResult):
        return json.dumps(_equilibrium_obj(result), indent=2)
    return "".join(_report_texts(result))


def _report_texts(trace: Trace) -> Iterator[str]:
    """A trace's indented report in pieces, each made when asked for.

    The header and records come from `loop._spliced`, each fragment encoded
    once; each record sits at depth 2 of the `records` list.
    """
    from .loop import _spliced

    texts = _spliced(trace, _indented, "\n    ")
    # The header's closing "\n}" makes way for the records.
    yield f'{next(texts)[:-2]},\n  "records": '
    record = next(texts, None)
    if record is None:
        yield "[]\n}"
        return
    yield "[\n    " + record
    for record in texts:
        yield ",\n    " + record
    yield "\n  ]\n}"


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
        return _check_epsilon(float(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


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
    chosen = selected or (maximin_fallback(game) if args.fallback else None)

    if args.all:
        obj = {
            "count": len(results),
            "selected_index": results.index(selected) if selected is not None else None,
            "equilibria": [_equilibrium_obj(r) for r in results],
        }
        if chosen is not selected:
            obj["fallback"] = _equilibrium_obj(chosen)
        print(json.dumps(obj, indent=2))
    elif chosen is not None:
        print(format_report(chosen))
    if chosen is None:
        print("no pure equilibrium; rerun with --fallback", file=sys.stderr)
        return 1
    return 0


def _cmd_export_nfg(args) -> int:
    from pathlib import Path  # only the export names its game by the file, so no other command loads pathlib

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
    from .loop import ScenarioAborted, run_scenario, write_trace

    script = parse_scenario_file(args.scenario)
    if args.seed is not None:
        script = dataclasses.replace(script, seed=args.seed)
    try:
        trace = run_scenario(script, args.epsilon)
    except ScenarioAborted as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            write_trace(trace, fh)
    sys.stdout.writelines(_report_texts(trace))
    sys.stdout.write("\n")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # What stdout still buffers goes to the null device when flushed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 3
    except BudgetExceededError as e:
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
