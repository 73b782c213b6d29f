"""Per-layer tracing from outside the package.

The tracer replaces public functions with timing wrappers at the module
attributes their callers look them up from, and restores the originals
afterwards. Per function it aggregates call count, total time and self time
(total minus the time of wrapped callees) with a stack, so hot inner
functions such as `system_utility` cost no span each. Full spans (name,
start, end, parent span, operation id) are kept only for the names in
`SPAN_NAMES` and for the benchmark's own operation spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

# metric name -> (defining module, modules whose attribute callers look up)
PATCH_SITES: dict[str, tuple[str, tuple[str, ...]]] = {
    "scenario.parse_scenario": ("scenario", ("scenario",)),
    "attacks.analyze_attacks": ("attacks", ("loop", "attacks")),
    "attacks.attacker_reward": ("attacks", ("game",)),
    "model.system_utility": ("model", ("shapley", "game", "loop", "model")),
    "shapley.coalition_value": ("shapley", ("shapley",)),
    "shapley.shapley_allocation": ("shapley", ("game",)),
    "game.build_game": ("game", ("loop", "game")),
    "game.payoff": ("game", ("solver",)),
    "game.realized_system_utility": ("game", ("solver",)),
    "solver.enumerate_pure_bne": ("solver", ("loop",)),
    "solver.select_equilibrium": ("solver", ("loop",)),
    "solver.maximin_fallback": ("solver", ("loop",)),
    "solver.export_induced_nfg": ("solver", ("solver",)),
    "loop.plan": ("loop", ("loop",)),
    "loop.run_scenario": ("loop", ("loop",)),
    "loop.trace_to_lines": ("loop", ("loop",)),
}

SPAN_NAMES = frozenset(
    ("game.build_game", "solver.enumerate_pure_bne", "solver.maximin_fallback",
     "solver.export_induced_nfg", "loop.plan")
)


class Tracer:
    """Aggregated call statistics plus a span log, for one traced phase."""

    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in PATCH_SITES}
        self.stack: list[list[float]] = []
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op_id: int | None = None
        self._restore: list[tuple[object, str, object]] = []
        # counters read from arguments and results
        self.distinct_actions = 0
        self._seen_actions: set = set()
        self.participants = 0
        self.null_participants = 0
        self.profiles_examined = 0
        self.equilibria_found = 0
        self.ticks = 0
        # part name -> function name -> {"total": s, "self": s} inside that part
        self.section_layers: dict[str, dict[str, dict[str, float]]] = {}

    # -- patching -----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every name in PATCH_SITES that exists in `package`.

        A name missing from the package, or a site that does not import it,
        is skipped; its count then stays 0.
        """
        for name, (home, sites) in PATCH_SITES.items():
            func_name = name.split(".", 1)[1]
            original = getattr(getattr(package, home, None), func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, _OBSERVERS.get(name))
            for site in sites:
                mod = getattr(package, site, None)
                if mod is not None and getattr(mod, func_name, None) is original:
                    self._restore.append((mod, func_name, original))
                    setattr(mod, func_name, wrapper)

    def uninstall(self) -> None:
        for mod, func_name, original in reversed(self._restore):
            setattr(mod, func_name, original)
        self._restore.clear()

    def _wrap(self, name, fn, observe):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        keep = name in SPAN_NAMES
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if keep:
                tracer._span_open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if keep:
                    tracer._span_close(t1)
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                t2 = clock()
                try:
                    observe(tracer, args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a later signature; the derived counter stays as is
                if stack:
                    # the observer's cost is charged to no layer
                    stack[-1][0] += clock() - t2
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans --------------------------------------------------------------

    def _span_open(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append({"id": len(self.spans), "name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "op": self.op_id})
        self._open.append(len(self.spans) - 1)

    def _span_close(self, end: float) -> None:
        self.spans[self._open.pop()]["end"] = end

    @contextmanager
    def operation(self, op_id: int, name: str):
        """Span around one benchmark operation; resets per-operation sets."""
        self.op_id = op_id
        self._seen_actions = set()
        self._span_open(name)
        try:
            yield
        finally:
            self._span_close(time.perf_counter())
            self.distinct_actions += len(self._seen_actions)
            self.op_id = None

    def snapshot(self) -> dict[str, tuple[float, float]]:
        return {name: (stat[1], stat[2]) for name, stat in self.stats.items()}

    def add_section(self, section: str, before: dict[str, tuple[float, float]]) -> None:
        """Charge the time each function took since `before` to `section`."""
        layers = self.section_layers.setdefault(section, {})
        for name, (total, self_s) in before.items():
            stat = self.stats[name]
            acc = layers.setdefault(name, {"total": 0.0, "self": 0.0})
            acc["total"] += stat[1] - total
            acc["self"] += stat[2] - self_s

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        calls = {name: stat[0] for name, stat in self.stats.items()}
        out["model.system_utility.distinct"] = (self.distinct_actions, "count")
        out["model.system_utility.distinct_ratio"] = (
            ratio(self.distinct_actions, calls["model.system_utility"]), "1")
        out["shapley.coalitions_per_allocation"] = (
            ratio(calls["shapley.coalition_value"], calls["shapley.shapley_allocation"]), "1")
        out["shapley.null_participant_share"] = (ratio(self.null_participants, self.participants), "1")
        out["solver.profiles_examined"] = (self.profiles_examined, "count")
        out["solver.equilibria_found"] = (self.equilibria_found, "count")
        out["solver.payoff_calls_per_profile"] = (ratio(calls["game.payoff"], self.profiles_examined), "1")
        out["solver.fallback_share"] = (ratio(calls["solver.maximin_fallback"], calls["loop.plan"]), "1")
        out["loop.ticks"] = (self.ticks, "count")
        out["loop.replan_share"] = (ratio(calls["loop.plan"], self.ticks), "1")
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _observe_system_utility(tracer: Tracer, args, _result) -> None:
    tracer._seen_actions.add(frozenset(args[1].items()))


def _observe_allocation(tracer: Tracer, args, _result) -> None:
    ctx = args[0]
    baseline = {c.id: c.baseline for c in ctx.model.components}
    tracer.participants += len(ctx.participants)
    tracer.null_participants += sum(ctx.action[p] == baseline[p] for p in ctx.participants)


def _observe_plan(tracer: Tracer, _args, result) -> None:
    stats = getattr(result, "solve_stats", None)
    tracer.profiles_examined += getattr(stats, "profiles_examined", 0)


def _observe_enumerate(tracer: Tracer, _args, result) -> None:
    tracer.equilibria_found += len(result)


def _observe_run(tracer: Tracer, _args, result) -> None:
    tracer.ticks += len(result.records)


_OBSERVERS = {
    "model.system_utility": _observe_system_utility,
    "shapley.shapley_allocation": _observe_allocation,
    "loop.plan": _observe_plan,
    "solver.enumerate_pure_bne": _observe_enumerate,
    "loop.run_scenario": _observe_run,
}
