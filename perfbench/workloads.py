"""The benchmark's workloads: inputs, timed operations, checks and outputs.

Each workload cycles through a fixed list of scenario classes whose shares
are chosen so that the median and the 90th percentile of the operation time
fall inside a class, not on the edge between two; the seed varies
everything within a class (rule tables, scores, which components are
attacked, timelines). Document i of a run is generated from its own
`random.Random("<workload>:<seed>:<i>")`, so every operation gets a distinct
document and equal seeds give equal documents.

The timed operation calls the package through module attributes
(`pkg.loop.plan(...)`), which is where the tracer patches it, and wraps its
timed parts in `part(name)`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import gen


@dataclass(frozen=True)
class Doc:
    text: str
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    section: str                     # name of the operation's main timed part
    classes: tuple                   # one entry per slot of the cycle
    make: Callable[[random.Random, tuple], Doc]
    operate: Callable                # (pkg, text, part) -> output; `part(name)` times a part
    check: Callable                  # (pkg, oracles, doc, output) -> [problems]
    canonical: Callable              # output -> bytes for the digest
    cli: Callable                    # (pkg, doc, path, tmp) -> (CLI args, exit code, output checker)
    cli_class: tuple = ()

    def document(self, seed: int, index: int) -> Doc:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return self.make(rng, self.classes[index % len(self.classes)])

    def side_document(self, seed: int, label: str, cls: tuple) -> Doc:
        return self.make(random.Random(f"{self.name}:{seed}:{label}"), cls)


def _cycle(weights: list[tuple[tuple, int]]) -> tuple:
    """Smooth weighted round robin: each class spread evenly over the cycle."""
    slots = [((j + 0.5) / w, i, cls) for i, (cls, w) in enumerate(weights) for j in range(w)]
    return tuple(cls for _pos, _i, cls in sorted(slots))


# -- solve workloads -------------------------------------------------------

def _decide(pkg, text):
    script = pkg.scenario.parse_scenario(text)
    att = pkg.attacks.analyze_attacks(script.timeline, script.kb, script.model)
    return script, att, pkg.loop.plan(script.model, att)


def _solve_only(pkg, text, part):
    with part("decision"):
        script, att, decision = _decide(pkg, text)
    return {"script": script, "att": att, "decision": decision}


def _solve_and_export(pkg, text, part):
    with part("decision"):
        script, att, decision = _decide(pkg, text)
    game = pkg.game.build_game(script.model, att)
    with part("export"):
        nfg = pkg.solver.export_induced_nfg(game, "bench")
    return {"script": script, "att": att, "decision": decision, "game": game, "nfg": nfg}


def decision_problems(pkg, oracles, game, decision) -> list[str]:
    """Checks every decision must pass, planned alone or inside the loop."""
    problems = []
    if not math.isfinite(decision.expected_system_utility):
        problems.append(f"non-finite expected utility {decision.expected_system_utility!r}")
    found = decision.solve_stats.equilibria_found
    if decision.fallback != (found == 0):
        problems.append(f"fallback={decision.fallback} with {found} equilibria")
    for player in game.players:
        for ptype in game.type_sets[player]:
            if decision.strategy.get(player, {}).get(ptype) not in game.action_sets[(player, ptype)]:
                problems.append(f"no valid action for {player}/{ptype.value}")
                return problems
    if not decision.fallback and not oracles.oracle_is_equilibrium(
            game, decision.strategy, pkg.solver.DEFAULT_EPSILON):
        problems.append("selected profile fails the equilibrium oracle")
    return problems


def _nfg_problems(game, nfg: str) -> list[str]:
    header, _blank, body, *rest = nfg.split("\n")
    counts = header.rsplit("{", 1)[1].rstrip(" }").split()
    size = len(game.players)
    for c in counts:
        size *= int(c)
    if not header.startswith('NFG 1 R "bench"') or len(body.split()) != size or rest != [""]:
        return [f"malformed NFG: header {header!r}, {len(body.split())} payoffs for {size}"]
    return []


def _check_solve(pkg, oracles, doc, out):
    game = out.get("game") or pkg.game.build_game(out["script"].model, out["att"])
    problems = decision_problems(pkg, oracles, game, out["decision"])
    if "nfg" in out:
        problems += _nfg_problems(game, out["nfg"])
    return problems


def decision_json(decision) -> str:
    """Decision as JSON, floats as repr.

    `solve_stats` is left out: ROADMAP items 3 and 5 redefine those counters,
    while strategy, expected utility and fallback fall under the
    bit-identical contract.
    """
    return json.dumps({
        "strategy": {p: {t.value: a for t, a in per.items()} for p, per in decision.strategy.items()},
        "expected_system_utility": decision.expected_system_utility,
        "fallback": decision.fallback,
    })


def _canonical_solve(out) -> bytes:
    text = decision_json(out["decision"]) + "\n" + out.get("nfg", "")
    return text.encode("utf-8")


def _solve_cli(pkg, doc, path, _tmp):
    def output_problems(stdout: str) -> list[str]:
        _script, _att, decision = _decide(pkg, doc.text)
        expect = json.loads(decision_json(decision))
        obj = json.loads(stdout)
        if obj["count"] != decision.solve_stats.equilibria_found:
            return [f"CLI found {obj['count']} equilibria, in-process {decision.solve_stats.equilibria_found}"]
        chosen = obj["fallback"] if decision.fallback else obj["equilibria"][obj["selected_index"]]
        if (chosen["strategies"], chosen["expected_system_utility"]) != (
                expect["strategy"], expect["expected_system_utility"]):
            return ["CLI decision differs from the in-process decision"]
        return []

    return ["solve", "--all", "--fallback", str(path)], 0, output_problems


def _make_coalition(rng, cls):
    topology, n, k = cls
    return Doc(gen.solve_document(rng, topology, n, 2, k, per_edge=2))


def _make_strategy(rng, cls):
    kind, n, m, k = cls
    if kind == "mimicry":
        return Doc(gen.mimicry_document(rng, n, m, k, per_edge=2))
    return Doc(gen.solve_document(rng, "random", n, m, k, per_edge=2))


def _alternate(weights):
    """A cycle whose classes alternate chain and star from one slot to the next."""
    seen: dict[tuple, int] = {}
    out = []
    for cls in _cycle(weights):
        seen[cls] = seen.get(cls, -1) + 1
        out.append((("chain", "star")[seen[cls] % 2], *cls))
    return tuple(out)


# -- loop workload ---------------------------------------------------------

def _simulate(pkg, text, part):
    with part("simulate"):
        script = pkg.scenario.parse_scenario(text)
        trace = pkg.loop.run_scenario(script)
        lines = pkg.loop.trace_to_lines(trace)
    return {"script": script, "trace": trace, "lines": lines}


def _check_loop(pkg, oracles, doc, out):
    script, trace, lines = out["script"], out["trace"], out["lines"]
    problems = []
    if len(trace.records) != script.horizon or len(lines) != script.horizon + 1:
        problems.append(f"{len(trace.records)} records, {len(lines)} lines for horizon {script.horizon}")
    replans = [r for r in trace.records if r.replanned]
    if not trace.records or not trace.records[0].replanned or len(replans) != doc.meta["replans"]:
        problems.append(f"{len(replans)} replans, expected {doc.meta['replans']} starting at tick 0")
    for r in replans:
        game = pkg.game.build_game(script.model, r.attack_model)
        problems += [f"tick {r.time}: {p}" for p in decision_problems(pkg, oracles, game, r.decision)]
    if not all(math.isfinite(r.realized_utility) for r in trace.records):
        problems.append("non-finite realized utility")
    return problems


def _canonical_loop(out) -> bytes:
    h = hashlib.sha256()
    for line in out["lines"]:
        if '"solve_stats"' in line:
            obj = json.loads(line)
            obj["decision"].pop("solve_stats", None)
            line = json.dumps(obj, separators=(",", ":"))
        h.update(line.encode("utf-8") + b"\n")
    return h.digest()


def _loop_cli(pkg, doc, path, tmp):
    trace_path = tmp / "trace.jsonl"

    def output_problems(_stdout: str) -> list[str]:
        expected = pkg.loop.trace_to_lines(pkg.loop.run_scenario(pkg.scenario.parse_scenario(doc.text)))
        written = trace_path.read_text(encoding="utf-8").splitlines()
        trace_path.unlink()
        return [] if written == expected else ["CLI trace differs from the in-process trace"]

    return ["simulate", str(path), "--trace", str(trace_path)], 0, output_problems


def _make_loop(rng, cls):
    topology, n, horizon, attacked = cls
    events = rng.randint(12, 40)
    return Doc(gen.loop_script(rng, topology, n, horizon, events, attacked), {"replans": 2 * attacked})


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="solve-coalition",
            section="decision",
            # equal shares: p50 falls mid n=6,k=1 and p90 mid n=7,k=1, where op
            # times are dense, not in the gap between two classes
            classes=_alternate([((5, 1), 4), ((5, 2), 4), ((6, 1), 4), ((6, 2), 4), ((7, 1), 4)]),
            make=_make_coalition,
            operate=_solve_only,
            check=_check_solve,
            canonical=_canonical_solve,
            cli=_solve_cli,
            cli_class=("chain", 5, 1),
        ),
        Workload(
            name="solve-strategy",
            section="decision",
            # 15 of 20 slots are random topologies, 5 are mimicry (no pure equilibrium)
            classes=_cycle([
                (("random", 3, 5, 2), 4), (("random", 3, 4, 2), 3), (("random", 2, 6, 2), 3),
                (("random", 2, 5, 2), 3), (("random", 3, 6, 1), 1), (("random", 4, 4, 1), 1),
                (("mimicry", 3, 5, 2), 2), (("mimicry", 3, 4, 2), 2), (("mimicry", 2, 6, 1), 1),
            ]),
            make=_make_strategy,
            operate=_solve_and_export,
            check=_check_solve,
            canonical=_canonical_solve,
            cli=_solve_cli,
            cli_class=("mimicry", 3, 4, 2),
        ),
        Workload(
            name="loop-replay",
            section="simulate",
            classes=_alternate(
                # (n, horizon, attacked components); n=5 plans cost most, so
                # one attacked component keeps planning a minority of the time
                [((3, h, 2), 2) for h in (300, 700, 1500, 3000)]
                + [((4, h, 2), 2) for h in (300, 700, 1500, 3000)]
                + [((5, h, 1), 2) for h in (700, 2000)]
            ),
            make=_make_loop,
            operate=_simulate,
            check=_check_loop,
            canonical=_canonical_loop,
            cli=_loop_cli,
            cli_class=("chain", 3, 200, 2),
        ),
    )
}
