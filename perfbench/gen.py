"""Seeded scenario-family generator for the benchmark.

Every function returns scenario JSON text in the format `parse_scenario`
reads, so each benchmark operation parses its input the way a user's
document would be parsed. All randomness comes from the `random.Random`
passed in; equal seeds give byte-equal documents.

Families, over components n, attacked components k and actions per
component m (each attack adds one malicious action beyond the normal set
unless stated):

- `chain` / `star`: pairwise rules along a path or around a hub;
- `random`: a seeded connected graph with pairwise rules;
- `mimicry`: `scenarios/pennies.scn` generalised to m labels: a component
  compromised with probability 1.0 whose malicious actions copy its normal
  ones and which is rewarded for matching a peer that system utility
  rewards for mismatching; such games have no pure equilibrium;
- `loop_script`: a chain or star model with a long horizon and a timeline
  mixing new vulnerabilities on new components, second vulnerabilities on
  attacked components (noisy-or update) and idempotent re-reports.
"""

from __future__ import annotations

import json
import random

ATTRIBUTES = ("perf", "sec")


def _labels(m: int) -> list[str]:
    return [f"a{j}" for j in range(m)]


def _score(rng: random.Random) -> float:
    # Integers and short decimals, like hand-written documents.
    return round(rng.uniform(-4.0, 10.0), rng.choice((0, 1, 2)))


def _components(n: int, m: int) -> list[dict]:
    return [{"id": f"c{i}", "actions": _labels(m), "baseline": "a0"} for i in range(n)]


def _edge_rules(rng: random.Random, edges: list[tuple[int, int]], m: int, per_edge: int) -> list[dict]:
    rules = []
    for a, b in edges:
        pairs = [(x, y) for x in range(m) for y in range(m)]
        for x, y in rng.sample(pairs, min(per_edge, len(pairs))):
            attr = rng.choice(ATTRIBUTES)
            rules.append({"when": {f"c{a}": f"a{x}", f"c{b}": f"a{y}"}, "scores": {attr: _score(rng)}})
    return rules


def _vulnerability(rng: random.Random, cid: str, neighbour: str, m: int, label: str,
                   p: float, vid: str) -> tuple[str, dict]:
    return vid, {
        "component": cid,
        "compromise_probability": p,
        "malicious_actions": [label],
        "reward_rules": [
            {"when": {cid: label, neighbour: f"a{rng.randrange(m)}"}, "reward": _score(rng)},
            {"when": {cid: label}, "reward": round(rng.uniform(0.0, 4.0), 1)},
        ],
        "reward_default": round(rng.uniform(-1.0, 1.0), 1),
    }


def _document(components, rules, vulns, timeline, horizon=None, seed=0, evade=False) -> str:
    attributes = [{"name": "perf", "weight": 1.0}, {"name": "sec", "weight": 1.5}]
    default = {"perf": 0, "sec": 0}
    if evade:
        attributes.append({"name": "evade", "weight": 2.0})
        default["evade"] = 1
    doc = {
        "components": components,
        "quality_attributes": attributes,
        "utility_rules": rules,
        "utility_default": default,
        "knowledge_base": {"vulnerabilities": vulns},
        "timeline": timeline,
    }
    if horizon is not None:
        doc["horizon"] = horizon
    doc["seed"] = seed
    return json.dumps(doc)


def _edges(topology: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    if topology == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if topology == "star":
        return [(0, i) for i in range(1, n)]
    # seeded random connected graph: a random spanning tree plus extra edges
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and rng.random() < 0.4:
                edges.append((a, b))
    return edges


def _targets(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct components to attack, c0 only when all n are attacked.

    c0's Normal slot is the solver's first, so attacking it changes how early
    profile checks stop and would split a class's cost in two.
    """
    return sorted(rng.sample(range(1, n) if k < n else range(n), k))


def _attack_one_shot(rng: random.Random, n: int, m: int, k: int, edges, rules):
    """Vulnerabilities and time-0 events attacking k distinct components."""
    targets = _targets(rng, n, k)
    vulns: dict[str, dict] = {}
    timeline = []
    for t in targets:
        cid = f"c{t}"
        peers = [b if a == t else a for a, b in edges if t in (a, b)]
        neighbour = f"c{rng.choice(peers)}"
        label = f"x{t}"
        vid, rec = _vulnerability(rng, cid, neighbour, m, label, round(rng.uniform(0.2, 0.8), 2), f"cve-{t}")
        vulns[vid] = rec
        timeline.append({"time": 0, "component": cid, "vuln_id": vid})
        # the system suffers when the compromised component plays the attack
        rules.insert(0, {"when": {cid: label}, "scores": {"sec": -round(rng.uniform(2.0, 8.0), 1)}})
    return vulns, timeline


def solve_document(rng: random.Random, topology: str, n: int, m: int, k: int, per_edge: int) -> str:
    """A one-shot planning problem: k components attacked at time 0."""
    edges = _edges(topology, n, rng)
    components = _components(n, m)
    rules = _edge_rules(rng, edges, m, per_edge)
    vulns, timeline = _attack_one_shot(rng, n, m, k, edges, rules)
    return _document(components, rules, vulns, timeline)


def mimicry_document(rng: random.Random, n: int, m: int, k: int, per_edge: int) -> str:
    """Matching pennies over m labels, embedded in a larger system.

    c0 is compromised with probability 1.0 and its malicious actions copy its
    normal ones; it earns a reward for matching c1, while the `evade`
    attribute pays the system when c1 mismatches c0. c1 appears in no other
    rule, so no pure equilibrium exists whatever the rest of the system does.
    """
    labels = _labels(m)
    components = _components(n, m)
    rest = list(range(2, n))
    edges = _edges("random", len(rest), rng)
    rules = [{"when": {"c0": x, "c1": x}, "scores": {"evade": 0}} for x in labels]
    rules += _edge_rules(rng, [(rest[a], rest[b]) for a, b in edges], m, per_edge)
    for c in rest:
        rules.append({"when": {f"c{c}": f"a{rng.randrange(m)}"}, "scores": {"perf": _score(rng)}})
    vulns = {
        "cve-mimic": {
            "component": "c0",
            "compromise_probability": 1.0,
            "malicious_actions": labels,
            "reward_rules": [{"when": {"c0": x, "c1": x}, "reward": 1} for x in labels],
            "reward_default": 0,
        }
    }
    timeline = [{"time": 0, "component": "c0", "vuln_id": "cve-mimic"}]
    if k > 1:
        t = rng.choice(rest)
        peer = rng.choice([c for c in rest if c != t] or [0])
        vid, rec = _vulnerability(rng, f"c{t}", f"c{peer}", m, f"x{t}", round(rng.uniform(0.2, 0.8), 2), f"cve-{t}")
        vulns[vid] = rec
        timeline.append({"time": 0, "component": f"c{t}", "vuln_id": vid})
        rules.insert(0, {"when": {f"c{t}": f"x{t}"}, "scores": {"sec": -round(rng.uniform(2.0, 8.0), 1)}})
    return _document(components, rules, vulns, timeline, evade=True)


def loop_script(rng: random.Random, topology: str, n: int, horizon: int, events: int,
                attacked: int = 2) -> str:
    """A scripted timeline over an n-component, two-action system.

    `attacked` components receive a first vulnerability at some tick (the
    first one at tick 0) and a second one later, which replans with the
    noisy-or probability update; every other event re-reports a vulnerability
    already delivered and so leaves the attack picture, and the plan, as is.
    """
    m = 2
    edges = _edges(topology, n, rng)
    components = _components(n, m)
    rules = _edge_rules(rng, edges, m, 2)
    targets = _targets(rng, n, attacked)
    vulns: dict[str, dict] = {}
    firsts, seconds = [], []
    for t in targets:
        cid = f"c{t}"
        peers = [b if a == t else a for a, b in edges if t in (a, b)]
        label = f"x{t}"
        for stage, bucket in ((1, firsts), (2, seconds)):
            vid, rec = _vulnerability(rng, cid, f"c{rng.choice(peers)}", m, label,
                                      round(rng.uniform(0.1, 0.6), 2), f"cve-{t}-{stage}")
            vulns[vid] = rec
            bucket.append((cid, vid))
        rules.insert(0, {"when": {cid: label}, "scores": {"sec": -round(rng.uniform(2.0, 8.0), 1)}})

    # Replanning ticks: firsts in order (the first at 0), each second after its first.
    key_ticks = sorted(rng.sample(range(1, horizon), 2 * attacked - 1))
    schedule = [(0, *firsts[0])]
    order = firsts[1:] + seconds
    rng.shuffle(order)
    # keep every second vulnerability after its component's first one
    order.sort(key=lambda cv: cv[1].endswith("-2"))
    schedule += [(tick, cid, vid) for tick, (cid, vid) in zip(key_ticks, order)]

    timeline = []
    for time, cid, vid in schedule:
        timeline.append({"time": time, "component": cid, "vuln_id": vid})
    delivered_at = {vid: time for time, _cid, vid in schedule}
    while len(timeline) < events:
        vid = rng.choice(sorted(delivered_at))
        time = rng.randrange(delivered_at[vid], horizon)
        timeline.append({"time": time, "component": vulns[vid]["component"], "vuln_id": vid})
    timeline.sort(key=lambda ev: ev["time"])
    return _document(components, rules, vulns, timeline, horizon=horizon, seed=rng.randrange(1 << 31))
