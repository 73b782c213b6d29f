"""Independent, deliberately naive re-implementations used as test oracles.

The payoff oracle computes the game's payoff definition on its own: a
Malicious player's first matching reward rule, or a Normal player's
subset-formula Shapley share of `oracle_utility`. The equilibrium oracle
tests every strategy profile against every single-type deviation with its
own bookkeeping, the maximin
oracle takes each action's worst interim payoff over every opponent
profile, and the export oracle sums every ex-ante payoff of the induced
normal form from prior products and `oracle_payoff`. The utility and
Shapley oracles scan the rule table per evaluation and sum over frozenset
coalitions, in the summation order the package promises, so compiled
results must equal theirs bit for bit. Two more Shapley oracles take other
routes: the permutation average over all n! orders, and the subset formula
in exact `Fraction` arithmetic. The trace oracle builds the JSON objects of
a trace's header and records afresh for every record, for `json.dumps` to
check the spliced trace lines and report against. From the package, the
oracles take only its data types and input constructors, never a function
that computes a game value. The loop oracle is the one exception: it runs
the loop one plain tick at a time and takes the analyzer, the planner and
the draw from the package, so it checks the loop's own bookkeeping: when
to analyze and to replan, which draws fall below which probability, and
what each record holds. Random generators for games, system models and attack inputs live
here too. Every game they make comes from `build_game`, the only maker of
a game: a component attacked with probability 1 has a Normal type without
mass, so one reward rule per joint action gives any normal-form game a
model-backed form (`table_game`).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

from bayesadapt.attacks import (AttackEvent, AttackModel, RewardRule, VulnerabilityRecord, analyze_attacks,
                               knowledge_base_actions)
from bayesadapt.game import BayesianGame, PlayerType, build_game
from bayesadapt.loop import LoopRecord, compromise_draw, plan
from bayesadapt.model import Component, QualityAttribute, SystemModel, UtilityRule
from bayesadapt.shapley import CharacteristicContext
from bayesadapt.solver import DEFAULT_EPSILON

NORMAL = PlayerType.NORMAL
MALICIOUS = PlayerType.MALICIOUS


def oracle_interim(game: BayesianGame, player: str, ptype: PlayerType, profile) -> float:
    """Interim expectation by direct summation, no caching anywhere."""
    others = [q for q in game.players if q != player]
    total = 0.0
    for combo in itertools.product(*(game.type_sets[q] for q in others)):
        weight = 1.0
        for q, t in zip(others, combo):
            weight *= game.marginal(q, t)
        if weight == 0.0:
            continue
        types = dict(zip(others, combo))
        types[player] = ptype
        action = {q: profile[q][types[q]] for q in game.players}
        total += weight * oracle_payoff(game, types, action, player)
    return total


def oracle_prior(game: BayesianGame, types) -> float:
    """Probability of a type profile: the marginals multiplied in player order."""
    prob = 1.0
    for p in game.players:
        prob *= game.marginal(p, types[p])
    return prob


def oracle_reward(att, component: str, action) -> float:
    """Reward of a compromised component: its first rule that `action` matches, else its default."""
    rules, default = att.rewards[component]
    for rule in rules:
        if all(action.get(cid) == label for cid, label in rule.when.items()):
            return float(rule.reward)
    return float(default)


def oracle_payoff(game: BayesianGame, types, action, player: str) -> float:
    """A player's payoff by the game's definition, with no memo across calls.

    A Malicious player gets `oracle_reward`, and a Normal player its
    subset-formula Shapley share of `oracle_utility` among the Normal
    players: coalition members play their label from `action`, the other
    Normal players their baseline, and Malicious players their label. Each
    coalition is valued once per call.
    """
    if types[player] is MALICIOUS:
        return oracle_reward(game.attack, player, action)
    model = game.model
    values: dict[frozenset, float] = {}

    def value(coalition: frozenset) -> float:
        if coalition not in values:
            joint = {
                c.id: action[c.id] if c.id in coalition or types[c.id] is MALICIOUS else c.baseline
                for c in model.components
            }
            values[coalition] = oracle_utility(model, joint)
        return values[coalition]

    return oracle_share([p for p in game.players if types[p] is NORMAL], player, value)


def oracle_utility(model: SystemModel, action) -> float:
    """System utility by scanning the rule table once per attribute, no index or memo."""
    total = 0.0
    for qa in model.quality_attributes:
        for rule in model.utility_rules:
            if qa.name in rule.scores and all(
                action.get(cid) == label for cid, label in rule.when.items()
            ):
                score = float(rule.scores[qa.name])
                break
        else:
            score = float(model.utility_default[qa.name])
        total += qa.weight * score
    return total


def oracle_share(participants, pid: str, value) -> float:
    """Subset-formula Shapley value of `pid` over frozenset coalitions.

    The other participants' coalitions run by ascending bit mask over them in
    order; each term is weight(|S|) * (v(S + pid) - v(S)).
    """
    ids = list(participants)
    n = len(ids)
    fact = [1.0] * (n + 1)
    for k in range(1, n + 1):
        fact[k] = fact[k - 1] * k
    rest = [q for q in ids if q != pid]
    total = 0.0
    for mask in range(1 << (n - 1)):
        coalition = frozenset(rest[j] for j in range(n - 1) if mask >> j & 1)
        s = len(coalition)
        weight = fact[s] * fact[n - s - 1] / fact[n]
        total += weight * (float(value(coalition | {pid})) - float(value(coalition)))
    return total


def oracle_subset_shapley(participants, value) -> dict[str, float]:
    """`oracle_share` of every participant, in order."""
    return {pid: oracle_share(participants, pid, value) for pid in participants}


def oracle_permutation_shapley(participants, value) -> dict[str, float]:
    """Shapley values by averaging marginal contributions over all n! orders.

    Kept deliberately naive: every order is walked, and each coalition is
    valued once and cached.
    """
    ids = list(participants)
    cache: dict[frozenset, float] = {}

    def v(s: frozenset) -> float:
        if s not in cache:
            cache[s] = float(value(s))
        return cache[s]

    totals = {pid: 0.0 for pid in ids}
    count = 0
    for order in itertools.permutations(ids):
        joined: frozenset = frozenset()
        for pid in order:
            grown = joined | {pid}
            totals[pid] += v(grown) - v(joined)
            joined = grown
        count += 1
    return {pid: totals[pid] / count for pid in ids}


def oracle_exact_shapley(participants, value) -> dict[str, Fraction]:
    """Shapley values in exact rational arithmetic.

    Each coalition value becomes `Fraction(v)`, so every weight
    |S|!(n-|S|-1)! * (v(S + i) - v(S)) and the division by n! are exact.
    """
    ids = list(participants)
    n = len(ids)
    values = {}
    for mask in range(1 << n):
        coalition = frozenset(ids[j] for j in range(n) if mask >> j & 1)
        values[coalition] = Fraction(value(coalition))
    out = {}
    for pid in ids:
        total = Fraction(0)
        for coalition, v in values.items():
            if pid not in coalition:
                s = len(coalition)
                total += math.factorial(s) * math.factorial(n - s - 1) * (values[coalition | {pid}] - v)
        out[pid] = total / math.factorial(n)
    return out


def oracle_context_value(ctx: CharacteristicContext):
    """A context's characteristic function through `oracle_utility`.

    Coalition members play their label from `ctx.action`, fixed components
    their fixed label, everyone else their baseline.
    """
    def value(members) -> float:
        joint = {
            c.id: ctx.action[c.id] if c.id in members else ctx.fixed.get(c.id, c.baseline)
            for c in ctx.model.components
        }
        return oracle_utility(ctx.model, joint)

    return value


def oracle_allocation(ctx: CharacteristicContext) -> dict[str, float]:
    """Shapley allocation of a context through `oracle_utility`."""
    return oracle_subset_shapley(ctx.participants, oracle_context_value(ctx))


def oracle_permutation_allocation(ctx: CharacteristicContext) -> dict[str, float]:
    """Permutation-average allocation of a context through `oracle_utility`."""
    return oracle_permutation_shapley(ctx.participants, oracle_context_value(ctx))


def oracle_is_equilibrium(game: BayesianGame, profile, epsilon: float) -> bool:
    for p in game.players:
        for t in game.type_sets[p]:
            if game.marginal(p, t) == 0.0:
                continue
            base = oracle_interim(game, p, t, profile)
            for alt in game.action_sets[(p, t)]:
                if alt == profile[p][t]:
                    continue
                trial = {q: dict(st) for q, st in profile.items()}
                trial[p][t] = alt
                if oracle_interim(game, p, t, trial) > base + epsilon:
                    return False
    return True


def oracle_pure_bne(game: BayesianGame, epsilon: float) -> list[dict]:
    """Brute force: every profile, every single-type deviation.

    Zero-probability types are pinned to their first action, mirroring the
    solver's canonicalization, so result sets are directly comparable.
    """
    slots = [(p, t) for p in game.players for t in game.type_sets[p]]
    pools = []
    for p, t in slots:
        actions = game.action_sets[(p, t)]
        pools.append(actions if game.marginal(p, t) > 0.0 else actions[:1])

    found = []
    for labels in itertools.product(*pools):
        profile: dict[str, dict[PlayerType, str]] = {}
        for (p, t), a in zip(slots, labels):
            profile.setdefault(p, {})[t] = a
        if oracle_is_equilibrium(game, profile, epsilon):
            found.append(profile)
    return found


def oracle_expected_system_utility(game: BayesianGame, profile) -> float:
    """Prior expectation of `oracle_utility`, type profiles in product order."""
    total = 0.0
    for combo in itertools.product(*(game.type_sets[p] for p in game.players)):
        types = dict(zip(game.players, combo))
        prob = oracle_prior(game, types)
        if prob > 0.0:
            action = {p: profile[p][types[p]] for p in game.players}
            total += prob * oracle_utility(game.model, action)
    return total


def oracle_maximin(game: BayesianGame):
    """Per-type maximin by brute force: (profile, worst values, expected utility).

    For every (player, type) and action, the minimum of `oracle_interim`
    over every opponent pure profile (zero-probability types pinned to their
    first action), then the first action with the largest minimum.
    """
    profile: dict[str, dict[PlayerType, str]] = {}
    worst_values = {}
    for p in game.players:
        others = [(q, t) for q in game.players if q != p for t in game.type_sets[q]]
        pools = [
            game.action_sets[(q, t)] if game.marginal(q, t) > 0.0 else game.action_sets[(q, t)][:1]
            for q, t in others
        ]
        for t in game.type_sets[p]:
            best = best_worst = None
            for a in game.action_sets[(p, t)]:
                worst = None
                for labels in itertools.product(*pools):
                    trial = {p: {t: a}}
                    for (q, tq), label in zip(others, labels):
                        trial.setdefault(q, {})[tq] = label
                    value = oracle_interim(game, p, t, trial)
                    if worst is None or value < worst:
                        worst = value
                if best is None or worst > best_worst:
                    best, best_worst = a, worst
            profile.setdefault(p, {})[t] = best
            worst_values[(p, t)] = best_worst
    return profile, worst_values, oracle_expected_system_utility(game, profile)


def oracle_induced_nfg(game: BayesianGame, title: str) -> str:
    """Gambit export of the induced normal form by direct summation, no memo.

    Each player's strategies are its type-to-action label tuples in product
    order over its types; profiles run with the first player fastest. Every
    ex-ante payoff sums `oracle_prior * oracle_payoff` from 0.0 over the type
    profiles in product order, skipping those of zero probability.
    """
    strategies = [
        list(itertools.product(*(game.action_sets[(p, t)] for t in game.type_sets[p])))
        for p in game.players
    ]
    type_profiles = []
    for combo in itertools.product(*(game.type_sets[p] for p in game.players)):
        types = dict(zip(game.players, combo))
        prob = oracle_prior(game, types)
        if prob != 0.0:
            type_profiles.append((prob, types))

    def text(x: float) -> str:
        return str(int(x)) if x == int(x) and abs(x) < 1e15 else repr(x)

    def quoted(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    values = []
    for rev in itertools.product(*reversed(strategies)):
        chosen = dict(zip(game.players, rev[::-1]))
        for p in game.players:
            total = 0.0
            for prob, types in type_profiles:
                action = {q: chosen[q][game.type_sets[q].index(types[q])] for q in game.players}
                total += prob * oracle_payoff(game, types, action, p)
            values.append(text(total))
    header = "NFG 1 R {} {{ {} }} {{ {} }}".format(
        quoted(title), " ".join(map(quoted, game.players)), " ".join(str(len(s)) for s in strategies))
    return header + "\n\n" + " ".join(values) + "\n"


def oracle_trace_objs(trace) -> list[dict]:
    """The trace as JSON objects: the header, then one object per record.

    Every record gets objects of its own, built from the `Trace` and
    `LoopRecord` fields, so nothing is shared between records or encoded
    once. A record that did not replan shows its decision as "unchanged".
    """
    objs = [{"script_hash": trace.script_hash, "seed": trace.seed, "epsilon": trace.epsilon}]
    for record in trace.records:
        att, decision = record.attack_model, record.decision
        objs.append({
            "time": record.time,
            "events": [{"time": ev.time, "component": ev.component, "vuln_id": ev.vuln_id}
                       for ev in record.events],
            "attack_model": {
                "attacked": list(att.attacked),
                "malicious_actions": {cid: list(labels) for cid, labels in att.malicious_actions.items()},
                "probabilities": dict(att.probabilities),
                "rewards": {
                    cid: {"rules": [{"when": dict(rule.when), "reward": rule.reward} for rule in rules],
                          "default": default}
                    for cid, (rules, default) in att.rewards.items()
                },
            },
            "decision": {
                "strategy": {player: {t.value: a for t, a in per_type.items()}
                             for player, per_type in decision.strategy.items()},
                "expected_system_utility": decision.expected_system_utility,
                "fallback": decision.fallback,
                "solve_stats": {"profiles_examined": decision.solve_stats.profiles_examined,
                                "equilibria_found": decision.solve_stats.equilibria_found},
            } if record.replanned else "unchanged",
            "realized_types": {cid: t.value for cid, t in record.realized_types.items()},
            "realized_action": dict(record.realized_action),
            "realized_utility": record.realized_utility,
        })
    return objs


def oracle_attack_model(events, kb, model) -> tuple:
    """The fields of the attack model of `events`, in order, stated plainly
    without the analyzer's fold.

    Each vulnerability counts once, from its first report. Per attacked
    component, in model order: its triggered records' labels, first
    occurrence kept; `1 - math.prod(1 - p)` over them; their reward rules
    concatenated, with the last record's default.
    """
    by_id = {rec.vuln_id: rec for rec in kb}
    triggered = [by_id[vuln_id] for vuln_id in dict.fromkeys(ev.vuln_id for ev in events)]
    recs = {cid: [rec for rec in triggered if rec.component == cid] for cid in model.component_ids}
    attacked = tuple(cid for cid in model.component_ids if recs[cid])
    return (
        attacked,
        {cid: tuple(dict.fromkeys(label for rec in recs[cid] for label in rec.malicious_actions)) for cid in attacked},
        {cid: 1.0 - math.prod(1.0 - rec.compromise_probability for rec in recs[cid]) for cid in attacked},
        {cid: (tuple(rule for rec in recs[cid] for rule in rec.reward_rules), recs[cid][-1].reward_default)
         for cid in attacked},
    )


def oracle_run_scenario(script, epsilon: float = DEFAULT_EPSILON) -> tuple[LoopRecord, ...]:
    """The records of `run_scenario(script, epsilon)`, one plain tick at a time.

    Every tick analyzes the first report of each vulnerability so far,
    plans at tick 0 and whenever that analysis differs from the last
    tick's, draws each attacked component malicious iff
    `compromise_draw(seed, tick, index) < p`, and builds its record with
    `LoopRecord(...)`; the realized utility is `oracle_utility`'s. Nothing
    is shared between ticks but the attack model and the decision.
    """
    model = script.model
    reports: dict = {}
    att = decision = None
    records = []
    for tick in range(script.horizon):
        events = tuple(ev for ev in script.timeline if ev.time == tick)
        for ev in events:
            reports.setdefault(ev.vuln_id, ev)
        seen = analyze_attacks(tuple(reports.values()), script.kb, model)
        replanned = decision is None or seen != att
        if replanned:
            decision = plan(model, seen, epsilon)
        att = seen
        types = {}
        for index, cid in enumerate(model.component_ids):
            p = att.probabilities.get(cid)
            types[cid] = MALICIOUS if p is not None and compromise_draw(script.seed, tick, index) < p else NORMAL
        action = {cid: decision.strategy[cid][t] for cid, t in types.items()}
        records.append(LoopRecord(tick, events, att, decision, replanned, types, action, oracle_utility(model, action)))
    return tuple(records)


def profile_key(profile) -> tuple:
    """Hashable canonical form of a strategy profile for set comparison."""
    return tuple(
        (p, tuple((t.value, a) for t, a in sorted(st.items(), key=lambda kv: kv[0].value)))
        for p, st in sorted(profile.items())
    )


def attacked_game(actions, rules, prior: float = 1.0) -> BayesianGame:
    """A game from `build_game` in which every player is attacked with `prior`.

    Each player is a component with the actions `actions[p]`, the first its
    baseline, and its Malicious type plays the same actions, paid by the
    reward rules `rules[p]`, `(when, reward)` pairs, with the default 0. The
    model has no utility rule, so every system utility and every Normal
    share is 0. With `prior` 1 the Normal types have no mass.
    """
    players = tuple(actions)
    comps = tuple(Component(p, tuple(actions[p]), actions[p][0]) for p in players)
    model = SystemModel(comps, (QualityAttribute("q", 1.0),), (), {"q": 0.0})
    att = AttackModel(
        attacked=players,
        malicious_actions={p: tuple(actions[p]) for p in players},
        probabilities=dict.fromkeys(players, prior),
        rewards={p: (tuple(RewardRule(dict(when), reward) for when, reward in rules[p]), 0.0) for p in players},
    )
    return build_game(model, att)


def table_game(players, actions, table) -> BayesianGame:
    """A normal-form game, `table[joint action] = payoffs`, in model-backed form.

    An `attacked_game` with prior 1 and one reward rule per joint action, so
    each player's Malicious payoffs are its column of the table, and its
    Normal type has no mass and is pinned to its first action.
    """
    players = tuple(players)
    rules = {p: [(dict(zip(players, joint)), paid[i]) for joint, paid in table.items()]
             for i, p in enumerate(players)}
    return attacked_game({p: actions[p] for p in players}, rules)


def prisoners_dilemma() -> BayesianGame:
    table = {("C", "C"): (3, 3), ("C", "D"): (0, 5), ("D", "C"): (5, 0), ("D", "D"): (1, 1)}
    return table_game(["p1", "p2"], {"p1": ["C", "D"], "p2": ["C", "D"]}, table)


def matching_pennies() -> BayesianGame:
    table = {("H", "H"): (1, -1), ("H", "T"): (-1, 1), ("T", "H"): (-1, 1), ("T", "T"): (1, -1)}
    return table_game(["p1", "p2"], {"p1": ["H", "T"], "p2": ["H", "T"]}, table)


def random_game(
    rng: random.Random,
    max_players: int = 3,
    max_actions: int = 3,
    min_players: int = 2,
    priors=None,
) -> BayesianGame:
    """A random game from `build_game`: <=2 types per player, <= `max_actions` actions per type.

    Each player is a component of 1 to `max_actions` actions. About half of
    them are attacked, with a prior drawn from 0.1-0.9, or from `priors` if
    given; an attacked one's Malicious type may add attack labels of its
    own, and is paid by one reward rule for most joint actions of every
    component's labels, and by its default for the rest, so its payoffs
    form a random table; a few rules over fewer components, put anywhere
    among them, make some joint actions match more than one rule. Random
    utility rules over every label set the Normal types' Shapley shares.
    """
    n = rng.randint(min_players, max_players)
    comps, extra, labels = [], {}, {}
    for i in range(n):
        actions = tuple(f"a{j}" for j in range(rng.randint(1, max_actions)))
        cid = f"p{i + 1}"
        comps.append(Component(cid, actions, rng.choice(actions)))
        if rng.random() < 0.5:
            extra[cid] = tuple(f"x{j}" for j in range(rng.randint(0, max_actions - len(actions))))
        labels[cid] = actions + extra.get(cid, ())
    attrs = tuple(QualityAttribute(f"q{i + 1}", rng.uniform(0.5, 2.0)) for i in range(rng.randint(1, 2)))
    rules = []
    for _ in range(rng.randint(0, 5)):
        named = rng.sample(sorted(labels), rng.randint(1, n))
        scores = {a.name: rng.uniform(-10, 10) for a in rng.sample(attrs, rng.randint(1, len(attrs)))}
        rules.append(UtilityRule({cid: rng.choice(labels[cid]) for cid in named}, scores))
    model = SystemModel(tuple(comps), attrs, tuple(rules), {a.name: rng.uniform(-2.0, 2.0) for a in attrs},
                        {cid: xs for cid, xs in extra.items() if xs})
    attacked = tuple(extra)
    rewards = {}
    for cid in attacked:
        rules = [RewardRule(dict(zip(labels, joint)), rng.uniform(-10, 10))
                 for joint in itertools.product(*labels.values()) if rng.random() < 0.8]
        for _ in range(rng.randint(0, 2)):
            named = rng.sample(sorted(labels), rng.randint(1, n))
            rules.insert(rng.randint(0, len(rules)), RewardRule({c: rng.choice(labels[c]) for c in named},
                                                                 rng.uniform(-10, 10)))
        rewards[cid] = (tuple(rules), rng.uniform(-1.0, 1.0))
    att = AttackModel(
        attacked=attacked,
        malicious_actions={cid: extra[cid] or (rng.choice(labels[cid]),) for cid in attacked},
        probabilities={cid: rng.uniform(0.1, 0.9) if priors is None else rng.choice(priors) for cid in attacked},
        rewards=rewards,
    )
    return build_game(model, att)


def random_system_model(
    rng: random.Random, max_components: int = 5, max_actions: int = 3
) -> SystemModel:
    n = rng.randint(2, max_components)
    comps = []
    for i in range(n):
        actions = tuple(f"a{j}" for j in range(rng.randint(2, max_actions)))
        comps.append(Component(id=f"c{i + 1}", actions=actions, baseline=rng.choice(actions)))
    attrs = tuple(
        QualityAttribute(name=f"q{i + 1}", weight=rng.uniform(0.5, 2.0))
        for i in range(rng.randint(1, 2))
    )
    rules = []
    for _ in range(rng.randint(0, 4)):
        chosen = rng.sample(comps, rng.randint(1, n))
        when = {c.id: rng.choice(c.actions) for c in chosen}
        scores = {a.name: rng.uniform(-10, 10) for a in rng.sample(attrs, rng.randint(1, len(attrs)))}
        rules.append(UtilityRule(when=when, scores=scores))
    default = {a.name: rng.uniform(-2.0, 2.0) for a in attrs}
    return SystemModel(tuple(comps), attrs, tuple(rules), default)


def random_context(rng: random.Random, model: SystemModel, max_participants: int = 5) -> CharacteristicContext:
    action = {c.id: rng.choice(c.actions) for c in model.components}
    ids = list(model.component_ids)
    count = rng.randint(1, min(max_participants, len(ids)))
    sample = set(rng.sample(ids, count))
    participants = tuple(cid for cid in ids if cid in sample)
    fixed = {}
    for cid in ids:
        if cid not in sample and rng.random() < 0.5:
            fixed[cid] = rng.choice(model.component(cid).actions)
    return CharacteristicContext(model, action, participants, fixed)


def random_attack_inputs(rng: random.Random, model: SystemModel):
    """Knowledge base and matching events attacking a random component subset.

    Returns `(model, kb, events)`, where the model is `model` declaring every
    malicious action of the knowledge base.
    """
    kb: list[VulnerabilityRecord] = []
    events: list[AttackEvent] = []
    for comp in model.components:
        if rng.random() < 0.45:
            continue
        vuln_id = f"cve-{comp.id}"
        malicious = []
        if rng.random() < 0.7:
            malicious.append(rng.choice(comp.actions))
        if rng.random() < 0.6 or not malicious:
            malicious.append(f"tamper_{comp.id}")
        malicious = list(dict.fromkeys(malicious))
        rules = []
        for _ in range(rng.randint(0, 2)):
            when = {comp.id: rng.choice(malicious)}
            other = rng.choice(model.components)
            if rng.random() < 0.5:
                when[other.id] = rng.choice(other.actions)
            rules.append(RewardRule(when=when, reward=rng.uniform(-5, 10)))
        kb.append(
            VulnerabilityRecord(
                vuln_id=vuln_id,
                component=comp.id,
                compromise_probability=rng.uniform(0.05, 0.95),
                malicious_actions=tuple(malicious),
                reward_rules=tuple(rules),
                reward_default=rng.uniform(-1.0, 1.0),
            )
        )
        events.append(AttackEvent(time=0, component=comp.id, vuln_id=vuln_id))
    return dataclasses.replace(model, attack_actions=knowledge_base_actions(kb)), kb, events
