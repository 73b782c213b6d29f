"""Translation of a system model plus attack model into a Bayesian game.

Every component becomes a player. Attacked components carry two types,
Normal and Malicious, with an independent prior on Malicious equal to the
compromise probability. A Malicious player may use its component's normal
actions as well as the attack's actions; it is paid by the attacker reward
rules, while Normal players split the system utility by Shapley value over
the coalition of Normal players, holding Malicious actions fixed.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Mapping

from .attacks import AttackModel, RewardRule, attacker_reward, merge_attack_actions, validate_attack_model
from .model import CompiledModel, DecisionList, JointAction, SystemModel, first_match, system_utility, validate_model
from .shapley import SUBSET_PARTICIPANT_LIMIT, _keyed_shapley

__all__ = [
    "PlayerType",
    "BayesianGame",
    "build_game",
    "extend_attack_actions",
    "prior_probability",
    "payoff",
    "realized_system_utility",
]


class PlayerType(Enum):
    NORMAL = "Normal"
    MALICIOUS = "Malicious"

    def __repr__(self) -> str:
        return self.value


# A type profile assigns a PlayerType to every player.
TypeProfile = Mapping[str, PlayerType]

PayoffFunction = Callable[[TypeProfile, JointAction, str], float]


class BudgetExceededError(RuntimeError):
    """Solving a game would take more work than its budget allows."""


@dataclass(frozen=True)
class BayesianGame:
    """A finite Bayesian game with independent per-player type priors.

    Games produced by `build_game` carry the system and attack models and
    use the Shapley/reward payoff oracle. Hand-built games (tests, fixtures)
    instead supply `payoff_fn`; without a model, system utility is the sum
    of all players' payoffs.
    """

    players: tuple[str, ...]
    type_sets: dict[str, tuple[PlayerType, ...]]
    action_sets: dict[tuple[str, PlayerType], tuple[str, ...]]
    prior_malicious: dict[str, float]
    model: SystemModel | None = None
    attack: AttackModel | None = None
    payoff_fn: PayoffFunction | None = None

    def marginal(self, player: str, ptype: PlayerType) -> float:
        """Prior probability that `player` is of `ptype`."""
        p = self.prior_malicious.get(player, 0.0)
        return p if ptype is PlayerType.MALICIOUS else 1.0 - p

    @cached_property
    def compiled(self) -> "CompiledGame":
        """Index form of this game, built on first use; it owns the outcome memo.

        The memo describes the game as it was then, so a game must not be
        mutated once solved.
        """
        return CompiledGame(self)


# A type profile as the slot of each player's type, with its weight.
_Branch = tuple[float, tuple[int, ...]]


class CompiledGame:
    """A BayesianGame in index form, with the memo of its outcomes.

    Slot k is one (player index, type, actions, prior marginal), in player
    order and then type order; a strategy profile `choice` holds one action
    index per slot. A type profile is `slots`, the slot of each player's
    type, and a joint action under it is `akey`, each player's index into
    its slot's actions. `outcomes[(slots, akey)]` holds every player's
    payoff and is computed once. `rows[k][rivals]` holds slot k's interim
    payoff for each of its actions, where `rivals` are the action indices of
    every slot of another player; each row is computed once and does not
    depend on the solver's epsilon. Model-backed games are paid on the compiled
    model's joint-action keys, Malicious players from `rewards`, their
    attacks' reward rules compiled once; hand-built games are paid through
    their payoff function.
    Indices only name actions the game declares, so nothing is checked per
    evaluation. No reference leads back to the game, so dropping the game
    frees this object without the cyclic collector.
    """

    def __init__(self, game: BayesianGame):
        self.players = game.players
        self.slots: list[tuple[int, PlayerType, tuple[str, ...], float]] = []
        self.own: list[tuple[int, ...]] = []  # per player, the slots of its types
        for i, p in enumerate(self.players):
            first = len(self.slots)
            for t in game.type_sets[p]:
                self.slots.append((i, t, game.action_sets[(p, t)], game.marginal(p, t)))
            self.own.append(tuple(range(first, len(self.slots))))
        # per slot, the range of its player's slots
        self.spans = [(own[0], own[-1] + 1) for own in self.own for _k in own]
        self.payoff_fn = game.payoff_fn
        self.model: CompiledModel | None = None
        if game.model is not None:
            self.model = game.model.compiled
            # per slot, the compiled label index of each of its actions
            self.codes = [tuple(self.model.index[i][a] for a in acts) for i, _t, acts, _m in self.slots]
        if self.payoff_fn is None:
            if self.model is None or game.attack is None:
                raise ValueError("game carries neither a payoff function nor a payoff context")
            if len(self.players) > SUBSET_PARTICIPANT_LIMIT:
                raise BudgetExceededError(
                    f"Shapley allocation over {len(self.players)} players exceeds the "
                    f"participant budget {SUBSET_PARTICIPANT_LIMIT}"
                )
            # per player, its attack's reward rules ending in the default,
            # or None if it is not attacked
            self.rewards: tuple[DecisionList | None, ...] = tuple(
                self.model.decision_list(_reward_pairs(*game.attack.rewards[p]))
                if p in game.attack.rewards else None
                for p in self.players
            )
        self.walks: dict[int | None, list[_Branch]] = {}
        self.outcomes: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, ...]] = {}
        self.rows: list[dict[tuple[int, ...], tuple[float, ...]]] = [{} for _ in self.slots]

    def walk(self, k: int | None = None) -> list[_Branch]:
        """The type profiles of positive weight, built once per `k`.

        With slot k given, its player has its type and a profile weighs the
        opponents' prior mass; without, every type profile is walked and
        weighs its prior probability. Marginals multiply in player order.
        """
        got = self.walks.get(k)
        if got is None:
            i = -1 if k is None else self.slots[k][0]
            got = self.walks[k] = []
            ranges = [(k,) if j == i else own for j, own in enumerate(self.own)]
            for slots in itertools.product(*ranges):
                w = 1.0
                for j, s in enumerate(slots):
                    if j != i:
                        w *= self.slots[s][3]
                if w > 0.0:
                    got.append((w, slots))
        return got

    def outcome(self, slots: tuple[int, ...], akey: tuple[int, ...]) -> tuple[float, ...]:
        """Every player's payoff under type profile `slots` and joint action `akey`."""
        got = self.outcomes.get((slots, akey))
        if got is None:
            if self.payoff_fn is None:
                normal = [self.slots[k][1] is PlayerType.NORMAL for k in slots]
                key = tuple([self.codes[k][a] for k, a in zip(slots, akey)])
                got = _model_payoffs(self.model, self.rewards, normal, key)
            else:
                types = {p: self.slots[k][1] for p, k in zip(self.players, slots)}
                action = {p: self.slots[k][2][a] for p, k, a in zip(self.players, slots, akey)}
                got = tuple(float(self.payoff_fn(types, action, p)) for p in self.players)
            self.outcomes[(slots, akey)] = got
        return got

    def row(self, k: int, choice: tuple[int, ...]) -> tuple[float, ...]:
        """Slot k's interim payoffs, the other players playing `choice`, computed once."""
        lo, hi = self.spans[k]
        rivals = choice[:lo] + choice[hi:]
        got = self.rows[k].get(rivals)
        if got is None:
            got = self.rows[k][rivals] = self.interims(k, choice)
        return got

    def interims(self, k: int, choice: tuple[int, ...]) -> tuple[float, ...]:
        """Expected payoff of slot k's player, as slot k's type, for each of its actions.

        The other players' slots play as in `choice`. Each action's sum runs
        over the type profiles in walk order.
        """
        i = self.slots[k][0]
        width = len(self.slots[k][2])
        totals = [0.0] * width
        for w, slots in self.walk(k):
            akey = [choice[s] for s in slots]
            for a in range(width):
                akey[i] = a
                totals[a] += w * self.outcome(slots, tuple(akey))[i]
        return tuple(totals)

    def expected_system_utility(self, choice: tuple[int, ...]) -> float:
        """Prior expectation of the system utility, or without a model of the payoff sum."""
        total = 0.0
        for prob, slots in self.walk():
            akey = tuple([choice[k] for k in slots])
            if self.model is not None:
                value = self.model.utility(tuple([self.codes[k][a] for k, a in zip(slots, akey)]))
            else:
                value = 0.0  # a left fold: Python 3.12's sum() of floats is compensated
                for x in self.outcome(slots, akey):
                    value += x
            total += prob * value
        return total


def extend_attack_actions(model: SystemModel, att: AttackModel) -> SystemModel:
    """Copy of `model` whose attack-context labels cover `att`'s actions."""
    return dataclasses.replace(model, attack_actions=merge_attack_actions(model, att))


def build_game(model: SystemModel, att: AttackModel) -> BayesianGame:
    """Translate (system model, attack model) into a Bayesian game.

    Players are the components in declaration order. Attacked components get
    type set (Normal, Malicious) and prior equal to their compromise
    probability; everyone else is Normal-only with prior 0. The Malicious
    action set appends the attack's actions after the component's own ones,
    dropping duplicates.
    """
    extended = extend_attack_actions(model, att)
    problems = validate_model(extended) + validate_attack_model(att, extended)
    if problems:
        raise ValueError(
            "cannot build game from invalid inputs:\n" + "\n".join(str(v) for v in problems)
        )

    players = extended.component_ids
    attacked = set(att.attacked)
    type_sets: dict[str, tuple[PlayerType, ...]] = {}
    action_sets: dict[tuple[str, PlayerType], tuple[str, ...]] = {}
    prior: dict[str, float] = {}
    for comp in extended.components:
        cid = comp.id
        if cid in attacked:
            type_sets[cid] = (PlayerType.NORMAL, PlayerType.MALICIOUS)
            prior[cid] = float(att.probabilities[cid])
            merged = list(comp.actions)
            for a in att.malicious_actions[cid]:
                if a not in merged:
                    merged.append(a)
            action_sets[(cid, PlayerType.MALICIOUS)] = tuple(merged)
        else:
            type_sets[cid] = (PlayerType.NORMAL,)
            prior[cid] = 0.0
        action_sets[(cid, PlayerType.NORMAL)] = comp.actions

    return BayesianGame(
        players=players,
        type_sets=type_sets,
        action_sets=action_sets,
        prior_malicious=prior,
        model=extended,
        attack=att,
    )


def _check_type_profile(game: BayesianGame, types: TypeProfile) -> None:
    for player in game.players:
        t = types.get(player)
        if t is None:
            raise ValueError(f"type profile misses player {player!r}")
        if t not in game.type_sets[player]:
            raise ValueError(f"player {player!r} cannot be of type {t.value}")
    for player in types:
        if player not in game.type_sets:
            raise ValueError(f"unknown player {player!r} in type profile")


def _check_joint_action(game: BayesianGame, types: TypeProfile, action: JointAction) -> None:
    for player in game.players:
        label = action.get(player)
        if label is None:
            raise ValueError(f"joint action misses player {player!r}")
        if label not in game.action_sets[(player, types[player])]:
            raise ValueError(
                f"action {label!r} not available to player {player!r} of type {types[player].value}"
            )
    for player in action:
        if player not in game.type_sets:
            raise ValueError(f"unknown player {player!r} in joint action")


def prior_probability(game: BayesianGame, types: TypeProfile) -> float:
    """Probability of a type profile under the independent per-player priors."""
    _check_type_profile(game, types)
    prob = 1.0
    for player in game.players:
        prob *= game.marginal(player, types[player])
    return prob


def payoff(game: BayesianGame, types: TypeProfile, action: JointAction, player: str) -> float:
    """Payoff of `player` when types are `types` and `action` is played.

    Normal players receive their Shapley share of the system utility,
    computed over the coalition of Normal players with Malicious actions
    held fixed. Malicious players receive their component's attacker reward.
    """
    _check_type_profile(game, types)
    _check_joint_action(game, types, action)
    return _payoff(game, types, action, player)


def _payoff(game: BayesianGame, types: TypeProfile, action: JointAction, player: str) -> float:
    # Unchecked core of `payoff`; callers guarantee `types` and `action` fit.
    # It keeps no memo, so tests can check the solver's memo against it.
    if game.payoff_fn is not None:
        return float(game.payoff_fn(types, action, player))
    if game.model is None or game.attack is None:
        raise ValueError("game carries neither a payoff function nor a payoff context")
    if types[player] is PlayerType.MALICIOUS:
        return attacker_reward(game.attack, player, action)
    compiled = game.model.compiled
    normal = [types[p] is PlayerType.NORMAL for p in game.players]
    shares = _normal_shares(compiled, normal, compiled.key(action))
    return shares[sum(normal[: game.players.index(player)])]  # Normal players before it


def _reward_pairs(rules: tuple[RewardRule, ...], default: float) -> list:
    # An attack's reward rules as decision-list pairs; the default matches always.
    return [(rule.when, rule.reward) for rule in rules] + [({}, default)]


def _model_payoffs(
    compiled: CompiledModel,
    rewards: tuple[DecisionList | None, ...],
    normal: list[bool],
    key: tuple[int, ...],
) -> tuple[float, ...]:
    # Every player's payoff in a model-backed game on the compiled model's
    # joint-action key; `normal[j]` says whether player j is of type Normal.
    # Malicious player j gets its first matching reward in `rewards[j]`.
    shares = iter(_normal_shares(compiled, normal, key))
    return tuple([
        next(shares) if is_normal else first_match(entries, key)
        for is_normal, entries in zip(normal, rewards)
    ])


def _normal_shares(compiled: CompiledModel, normal: list[bool], key: tuple[int, ...]) -> list[float]:
    # The Normal players' Shapley shares of the utility, in player order: a
    # coalition's members play their labels from `key`, the other Normal
    # players their baselines, and the Malicious players keep their labels.
    base = list(key)
    moves = []
    for j, is_normal in enumerate(normal):
        if is_normal:
            base[j] = compiled.baseline[j]
            moves.append((j, key[j]))
    return _keyed_shapley(compiled, base, moves)


def realized_system_utility(game: BayesianGame, types: TypeProfile, action: JointAction) -> float:
    """System-level utility of an outcome, used to rank equilibria.

    Model-backed games evaluate the system utility of the joint action;
    games without a model use the sum of all players' payoffs.
    """
    if game.model is not None:
        return system_utility(game.model, action)
    total = 0.0  # a left fold: Python 3.12's sum() of floats is compensated
    for p in game.players:
        total += payoff(game, types, action, p)
    return total
