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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

from .attacks import AttackModel, attacker_reward, merge_attack_actions, validate_attack_model
from .model import JointAction, SystemModel, system_utility, validate_model
from .shapley import CharacteristicContext, shapley_allocation

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
    if game.payoff_fn is not None:
        return float(game.payoff_fn(types, action, player))
    if game.model is None or game.attack is None:
        raise ValueError("game carries neither a payoff function nor a payoff context")
    normal = tuple(types[p] is PlayerType.NORMAL for p in game.players)
    key = game.model.compiled.key(action)
    return _model_payoff(game, normal, key, game.players.index(player))


def _model_payoff(
    game: BayesianGame, normal: tuple[bool, ...], key: tuple[int, ...], i: int
) -> float:
    # Payoff of player i in a model-backed game, on the compiled model's
    # joint-action key; `normal[j]` says whether player j is of type Normal.
    player = game.players[i]
    if not normal[i]:
        return attacker_reward(game.attack, player, game.model.compiled.action(key))
    return _normal_allocation(game, normal, key)[player]


def _normal_allocation(
    game: BayesianGame, normal: tuple[bool, ...], key: tuple[int, ...]
) -> dict[str, float]:
    # Shapley shares of the Normal players, Malicious players holding their
    # labels. Memoized on the game's compiled model, so every solver pass
    # over one game shares the allocations; memoizing a pure function never
    # changes observable results.
    compiled = game.model.compiled
    got = compiled.allocations.get((normal, key))
    if got is None:
        action = compiled.action(key)
        participants = tuple(p for p, is_normal in zip(game.players, normal) if is_normal)
        fixed = {p: action[p] for p, is_normal in zip(game.players, normal) if not is_normal}
        ctx = CharacteristicContext(game.model, action, participants, fixed)
        got = compiled.allocations[(normal, key)] = shapley_allocation(ctx)
    return got


def realized_system_utility(game: BayesianGame, types: TypeProfile, action: JointAction) -> float:
    """System-level utility of an outcome, used to rank equilibria.

    Model-backed games evaluate the system utility of the joint action;
    games without a model use the sum of all players' payoffs.
    """
    if game.model is not None:
        return system_utility(game.model, action)
    return sum(payoff(game, types, action, p) for p in game.players)
