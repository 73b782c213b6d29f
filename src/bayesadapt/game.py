"""Translation of a system model plus attack model into a Bayesian game.

Every component becomes a player. Attacked components carry two types,
Normal and Malicious, with an independent prior on Malicious equal to the
compromise probability. A Malicious player may use its component's normal
actions as well as the attack's actions; it is paid by the attacker reward
rules, while Normal players split the system utility by Shapley value over
the coalition of Normal players, holding Malicious actions fixed.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

from .attacks import AttackModel, RewardRule, validate_attack_model
from .model import CompiledModel, DecisionList, JointAction, SystemModel, _number_fault, _ordered_union, first_match
from .model import _check_joint_action as _check_model_action
from .shapley import BudgetExceededError, _checked_ids, _fold, _keyed_shapley  # noqa: F401 (re-exported)

__all__ = [
    "PlayerType",
    "BayesianGame",
    "build_game",
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
    pay Shapley shares and attacker rewards. Hand-built games (tests, fixtures)
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
        mutated once it is solved or any payoff of it has been read.
        """
        return CompiledGame(self)


# A type profile as the slot of each player's type, with its weight.
_Branch = tuple[float, tuple[int, ...]]

# A tuple in reverse order: itertools.product varies its last factor
# fastest, and a position varies the first player's action fastest.
_reversed = operator.itemgetter(slice(None, None, -1))


class CompiledGame:
    """A BayesianGame in index form, with the memo of its outcomes.

    Slot k is one (player index, type, actions, prior marginal), in player
    order and then type order; a strategy profile `choice` holds one action
    index per slot. A type profile is `slots`, the slot of each player's
    type, and a joint action under it is `akey`, each player's index into
    its slot's actions. `outcomes[slots]` holds the type profile's strides,
    the first player's fastest, and one column per player of its payoffs by
    the joint action's mixed-radix position, None until paid. A fiber is
    one player's payoffs over its own actions with every other player's
    action fixed, the slice of a column that a row reads; in a model-backed
    game one writer (`_pay_fiber`) pays a fiber the first time it is read,
    so a solver pays only what its rows read and nothing twice. `paid`
    completes a profile's columns for the export, paying the fibers no row
    read. A lone read (`outcome`, which `payoff` uses) reads the columns if
    every player's fiber through the outcome is paid, and otherwise pays
    its one outcome and stores it nowhere, so it stays sparse.
    `rows[k][rivals]` holds slot k's interim payoff for each of its
    actions, where `rivals` are the action indices of every slot of another
    player; each row is computed once and does not depend on the solver's
    epsilon.

    Model-backed games are paid on the compiled model's joint-action keys:
    a Normal player's fiber is its Shapley shares, which the writer folds
    from the type profile's utilities, read by position, with the one
    Shapley kernel (`shapley._fold`) straight into the player's column; a
    lone read reaches the same kernel through `_keyed_shapley` and stores
    nothing; both give the same floats. A Malicious player's fiber is paid
    from `rewards`, its attack's reward rules compiled once. A hand-built
    game pays a type profile whole, in position order, through its payoff
    function when `columns` creates the profile's entry, and stores the
    entry only once every payoff is checked: a payoff that is not a finite
    number raises ValueError and leaves no entry.

    A game whose players, type sets, action sets or priors are malformed (a
    player listed twice or without types, a type listed twice, a missing,
    empty or repeating action set, a prior that is not a number in [0, 1], names no
    player, or is positive for a player without a Malicious type) raises
    ValueError naming the player when compiled, so before any entry point
    reads it; so does a model-backed game whose players are not the model's
    components, whose action names a label the model does not know for its
    component, or whose Normal action set lacks the component's baseline;
    and so does a game paid by its attack that has no reward for a player
    with a Malicious type, or a reward that is not a finite number. Indices
    only name actions the game declares, so nothing is checked per
    evaluation. No reference leads back to the game, from this object or
    from the model's utility memo, so dropping the game frees this object
    without the cyclic collector.
    """

    def __init__(self, game: BayesianGame):
        _check_shape(game)
        self.players = game.players
        self.slots: list[tuple[int, PlayerType, tuple[str, ...], float]] = []
        self.own: list[tuple[int, ...]] = []  # per player, the slots of its types
        for i, p in enumerate(self.players):
            first = len(self.slots)
            for t in game.type_sets[p]:
                self.slots.append((i, t, game.action_sets[(p, t)], game.marginal(p, t)))
            self.own.append(tuple(range(first, len(self.slots))))
        # per slot, whether its type is Normal
        self.normal = [t is PlayerType.NORMAL for _i, t, _a, _m in self.slots]
        # per slot, the range of its player's slots
        self.spans = [(own[0], own[-1] + 1) for own in self.own for _k in own]
        self.payoff_fn = game.payoff_fn
        self.model: CompiledModel | None = None
        if game.model is not None:
            self.model = game.model.compiled
            # per slot, the compiled label index of each of its actions
            self.codes = [tuple(self.model.index[i][a] for a in acts) for i, _t, acts, _m in self.slots]
            # per Normal slot, the action index of its component's baseline
            self.base = [
                codes.index(self.model.baseline[i]) if normal else None
                for codes, (i, _t, _a, _m), normal in zip(self.codes, self.slots, self.normal)
            ]
        if self.payoff_fn is None:
            if self.model is None or game.attack is None:
                raise ValueError("game carries neither a payoff function nor a payoff context")
            _checked_ids(self.players)
            # per player, its attack's reward rules ending in the default,
            # or None if it is not attacked
            self.rewards: tuple[DecisionList | None, ...] = tuple(
                self.model.decision_list(_reward_pairs(*game.attack.rewards[p]))
                if p in game.attack.rewards else None
                for p in self.players
            )
        self.walks: dict[int | None, list[_Branch]] = {}
        self.outcomes: dict[tuple[int, ...], tuple[tuple[int, ...], list[list[float | None]]]] = {}
        self.payers: dict[tuple[int, ...], tuple[list, list, list[float]]] = {}
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

    def columns(self, slots: tuple[int, ...]) -> tuple[tuple[int, ...], list[list[float | None]]]:
        """Type profile `slots`'s strides and per-player payoff columns by position, None where unpaid."""
        got = self.outcomes.get(slots)
        if got is None:
            strides, size = [], 1
            for k in slots:
                strides.append(size)
                size *= len(self.slots[k][2])
            if self.payoff_fn is None:
                columns = [[None] * size for _ in slots]
            else:
                widths = [len(self.slots[k][2]) for k in reversed(slots)]
                paid = [self._pay(slots, akey) for akey in map(_reversed, itertools.product(*map(range, widths)))]
                columns = [list(column) for column in zip(*paid)]
            got = self.outcomes[slots] = (tuple(strides), columns)
        return got

    def paid(self, slots: tuple[int, ...]) -> tuple[tuple[int, ...], list[list[float]]]:
        """Type profile `slots`'s strides and columns, with every fiber no read has reached paid now."""
        strides, columns = self.columns(slots)
        widths = [len(self.slots[k][2]) for k in slots]
        for i, column in enumerate(columns):
            for pos, x in enumerate(column):
                if x is None:
                    akey = [pos // s % w for s, w in zip(strides, widths)]
                    akey[i] = 0
                    self._pay_fiber(slots, i, pos, akey)
        return strides, columns

    def outcome(self, slots: tuple[int, ...], akey: tuple[int, ...]) -> tuple[float, ...]:
        """Every player's payoff under type profile `slots` and joint action `akey`.

        Read from the columns if every player's fiber through the outcome is
        paid; otherwise only this outcome is paid, and it is stored nowhere.
        """
        got = self.outcomes.get(slots)
        if got is not None:
            strides, columns = got
            pos = sum(map(operator.mul, akey, strides))
            held = tuple([column[pos] for column in columns])
            if None not in held:
                return held
        return self._pay(slots, akey)

    def _pay(self, slots: tuple[int, ...], akey: tuple[int, ...]) -> tuple[float, ...]:
        # Every player's payoff of one outcome; only the model's utilities
        # are memoized. A model-backed game pays its Normal players their
        # Shapley shares: a coalition's members play their labels from the
        # outcome's key, the other Normal players their baselines, and the
        # Malicious players keep theirs, paid their first matching reward.
        if self.payoff_fn is None:
            normal = tuple(map(self.normal.__getitem__, slots))
            key = tuple([self.codes[k][a] for k, a in zip(slots, akey)])
            base = list(key)
            moves = []
            for j, is_normal in enumerate(normal):
                if is_normal:
                    base[j] = self.model.baseline[j]
                    moves.append((j, key[j]))
            shares = iter(_keyed_shapley(self.model, base, moves))
            return tuple([
                next(shares) if is_normal else first_match(entries, key)
                for is_normal, entries in zip(normal, self.rewards)
            ])
        types = {p: self.slots[k][1] for p, k in zip(self.players, slots)}
        action = {p: self.slots[k][2][a] for p, k, a in zip(self.players, slots, akey)}
        return tuple([_checked_payoff(self.payoff_fn, types, action, p) for p in self.players])

    def _pay_fiber(self, slots: tuple[int, ...], i: int, pos: int, akey: list[int]) -> Sequence[float]:
        # The columns' one writer: pays player i's fiber of type profile
        # `slots` through joint action `akey` at position `pos`, where player
        # i plays its first action, and returns it. A Normal player's fiber
        # is its Shapley shares, folded from the profile's utilities by
        # position: each coalition is a joint action of this same profile
        # (its members play their action, the other Normal players their
        # baseline, the Malicious players keep theirs), and a member's delta
        # is (action - baseline) * stride, 0 at its baseline, which `_fold`
        # takes for a null player as `_keyed_shapley` does. A Malicious
        # player's fiber is its first matching rewards. Only a model-backed
        # game's fibers come here: `columns` pays a hand-built one's whole.
        strides, columns = self.outcomes[slots]
        codes, players, utils = self.payers.get(slots) or self._payer(slots)
        if players[i] is not None:
            others, offset, moves = players[i]
            if not utils:
                utils += list(map(self.model.utility, map(_reversed, itertools.product(*reversed(codes)))))
            deltas = [(akey[j] - b) * s for j, s, b in others]
            got = _fold(utils, pos + offset - sum(deltas), deltas, moves, self.model.ids[i])
        else:
            entries = self.rewards[i]
            key = list(map(operator.getitem, codes, akey))
            got = []
            for c in codes[i]:
                key[i] = c
                got.append(first_match(entries, key))
        columns[i][pos : pos + len(got) * strides[i] : strides[i]] = got
        return got

    def _payer(self, slots: tuple[int, ...]) -> tuple[list, list, list[float]]:
        # What the writer needs of type profile `slots`, built once: each
        # player's label codes; per Normal player, the (index, stride,
        # baseline) of every other Normal player, the offset of its baseline
        # and the delta of each of its actions (None per Malicious player);
        # and the profile's utilities by position, filled on its first
        # Normal fiber.
        strides, _columns = self.outcomes[slots]
        codes = [self.codes[k] for k in slots]
        normal = tuple(map(self.normal.__getitem__, slots))
        players = []
        for i, (k, step) in enumerate(zip(slots, strides)):
            if normal[i]:
                b = self.base[k]
                others = [(j, s, self.base[kk])
                          for j, (kk, s) in enumerate(zip(slots, strides)) if normal[j] and j != i]
                players.append((others, b * step, [(a - b) * step for a in range(len(codes[i]))]))
            else:
                players.append(None)
        got = self.payers[slots] = (codes, players, [])
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
        over the type profiles in walk order. Per type profile, the rivals'
        position is found once and each action steps by its player's stride.
        """
        i = self.slots[k][0]
        width = len(self.slots[k][2])
        totals = [0.0] * width
        for w, slots in self.walk(k):
            strides, columns = self.outcomes.get(slots) or self.columns(slots)
            step = strides[i]
            pos = sum(map(operator.mul, map(choice.__getitem__, slots), strides)) - choice[k] * step
            got = columns[i][pos : pos + width * step : step]
            if got[0] is None:
                akey = list(map(choice.__getitem__, slots))
                akey[i] = 0
                got = self._pay_fiber(slots, i, pos, akey)
            for a, x in enumerate(got):
                totals[a] += w * x
        return tuple(totals)

    def realized(self, slots: tuple[int, ...], akey: tuple[int, ...]) -> float:
        """System utility of one outcome, or without a model the sum of its payoffs."""
        if self.model is not None:
            return self.model.utility(tuple([self.codes[k][a] for k, a in zip(slots, akey)]))
        total = 0.0  # a left fold: Python 3.12's sum() of floats is compensated
        for x in self.outcome(slots, akey):
            total += x
        return total

    def expected_system_utility(self, choice: tuple[int, ...]) -> float:
        """Prior expectation of `realized` under the strategy profile `choice`."""
        total = 0.0
        for prob, slots in self.walk():
            total += prob * self.realized(slots, tuple([choice[k] for k in slots]))
        return total


def build_game(model: SystemModel, att: AttackModel) -> BayesianGame:
    """Translate (system model, attack model) into a Bayesian game.

    Players are the components in declaration order. Attacked components get
    type set (Normal, Malicious) and prior equal to their compromise
    probability; everyone else is Normal-only with prior 0. The Malicious
    action set appends the attack's actions after the component's own ones,
    dropping duplicates. The game plays on `model` itself, which must admit
    every malicious action of `att`, so every game built on one model shares
    its `validate_model` verdict, run once per model, and compiled form.
    """
    problems = model._violations
    if not problems or problems[0].code != "MalformedField":  # attack labels are read through those fields
        problems += tuple(validate_attack_model(att, model))
    if problems:
        raise ValueError(
            "cannot build game from invalid inputs:\n" + "\n".join(str(v) for v in problems)
        )

    players = model.component_ids
    attacked = set(att.attacked)
    type_sets: dict[str, tuple[PlayerType, ...]] = {}
    action_sets: dict[tuple[str, PlayerType], tuple[str, ...]] = {}
    prior: dict[str, float] = {}
    for comp in model.components:
        cid = comp.id
        if cid in attacked:
            type_sets[cid] = (PlayerType.NORMAL, PlayerType.MALICIOUS)
            prior[cid] = float(att.probabilities[cid])
            action_sets[(cid, PlayerType.MALICIOUS)] = _ordered_union(comp.actions, att.malicious_actions[cid])
        else:
            type_sets[cid] = (PlayerType.NORMAL,)
            prior[cid] = 0.0
        action_sets[(cid, PlayerType.NORMAL)] = comp.actions

    return BayesianGame(
        players=players,
        type_sets=type_sets,
        action_sets=action_sets,
        prior_malicious=prior,
        model=model,
        attack=att,
    )


def _check_shape(game: BayesianGame) -> None:
    # A game's players, types, actions and priors, checked once as it is
    # compiled: games from build_game always pass, hand-built ones may not.
    # A model-backed game's players are the model's components, each
    # action is a label the model knows for its component, and each Normal
    # action set holds its component's baseline, where the other Normal
    # players stand in every coalition. A game paid by its attack has finite
    # numeric rewards for each Malicious type; a rule that can never match is kept.
    model = game.model
    attack = game.attack if game.payoff_fn is None else None
    if model is not None and tuple(game.players) != model.compiled.ids:  # an invalid model is rejected first
        raise ValueError(f"players {tuple(game.players)} are not the model's components {model.component_ids}")
    seen = set()
    for i, p in enumerate(game.players):
        if p in seen:
            raise ValueError(f"player {p!r} is listed twice")
        seen.add(p)
        types = game.type_sets.get(p)
        if types is None:
            raise ValueError(f"player {p!r} has no type set")
        if not types:
            raise ValueError(f"player {p!r} has no types")
        for j, t in enumerate(types):
            if not isinstance(t, PlayerType):
                raise ValueError(f"player {p!r} has the type {t!r}, which is not a PlayerType")
            if t in types[:j]:
                raise ValueError(f"player {p!r} has the type {t.value} twice")
            actions = game.action_sets.get((p, t))
            if actions is None:
                raise ValueError(f"player {p!r} of type {t.value} has no action set")
            if not actions:
                raise ValueError(f"player {p!r} of type {t.value} has no actions")
            if len(set(actions)) != len(actions):
                raise ValueError(f"player {p!r} of type {t.value} lists an action twice")
            if model is not None:
                for label in actions:
                    if label not in model.compiled.index[i]:
                        raise ValueError(f"player {p!r} of type {t.value} has the action {label!r}, "
                                         "which the model does not know")
                baseline = model.components[i].baseline
                if t is PlayerType.NORMAL and baseline not in actions:
                    raise ValueError(f"player {p!r} of type {t.value} lacks its baseline {baseline!r}")
        if attack is not None:
            entry = attack.rewards.get(p)
            if entry is None:
                if PlayerType.MALICIOUS in types:
                    raise ValueError(f"player {p!r} has a Malicious type but no attacker reward")
            else:
                rules, default = entry
                for x in [rule.reward for rule in rules] + [default]:
                    fault = _number_fault(x, "a numeric reward")
                    if fault is not None:
                        raise ValueError(f"player {p!r} has the attacker reward {x!r}: {fault}")
    for p, prior in game.prior_malicious.items():
        if p not in seen:
            raise ValueError(f"prior_malicious names {p!r}, which is not a player")
        fault = _number_fault(prior, "a probability", 0.0, 1.0)
        if fault is not None:
            raise ValueError(f"player {p!r} has the malicious prior {prior!r}: {fault}")
        if prior != 0.0 and PlayerType.MALICIOUS not in game.type_sets[p]:
            raise ValueError(f"player {p!r} has the malicious prior {prior!r} but no Malicious type")


def _each_player(game: BayesianGame, given: object, what: str) -> Iterator[tuple[str, object]]:
    # Each player and its value in `given`, in player order, then a check
    # that `given` names no other player: the one walk behind every argument
    # keyed by player. Anything but a mapping is rejected first, and a
    # player's value is checked by the caller before the next player's.
    if not isinstance(given, Mapping):
        raise ValueError(f"{what} must be a mapping keyed by player, got {type(given).__name__}")
    for player in game.players:
        value = given.get(player)
        if value is None:
            raise ValueError(f"{what} misses player {player!r}")
        yield player, value
    for player in given:
        if player not in game.type_sets:
            raise ValueError(f"unknown player {player!r} in {what}")


def _check_type_profile(game: BayesianGame, types: TypeProfile) -> None:
    for player, t in _each_player(game, types, "type profile"):
        if t not in game.type_sets[player]:
            raise ValueError(f"player {player!r} cannot be of type {t!r}")


def _check_joint_action(game: BayesianGame, types: TypeProfile, action: JointAction) -> None:
    for player, label in _each_player(game, action, "joint action"):
        if label not in game.action_sets[(player, types[player])]:
            raise ValueError(
                f"action {label!r} not available to player {player!r} of type {types[player].value}"
            )


def prior_probability(game: BayesianGame, types: TypeProfile) -> float:
    """Probability of a type profile under the independent per-player priors."""
    game.compiled  # a malformed game is rejected before the arguments
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
    The payoff is read from the game's outcome memo once a solver has paid
    every player's payoff of the outcome; before that, the outcome is paid
    alone and goes into no memo.
    Either way the whole outcome is evaluated, every player's payoff, so a
    hand-built game's payoff function that returns anything but a finite
    int or float (not a bool) for any player raises ValueError, as it does
    in the solvers.
    """
    cg = game.compiled  # a malformed game is rejected before the arguments
    if player not in game.players:  # a tuple test hashes nothing, so a list is unknown too
        raise ValueError(f"unknown player {player!r}")
    _check_type_profile(game, types)
    _check_joint_action(game, types, action)
    return cg.outcome(*_outcome_key(cg, types, action))[game.players.index(player)]


def _outcome_key(cg: CompiledGame, types: TypeProfile, action: JointAction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # `(slots, akey)` of a type profile and joint action that fit the game.
    slots = tuple(next(k for k in own if cg.slots[k][1] is types[p]) for p, own in zip(cg.players, cg.own))
    return slots, tuple(cg.slots[k][2].index(action[p]) for p, k in zip(cg.players, slots))


def _checked_payoff(payoff_fn: PayoffFunction, types: TypeProfile, action: JointAction, player: str) -> float:
    # A hand-built payoff function's payoff to `player` as a float; the one
    # check, for the solvers and `payoff` alike, that it is a number by the
    # one number rule: an int or a float, not a bool, finite.
    x = payoff_fn(types, action, player)
    fault = _number_fault(x, "a number")
    if fault is not None:
        named = {q: t.value for q, t in types.items()}
        # a float's only fault is that it is not finite
        what, why = (f"the non-finite payoff {x!r}", "") if isinstance(x, float) else ("a payoff", f": {fault}")
        raise ValueError(f"payoff function gave player {player!r} {what} "
                         f"at type profile {named} and joint action {action}{why}")
    return float(x)


def _reward_pairs(rules: tuple[RewardRule, ...], default: float) -> list:
    # An attack's reward rules as decision-list pairs; the default matches always.
    return [(rule.when, rule.reward) for rule in rules] + [({}, default)]


def realized_system_utility(game: BayesianGame, types: TypeProfile, action: JointAction) -> float:
    """System-level utility of an outcome, used to rank equilibria.

    Model-backed games read the system utility of the joint action, games
    without a model the left fold of all players' payoffs, both through
    `CompiledGame.realized`. A label the model does not know raises
    InvalidJointActionError, and a label that a player's type cannot play
    raises ValueError, as in `payoff`.
    """
    cg = game.compiled  # a malformed game is rejected before the arguments
    _check_type_profile(game, types)
    if game.model is not None:
        _check_model_action(game.model, action)
    _check_joint_action(game, types, action)
    return cg.realized(*_outcome_key(cg, types, action))
