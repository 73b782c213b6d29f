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
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .attacks import AttackModel, validate_attack_model
from .model import (CompiledModel, DecisionList, JointAction, SystemModel, _match_grid, _ordered_union, first_match,
                    validate_model)
from .model import _check_joint_action as _check_model_action
from .shapley import BudgetExceededError, _checked_ids, _fold, _keyed, _share  # noqa: F401 (re-exported)

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


@dataclass(frozen=True)
class BayesianGame:
    """A finite Bayesian game with independent per-player type priors.

    `build_game` is the only maker of a game: it translates a system model
    and an attack model, whose Shapley shares and attacker rewards the game
    pays, and hands the game its compiled form.
    """

    players: tuple[str, ...]
    type_sets: dict[str, tuple[PlayerType, ...]]
    action_sets: dict[tuple[str, PlayerType], tuple[str, ...]]
    prior_malicious: dict[str, float]
    model: SystemModel
    attack: AttackModel

    def marginal(self, player: str, ptype: PlayerType) -> float:
        """Prior probability that `player` is of `ptype`."""
        p = self.prior_malicious.get(player, 0.0)
        return p if ptype is PlayerType.MALICIOUS else 1.0 - p

    @cached_property
    def compiled(self) -> "CompiledGame":
        """Index form of this game, which owns the outcome memo.

        `build_game` stores it with the game. Any other game, one built
        directly or a `dataclasses.replace` copy, has none and raises
        ValueError here, so every entry point rejects it before reading its
        arguments. The memo describes the game as it was built, so a game
        must not be mutated.
        """
        raise ValueError("a game must come from build_game; this one was built directly or copied")


# A type profile as the slot of each player's type, with its weight.
_Branch = tuple[float, tuple[int, ...]]

# A tuple in reverse order: itertools.product varies its last factor
# fastest, and a position varies the first player's action fastest.
_reversed = operator.itemgetter(slice(None, None, -1))


def _radix(digits: Sequence[tuple[int, int]]) -> list[int]:
    # For every number of the mixed radix `digits`, (width, weight) pairs
    # least significant first, in increasing order: the sum of each digit
    # times its weight.
    out = [0]
    for width, weight in digits:
        if width > 1:
            out = [o + d for d in range(0, width * weight, weight) for o in out] if weight else out * width
    return out


class CompiledGame:
    """A BayesianGame in index form, with the memo of its outcomes.

    Slot k is one (player index, type, actions, prior marginal), in player
    order and then type order; a strategy profile `choice` holds one action
    index per slot. A type profile is `slots`, the slot of each player's
    type, and a joint action under it is `akey`, each player's index into
    its slot's actions. `columns` opens a type profile once: `outcomes[slots]`
    holds its strides, the first player's fastest, and one column per player
    of its payoffs by the joint action's mixed-radix position, and
    `payers[slots]` what the fiber writer needs of it. A Malicious column
    belongs to the game, which pays it whole from its own reward rules when
    the profile opens. A Normal column belongs to the model: it and
    `payers[slots]` are the lists of the profile's entry in
    `model.profiles`, None until paid, so every game on the model (the
    export after a plan, a replan) finds the fibers another paid.
    A fiber is one player's payoffs over its own actions with every other
    player's action fixed, the slice of a column that a row reads. Each
    Normal fiber is paid the first time a game on the model reads it, so a
    solver pays only what its rows read and nothing twice. The fiber
    writer (`_pay_fiber`) pays one Normal fiber: a lone row (`interims`)
    calls it, since such rows read a few fibers of each column they touch.
    The column writer (`_pay_column`) pays every unpaid fiber of a Normal
    column through it: `table` calls it, since its rows read whole columns,
    and so does `paid`, which completes a profile's columns for the export.
    A lone read (`lone`, which `payoff` uses) pays one player's payoff of
    one outcome, opens no profile and stores nothing.
    `rows[k][rivals]` holds slot k's interim payoff for each of its
    actions, where `rivals` are the action indices of every slot of another
    player; each row is computed once and does not depend on the solver's
    epsilon. Rows are filled in bulk by `table`, one pass per type profile
    for every rivals tuple of a product, or one at a time by `row`; both
    sum each row in walk order, so a row has the same floats either way.

    A game is paid on the compiled model's joint-action keys: a Normal
    player's fiber is its Shapley shares, which the fiber writer folds from
    the type profile's utilities, read by position, with the one Shapley
    kernel (`shapley._fold`) straight into the player's column; a lone read
    folds the player's one share through `shapley._share` from the
    utilities of `shapley._keyed`; both give the same floats. A Malicious
    player is paid its first matching reward of `rewards`, per player its
    attack's reward rules compiled once and ending in the default, or None
    if it is not attacked, alike in an opened column and in a lone read.

    Only `_build` makes one, for a game that is valid by construction, so
    nothing but the participant limit is checked here. Indices only name
    actions the game declares, so nothing is checked per evaluation either.
    No reference leads back to the game, from this object or from the
    model's utility and profile memos, so dropping the game frees this
    object, and its Malicious columns, without the cyclic collector.
    """

    def __init__(self, game: BayesianGame, rewards: tuple[DecisionList | None, ...]):
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
        self.model = game.model.compiled
        # per slot, the compiled label index of each of its actions
        self.codes = [tuple(self.model.index[i][a] for a in acts) for i, _t, acts, _m in self.slots]
        # per Normal slot, the action index of its component's baseline
        self.base = [
            codes.index(self.model.baseline[i]) if normal else None
            for codes, (i, _t, _a, _m), normal in zip(self.codes, self.slots, self.normal)
        ]
        # per slot, its part of the key of a type profile in the model's `profiles`
        self.parts = list(zip(self.codes, self.normal))
        _checked_ids(self.players)
        self.rewards = rewards
        self.walks: dict[int | None, list[_Branch]] = {}
        self.outcomes: dict[tuple[int, ...], tuple[tuple[int, ...], list[list[float | None]]]] = {}
        # opened with `outcomes`: per type profile, its entry in the model's `profiles`
        self.payers: dict[tuple[int, ...], tuple[list, list, list[float], list]] = {}
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
        """Type profile `slots`'s strides and per-player payoff columns by position, opened once.

        A Normal column belongs to the model: opening looks the profile up
        once in `model.profiles`, by each slot's label codes and Normal
        flag, and adds it there on the model's first opening. Its entry
        holds the label codes, per Normal player the (stride, action count,
        baseline) of every other Normal player, its baseline's offset and
        each action's delta, the profile's utilities, filled on its first
        Normal fiber, and one column per Normal player, None everywhere
        until paid (None for a Malicious player). `payers[slots]` is that
        entry, and this game's Normal columns are its lists, so any game on
        the model finds the fibers another paid. A Malicious column belongs
        to the game and is paid whole, from one grid of its rules matched
        once per joint action of the players they name (`model._match_grid`).
        """
        got = self.outcomes.get(slots)
        if got is None:
            codes = [self.codes[k] for k in slots]
            widths = list(map(len, codes))
            strides, size = [], 1
            for n in widths:
                strides.append(size)
                size *= n
            key = tuple([self.parts[k] for k in slots])
            profile = self.model.profiles.get(key)
            if profile is None:
                players, normals = [], []
                for i, (k, step) in enumerate(zip(slots, strides)):
                    if self.normal[k]:
                        b = self.base[k]
                        others = [(s, widths[j], self.base[kk])
                                  for j, (kk, s) in enumerate(zip(slots, strides)) if self.normal[kk] and j != i]
                        players.append((others, b * step, [(a - b) * step for a in range(widths[i])]))
                        normals.append([None] * size)
                    else:
                        players.append(None)
                        normals.append(None)
                profile = self.model.profiles[key] = (codes, players, [], normals)
            self.payers[slots] = profile
            columns = []
            for i, column in enumerate(profile[3]):
                if column is None:
                    grid, weights = _match_grid(self.rewards[i], codes)
                    column = list(map(grid.__getitem__, _radix(list(zip(widths, weights)))))
                columns.append(column)
            got = self.outcomes[slots] = (tuple(strides), columns)
        return got

    def paid(self, slots: tuple[int, ...]) -> tuple[tuple[int, ...], list[list[float]]]:
        """Type profile `slots`'s strides and columns, with every fiber no read has reached paid now."""
        strides, columns = self.columns(slots)
        for i in range(len(slots)):
            self._pay_column(slots, i)
        return strides, columns

    def lone(self, slots: tuple[int, ...], akey: tuple[int, ...], i: int) -> float:
        """Player i's payoff under type profile `slots` and joint action `akey`, paid alone.

        It reads no column and stores nothing; only the model's utilities
        are memoized. A Malicious player is paid its first matching reward.
        A Normal player is paid its Shapley share: a coalition's members
        play their labels from the outcome's key, the other Normal players
        their baselines, and the Malicious players keep theirs.
        """
        key = [self.codes[k][a] for k, a in zip(slots, akey)]
        if not self.normal[slots[i]]:
            return first_match(self.rewards[i], key)
        base = list(key)
        moves = []
        for j, k in enumerate(slots):
            if self.normal[k]:
                base[j] = self.model.baseline[j]
                moves.append((j, key[j]))
        values, deltas = _keyed(self.model, base, moves)
        return _share(values, deltas, moves.index((i, key[i])), self.model.ids[i])

    def _pay_fiber(self, slots: tuple[int, ...], i: int, pos: int) -> Sequence[float]:
        # The fiber writer: pays Normal player i's fiber of type profile
        # `slots` at position `pos`, where player i plays its first action,
        # and returns it. The fiber is the player's Shapley shares, folded
        # by `_fold` from the profile's utilities by position: each
        # coalition is a joint action of this same profile (its members play
        # their action, the other Normal players their baseline, the
        # Malicious players keep theirs), and a member's delta is (action -
        # baseline) * stride, 0 at its baseline, which `_fold` takes for a
        # null player as `shapley._keyed` does. Each other Normal player's
        # action is read off the position.
        strides, columns = self.outcomes[slots]
        codes, players, utils, _normals = self.payers[slots]
        others, offset, moves = players[i]
        if not utils:
            utils += list(map(self.model.utility, map(_reversed, itertools.product(*reversed(codes)))))
        deltas = [(pos // s % n - b) * s for s, n, b in others]
        got = _fold(utils, pos + offset - sum(deltas), deltas, moves, self.model.ids[i])
        columns[i][pos : pos + len(got) * strides[i] : strides[i]] = got
        return got

    def _pay_column(self, slots: tuple[int, ...], i: int) -> None:
        # The column writer: pays every unpaid fiber of player i's column of
        # type profile `slots`, one by one through the fiber writer, from
        # each fiber's first position. A Malicious column was paid whole
        # when its profile opened, so it holds no None.
        strides, columns = self.outcomes[slots]
        column = columns[i]
        if None not in column:
            return
        codes = self.payers[slots][0]
        for pos in _radix([(len(c), s) for j, (c, s) in enumerate(zip(codes, strides)) if j != i]):
            if column[pos] is None:
                self._pay_fiber(slots, i, pos)

    def row(self, k: int, choice: tuple[int, ...]) -> tuple[float, ...]:
        """Slot k's interim payoffs, the other players playing `choice`, computed once."""
        lo, hi = self.spans[k]
        rivals = choice[:lo] + choice[hi:]
        got = self.rows[k].get(rivals)
        if got is None:
            got = self.rows[k][rivals] = self.interims(k, choice)
        return got

    def table(self, k: int, ranges: Sequence[range]) -> list[tuple[float, ...]]:
        """Slot k's rows for every rivals tuple of `itertools.product(*ranges)`, in that order.

        `ranges` holds one range per slot of another player, in slot order,
        each from action 0: all its actions, or the first alone. Only the
        rows not yet in `rows[k]` are computed, in one pass per type profile
        of `walk(k)`, read from `outcomes` (opened by `columns` on a miss):
        the rows' positions are built by `_radix` from the profile's strides
        keyed by its own slots (slot k is no digit), the column writer pays
        the unpaid fibers of the player's column, and then per action the
        profile's weighted payoffs are added to every row's total at once.
        So each row is the same left fold from 0.0, in walk order, as
        `interims` gives. Both callers range every slot of positive mass
        over all its actions, and every other slot of a profile of `walk(k)`
        has positive mass, so the rows together read every fiber of the
        column; those still unpaid are read by the rows to compute.
        """
        memo = self.rows[k]
        keys = list(itertools.product(*ranges))
        todo = [m for m, rivals in enumerate(keys) if rivals not in memo] if memo else range(len(keys))
        if todo:
            i = self.slots[k][0]
            lo, hi = self.spans[k]
            others = [s for s in range(len(self.slots)) if not lo <= s < hi]
            # each other slot and its action count, the last slot least
            # significant, as in itertools.product
            digits = list(zip(others, map(len, ranges)))[::-1]
            # per action, its total in each row to compute
            sums = [[0.0] * len(todo)] * len(self.slots[k][2])
            for w, slots in self.walk(k):
                strides, columns = self.outcomes.get(slots) or self.columns(slots)
                stride = dict(zip(slots, strides))
                positions = _radix([(n, stride.get(s, 0)) for s, n in digits])
                if len(todo) < len(keys):
                    positions = list(map(positions.__getitem__, todo))
                self._pay_column(slots, i)
                column, step = columns[i], strides[i]
                for a, total in enumerate(sums):
                    xs = map(column.__getitem__, map(operator.add, positions, itertools.repeat(a * step)))
                    sums[a] = list(map(operator.add, total, map(operator.mul, itertools.repeat(w), xs)))
            for m, row in zip(todo, zip(*sums)):
                memo[keys[m]] = row
        return list(map(memo.__getitem__, keys))

    def interims(self, k: int, choice: tuple[int, ...]) -> tuple[float, ...]:
        """Expected payoff of slot k's player, as slot k's type, for each of its actions.

        The other players' slots play as in `choice`. Each action's sum runs
        over `walk(k)` in walk order, each profile read from `outcomes` and
        opened on a miss. The fiber starts at the whole `choice`'s position
        less slot k's action times its player's stride, by which it steps.
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
                got = self._pay_fiber(slots, i, pos)
            for a, x in enumerate(got):
                totals[a] += w * x
        return tuple(totals)

    def realized(self, slots: tuple[int, ...], akey: tuple[int, ...]) -> float:
        """System utility of one outcome."""
        return self.model.utility(tuple([self.codes[k][a] for k, a in zip(slots, akey)]))

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
    Both inputs are checked here, once; the game then comes from `_build`
    with its compiled form, which is valid by construction and not checked again.
    """
    # anything but a SystemModel keeps no verdict: its one fault is its class
    problems = model._violations if isinstance(model, SystemModel) else tuple(validate_model(model))
    if not problems or problems[0].code != "MalformedField":  # attack labels are read through those fields
        problems += tuple(validate_attack_model(att, model))
    if problems:
        raise ValueError(
            "cannot build game from invalid inputs:\n" + "\n".join(str(v) for v in problems)
        )
    return _build(model, att)


def _build(model: SystemModel, att: AttackModel, entries: Mapping[str, DecisionList] | None = None) -> BayesianGame:
    # `build_game`'s core, for inputs that passed its checks or that a fold
    # of a checked script's records made, and the only maker of a game: the
    # game and its compiled form, valid by construction. `entries` holds
    # each attacked component's reward rules compiled, without the default,
    # as `attacks._Fold` keeps them; without it they are compiled here.
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

    game = BayesianGame(
        players=players,
        type_sets=type_sets,
        action_sets=action_sets,
        prior_malicious=prior,
        model=model,
        attack=att,
    )
    rewards = _rewards(model.compiled, att, players, entries)
    vars(game)["compiled"] = CompiledGame(game, rewards)  # found before the property, which would raise
    return game


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


def _compiled(game: BayesianGame) -> CompiledGame:
    # The one check of a game argument, before any other is read: a non-game
    # is rejected naming its type, a game not from build_game by `compiled`.
    if not isinstance(game, BayesianGame):
        raise ValueError(f"expected a BayesianGame, got {type(game).__name__}")
    return game.compiled


def prior_probability(game: BayesianGame, types: TypeProfile) -> float:
    """Probability of a type profile under the independent per-player priors."""
    _compiled(game)
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
    Only `player`'s payoff is paid, by `CompiledGame.lone`, which reads no
    outcome memo and stores nothing in one.
    """
    cg = _compiled(game)
    if player not in game.players:  # a tuple test hashes nothing, so a list is unknown too
        raise ValueError(f"unknown player {player!r}")
    _check_type_profile(game, types)
    _check_joint_action(game, types, action)
    return cg.lone(*_outcome_key(cg, types, action), game.players.index(player))


def _outcome_key(cg: CompiledGame, types: TypeProfile, action: JointAction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # `(slots, akey)` of a type profile and joint action that fit the game.
    slots = tuple(next(k for k in own if cg.slots[k][1] is types[p]) for p, own in zip(cg.players, cg.own))
    return slots, tuple(cg.slots[k][2].index(action[p]) for p, k in zip(cg.players, slots))


def _rewards(compiled: CompiledModel, att: AttackModel, players: Sequence[str],
             entries: Mapping[str, DecisionList] | None) -> tuple[DecisionList | None, ...]:
    # Per player, its attack's reward rules compiled and ending in the
    # default, which matches always, or None if it is not attacked. The
    # rules come compiled in `entries`, or are compiled here.
    got = []
    for p in players:
        entry = att.rewards.get(p)
        if entry is None:
            got.append(None)
            continue
        rules, default = entry
        head = compiled.decision_list((rule.when, rule.reward) for rule in rules) if entries is None else entries[p]
        got.append(head + (((), float(default)),))
    return tuple(got)


def realized_system_utility(game: BayesianGame, types: TypeProfile, action: JointAction) -> float:
    """System-level utility of an outcome, used to rank equilibria.

    The system utility of the joint action, through `CompiledGame.realized`.
    A label the model does not know raises InvalidJointActionError, and a
    label that a player's type cannot play raises ValueError, as in `payoff`.
    """
    cg = _compiled(game)
    _check_type_profile(game, types)
    _check_model_action(game.model, action)
    _check_joint_action(game, types, action)
    return cg.realized(*_outcome_key(cg, types, action))
