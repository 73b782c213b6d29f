"""Pure-strategy Bayesian Nash equilibrium enumeration and selection.

Strategies are type-contingent plans (one action per type). The solver
exhaustively enumerates the pure strategy space, keeps the profiles that
survive interim best-response checks, ranks them by expected system
utility, and offers a per-player maximin fallback for games without a pure
equilibrium. The induced normal form can be exported in the Gambit payoff
file format for cross-validation with external solvers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .game import BayesianGame, PlayerType, _model_payoff, _payoff

__all__ = [
    "PureStrategy",
    "StrategyProfile",
    "EquilibriumResult",
    "BudgetExceededError",
    "DEFAULT_EPSILON",
    "DEFAULT_PROFILE_BUDGET",
    "interim_payoff",
    "enumerate_pure_bne",
    "select_equilibrium",
    "maximin_fallback",
    "export_induced_nfg",
    "examined_profile_count",
    "full_profile_count",
    "induced_strategy_counts",
]

DEFAULT_EPSILON = 1e-9
DEFAULT_PROFILE_BUDGET = 10_000_000

# player -> (player type -> action label)
PureStrategy = Mapping[PlayerType, str]
StrategyProfile = Mapping[str, PureStrategy]


class BudgetExceededError(RuntimeError):
    """The strategy-profile space is larger than the configured budget."""


@dataclass(frozen=True)
class EquilibriumResult:
    """A solved profile with its per-(player, type) payoff summary.

    For equilibria, `interim` holds interim expected payoffs under the
    profile; for maximin fallbacks it holds each type's guaranteed
    worst-case value instead, and `fallback` is set.
    """

    profile: dict[str, dict[PlayerType, str]]
    interim: dict[tuple[str, PlayerType], float]
    expected_system_utility: float
    fallback: bool = False


def _check_profile(game: BayesianGame, profile: StrategyProfile) -> None:
    for player in game.players:
        strat = profile.get(player)
        if strat is None:
            raise ValueError(f"strategy profile misses player {player!r}")
        for t in game.type_sets[player]:
            label = strat.get(t)
            if label is None:
                raise ValueError(f"player {player!r} has no action for type {t.value}")
            if label not in game.action_sets[(player, t)]:
                raise ValueError(
                    f"action {label!r} not available to player {player!r} of type {t.value}"
                )


def interim_payoff(
    game: BayesianGame, player: str, ptype: PlayerType, profile: StrategyProfile
) -> float:
    """Expected payoff of `player` conditional on being of type `ptype`.

    Averages over opponents' type profiles with their independent prior
    marginals; types are independent, so no conditioning correction is
    needed. Opponent branches with zero prior mass are skipped.
    """
    if player not in game.type_sets:
        raise ValueError(f"unknown player {player!r}")
    if ptype not in game.type_sets[player]:
        raise ValueError(f"player {player!r} cannot be of type {ptype.value}")
    _check_profile(game, profile)

    ev = _Evaluator(game)
    choice = tuple(
        actions.index(profile[ev.players[j]][ev.types[j][tj]]) for j, tj, actions, _m in ev.slots
    )
    i = ev.players.index(player)
    return ev.interim(i, ev.types[i].index(ptype), choice)


# A type profile as type indices, its weight, and the slot of each player's type.
_Branch = tuple[tuple[int, ...], float, tuple[int, ...]]


class _Evaluator:
    """Index-based evaluation engine shared by the solver operations.

    Strategy profiles are tuples of action indices, one entry per
    (player, type) slot in canonical order (player declaration order, then
    type order). Under a type profile, a joint action is a tuple of indices
    into each player's action set for its type; model-backed games map it to
    the compiled model's joint-action key. Payoffs are memoized per (type
    profile, joint action, player); memoization cannot change observable
    results because the underlying payoff oracle is pure. Index tuples only
    name actions the game declares for each type, so evaluation skips the
    public checks. Opponent branches are built per slot on first use.
    """

    def __init__(self, game: BayesianGame):
        self.game = game
        self.players = list(game.players)
        self.types: list[tuple[PlayerType, ...]] = [game.type_sets[p] for p in self.players]
        self.slots: list[tuple[int, int, tuple[str, ...], float]] = []
        self.slot_of: dict[tuple[int, int], int] = {}
        for i, p in enumerate(self.players):
            for ti, t in enumerate(self.types[i]):
                self.slot_of[(i, ti)] = len(self.slots)
                self.slots.append((i, ti, game.action_sets[(p, t)], game.marginal(p, t)))

        self.compiled = game.model.compiled if game.model is not None else None
        # Model-backed games are paid on compiled joint-action keys; other
        # games get the dict forms their payoff function takes.
        self.model_backed = (
            game.payoff_fn is None and game.attack is not None and game.model is not None
        )

        self._branches: dict[tuple[int, int], list[_Branch]] = {}
        self._payoff_cache: dict[tuple, float] = {}

    def _slots(self, combo: tuple[int, ...]) -> tuple[int, ...]:
        # the slot of each player's type in type profile `combo`
        return tuple([self.slot_of[(j, tj)] for j, tj in enumerate(combo)])

    @cached_property
    def codes(self) -> list[tuple[int, ...]]:
        """Per slot, the compiled label index of each of its actions."""
        return [
            tuple(self.compiled.index[i][a] for a in actions) for i, _ti, actions, _m in self.slots
        ]

    @cached_property
    def type_profiles(self) -> list[_Branch]:
        """All full type profiles, weighted by their prior mass."""
        out = []
        for combo in itertools.product(*(range(len(ts)) for ts in self.types)):
            prob = 1.0
            for j, tj in enumerate(combo):
                prob *= self.slots[self.slot_of[(j, tj)]][3]
            out.append((combo, prob, self._slots(combo)))
        return out

    def _opponent_branches(self, i: int, ti: int) -> list[_Branch]:
        # Type profiles with player i of type ti and positive opponent mass,
        # weighted by that mass.
        branches = self._branches[(i, ti)] = []
        pinned = [range(len(ts)) if j != i else (ti,) for j, ts in enumerate(self.types)]
        for combo in itertools.product(*pinned):
            w = 1.0
            for j, tj in enumerate(combo):
                if j != i:
                    w *= self.slots[self.slot_of[(j, tj)]][3]
            if w > 0.0:
                branches.append((combo, w, self._slots(combo)))
        return branches

    def payoff(self, combo: tuple[int, ...], akey: tuple[int, ...], i: int) -> float:
        # `akey[j]` indexes the action set of player j's type in `combo`.
        key = (combo, akey, i)
        got = self._payoff_cache.get(key)
        if got is None:
            slots = self._slots(combo)
            if self.model_backed:
                normal = tuple(self.types[j][tj] is PlayerType.NORMAL for j, tj in enumerate(combo))
                joint = tuple(self.codes[k][a] for k, a in zip(slots, akey))
                got = _model_payoff(self.game, normal, joint, i)
            else:
                types = {p: self.types[j][tj] for j, (p, tj) in enumerate(zip(self.players, combo))}
                action = {p: self.slots[k][2][a] for p, k, a in zip(self.players, slots, akey)}
                got = _payoff(self.game, types, action, self.players[i])
            self._payoff_cache[key] = got
        return got

    def interim(self, i: int, ti: int, choice: tuple[int, ...]) -> float:
        branches = self._branches.get((i, ti))
        if branches is None:
            branches = self._opponent_branches(i, ti)
        total = 0.0
        for combo, w, slots in branches:
            total += w * self.payoff(combo, tuple([choice[k] for k in slots]), i)
        return total

    def expected_system_utility(self, choice: tuple[int, ...]) -> float:
        # Model-backed games rank by the compiled model's utility memo;
        # others by the sum of all players' payoffs.
        total = 0.0
        for combo, prob, slots in self.type_profiles:
            if prob == 0.0:
                continue
            if self.compiled is not None:
                value = self.compiled.utility(tuple([self.codes[k][choice[k]] for k in slots]))
            else:
                akey = tuple([choice[k] for k in slots])
                value = sum(self.payoff(combo, akey, j) for j in range(len(self.players)))
            total += prob * value
        return total

    def exante(self, i: int, choice: tuple[int, ...]) -> float:
        total = 0.0
        for combo, prob, slots in self.type_profiles:
            if prob == 0.0:
                continue
            total += prob * self.payoff(combo, tuple([choice[k] for k in slots]), i)
        return total

    def to_profile(self, choice: tuple[int, ...]) -> dict[str, dict[PlayerType, str]]:
        profile: dict[str, dict[PlayerType, str]] = {p: {} for p in self.players}
        for k, (i, ti, actions, _m) in enumerate(self.slots):
            profile[self.players[i]][self.types[i][ti]] = actions[choice[k]]
        return profile

    def result(self, choice: tuple[int, ...], fallback: bool = False) -> EquilibriumResult:
        interim = {
            (self.players[i], self.types[i][ti]): self.interim(i, ti, choice)
            for i, ti, _actions, _m in self.slots
        }
        return EquilibriumResult(
            profile=self.to_profile(choice),
            interim=interim,
            expected_system_utility=self.expected_system_utility(choice),
            fallback=fallback,
        )


def full_profile_count(game: BayesianGame) -> int:
    """Size of the raw strategy-profile space (all types enumerated)."""
    return math.prod(induced_strategy_counts(game))


def examined_profile_count(game: BayesianGame) -> int:
    """Number of profiles actually enumerated (zero-probability types pinned)."""
    total = 1
    for p in game.players:
        for t in game.type_sets[p]:
            if game.marginal(p, t) > 0.0:
                total *= len(game.action_sets[(p, t)])
    return total


def _check_budget(game: BayesianGame, budget: int) -> None:
    size = full_profile_count(game)
    if size > budget:
        raise BudgetExceededError(f"profile space of {size} profiles exceeds budget {budget}")


def enumerate_pure_bne(
    game: BayesianGame,
    epsilon: float = DEFAULT_EPSILON,
    *,
    profile_budget: int = DEFAULT_PROFILE_BUDGET,
) -> list[EquilibriumResult]:
    """All pure-strategy Bayesian Nash equilibria, in canonical order.

    A profile qualifies iff no player of any positive-probability type can
    raise its interim expected payoff by more than `epsilon` with a
    unilateral action change. Types with zero prior mass are payoff
    irrelevant; their entry is pinned to the first action rather than
    enumerated. Canonical order is lexicographic in action indices over
    (player, type) slots.
    """
    _check_budget(game, profile_budget)
    ev = _Evaluator(game)
    ranges = [
        range(len(actions)) if marginal > 0.0 else range(1)
        for _i, _ti, actions, marginal in ev.slots
    ]
    positive_slots = [
        (k, i, ti, len(actions))
        for k, (i, ti, actions, marginal) in enumerate(ev.slots)
        if marginal > 0.0
    ]

    results: list[EquilibriumResult] = []
    for choice in itertools.product(*ranges):
        stable = True
        for k, i, ti, width in positive_slots:
            current = ev.interim(i, ti, choice)
            for alt in range(width):
                if alt == choice[k]:
                    continue
                deviated = choice[:k] + (alt,) + choice[k + 1 :]
                if ev.interim(i, ti, deviated) > current + epsilon:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            results.append(ev.result(choice))
    return results


def select_equilibrium(
    game: BayesianGame, results: Sequence[EquilibriumResult]
) -> EquilibriumResult | None:
    """The equilibrium with maximal expected system utility (first on ties)."""
    best: EquilibriumResult | None = None
    for r in results:
        if best is None or r.expected_system_utility > best.expected_system_utility:
            best = r
    return best


def maximin_fallback(
    game: BayesianGame, *, profile_budget: int = DEFAULT_PROFILE_BUDGET
) -> EquilibriumResult:
    """Per-player maximin strategy for games without a pure equilibrium.

    Each player independently picks, per type, the action maximizing its
    worst-case interim payoff over all opponent pure strategy profiles;
    ties go to the lowest action index. The result's `interim` map carries
    those guaranteed worst-case values.
    """
    _check_budget(game, profile_budget)
    ev = _Evaluator(game)
    n_slots = len(ev.slots)

    chosen = [0] * n_slots
    worst_values: dict[tuple[str, PlayerType], float] = {}
    for k, (i, ti, actions, _m) in enumerate(ev.slots):
        # Opponent slots with positive marginals; zero-mass slots cannot
        # influence the interim payoff and stay pinned at index 0.
        opp_slots = [
            (kk, len(acts))
            for kk, (j, _tj, acts, m) in enumerate(ev.slots)
            if j != i and m > 0.0
        ]
        best_action = 0
        best_worst = None
        for a in range(len(actions)):
            worst = None
            # the empty opponent product still yields one (empty) combo,
            # so `worst` is always set
            for combo in itertools.product(*(range(w) for _kk, w in opp_slots)):
                choice = [0] * n_slots
                choice[k] = a
                for (kk, _w), c in zip(opp_slots, combo):
                    choice[kk] = c
                val = ev.interim(i, ti, tuple(choice))
                if worst is None or val < worst:
                    worst = val
            if best_worst is None or worst > best_worst:
                best_worst = worst
                best_action = a
        chosen[k] = best_action
        worst_values[(ev.players[i], ev.types[i][ti])] = best_worst

    choice = tuple(chosen)
    return EquilibriumResult(
        profile=ev.to_profile(choice),
        interim=worst_values,
        expected_system_utility=ev.expected_system_utility(choice),
        fallback=True,
    )


def induced_strategy_counts(game: BayesianGame) -> tuple[int, ...]:
    """Induced normal-form strategy count per player: prod over types of |actions|."""
    counts = []
    for p in game.players:
        c = 1
        for t in game.type_sets[p]:
            c *= len(game.action_sets[(p, t)])
        counts.append(c)
    return tuple(counts)


def _format_payoff(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def export_induced_nfg(
    game: BayesianGame, title: str, *, strategy_budget: int = DEFAULT_PROFILE_BUDGET
) -> str:
    """Induced normal form in the Gambit payoff file format.

    Each player's pure strategies are its type-to-action maps, ordered
    lexicographically by action index over the player's types; payoffs are
    ex-ante expectations over the type prior. Outcomes are listed with the
    first player's strategy index varying fastest, each outcome giving every
    player's payoff in player order.
    """
    counts = induced_strategy_counts(game)
    size = math.prod(counts)
    if size > strategy_budget:
        raise BudgetExceededError(f"induced normal form of {size} outcomes exceeds budget {strategy_budget}")

    ev = _Evaluator(game)
    # Per player: every type-to-action index tuple, lexicographic.
    induced: list[list[tuple[int, ...]]] = []
    for i, p in enumerate(game.players):
        widths = [len(game.action_sets[(p, t)]) for t in game.type_sets[p]]
        induced.append(list(itertools.product(*(range(w) for w in widths))))

    values: list[str] = []
    for rev in itertools.product(*(range(c) for c in reversed(counts))):
        strat_indices = rev[::-1]
        choice = [0] * len(ev.slots)
        for i, si in enumerate(strat_indices):
            for ti, a in enumerate(induced[i][si]):
                choice[ev.slot_of[(i, ti)]] = a
        key = tuple(choice)
        for i in range(len(game.players)):
            values.append(_format_payoff(ev.exante(i, key)))

    header = "NFG 1 R {} {{ {} }} {{ {} }}".format(
        _quote(title),
        " ".join(_quote(p) for p in game.players),
        " ".join(str(c) for c in counts),
    )
    return header + "\n\n" + " ".join(values) + "\n"
