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
from typing import Mapping, Sequence

from .game import BayesianGame, BudgetExceededError, CompiledGame, PlayerType

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

    cg = game.compiled
    choice = tuple(actions.index(profile[cg.players[i]][t]) for i, t, actions, _m in cg.slots)
    k = next(k for k, (i, t, _a, _m) in enumerate(cg.slots) if (cg.players[i], t) == (player, ptype))
    return cg.row(k, choice)[choice[k]]


def _to_profile(cg: CompiledGame, choice: tuple[int, ...]) -> dict[str, dict[PlayerType, str]]:
    profile: dict[str, dict[PlayerType, str]] = {p: {} for p in cg.players}
    for k, (i, t, actions, _m) in enumerate(cg.slots):
        profile[cg.players[i]][t] = actions[choice[k]]
    return profile


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


def _check_epsilon(epsilon: float) -> None:
    if not math.isfinite(epsilon) or epsilon < 0.0:
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon!r}")


def _check_budget(game: BayesianGame) -> None:
    # The one budget check, run before enumeration, fallback and export
    # evaluate any payoff.
    size = full_profile_count(game)
    if size > DEFAULT_PROFILE_BUDGET:
        raise BudgetExceededError(
            f"profile space of {size} profiles exceeds budget {DEFAULT_PROFILE_BUDGET}"
        )


def enumerate_pure_bne(game: BayesianGame, epsilon: float = DEFAULT_EPSILON) -> list[EquilibriumResult]:
    """All pure-strategy Bayesian Nash equilibria, in canonical order.

    A profile qualifies iff no player of any positive-probability type can
    raise its interim expected payoff by more than `epsilon` with a
    unilateral action change. Types with zero prior mass are payoff
    irrelevant; their entry is pinned to the first action rather than
    enumerated. Canonical order is lexicographic in action indices over
    (player, type) slots. `epsilon` must be finite and non-negative.
    """
    _check_epsilon(epsilon)
    _check_budget(game)
    cg = game.compiled
    ranges = [
        range(len(actions)) if marginal > 0.0 else range(1)
        for _i, _t, actions, marginal in cg.slots
    ]
    positive_slots = [k for k, (_i, _t, _a, marginal) in enumerate(cg.slots) if marginal > 0.0]

    results: list[EquilibriumResult] = []
    for choice in itertools.product(*ranges):
        for k in positive_slots:
            # slot k's row: its interim payoff for each action against the
            # rest of `choice`; the current action never beats itself
            row = cg.row(k, choice)
            bar = row[choice[k]] + epsilon
            if any(v > bar for v in row):
                break
        else:
            interim = {
                (cg.players[i], t): cg.row(k, choice)[choice[k]]
                for k, (i, t, _a, _m) in enumerate(cg.slots)
            }
            results.append(EquilibriumResult(
                profile=_to_profile(cg, choice),
                interim=interim,
                expected_system_utility=cg.expected_system_utility(choice),
            ))
    return results


def select_equilibrium(results: Sequence[EquilibriumResult]) -> EquilibriumResult | None:
    """The equilibrium with maximal expected system utility (first on ties)."""
    best: EquilibriumResult | None = None
    for r in results:
        if best is None or r.expected_system_utility > best.expected_system_utility:
            best = r
    return best


def maximin_fallback(game: BayesianGame) -> EquilibriumResult:
    """Per-player maximin strategy for games without a pure equilibrium.

    Each player independently picks, per type, the action maximizing its
    worst-case interim payoff over all opponent pure strategy profiles;
    ties go to the lowest action index. The result's `interim` map carries
    those guaranteed worst-case values.
    """
    _check_budget(game)
    cg = game.compiled
    n_slots = len(cg.slots)

    chosen = [0] * n_slots
    worst_values: dict[tuple[str, PlayerType], float] = {}
    for k, (i, t, _a, _m) in enumerate(cg.slots):
        # Opponent slots with positive marginals; zero-mass slots cannot
        # influence the interim payoff and stay pinned at index 0.
        opp_slots = [kk for kk, (j, _t, _a, m) in enumerate(cg.slots) if j != i and m > 0.0]
        choice = [0] * n_slots
        worst: tuple[float, ...] | None = None
        # One pass over the opponent profiles keeps each action's worst
        # value; the empty opponent product still yields one combo.
        for combo in itertools.product(*(range(len(cg.slots[kk][2])) for kk in opp_slots)):
            for kk, c in zip(opp_slots, combo):
                choice[kk] = c
            row = cg.row(k, tuple(choice))
            worst = row if worst is None else tuple(map(min, worst, row))
        best_action = max(range(len(worst)), key=worst.__getitem__)
        chosen[k] = best_action
        worst_values[(cg.players[i], t)] = worst[best_action]

    choice = tuple(chosen)
    return EquilibriumResult(
        profile=_to_profile(cg, choice),
        interim=worst_values,
        expected_system_utility=cg.expected_system_utility(choice),
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
    # A backslash escapes itself and a double quote.
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_induced_nfg(game: BayesianGame, title: str) -> str:
    """Induced normal form in the Gambit payoff file format.

    Each player's pure strategies are its type-to-action maps, ordered
    lexicographically by action index over the player's types; payoffs are
    ex-ante expectations over the type prior. Outcomes are listed with the
    first player's strategy index varying fastest, each outcome giving every
    player's payoff in player order.
    """
    _check_budget(game)
    counts = induced_strategy_counts(game)
    cg = game.compiled
    # Per player: every type-to-action index tuple, lexicographic.
    induced: list[list[tuple[int, ...]]] = []
    for p in game.players:
        widths = [len(game.action_sets[(p, t)]) for t in game.type_sets[p]]
        induced.append(list(itertools.product(*(range(w) for w in widths))))

    values: list[str] = []
    for rev in itertools.product(*(range(c) for c in reversed(counts))):
        # a player's slots are adjacent, in type order
        choice = tuple(itertools.chain(*(induced[i][si] for i, si in enumerate(rev[::-1]))))
        # ex-ante payoffs: each player's sum runs over the type profiles in order
        exante = [0.0] * len(game.players)
        for prob, slots in cg.walk():
            payoffs = cg.outcome(slots, tuple([choice[k] for k in slots]))
            for i, x in enumerate(payoffs):
                exante[i] += prob * x
        values.extend(_format_payoff(x) for x in exante)

    header = "NFG 1 R {} {{ {} }} {{ {} }}".format(
        _quote(title),
        " ".join(_quote(p) for p in game.players),
        " ".join(str(c) for c in counts),
    )
    return header + "\n\n" + " ".join(values) + "\n"
