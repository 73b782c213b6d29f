"""Pure-strategy Bayesian Nash equilibrium enumeration and selection.

Strategies are type-contingent plans (one action per type). The solver
enumerates the pure strategy space, skipping the profiles in which its
widest player would leave its action, keeps the profiles that survive interim
best-response checks, ranks them by expected system utility, and offers a
per-player maximin fallback for games without a pure equilibrium. The
induced normal form can be exported in the Gambit payoff file format for
cross-validation with external solvers.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .game import BayesianGame, BudgetExceededError, CompiledGame, PlayerType, _compiled, _each_player, _radix

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
    for player, strat in _each_player(game, profile, "strategy profile"):
        if not isinstance(strat, Mapping):
            raise ValueError(f"strategy of player {player!r} must be a mapping keyed by type, "
                             f"got {type(strat).__name__}")
        for t in game.type_sets[player]:
            label = strat.get(t)
            if label is None:
                raise ValueError(f"player {player!r} has no action for type {t.value}")
            if label not in game.action_sets[(player, t)]:
                raise ValueError(
                    f"action {label!r} not available to player {player!r} of type {t.value}"
                )
        for t in strat:
            if t not in game.type_sets[player]:
                raise ValueError(f"player {player!r} cannot be of type {t!r}")


def interim_payoff(
    game: BayesianGame, player: str, ptype: PlayerType, profile: StrategyProfile
) -> float:
    """Expected payoff of `player` conditional on being of type `ptype`.

    Averages over opponents' type profiles with their independent prior
    marginals; types are independent, so no conditioning correction is
    needed. Opponent branches with zero prior mass are skipped. It pays the
    payoffs it reads, as the other solver entry points do, and a game over
    the profile budget raises BudgetExceededError first.
    """
    cg = _compiled(game)
    if player not in game.players:  # a tuple test hashes nothing, so a list is unknown too
        raise ValueError(f"unknown player {player!r}")
    if ptype not in game.type_sets[player]:
        raise ValueError(f"player {player!r} cannot be of type {ptype!r}")
    _check_profile(game, profile)
    _check_budget(game)

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
    """Size of the profile space the enumeration covers (zero-probability types pinned).

    The enumeration skips the unstable actions of its tail, the widest
    player, without examining those profiles. Counting only the profiles
    it checks would change the `solve_stats` pinned in the golden traces,
    so that is left to a change of its own (ROADMAP, "Enumeration as
    search").
    """
    return math.prod(len(actions) for _i, _t, actions, marginal in _compiled(game).slots if marginal > 0.0)


def _check_epsilon(epsilon: float) -> float:
    # `epsilon` as a float, so equal values give equal traces; a bool, or
    # anything but a real number in [0, the largest float], is rejected.
    if isinstance(epsilon, numbers.Real) and not isinstance(epsilon, bool) and 0.0 <= epsilon <= sys.float_info.max:
        return float(epsilon)
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

    The tail is the player whose positive slots span the most action
    tuples, the last such player on ties, so an attacked component, whose
    Malicious type adds a slot, is usually the tail. The rivals of the
    tail's slots are every other slot, the head, in slot order. Each
    positive slot of the tail reads its rows for every head from
    `CompiledGame.table`, filled before the first head; so for each head,
    in product order, that slot keeps its stable actions, and only those
    tails are enumerated, in ascending order. The head's positive slots
    then read their rows one at a time, through `row`, in slot order. The
    profiles that pass are sorted into canonical order.
    """
    epsilon = _check_epsilon(epsilon)
    _check_budget(game)
    cg = _compiled(game)
    tail = max(reversed(cg.own), default=(), key=lambda own: math.prod(
        len(cg.slots[k][2]) for k in own if cg.slots[k][3] > 0.0))
    lo = tail[0] if tail else 0
    rivals = [k for k in range(len(cg.slots)) if k not in tail]
    ranges = [range(len(cg.slots[k][2])) if cg.slots[k][3] > 0.0 else range(1) for k in rivals]
    head_slots = [k for k in rivals if cg.slots[k][3] > 0.0]
    # per slot of the tail, its row for each head, or None at zero mass
    tables = [cg.table(k, ranges) if cg.slots[k][3] > 0.0 else None for k in tail]

    passed = []
    for h, head in enumerate(itertools.product(*ranges)):
        # per slot of the tail, the actions no other action of its row beats
        # by more than epsilon; no row holds a NaN, so max() is the largest
        # value
        stable = []
        for rows in tables:
            if rows is not None:
                row = rows[h]
                top = max(row)
                stable.append([a for a, v in enumerate(row) if not top > v + epsilon])
            else:
                stable.append((0,))
        for rest in itertools.product(*stable):
            choice = head[:lo] + rest + head[lo:]
            for k in head_slots:
                row = cg.row(k, choice)
                if max(row) > row[choice[k]] + epsilon:
                    break
            else:
                passed.append(choice)

    results: list[EquilibriumResult] = []
    for choice in sorted(passed):
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
    those guaranteed worst-case values. Each slot reads its rows for every
    opponent profile from `CompiledGame.table`, which computes only those
    no earlier solve has memoized.
    """
    _check_budget(game)
    cg = _compiled(game)

    chosen = [0] * len(cg.slots)
    worst_values: dict[tuple[str, PlayerType], float] = {}
    for k, (i, t, _a, _m) in enumerate(cg.slots):
        # Every opponent slot's actions; a zero-mass slot cannot influence
        # the interim payoff and stays pinned at index 0. The empty
        # opponent product still yields one row.
        ranges = [range(len(actions)) if m > 0.0 else range(1)
                  for j, _t, actions, m in cg.slots if j != i]
        rows = cg.table(k, ranges)
        # each action's worst value over the rows, the first of equal ones
        worst = tuple([min(map(operator.itemgetter(a), rows)) for a in range(len(rows[0]))])
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
    cg = _compiled(game)
    return tuple(math.prod(len(cg.slots[k][2]) for k in own) for own in cg.own)


def _format_payoff(x: float) -> str:
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


class _Formatted(dict):
    # Each payoff's text, formatted the first time the payoff is looked up.
    def __missing__(self, x: float) -> str:
        got = self[x] = _format_payoff(x)
        return got


def _quote(s: str) -> str:
    # A backslash escapes itself and a double quote.
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _widen(columns: list | None, width: dict[int, int], grown: dict[int, int], players: int) -> list:
    # Each player's column kept at the slot widths `width`, a dict in output
    # digit order, least significant first, widened to the widths `grown`
    # gives its slots by one gather; `width` is updated. A position reads
    # the one that agrees with it on every other slot. None is the zeros
    # of columns no type profile has been added to, which stay lazy.
    radix, stride = [], 1
    for k, w in width.items():
        radix.append((grown[k], 0) if k in grown else (w, stride))
        stride *= w
    width.update(grown)
    if columns is None:
        return [itertools.repeat(0.0, math.prod(width.values())) for _ in range(players)]
    if not grown:
        return columns
    index = _radix(radix)
    return [list(map(column.__getitem__, index)) for column in columns]


def export_induced_nfg(game: BayesianGame, title: str) -> str:
    """Induced normal form in the Gambit payoff file format.

    Each player's pure strategies are its type-to-action maps, ordered
    lexicographically by action index over the player's types; payoffs are
    ex-ante expectations over the type prior. Outcomes are listed with the
    first player's strategy index varying fastest, each outcome giving every
    player's payoff in player order. A title that is not a string raises
    ValueError before any payoff is read, and so does a payoff that is not
    finite, naming its player, before any text is returned. The export
    holds a payoff per player of every profile, so a game whose profiles
    times players exceed the profile budget raises BudgetExceededError
    before any payoff is read.

    Each type profile of the walk adds its weighted payoffs to every
    player's column in walk order, so every payoff is the same left fold
    from 0.0 as a per-profile sum. A column is kept at the resolution of
    the slots walked so far: a slot no type profile has read yet counts as
    width 1, since outcomes that differ only there have read the same
    payoffs. A type profile that reads new slots first widens the columns
    along them by one gather, and the slots no type profile reads, those of
    zero mass, are widened once at the end. The zeros are lazy, so the
    first type profile adds to nothing allocated.
    """
    if not isinstance(title, str):
        raise ValueError(f"title must be a string, got {type(title).__name__}")
    _check_budget(game)
    counts = induced_strategy_counts(game)
    size = math.prod(counts) * len(counts)
    if size > DEFAULT_PROFILE_BUDGET:
        raise BudgetExceededError(f"induced normal form of {size} payoffs exceeds budget {DEFAULT_PROFILE_BUDGET}")
    cg = _compiled(game)
    full = [len(actions) for _i, _t, actions, _m in cg.slots]
    # per slot, its width in the columns, in output digit order: the first
    # player's last slot is the least significant, its first slot next, and
    # so on up to the last player's first slot
    width = {k: 1 for own in cg.own for k in reversed(own)}

    columns = None
    for prob, slots in cg.walk():
        columns = _widen(columns, width, {k: full[k] for k in slots if width[k] < full[k]}, len(cg.players))
        # each player's payoff of each joint action, the first player's action fastest
        strides, paid = cg.paid(slots)
        # per position of the columns, the position in `paid` of the joint
        # action its strategies play at this type profile
        stride = dict(zip(slots, strides))
        order = _radix([(w, stride.get(k, 0)) for k, w in width.items()])
        for i, column in enumerate(columns):
            table = [prob * x for x in paid[i]]
            columns[i] = list(map(operator.add, column, map(table.__getitem__, order)))
    columns = _widen(columns, width, {k: n for k, n in enumerate(full) if width[k] < n}, len(cg.players))

    # The players' columns interleaved, outcome by outcome. The flat list
    # shares the columns' floats, so the columns can go. Outcomes share few
    # distinct payoffs; each payoff is hashed once, and each distinct one
    # formatted and checked once.
    players = len(columns)
    payoffs = [0.0] * (players * len(columns[0]))
    for i, column in enumerate(columns):
        payoffs[i::players] = column
    del columns
    text = _Formatted()
    values = list(map(text.__getitem__, payoffs))
    if not all(map(math.isfinite, text)):
        at = next(pos for pos, x in enumerate(payoffs) if not math.isfinite(x))
        raise ValueError(f"ex-ante payoff {payoffs[at]!r} of player {game.players[at % players]!r} "
                         "is not a finite number")

    header = "NFG 1 R {} {{ {} }} {{ {} }}".format(
        _quote(title),
        " ".join(_quote(p) for p in game.players),
        " ".join(str(c) for c in counts),
    )
    return header + "\n\n" + " ".join(values) + "\n"
