"""Shapley-value decomposition of system utility into per-component payoffs.

One kernel computes every Shapley value in the package: `_fold`, the subset
formula over integer bit masks, with one participant limit,
`SUBSET_PARTICIPANT_LIMIT`. It reads the coalition values out of a list by
position and marks null players, and it serves three routes:
`shapley_values` hands it the coalition values of an arbitrary
characteristic function, by mask; a model-backed game's pass over a type
profile (`game.CompiledGame._pay_model`) the profile's utilities; and
`_keyed_shapley`, for `shapley_allocation` and a model-backed game's lone
payoff read, the utilities of the coalitions' joint-action keys, looked up
in the compiled model's memo. The last two hand it the same values, so the
same floats. A coalition value that is not finite is rejected with
`ValueError` where it is computed, and so is a share that is not: a
difference of two finite values near the float limit can overflow. The
independent oracles that check this kernel live with the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .model import CompiledModel, SystemModel, _check_labels, system_utility

__all__ = [
    "BudgetExceededError",
    "CharacteristicContext",
    "coalition_value",
    "shapley_allocation",
    "shapley_values",
    "SUBSET_PARTICIPANT_LIMIT",
]

# Subset enumeration values 2^n coalitions.
SUBSET_PARTICIPANT_LIMIT = 20

CharacteristicFunction = Callable[[frozenset[str]], float]


class BudgetExceededError(RuntimeError):
    """Solving a game would take more work than its budget allows."""


@dataclass(frozen=True)
class CharacteristicContext:
    """Everything needed to value coalitions for one joint action.

    Coalition members play their action from `action`; components in `fixed`
    (e.g. compromised ones) always play their fixed label; every other
    component falls back to its baseline. Construction checks every label a
    coalition can put into a joint action, so `shapley_allocation` evaluates
    coalitions without further checks.
    """

    model: SystemModel
    action: dict[str, str]
    participants: tuple[str, ...]
    fixed: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        ids = set(self.model.component_ids)
        overlap = set(self.participants) & set(self.fixed)
        if overlap:
            raise ValueError(f"participants and fixed components overlap: {sorted(overlap)}")
        for cid in itertools.chain(self.participants, self.fixed):
            if cid not in ids:
                raise ValueError(f"unknown component {cid!r} in characteristic context")
        for cid in self.participants:
            if cid not in self.action:
                raise ValueError(f"joint action misses participant {cid!r}")
        _check_labels(self.model, itertools.chain(
            ((cid, self.action[cid]) for cid in self.participants),
            self.fixed.items(),
            ((c.id, c.baseline) for c in self.model.components),
        ))


def coalition_value(ctx: CharacteristicContext, coalition: Iterable[str]) -> float:
    """System utility when exactly `coalition` carries out the context action.

    Members of the coalition play their label from `ctx.action`, fixed
    components keep their fixed label, everyone else plays baseline.
    """
    members = frozenset(coalition)
    extra = members - set(ctx.participants)
    if extra:
        raise ValueError(f"coalition members outside participants: {sorted(extra)}")
    return system_utility(ctx.model, _coalition_action(ctx, members))


def _coalition_action(ctx: CharacteristicContext, members: frozenset[str]) -> dict[str, str]:
    joint: dict[str, str] = {}
    for comp in ctx.model.components:
        cid = comp.id
        if cid in members:
            joint[cid] = ctx.action[cid]
        elif cid in ctx.fixed:
            joint[cid] = ctx.fixed[cid]
        else:
            joint[cid] = comp.baseline
    return joint


def shapley_values(participants: Sequence[str], value: CharacteristicFunction) -> dict[str, float]:
    """Shapley payoff of every participant under characteristic function `value`.

    Uses the weighted marginal-contribution sum over all coalitions not
    containing the participant; the weight for a coalition of size s among n
    players is s!(n-s-1)!/n!. `value` is called once per coalition, and the
    summation order is fixed so results are bit-reproducible. A value that
    is NaN or infinite raises ValueError naming its coalition, and a share
    that is raises ValueError naming its participant.
    """
    ids = _checked_ids(participants)
    if not ids:
        return {}
    # coalitions[mask] holds participant j iff bit j of mask is set
    coalitions = [frozenset()]
    for pid in ids:
        coalitions += [s | {pid} for s in coalitions]
    vals = []
    for s in coalitions:
        x = float(value(s))
        if not math.isfinite(x):
            raise ValueError(
                f"characteristic function gave coalition {sorted(s)} the non-finite value {x!r}"
            )
        vals.append(x)
    return dict(zip(ids, _fold(vals, 0, [1 << j for j in range(len(ids))], ids.__getitem__)))


def _checked_ids(participants: Sequence[str]) -> list[str]:
    # The only check of the participant limit: `shapley_values`,
    # `shapley_allocation` and every model-backed game go through it.
    if isinstance(participants, str):
        raise ValueError(f"participants must be a sequence of ids, not the string {participants!r}")
    if isinstance(participants, (set, frozenset)):
        # a set's order, and so the shares' last bits, follows PYTHONHASHSEED
        raise ValueError(f"participants must be a sequence of ids, not the unordered {type(participants).__name__}")
    ids = list(participants)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate participant ids")
    if len(ids) > SUBSET_PARTICIPANT_LIMIT:
        raise BudgetExceededError(
            f"Shapley allocation over {len(ids)} participants exceeds the "
            f"participant budget {SUBSET_PARTICIPANT_LIMIT}"
        )
    return ids


@functools.lru_cache(maxsize=8)
def _mask_weights(n: int) -> tuple[float, ...]:
    # weight(|S|) = |S|!(n-|S|-1)!/n! per mask S, for every mask but the full
    # one (the only one no participant is missing from). A table depends on
    # n alone; at 2^n entries, only the last few sizes are kept.
    fact = [1.0] * (n + 1)
    for k in range(1, n + 1):
        fact[k] = fact[k - 1] * k
    weight = [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)]
    return tuple(weight[mask.bit_count()] for mask in range((1 << n) - 1))


def _keyed_shapley(
    compiled: CompiledModel, base: list[int], moves: Sequence[tuple[int, int]]
) -> list[float]:
    # Shapley values of the participants that `moves` lists, in order, as
    # (position, label index) on the compiled model: the coalition of a mask
    # plays `base` with each member's position set to its label. Without
    # participants no coalition is valued. A participant whose label is
    # already its position's in `base` is a null player, of delta 0: only
    # the 2^active keys of the others are built and looked up, once each,
    # and an active participant's delta is its bit among them.
    if not moves:
        return []
    keys = [tuple(base)]  # keys[mask] over the active participants
    deltas = []
    for j, a in moves:
        if a == base[j]:
            deltas.append(0)
            continue
        deltas.append(len(keys))
        a = (a,)
        keys += [k[:j] + a + k[j + 1 :] for k in keys]
    utility = compiled.utility
    return _fold([utility(k) for k in keys], 0, deltas, lambda i: compiled.ids[moves[i][0]])


def _fold(utils: Sequence[float], start: int, deltas: Sequence[int], name: Callable[[int], str]) -> list[float]:
    # Shapley values of the participants of `deltas`, in order, by the
    # subset formula, from values read out of `utils` by position: the empty
    # coalition's is at `start`, and each member i adds deltas[i]. Gathered
    # as vals[mask], per participant i the others' coalitions S run as the
    # ascending (n-1)-bit masks `rest`, widened by a 0 at bit i, adding
    # weight(|S|) * (v(S + i) - v(S)) in that order. A delta of 0 marks a
    # null player, put in the null mask: it gets 0.0 without a sum, exact as
    # every value is finite, so each term is w * 0.0. A share that is not
    # finite raises ValueError naming its participant, name(i).
    positions = [start]
    null = 0
    for i, d in enumerate(deltas):
        if d:
            positions += [p + d for p in positions]
        else:
            positions *= 2
            null |= 1 << i
    vals = list(map(utils.__getitem__, positions))
    n = len(deltas)
    by_mask = _mask_weights(n)
    out = []
    for i in range(n):
        bit = 1 << i
        if null & bit:
            out.append(0.0)
            continue
        total = 0.0
        for rest in range(1 << (n - 1)):
            s = rest + (rest & -bit)  # the bits at and above i move up by one
            total += by_mask[s] * (vals[s | bit] - vals[s])
        if not math.isfinite(total):
            raise ValueError(f"Shapley share of participant {name(i)!r} is the non-finite value {total!r}")
        out.append(total)
    return out


def shapley_allocation(ctx: CharacteristicContext) -> dict[str, float]:
    """Per-participant payoff decomposition of the context's joint action.

    Efficiency holds by construction: the payoffs sum to
    v(participants) - v(empty set), i.e. the utility gain of the full
    coalition over the all-baseline (plus fixed) outcome. Coalitions are
    valued through the model's compiled utility memo; a utility or a share
    that is not finite raises ValueError.
    """
    ids = _checked_ids(ctx.participants)
    compiled = ctx.model.compiled
    base = list(compiled.baseline)
    for cid, label in ctx.fixed.items():
        j = compiled.position[cid]
        base[j] = compiled.index[j][label]
    moves = []
    for pid in ids:
        j = compiled.position[pid]
        moves.append((j, compiled.index[j][ctx.action[pid]]))
    return dict(zip(ids, _keyed_shapley(compiled, base, moves)))

