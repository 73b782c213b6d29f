"""Shapley-value decomposition of system utility into per-component payoffs.

One fold computes every Shapley value in the package: the subset formula
for one participant over integer bit masks of the others, with one
participant limit, `SUBSET_PARTICIPANT_LIMIT`. Its one kernel, `_fold`, is
handed positions only: it reads the coalition values out of a list by
position, builds the other participants' coalitions from one empty
coalition by ascending mask and sums w(S) * (v(S + move) - v(S)) over them
for each of the participant's moves, a left fold from 0.0, with the weights
it reads itself from `_weights`, which takes them by popcount and keeps one
table per participant count for the process (at the limit, 2^19
references, about 4 MB). `_fold` has two callers. One is a model-backed
game's fiber writer (`game.CompiledGame._pay_fiber`), which pays Normal
players only and hands it the type profile's utilities for one player's
actions with the others fixed; the game's column writer
(`game.CompiledGame._pay_column`) pays a Normal player's column through
it, one unpaid fiber at a time. A Malicious player is paid no share: its
column is paid from its reward rules when its type profile opens. The other is
`_share`, which folds one participant's value from coalition values by
mask, for `shapley_values`, which values an arbitrary characteristic
function, and for the keyed routes, `shapley_allocation` and a model-backed
game's lone payoff read (`game.CompiledGame.lone`), whose coalition values
`_keyed` looks up by joint-action key in the compiled model's memo, of a
model checked when compiled, so finite. The writer and the keyed routes
hand it the same values, so the same floats. `shapley_values` rejects a
coalition value that is not finite with `ValueError`, and so a share that
is not: a difference of two finite values near the float limit can
overflow. The independent oracles that check this kernel live with the
tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .model import (CompiledModel, SystemModel, _check_labels, _check_mapping, _model_fault, _number_fault,
                    system_utility)

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
    coalitions without further checks. A `model` that is not a SystemModel,
    `participants` given as one string or as a one-shot iterator, which the
    checks would use up, and a `fixed` that is not a mapping raise
    ValueError.
    """

    model: SystemModel
    action: dict[str, str]
    participants: tuple[str, ...]
    fixed: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        fault = _model_fault(self.model)
        if fault is not None:
            raise ValueError(fault)
        _check_mapping(self.action)
        _reject_string(self.participants)
        if isinstance(self.participants, Iterator):
            raise ValueError(f"participants must be a sequence of ids, not a one-shot "
                             f"{type(self.participants).__name__}")
        if not isinstance(self.fixed, Mapping):
            raise ValueError(f"fixed must be a mapping keyed by component, got {type(self.fixed).__name__}")
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
    components keep their fixed label, everyone else plays baseline. A
    string is rejected, not read as a coalition of its characters.
    """
    if isinstance(coalition, str):
        raise ValueError(f"coalition must be a collection of ids, not the string {coalition!r}")
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
    is not an int or a float (or is a bool, or an int beyond the float
    range), or is NaN or infinite, raises ValueError naming its coalition,
    and a share that is not finite raises ValueError naming its participant.
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
        x = value(s)
        fault = _number_fault(x, "a number")
        if fault is not None:
            # a float's only fault is that it is not finite
            what, why = (f"the non-finite value {x!r}", "") if isinstance(x, float) else ("a value", f": {fault}")
            raise ValueError(f"characteristic function gave coalition {sorted(s)} {what}{why}")
        vals.append(float(x))
    bits = [1 << j for j in range(len(ids))]
    return {pid: _share(vals, bits, j, pid) for j, pid in enumerate(ids)}


def _reject_string(participants: object) -> None:
    # A string is no sequence of ids, though it would iterate as one of its characters.
    if isinstance(participants, str):
        raise ValueError(f"participants must be a sequence of ids, not the string {participants!r}")


def _checked_ids(participants: Sequence[str]) -> list[str]:
    # The only check of the participant limit: `shapley_values`,
    # `shapley_allocation` and every model-backed game go through it.
    _reject_string(participants)
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


def _keyed(compiled: CompiledModel, base: list[int], moves: Sequence[tuple[int, int]]) -> tuple[list[float], list[int]]:
    # The coalition values and each participant's delta for the participants
    # that `moves` lists, in order, as (position, label index) on the
    # compiled model: the coalition of a mask plays `base` with each
    # member's position set to its label. Without participants no coalition
    # is valued. A participant whose label is already its position's in
    # `base` is a null player, of delta 0: only the 2^active keys of the
    # others are built and looked up, once each, and an active participant's
    # delta is its bit among them.
    if not moves:
        return [], []
    keys = [tuple(base)]  # keys[mask] over the active participants
    deltas = []
    for j, a in moves:
        if a == base[j]:
            deltas.append(0)
            continue
        deltas.append(len(keys))
        a = (a,)
        keys += [k[:j] + a + k[j + 1 :] for k in keys]
    return list(map(compiled.utility, keys)), deltas


def _share(values: Sequence[float], deltas: Sequence[int], i: int, name: str) -> float:
    # Participant i's Shapley value from coalition values by mask, where
    # participant j adds deltas[j]: the one `_fold` call of the keyed routes
    # and of `shapley_values`.
    return _fold(values, 0, deltas[:i] + deltas[i + 1 :], (deltas[i],), name)[0]


def _fold(utils: Sequence[float], start: int, others: Sequence[int], moves: Sequence[int], name: str) -> list[float]:
    # One participant's Shapley value for each of its moves, by the subset
    # formula, from values read out of `utils` by position: the empty
    # coalition's is at `start`, each other participant j adds others[j],
    # and the participant adds its move. The others' coalitions S are built
    # once, by ascending mask, and each move sums w(S) * (v(S + move) -
    # v(S)) over them in that order, a left fold, with the weights of
    # `_weights(len(others) + 1)`, so a share's bits do not depend on its
    # route. A move of 0 is a null player's: it gets 0.0 without a sum,
    # exact as every value is finite, so each term is w * 0.0. An other
    # participant's 0 only repeats its coalitions, which keep their
    # weights. A share that is not finite raises ValueError naming `name`.
    if not any(moves):
        return [0.0] * len(moves)
    positions = [start]
    for d in others:
        positions += [p + d for p in positions] if d else positions
    weights = _weights(len(others) + 1)
    out = []
    for d in moves:
        if not d:
            out.append(0.0)
            continue
        total = 0.0
        for w, p in zip(weights, positions):
            total += w * (utils[p + d] - utils[p])
        if not math.isfinite(total):
            raise ValueError(f"Shapley share of participant {name!r} is the non-finite value {total!r}")
        out.append(total)
    return out


@functools.cache
def _weights(n: int) -> list[float]:
    # Per mask S over the other n-1 of n participants, the subset formula's
    # weight |S|!(n-|S|-1)!/n!, taken by popcount; the same for every
    # participant of n, so it is built once per n and kept for the process,
    # at most 2^19 entries. Callers only read it.
    fact = [1.0] * (n + 1)
    for k in range(1, n + 1):
        fact[k] = fact[k - 1] * k
    weight = [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)]
    return [weight[rest.bit_count()] for rest in range(1 << (n - 1))]


def shapley_allocation(ctx: CharacteristicContext) -> dict[str, float]:
    """Per-participant payoff decomposition of the context's joint action.

    Efficiency holds by construction: the payoffs sum to
    v(participants) - v(empty set), i.e. the utility gain of the full
    coalition over the all-baseline (plus fixed) outcome. Coalitions are
    valued through the model's compiled utility memo; a model that
    `validate_model` rejects raises ValueError listing its violations.
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
    values, deltas = _keyed(compiled, base, moves)
    return {pid: _share(values, deltas, i, pid) for i, pid in enumerate(ids)}

