"""Shapley-value decomposition of system utility into per-component payoffs.

Two independent computation routes are provided on purpose: the
subset-enumeration formula (`shapley_values`) and the permutation average
(`permutation_shapley_values`). They must agree; the permutation route is
the verification oracle for the formula route.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .model import CompiledModel, SystemModel, _check_labels, system_utility

__all__ = [
    "CharacteristicContext",
    "coalition_value",
    "shapley_allocation",
    "shapley_by_permutations",
    "shapley_values",
    "permutation_shapley_values",
    "SUBSET_PARTICIPANT_LIMIT",
    "PERMUTATION_PARTICIPANT_LIMIT",
]

# Subset enumeration is 2^n; permutation enumeration is n!.
SUBSET_PARTICIPANT_LIMIT = 20
PERMUTATION_PARTICIPANT_LIMIT = 8

CharacteristicFunction = Callable[[frozenset[str]], float]


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
    summation order is fixed so results are bit-reproducible.
    """
    ids = _checked_ids(participants, SUBSET_PARTICIPANT_LIMIT)
    if not ids:
        return {}
    # coalitions[mask] holds participant j iff bit j of mask is set
    coalitions = [frozenset()]
    for pid in ids:
        coalitions += [s | {pid} for s in coalitions]
    return dict(zip(ids, _subset_shapley(len(ids), [float(value(s)) for s in coalitions])))


def _checked_ids(participants: Sequence[str], limit: int) -> list[str]:
    ids = list(participants)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate participant ids")
    if len(ids) > limit:
        raise ValueError(f"participant limit exceeded: {len(ids)} > {limit}")
    return ids


def _subset_shapley(n: int, vals: list[float], null: int = 0) -> list[float]:
    # Shapley values from vals[mask], the value of the coalition of the
    # participants whose bits are set. Per participant i, the other
    # participants' coalitions S are visited as the ascending (n-1)-bit masks
    # `rest`, each widened to n bits by a 0 at bit i, and
    # weight(|S|) * (v(S + i) - v(S)) is added in that order. The
    # participants whose bits are set in `null` get 0.0 without a sum; the
    # caller guarantees their every term is w * 0.0.
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
        out.append(total)
    return out


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
    # already its position's in `base` is a null player: its bit never
    # changes a key, so only the keys of the others are built and looked up.
    if not moves:
        return []
    keys = [tuple(base)]  # keys[mask] over the non-null participants
    null = 0
    for i, (j, a) in enumerate(moves):
        if a == base[j]:
            null |= 1 << i
            continue
        a = (a,)
        keys += [k[:j] + a + k[j + 1 :] for k in keys]
    utility = compiled.utility
    vals = [utility(k) for k in keys]
    skip = null
    if null and not all(map(math.isfinite, vals)):
        skip = 0  # inf - inf is NaN, not 0.0: a null player's sum must run
    # Widen to vals[mask] over every participant: null bit i repeats each
    # block of the 2^i values of the lower bits.
    size = 1
    for i in range(len(moves)):
        if null >> i & 1:
            vals = list(itertools.chain.from_iterable(
                vals[b : b + size] * 2 for b in range(0, len(vals), size)
            ))
        size *= 2
    return _subset_shapley(len(moves), vals, skip)


def permutation_shapley_values(participants: Sequence[str], value: CharacteristicFunction) -> dict[str, float]:
    """Shapley payoffs by averaging marginal contributions over all n! orders.

    Independent of `shapley_values`; kept deliberately naive so it can serve
    as an oracle for the formula route.
    """
    ids = _checked_ids(participants, PERMUTATION_PARTICIPANT_LIMIT)
    if not ids:
        return {}

    cache: dict[frozenset[str], float] = {}

    def v(s: frozenset[str]) -> float:
        got = cache.get(s)
        if got is None:
            got = cache[s] = float(value(s))
        return got

    totals = {pid: 0.0 for pid in ids}
    count = 0
    for order in itertools.permutations(ids):
        joined: frozenset[str] = frozenset()
        for pid in order:
            grown = joined | {pid}
            totals[pid] += v(grown) - v(joined)
            joined = grown
        count += 1
    return {pid: totals[pid] / count for pid in ids}


def shapley_allocation(ctx: CharacteristicContext) -> dict[str, float]:
    """Per-participant payoff decomposition of the context's joint action.

    Efficiency holds by construction: the payoffs sum to
    v(participants) - v(empty set), i.e. the utility gain of the full
    coalition over the all-baseline (plus fixed) outcome. Coalitions are
    valued through the model's compiled utility memo.
    """
    ids = _checked_ids(ctx.participants, SUBSET_PARTICIPANT_LIMIT)
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


def shapley_by_permutations(ctx: CharacteristicContext) -> dict[str, float]:
    """Oracle-route allocation; must agree with `shapley_allocation`."""
    return permutation_shapley_values(ctx.participants, lambda s: coalition_value(ctx, s))
