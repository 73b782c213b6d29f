"""Component-level attack modeling and event analysis.

The analyzer is a deterministic knowledge-base lookup: monitored events name
vulnerabilities, the knowledge base says what a triggered vulnerability lets
the attacker do on which component, with what success probability and for
what reward. Events resolve against the knowledge base in one place,
`_resolve_events`, which both `analyze_attacks` and `ScenarioScript`
construction call; its errors carry the scenario path of the field at fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import (_ARRAY, _LABELS, _MAPPING, _REWARD_RULES, _WHEN, SystemModel, Violation, _label_fault,
                    _number_fault, _ordered_union, _shape_fault)

__all__ = [
    "RewardRule",
    "VulnerabilityRecord",
    "AttackEvent",
    "AttackModel",
    "UnknownVulnerabilityError",
    "AttackAnalysisError",
    "analyze_attacks",
    "knowledge_base_actions",
    "validate_attack_model",
]


class AttackAnalysisError(ValueError):
    """Events the analyzer cannot resolve; `path` names the scenario field at fault."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(message)


class UnknownVulnerabilityError(AttackAnalysisError):
    def __init__(self, vuln_id: str, path: str = ""):
        self.vuln_id = vuln_id
        super().__init__(f"unknown vulnerability {vuln_id!r}", path)


@dataclass(frozen=True)
class RewardRule:
    """Attacker reward granted when `when` matches the joint action."""

    when: dict[str, str]
    reward: float


@dataclass(frozen=True)
class VulnerabilityRecord:
    """Knowledge-base entry: what exploiting one vulnerability enables.

    `malicious_actions` may overlap the component's normal actions (an
    attacker can mimic normal behavior); `compromise_probability` is the
    chance one exploit attempt succeeds.
    """

    vuln_id: str
    component: str
    compromise_probability: float
    malicious_actions: tuple[str, ...]
    reward_rules: tuple[RewardRule, ...] = ()
    reward_default: float = 0.0


@dataclass(frozen=True)
class AttackEvent:
    """A monitored exploit attempt at a discrete tick."""

    time: int
    component: str
    vuln_id: str


@dataclass(frozen=True)
class AttackModel:
    """Aggregate of the on-going attacks, keyed by attacked component.

    `rewards` maps each attacked component to its ordered reward rules plus
    the fallback reward used when no rule matches.
    """

    attacked: tuple[str, ...]
    malicious_actions: dict[str, tuple[str, ...]]
    probabilities: dict[str, float]
    rewards: dict[str, tuple[tuple[RewardRule, ...], float]]

    @classmethod
    def empty(cls) -> "AttackModel":
        return cls((), {}, {}, {})


def _resolve_events(events: Sequence[AttackEvent], kb: Sequence[VulnerabilityRecord],
                    model: SystemModel) -> list[VulnerabilityRecord]:
    """The record each event names, in event order: the one place where events resolve."""
    by_id: dict[str, VulnerabilityRecord] = {}
    for rec in kb:
        if rec.vuln_id in by_id:
            raise AttackAnalysisError(f"repeated vulnerability id {rec.vuln_id!r}",
                                      f"knowledge_base.vulnerabilities.{rec.vuln_id}")
        by_id[rec.vuln_id] = rec
    known = set(model.component_ids)
    resolved: list[VulnerabilityRecord] = []
    for i, ev in enumerate(events):
        if ev.component not in known:
            raise AttackAnalysisError(f"unknown component {ev.component!r}", f"timeline[{i}].component")
        rec = by_id.get(ev.vuln_id)
        if rec is None:
            raise UnknownVulnerabilityError(ev.vuln_id, f"timeline[{i}].vuln_id")
        if rec.component != ev.component:
            raise AttackAnalysisError(
                f"event component {ev.component!r} does not match vulnerability {ev.vuln_id!r} "
                f"(declared for {rec.component!r})", f"timeline[{i}].component"
            )
        resolved.append(rec)
    return resolved


def analyze_attacks(
    events: Sequence[AttackEvent],
    kb: Sequence[VulnerabilityRecord],
    model: SystemModel,
) -> AttackModel:
    """Fold monitored events and the knowledge base into an AttackModel.

    Per component: malicious actions are the ordered union over its triggered
    vulnerabilities (first occurrence wins), the compromise probability
    combines independent exploit attempts as 1 - prod(1 - p), and reward
    rules are concatenated in trigger order with the last record's default.
    Re-reports of an already triggered vulnerability are idempotent. A
    folded record whose malicious actions are not a tuple or list, or whose
    probability is not a number in [0, 1], raises AttackAnalysisError at its
    path; labels are left to `validate_attack_model`.
    """
    triggered: dict[str, dict[str, VulnerabilityRecord]] = {}
    for rec in _resolve_events(events, kb, model):
        triggered.setdefault(rec.component, {}).setdefault(rec.vuln_id, rec)

    # Attacked set in model declaration order, so downstream structures are
    # stable regardless of event arrival order.
    attacked = tuple(cid for cid in model.component_ids if cid in triggered)
    actions: dict[str, tuple[str, ...]] = {}
    probabilities: dict[str, float] = {}
    rewards: dict[str, tuple[tuple[RewardRule, ...], float]] = {}
    for cid in attacked:
        recs = list(triggered[cid].values())
        survive = 1.0
        for rec in recs:
            path = f"knowledge_base.vulnerabilities.{rec.vuln_id}"
            fault = _shape_fault(rec.malicious_actions, *_LABELS)
            if fault is not None:
                raise AttackAnalysisError(fault, f"{path}.malicious_actions")
            fault = _number_fault(rec.compromise_probability, "a probability", 0.0, 1.0)
            if fault is not None:
                raise AttackAnalysisError(fault, f"{path}.compromise_probability")
            survive *= 1.0 - rec.compromise_probability
        actions[cid] = _ordered_union(*(rec.malicious_actions for rec in recs))
        probabilities[cid] = 1.0 - survive
        rules: list[RewardRule] = []
        for rec in recs:
            rules.extend(rec.reward_rules)
        rewards[cid] = (tuple(rules), recs[-1].reward_default)

    return AttackModel(attacked, actions, probabilities, rewards)


def validate_attack_model(att: AttackModel, model: SystemModel) -> list[Violation]:
    """Check AttackModel invariants against a system model.

    `attacked` must be a tuple or list of string ids, every other field a
    mapping, each reward entry a pair of a tuple or list of rules and a
    default, each component's malicious actions a tuple or list and each
    reward rule's `when` a mapping (one `MalformedField` at its path
    otherwise, and the field is not read), `model.allowed_actions` must
    admit every malicious action and every reward-rule label, every
    probability must be a number in [0, 1] and every reward a finite
    number, where a number is an int or a float, not a bool, in the float
    range.
    """
    mappings = (("malicious_actions", att.malicious_actions), ("probabilities", att.probabilities),
                ("rewards", att.rewards))
    shapes = [(att.attacked, ("an array of component ids", _ARRAY), "attacked", "attacked")]
    shapes += [(mapping, ("a mapping keyed by component", _MAPPING), label, label) for label, mapping in mappings]
    rewards = att.rewards.items() if isinstance(att.rewards, _MAPPING) else ()
    shapes += [(entry, ("reward rules and a default reward", _ARRAY), cid, f"rewards.{cid}") for cid, entry in rewards]
    shapes += [(entry[0], _REWARD_RULES, cid, f"rewards.{cid}") for cid, entry in rewards
               if isinstance(entry, _ARRAY) and entry]
    out = [Violation("MalformedField", subject, _shape_fault(value, *shape), path)
           for value, shape, subject, path in shapes if not isinstance(value, shape[1])]
    if out:
        return out
    for cid in att.attacked:
        if not isinstance(cid, str):  # the checks below hash every attacked id
            return [Violation("UnknownComponent", cid, f"expected a component id, got {type(cid).__name__}",
                              "attacked")]
    known = set(model.component_ids)

    seen: set[str] = set()
    for cid in att.attacked:
        if cid in seen:
            out.append(Violation("DuplicateAttackedComponent", cid, f"component {cid!r} attacked twice", "attacked"))
        seen.add(cid)
        if cid not in known:
            out.append(Violation("UnknownComponent", cid, f"attacked component {cid!r} not in model", "attacked"))

    for label, mapping in mappings:
        for cid in att.attacked:
            if cid not in mapping:
                out.append(Violation("MissingAttackEntry", cid, f"{label} misses attacked component {cid!r}", label))
        for cid in mapping:
            if cid not in seen:
                out.append(Violation("UnexpectedAttackEntry", cid, f"{label} keyed by non-attacked component {cid!r}", label))

    for cid, p in att.probabilities.items():
        fault = _number_fault(p, "a probability", 0.0, 1.0)
        if fault is not None:
            out.append(Violation("ProbabilityOutOfRange", cid, fault, f"probabilities.{cid}"))

    for cid, labels in att.malicious_actions.items():
        fault = _shape_fault(labels, *_LABELS)
        if fault is not None:
            out.append(Violation("MalformedField", cid, fault, f"malicious_actions.{cid}"))
        elif not labels:
            out.append(Violation("EmptyMaliciousActions", cid, f"no malicious actions for {cid!r}", f"malicious_actions.{cid}"))
        elif cid in known:
            for j, label in enumerate(labels):
                fault = _label_fault(model, cid, label)
                if fault is not None:
                    out.append(Violation(*fault, f"malicious_actions.{cid}[{j}]"))

    for cid, (rules, default) in att.rewards.items():
        for i, rule in enumerate(rules):
            path = f"rewards.{cid}[{i}]"
            fault = _shape_fault(rule.when, *_WHEN)
            if fault is not None:
                out.append(Violation("MalformedField", cid, fault, f"{path}.when"))
            else:
                for rcid, label in rule.when.items():
                    fault = _label_fault(model, rcid, label)
                    if fault is not None:
                        out.append(Violation(*fault, path))
            fault = _number_fault(rule.reward, "a numeric reward")
            if fault is not None:
                out.append(Violation("NonFiniteReward", cid, fault, path))
        fault = _number_fault(default, "a numeric reward")
        if fault is not None:
            out.append(Violation("NonFiniteReward", cid, fault, f"rewards.{cid}"))

    return out


def knowledge_base_actions(kb: Sequence[VulnerabilityRecord]) -> dict[str, tuple[str, ...]]:
    """Every record's malicious actions per component, first occurrence wins."""
    merged: dict[str, tuple[str, ...]] = {}
    for rec in kb:
        merged[rec.component] = _ordered_union(merged.get(rec.component, ()), rec.malicious_actions)
    return merged
