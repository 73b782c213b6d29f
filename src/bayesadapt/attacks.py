"""Component-level attack modeling and event analysis.

The analyzer is a deterministic knowledge-base lookup: monitored events name
vulnerabilities, the knowledge base says what a reported vulnerability lets
the attacker do on which component, with what success probability and for
what reward. Events resolve against the knowledge base in one place,
`_resolve_events`, which both `analyze_attacks` and `ScenarioScript`
construction call once the field tables' walk (`model._shape_faults`) has
passed; it checks every record by `_record_faults`, and its errors carry
the scenario path of the field at fault. Records fold into an attack model
in one place, `_Fold`, one record at a time and each vulnerability once:
`analyze_attacks` folds the records it resolved, and the loop the record of
each event it delivers.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .model import (_ACTION_LABELS, _FIELDS, _KEYED, _PARTIAL_ACTION, CompiledModel, DecisionList, SystemModel,
                    Violation, _label_fault, _malformed, _number_fault, _shape_faults)

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


# The field tables of the attack side (see `model._FIELDS`).
_REWARD_RULES = ((list, RewardRule, "a reward rule object"), "an array of reward rules")
_ATTACK = (AttackModel, "an attack model")
_FIELDS[RewardRule] = (
    ("when", *_PARTIAL_ACTION),
    ("reward", float, "a numeric reward"),
)
_FIELDS[VulnerabilityRecord] = (
    ("vuln_id", str, "a vulnerability id", ""),  # the record's key, so its path is the record's
    ("component", str, "a component id"),
    ("compromise_probability", float, "a probability"),
    ("malicious_actions", *_ACTION_LABELS),
    ("reward_rules", *_REWARD_RULES),
    ("reward_default", float, "a numeric reward"),
)
_FIELDS[AttackEvent] = (
    ("time", int, "a nonnegative tick"),
    ("component", str, "a component id"),
    ("vuln_id", str, "a vulnerability id"),
)
_FIELDS[AttackModel] = (
    ("attacked", (list, str, "a component id"), "an array of component ids"),
    ("malicious_actions", (dict, *_ACTION_LABELS), "a mapping keyed by component"),
    ("probabilities", (dict, float, "a probability"), "a mapping keyed by component"),
    ("rewards", (dict, (tuple, _REWARD_RULES, (float, "a numeric reward")), "reward rules and a default reward"),
     "a mapping keyed by component"),
)
# The two rows of `ScenarioScript`'s table that the analyzer takes as its arguments, with their document paths.
_KB = ("kb", (_KEYED, VulnerabilityRecord, "a vulnerability record"), "an object keyed by vulnerability id",
       "knowledge_base.vulnerabilities")
_TIMELINE = ("timeline", (list, AttackEvent, "an attack event object"), "an array of attack events", "timeline")


def _record_faults(rec: VulnerabilityRecord) -> Iterator[tuple[str, str | None]]:
    """The one record rule: each field but the component and labels, and its fault or None.

    The record is in the shape of its field table. Lazy, so a reader that stops at the first fault reads no more.
    """
    yield "compromise_probability", _number_fault(rec.compromise_probability, "a probability", 0.0, 1.0)
    yield "malicious_actions", None if rec.malicious_actions else "at least one malicious action is required"
    for j, rule in enumerate(rec.reward_rules):
        yield f"reward_rules[{j}].reward", _number_fault(rule.reward, "a numeric reward")
    yield "reward_default", _number_fault(rec.reward_default, "a numeric reward")


def _resolve_events(events: Sequence[AttackEvent], kb: Sequence[VulnerabilityRecord],
                    model: SystemModel) -> list[VulnerabilityRecord]:
    """The record each event names, in event order: the one place where events resolve and records are checked."""
    by_id: dict[str, VulnerabilityRecord] = {}
    for rec in kb:
        path = f"knowledge_base.vulnerabilities.{rec.vuln_id}"
        if rec.vuln_id in by_id:
            raise AttackAnalysisError(f"repeated vulnerability id {rec.vuln_id!r}", path)
        for field, fault in _record_faults(rec):
            if fault is not None:
                raise AttackAnalysisError(fault, f"{path}.{field}")
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


class _Fold:
    """The attack picture of the records folded so far, one record at a time.

    The one statement of how records become an attack picture:
    `analyze_attacks` and `run_scenario` add the record of each reported
    vulnerability in report order, and the fold takes each vulnerability
    once, refusing a record whose vulnerability it holds already. Per
    component it keeps the survival product `prod(1 - p)`, a left fold from
    1.0, which gives the floats of `math.prod`; the malicious labels as an
    ordered set, first occurrence winning; the reward rules, appended; and
    the last record's default. Given a compiled model, it also keeps each
    component's reward rules compiled, each record's compiled once as it is
    added.
    """

    def __init__(self, model: SystemModel, compiled: CompiledModel | None = None):
        self.ids = tuple(dict.fromkeys(model.component_ids))
        self.compiled = compiled
        self.added: set[str] = set()  # the vulnerabilities folded
        self.survival: dict[str, float] = {}
        self.labels: dict[str, dict[str, None]] = {}  # per component, its labels as a set in order
        self.rules: dict[str, tuple[RewardRule, ...]] = {}
        self.defaults: dict[str, float] = {}
        self.entries: dict[str, DecisionList] = {}  # per component, its rules compiled

    def add(self, rec: VulnerabilityRecord) -> bool:
        """Fold in one record and return True, or return False and change
        nothing if its vulnerability is folded already."""
        if rec.vuln_id in self.added:
            return False
        self.added.add(rec.vuln_id)
        cid = rec.component
        if cid not in self.survival:
            self.survival[cid], self.labels[cid] = 1.0, {}
            self.rules[cid] = self.entries[cid] = ()
        self.survival[cid] *= 1.0 - rec.compromise_probability
        self.labels[cid].update(dict.fromkeys(rec.malicious_actions))
        if rec.reward_rules:
            self.rules[cid] += rec.reward_rules
            if self.compiled is not None:
                self.entries[cid] += self.compiled.decision_list((rule.when, rule.reward) for rule in rec.reward_rules)
        self.defaults[cid] = rec.reward_default
        return True

    def attack_model(self) -> AttackModel:
        """The attack model of the records folded so far, its components in model order."""
        attacked = tuple(cid for cid in self.ids if cid in self.survival)
        return AttackModel(
            attacked,
            {cid: tuple(self.labels[cid]) for cid in attacked},
            {cid: 1.0 - self.survival[cid] for cid in attacked},
            {cid: (self.rules[cid], self.defaults[cid]) for cid in attacked},
        )


def analyze_attacks(
    events: Sequence[AttackEvent],
    kb: Sequence[VulnerabilityRecord],
    model: SystemModel,
) -> AttackModel:
    """Fold monitored events and the knowledge base into an AttackModel.

    Per component: malicious actions are the ordered union over its reported
    vulnerabilities (first occurrence wins), the compromise probability
    combines independent exploit attempts as 1 - prod(1 - p), and reward
    rules are concatenated in report order with the last record's default.
    Re-reports of a vulnerability are idempotent. The events and records are
    walked by their rows of `ScenarioScript`'s table (`_TIMELINE` and
    `_KB`), and every record, reported or not, is checked as
    `_resolve_events` reads it; a fault raises AttackAnalysisError at its
    document path. A model that is not a SystemModel, or whose own fields
    are out of shape, raises it first, at the document's root or at the
    field's path. Labels are left to `validate_attack_model`. The checked
    records are then added to one `_Fold`, which takes each vulnerability
    once.
    """
    for violation in _malformed(model):
        raise AttackAnalysisError(violation.message, violation.path)
    for path, _value, fault in itertools.chain(_shape_faults(kb, *_KB[1:]), _shape_faults(events, *_TIMELINE[1:])):
        raise AttackAnalysisError(fault, path)
    fold = _Fold(model)
    for rec in _resolve_events(events, kb, model):
        fold.add(rec)
    return fold.attack_model()


def validate_attack_model(att: AttackModel, model: SystemModel) -> list[Violation]:
    """Check AttackModel invariants against a system model.

    A value out of its row of the field tables (`_FIELDS[AttackModel]`
    down), anything but an AttackModel included, is a `MalformedField` whose
    subject is the value, and so is a `model` that is not a SystemModel, at
    the root, or whose own fields are out of shape, at each field's path;
    these are reported alone. Then
    `model.allowed_actions` must admit every malicious action and
    every reward-rule label, every probability must be a number in [0, 1]
    and every reward a finite number, where a number is an int or a float,
    not a bool, in the float range.
    """
    out = [Violation("MalformedField", value, fault, path) for path, value, fault in _shape_faults(att, *_ATTACK)]
    out += _malformed(model)
    if out:
        return out
    mappings = (("malicious_actions", att.malicious_actions), ("probabilities", att.probabilities),
                ("rewards", att.rewards))
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
        if not labels:
            out.append(Violation("EmptyMaliciousActions", cid, f"no malicious actions for {cid!r}", f"malicious_actions.{cid}"))
        elif cid in known:
            for j, label in enumerate(labels):
                fault = _label_fault(model, cid, label)
                if fault is not None:
                    out.append(Violation(*fault, f"malicious_actions.{cid}[{j}]"))

    for cid, (rules, default) in att.rewards.items():
        for i, rule in enumerate(rules):
            path = f"rewards.{cid}[{i}]"
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
    merged: dict[str, dict[str, None]] = {}
    for rec in kb:
        merged.setdefault(rec.component, {}).update(dict.fromkeys(rec.malicious_actions))
    return {cid: tuple(labels) for cid, labels in merged.items()}
