"""Component-based system model and quality-weighted utility evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

__all__ = [
    "CompiledModel",
    "Component",
    "QualityAttribute",
    "UtilityRule",
    "SystemModel",
    "Violation",
    "InvalidJointActionError",
    "baseline_action",
    "first_match",
    "rule_matches",
    "system_utility",
    "validate_model",
]

# A joint action is a plain mapping: component id -> action label, covering
# every component of the model exactly once.
JointAction = Mapping[str, str]

# A compiled first-match decision list: `(((position, label index), ...),
# value)` entries, see `CompiledModel.decision_list`.
DecisionList = tuple[tuple[tuple[tuple[int, int], ...], float], ...]


class InvalidJointActionError(ValueError):
    """A joint action does not fit the model (coverage or unknown label)."""

    def __init__(self, component: str, message: str):
        self.component = component
        super().__init__(message)


@dataclass(frozen=True)
class Component:
    """An independently acting part of the system.

    `actions` is the ordered set of behaviors the component can choose from
    while uncompromised; `baseline` is the action it takes by default.
    """

    id: str
    actions: tuple[str, ...]
    baseline: str


@dataclass(frozen=True)
class QualityAttribute:
    """A named system concern with a weight used in utility aggregation."""

    name: str
    weight: float


@dataclass(frozen=True)
class UtilityRule:
    """Scores some quality attributes whenever `when` matches the joint action.

    `when` is a partial assignment; the rule matches a joint action iff every
    listed component plays the listed label. `scores` covers only the
    attributes this rule speaks for; other attributes fall through to later
    rules or the per-attribute default.
    """

    when: dict[str, str]
    scores: dict[str, float]


@dataclass(frozen=True)
class SystemModel:
    """The managed system: components, quality attributes and a utility table.

    `utility_rules` is consulted in declaration order with first match wins,
    independently per quality attribute. `attack_actions` lists labels a
    component may additionally play while compromised; such labels are
    admissible in rules and joint actions even though they are not part of
    the component's own action set.
    """

    components: tuple[Component, ...]
    quality_attributes: tuple[QualityAttribute, ...]
    utility_rules: tuple[UtilityRule, ...] = ()
    utility_default: dict[str, float] = field(default_factory=dict)
    attack_actions: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def component(self, cid: str) -> Component:
        for c in self.components:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def allowed_actions(self, cid: str) -> tuple[str, ...]:
        """Declared actions plus any attack-context labels for `cid`."""
        c = self.component(cid)
        extra = tuple(a for a in self.attack_actions.get(cid, ()) if a not in c.actions)
        return c.actions + extra

    @cached_property
    def compiled(self) -> "CompiledModel":
        """Index form of this model, built on first use; it owns the utility memo."""
        return CompiledModel(self)


class CompiledModel:
    """A SystemModel in index form, with the memo of its utilities.

    Component `ids[j]` numbers its labels (declared actions, then
    attack-context labels) as in `index[j]`, so a joint action is a tuple of
    label indices in component order. Each quality attribute becomes a
    decision list of its rules' scores ending in its default score.
    `utility` evaluates a joint action once and memoizes it.
    """

    def __init__(self, model: SystemModel):
        self.ids = model.component_ids
        self.position = {cid: j for j, cid in enumerate(self.ids)}
        self.index = tuple(
            {label: a for a, label in enumerate(model.allowed_actions(cid))} for cid in self.ids
        )
        # None only for an undeclared baseline of a hand-built model, which
        # every CharacteristicContext rejects before a coalition can use it.
        self.baseline = tuple(
            self.index[j].get(c.baseline) for j, c in enumerate(model.components)
        )
        self.attributes = []
        for qa in model.quality_attributes:
            pairs = [(r.when, r.scores[qa.name]) for r in model.utility_rules if qa.name in r.scores]
            if qa.name in model.utility_default:
                pairs.append(({}, model.utility_default[qa.name]))
            self.attributes.append((qa.weight, self.decision_list(pairs), qa.name))
        self.utilities: dict[tuple[int, ...], float] = {}

    def decision_list(self, pairs: Iterable[tuple[Mapping[str, str], float]]) -> DecisionList:
        """`(when, value)` pairs, in order, as entries for `first_match`.

        Each `when`, a partial joint action, becomes `(position, label
        index)` conditions with the value as a float. A pair that names an
        unknown component or label can never match and is left out.
        """
        entries = []
        for when, value in pairs:
            conds = []
            for cid, label in when.items():
                j = self.position.get(cid)
                a = None if j is None else self.index[j].get(label)
                if a is None:
                    break
                conds.append((j, a))
            else:
                entries.append((tuple(conds), float(value)))
        return tuple(entries)

    def key(self, action: JointAction) -> tuple[int, ...]:
        """Index tuple of a joint action whose labels this model knows."""
        return tuple(self.index[j][action[cid]] for j, cid in enumerate(self.ids))

    def utility(self, key: tuple[int, ...]) -> float:
        """System utility of a joint-action index tuple, memoized."""
        got = self.utilities.get(key)
        if got is None:
            got = self.utilities[key] = self._evaluate(key)
        return got

    def _evaluate(self, key: tuple[int, ...]) -> float:
        # The rule-table evaluator: each attribute's decision list scores
        # it; the weighted scores are summed in attribute order.
        total = 0.0
        for weight, entries, name in self.attributes:
            score = first_match(entries, key)
            if score is None:
                raise KeyError(name)
            total += weight * score
        return total


def first_match(entries: DecisionList, key: tuple[int, ...]) -> float | None:
    """Value of the first entry whose conditions all hold in `key`, else None."""
    # A plain loop: an all() over a generator costs about six times as much.
    for conds, value in entries:
        for j, a in conds:
            if key[j] != a:
                break
        else:
            return value
    return None


@dataclass(frozen=True)
class Violation:
    """A single invariant violation found by a validator."""

    code: str
    subject: str
    message: str
    path: str = ""

    def __str__(self) -> str:
        loc = f" [{self.path}]" if self.path else ""
        return f"{self.code}({self.subject!r}): {self.message}{loc}"


def baseline_action(model: SystemModel) -> dict[str, str]:
    """The joint action where every component plays its baseline."""
    return {c.id: c.baseline for c in model.components}


def rule_matches(when: Mapping[str, str], action: JointAction) -> bool:
    return all(action.get(cid) == label for cid, label in when.items())


def _check_joint_action(model: SystemModel, action: JointAction) -> None:
    for c in model.components:
        if c.id not in action:
            raise InvalidJointActionError(c.id, f"missing action for component {c.id!r}")
    _check_labels(model, action.items())


def _check_labels(model: SystemModel, labels: Iterable[tuple[str, str]]) -> None:
    declared = {c.id: c.actions for c in model.components}
    for cid, label in labels:
        actions = declared.get(cid)
        if actions is None:
            raise InvalidJointActionError(cid, f"unknown component {cid!r} in joint action")
        if label not in actions and label not in model.attack_actions.get(cid, ()):
            raise InvalidJointActionError(
                cid, f"unknown action {label!r} for component {cid!r}"
            )


def system_utility(model: SystemModel, action: JointAction) -> float:
    """Weighted sum of per-attribute scores for a joint action.

    Each quality attribute takes its score from the first rule (declaration
    order) that matches `action` and lists that attribute; attributes no rule
    speaks for take the model's default score. Attack-context labels are
    permitted wherever the model declares them.
    """
    _check_joint_action(model, action)
    return _utility(model, action)


def _utility(model: SystemModel, action: JointAction) -> float:
    # Unchecked core of `system_utility`; callers guarantee `action` fits.
    compiled = model.compiled
    return compiled.utility(compiled.key(action))


def validate_model(model: SystemModel) -> list[Violation]:
    """Check every structural invariant of a SystemModel.

    Returns an empty list iff the model is valid; violations carry a stable
    code, the offending subject and a document path. Besides structure, the
    weights and scores must keep every utility and Shapley share finite.
    """
    out: list[Violation] = []

    if not model.components:
        out.append(Violation("EmptyComponentList", "components", "empty component list", "components"))
    if not model.quality_attributes:
        out.append(
            Violation("EmptyQualityAttributes", "quality_attributes",
                      "at least one quality attribute is required", "quality_attributes")
        )

    seen_ids: set[str] = set()
    for i, c in enumerate(model.components):
        path = f"components[{i}]"
        if not c.id:
            out.append(Violation("EmptyComponentId", c.id, "component id must be nonempty", f"{path}.id"))
        if c.id in seen_ids:
            out.append(Violation("DuplicateComponentId", c.id, f"duplicate component id {c.id!r}", f"{path}.id"))
        seen_ids.add(c.id)
        if not c.actions:
            out.append(Violation("EmptyActionList", c.id, f"component {c.id!r} has no actions", f"{path}.actions"))
        dup = _first_duplicate(c.actions)
        if dup is not None:
            out.append(Violation("DuplicateAction", c.id, f"duplicate action {dup!r} in component {c.id!r}", f"{path}.actions"))
        if c.actions and c.baseline not in c.actions:
            out.append(
                Violation("BaselineNotInActions", c.id,
                          f"baseline {c.baseline!r} of component {c.id!r} is not a declared action",
                          f"{path}.baseline")
            )

    qa_names: set[str] = set()
    for i, qa in enumerate(model.quality_attributes):
        path = f"quality_attributes[{i}]"
        if qa.name in qa_names:
            out.append(Violation("DuplicateQualityAttribute", qa.name, f"duplicate quality attribute {qa.name!r}", f"{path}.name"))
        qa_names.add(qa.name)

    for name in qa_names:
        if name not in model.utility_default:
            out.append(
                Violation("MissingDefaultScore", name,
                          f"utility_default does not cover quality attribute {name!r}", "utility_default")
            )
    for name in model.utility_default:
        if name not in qa_names:
            out.append(
                Violation("UnknownQualityAttribute", name,
                          f"utility_default scores unknown quality attribute {name!r}", f"utility_default.{name}")
            )

    for i, rule in enumerate(model.utility_rules):
        path = f"utility_rules[{i}]"
        for cid, label in rule.when.items():
            if cid not in seen_ids:
                out.append(Violation("UnknownComponent", cid, f"rule references unknown component {cid!r}", f"{path}.when.{cid}"))
                continue
            comp = model.component(cid)
            if label not in comp.actions and label not in model.attack_actions.get(cid, ()):
                out.append(
                    Violation("UnknownAction", label,
                              f"rule requires unknown action {label!r} of component {cid!r}", f"{path}.when.{cid}")
                )
        for name in rule.scores:
            if name not in qa_names:
                out.append(
                    Violation("UnknownQualityAttribute", name,
                              f"rule scores unknown quality attribute {name!r}", f"{path}.scores.{name}")
                )

    for cid in model.attack_actions:
        if cid not in seen_ids:
            out.append(
                Violation("UnknownComponent", cid,
                          f"attack actions declared for unknown component {cid!r}", f"attack_actions.{cid}")
            )

    # |utility| <= bound and a Shapley term spans two utilities, so every
    # utility, share and expectation stays finite iff 2 * bound does.
    bound = 0.0
    for i, qa in enumerate(model.quality_attributes):
        scores = [rule.scores[qa.name] for rule in model.utility_rules if qa.name in rule.scores]
        if qa.name in model.utility_default:
            scores.append(model.utility_default[qa.name])
        bound += abs(qa.weight) * max(map(abs, scores), default=0.0)
        if not math.isfinite(2.0 * bound):
            out.append(
                Violation("UtilityOverflow", qa.name,
                          "utility bound 2 * sum of |weight| * max |score| over the quality "
                          f"attributes up to {qa.name!r} is beyond the float range",
                          f"quality_attributes[{i}].weight")
            )
            break

    return out


def _first_duplicate(items: Iterable[str]) -> str | None:
    seen: set[str] = set()
    for it in items:
        if it in seen:
            return it
        seen.add(it)
    return None
