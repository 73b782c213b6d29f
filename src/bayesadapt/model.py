"""Component-based system model and quality-weighted utility evaluation."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Iterable, Mapping

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
    the component's own action set. A model keeps its `validate_model`
    verdict and its compiled form, so it must not be mutated once checked.
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
        """Declared actions plus any attack-context labels for `cid`.

        These are the labels `cid` may play in a joint action, a utility
        rule or a reward rule. An unknown `cid` raises KeyError.
        """
        return _ordered_union(self.component(cid).actions, self.attack_actions.get(cid, ()))

    @cached_property
    def compiled(self) -> "CompiledModel":
        """Index form of this model, built on first use if it is valid; it owns the utility memo."""
        return CompiledModel(self)

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        # The one run of `validate_model` on this model, which every boundary reads.
        return tuple(validate_model(self))


class CompiledModel:
    """A SystemModel in index form, with the memo of its utilities.

    Component `ids[j]` numbers its labels (declared actions, then
    attack-context labels) as in `index[j]`, so a joint action is a tuple of
    label indices in component order. Each quality attribute becomes a
    decision list of its rules' scores ending in its default score.
    `utility` evaluates a joint action once and memoizes it. A model that
    `validate_model` rejects raises ValueError listing the violations when
    compiled, before any field is read, so every attribute has a default and
    every utility is finite. The memo lives as long as the model, so every
    game built on it, every replan and every export reads it; it refers to
    no game.
    """

    def __init__(self, model: SystemModel):
        if model._violations:
            raise ValueError("; ".join(map(str, model._violations)))
        self.ids = model.component_ids
        self.position = {cid: j for j, cid in enumerate(self.ids)}
        self.index = tuple(
            {label: a for a, label in enumerate(model.allowed_actions(cid))} for cid in self.ids
        )
        self.baseline = tuple(self.index[j][c.baseline] for j, c in enumerate(model.components))
        self.attributes = []
        for qa in model.quality_attributes:
            pairs = [(r.when, r.scores[qa.name]) for r in model.utility_rules if qa.name in r.scores]
            pairs.append(({}, model.utility_default[qa.name]))
            self.attributes.append((qa.weight, self.decision_list(pairs)))
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
        # The rule-table evaluator: each attribute's decision list, which
        # ends in its default, scores it; the weighted scores are summed in
        # attribute order, within the bound the model's check keeps finite.
        total = 0.0
        for weight, entries in self.attributes:
            total += weight * first_match(entries, key)
        return total


def _ordered_union(*groups: Iterable[str]) -> tuple[str, ...]:
    # The labels of every group in order, each kept once: first occurrence wins.
    return tuple(dict.fromkeys(itertools.chain.from_iterable(groups)))


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


def _check_joint_action(model: SystemModel, action: JointAction) -> None:
    _check_mapping(action)
    for c in model.components:
        if c.id not in action:
            raise InvalidJointActionError(c.id, f"missing action for component {c.id!r}")
    _check_labels(model, action.items())


def _check_mapping(action: object) -> None:
    # A joint action for the model is a mapping, checked before any label.
    if not isinstance(action, Mapping):
        raise ValueError(f"joint action must be a mapping keyed by component, got {type(action).__name__}")


def _check_labels(model: SystemModel, labels: Iterable[tuple[str, str]]) -> None:
    for cid, label in labels:
        fault = _label_fault(model, cid, label)
        if fault is not None:
            raise InvalidJointActionError(cid, fault[2])


def _label_fault(model: SystemModel, cid: str, label: str) -> tuple[str, str, str] | None:
    """The Violation code, subject and message if component `cid` may not play `label`, else None.

    The one label rule: `cid` is a component of `model` and `label` one of its `allowed_actions`.
    """
    try:
        if label in model.allowed_actions(cid):
            return None
    except KeyError:
        return "UnknownComponent", cid, f"unknown component {cid!r}"
    return "UnknownAction", label, f"unknown action {label!r} for component {cid!r}"


def system_utility(model: SystemModel, action: JointAction) -> float:
    """Weighted sum of per-attribute scores for a joint action.

    Each quality attribute takes its score from the first rule (declaration
    order) that matches `action` and lists that attribute; attributes no rule
    speaks for take the model's default score. Attack-context labels are
    permitted wherever the model declares them. A model that `validate_model`
    rejects raises ValueError listing the violations, before the action is read.
    """
    model.compiled  # an invalid model is rejected before the arguments
    _check_joint_action(model, action)
    return _utility(model, action)


def _utility(model: SystemModel, action: JointAction) -> float:
    # Unchecked core of `system_utility`; callers guarantee `action` fits.
    compiled = model.compiled
    return compiled.utility(compiled.key(action))


def validate_model(model: SystemModel) -> list[Violation]:
    """Check every structural invariant of a SystemModel.

    Returns an empty list iff the model is valid; violations carry a stable
    code, the offending subject and a document path. A field in the wrong
    shape (`MalformedField`, see `_shape_violations`), an id or label that
    is no string among them, is reported alone, since the other checks
    iterate or hash it. Besides structure, the weights and scores must be
    numbers (ints or floats, not bools, in the float range; `UtilityOverflow`
    at the number's path otherwise) that keep every utility and Shapley
    share finite. A model keeps its verdict, which compiling it,
    `build_game` and `ScenarioScript` read.
    """
    out = _shape_violations(model)
    if out:
        return out

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

    qa_names: dict[str, None] = {}  # in declaration order, which the messages follow
    for i, qa in enumerate(model.quality_attributes):
        path = f"quality_attributes[{i}]"
        if qa.name in qa_names:
            out.append(Violation("DuplicateQualityAttribute", qa.name, f"duplicate quality attribute {qa.name!r}", f"{path}.name"))
        qa_names[qa.name] = None

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
            fault = _label_fault(model, cid, label)
            if fault is not None:
                out.append(Violation(*fault, f"{path}.when.{cid}"))
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

    # Every weight and score is a number as a document gives one, before the
    # bound does arithmetic on it. A float always is; its finiteness is the bound's.
    numbers = [(qa.weight, qa.name, "a numeric weight", f"quality_attributes[{i}].weight")
               for i, qa in enumerate(model.quality_attributes) if type(qa.weight) is not float]
    numbers += [(x, name, "a number", f"utility_rules[{i}].scores.{name}")
                for i, rule in enumerate(model.utility_rules) for name, x in rule.scores.items()
                if type(x) is not float]
    numbers += [(x, name, "a number", f"utility_default.{name}")
                for name, x in model.utility_default.items() if type(x) is not float]
    faults = [Violation("UtilityOverflow", name, fault, path)
              for x, name, what, path in numbers if (fault := _number_fault(x, what)) is not None]
    if faults:
        return out + faults

    # |utility| <= bound and a Shapley term spans two utilities, so every
    # utility, share and expectation stays finite iff 2 * bound does. A NaN
    # score counts as infinite: max() would skip any NaN after the first.
    bound = 0.0
    for i, qa in enumerate(model.quality_attributes):
        scores = [rule.scores[qa.name] for rule in model.utility_rules if qa.name in rule.scores]
        if qa.name in model.utility_default:
            scores.append(model.utility_default[qa.name])
        bound += abs(qa.weight) * max((math.inf if math.isnan(x) else abs(x) for x in scores), default=0.0)
        if not math.isfinite(2.0 * bound):
            out.append(
                Violation("UtilityOverflow", qa.name,
                          "utility bound 2 * sum of |weight| * max |score| over the quality "
                          f"attributes up to {qa.name!r} is beyond the float range",
                          f"quality_attributes[{i}].weight")
            )
            break

    return out


def _shape_violations(model: SystemModel) -> list[Violation]:
    # Every field of `model` that a check iterates or hashes, in the shape a
    # document gives it: one `MalformedField` per field that is not, and a
    # field's items only if it is in shape. Ids, names and labels are
    # strings; a label that is only compared, such as a baseline, is
    # rejected as unknown if it is not one. A path is formatted only at a fault.
    components, attributes, rules, attack = (model.components, model.quality_attributes, model.utility_rules,
                                             model.attack_actions)
    fields = [(components, ("an array of components", _ARRAY), "components", "components", ()),
              (attributes, ("an array of quality attributes", _ARRAY), "quality_attributes", "quality_attributes", ()),
              (rules, ("an array of utility rules", _ARRAY), "utility_rules", "utility_rules", ())]
    if isinstance(components, _ARRAY):
        for i, c in enumerate(components):
            fields.append((c.id, ("a component id", str), c.id, "components[%d].id", i))
            fields.append((c.actions, _LABELS, c.id, "components[%d].actions", i))
            if isinstance(c.actions, _ARRAY):
                fields += [(a, _LABEL, a, "components[%d].actions[%d]", (i, j)) for j, a in enumerate(c.actions)]
    if isinstance(attributes, _ARRAY):
        fields += [(q.name, ("an attribute name", str), q.name, "quality_attributes[%d].name", i)
                   for i, q in enumerate(attributes)]
    if isinstance(rules, _ARRAY):
        for i, rule in enumerate(rules):
            fields.append((rule.when, _WHEN, "when", "utility_rules[%d].when", i))
            fields.append((rule.scores, ("per-attribute scores", _MAPPING), "scores", "utility_rules[%d].scores", i))
    fields.append((model.utility_default, ("per-attribute default scores", _MAPPING), "utility_default",
                   "utility_default", ()))
    fields.append((attack, ("attack labels keyed by component", _MAPPING), "attack_actions", "attack_actions", ()))
    if isinstance(attack, _MAPPING):
        for cid, labels in attack.items():
            fields.append((labels, _LABELS, cid, "attack_actions.%s", (cid,)))
            if isinstance(labels, _ARRAY):
                fields += [(a, _LABEL, a, "attack_actions.%s[%d]", (cid, j)) for j, a in enumerate(labels)]
    return [Violation("MalformedField", subject, _shape_fault(value, *shape), path % at)
            for value, shape, subject, path, at in fields if not isinstance(value, shape[1])]


# The shapes of the fields that more than one check reads, as (description,
# types): arrays come as a tuple or a list, never as a string, whose
# characters would read as labels, and a partial joint action as a mapping.
# A dict is tested before the Mapping ABC, whose own test costs more.
_ARRAY = (tuple, list)
_MAPPING = (dict, Mapping)
_LABELS = ("an array of action labels", _ARRAY)
_LABEL = ("an action label", str)
_WHEN = ("a partial joint action", _MAPPING)
_REWARD_RULES = ("an array of reward rules", _ARRAY)


def _shape_fault(value: object, what: str, kind: type | tuple[type, ...]) -> str | None:
    """Why `value` is not `what` in the shape a document gives it, or None.

    The one shape rule, for a field of a hand-built input that a check
    iterates: `value` is an instance of `kind`.
    """
    if isinstance(value, kind):
        return None
    return f"expected {what}, got {type(value).__name__}"


def _number_fault(value: object, what: str, low: float = -math.inf, high: float = math.inf) -> str | None:
    """Why `value` is not `what` as a document gives numbers, or None.

    The one number rule: an int or a float, never a bool, finite, and within [low, high], which NaN never is.
    """
    if isinstance(value, bool):
        return f"expected {what}, got a boolean"
    if not isinstance(value, (int, float)):
        return f"expected {what}, got {type(value).__name__}"
    try:
        if math.isfinite(value) and low <= value <= high:
            return None
    except OverflowError:
        return f"expected {what}, got an integer beyond the float range"
    return f"expected {what}, got {value!r}"


def _first_duplicate(items: Iterable[str]) -> str | None:
    seen: set[str] = set()
    for it in items:
        if it in seen:
            return it
        seen.add(it)
    return None
