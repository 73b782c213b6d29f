"""Component-based system model and quality-weighted utility evaluation."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Iterable, Iterator, Mapping, Sequence

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

    @cached_property
    def _labels(self) -> dict[str, frozenset[str]]:
        # Each component's `allowed_actions` as a set, which the one label
        # rule reads; the first component of an id wins, as in `component`.
        labels: dict[str, frozenset[str]] = {}
        for c in self.components:
            labels.setdefault(c.id, frozenset(c.actions).union(self.attack_actions.get(c.id, ())))
        return labels


# The field tables: `_FIELDS[cls]` holds one `(name, shape, description[,
# path])` row per field of the input dataclass `cls`, in field order. The
# parser (`scenario`) reads a document by them and `_shape_faults` reads a
# built object's attributes by them. A shape is
#   str, int              a string; an int exactly, which a bool is not;
#   float                 a number, which `_number_fault` checks with its range;
#   a class               one object of that class, read by its own table;
#   (list, shape, d)      an array of items in `shape`, each described by `d`;
#   (dict, shape, d)      a mapping keyed by data, of values in `shape`;
#   (_KEYED, cls, d)      objects of `cls` keyed by their first field: in a
#                         document an object keyed by data, built as an array;
#   (tuple, (shape, d), ...)  an array of exactly these items.
# A row's path is where a document holds the field, relative to its holder,
# "" being the holder's own path; it defaults to the field's name.
_FIELDS: dict[type, tuple[tuple, ...]] = {}
_KEYED = object()
_ACTION_LABELS = ((list, str, "an action label"), "an array of action labels")
_PARTIAL_ACTION = ((dict, str, "an action label"), "a partial joint action")
_MODEL = (SystemModel, "a system model")

_FIELDS[Component] = (
    ("id", str, "a component id"),
    ("actions", *_ACTION_LABELS),
    ("baseline", str, "a baseline action label"),
)
_FIELDS[QualityAttribute] = (
    ("name", str, "an attribute name"),
    ("weight", float, "a numeric weight"),
)
_FIELDS[UtilityRule] = (
    ("when", *_PARTIAL_ACTION),
    ("scores", (dict, float, "a number"), "per-attribute scores"),
)
_FIELDS[SystemModel] = (
    ("components", (list, Component, "a component object"), "an array of components"),
    ("quality_attributes", (list, QualityAttribute, "a quality attribute object"), "an array of quality attributes"),
    ("utility_rules", (list, UtilityRule, "a utility rule object"), "an array of utility rules"),
    ("utility_default", (dict, float, "a number"), "per-attribute default scores"),
    ("attack_actions", (dict, *_ACTION_LABELS), "attack labels keyed by component"),
)


class CompiledModel:
    """A SystemModel in index form, with the memo of its utilities.

    Component `ids[j]` numbers its labels (declared actions, then
    attack-context labels) as in `index[j]`, so a joint action is a tuple of
    label indices in component order. Each quality attribute becomes a
    decision list of its rules' scores ending in its default score.
    `utility` evaluates a joint action once and memoizes it. A model that
    `validate_model` rejects raises ValueError listing the violations when
    compiled, before any field is read, so every attribute has a default and
    every utility is finite. `profiles` keeps the Normal side of every
    type profile a game on this model opened (see `CompiledGame.columns`):
    a Normal player's Shapley shares depend only on the model and on the
    labels each player can play, so its columns belong to the model, while
    each game keeps its own Malicious columns, paid from its attack's
    rules. Both memos live as long as the model, so every game built on it,
    every replan and every export reads them; they refer to no game.
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
        # per type profile some game opened, keyed by each slot's (label
        # codes, Normal flag): its Normal players' payer, utilities and
        # columns, see `CompiledGame.columns`
        self.profiles: dict[tuple[tuple[tuple[int, ...], bool], ...], tuple[list, list, list[float], list]] = {}

    def decision_list(self, pairs: Iterable[tuple[Mapping[str, str], float]]) -> DecisionList:
        """`(when, value)` pairs, in order, as entries for `first_match`.

        Each `when`, a partial joint action of the model's components and
        labels, becomes `(position, label index)` conditions with the value
        as a float. Every caller hands checked rules: the model's own, and
        reward rules that `validate_attack_model` or a `ScenarioScript` checked.
        """
        position, index = self.position, self.index
        return tuple(
            (tuple([(position[cid], index[position[cid]][label]) for cid, label in when.items()]), float(value))
            for when, value in pairs
        )

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


def _match_grid(entries: DecisionList, codes: Sequence[Sequence[int]]) -> tuple[list[float | None], list[int]]:
    # `first_match` of every joint action of the positions that `entries`
    # name, position j playing each label index of codes[j], the last named
    # position fastest; and each position's weight in that grid, 0 for a
    # position no entry names, whose label is never read.
    named = {j for conds, _value in entries for j, _a in conds}
    grid = list(map(first_match, itertools.repeat(entries),
                    itertools.product(*[c if j in named else c[:1] for j, c in enumerate(codes)])))
    weights, weight = [0] * len(codes), 1
    for j in sorted(named, reverse=True):
        weights[j] = weight
        weight *= len(codes[j])
    return grid, weights


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
    labels = model._labels.get(cid)
    if labels is None:
        return "UnknownComponent", cid, f"unknown component {cid!r}"
    if isinstance(label, str) and label in labels:  # anything else, hashable or not, is unknown
        return None
    return "UnknownAction", label, f"unknown action {label!r} for component {cid!r}"


def system_utility(model: SystemModel, action: JointAction) -> float:
    """Weighted sum of per-attribute scores for a joint action.

    Each quality attribute takes its score from the first rule (declaration
    order) that matches `action` and lists that attribute; attributes no rule
    speaks for take the model's default score. Attack-context labels are
    permitted wherever the model declares them. Anything but a SystemModel,
    and a model that `validate_model` rejects, raises ValueError (the
    latter listing the violations) before the action is read.
    """
    fault = _model_fault(model)
    if fault is not None:
        raise ValueError(fault)
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
    code, the offending subject and a document path. A value out of its row
    of the field tables (`_FIELDS[SystemModel]` down), anything but a
    SystemModel included, is a `MalformedField` whose subject is the value;
    these are reported alone, since the other checks iterate or hash them.
    The weights and scores must be numbers (ints or floats, not bools, in
    the float range; `UtilityOverflow` at the number's path otherwise) that
    keep every utility and Shapley share finite. A model keeps its verdict,
    which compiling it, `build_game` and `ScenarioScript` read.
    """
    out = [Violation("MalformedField", value, fault, path) for path, value, fault in _shape_faults(model, *_MODEL)]
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


def _shape_faults(value: object, shape: object, what: str, path: str = "") -> Iterator[tuple[str, object, str]]:
    """Each value in `value` out of `shape`, lazily, as `(path, value, fault)`.

    The one shape walk: `value`, described as `what` at the document path
    `path`, is checked first by the one shape rule, and its items or fields,
    each by its row of its class's field table, only if it is in shape. A
    value that `_settled` passes is not walked.
    """
    if _settled(value, shape):
        return
    kind = shape[0] if type(shape) is tuple else shape
    fault = _shape_fault(value, what, kind)
    if fault is not None:
        yield path, value, fault
    elif kind is list or kind is dict:
        at = "%s[%s]" if kind is list else "%s.%s"
        for key, item in enumerate(value) if kind is list else value.items():
            yield from _shape_faults(item, *shape[1:], at % (path, key))
    elif kind is _KEYED:
        cls, item_what = shape[1:]
        key = _FIELDS[cls][0][0]
        for i, item in enumerate(value):
            at = f"{path}.{getattr(item, key)}" if isinstance(item, cls) else f"{path}[{i}]"
            yield from _shape_faults(item, cls, item_what, at)
    elif kind is tuple:
        if len(value) != len(shape) - 1:
            yield path, value, f"expected {what}, got a {type(value).__name__} of length {len(value)}"
        else:
            for item, (item_shape, item_what) in zip(value, shape[1:]):
                yield from _shape_faults(item, item_shape, item_what, path)
    elif kind is not str and kind is not int:
        for name, field_shape, field_what, *held in _FIELDS[kind]:
            at = held[0] if held else name
            yield from _shape_faults(getattr(value, name), field_shape, field_what,
                                     f"{path}.{at}" if path and at else path or at)


def _settled(value: object, shape: object) -> bool:
    # Whether the walk may pass `value` by: its exact types are the ones the
    # parser builds for `shape`, all the way down, or it is a number, which
    # is `_number_fault`'s. One fast pass without paths, in front of the walk.
    if type(shape) is not tuple:
        if shape is float or type(value) is not shape:
            return shape is float
        if shape is not str and shape is not int:
            for row in _FIELDS[shape]:
                if not _settled(getattr(value, row[0]), row[1]):
                    return False
        return True
    kind, item = shape[:2]
    if kind is dict:
        if type(value) is not dict:
            return False
        if item is float:
            return True
        value = value.values()
    elif kind is tuple or type(value) not in _ARRAYS:  # the reward entry's pair is walked
        return False
    if item is str:  # labels by their types alone, at C speed
        return _STRINGS.issuperset(map(type, value))
    for x in value:
        if not _settled(x, item):
            return False
    return True


# Arrays come as a tuple or a list, never as a string, whose characters
# would read as labels. A dict is tested before the Mapping ABC, whose own
# test costs more.
_TYPES = {list: (tuple, list), tuple: (tuple, list), _KEYED: (tuple, list), dict: (dict, Mapping)}
_STRINGS, _ARRAYS = frozenset({str}), frozenset({tuple, list})


def _shape_fault(value: object, what: str, kind: object) -> str | None:
    """Why `value` is not `what` in the shape a document gives it, or None.

    The one shape rule, which `_shape_faults` and the scenario reader
    apply: `value` is an instance of `kind`, an array a tuple or a list, a
    mapping a Mapping and an int an int exactly.
    """
    if type(value) is int if kind is int else isinstance(value, _TYPES.get(kind, kind)):
        return None
    return f"expected {what}, got {'a boolean' if kind is int and isinstance(value, bool) else type(value).__name__}"


def _model_fault(model: object) -> str | None:
    """Why `model` is not a SystemModel, or None: the root check of `_shape_faults(model, *_MODEL)` alone.

    A SystemModel's fields are `validate_model`'s, whose verdict the model
    keeps; walking them again at every call would cost more than a utility.
    """
    return _shape_fault(model, _MODEL[1], _MODEL[0])


def _malformed(model: object) -> list[Violation]:
    """The `MalformedField` violations of `model`, one at the root if it is not a SystemModel.

    A SystemModel's own are those of its kept verdict, at each field's path.
    """
    fault = _model_fault(model)
    if fault is not None:
        return [Violation("MalformedField", model, fault, "")]
    return [v for v in model._violations if v.code == "MalformedField"]


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
