"""Core policy model: attributes, schemas, rules, and rule sets.

A security component (firewall, IDS, ...) carries an ordered list of rules.
Each rule is a conjunction of per-attribute value constraints plus one
decision label.  Decision labels fall into two classes: ``accept``/``pass``
permit traffic, ``deny``/``reject``/``discard`` block it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

from .values import AttrKind, ValueSet, vs_is_empty, vs_subset

__all__ = [
    "SchemaError",
    "ComponentKind",
    "Severity",
    "ConflictPolicy",
    "AttributeDef",
    "Schema",
    "Rule",
    "RuleSet",
    "PERMIT_ACTIONS",
    "BLOCK_ACTIONS",
    "DECISION_LABELS",
]


class SchemaError(ValueError):
    """A rule, packet, or operation does not fit the schema it was used with."""


PERMIT_ACTIONS = frozenset({"accept", "pass"})
BLOCK_ACTIONS = frozenset({"deny", "reject", "discard"})
DECISION_LABELS = PERMIT_ACTIONS | BLOCK_ACTIONS


class ComponentKind(str, Enum):
    FILTERING = "filtering"
    ALERTING = "alerting"


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


class ConflictPolicy(str, Enum):
    """Which rule decides a packet that several rules match (see :mod:`policytree.rdt`)."""

    SPECIFICITY = "specificity-then-order"
    FIRST_MATCH = "first-match"


@dataclass(frozen=True)
class AttributeDef:
    """One attribute: a name, a kind, and a concrete (non-wildcard) domain."""

    name: str
    kind: AttrKind
    domain: ValueSet

    def __post_init__(self) -> None:
        if self.domain.is_wildcard:
            raise SchemaError(f"attribute {self.name!r} needs an explicit domain")
        if self.kind.is_numeric and self.domain.intervals is None:
            raise SchemaError(f"attribute {self.name!r} needs an interval domain")
        if not self.kind.is_numeric and self.domain.labels is None:
            raise SchemaError(f"attribute {self.name!r} needs a label domain")
        if vs_is_empty(self.domain):
            raise SchemaError(f"attribute {self.name!r} has an empty domain")
        addresses = self.domain.intervals if self.kind is AttrKind.IPV4_RANGE else ()
        if any(lo < 0 or hi >= 1 << 32 for lo, hi in addresses):
            raise SchemaError(f"attribute {self.name!r} has a domain outside the IPv4 range")


@dataclass(frozen=True)
class Schema:
    """Ordered condition attributes plus the decision attribute."""

    condition_attributes: tuple[AttributeDef, ...]
    decision_attribute: AttributeDef

    def __post_init__(self) -> None:
        if not self.condition_attributes:
            raise SchemaError("a schema needs at least one condition attribute")
        names = [a.name for a in self.condition_attributes]
        names.append(self.decision_attribute.name)
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique")
        dec = self.decision_attribute
        if dec.domain.labels is None or not dec.domain.labels <= DECISION_LABELS:
            raise SchemaError(
                "decision domain must be drawn from "
                + "/".join(sorted(DECISION_LABELS))
            )

    @property
    def condition_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.condition_attributes)

    def attribute(self, name: str) -> AttributeDef:
        for a in self.condition_attributes:
            if a.name == name:
                return a
        raise SchemaError(f"no condition attribute named {name!r}")


class Rule(NamedTuple):
    """One rule: id, per-attribute constraints, and a decision label.

    ``origin`` records where the rule came from (a component name, possibly
    qualified with the source rule id after a correction pass).
    """

    id: int
    condition: Mapping[str, ValueSet]
    action: str
    origin: str = ""


def _validate_rule(rule: Rule, schema: Schema, expected: set[str], inside: set) -> None:
    if rule.condition.keys() != expected:
        got = set(rule.condition)
        missing = expected - got
        extra = got - expected
        parts = []
        if missing:
            parts.append("missing " + ", ".join(sorted(missing)))
        if extra:
            parts.append("unexpected " + ", ".join(sorted(extra)))
        raise SchemaError(f"rule {rule.id}: {'; '.join(parts)}")
    for attr in schema.condition_attributes:
        v = rule.condition[attr.name]
        if v.is_wildcard or (attr.name, v) in inside:
            continue
        if not vs_subset(v, attr.domain, attr.domain):
            raise SchemaError(f"rule {rule.id}: value for {attr.name!r} falls outside its domain")
        inside.add((attr.name, v))
    if rule.action not in (schema.decision_attribute.domain.labels or ()):
        raise SchemaError(f"rule {rule.id}: action {rule.action!r} not in decision domain")


@dataclass(frozen=True)
class RuleSet:
    """A component's ordered rules.  Rule ids must run 1..t in order.

    A rule set is checked once, where it enters the program.  ``RuleSet(...)``
    checks every rule against the schema, so ``dataclasses.replace`` does.
    The rule-file reader checks each field of either format as it reads it,
    and ``extend_schema``, ``integrate`` and ``tree_to_rules`` make valid sets
    from checked ones, so these use :meth:`_of_checked`.
    """

    schema: Schema
    rules: tuple[Rule, ...]
    component_kind: ComponentKind = ComponentKind.FILTERING
    component_name: str = ""

    @classmethod
    def _of_checked(cls, schema: Schema, rules: tuple, kind: ComponentKind, name: str) -> RuleSet:
        """These fields as a rule set, not checked again.

        The caller vouches that the ids run 1..t in order, each condition holds
        exactly the schema's attributes with values in their domains, and each
        action is in the decision domain.
        """
        rs = cls.__new__(cls)
        rs.__dict__.update(schema=schema, rules=rules, component_kind=kind, component_name=name)
        return rs

    def __post_init__(self) -> None:
        expected = set(self.schema.condition_names)
        inside: set[tuple[str, ValueSet]] = set()  # (attribute, value set) pairs in domain
        for pos, rule in enumerate(self.rules, start=1):
            if rule.id != pos:
                raise SchemaError(
                    f"rule ids must be consecutive from 1; found {rule.id} at position {pos}"
                )
            _validate_rule(rule, self.schema, expected, inside)
