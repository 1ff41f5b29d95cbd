"""Interoperability checks between a preceding and a following component.

Traffic flows through components in path order (say, a firewall and then an
IDS).  Once both rule sets are expressed over a shared attribute union,
every cross pair (preceding rule, following rule) is classified:

* inter-shadowing (error): the preceding component blocks traffic the
  following one was meant to see and permit;
* inter-spuriousness (error): the preceding component lets traffic through
  that the following one blocks or alerts on;
* inter-redundancy (warning): both block the same traffic, so the
  following rule is dead weight;
* inter-correlation (error): the regions overlap both ways with different
  action classes, so behaviour depends on how packets straddle the overlap.

The containment checks compare the more specific following rule against the
preceding rule's region.  Two components interoperate when no pair at all
is reported.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .model import AttributeDef, Rule, RuleSet, Schema, SchemaError, Severity
from .relations import relation_sets, scan
from .relations import relate  # noqa: F401  perfbench/spans.py wraps this name here
from .values import COMPLEMENT_LABEL, ValueSet, intervals, vs_subset

__all__ = [
    "InterKind",
    "InterAnomaly",
    "union_schema",
    "extend_schema",
    "detect_inter",
]


class InterKind(str, Enum):
    SHADOWING = "inter-shadowing"
    SPURIOUSNESS = "inter-spuriousness"
    REDUNDANCY = "inter-redundancy"
    CORRELATION = "inter-correlation"


_SEVERITY = {
    InterKind.SHADOWING: Severity.ERROR,
    InterKind.SPURIOUSNESS: Severity.ERROR,
    InterKind.REDUNDANCY: Severity.WARNING,
    InterKind.CORRELATION: Severity.ERROR,
}


class InterAnomaly(NamedTuple):
    kind: InterKind
    preceding_rule: int
    following_rule: int
    severity: Severity


# ---------------------------------------------------------------------------
# schema extension
# ---------------------------------------------------------------------------


def _domain_union(a: AttributeDef, b: AttributeDef) -> ValueSet:
    # plain union of two concrete domains; never collapses to the wildcard
    if a.domain == b.domain:
        return a.domain
    if a.kind.is_numeric:
        return intervals(a.domain.intervals + b.domain.intervals)
    return ValueSet(labels=(a.domain.labels or frozenset()) | (b.domain.labels or frozenset()))


def union_schema(preceding: Schema, following: Schema) -> Schema:
    """Shared schema: preceding attributes first, then following-only ones.

    Attributes present in both must agree in kind; their domains are
    unioned.  The decision attribute keeps the preceding component's name
    and takes the union of both label sets.
    """
    by_name = {a.name: a for a in following.condition_attributes}
    merged: list[AttributeDef] = []
    for attr in preceding.condition_attributes:
        other = by_name.get(attr.name)
        if other is None:
            merged.append(attr)
            continue
        if other.kind is not attr.kind:
            raise SchemaError(
                f"attribute {attr.name!r} declared as {attr.kind.value} and {other.kind.value}"
            )
        merged.append(AttributeDef(name=attr.name, kind=attr.kind, domain=_domain_union(attr, other)))
    seen = {a.name for a in merged}
    merged.extend(a for a in following.condition_attributes if a.name not in seen)

    dec_p, dec_f = preceding.decision_attribute, following.decision_attribute
    decision = AttributeDef(name=dec_p.name, kind=dec_p.kind, domain=_domain_union(dec_p, dec_f))
    return Schema(condition_attributes=tuple(merged), decision_attribute=decision)


def extend_schema(rs: RuleSet, target: Schema) -> RuleSet:
    """Restate ``rs`` over ``target``, which must cover all its attributes.

    Rules gain the wildcard for attributes they never constrained.  A
    wildcard over an attribute whose domain grew in ``target`` is first
    pinned to the original domain, so no rule matches more than before.
    An open label enumeration is the exception: its ``COMPLEMENT_LABEL``
    already stands for every label it never named, so a wildcard stays
    the wildcard and a value that holds ``COMPLEMENT_LABEL`` gains the
    labels ``target`` adds.  No rule matches less than before either.
    When ``target`` adds no attribute and widens no domain, the rules are
    reused.  ``target`` covers each domain and decision label of ``rs``, which
    was checked, so the result is not checked again.
    """
    target_by_name = {a.name: a for a in target.condition_attributes}
    for attr in rs.schema.condition_attributes:
        other = target_by_name.get(attr.name)
        if other is None:
            raise SchemaError(f"target schema lacks attribute {attr.name!r}")
        if other.kind is not attr.kind:
            raise SchemaError(f"attribute {attr.name!r} changes kind in the target schema")
        if not vs_subset(attr.domain, other.domain, other.domain):
            raise SchemaError(f"target domain for {attr.name!r} does not cover the original")
    source_labels = rs.schema.decision_attribute.domain.labels or frozenset()
    target_labels = target.decision_attribute.domain.labels or frozenset()
    if not source_labels <= target_labels:
        raise SchemaError("target decision domain does not cover the original")

    own = {a.name: a.domain for a in rs.schema.condition_attributes}
    wider = {name for name, domain in own.items() if target_by_name[name].domain != domain}
    names = target.condition_names
    if names == rs.schema.condition_names and not wider:
        return RuleSet._of_checked(target, rs.rules, rs.component_kind, rs.component_name)
    gained = {  # open label enumerations that grew -> the labels they gain
        name: target_by_name[name].domain.labels - own[name].labels
        for name in wider
        if own[name].labels is not None and COMPLEMENT_LABEL in own[name].labels
    }
    new_rules = []
    for rule in rs.rules:
        condition = {}
        for name in names:
            if name not in own:
                condition[name] = ValueSet()  # wildcard
                continue
            v = rule.condition[name]
            if name in gained:
                if v.labels is not None and COMPLEMENT_LABEL in v.labels:
                    v = ValueSet(labels=v.labels | gained[name])
            elif v.is_wildcard and name in wider:
                v = own[name]  # keep the original reach, not the wider one
            condition[name] = v
        new_rules.append(Rule(id=rule.id, condition=condition, action=rule.action, origin=rule.origin))
    return RuleSet._of_checked(target, tuple(new_rules), rs.component_kind, rs.component_name)


# ---------------------------------------------------------------------------
# cross-component anomalies
# ---------------------------------------------------------------------------


def detect_inter(preceding: RuleSet, following: RuleSet) -> list[InterAnomaly]:
    """All anomalous cross pairs.  Both sets must share one (union) schema.

    An empty list means the two components interoperate.
    """
    if preceding.schema != following.schema:
        raise SchemaError("extend both components to the shared schema first")

    def classify(j, permit, meets, covers, inside, same, other):
        # a covering preceding rule decides all of the following rule's traffic
        correlated = meets & ~covers & ~inside & other
        if permit:
            return (InterKind.SHADOWING, covers & other), (InterKind.CORRELATION, correlated)
        return (
            (InterKind.SPURIOUSNESS, covers & other),
            (InterKind.REDUNDANCY, covers & same),
            (InterKind.CORRELATION, correlated),
        )

    p_rules, f_rules = preceding.rules, following.rules
    screen = relation_sets(p_rules, f_rules, preceding.schema)
    return [
        InterAnomaly(kind, p_rules[i].id, f_rules[j].id, _SEVERITY[kind])
        for kind, i, j in scan(InterKind, classify, p_rules, f_rules, screen)
    ]
