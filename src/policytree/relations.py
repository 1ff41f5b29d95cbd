"""Pairwise relations between rules.

Two rules over the same schema compare field by field; the per-field
verdicts roll up into exactly one relation kind:

* ``exactly-matching``: every field equal;
* ``inclusively-matching-forward``: every field of the first rule contained
  in the second's, at least one properly (the first rule is the more
  specific one);
* ``inclusively-matching-backward``: the mirror image;
* ``correlated``: every field comparable (subset, superset, or equal) with
  containment going both ways across fields;
* ``disjoint``: some field pair with an empty intersection (such rules can
  never both match a packet);
* ``correlated-general``: everything else, i.e. some field overlaps only
  partially but no field is empty.  It behaves like ``correlated`` for
  anomaly purposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import Rule, Schema, SchemaError
from .values import vs_compare

__all__ = [
    "FieldRel",
    "FieldRelation",
    "RelationKind",
    "RuleRelation",
    "field_relation",
    "relate",
    "is_correlated",
]


class FieldRel(str, Enum):
    EQUAL = "equal"
    PROPER_SUBSET = "proper-subset"
    PROPER_SUPERSET = "proper-superset"
    OVERLAPPING = "overlapping"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class FieldRelation:
    attribute: str
    rel: FieldRel


class RelationKind(str, Enum):
    EXACT = "exactly-matching"
    FORWARD = "inclusively-matching-forward"
    BACKWARD = "inclusively-matching-backward"
    CORRELATED = "correlated"
    CORRELATED_GENERAL = "correlated-general"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class RuleRelation:
    kind: RelationKind
    evidence: tuple[FieldRelation, ...]


def is_correlated(kind: RelationKind) -> bool:
    return kind in (RelationKind.CORRELATED, RelationKind.CORRELATED_GENERAL)


def field_relation(a, b, attr) -> FieldRel:
    """Relation of value ``a`` to value ``b`` under ``attr``'s domain."""
    sub, sup, meet = vs_compare(a, b, attr.domain)
    if sub:
        return FieldRel.EQUAL if sup else FieldRel.PROPER_SUBSET
    if sup:
        return FieldRel.PROPER_SUPERSET
    return FieldRel.OVERLAPPING if meet else FieldRel.DISJOINT


def relate(r_i: Rule, r_j: Rule, schema: Schema) -> RuleRelation:
    """Classify how ``r_i`` relates to ``r_j`` over ``schema``.

    Forward means ``r_i`` fits inside ``r_j``; backward the reverse.
    """
    for rule in (r_i, r_j):
        if set(rule.condition) != set(schema.condition_names):
            raise SchemaError(f"rule {rule.id} does not match the schema")

    evidence = tuple(
        FieldRelation(attr.name, field_relation(r_i.condition[attr.name],
                                                r_j.condition[attr.name], attr))
        for attr in schema.condition_attributes
    )
    rels = [fr.rel for fr in evidence]

    if all(r is FieldRel.EQUAL for r in rels):
        kind = RelationKind.EXACT
    elif all(r in (FieldRel.EQUAL, FieldRel.PROPER_SUBSET) for r in rels):
        kind = RelationKind.FORWARD
    elif all(r in (FieldRel.EQUAL, FieldRel.PROPER_SUPERSET) for r in rels):
        kind = RelationKind.BACKWARD
    elif all(
        r in (FieldRel.EQUAL, FieldRel.PROPER_SUBSET, FieldRel.PROPER_SUPERSET)
        for r in rels
    ):
        kind = RelationKind.CORRELATED
    elif any(r is FieldRel.DISJOINT for r in rels):
        kind = RelationKind.DISJOINT
    else:
        kind = RelationKind.CORRELATED_GENERAL
    return RuleRelation(kind=kind, evidence=evidence)
