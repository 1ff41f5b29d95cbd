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

:func:`relate` classifies one pair and keeps the per-field evidence;
:func:`relation_matrix` classifies every pair of two rule lists at once.
Both roll field relations up to a kind through the same 32-entry table,
indexed by the set of ``FieldRel`` values seen across the fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Rule, Schema, SchemaError
from .values import Cells, vs_compare

__all__ = [
    "FieldRel",
    "FieldRelation",
    "RelationKind",
    "RuleRelation",
    "KINDS",
    "field_relation",
    "relate",
    "relation_matrix",
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


#: The kinds in code order: ``relation_matrix`` writes ``KINDS.index(kind)``.
KINDS = tuple(RelationKind)

_BIT = {rel: 1 << i for i, rel in enumerate(FieldRel)}


def _field_rel(sub: bool, sup: bool, meet: bool) -> FieldRel:
    """The field relation of ``(a ⊆ b, b ⊆ a, a ∩ b ≠ ∅)``."""
    if sub:
        return FieldRel.EQUAL if sup else FieldRel.PROPER_SUBSET
    if sup:
        return FieldRel.PROPER_SUPERSET
    return FieldRel.OVERLAPPING if meet else FieldRel.DISJOINT


def _kind_of(mask: int) -> RelationKind:
    """The kind of a pair whose fields show exactly the relations in ``mask``."""
    eq = _BIT[FieldRel.EQUAL]
    sub = _BIT[FieldRel.PROPER_SUBSET]
    sup = _BIT[FieldRel.PROPER_SUPERSET]
    if not mask & ~eq:
        return RelationKind.EXACT
    if not mask & ~(eq | sub):
        return RelationKind.FORWARD
    if not mask & ~(eq | sup):
        return RelationKind.BACKWARD
    if not mask & ~(eq | sub | sup):
        return RelationKind.CORRELATED
    if mask & _BIT[FieldRel.DISJOINT]:
        return RelationKind.DISJOINT
    return RelationKind.CORRELATED_GENERAL


# FieldRel bit by (a ⊆ b, b ⊆ a, a ∩ b ≠ ∅)
_BIT_OF = {
    triple: _BIT[_field_rel(*triple)] for triple in itertools.product((False, True), repeat=3)
}
_KIND_OF_MASK = tuple(_kind_of(mask) for mask in range(1 << len(FieldRel)))
_CODE_OF_MASK = np.array([KINDS.index(kind) for kind in _KIND_OF_MASK], dtype=np.int8)

# rows classified per step of relation_matrix; bounds its scratch arrays
_BLOCK_ROWS = 256


def is_correlated(kind: RelationKind) -> bool:
    return kind in (RelationKind.CORRELATED, RelationKind.CORRELATED_GENERAL)


def field_relation(a, b, attr) -> FieldRel:
    """Relation of value ``a`` to value ``b`` under ``attr``'s domain."""
    return _field_rel(*vs_compare(a, b, attr.domain))


def _check_schema(rules, schema: Schema) -> None:
    names = set(schema.condition_names)
    for rule in rules:
        if rule.condition.keys() != names:
            raise SchemaError(f"rule {rule.id} does not match the schema")


def relate(r_i: Rule, r_j: Rule, schema: Schema) -> RuleRelation:
    """Classify how ``r_i`` relates to ``r_j`` over ``schema``.

    Forward means ``r_i`` fits inside ``r_j``; backward the reverse.
    """
    _check_schema((r_i, r_j), schema)
    evidence = tuple(
        FieldRelation(attr.name, field_relation(r_i.condition[attr.name],
                                                r_j.condition[attr.name], attr))
        for attr in schema.condition_attributes
    )
    mask = 0
    for fr in evidence:
        mask |= _BIT[fr.rel]
    return RuleRelation(kind=_KIND_OF_MASK[mask], evidence=evidence)


def _vocabulary(values) -> tuple[list, np.ndarray]:
    """The distinct values in first-seen order, and each value's index."""
    index: dict = {}
    ids = [index.setdefault(v, len(index)) for v in values]
    return list(index), np.array(ids, dtype=np.intp)


def relation_matrix(a_rules, b_rules, schema: Schema) -> np.ndarray:
    """``relate(a, b, schema).kind`` for every pair, as ``KINDS`` codes.

    Returns an ``int8`` array of shape ``(len(a_rules), len(b_rules))``.
    Rules use few distinct values per attribute, so each attribute's
    relation is computed once per pair of distinct values, from their
    :class:`~policytree.values.Cells` masks, and gathered to the rule pairs.
    """
    _check_schema(a_rules, schema)
    _check_schema(b_rules, schema)
    tables = []  # per attribute: FieldRel bits by value index, and the indices
    for attr in schema.condition_attributes:
        a_vocab, a_ids = _vocabulary(r.condition[attr.name] for r in a_rules)
        b_vocab, b_ids = _vocabulary(r.condition[attr.name] for r in b_rules)
        cells = Cells(attr.domain, a_vocab + b_vocab)
        b_masks = [cells.mask(b) for b in b_vocab]
        bits = np.array(
            [
                [_BIT_OF[not a & ~b, not b & ~a, a & b != 0] for b in b_masks]
                for a in map(cells.mask, a_vocab)
            ],
            dtype=np.uint8,
        ).reshape(len(a_vocab), len(b_vocab))  # a 2-D shape even when a list is empty
        tables.append((bits, a_ids, b_ids))
    out = np.empty((len(a_rules), len(b_rules)), dtype=np.int8)
    for start in range(0, len(a_rules), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        mask = np.zeros_like(out[rows], dtype=np.uint8)
        for bits, a_ids, b_ids in tables:
            mask |= bits[a_ids[rows, None], b_ids[None, :]]
        out[rows] = _CODE_OF_MASK[mask]
    return out
