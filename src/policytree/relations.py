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

:func:`relation_sets` screens every pair of two rule lists at once.  For
each rule it gives three int bitsets over the other list: the rules it is
not disjoint from, the rules that hold it, and the rules it holds.  The
three bits of a pair tell its kind apart except for the two correlated
ones, which anomaly detection treats alike, so every command reads its
relations from these sets.  An empty value set is a proper subset of every
value, so a rule with an empty field is inside, never disjoint from, a
rule that matches the rest.  :func:`scan` reads one anomaly table (within
a component, or between two) over those sets and lists its findings in
order.

:func:`relate` is the scalar reference the tests check the sets against.
It classifies one pair field by field with
:func:`~policytree.values.vs_compare`.
"""

from __future__ import annotations

from enum import Enum

from .model import PERMIT_ACTIONS, Rule, Schema, SchemaError
from .values import Cells, vs_compare

__all__ = [
    "RelationKind",
    "relate",
    "relation_sets",
    "indices",
    "scan",
]


class RelationKind(str, Enum):
    EXACT = "exactly-matching"
    FORWARD = "inclusively-matching-forward"
    BACKWARD = "inclusively-matching-backward"
    CORRELATED = "correlated"
    CORRELATED_GENERAL = "correlated-general"
    DISJOINT = "disjoint"


def _check_schema(rules, schema: Schema) -> None:
    names = set(schema.condition_names)
    for rule in rules:
        if rule.condition.keys() != names:
            raise SchemaError(f"rule {rule.id} does not match the schema")


def relate(r_i: Rule, r_j: Rule, schema: Schema) -> RelationKind:
    """Classify how ``r_i`` relates to ``r_j`` over ``schema``.

    Forward means ``r_i`` fits inside ``r_j``; backward the reverse.  One
    disjoint field makes the pair disjoint, and otherwise one field that
    overlaps only partially makes it ``CORRELATED_GENERAL``.
    """
    _check_schema((r_i, r_j), schema)
    inside = holds = True
    general = False
    for attr in schema.condition_attributes:
        name = attr.name
        sub, sup, meet = vs_compare(r_i.condition[name], r_j.condition[name], attr.domain)
        if not (sub or sup or meet):
            return RelationKind.DISJOINT
        general = general or not (sub or sup)
        inside = inside and sub
        holds = holds and sup
    if general:
        return RelationKind.CORRELATED_GENERAL
    if inside:
        return RelationKind.EXACT if holds else RelationKind.FORWARD
    return RelationKind.BACKWARD if holds else RelationKind.CORRELATED


def relation_sets(a_rules, b_rules, schema: Schema) -> tuple[list[int], list[int], list[int]]:
    """Three bitsets over ``a_rules`` for each rule of ``b_rules``.

    Bit ``i`` of ``meets[j]``, ``covers[j]`` and ``inside[j]`` says that
    ``a_rules[i]`` and ``b_rules[j]`` are not ``DISJOINT``, that
    ``a_rules[i]`` holds ``b_rules[j]`` in every field (``EXACT`` or
    ``BACKWARD``), and that ``b_rules[j]`` holds ``a_rules[i]`` in every
    field (``EXACT`` or ``FORWARD``).  Per attribute, rules with the same
    :class:`~policytree.values.Cells` mask share one bitset, each pair of
    distinct masks is compared once, and the per-attribute sets are ANDed.
    """
    _check_schema(a_rules, schema)
    _check_schema(b_rules, schema)
    everything = (1 << len(a_rules)) - 1
    meets = [everything] * len(b_rules)
    covers = list(meets)
    inside = list(meets)
    for attr in schema.condition_attributes:
        a_values = [r.condition[attr.name] for r in a_rules]
        b_values = [r.condition[attr.name] for r in b_rules]
        cells = Cells(attr.domain, dict.fromkeys(a_values + b_values))
        holders: dict[int, int] = {}  # mask -> the a rules with that value
        for i, v in enumerate(a_values):
            a = cells.mask(v)
            holders[a] = holders.get(a, 0) | 1 << i
        rows: dict[int, tuple[int, int, int]] = {}  # b mask -> its three sets
        for j, v in enumerate(b_values):
            b = cells.mask(v)
            row = rows.get(b)
            if row is None:
                row = rows[b] = _field_sets(b, holders)
            meets[j] &= row[0]
            covers[j] &= row[1]
            inside[j] &= row[2]
    return meets, covers, inside


def _field_sets(b: int, holders: dict[int, int]) -> tuple[int, int, int]:
    """The rules whose field meets, holds and lies inside mask ``b``.

    A field meets when either side holds the other, not only when the two
    share a cell: ``relate`` reads an empty value set as a proper subset of
    every value, never as disjoint.
    """
    meet = cover = inner = 0
    for a, rules in holders.items():
        sub, sup = not a & ~b, not b & ~a
        if sub:
            inner |= rules
        if sup:
            cover |= rules
        if sub or sup or a & b:
            meet |= rules
    return meet, cover, inner


def indices(bits: int):
    """The indices of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def scan(kinds, classify, a_rules, b_rules, screen) -> list[tuple]:
    """``(kind, i, j)`` for each finding of one anomaly table, by ``i``, ``j``, then kind.

    ``screen`` is ``relation_sets(a_rules, b_rules, schema)``.  For each rule
    ``b_rules[j]``, ``classify(j, permit, meets, covers, inside, same, other)``
    gives ``(kind, bits)`` pairs, where bit ``i`` names ``a_rules[i]``:
    ``permit`` says whether ``b_rules[j]`` permits, ``meets``, ``covers``
    and ``inside`` are its relation sets, and ``same`` and ``other`` are the
    rules of ``a_rules`` in its action class and in the other one.  Kinds
    of one pair sort in the order of the ``kinds`` enum.
    """
    order = {kind: n for n, kind in enumerate(kinds)}
    permits = sum(1 << i for i, r in enumerate(a_rules) if r.action in PERMIT_ACTIONS)
    blocks = ((1 << len(a_rules)) - 1) & ~permits
    found = []
    for j, (b, meets, covers, inside) in enumerate(zip(b_rules, *screen)):
        permit = b.action in PERMIT_ACTIONS
        same, other = (permits, blocks) if permit else (blocks, permits)
        for kind, bits in classify(j, permit, meets, covers, inside, same, other):
            found.extend((kind, i, j) for i in indices(bits))
    found.sort(key=lambda f: (f[1], f[2], order[f[0]]))
    return found
