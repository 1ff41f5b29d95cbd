"""Packet-level referee, independent of the tree construction.

This module answers "what does this rule set do to this packet?" straight
from the ordered rules, under either :class:`~policytree.model.ConflictPolicy`:

* ``first-match``: the first matching rule wins;
* ``specificity-then-order`` (owner capture): rule 1 owns whatever it
  matches; each later rule claims the still-unowned part of its region and
  takes over any region whose current owner it fits strictly inside (it is
  the more specific rule).  This is the reference for the tree builder's
  specificity policy, computed here rule-by-rule without any tree.

It also cuts each numeric domain into elementary cells, the maximal
intervals on which no rule value changes, and keeps one packet per cell
(label domains are enumerated in full).  Every rule matches all of a cell
or none of it, so checking one point per cell is exact.  A tree decides a
packet as its :func:`~policytree.dtree.flattened` regions do under first
match (a relevant tree has at most one region per packet); the comparison
of a tree against a rule set also cuts at the tree's own label bounds, so
it stays exact for any tree.  It lists the packets where the two disagree
in grid order, extending point by point only the prefixes that can still
reach a disagreement, never the whole grid.  "No decision" is a first
class outcome throughout (``None``).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from operator import xor
from math import prod
from typing import NamedTuple

from .dtree import DecisionTree, branches, flattening_key
from .model import AttributeDef, ConflictPolicy, Rule, RuleSet, Schema, SchemaError
from .relations import indices
from .values import ValueSet, contains_point, vs_compare, vs_subset

__all__ = [
    "Packet",
    "DomainSpace",
    "endpoint_space",
    "matches",
    "evaluate",
    "evaluate_rule",
    "equivalence",
]

Packet = dict[str, "int | str"]


class Semantics:  # the names perfbench/workloads.py reads; they go with ROADMAP item 1, step B
    OWNER_CAPTURE = ConflictPolicy.SPECIFICITY
    FIRST_MATCH = ConflictPolicy.FIRST_MATCH


# ---------------------------------------------------------------------------
# scalar evaluation
# ---------------------------------------------------------------------------


def matches(packet: Packet, rule: Rule, schema: Schema) -> bool:
    """Does the packet satisfy every field constraint of the rule?"""
    for attr in schema.condition_attributes:
        try:
            value = packet[attr.name]
        except KeyError:
            raise SchemaError(f"packet is missing {attr.name!r}") from None
        if not contains_point(rule.condition[attr.name], value, attr.domain):
            return False
    return True


def _strictly_inside(a: Rule, b: Rule, schema: Schema) -> bool:
    """Every field of ``a`` within ``b``'s, at least one properly."""
    strict = False
    for attr in schema.condition_attributes:
        inside, covers, _ = vs_compare(a.condition[attr.name], b.condition[attr.name], attr.domain)
        if not inside:
            return False
        strict = strict or not covers
    return strict


def _owner(rs: RuleSet, held, policy: ConflictPolicy, inside: dict) -> int | None:
    """Which of ``held``, an iterator of rule indices in order, decides (``None`` if
    none): the first under first match; under specificity a later rule takes over
    an owner it fits strictly inside.  ``inside`` memoizes that test by index pair."""
    owner = next(held, None)
    if owner is None or policy is ConflictPolicy.FIRST_MATCH:
        return owner
    for k in held:
        if (k, owner) not in inside:
            inside[k, owner] = _strictly_inside(rs.rules[k], rs.rules[owner], rs.schema)
        owner = k if inside[k, owner] else owner
    return owner


def evaluate_rule(rs: RuleSet, packet: Packet, policy: ConflictPolicy) -> Rule | None:
    """The rule that decides one packet, or ``None`` for no match."""
    held = (k for k, rule in enumerate(rs.rules) if matches(packet, rule, rs.schema))
    k = _owner(rs, held, policy, {})
    return None if k is None else rs.rules[k]


def evaluate(rs: RuleSet, packet: Packet, policy: ConflictPolicy) -> str | None:
    """The rule set's decision for one packet, or ``None`` for no match."""
    rule = evaluate_rule(rs, packet, policy)
    return rule.action if rule else None


# ---------------------------------------------------------------------------
# domain discretization
# ---------------------------------------------------------------------------


class DomainSpace(NamedTuple):
    """A grid of packets: one point list per attribute, crossed."""

    schema: Schema
    points: dict[str, tuple]

    def size(self) -> int:
        return prod(len(p) for p in self.points.values())


def _cell_starts(attr: AttributeDef, value_sets) -> set[int]:
    """The first point of every elementary cell the value sets cut the domain into.

    A cut falls at each interval's ``lo`` and ``hi + 1``, for the domain and
    for every value set; a cell starting outside the domain is dropped.
    """
    dom = attr.domain
    cuts = {c for v in (dom, *value_sets) for lo, hi in v.intervals or () for c in (lo, hi + 1)}
    return {c for c in cuts if contains_point(dom, c, dom)}


def endpoint_space(*rulesets: RuleSet) -> DomainSpace:
    """One packet per elementary cell of the given rule sets.

    All rule sets must share one schema.  The grid of label domains, each
    enumerated whole, is cut by the rule values (see :func:`_cut_by`), so
    each interval attribute keeps the first point of every cell that its
    domain and the rule values cut.
    """
    if not rulesets:
        raise ValueError("endpoint_space needs at least one rule set")
    schema = rulesets[0].schema
    for rs in rulesets[1:]:
        if rs.schema != schema:
            raise SchemaError("endpoint_space requires a shared schema")
    attrs = schema.condition_attributes
    grid = {a.name: () if a.kind.is_numeric else tuple(sorted(a.domain.labels)) for a in attrs}
    rules = [r for rs in rulesets for r in rs.rules]
    return _cut_by(DomainSpace(schema, grid), [[r.condition[a.name] for r in rules] for a in attrs])


def _cut_by(space: DomainSpace, values: list) -> DomainSpace:
    """``space`` with the cell starts of more values added, one collection per attribute."""
    points = dict(space.points)
    for attr, vals in zip(space.schema.condition_attributes, values):
        if attr.kind.is_numeric:
            points[attr.name] = tuple(sorted(_cell_starts(attr, vals).union(points[attr.name])))
    return DomainSpace(schema=space.schema, points=points)


# ---------------------------------------------------------------------------
# equivalence over match-set classes
# ---------------------------------------------------------------------------


def _axis_classes(attr: AttributeDef, points: tuple, column) -> tuple[list[int], list[int]]:
    """Phase 0 on one attribute: each point's class, and each class's set of matching rows.

    Bit ``k`` of a set is ``column[k]``.  Each distinct value set is located
    once; as they hold disjoint bits, their point ranges sweep in as XOR deltas.
    """
    groups: dict = {}  # value set -> the bits of its rows
    for k, v in enumerate(column):
        groups[v] = groups.get(v, 0) | 1 << k
    delta = [0] * (len(points) + 1)
    for v, bits in groups.items():
        v = attr.domain if v.is_wildcard else v
        if v.intervals is not None:
            spans = [(bisect_left(points, lo), bisect_right(points, hi)) for lo, hi in v.intervals]
        else:
            spans = [(i, i + 1) for i, p in enumerate(points) if p in v.labels]
        for start, end in spans:
            delta[start] ^= bits
            delta[end] ^= bits
    ids: dict[int, int] = {}
    classes = [ids.setdefault(bits, len(ids)) for bits in itertools.accumulate(delta[:-1], xor)]
    return classes, list(ids)


def equivalence(
    tree: DecisionTree, rs: RuleSet, policy: ConflictPolicy, space: DomainSpace
) -> list[tuple[Packet, str | None, str | None]]:
    """Counterexamples where the tree and the rules disagree.

    Returns ``(packet, tree decision, rule decision)`` triples in point
    order; empty means the tree reproduces the rules under ``policy`` on
    every packet of ``space`` cut further at the tree's own label bounds.

    By recursive flow classification: bits ``0..n-1`` of a match set are
    the ``n`` input rules, the bits above the tree's branches in depth-first
    order.  Attributes are combined one at a time by AND, each distinct
    final set is decided once, and only mismatching classes expand to
    packets.  Branches are put in flattening order only where several hold
    one class: the first of them in that order decides it.
    """
    if tree.schema != rs.schema:
        raise SchemaError("tree and rule set must share a schema")
    rules, n, regions = rs.rules, len(rs.rules), branches(tree)
    attrs = rs.schema.condition_attributes
    columns = [
        [r.condition[a.name] for r in rules] + [b.labels[i] for b in regions]
        for i, a in enumerate(attrs)
    ]
    tree_values = [dict.fromkeys(column[n:]) for column in columns]
    for a, vals in zip(attrs, tree_values):  # what a flattened rule set checks, once per label
        if not all(vs_subset(v, a.domain, a.domain) for v in vals):
            raise SchemaError(f"tree region: value for {a.name!r} falls outside its domain")
    tree_actions = [b.action for b in regions]
    stray = set(tree_actions) - (rs.schema.decision_attribute.domain.labels or frozenset())
    if stray:
        raise SchemaError(f"tree region: action {min(stray)!r} not in decision domain")
    space = _cut_by(space, tree_values)
    axes = [_axis_classes(a, space.points[a.name], column) for a, column in zip(attrs, columns)]
    tables, sets = [], axes[0][1]
    for _, axis_sets in axes[1:]:  # a later phase: (previous class, axis class) -> class
        ids: dict[int, int] = {}
        tables.append([[ids.setdefault(s & t, len(ids)) for t in axis_sets] for s in sets])
        sets = list(ids)
    rule_bits = (1 << n) - 1
    inside: dict[tuple[int, int], bool] = {}  # _strictly_inside, for the pairs a fold meets
    decided: dict[int, str | None] = {0: None}

    def by_rules(bits: int) -> str | None:
        if bits not in decided:
            decided[bits] = rules[_owner(rs, indices(bits), policy, inside)].action
        return decided[bits]

    keys: dict[ValueSet, tuple] = {}

    def by_regions(bits: int) -> str | None:
        """The region first in flattening order; ties keep depth-first order."""
        if bits & (bits - 1):
            return tree_actions[min(indices(bits), key=lambda i: flattening_key(regions[i], keys))]
        return tree_actions[next(indices(bits))] if bits else None

    verdicts = [(by_regions(bits >> n), by_rules(bits & rule_bits)) for bits in sets]
    bad = [by_tree != by_rule for by_tree, by_rule in verdicts]
    if not any(bad):
        return []
    live = [bad]  # live[k][c]: class c of phase k still reaches a mismatching final class
    for table in reversed(tables):
        live.insert(0, [any(live[0][c] for c in row) for row in table])
    walk = [((i,), c) for i, c in enumerate(axes[0][0]) if live[0][c]]
    for table, (classes, _), alive in zip(tables, axes[1:], live[1:]):
        steps: dict[int, list] = {}  # prefix class -> its (point, next class) steps to a mismatch
        for c in {c for _, c in walk}:
            row = table[c]
            steps[c] = [(i, row[t]) for i, t in enumerate(classes) if alive[row[t]]]
        walk = [(index + (i,), nxt) for index, c in walk for i, nxt in steps[c]]
    return [
        ({a.name: space.points[a.name][i] for a, i in zip(attrs, index)}, *verdicts[c])
        for index, c in walk
    ]
