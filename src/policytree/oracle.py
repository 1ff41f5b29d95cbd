"""Packet-level referee, independent of the tree construction.

This module answers "what does this rule set do to this packet?" straight
from the ordered rules, under two semantics:

* ``first-match``: the first matching rule wins;
* ``owner-capture``: rule 1 owns whatever it matches; each later rule
  claims the still-unowned part of its region and additionally takes over
  any region whose current owner it fits strictly inside (it is the more
  specific rule).  This is the reference for the specificity construction
  policy, computed here rule-by-rule without any tree involved.

It also cuts each numeric domain into elementary cells, the maximal
intervals on which no rule value changes, and keeps one packet per cell
(label domains are enumerated in full).  Every rule matches all of a cell
or none of it, so checking one point per cell is exact.  A tree decides a
packet as its :func:`~policytree.dtree.tree_to_rules` flattening does under
first match; the comparison of a tree against a rule set also cuts at the
tree's own label bounds, so it stays exact for any tree.  "No decision" is
a first class outcome throughout (``None`` scalar, ``-1`` in grids).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import prod

import numpy as np

from .dtree import DecisionTree, tree_to_rules
from .model import AttributeDef, Rule, RuleSet, Schema, SchemaError
from .values import ValueSet, contains_point, vs_compare

__all__ = [
    "Packet",
    "Semantics",
    "DomainSpace",
    "endpoint_space",
    "matches",
    "evaluate",
    "evaluate_rule",
    "equivalence",
]

Packet = dict[str, "int | str"]


class Semantics(str, Enum):
    FIRST_MATCH = "first-match"
    OWNER_CAPTURE = "owner-capture"


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


def evaluate_rule(rs: RuleSet, packet: Packet, semantics: Semantics) -> Rule | None:
    """The rule that decides one packet, or ``None`` for no match."""
    if semantics is Semantics.FIRST_MATCH:
        for rule in rs.rules:
            if matches(packet, rule, rs.schema):
                return rule
        return None
    owner: Rule | None = None
    for rule in rs.rules:
        if matches(packet, rule, rs.schema):
            if owner is None or _strictly_inside(rule, owner, rs.schema):
                owner = rule
    return owner


def evaluate(rs: RuleSet, packet: Packet, semantics: Semantics) -> str | None:
    """The rule set's decision for one packet, or ``None`` for no match."""
    rule = evaluate_rule(rs, packet, semantics)
    return rule.action if rule else None


# ---------------------------------------------------------------------------
# domain discretization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpace:
    """A grid of packets: one point list per attribute, crossed."""

    schema: Schema
    points: dict[str, tuple]

    def size(self) -> int:
        return prod(len(p) for p in self.points.values())

    def iter_packets(self):
        names = self.schema.condition_names
        for combo in itertools.product(*(self.points[n] for n in names)):
            yield dict(zip(names, combo))


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

    All rule sets must share one schema.  Label attributes enumerate their
    whole domain; interval attributes keep the first point of every cell
    cut by the domain and the rule values (see :func:`_cell_starts`).
    """
    if not rulesets:
        raise ValueError("endpoint_space needs at least one rule set")
    schema = rulesets[0].schema
    for rs in rulesets[1:]:
        if rs.schema != schema:
            raise SchemaError("endpoint_space requires a shared schema")
    points: dict[str, tuple] = {}
    for attr in schema.condition_attributes:
        if attr.kind.is_numeric:
            vals = [r.condition[attr.name] for rs in rulesets for r in rs.rules]
            points[attr.name] = tuple(sorted(_cell_starts(attr, vals)))
        else:
            points[attr.name] = tuple(sorted(attr.domain.labels or ()))
    return DomainSpace(schema=schema, points=points)


def _cut_by(space: DomainSpace, rs: RuleSet) -> DomainSpace:
    """``space`` with the cell starts of ``rs``'s own values added."""
    points = dict(space.points)
    for attr in rs.schema.condition_attributes:
        if attr.kind.is_numeric:
            vals = [r.condition[attr.name] for r in rs.rules]
            points[attr.name] = tuple(sorted(_cell_starts(attr, vals).union(points[attr.name])))
    return DomainSpace(schema=space.schema, points=points)


# ---------------------------------------------------------------------------
# grid evaluation (whole space at once)
# ---------------------------------------------------------------------------


class _Grid:
    def __init__(self, schema: Schema, space: DomainSpace):
        self.schema = schema
        self.names = schema.condition_names
        self.shape = tuple(len(space.points[n]) for n in self.names)
        self.space = space
        self._axis_cache: dict[tuple[str, ValueSet], np.ndarray] = {}
        codes = sorted(schema.decision_attribute.domain.labels or ())
        self.code_of = {label: i for i, label in enumerate(codes)}
        self.label_of = dict(enumerate(codes))

    def axis_mask(self, axis: int, v: ValueSet) -> np.ndarray:
        attr = self.schema.condition_attributes[axis]
        key = (attr.name, v)
        mask = self._axis_cache.get(key)
        if mask is None:
            pts = self.space.points[attr.name]
            mask = np.fromiter(
                (contains_point(v, p, attr.domain) for p in pts), dtype=bool, count=len(pts)
            )
            self._axis_cache[key] = mask
        shape = tuple(self.shape[k] if k == axis else 1 for k in range(len(self.shape)))
        return mask.reshape(shape)

    def rule_mask(self, rule: Rule) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        for axis, name in enumerate(self.names):
            mask = mask & self.axis_mask(axis, rule.condition[name])
        return mask

    def packet_at(self, index: tuple[int, ...]) -> Packet:
        return {
            name: self.space.points[name][i] for name, i in zip(self.names, index)
        }


def _grid_rules(grid: _Grid, rs: RuleSet, semantics: Semantics) -> np.ndarray:
    decisions = np.full(grid.shape, -1, dtype=np.int16)
    if semantics is Semantics.FIRST_MATCH:
        for rule in rs.rules:
            todo = grid.rule_mask(rule) & (decisions == -1)
            decisions[todo] = grid.code_of[rule.action]
        return decisions

    owner = np.full(grid.shape, -1, dtype=np.int16)
    rules = rs.rules
    for idx, rule in enumerate(rules):
        mask = grid.rule_mask(rule)
        capturable = [o for o in range(idx) if _strictly_inside(rule, rules[o], rs.schema)]
        takeover = np.isin(owner, capturable) if capturable else np.zeros(grid.shape, dtype=bool)
        claim = mask & ((owner == -1) | takeover)
        owner[claim] = idx
    action_codes = np.array(
        [-1] + [grid.code_of[r.action] for r in rules], dtype=np.int16
    )
    return action_codes[owner + 1]


def equivalence(
    tree: DecisionTree, rs: RuleSet, semantics: Semantics, space: DomainSpace
) -> list[tuple[Packet, str | None, str | None]]:
    """Counterexamples where the tree and the rules disagree.

    Returns ``(packet, tree decision, rule decision)`` triples in point
    order; empty means the tree reproduces the reference semantics on
    every packet of ``space`` cut further at the tree's own label bounds.
    """
    if tree.schema != rs.schema:
        raise SchemaError("tree and rule set must share a schema")
    flat = tree_to_rules(tree)
    space = _cut_by(space, flat)
    grid = _Grid(rs.schema, space)
    by_tree = _grid_rules(grid, flat, Semantics.FIRST_MATCH)
    by_rules = _grid_rules(grid, rs, semantics)
    out = []
    for idx in np.argwhere(by_tree != by_rules):
        index = tuple(idx)
        out.append(
            (
                grid.packet_at(index),
                grid.label_of.get(int(by_tree[index])),
                grid.label_of.get(int(by_rules[index])),
            )
        )
    return out
