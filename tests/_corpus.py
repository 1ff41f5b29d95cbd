"""Seeded random rule-set generators and reference code shared by the tests.

Domains are kept small on purpose: the packet referee in
``policytree.oracle`` is the ground truth for most properties, its cost is
the product of the per-attribute cell counts, and some tests compare it
with a space that lists every point (see :func:`enumerate_points`).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from hypothesis import strategies as st

from policytree import rdt
from policytree.correction import _is_specific, correct_ruleset
from policytree.dtree import (
    DecisionTree,
    Edge,
    Node,
    branches,
    dump_tree,
    flattened,
    tree_to_rules,
)
from policytree.model import (
    BLOCK_ACTIONS,
    PERMIT_ACTIONS,
    AttributeDef,
    ComponentKind,
    Rule,
    RuleSet,
    Schema,
    SchemaError,
    complete_label_domain,
)
from policytree.oracle import DomainSpace
from policytree.relations import RelationKind, relate
from policytree.ruleio import parse_ruleset, serialize_ruleset
from policytree.values import (
    ANY,
    AttrKind,
    Cells,
    ValueSet,
    contains_point,
    intervals,
    labels,
    vs_compare,
)


def enumerate_points(v: ValueSet, domain: ValueSet) -> list:
    """Every value of ``v`` in ``domain``, in order.  Only sensible for small domains."""
    v = domain if v.is_wildcard else v
    if v.labels is not None:
        return sorted(v.labels)
    return [x for lo, hi in v.intervals for x in range(lo, hi + 1)]


def iter_packets(space: DomainSpace):
    """Every packet of ``space``'s grid, in grid order."""
    names = space.schema.condition_names
    for combo in itertools.product(*(space.points[n] for n in names)):
        yield dict(zip(names, combo))


def is_correlated(kind: RelationKind) -> bool:
    """Whether ``kind`` is one of the two correlation kinds of the scalar ``relate``."""
    return kind in (RelationKind.CORRELATED, RelationKind.CORRELATED_GENERAL)


class ActionClass(Enum):
    PERMIT = "permit"
    BLOCK = "block"


def action_class(label: str) -> ActionClass:
    """The class of a decision label, for the scalar anomaly references."""
    if label in PERMIT_ACTIONS:
        return ActionClass.PERMIT
    if label in BLOCK_ACTIONS:
        return ActionClass.BLOCK
    raise SchemaError(f"unknown decision label {label!r}")


def ruleset_from_dict(d: dict) -> RuleSet:
    """The rule set that a ``.json`` rule file holding ``d`` loads as."""
    return parse_ruleset(json.dumps(d), source="<dict>.json")


def build_tree(rs: RuleSet) -> DecisionTree:
    """The plain (uncorrected) tree: one branch per rule.

    Prefixes are shared only when edge labels are structurally identical,
    so the branch list reads back as the original ordered rules, and the
    tree overlaps wherever the rules do.
    """
    root = Node(level=1)
    for rule in rs.rules:
        node = root
        for level, attr in enumerate(rs.schema.condition_attributes, start=1):
            v = rule.condition[attr.name]
            edge = next((e for e in node.edges if e.label == v), None)
            if edge is None:
                edge = Edge(label=v, child=Node(level=level + 1))
                node.edges.append(edge)
            node = edge.child
        node.edges.append(Edge(label=labels(rule.action), child=None, owner=rule.id))
    return DecisionTree(
        schema=rs.schema,
        root=root,
        component_name=rs.component_name,
        component_kind=rs.component_kind,
    )


def tree_decider(t: DecisionTree):
    """The tree's decision for each packet; ``None`` when no branch matches.

    The first branch, in :func:`~policytree.dtree.flattened` order, whose
    labels hold the packet decides, so a tree decides as its flattening
    does under first match.  The tree is flattened once, here, for every
    packet the returned function decides.
    """
    names = set(t.schema.condition_names)
    attrs = t.schema.condition_attributes
    flat = flattened(t)

    def decide(packet: dict) -> str | None:
        missing = names - set(packet)
        if missing:
            raise SchemaError("packet is missing " + ", ".join(sorted(missing)))
        for b in flat:
            if all(contains_point(v, packet[a.name], a.domain) for v, a in zip(b.labels, attrs)):
                return b.action
        return None

    return decide


def evaluate_tree(t: DecisionTree, packet: dict) -> str | None:
    """Decision for one packet, by :func:`tree_decider`."""
    return tree_decider(t)(packet)


@dataclass(frozen=True)
class RelevancyViolation:
    """Two sibling edges whose labels overlap, with the path leading there."""

    attribute: str
    path: tuple[ValueSet, ...]
    label_a: ValueSet
    label_b: ValueSet


def check_relevant(t: DecisionTree) -> list[RelevancyViolation]:
    """Empty iff every node's outgoing labels are pairwise disjoint."""
    out: list[RelevancyViolation] = []
    _violations(t, t.root, (), out)
    return out


def _violations(
    t: DecisionTree, node: Node, path: tuple[ValueSet, ...], out: list[RelevancyViolation]
) -> None:
    at_action = node.level == t.action_level
    attr = t.schema.decision_attribute if at_action else t.attribute_at(node.level)
    for i, a in enumerate(node.edges):
        for b in node.edges[i + 1 :]:
            if vs_compare(a.label, b.label, attr.domain)[2]:
                out.append(RelevancyViolation(attr.name, path, a.label, b.label))
    if not at_action:
        for e in node.edges:
            _violations(t, e.child, path + (e.label,), out)


def copy_node(node: Node) -> Node:
    """A deep copy: no node of the copy is shared with the original."""
    return Node(
        level=node.level,
        edges=[Edge(e.label, copy_node(e.child) if e.child else None, e.owner) for e in node.edges],
    )


def node_counts(root: Node) -> tuple[int, int]:
    """Distinct nodes, and nodes on the tree that expands every shared one."""
    distinct, expanded, todo = set(), 0, [root]
    while todo:
        node = todo.pop()
        distinct.add(id(node))
        expanded += 1
        todo.extend(e.child for e in node.edges if e.child is not None)
    return len(distinct), expanded


def texts(t: DecisionTree) -> tuple[str, str]:
    """The tree's dump and its flattened rule file: the bytes a tree is compared by."""
    return dump_tree(t), serialize_ruleset(tree_to_rules(t))


def reference_rdt(rs: RuleSet, policy: rdt.ConflictPolicy) -> DecisionTree:
    """The relevant tree built by plain sequential insertion, as an independent reference.

    Each rule is inserted in order.  At a proper overlap the edge keeps its
    remainder, and the intersection follows with a private copy of the
    subtree; the rule's cells that no edge holds become a fresh chain.  At
    an action leaf the incoming rule takes the region only when the policy
    lets it capture the owner.  A rule with an empty value set is skipped.
    Then :func:`policytree.rdt.normalize`, and the masks read back as value
    sets.
    """
    attrs = rs.schema.condition_attributes
    action_level = len(attrs) + 1
    cells = tuple(Cells(a.domain, [r.condition[a.name] for r in rs.rules]) for a in attrs)

    def captures(incoming: Rule, owner: int) -> bool:
        if policy is rdt.ConflictPolicy.FIRST_MATCH:
            return False
        return relate(incoming, rs.rules[owner - 1], rs.schema).kind is RelationKind.FORWARD

    def chain(rule: Rule, masks: tuple[int, ...], level: int) -> Node:
        if level == action_level:
            return Node(level, [Edge(labels(rule.action), None, owner=rule.id)])
        return Node(level, [Edge(masks[level - 1], chain(rule, masks, level + 1))])

    def insert(node: Node, rule: Rule, masks: tuple[int, ...]) -> None:
        if node.level == action_level:
            if captures(rule, node.edges[0].owner):
                node.edges[0] = Edge(labels(rule.action), None, owner=rule.id)
            return
        v = masks[node.level - 1]
        for edge in list(node.edges):
            inter = v & edge.label
            if not inter:
                continue
            if inter != edge.label:
                edge.label &= ~inter
                edge = Edge(inter, copy_node(edge.child))
                node.edges.append(edge)
            insert(edge.child, rule, masks)
            v &= ~inter
        if v:
            node.edges.append(Edge(v, chain(rule, masks, node.level + 1)))

    root = Node(level=1)
    for rule in rs.rules:
        masks = tuple(c.mask(rule.condition[a.name]) for c, a in zip(cells, attrs))
        if all(masks):  # a rule with an empty value set matches no packet
            insert(root, rule, masks)
    rdt.normalize(rdt._MaskTree(root=root, cells=cells))

    def decode(node: Node) -> None:
        if node.level < action_level:
            for edge in node.edges:
                edge.label = cells[node.level - 1].value(edge.label)
                decode(edge.child)

    decode(root)
    return DecisionTree(
        schema=rs.schema,
        root=root,
        component_name=rs.component_name,
        component_kind=rs.component_kind,
    )


def reference_project(
    tree: DecisionTree,
    attributes: Sequence[str],
    *,
    designated: str | None = None,
) -> DecisionTree:
    """Projection branch by branch, as an independent reference.

    Every branch of the expanded tree whose foreign labels are all wildcards
    (and, given ``designated``, whose designated label is specific) is
    re-inserted along its kept labels, sharing a prefix where a label is
    equal.  Two branches that reach one projected region raise.
    """
    names = list(tree.schema.condition_names)
    keep_idx = [i for i, n in enumerate(names) if n in attributes]
    foreign_idx = [i for i, n in enumerate(names) if n not in attributes]
    designated_idx = None if designated is None else names.index(designated)
    schema = Schema(
        condition_attributes=tuple(tree.schema.condition_attributes[i] for i in keep_idx),
        decision_attribute=tree.schema.decision_attribute,
    )
    root = Node(level=1)
    for b in branches(tree):
        if any(not b.labels[i].is_wildcard for i in foreign_idx):
            continue
        if designated_idx is not None and not _is_specific(b.labels[designated_idx]):
            continue
        node = root
        for level, i in enumerate(keep_idx, start=1):
            label = b.labels[i]
            edge = next((e for e in node.edges if e.label == label), None)
            if edge is None:
                edge = Edge(label=label, child=Node(level=level + 1))
                node.edges.append(edge)
            node = edge.child
        if node.edges:
            raise ValueError("projection collapsed two distinct regions")
        node.edges.append(
            Edge(label=ValueSet(labels=frozenset({b.action})), child=None, owner=b.owner)
        )
    return DecisionTree(
        schema=schema,
        root=root,
        component_name=tree.component_name,
        component_kind=tree.component_kind,
    )


_DOMAIN_SIZES = (40, 15, 8, 8)
_PAIR_SIZES = (20, 12, 8)
_ATTACKS = ("probe", "flood", "worm")


def interval_schema(n_attrs: int, sizes: tuple[int, ...] = _DOMAIN_SIZES) -> Schema:
    attrs = tuple(
        AttributeDef(f"f{i}", AttrKind.INTEGER_RANGE, intervals(((0, sizes[i] - 1),)))
        for i in range(n_attrs)
    )
    decision = AttributeDef("action", AttrKind.LABEL_ENUM, labels("accept", "deny"))
    return Schema(condition_attributes=attrs, decision_attribute=decision)


def random_value(rng: random.Random, attr: AttributeDef, wildcard_p: float = 0.15) -> ValueSet:
    if rng.random() < wildcard_p:
        return ANY
    size = attr.domain.intervals[0][1] + 1
    n_atoms = 1 if rng.random() < 0.7 else 2
    spans = []
    for _ in range(n_atoms):
        a, b = rng.randrange(size), rng.randrange(size)
        spans.append((min(a, b), max(a, b)))
    v = intervals(tuple(spans))
    return ANY if v == attr.domain else v


def random_ruleset(
    rng: random.Random,
    *,
    max_rules: int = 20,
    n_attrs: int | None = None,
    name: str = "GEN",
) -> RuleSet:
    schema = interval_schema(n_attrs or rng.randint(2, 4))
    t = rng.randint(1, max_rules)
    rules = tuple(
        Rule(
            i,
            {a.name: random_value(rng, a) for a in schema.condition_attributes},
            rng.choice(("accept", "deny")),
        )
        for i in range(1, t + 1)
    )
    return RuleSet(schema=schema, rules=rules, component_name=name)


def random_component_pair(rng: random.Random) -> tuple[RuleSet, RuleSet]:
    """A filtering component and the alerting component behind it.

    The alerting schema shares the filter's attributes (in rotated order,
    to exercise schema extension) and adds a trailing attack-class label.
    Both sets come back self-corrected, i.e. with pairwise-disjoint rules.
    """
    n_shared = rng.randint(2, 3)
    shared = tuple(
        AttributeDef(f"f{i}", AttrKind.INTEGER_RANGE, intervals(((0, _PAIR_SIZES[i] - 1),)))
        for i in range(n_shared)
    )
    p_schema = Schema(
        condition_attributes=shared,
        decision_attribute=AttributeDef("action", AttrKind.LABEL_ENUM, labels("accept", "deny")),
    )
    rot = rng.randrange(n_shared)
    attack_domain = labels(*complete_label_domain(AttrKind.LABEL_ENUM, frozenset(_ATTACKS)))
    f_schema = Schema(
        condition_attributes=shared[rot:] + shared[:rot]
        + (AttributeDef("attack", AttrKind.LABEL_ENUM, attack_domain),),
        decision_attribute=AttributeDef("action", AttrKind.LABEL_ENUM, labels("reject", "pass")),
    )

    t_p = rng.randint(1, 8)
    p_rules = tuple(
        Rule(
            i,
            {a.name: random_value(rng, a) for a in shared},
            rng.choice(("accept", "deny")),
        )
        for i in range(1, t_p + 1)
    )
    preceding = RuleSet(
        schema=p_schema,
        rules=p_rules,
        component_kind=ComponentKind.FILTERING,
        component_name="P",
    )

    t_f = rng.randint(1, 5)
    f_rules = tuple(
        Rule(
            i,
            {
                **{a.name: random_value(rng, a, wildcard_p=0.3) for a in shared},
                "attack": labels(rng.choice(_ATTACKS)),
            },
            "reject",
        )
        for i in range(1, t_f + 1)
    )
    following = RuleSet(
        schema=f_schema,
        rules=f_rules,
        component_kind=ComponentKind.ALERTING,
        component_name="S",
    )
    return correct_ruleset(preceding), correct_ruleset(following)


# ---------------------------------------------------------------------------
# hypothesis strategies over every attribute kind
# ---------------------------------------------------------------------------

_ADDR0 = (10 << 24) + 7  # 10.0.0.7
MIXED_ATTRS = (
    AttributeDef("port", AttrKind.PORT_RANGE, intervals(((0, 15),))),
    AttributeDef("size", AttrKind.INTEGER_RANGE, intervals(((1, 9),))),
    AttributeDef("addr", AttrKind.IPV4_RANGE, intervals(((_ADDR0, _ADDR0 + 23),))),
    AttributeDef("proto", AttrKind.PROTOCOL_ENUM, labels("TCP", "UDP", "ICMP")),
    AttributeDef(
        "attack",
        AttrKind.LABEL_ENUM,
        ValueSet(labels=complete_label_domain(AttrKind.LABEL_ENUM, frozenset({"probe", "worm"}))),
    ),
)
_DECISION = AttributeDef("action", AttrKind.LABEL_ENUM, labels("accept", "pass", "deny", "reject"))


def mixed_values(attr: AttributeDef):
    """Wildcards, the explicit full domain, empty sets and proper subsets."""
    if attr.kind.is_numeric:
        lo, hi = attr.domain.intervals[0]
        bound = st.integers(lo, hi)
        some = st.lists(st.tuples(bound, bound).map(sorted), min_size=1, max_size=3).map(intervals)
        empty = ValueSet(intervals=())
    else:  # the open label enumeration's domain holds COMPLEMENT_LABEL, so it is drawn too
        some = st.frozensets(st.sampled_from(sorted(attr.domain.labels)), min_size=1).map(
            lambda names: ValueSet(labels=names)
        )
        empty = ValueSet(labels=frozenset())
    return st.one_of(st.sampled_from([ANY, attr.domain, empty]), some, some)


@st.composite
def mixed_schemas(draw) -> Schema:
    # five attributes let one pair show all five field relations at once
    chosen = draw(st.lists(st.sampled_from(MIXED_ATTRS), min_size=1, max_size=5, unique=True))
    return Schema(condition_attributes=tuple(chosen), decision_attribute=_DECISION)


@st.composite
def mixed_rulesets(draw, schema: Schema, name: str) -> RuleSet:
    # a few values per attribute, so that rules share them as real rule sets do
    pools = {
        a.name: draw(st.lists(mixed_values(a), min_size=1, max_size=5))
        for a in schema.condition_attributes
    }
    n = draw(st.integers(0, 12))
    rules = tuple(
        Rule(
            i,
            {name: draw(st.sampled_from(pool)) for name, pool in pools.items()},
            draw(st.sampled_from(sorted(_DECISION.domain.labels))),
        )
        for i in range(1, n + 1)
    )
    return RuleSet(schema=schema, rules=rules, component_name=name)
