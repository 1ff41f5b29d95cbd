"""Building relevant decision trees from ordered rule sets.

Rules are inserted in order.  At each node the incoming value set is
decomposed against the sibling edges: the part covered by an existing edge
descends into (a copy of) that subtree, splitting the edge when the overlap
is proper, and whatever remains becomes a fresh edge carrying the rest of
the rule.  When an insertion reaches an action leaf, the region already has
an owner and the conflict policy decides who keeps it:

* ``specificity-then-order`` (default): the incoming rule captures the
  region only when its original condition fits strictly inside the owner's
  original condition (it is the more specific rule).  Ownership transfers
  even when both rules agree on the action.  Otherwise the owner keeps the
  region and the incoming suffix is dropped there; normalization afterwards
  heals any splits this left behind.
* ``first-match``: the owner always keeps the region, reproducing ordered
  first-match semantics.

The result is always relevant: sibling labels are pairwise disjoint by
construction, and every action node carries exactly one action edge.

Every label is a Boolean combination of the rules' value sets, so the tree
is built and normalized over :class:`~policytree.values.Cells` masks, one
codec per condition attribute, and its labels are read back as value sets
once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .dtree import DecisionTree, Edge, Node, copy_node
from .model import Rule, RuleSet
from .relations import RelationKind, relate
from .values import Cells, labels

__all__ = [
    "ConflictPolicy",
    "RelevantDecisionTree",
    "build_rdt",
]


class ConflictPolicy(str, Enum):
    SPECIFICITY = "specificity-then-order"
    FIRST_MATCH = "first-match"


@dataclass
class RelevantDecisionTree:
    """A normalized relevant tree plus the policy that built it."""

    tree: DecisionTree
    policy: ConflictPolicy


@dataclass
class _MaskTree:
    """A tree under construction: condition labels are masks of ``cells``."""

    root: Node
    cells: tuple[Cells, ...]  # one codec per condition level


class _Inserter:
    def __init__(self, rs: RuleSet, policy: ConflictPolicy):
        self.rs = rs
        self.policy = policy
        self.action_level = len(rs.schema.condition_attributes) + 1
        cells = tuple(
            Cells(attr.domain, [r.condition[attr.name] for r in rs.rules])
            for attr in rs.schema.condition_attributes
        )
        self.tree = _MaskTree(root=Node(level=1), cells=cells)
        self._capture_cache: dict[tuple[int, int], bool] = {}

    def _captures(self, incoming: Rule, owner_id: int) -> bool:
        if self.policy is ConflictPolicy.FIRST_MATCH:
            return False
        key = (incoming.id, owner_id)
        if key not in self._capture_cache:
            rel = relate(incoming, self.rs.rule(owner_id), self.rs.schema)
            self._capture_cache[key] = rel.kind is RelationKind.FORWARD
        return self._capture_cache[key]

    def _chain(self, rule: Rule, masks: tuple[int, ...], level: int) -> Node:
        if level == self.action_level:
            return Node(level=level, edges=[Edge(labels(rule.action), child=None, owner=rule.id)])
        child = self._chain(rule, masks, level + 1)
        return Node(level=level, edges=[Edge(masks[level - 1], child)])

    def insert(self, rule: Rule) -> None:
        masks = tuple(
            cells.mask(rule.condition[attr.name])
            for cells, attr in zip(self.tree.cells, self.rs.schema.condition_attributes)
        )
        self._insert(self.tree.root, rule, masks)

    def _insert(self, node: Node, rule: Rule, masks: tuple[int, ...]) -> None:
        if node.level == self.action_level:
            incumbent = node.edges[0]
            if incumbent.owner is not None and self._captures(rule, incumbent.owner):
                node.edges[0] = Edge(labels(rule.action), child=None, owner=rule.id)
            return

        v = masks[node.level - 1]
        for edge in list(node.edges):
            if not v:
                break
            inter = v & edge.label
            if not inter:
                continue
            if inter == edge.label:
                # the whole edge lies inside the incoming value: descend
                self._insert(edge.child, rule, masks)
            else:
                # proper overlap: the untouched remainder keeps the subtree,
                # the intersection continues with a private copy
                edge.label &= ~inter
                carved = Edge(inter, copy_node(edge.child))
                node.edges.append(carved)
                self._insert(carved.child, rule, masks)
            v &= ~inter
        if v:
            node.edges.append(Edge(v, self._chain(rule, masks, node.level + 1)))


def normalize(t: _MaskTree) -> _MaskTree:
    """Merge sibling edges whose subtrees decide alike, in place.

    Subtrees decide alike when they have the same labels and actions; their
    owners may differ.  Merged labels are ORed, so a merge that covers the
    whole domain is the full mask, which reads back as the wildcard.  The
    merged edge keeps the subtree with the earliest owner (the first such
    one in edge order).  Packet decisions are unchanged.
    """
    shapes: dict = {}  # a subtree's labels and actions -> a small id
    action_level = len(t.cells) + 1

    def merge(node: Node) -> tuple[int, int]:
        """Merge below ``node``; return its shape id and its earliest owner."""
        if node.level == action_level:
            (edge,) = node.edges
            return shapes.setdefault(edge.label, len(shapes)), edge.owner
        groups: dict[int, list[tuple[int, Edge]]] = {}
        for edge in node.edges:
            shape, owner = merge(edge.child)
            groups.setdefault(shape, []).append((owner, edge))
        node.edges, owners = [], []
        for members in groups.values():
            owner, kept = min(members, key=lambda m: m[0])
            for _, edge in members:
                kept.label |= edge.label
            node.edges.append(kept)
            owners.append(owner)
        key = frozenset(zip((e.label for e in node.edges), groups))
        return shapes.setdefault(key, len(shapes)), min(owners, default=0)

    merge(t.root)
    return t


def _decode(node: Node, cells: tuple[Cells, ...]) -> None:
    """Replace every condition mask below ``node`` by its value set."""
    if node.level > len(cells):
        return
    codec = cells[node.level - 1]
    for edge in node.edges:
        edge.label = codec.value(edge.label)
        _decode(edge.child, cells)


def build_rdt(rs: RuleSet, policy: ConflictPolicy = ConflictPolicy.SPECIFICITY) -> RelevantDecisionTree:
    """Insert every rule in order, normalize, and read the labels back as value sets."""
    inserter = _Inserter(rs, policy)
    for rule in rs.rules:
        inserter.insert(rule)
    built = normalize(inserter.tree)
    _decode(built.root, built.cells)
    tree = DecisionTree(
        schema=rs.schema,
        root=built.root,
        component_name=rs.component_name,
        component_kind=rs.component_kind,
    )
    return RelevantDecisionTree(tree=tree, policy=policy)

