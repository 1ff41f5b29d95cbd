"""Building relevant decision trees from ordered rule sets.

The tree reads as if the rules were inserted in order.  At each node the
incoming value set is decomposed against the sibling edges: the part
covered by an existing edge descends into that subtree, splitting the edge
when the overlap is proper, and whatever remains becomes a fresh edge
carrying the rest of the rule.  Each distinct subtree is built once (see
:func:`_build`).  Where several rules reach a region, the first owns it
and the conflict policy decides whether a later one takes it:

* ``specificity-then-order`` (default): the incoming rule captures the
  region only when its original condition fits strictly inside the owner's
  original condition (it is the more specific rule).  Ownership transfers
  even when both rules agree on the action.  Otherwise the owner keeps the
  region and the incoming suffix is dropped there; sibling edges whose
  subtrees decide alike are merged as each node is made.
* ``first-match``: the owner always keeps the region, reproducing ordered
  first-match semantics.

The result is always relevant: sibling labels are pairwise disjoint by
construction, and every action node carries exactly one action edge.

Every label is a Boolean combination of the rules' value sets, so the tree
is built and merged over :class:`~policytree.values.Cells` masks, one
codec per condition attribute, and its labels are read back as value sets
once, at the end.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .dtree import DecisionTree, Edge, Node
from .model import RuleSet
from .relations import relate  # noqa: F401  perfbench/spans.py wraps this name here
from .values import Cells, labels

__all__ = [
    "ConflictPolicy",
    "RelevantDecisionTree",
    "build_rdt",
]


class ConflictPolicy(str, Enum):
    SPECIFICITY = "specificity-then-order"
    FIRST_MATCH = "first-match"


class RelevantDecisionTree(NamedTuple):
    """A merged relevant tree plus the policy that built it."""

    tree: DecisionTree
    policy: ConflictPolicy


class _MaskTree(NamedTuple):
    """A tree under construction: condition labels are masks of ``cells``."""

    root: Node
    cells: tuple[Cells, ...]  # one codec per condition level


def _owner(members: int, masks: list[list[int]], policy: ConflictPolicy, captures: dict) -> int:
    """The first member owns the region, unless a later one captures it.

    ``captures`` memoizes, per ``(k, owner)`` pair, whether rule ``k``
    captures from ``owner``: every mask of ``k`` lies in the owner's and
    some mask differs.
    """
    owner = (members & -members).bit_length() - 1
    while policy is not ConflictPolicy.FIRST_MATCH and (members := members & (members - 1)):
        k = (members & -members).bit_length() - 1
        if (k, owner) not in captures:
            inner = all(not m[k] & ~m[owner] for m in masks)
            captures[k, owner] = inner and any(m[k] != m[owner] for m in masks)
        owner = k if captures[k, owner] else owner
    return owner


def _split(level_masks: list[int], members: int) -> list[list[int]]:
    """The sibling edges as ``[label, members]``, replaying the members in rule order.

    An edge that a rule covers in part keeps its remainder in place, the
    intersection follows it at the end, and the rule's cells that no edge
    holds come last.
    """
    parts: list[list[int]] = []
    while members:
        bit = members & -members
        members ^= bit
        v = level_masks[bit.bit_length() - 1]
        for i in range(len(parts)):
            if not v:
                break
            part = parts[i]
            inter = v & part[0]
            if not inter:
                continue
            if inter == part[0]:
                part[1] |= bit
            else:
                part[0] &= ~inter
                parts.append([inter, part[1] | bit])
            v &= ~inter
        if v:
            parts.append([v, bit])
    return parts


class _Builder:
    """The memo tables of one :func:`_build`, and the rules it reads."""

    __slots__ = ("rules", "masks", "policy", "built", "captures", "actions", "shapes")

    def __init__(self, rules, masks: list[list[int]], policy: ConflictPolicy):
        self.rules, self.masks, self.policy = rules, masks, policy
        self.built: dict[tuple[int, int], tuple[Node, int, int]] = {}
        self.captures: dict[tuple[int, int], bool] = {}
        self.actions: dict[int, tuple[Node, int, int]] = {}  # owning rule index -> its leaf
        self.shapes: dict = {}  # a merged subtree's labels and actions -> a small id

    def node(self, level: int, members: int) -> tuple[Node, int, int]:
        """The merged subtree at ``level`` for ``members``, built once, as ``_merge`` returns it.

        Parts whose subtrees have one shape become one edge where the first of
        them was, with their labels ORed and the subtree of the earliest owner.
        """
        built = self.built.get((level, members))
        if built is None:
            if level > len(self.masks):
                k = _owner(members, self.masks, self.policy, self.captures)
                built = self.actions.get(k)
                if built is None:
                    rule, label = self.rules[k], labels(self.rules[k].action)
                    node = Node(level, [Edge(label, None, rule.id)])
                    shape = self.shapes.setdefault(label, len(self.shapes))
                    built = self.actions[k] = node, shape, rule.id
            else:
                groups: dict[int, list] = {}  # child shape -> [label, child, owner]
                for m, ms in _split(self.masks[level - 1], members):
                    child, shape, owner = self.node(level + 1, ms)
                    group = groups.setdefault(shape, [0, child, owner])
                    group[0] |= m
                    if owner < group[2]:
                        group[1:] = child, owner
                node = Node(level, [Edge(m, child) for m, child, _ in groups.values()])
                key = frozenset((g[0], shape) for shape, g in groups.items())
                owner = min((g[2] for g in groups.values()), default=0)
                built = node, self.shapes.setdefault(key, len(self.shapes)), owner
            self.built[level, members] = built
        return built


def _build(rs: RuleSet, policy: ConflictPolicy) -> _MaskTree:
    """The merged tree of ``rs``, with each distinct subtree built once.

    The subtree below a node depends only on its level and on the rules that
    reach it, an int with bit ``k`` set for ``rs.rules[k]``.  So a node is
    memoized on the pair, and parents that reach the same rules share one
    node: a decision diagram (Gouda & Liu, ICDCS 2004) whose paths read as
    in the tree that inserts the rules one by one.  Regions with the same
    owning rule share one action node.  Each node is merged as it is made.
    """
    attrs, rules = rs.schema.condition_attributes, rs.rules
    cells = tuple(Cells(a.domain, [r.condition[a.name] for r in rules]) for a in attrs)
    masks = [[c.mask(r.condition[a.name]) for r in rules] for c, a in zip(cells, attrs)]
    # a rule with an empty value set matches no packet, so it owns no region
    members = sum(1 << k for k in range(len(rules)) if all(m[k] for m in masks))
    return _MaskTree(root=_Builder(rules, masks, policy).node(1, members)[0], cells=cells)


def normalize(t: _MaskTree) -> _MaskTree:
    """Merge sibling edges whose subtrees decide alike, in place.

    Subtrees decide alike when they have the same labels and actions; their
    owners may differ.  Merged labels are ORed, so a merge that covers the
    whole domain is the full mask, which reads back as the wildcard.  The
    merged edge keeps the subtree with the earliest owner (the first such
    one in edge order).  Packet decisions are unchanged.  A node shared by
    several parents is merged once.  :func:`build_rdt` merges as it builds;
    this is the merge the tests apply to their tree of sequential insertion.
    """
    _merge(t.root, len(t.cells) + 1, {}, {})
    return t


def _merge(node: Node, action_level: int, shapes: dict, merged: dict) -> tuple[int, int]:
    """Merge below ``node``; return its shape id and its earliest owner.

    ``shapes`` maps a subtree's labels and actions to a small id, and
    ``merged`` maps ``id(node)`` to the result for a node already merged.
    """
    if id(node) in merged:
        return merged[id(node)]
    if node.level == action_level:
        (edge,) = node.edges
        return shapes.setdefault(edge.label, len(shapes)), edge.owner
    groups: dict[int, list[tuple[int, Edge]]] = {}
    for edge in node.edges:
        shape, owner = _merge(edge.child, action_level, shapes, merged)
        groups.setdefault(shape, []).append((owner, edge))
    node.edges, owners = [], []
    for members in groups.values():
        owner, kept = min(members, key=lambda m: m[0])
        for _, edge in members:
            kept.label |= edge.label
        node.edges.append(kept)
        owners.append(owner)
    key = frozenset(zip((e.label for e in node.edges), groups))
    merged[id(node)] = shapes.setdefault(key, len(shapes)), min(owners, default=0)
    return merged[id(node)]


def _decode(node: Node, cells: tuple[Cells, ...]) -> None:
    """Replace every condition mask below ``node`` by its value set.

    A shared node is decoded once: after that, its first label is no mask.
    """
    codec = cells[node.level - 1]
    for edge in node.edges:
        edge.label = codec.value(edge.label)
        child = edge.child
        if child.level <= len(cells) and isinstance(child.edges[0].label, int):
            _decode(child, cells)


def build_rdt(rs: RuleSet, policy: ConflictPolicy = ConflictPolicy.SPECIFICITY) -> RelevantDecisionTree:
    """Build the merged diagram of every rule, and read the labels back as value sets."""
    built = _build(rs, policy)
    _decode(built.root, built.cells)
    tree = DecisionTree(
        schema=rs.schema,
        root=built.root,
        component_name=rs.component_name,
        component_kind=rs.component_kind,
    )
    return RelevantDecisionTree(tree=tree, policy=policy)
