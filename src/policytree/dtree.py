"""Decision trees over rule schemas.

A tree has one level per condition attribute, in schema order, then an
action level.  Edges at condition levels carry value sets; edges at the
action level carry a single decision label plus the id of the rule that
owns that region (branches end in an implicit null leaf).  A root-to-leaf
path is a branch and reads as one rule.

A tree is *relevant* when, at every node, the labels of the outgoing edges
are pairwise disjoint, so any packet follows at most one branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .model import ComponentKind, Rule, RuleSet, Schema
from .ruleio import format_value
from .values import ValueSet

__all__ = [
    "Edge",
    "Node",
    "DecisionTree",
    "Branch",
    "branches",
    "flattened",
    "flattening_key",
    "tree_to_rules",
    "dump_tree",
    "action_label",
]


@dataclass(slots=True)
class Edge:
    """A labelled edge.  ``owner`` is set on action edges only.

    Only the input of :func:`policytree.rdt.normalize` holds condition
    labels that are :class:`~policytree.values.Cells` masks, not value sets.
    """

    label: ValueSet
    child: "Node | None"
    owner: int | None = None


@dataclass(slots=True)
class Node:
    """A tree node at a 1-based level; the last level is the action level."""

    level: int
    edges: list[Edge] = field(default_factory=list)


@dataclass
class DecisionTree:
    schema: Schema
    root: Node
    component_name: str = ""
    component_kind: ComponentKind = ComponentKind.FILTERING

    @property
    def action_level(self) -> int:
        return len(self.schema.condition_attributes) + 1

    def attribute_at(self, level: int):
        return self.schema.condition_attributes[level - 1]


class Branch(NamedTuple):
    """One root-to-leaf path: condition labels in level order, then the action."""

    labels: tuple[ValueSet, ...]
    action: str
    owner: int


def action_label(edge: Edge) -> str:
    (label,) = tuple(edge.label.labels or ())
    return label


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------


def branches(t: DecisionTree) -> list[Branch]:
    """All branches in depth-first order (sibling edges in stored order)."""
    out: list[Branch] = []
    _branches(t.root, t.action_level, [], out)
    return out


def _branches(node: Node, action_level: int, acc: list[ValueSet], out: list[Branch]) -> None:
    if node.level == action_level:
        for e in node.edges:
            out.append(Branch(labels=tuple(acc), action=action_label(e), owner=e.owner or 0))
        return
    for e in node.edges:
        acc.append(e.label)
        _branches(e.child, action_level, acc, out)
        acc.pop()


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _region_key(v: ValueSet) -> tuple:
    if v.is_wildcard:
        return (0, "", 0, "")
    if v.intervals is not None:
        lo = v.intervals[0][0] if v.intervals else -1
        return (1, "", lo, "I" + ";".join(f"{a}-{b}" for a, b in v.intervals))
    return (2, ",".join(sorted(v.labels or ())), 0, "")


def flattening_key(b: Branch, keys: dict[ValueSet, tuple]) -> tuple:
    """Flattening order's key: the owner, then the region (``keys`` memoizes by label)."""
    region = [keys.get(v) or keys.setdefault(v, _region_key(v)) for v in b.labels]
    return (b.owner, tuple(region))


def flattened(t: DecisionTree) -> list[Branch]:
    """The branches in flattening order: by owning rule id, then by region."""
    keys: dict[ValueSet, tuple] = {}
    return sorted(branches(t), key=lambda b: flattening_key(b, keys))


def tree_to_rules(t: DecisionTree, origin_map: dict[int, str] | None = None) -> RuleSet:
    """Read the branches back as an ordered rule set, in :func:`flattened` order.

    Ids are renumbered consecutively.  The result is not checked again: ``t``
    must come from ``build_rdt`` or ``project`` over checked rules, whose labels
    are cell decodes of checked values (or a subset of those edges) and whose
    actions are checked rules' actions.
    """
    names, origins = t.schema.condition_names, origin_map or {}
    rules = tuple(
        Rule(new_id, dict(zip(names, b.labels)), b.action, origins.get(b.owner, t.component_name))
        for new_id, b in enumerate(flattened(t), start=1)
    )
    return RuleSet._of_checked(t.schema, rules, t.component_kind, t.component_name)


def dump_tree(t: DecisionTree) -> str:
    """Indented text rendering, one edge per line (diagnostics only)."""
    lines: list[str] = [f"tree {t.component_name or '<unnamed>'}"]
    _dump(t, t.root, 1, lines)
    return "\n".join(lines) + "\n"


def _dump(t: DecisionTree, node: Node, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if node.level == t.action_level:
        for e in node.edges:
            owner = f" [r{e.owner}]" if e.owner is not None else ""
            lines.append(f"{pad}{t.schema.decision_attribute.name}: {action_label(e)}{owner}")
        return
    attr = t.attribute_at(node.level)
    for e in node.edges:
        lines.append(f"{pad}{attr.name} = {format_value(e.label, attr)}")
        _dump(t, e.child, depth + 1, lines)
