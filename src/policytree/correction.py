"""Cross-component correction: merge, re-split, and hand back rule sets.

The repair pipeline for a preceding/following pair is:

1. restate both components over the union of their attributes,
2. concatenate them into one global ordered rule set (preceding first),
3. build the relevant decision tree of that global set, and
4. project the tree back onto each component's own attributes.

The preceding (filtering) component keeps the regions that do not depend
on attributes it cannot see (*drop-specific*): a foreign level keeps only
its wildcard edge, and any region pinned to a specific value of a foreign
attribute is delegated downstream.  The following (alerting) component
keeps exactly the edges that are specific in its designated attribute,
e.g. the attack class (*keep-specific*); everything else is traffic it has
no opinion on.

Projection deliberately leaves sibling regions un-merged: a region split
caused by the other component's rules is meaningful output (it shows where
responsibility was divided), so only the edge filter and level removal are
applied.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .dtree import DecisionTree, Edge, Node, tree_to_rules
from .interop import extend_schema, union_schema
from .model import ComponentKind, ConflictPolicy, Rule, RuleSet, Schema, SchemaError
from .rdt import RelevantDecisionTree, build_rdt
from .values import COMPLEMENT_LABEL, ValueSet

__all__ = [
    "GlobalRuleSet",
    "CorrectedPair",
    "integrate",
    "correct_ruleset",
    "project",
    "correct_pair",
]


class GlobalRuleSet(NamedTuple):
    """A combined ordered rule set plus where each rule came from."""

    ruleset: RuleSet
    provenance: dict[int, tuple[str, int]]  # global id -> (component, original id)


class CorrectedPair(NamedTuple):
    preceding: RuleSet
    following: RuleSet
    rdt: RelevantDecisionTree


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def integrate(preceding: RuleSet, following: RuleSet) -> GlobalRuleSet:
    """Concatenate two same-schema rule sets in traffic order.

    Following-component rules are renumbered to run on after the preceding
    ones, preserving order within each component.  The result is not checked
    again: both inputs were, over this one schema, and the ids run on.
    """
    if preceding.schema != following.schema:
        raise SchemaError("extend both components to the shared schema first")
    provenance: dict[int, tuple[str, int]] = {}
    rules: list[Rule] = []
    for rs in (preceding, following):
        offset = len(rules)
        for rule in rs.rules:
            provenance[rule.id + offset] = (rs.component_name, rule.id)
            origin = rule.origin or rs.component_name
            rules.append(Rule(rule.id + offset, rule.condition, rule.action, origin))
    name = f"{preceding.component_name}+{following.component_name}"
    return GlobalRuleSet(
        ruleset=RuleSet._of_checked(preceding.schema, tuple(rules), preceding.component_kind, name),
        provenance=provenance,
    )


def _origin(prior: str, component: str, rule_id: int) -> str:
    """An input rule's origin: the one it names (after a repair), else ``component:rN``."""
    return prior if prior and prior != component else f"{component}:r{rule_id}"


def correct_ruleset(
    rs: RuleSet,
    policy: ConflictPolicy = ConflictPolicy.SPECIFICITY,
    *,
    built: RelevantDecisionTree | None = None,
) -> RuleSet:
    """Single-component repair: the rule set read back from its tree.

    Each output rule's origin is that of the input rule that won its region.
    ``built`` is the tree of ``rs`` under ``policy`` when the caller has
    already built it (to dump it, say); otherwise it is built here.
    """
    origin_map = {r.id: _origin(r.origin, rs.component_name, r.id) for r in rs.rules}
    return tree_to_rules((built or build_rdt(rs, policy)).tree, origin_map)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def _is_specific(label: ValueSet) -> bool:
    # a complement member means "everything the other rules did not name",
    # which is a leftover, not a deliberate choice of value
    if label.is_wildcard:
        return False
    if label.labels is not None and COMPLEMENT_LABEL in label.labels:
        return False
    return True


def project(
    tree: DecisionTree,
    attributes: Sequence[str],
    *,
    designated: str | None = None,
) -> DecisionTree:
    """Restrict a relevant tree to a subset of its condition attributes.

    ``attributes`` keeps its schema order from the source tree.  Given a
    ``designated`` attribute (one of the kept ones), the projection keeps
    only the edges specific in it (*keep-specific*); otherwise it drops
    whatever is specific in a foreign attribute (*drop-specific*).

    Each distinct source node is projected once, so the result shares nodes
    as the source does.  A foreign level keeps only its wildcard edge and
    splices in that child; a kept level keeps its edges in source order; a
    node with no surviving edge is dropped.
    """
    names = list(tree.schema.condition_names)
    wanted = set(attributes)
    unknown = wanted - set(names)
    if unknown:
        raise SchemaError(f"cannot project onto unknown attributes {sorted(unknown)}")
    if not wanted:
        raise SchemaError("projection must keep at least one attribute")
    keep_idx = [i for i, n in enumerate(names) if n in wanted]
    if designated is not None and designated not in wanted:
        raise SchemaError("keep-specific projection needs a designated kept attribute")
    designated_level = None if designated is None else names.index(designated) + 1
    # source level -> projected level; foreign levels are absent
    new_level = {i + 1: level for level, i in enumerate(keep_idx, start=1)}
    new_level[tree.action_level] = len(keep_idx) + 1
    root = _project(tree.root, new_level, designated_level, tree.action_level, {})
    return DecisionTree(
        schema=Schema(
            condition_attributes=tuple(tree.schema.condition_attributes[i] for i in keep_idx),
            decision_attribute=tree.schema.decision_attribute,
        ),
        root=root or Node(level=1),
        component_name=tree.component_name,
        component_kind=tree.component_kind,
    )


def _project(
    node: Node,
    new_level: dict[int, int],
    designated_level: int | None,
    action_level: int,
    done: dict[int, Node | None],
) -> Node | None:
    """The projection of ``node``, or None when no edge survives.

    ``new_level`` maps each kept source level to its projected level, and
    ``done`` maps ``id(node)`` to the projection of a node already seen.
    """
    if id(node) in done:
        return done[id(node)]
    level = new_level.get(node.level)
    edges = node.edges
    if level is None:
        edges = [e for e in edges if e.label.is_wildcard]
    elif node.level == designated_level:
        edges = [e for e in edges if _is_specific(e.label)]
    # a foreign or action level keeps one edge at most, a kept level
    # distinct labels: more would reach one projected region twice, which
    # cannot happen when the source tree is relevant
    one = level is None or node.level == action_level
    if len(edges) > (1 if one else len({e.label for e in edges})):
        raise ValueError("projection collapsed two distinct regions")
    if level is None:
        out = None
        if edges:
            out = _project(edges[0].child, new_level, designated_level, action_level, done)
    elif node.level == action_level:
        out = Node(level, [Edge(e.label, None, e.owner) for e in edges]) if edges else None
    else:
        kept = []
        for e in edges:
            child = _project(e.child, new_level, designated_level, action_level, done)
            if child is not None:
                kept.append(Edge(e.label, child))
        out = Node(level, kept) if kept else None
    done[id(node)] = out
    return out


# ---------------------------------------------------------------------------
# the full pair pipeline
# ---------------------------------------------------------------------------


def correct_pair(
    preceding: RuleSet,
    following: RuleSet,
    policy: ConflictPolicy = ConflictPolicy.SPECIFICITY,
    *,
    restated: tuple[RuleSet, RuleSet] | None = None,
) -> CorrectedPair:
    """Repair a preceding/following pair against each other.

    Returns both corrected rule sets (each over its own attributes), plus
    the global tree.  Every output rule's origin is that of the input rule
    that won its region.
    ``restated`` is the pair already restated over its union schema, if any.
    """
    if restated is None:
        target = union_schema(preceding.schema, following.schema)
        restated = extend_schema(preceding, target), extend_schema(following, target)
    g = integrate(*restated)
    rdt = build_rdt(g.ruleset, policy)
    origin_map = {
        gid: _origin(g.ruleset.rules[gid - 1].origin, comp, oid)
        for gid, (comp, oid) in g.provenance.items()
    }

    # an alerting follower keeps what is specific in its last own attribute,
    # the attack class; every other projection drops what is foreign-specific
    shared = preceding.schema.condition_names
    own = [n for n in following.schema.condition_names if n not in shared]
    f_designated = own[-1] if own and following.component_kind is ComponentKind.ALERTING else None
    corrected = []
    for component, designated in ((preceding, None), (following, f_designated)):
        tree = project(rdt.tree, component.schema.condition_names, designated=designated)
        tree.component_name = component.component_name
        tree.component_kind = component.component_kind
        corrected.append(tree_to_rules(tree, origin_map))
    return CorrectedPair(*corrected, rdt)
