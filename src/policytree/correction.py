"""Cross-component correction: merge, re-split, and hand back rule sets.

The repair pipeline for a preceding/following pair is:

1. restate both components over the union of their attributes,
2. concatenate them into one global ordered rule set (preceding first),
3. build the relevant decision tree of that global set, and
4. project the tree back onto each component's own attributes.

The preceding (filtering) component keeps the branches that do not depend
on attributes it cannot see (*drop-specific*): any branch pinned to a
specific value of a foreign attribute is delegated downstream.  The
following (alerting) component keeps exactly the branches that are
specific in its designated attribute, e.g. the attack class
(*keep-specific*); everything else is traffic it has no opinion on.

Projection deliberately leaves sibling regions un-merged: a region split
caused by the other component's rules is meaningful output (it shows where
responsibility was divided), so only the branch filter and level removal
are applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .dtree import (
    Branch,
    DecisionTree,
    Edge,
    Node,
    branches,
    tree_to_rules,
)
from .interop import extend_schema, union_schema
from .model import ComponentKind, Rule, RuleSet, Schema, SchemaError
from .rdt import ConflictPolicy, RelevantDecisionTree, build_rdt
from .values import COMPLEMENT_LABEL, ValueSet

__all__ = [
    "GlobalRuleSet",
    "ProjectionMode",
    "CorrectedPair",
    "integrate",
    "correct_ruleset",
    "project",
    "correct_pair",
]


@dataclass(frozen=True)
class GlobalRuleSet:
    """A combined ordered rule set plus where each rule came from."""

    ruleset: RuleSet
    provenance: dict[int, tuple[str, int]]  # global id -> (component, original id)


class ProjectionMode(str, Enum):
    DROP_SPECIFIC = "drop-specific"
    KEEP_SPECIFIC = "keep-specific"


@dataclass(frozen=True)
class CorrectedPair:
    preceding: RuleSet
    following: RuleSet
    rdt: RelevantDecisionTree
    preceding_tree: DecisionTree
    following_tree: DecisionTree


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def integrate(preceding: RuleSet, following: RuleSet) -> GlobalRuleSet:
    """Concatenate two same-schema rule sets in traffic order.

    Following-component rules are renumbered to run on after the preceding
    ones, preserving order within each component.
    """
    if preceding.schema != following.schema:
        raise SchemaError("extend both components to the shared schema first")
    provenance: dict[int, tuple[str, int]] = {}
    rules: list[Rule] = []
    for rule in preceding.rules:
        provenance[rule.id] = (preceding.component_name, rule.id)
        origin = rule.origin or preceding.component_name
        rules.append(Rule(rule.id, rule.condition, rule.action, origin))
    offset = len(preceding.rules)
    for rule in following.rules:
        gid = rule.id + offset
        provenance[gid] = (following.component_name, rule.id)
        origin = rule.origin or following.component_name
        rules.append(Rule(gid, rule.condition, rule.action, origin))
    return GlobalRuleSet(
        ruleset=RuleSet(
            schema=preceding.schema,
            rules=tuple(rules),
            component_kind=preceding.component_kind,
            component_name=f"{preceding.component_name}+{following.component_name}",
        ),
        provenance=provenance,
    )


def correct_ruleset(
    rs: RuleSet, policy: ConflictPolicy = ConflictPolicy.SPECIFICITY
) -> RuleSet:
    """Single-component repair: the rule set read back from its tree.

    Each output rule's origin names the input rule that won its region.
    """
    origin_map = {r.id: f"{rs.component_name}:r{r.id}" for r in rs.rules}
    return tree_to_rules(build_rdt(rs, policy).tree, origin_map)


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


def _keep_branch(
    b: Branch, mode: ProjectionMode, foreign_idx: list[int], designated_idx: int | None
) -> bool:
    if any(not b.labels[i].is_wildcard for i in foreign_idx):
        return False
    if mode is ProjectionMode.KEEP_SPECIFIC:
        assert designated_idx is not None
        return _is_specific(b.labels[designated_idx])
    return True


def project(
    tree: DecisionTree,
    attributes: Sequence[str],
    mode: ProjectionMode,
    *,
    designated: str | None = None,
) -> DecisionTree:
    """Restrict a relevant tree to a subset of its condition attributes.

    ``attributes`` keeps its schema order from the source tree.  With
    ``KEEP_SPECIFIC`` the ``designated`` attribute (one of the kept ones)
    selects the branches to retain.
    """
    if isinstance(tree, RelevantDecisionTree):
        tree = tree.tree
    names = list(tree.schema.condition_names)
    wanted = set(attributes)
    unknown = wanted - set(names)
    if unknown:
        raise SchemaError(f"cannot project onto unknown attributes {sorted(unknown)}")
    if not wanted:
        raise SchemaError("projection must keep at least one attribute")
    keep_idx = [i for i, n in enumerate(names) if n in wanted]
    foreign_idx = [i for i, n in enumerate(names) if n not in wanted]
    designated_idx: int | None = None
    if mode is ProjectionMode.KEEP_SPECIFIC:
        if designated is None or designated not in wanted:
            raise SchemaError("keep-specific projection needs a designated kept attribute")
        designated_idx = names.index(designated)

    new_schema = Schema(
        condition_attributes=tuple(tree.schema.condition_attributes[i] for i in keep_idx),
        decision_attribute=tree.schema.decision_attribute,
    )
    root = Node(level=1)
    out = DecisionTree(
        schema=new_schema,
        root=root,
        component_name=tree.component_name,
        component_kind=tree.component_kind,
    )
    for b in branches(tree):
        if not _keep_branch(b, mode, foreign_idx, designated_idx):
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
            # same projected region decided twice: cannot happen when the
            # source tree is relevant and foreign levels are wildcard
            raise ValueError("projection collapsed two distinct regions")
        node.edges.append(
            Edge(label=ValueSet(labels=frozenset({b.action})), child=None, owner=b.owner)
        )
    return out


# ---------------------------------------------------------------------------
# the full pair pipeline
# ---------------------------------------------------------------------------


def _following_only(preceding: Schema, following: Schema) -> list[str]:
    shared = set(preceding.condition_names)
    return [n for n in following.condition_names if n not in shared]


def correct_pair(
    preceding: RuleSet,
    following: RuleSet,
    policy: ConflictPolicy = ConflictPolicy.SPECIFICITY,
) -> CorrectedPair:
    """Repair a preceding/following pair against each other.

    Returns both corrected rule sets (each over its own attributes), plus
    the global tree and its two projections.  Every output rule's origin
    names the input rule that won its region, as ``component:rN``.
    """
    target = union_schema(preceding.schema, following.schema)
    p_ext = extend_schema(preceding, target)
    f_ext = extend_schema(following, target)
    g = integrate(p_ext, f_ext)
    rdt = build_rdt(g.ruleset, policy)
    # carry provenance through earlier corrections: a rule that already
    # names an origin rule keeps it, so outputs trace back to user input
    origin_map = {}
    for gid, (comp, oid) in g.provenance.items():
        prior = g.ruleset.rules[gid - 1].origin
        origin_map[gid] = prior if prior and prior != comp else f"{comp}:r{oid}"

    p_tree = project(rdt.tree, preceding.schema.condition_names, ProjectionMode.DROP_SPECIFIC)
    p_tree.component_name = preceding.component_name
    p_tree.component_kind = preceding.component_kind

    f_names = following.schema.condition_names
    f_only = _following_only(preceding.schema, following.schema)
    if following.component_kind is ComponentKind.ALERTING and f_only:
        f_tree = project(
            rdt.tree, f_names, ProjectionMode.KEEP_SPECIFIC, designated=f_only[-1]
        )
    else:
        f_tree = project(rdt.tree, f_names, ProjectionMode.DROP_SPECIFIC)
    f_tree.component_name = following.component_name
    f_tree.component_kind = following.component_kind

    return CorrectedPair(
        preceding=tree_to_rules(p_tree, origin_map),
        following=tree_to_rules(f_tree, origin_map),
        rdt=rdt,
        preceding_tree=p_tree,
        following_tree=f_tree,
    )
