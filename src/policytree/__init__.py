"""Decision-tree analysis and correction of ordered security rule sets.

The package models firewall-style components as ordered rules over typed
attributes, detects conflicts inside one component and between components
on a traffic path, and rewrites rule sets into disjoint, anomaly-free form
via relevant decision trees.
"""

__version__ = "0.1.0"

from .correction import (
    CorrectedPair,
    GlobalRuleSet,
    ProjectionMode,
    correct_pair,
    correct_ruleset,
    integrate,
    project,
)
from .dtree import (
    Branch,
    DecisionTree,
    Edge,
    Node,
    branches,
    check_relevant,
    dump_tree,
    evaluate_tree,
    tree_to_rules,
)
from .interop import (
    InterAnomaly,
    InterKind,
    InteropVerdict,
    PositioningViolation,
    Topology,
    check_interoperable,
    check_positioning,
    detect_inter,
    extend_schema,
    parse_topology,
    union_schema,
)
from .intra import IntraAnomaly, IntraKind, detect_intra, is_relevant_ruleset
from .model import (
    ActionClass,
    AttributeDef,
    ComponentKind,
    Rule,
    RuleSet,
    Schema,
    SchemaError,
    Severity,
    action_class,
)
from .oracle import (
    DomainSpace,
    Semantics,
    endpoint_space,
    equivalence,
    evaluate,
    evaluate_rule,
    matches,
)
from .rdt import ConflictPolicy, RelevantDecisionTree, build_rdt
from .relations import FieldRelation, RelationKind, RuleRelation, relate, relation_matrix
from .ruleio import (
    RuleFileError,
    load_ruleset,
    parse_ruleset,
    save_ruleset,
    serialize_ruleset,
)
from .values import AttrKind, ValueSet, ValueSetError

__all__ = [
    "__version__",
    # values and model
    "AttrKind",
    "ValueSet",
    "ValueSetError",
    "AttributeDef",
    "Schema",
    "SchemaError",
    "Rule",
    "RuleSet",
    "ComponentKind",
    "ActionClass",
    "action_class",
    "Severity",
    # io
    "RuleFileError",
    "parse_ruleset",
    "serialize_ruleset",
    "load_ruleset",
    "save_ruleset",
    # relations and anomalies
    "FieldRelation",
    "RelationKind",
    "RuleRelation",
    "relate",
    "relation_matrix",
    "IntraKind",
    "IntraAnomaly",
    "detect_intra",
    "is_relevant_ruleset",
    # trees
    "Edge",
    "Node",
    "Branch",
    "DecisionTree",
    "branches",
    "check_relevant",
    "tree_to_rules",
    "evaluate_tree",
    "dump_tree",
    "ConflictPolicy",
    "RelevantDecisionTree",
    "build_rdt",
    # interoperability
    "InterKind",
    "InterAnomaly",
    "InteropVerdict",
    "union_schema",
    "extend_schema",
    "detect_inter",
    "check_interoperable",
    "Topology",
    "parse_topology",
    "check_positioning",
    "PositioningViolation",
    # correction
    "GlobalRuleSet",
    "ProjectionMode",
    "CorrectedPair",
    "integrate",
    "correct_ruleset",
    "project",
    "correct_pair",
    # packet oracle
    "Semantics",
    "matches",
    "evaluate",
    "evaluate_rule",
    "DomainSpace",
    "endpoint_space",
    "equivalence",
]
