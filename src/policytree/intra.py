"""Anomaly detection inside a single ordered rule set.

For every ordered pair (earlier rule i, later rule j):

* shadowing (error): j fits inside i and their action classes differ, so j
  can never fire and would have acted differently;
* redundancy (error): j fits inside i with the same action class, so j is
  dead weight;
* generalization (warning): i fits properly inside j with a different
  action class; j acts as i's catch-all;
* correlation (warning): the rules overlap both ways (correlated) with
  different action classes, so their relative order changes behaviour.

Rules with identical conditions count as shadowing when the actions differ
and as redundancy when they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import ActionClass, RuleSet, Severity, action_class
from .relations import RelationKind, RuleRelation, indices, is_correlated, relate, relation_sets

__all__ = ["IntraKind", "IntraAnomaly", "detect_intra", "is_relevant_ruleset"]


class IntraKind(str, Enum):
    SHADOWING = "shadowing"
    GENERALIZATION = "generalization"
    REDUNDANCY = "redundancy"
    CORRELATION = "correlation"


_SEVERITY = {
    IntraKind.SHADOWING: Severity.ERROR,
    IntraKind.REDUNDANCY: Severity.ERROR,
    IntraKind.GENERALIZATION: Severity.WARNING,
    IntraKind.CORRELATION: Severity.WARNING,
}

_KIND_ORDER = {k: i for i, k in enumerate(IntraKind)}


@dataclass(frozen=True)
class IntraAnomaly:
    kind: IntraKind
    earlier: int
    later: int
    evidence: RuleRelation
    severity: Severity


def _classify(kind: RelationKind, same_class: bool) -> IntraKind | None:
    if kind is RelationKind.EXACT or kind is RelationKind.BACKWARD:
        # the later rule never fires on anything of its own
        return IntraKind.REDUNDANCY if same_class else IntraKind.SHADOWING
    if kind is RelationKind.FORWARD and not same_class:
        return IntraKind.GENERALIZATION
    if is_correlated(kind) and not same_class:
        return IntraKind.CORRELATION
    return None


def detect_intra(rs: RuleSet) -> list[IntraAnomaly]:
    """All anomalous pairs, sorted by earlier id, later id, then kind."""
    rules = rs.rules
    meets, covers, _ = relation_sets(rules, rules, rs.schema)
    permits = sum(
        1 << i for i, r in enumerate(rules) if action_class(r.action) is ActionClass.PERMIT
    )
    blocks = ((1 << len(rules)) - 1) & ~permits
    found: list[IntraAnomaly] = []
    for j, later in enumerate(rules):
        other = blocks if permits >> j & 1 else permits
        # what _classify reports: a covering earlier rule, or any meeting one of the other class
        reported = (covers[j] | meets[j] & other) & ((1 << j) - 1)
        for i in indices(reported):
            earlier = rules[i]
            rel = relate(earlier, later, rs.schema)
            kind = _classify(rel.kind, not other >> i & 1)
            found.append(
                IntraAnomaly(
                    kind=kind,
                    earlier=earlier.id,
                    later=later.id,
                    evidence=rel,
                    severity=_SEVERITY[kind],
                )
            )
    found.sort(key=lambda a: (a.earlier, a.later, _KIND_ORDER[a.kind]))
    return found


def is_relevant_ruleset(rs: RuleSet) -> bool:
    """True when no packet can match two rules (all pairs disjoint)."""
    meets, _, _ = relation_sets(rs.rules, rs.rules, rs.schema)
    return not any(meet & ((1 << j) - 1) for j, meet in enumerate(meets))
