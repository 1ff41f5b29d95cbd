"""Anomaly detection inside a single ordered rule set.

For every ordered pair (earlier rule i, later rule j):

* shadowing (error): j fits inside i and their action classes differ, so
  under first match j can never fire and would have acted differently;
* redundancy (error): j fits inside i with the same action class, so under
  first match j is dead weight;
* generalization (warning): i fits properly inside j with a different
  action class; j acts as i's catch-all;
* correlation (warning): the rules overlap both ways (correlated) with
  different action classes, so their relative order changes behaviour.

Rules with identical conditions count as shadowing when the actions differ
and as redundancy when they agree.  The findings do not follow ``--policy``:
under specificity a later rule strictly inside an earlier one captures its
region instead, as r2 does from r1 in ``cases/fw.rules``.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .model import RuleSet, Severity
from .relations import relation_sets, scan
from .relations import relate  # noqa: F401  perfbench/spans.py wraps this name here

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


class IntraAnomaly(NamedTuple):
    kind: IntraKind
    earlier: int
    later: int
    severity: Severity


def detect_intra(rs: RuleSet, *, screen=None) -> list[IntraAnomaly]:
    """All anomalous pairs, sorted by earlier id, later id, then kind.

    ``screen`` is ``relation_sets(rs.rules, rs.rules, rs.schema)``, if already computed.
    """
    rules = rs.rules

    def classify(j, permit, meets, covers, inside, same, other):
        # the earlier rules of later rule j's action class and of the other
        earlier = (1 << j) - 1
        same, other = same & earlier, other & earlier
        return (
            # a covering earlier rule: the later one never fires on anything of its own
            (IntraKind.SHADOWING, covers & other),
            (IntraKind.REDUNDANCY, covers & same),
            (IntraKind.GENERALIZATION, inside & ~covers & other),
            (IntraKind.CORRELATION, meets & ~covers & ~inside & other),
        )

    screen = screen or relation_sets(rules, rules, rs.schema)
    return [
        IntraAnomaly(kind, rules[i].id, rules[j].id, _SEVERITY[kind])
        for kind, i, j in scan(IntraKind, classify, rules, rules, screen)
    ]


def is_relevant_ruleset(rs: RuleSet, *, screen=None) -> bool:
    """True when no packet can match two rules; ``screen`` as for :func:`detect_intra`."""
    meets, _, _ = screen or relation_sets(rs.rules, rs.rules, rs.schema)
    return not any(meet & ((1 << j) - 1) for j, meet in enumerate(meets))
