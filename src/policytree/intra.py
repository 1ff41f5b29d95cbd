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

from enum import Enum
from typing import NamedTuple

from .model import ActionClass, RuleSet, Severity, action_class
from .relations import indices, relation_sets
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

_KIND_ORDER = {k: i for i, k in enumerate(IntraKind)}


class IntraAnomaly(NamedTuple):
    kind: IntraKind
    earlier: int
    later: int
    severity: Severity


def _classify(meets: int, covers: int, inside: int, same: int, other: int):
    """Each kind with the earlier rules it names, as bitsets, for one later rule.

    ``meets``, ``covers`` and ``inside`` are its relation sets; ``same`` and
    ``other`` are the earlier rules of its action class and of the other.
    """
    return (
        # a covering earlier rule: the later one never fires on anything of its own
        (IntraKind.SHADOWING, covers & other),
        (IntraKind.REDUNDANCY, covers & same),
        (IntraKind.GENERALIZATION, inside & ~covers & other),
        (IntraKind.CORRELATION, meets & ~covers & ~inside & other),
    )


def detect_intra(rs: RuleSet, *, screen=None) -> list[IntraAnomaly]:
    """All anomalous pairs, sorted by earlier id, later id, then kind.

    ``screen`` is ``relation_sets(rs.rules, rs.rules, rs.schema)``, if already computed.
    """
    rules = rs.rules
    meets, covers, inside = screen or relation_sets(rules, rules, rs.schema)
    permits = sum(
        1 << i for i, r in enumerate(rules) if action_class(r.action) is ActionClass.PERMIT
    )
    blocks = ((1 << len(rules)) - 1) & ~permits
    found: list[IntraAnomaly] = []
    for j, later in enumerate(rules):
        earlier = (1 << j) - 1
        same, other = (permits, blocks) if permits >> j & 1 else (blocks, permits)
        for kind, bits in _classify(meets[j], covers[j], inside[j], same & earlier, other & earlier):
            found.extend(
                IntraAnomaly(kind, rules[i].id, later.id, _SEVERITY[kind]) for i in indices(bits)
            )
    found.sort(key=lambda a: (a.earlier, a.later, _KIND_ORDER[a.kind]))
    return found


def is_relevant_ruleset(rs: RuleSet, *, screen=None) -> bool:
    """True when no packet can match two rules; ``screen`` as for :func:`detect_intra`."""
    meets, _, _ = screen or relation_sets(rs.rules, rs.rules, rs.schema)
    return not any(meet & ((1 << j) - 1) for j, meet in enumerate(meets))
