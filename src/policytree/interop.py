"""Interoperability checks between a preceding and a following component.

Traffic flows through components in path order (say, a firewall and then an
IDS).  Once both rule sets are expressed over a shared attribute union,
every cross pair (preceding rule, following rule) is classified:

* inter-shadowing (error): the preceding component blocks traffic the
  following one was meant to see and permit;
* inter-spuriousness (error): the preceding component lets traffic through
  that the following one blocks or alerts on;
* inter-redundancy (warning): both block the same traffic, so the
  following rule is dead weight;
* inter-correlation (error): the regions overlap both ways with different
  action classes, so behaviour depends on how packets straddle the overlap.

The containment checks compare the more specific following rule against the
preceding rule's region.  Two components interoperate when no pair at all
is reported.

The module also reads simple topology files and flags paths that place an
alerting component in front of a filtering one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    control_char,
)
from .relations import indices, relation_sets
from .relations import relate  # noqa: F401  perfbench/spans.py wraps this name here
from .values import ValueSet, intervals, vs_subset

__all__ = [
    "InterKind",
    "InterAnomaly",
    "union_schema",
    "extend_schema",
    "detect_inter",
    "Topology",
    "TopologyComponent",
    "TopologyError",
    "PositioningViolation",
    "parse_topology",
    "check_positioning",
]


class InterKind(str, Enum):
    SHADOWING = "inter-shadowing"
    SPURIOUSNESS = "inter-spuriousness"
    REDUNDANCY = "inter-redundancy"
    CORRELATION = "inter-correlation"


_SEVERITY = {
    InterKind.SHADOWING: Severity.ERROR,
    InterKind.SPURIOUSNESS: Severity.ERROR,
    InterKind.REDUNDANCY: Severity.WARNING,
    InterKind.CORRELATION: Severity.ERROR,
}

_KIND_ORDER = {k: i for i, k in enumerate(InterKind)}


@dataclass(frozen=True)
class InterAnomaly:
    kind: InterKind
    preceding_rule: int
    following_rule: int
    severity: Severity


# ---------------------------------------------------------------------------
# schema extension
# ---------------------------------------------------------------------------


def _domain_union(a: AttributeDef, b: AttributeDef) -> ValueSet:
    # plain union of two concrete domains; never collapses to the wildcard
    if a.domain == b.domain:
        return a.domain
    if a.kind.is_numeric:
        return intervals(a.domain.intervals + b.domain.intervals)
    return ValueSet(labels=(a.domain.labels or frozenset()) | (b.domain.labels or frozenset()))


def union_schema(preceding: Schema, following: Schema) -> Schema:
    """Shared schema: preceding attributes first, then following-only ones.

    Attributes present in both must agree in kind; their domains are
    unioned.  The decision attribute keeps the preceding component's name
    and takes the union of both label sets.
    """
    by_name = {a.name: a for a in following.condition_attributes}
    merged: list[AttributeDef] = []
    for attr in preceding.condition_attributes:
        other = by_name.get(attr.name)
        if other is None:
            merged.append(attr)
            continue
        if other.kind is not attr.kind:
            raise SchemaError(
                f"attribute {attr.name!r} declared as {attr.kind.value} and {other.kind.value}"
            )
        merged.append(AttributeDef(name=attr.name, kind=attr.kind, domain=_domain_union(attr, other)))
    seen = {a.name for a in merged}
    merged.extend(a for a in following.condition_attributes if a.name not in seen)

    dec_p = preceding.decision_attribute
    dec_f = following.decision_attribute
    decision = AttributeDef(
        name=dec_p.name,
        kind=dec_p.kind,
        domain=ValueSet(labels=(dec_p.domain.labels or frozenset()) | (dec_f.domain.labels or frozenset())),
    )
    return Schema(condition_attributes=tuple(merged), decision_attribute=decision)


def extend_schema(rs: RuleSet, target: Schema) -> RuleSet:
    """Restate ``rs`` over ``target``, which must cover all its attributes.

    Rules gain the wildcard for attributes they never constrained.  A
    wildcard over an attribute whose domain grew in ``target`` is first
    pinned to the original domain, so no rule matches more than before.
    When ``target`` adds no attribute and widens no domain, the rules are
    reused.  ``target`` covers each domain and decision label of ``rs``, which
    was checked, so the result is not checked again.
    """
    target_by_name = {a.name: a for a in target.condition_attributes}
    for attr in rs.schema.condition_attributes:
        other = target_by_name.get(attr.name)
        if other is None:
            raise SchemaError(f"target schema lacks attribute {attr.name!r}")
        if other.kind is not attr.kind:
            raise SchemaError(f"attribute {attr.name!r} changes kind in the target schema")
        if not vs_subset(attr.domain, other.domain, other.domain):
            raise SchemaError(f"target domain for {attr.name!r} does not cover the original")
    source_labels = rs.schema.decision_attribute.domain.labels or frozenset()
    target_labels = target.decision_attribute.domain.labels or frozenset()
    if not source_labels <= target_labels:
        raise SchemaError("target decision domain does not cover the original")

    own = {a.name: a.domain for a in rs.schema.condition_attributes}
    wider = {name for name, domain in own.items() if target_by_name[name].domain != domain}
    names = target.condition_names
    if names == rs.schema.condition_names and not wider:
        return RuleSet._of_checked(target, rs.rules, rs.component_kind, rs.component_name)
    new_rules = []
    for rule in rs.rules:
        condition = {}
        for name in names:
            if name not in own:
                condition[name] = ValueSet()  # wildcard
                continue
            v = rule.condition[name]
            if v.is_wildcard and name in wider:
                v = own[name]  # keep the original reach, not the wider one
            condition[name] = v
        new_rules.append(Rule(id=rule.id, condition=condition, action=rule.action, origin=rule.origin))
    return RuleSet._of_checked(target, tuple(new_rules), rs.component_kind, rs.component_name)


# ---------------------------------------------------------------------------
# cross-component anomalies
# ---------------------------------------------------------------------------


def _classify(meets: int, covers: int, inside: int, f_class: ActionClass, permits: int, blocks: int):
    """Each kind with the preceding rules it names, as bitsets, for one following rule.

    ``meets``, ``covers`` and ``inside`` are the following rule's relation
    sets; ``permits`` and ``blocks`` are the preceding rules of each class.
    A covering preceding rule decides all of the following rule's traffic.
    """
    correlated = meets & ~covers & ~inside
    if f_class is ActionClass.PERMIT:
        return (InterKind.SHADOWING, covers & blocks), (InterKind.CORRELATION, correlated & blocks)
    return (
        (InterKind.SPURIOUSNESS, covers & permits),
        (InterKind.REDUNDANCY, covers & blocks),
        (InterKind.CORRELATION, correlated & permits),
    )


def detect_inter(preceding: RuleSet, following: RuleSet) -> list[InterAnomaly]:
    """All anomalous cross pairs.  Both sets must share one (union) schema.

    An empty list means the two components interoperate.
    """
    if preceding.schema != following.schema:
        raise SchemaError("extend both components to the shared schema first")
    meets, covers, inside = relation_sets(preceding.rules, following.rules, preceding.schema)
    permits = sum(
        1 << i for i, r in enumerate(preceding.rules) if action_class(r.action) is ActionClass.PERMIT
    )
    blocks = ((1 << len(preceding.rules)) - 1) & ~permits
    found: list[InterAnomaly] = []
    for j, f in enumerate(following.rules):
        f_class = action_class(f.action)
        for kind, bits in _classify(meets[j], covers[j], inside[j], f_class, permits, blocks):
            found.extend(
                InterAnomaly(kind, preceding.rules[i].id, f.id, _SEVERITY[kind]) for i in indices(bits)
            )
    found.sort(key=lambda a: (a.preceding_rule, a.following_rule, _KIND_ORDER[a.kind]))
    return found


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------


class TopologyError(ValueError):
    """A malformed topology file."""


@dataclass(frozen=True)
class TopologyComponent:
    name: str
    kind: ComponentKind
    rules_path: str | None = None


@dataclass(frozen=True)
class Topology:
    components: dict[str, TopologyComponent]
    paths: tuple[tuple[str, tuple[str, ...]], ...]


def parse_topology(text: str, *, source: str = "<string>") -> Topology:
    """Read a topology file.

    ``component <name> <kind> [<rules-file>]`` declares a component;
    ``path <name> <member> <member> ...`` lists a traffic path in order.
    Path members name declared components, or use inline ``name:kind``.
    Every kind given for one name, on either kind of line, must agree.
    """
    components: dict[str, TopologyComponent] = {}
    declared_at: dict[str, int] = {}  # component name -> its component line
    kind_at: dict[str, tuple[ComponentKind, int]] = {}  # name -> first kind given, its line
    paths: list[tuple[str, tuple[str, ...]]] = []

    def check_name(name: str, line_no: int) -> str:
        bad = control_char(name)
        if bad is not None:
            raise TopologyError(
                f"{source}:{line_no}: name {name!r} holds control character {bad!r}"
            )
        return name

    def parse_kind(name: str, kind_s: str, line_no: int) -> ComponentKind:
        try:
            kind = ComponentKind(kind_s)
        except ValueError:
            raise TopologyError(f"{source}:{line_no}: unknown kind {kind_s!r}") from None
        first, first_line = kind_at.setdefault(name, (kind, line_no))
        if first is not kind:
            raise TopologyError(
                f"{source}:{line_no}: component {name!r} is {kind.value} here"
                f" but {first.value} on line {first_line}"
            )
        return kind

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        if head == "component":
            if len(rest) not in (2, 3):
                raise TopologyError(f"{source}:{line_no}: expected component <name> <kind> [<file>]")
            name, kind_s = check_name(rest[0], line_no), rest[1]
            if name in declared_at:
                raise TopologyError(
                    f"{source}:{line_no}: component {name!r} already declared"
                    f" on line {declared_at[name]}"
                )
            declared_at[name] = line_no
            components[name] = TopologyComponent(
                name=name,
                kind=parse_kind(name, kind_s, line_no),
                rules_path=rest[2] if len(rest) == 3 else None,
            )
        elif head == "path":
            if len(rest) < 2:
                raise TopologyError(f"{source}:{line_no}: a path needs a name and members")
            path_name, members = check_name(rest[0], line_no), []
            for member in rest[1:]:
                if ":" in member:
                    name, kind_s = member.split(":", 1)
                    kind = parse_kind(check_name(name, line_no), kind_s, line_no)
                    components.setdefault(name, TopologyComponent(name=name, kind=kind))
                    members.append(name)
                elif member in components:
                    members.append(member)
                else:
                    raise TopologyError(
                        f"{source}:{line_no}: undeclared component {member!r}"
                    )
            paths.append((path_name, tuple(members)))
        else:
            raise TopologyError(f"{source}:{line_no}: unknown directive {head!r}")
    return Topology(components=components, paths=tuple(paths))


@dataclass(frozen=True)
class PositioningViolation:
    """An alerting component placed before a filtering one on a path."""

    path: str
    alerting: str
    filtering: str


def check_positioning(topology: Topology) -> list[PositioningViolation]:
    """Alerting components must not precede filtering ones on any path."""
    out: list[PositioningViolation] = []
    for path_name, members in topology.paths:
        kinds = [topology.components[m].kind for m in members]
        for i in range(len(members)):
            if kinds[i] is not ComponentKind.ALERTING:
                continue
            for j in range(i + 1, len(members)):
                if kinds[j] is ComponentKind.FILTERING:
                    out.append(
                        PositioningViolation(
                            path=path_name, alerting=members[i], filtering=members[j]
                        )
                    )
    return out
