"""Topology files: which components a network holds and the paths through them.

A topology names each component with its kind and, optionally, its rule
file, and lists traffic paths as ordered members.  A path that places an
alerting component in front of a filtering one is flagged as mis-positioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import ComponentKind
from .ruleio import RuleFileError, _decoded, _lines, _name, _once

__all__ = [
    "Topology",
    "TopologyComponent",
    "PositioningViolation",
    "parse_topology",
    "check_positioning",
]


@dataclass(frozen=True)
class TopologyComponent:
    name: str
    kind: ComponentKind
    rules_path: str | None = None


@dataclass(frozen=True)
class Topology:
    components: dict[str, TopologyComponent]
    paths: tuple[tuple[str, tuple[str, ...]], ...]


def parse_topology(data: bytes | str, *, source: str = "<string>") -> Topology:
    """Read a topology file's bytes or text, line by line as a rule file.

    ``component <name> <kind> [<rules-file>]`` declares a component;
    ``path <name> <member> <member> ...`` lists a traffic path in order.
    Path members name declared components, or use inline ``name:kind``, so
    a component name holds no ``:``.  No name or rule-file path holds a
    control character, as each is printed in reports.  Every kind given for
    one name, on either kind of line, must agree, each component and each
    path is declared once, and a path names each of its members once.  Each
    defect raises :class:`~policytree.ruleio.RuleFileError` naming ``source``.
    """
    components: dict[str, TopologyComponent] = {}
    declared_at: dict[str, int] = {}  # component name -> its component line
    kind_at: dict[str, tuple[ComponentKind, int]] = {}  # name -> first kind given, its line
    path_at: dict[str, int] = {}  # path name -> its path line
    paths: list[tuple[str, tuple[str, ...]]] = []

    def parse_kind(name: str, kind_s: str, line_no: int) -> ComponentKind:
        try:
            kind = ComponentKind(kind_s)
        except ValueError:
            raise RuleFileError(f"unknown kind {kind_s!r}", line_no, source) from None
        first, first_line = kind_at.setdefault(name, (kind, line_no))
        if first is not kind:
            raise RuleFileError(
                f"component {name!r} is {kind.value} here but {first.value} on line {first_line}",
                line_no,
                source,
            )
        return kind

    for line_no, line in _lines(_decoded(data, source)):
        head, *rest = line.split()
        if head == "component":
            if len(rest) not in (2, 3):
                raise RuleFileError("expected component <name> <kind> [<file>]", line_no, source)
            name = _name(rest[0], "name", line_no, source, ":")  # ':' ends a path member's name
            _once(declared_at, name, line_no, source, f"component {name!r} already declared")
            kind = parse_kind(name, rest[1], line_no)
            path = _name(rest[2], "rule file", line_no, source) if len(rest) == 3 else None
            components[name] = TopologyComponent(name=name, kind=kind, rules_path=path)
        elif head == "path":
            if len(rest) < 2:
                raise RuleFileError("a path needs a name and members", line_no, source)
            path_name, members = _name(rest[0], "name", line_no, source), []
            _once(path_at, path_name, line_no, source, f"path {path_name!r} already declared")
            for member in rest[1:]:
                if ":" in member:
                    name, kind_s = member.split(":", 1)
                    kind = parse_kind(_name(name, "name", line_no, source), kind_s, line_no)
                    components.setdefault(name, TopologyComponent(name=name, kind=kind))
                elif member in components:
                    name = member
                else:
                    raise RuleFileError(f"undeclared component {member!r}", line_no, source)
                if name in members:
                    raise RuleFileError(f"path {path_name!r} names {name!r} twice", line_no, source)
                members.append(name)
            paths.append((path_name, tuple(members)))
        else:
            raise RuleFileError(f"unknown directive {head!r}", line_no, source)
    return Topology(components=components, paths=tuple(paths))


class PositioningViolation(NamedTuple):
    """An alerting component placed before a filtering one on a path."""

    path: str
    alerting: str
    filtering: str


def check_positioning(topology: Topology) -> list[PositioningViolation]:
    """Alerting components must not precede filtering ones on any path."""
    out: list[PositioningViolation] = []
    for path_name, members in topology.paths:
        kinds = [topology.components[m].kind for m in members]
        for i, alerting in enumerate(members):
            if kinds[i] is ComponentKind.ALERTING:
                out.extend(
                    PositioningViolation(path_name, alerting, filtering)
                    for filtering, kind in zip(members[i + 1 :], kinds[i + 1 :])
                    if kind is ComponentKind.FILTERING
                )
    return out
