"""Topology files: which components a network holds and the paths through them.

A topology names each component with its kind and, optionally, its rule
file, and lists traffic paths as ordered members.  A path that places an
alerting component in front of a filtering one is flagged as mis-positioned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ComponentKind, control_char

__all__ = [
    "Topology",
    "TopologyComponent",
    "TopologyError",
    "PositioningViolation",
    "parse_topology",
    "check_positioning",
]


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
    Every kind given for one name, on either kind of line, must agree, each
    component and each path is declared once, and a path names each of its
    members once.
    """
    components: dict[str, TopologyComponent] = {}
    declared_at: dict[str, int] = {}  # component name -> its component line
    kind_at: dict[str, tuple[ComponentKind, int]] = {}  # name -> first kind given, its line
    path_at: dict[str, int] = {}  # path name -> its path line
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
            if path_name in path_at:
                raise TopologyError(
                    f"{source}:{line_no}: path {path_name!r} already declared"
                    f" on line {path_at[path_name]}"
                )
            path_at[path_name] = line_no
            for member in rest[1:]:
                if ":" in member:
                    name, kind_s = member.split(":", 1)
                    kind = parse_kind(check_name(name, line_no), kind_s, line_no)
                    components.setdefault(name, TopologyComponent(name=name, kind=kind))
                elif member in components:
                    name = member
                else:
                    raise TopologyError(f"{source}:{line_no}: undeclared component {member!r}")
                if name in members:
                    raise TopologyError(
                        f"{source}:{line_no}: path {path_name!r} names {name!r} twice"
                    )
                members.append(name)
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
        for i, alerting in enumerate(members):
            if kinds[i] is ComponentKind.ALERTING:
                out.extend(
                    PositioningViolation(path_name, alerting, filtering)
                    for filtering, kind in zip(members[i + 1 :], kinds[i + 1 :])
                    if kind is ComponentKind.FILTERING
                )
    return out
