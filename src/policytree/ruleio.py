"""Reading and writing rule files, and reading the lines of any input file.

Rule and topology files are UTF-8 text read line by line, and each defect
in one is a :class:`RuleFileError` naming the file and line.  The rule-file
text format, line by line (``#`` starts a comment anywhere):

.. code-block:: text

    component FW
    kind filtering
    attr protocol protocol-enum TCP,UDP,ICMP
    attr src_addr ipv4-range 140.192.0.0-140.192.255.255
    decision action accept,deny
    rules
    1 | TCP | 140.192.10.1-140.192.10.100 | deny

Header lines declare the component and its kind, ``attr`` lines declare the
ordered condition attributes (name, kind, domain), ``decision`` declares the
decision attribute, and everything after the ``rules`` marker is one rule
per line: ``id | value | ... | action`` with an optional trailing origin
column.  Values are ``any``/``All`` (wildcard), a single value, ``lo-hi``,
or a comma-joined union of those.  IPv4 values may use ``a.b.c.*`` blocks
or ``a.b.c.d/nn`` prefixes (``nn`` from 0 to 32, no host bits set).

``ruleset_to_dict`` mirrors the same fields as a plain dictionary for
machine consumption, and ``parse_ruleset(..., source="x.json")`` reads that
dictionary back as JSON text; both representations round-trip.  Each rule
of either format is read by one reader (:func:`_rule_reader`), so a defect
gives the same reason in both; a JSON file's errors name no line.
"""

from __future__ import annotations

import ipaddress
from pathlib import Path

from .model import (
    AttributeDef,
    ComponentKind,
    Rule,
    RuleSet,
    Schema,
    SchemaError,
    complete_label_domain,
)
from .values import (
    ANY,
    AttrKind,
    COMPLEMENT_LABEL,
    ValueSet,
    ValueSetError,
    contains_point,
    intervals as make_intervals,
    vs_subset,
)

__all__ = [
    "RuleFileError",
    "parse_ruleset",
    "serialize_ruleset",
    "ruleset_to_dict",
    "load_ruleset",
    "save_ruleset",
    "parse_value",
    "parse_point",
    "format_value",
]

_WILDCARD_TOKENS = {"any", "all"}


class RuleFileError(ValueError):
    """A syntax or consistency problem in an input file: ``reason``, at ``line`` of ``source``."""

    def __init__(self, message: str, line: int | None = None, source: str = ""):
        self.reason = message
        self.line = line
        self.source = source
        where = source or "<input>"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")


# ---------------------------------------------------------------------------
# scalar conversions
# ---------------------------------------------------------------------------


def _parse_int(token: str) -> int:
    """A decimal number written in ASCII digits only.

    ``int()`` alone would also read ``1_0``, a sign or non-ASCII digits.
    """
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"bad number {token!r}")
    return int(token)


def _ip_to_int(token: str) -> int:
    return int(ipaddress.IPv4Address(token))


def _int_to_ip(n: int) -> str:
    return f"{n >> 24}.{n >> 16 & 255}.{n >> 8 & 255}.{n & 255}"


def _parse_ipv4_atom(token: str) -> tuple[int, int]:
    """One IPv4 atom: an address, a ``/nn`` prefix, or a block written with trailing ``*``."""
    if "/" in token:
        address, length_s = token.split("/", 1)
        if not (length_s.isascii() and length_s.isdigit() and int(length_s) <= 32):
            raise ValueError(f"bad prefix length in {token!r}")
        host_bits = (1 << (32 - int(length_s))) - 1
        net = _ip_to_int(address)
        if net & host_bits:
            raise ValueError(f"host bits set in {token!r}")
        return net, net | host_bits
    parts = token.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 value {token!r}")
    if "*" in parts:
        first_star = parts.index("*")
        if any(p != "*" for p in parts[first_star:]):
            raise ValueError(f"wildcard octets must be a suffix in {token!r}")
        lo = ".".join(p if p != "*" else "0" for p in parts)
        hi = ".".join(p if p != "*" else "255" for p in parts)
        return _ip_to_int(lo), _ip_to_int(hi)
    n = _ip_to_int(token)
    return n, n


def _parse_numeric_atom(token: str, kind: AttrKind) -> tuple[int, int]:
    if kind is AttrKind.IPV4_RANGE:
        if "-" in token:
            lo_s, hi_s = token.split("-", 1)
            lo, _ = _parse_ipv4_atom(lo_s.strip())
            _, hi = _parse_ipv4_atom(hi_s.strip())
            return lo, hi
        return _parse_ipv4_atom(token)
    if "-" in token:
        lo_s, hi_s = token.split("-", 1)
        return _parse_int(lo_s.strip()), _parse_int(hi_s.strip())
    n = _parse_int(token)
    return n, n


def _parse_intervals(token: str, kind: AttrKind) -> ValueSet:
    spans = []
    for atom in token.split(","):
        atom = atom.strip()
        if not atom:
            raise ValueError("empty value atom")
        lo, hi = _parse_numeric_atom(atom, kind)
        if lo > hi:
            raise ValueError(f"inverted range {atom!r}")
        spans.append((lo, hi))
    return make_intervals(spans)


def parse_value(token: str, attr: AttributeDef) -> ValueSet:
    """Parse one rule-file value token for ``attr`` (wildcards allowed)."""
    token = token.strip()
    if token.lower() in _WILDCARD_TOKENS:
        return ANY
    if attr.kind.is_numeric:
        try:
            v = _parse_intervals(token, attr.kind)
        except ValueError as exc:
            raise ValueError(f"{attr.name}: {exc}") from None
        if not vs_subset(v, attr.domain, attr.domain):
            raise ValueError(f"{attr.name}: value {token!r} outside the declared domain")
        return v
    names = frozenset(p.strip() for p in token.split(","))
    if "" in names:
        raise ValueError(f"{attr.name}: empty label in {token!r}")
    unknown = names - (attr.domain.labels or frozenset())
    if unknown:
        raise ValueError(
            f"{attr.name}: label(s) {', '.join(sorted(unknown))} outside the declared domain"
        )
    return ValueSet(labels=names)


def parse_point(token: str, attr: AttributeDef) -> int | str:
    """Parse a single packet value (one point, no ranges or wildcards)."""
    token = token.strip()
    if attr.kind.is_numeric:
        try:
            if attr.kind is AttrKind.IPV4_RANGE:
                lo, hi = _parse_ipv4_atom(token)
                if lo != hi:
                    raise ValueError("a packet needs a single address")
                value: int | str = lo
            else:
                value = _parse_int(token)
        except ValueError as exc:
            raise ValueSetError(f"{attr.name}: {exc}") from None
    else:
        value = token
    if not contains_point(ANY, value, attr.domain):
        raise ValueSetError(f"{attr.name}: {token!r} outside the declared domain")
    return value


def format_value(v: ValueSet, attr: AttributeDef) -> str:
    """Render a value set in rule-file syntax (canonical form)."""
    if v.is_wildcard:
        return "any"
    if v.labels is not None:
        return ",".join(sorted(v.labels))
    atoms = []
    for lo, hi in v.intervals or ():
        if attr.kind is AttrKind.IPV4_RANGE:
            atoms.append(_int_to_ip(lo) if lo == hi else f"{_int_to_ip(lo)}-{_int_to_ip(hi)}")
        else:
            atoms.append(str(lo) if lo == hi else f"{lo}-{hi}")
    return ",".join(atoms)


def _format_domain(attr: AttributeDef) -> str:
    if attr.kind.is_numeric:
        return format_value(attr.domain, attr)
    names = set(attr.domain.labels or ())
    if attr.kind is AttrKind.LABEL_ENUM:
        names.discard(COMPLEMENT_LABEL)
    return ",".join(sorted(names))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


# separates the columns of a rule line, so a name written into one cannot hold it
_COLUMN = "|"


def _decoded(data: bytes | str, source: str) -> str:
    """``data`` as text: bytes are decoded as UTF-8."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RuleFileError(
            f"not UTF-8 text ({exc.reason} at byte {exc.start})", None, source
        ) from None


def _lines(text: str):
    """``(number, line)`` for each line that holds more than a ``#`` comment, stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _once(seen: dict, key, line_no: int, source: str, what: str) -> None:
    """Note ``key`` as given on ``line_no``; if ``seen`` has it from an
    earlier line, fail with ``what`` and that line."""
    first = seen.setdefault(key, line_no)
    if first != line_no:
        raise RuleFileError(f"{what} on line {first}", line_no, source)


def _control_char(text: str) -> str | None:
    """The first C0 control character or DEL in ``text``, if any.

    Names read from input files are printed verbatim in reports and rule
    files, where such a character would be a line break or a terminal escape.
    """
    return next((c for c in text if c < " " or c == "\x7f"), None)


def _name(text: str, what: str, line: int | None, source: str, forbidden: str = "") -> str:
    """``text``, unless it holds a control character (see :func:`_control_char`)
    or a character of ``forbidden``."""
    bad = _control_char(text)
    if bad is not None:
        raise RuleFileError(f"{what} {text!r} holds control character {bad!r}", line, source)
    bad = next((c for c in text if c in forbidden), None)
    if bad is not None:
        raise RuleFileError(f"{what} {text!r} holds {bad!r}", line, source)
    return text


def _labels(text: str, what: str, line: int, source: str, forbidden: str = "") -> frozenset[str]:
    """The comma-separated names of a label domain."""
    return frozenset(_name(p.strip(), what, line, source, forbidden) for p in text.split(","))


def _parse_attr_decl(rest: str, line: int, source: str) -> AttributeDef:
    parts = rest.split(None, 2)
    if len(parts) != 3:
        raise RuleFileError("expected: attr <name> <kind> <domain>", line, source)
    name, kind_s, domain_s = parts
    _name(name, "attribute name", line, source)
    try:
        kind = AttrKind(kind_s)
    except ValueError:
        raise RuleFileError(f"unknown attribute kind {kind_s!r}", line, source) from None
    if kind.is_numeric:
        try:
            domain = _parse_intervals(domain_s, kind)
        except ValueError as exc:
            raise RuleFileError(f"bad domain for {name!r}: {exc}", line, source) from None
    else:
        names = _labels(domain_s, f"label of {name!r}", line, source, _COLUMN)
        if "" in names:
            raise RuleFileError(f"bad domain for {name!r}: empty label", line, source)
        # a declared 'any' or 'all' would be written back as, and read as, the wildcard
        reserved = sorted(n for n in names if n == COMPLEMENT_LABEL or n.lower() in _WILDCARD_TOKENS)
        if reserved:
            raise RuleFileError(f"{reserved[0]!r} is reserved and cannot be declared", line, source)
        domain = ValueSet(labels=complete_label_domain(kind, names))
    try:
        return AttributeDef(name=name, kind=kind, domain=domain)
    except SchemaError as exc:
        raise RuleFileError(str(exc), line, source) from None


def parse_ruleset(data: bytes | str, *, source: str = "<string>") -> RuleSet:
    """Decode one rule file: the text format, or the dict mirror when
    ``source`` ends in ``.json``.

    ``data`` is the file's bytes (decoded as UTF-8) or its text.  Every
    defect raises :class:`RuleFileError` naming ``source``.
    """
    data = _decoded(data, source)
    if Path(source).suffix == ".json":
        import json  # only JSON rule files need it

        try:
            return _from_dict(json.loads(data, object_pairs_hook=_unrepeated), source)
        except KeyError as exc:
            reason = f"missing key {exc}"
        except RuleFileError as exc:  # the header text's lines are not the file's
            reason = exc.reason
        except (TypeError, ValueError) as exc:
            reason = str(exc)
        except RecursionError:
            reason = "nested too deeply"
        raise RuleFileError(f"bad JSON rule file: {reason}", None, source)
    return _parse_text(data, source)


def _parse_text(text: str, source: str) -> RuleSet:
    component: str | None = None
    kind: ComponentKind | None = None
    attrs: list[AttributeDef] = []
    decision: AttributeDef | None = None
    rules: list[Rule] = []
    read_rule = None  # set at the 'rules' line
    header_at: dict[str, int] = {}  # component/kind/decision -> its line

    for line_no, line in _lines(text):
        if read_rule is not None:
            rule = _parse_rule_line(line, line_no, source, len(attrs), len(rules) + 1, read_rule)
            rules.append(rule)
            continue
        head, *tail = line.split(None, 1)  # a tab separates as a space does
        rest = tail[0] if tail else ""
        if head in ("component", "kind", "decision"):
            _once(header_at, head, line_no, source, f"{head} already given")
        if head == "component":
            if not rest:
                raise RuleFileError("component needs a name", line_no, source)
            component = _name(rest, "component", line_no, source, _COLUMN)
        elif head == "kind":
            try:
                kind = ComponentKind(rest)
            except ValueError:
                raise RuleFileError(
                    f"kind must be filtering or alerting, not {rest!r}", line_no, source
                ) from None
        elif head == "attr":
            attr = _parse_attr_decl(rest, line_no, source)
            if any(a.name == attr.name for a in attrs):
                raise RuleFileError(f"duplicate attribute {attr.name!r}", line_no, source)
            attrs.append(attr)
        elif head == "decision":
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise RuleFileError("expected: decision <name> <labels>", line_no, source)
            name = _name(parts[0], "decision name", line_no, source)
            names = _labels(parts[1], "decision label", line_no, source)
            try:
                decision = AttributeDef(
                    name=name, kind=AttrKind.LABEL_ENUM, domain=ValueSet(labels=names)
                )
            except SchemaError as exc:
                raise RuleFileError(str(exc), line_no, source) from None
        elif head == "rules":
            if component is None or kind is None or decision is None or not attrs:
                raise RuleFileError(
                    "component, kind, attr and decision lines must precede rules",
                    line_no,
                    source,
                )
            read_rule = _rule_reader(attrs, decision, component)
        else:
            raise RuleFileError(f"unknown directive {head!r}", line_no, source)

    if read_rule is None:
        raise RuleFileError("missing 'rules' section", None, source)

    try:
        schema = Schema(condition_attributes=tuple(attrs), decision_attribute=decision)
    except SchemaError as exc:
        raise RuleFileError(str(exc), None, source) from None
    # read_rule checked each rule as it read it
    return RuleSet._of_checked(schema, tuple(rules), kind, component)


def _parse_rule_line(
    line: str, line_no: int, source: str, n: int, position: int, read_rule
) -> Rule:
    """The rule on a text line of ``n`` values, read by ``read_rule``."""
    cells = [c.strip() for c in line.split("|")]
    if len(cells) not in (n + 2, n + 3):
        raise RuleFileError(
            f"expected {n + 2} columns (id, {n} values, action), got {len(cells)}",
            line_no,
            source,
        )
    try:
        rule_id = _parse_int(cells[0])
    except ValueError:
        raise RuleFileError(f"bad rule id {cells[0]!r}", line_no, source) from None
    origin = _name(cells[n + 2], "origin", line_no, source) if len(cells) == n + 3 else ""
    try:
        return read_rule(rule_id, cells[1 : n + 1], cells[n + 1], origin, position)
    except ValueError as exc:
        raise RuleFileError(str(exc), line_no, source) from None


def _rule_reader(attrs: list[AttributeDef], decision: AttributeDef, component: str):
    """``read_rule``, which reads a rule of a file with these declarations
    from its fields as written, in either format.

    ``read_rule(rule_id, texts, action, origin, position)`` checks that
    ``rule_id`` is ``position``, reads ``texts`` in the order of ``attrs``
    through :func:`_read_value`, checks that ``action`` is in the decision
    domain and reads an empty ``origin`` as ``component``.  Each defect
    raises a ``ValueError`` holding its reason alone, for the caller to place.
    """
    values: dict[tuple[str, str], ValueSet] = {}  # see _read_value
    actions = decision.domain.labels or ()

    def read_rule(rule_id: int, texts: list[str], action: str, origin: str, position: int) -> Rule:
        if rule_id != position:
            raise ValueError(
                f"rule ids must be consecutive from 1; found {rule_id} at position {position}"
            )
        condition = {}
        for attr, text in zip(attrs, texts):
            condition[attr.name] = _read_value(values, text, attr)
        if action not in actions:
            raise ValueError(f"action {action!r} not in decision domain")
        return Rule(id=rule_id, condition=condition, action=action, origin=origin or component)

    return read_rule


def _read_value(
    table: dict[tuple[str, str], ValueSet], cell: str, attr: AttributeDef
) -> ValueSet:
    """``parse_value(cell, attr)``, parsed once per distinct (attribute, cell) in ``table``.

    Rule files draw their values from small pools, so most cells repeat one
    already read.  Only a parsed value is stored, so a bad cell fails where
    it first appears, with the message ``parse_value`` gives.
    """
    key = (attr.name, cell)
    v = table.get(key)
    if v is None:
        v = table[key] = parse_value(cell, attr)
    return v


def _formatted_rules(rs: RuleSet):
    """Each rule, with its condition values in rule-file syntax in schema order.

    Each distinct value of an attribute is formatted once per call.
    """
    columns = []
    for attr in rs.schema.condition_attributes:
        texts: dict[tuple, str] = {}  # keyed by the value set's fields, quicker to hash
        column = []
        for rule in rs.rules:
            v = rule.condition[attr.name]
            key = v.labels, v.intervals
            text = texts.get(key)
            if text is None:
                text = texts[key] = format_value(v, attr)
            column.append(text)
        columns.append(column)
    return zip(rs.rules, zip(*columns))


def serialize_ruleset(rs: RuleSet) -> str:
    lines = [f"component {rs.component_name}", f"kind {rs.component_kind.value}"]
    for attr in rs.schema.condition_attributes:
        lines.append(f"attr {attr.name} {attr.kind.value} {_format_domain(attr)}")
    dec = rs.schema.decision_attribute
    lines.append(f"decision {dec.name} {','.join(sorted(dec.domain.labels or ()))}")
    lines.append("rules")
    for rule, values in _formatted_rules(rs):
        cells = [str(rule.id), *values, rule.action]
        if rule.origin and rule.origin != rs.component_name:
            cells.append(rule.origin)
        lines.append(" | ".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dict / JSON mirror
# ---------------------------------------------------------------------------


def ruleset_to_dict(rs: RuleSet) -> dict:
    names = rs.schema.condition_names
    return {
        "component": rs.component_name,
        "kind": rs.component_kind.value,
        "attributes": [
            {"name": a.name, "kind": a.kind.value, "domain": _format_domain(a)}
            for a in rs.schema.condition_attributes
        ],
        "decision": {
            "name": rs.schema.decision_attribute.name,
            "labels": sorted(rs.schema.decision_attribute.domain.labels or ()),
        },
        "rules": [
            {
                "id": r.id,
                "values": dict(zip(names, values)),
                "action": r.action,
                "origin": r.origin,
            }
            for r, values in _formatted_rules(rs)
        ],
    }


def _unrepeated(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is an error, not an override."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ValueError(f"repeated key {key!r}")
        d[key] = value
    return d


# a comment mark, or a line break that is not a control character
_NOT_IN_HEADER = "#\x85\u2028\u2029"


def _from_dict(d: dict, source: str) -> RuleSet:
    def text(value, key: str, forbidden: str = _NOT_IN_HEADER) -> str:
        # the header is rebuilt as text, where these characters change its meaning
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string")
        bad = _control_char(value) or next((c for c in value if c in forbidden), None)
        if bad is not None:
            raise ValueError(f"{key} holds {bad!r}")
        return value

    lines = [f"component {text(d['component'], 'component')}", f"kind {text(d['kind'], 'kind')}"]
    for i, a in enumerate(d["attributes"]):
        fields = (text(a[k], f"attributes[{i}].{k}") for k in ("name", "kind", "domain"))
        lines.append("attr " + " ".join(fields))
    dec = d["decision"]
    labels = [
        text(label, f"decision.labels[{i}]", _NOT_IN_HEADER + ",")
        for i, label in enumerate(dec["labels"])
    ]
    lines.append(f"decision {text(dec['name'], 'decision.name')} {','.join(labels)}")
    lines.append("rules")
    base = _parse_text("\n".join(lines) + "\n", source)
    attrs, names = base.schema.condition_attributes, set(base.schema.condition_names)
    read_rule = _rule_reader(attrs, base.schema.decision_attribute, base.component_name)
    rules = []
    for position, entry in enumerate(d["rules"], start=1):
        rule_id, origin = entry["id"], entry.get("origin", "")
        if type(rule_id) is not int or not isinstance(origin, str):
            raise ValueError(f"rule {rule_id!r}: id must be an integer and origin a string")
        _name(origin, f"rule {rule_id} origin", None, source, _NOT_IN_HEADER + _COLUMN)
        action, given = entry["action"], entry["values"]
        if not isinstance(action, str):
            raise ValueError(f"rule {rule_id}: action must be a string")
        texts = [str(given[a.name]) for a in attrs]
        undeclared = next((k for k in given if k not in names), None)
        if undeclared is not None:
            raise ValueError(f"rule {rule_id}: value for undeclared attribute {undeclared!r}")
        try:
            rules.append(read_rule(rule_id, texts, action, origin, position))
        except ValueError as exc:
            raise ValueError(f"rule {rule_id}: {exc}") from None
    return RuleSet._of_checked(base.schema, tuple(rules), base.component_kind, base.component_name)


def load_ruleset(path: str | Path) -> RuleSet:
    """Load a rule set from a ``.rules`` text file or a ``.json`` mirror."""
    return parse_ruleset(Path(path).read_bytes(), source=str(path))


def save_ruleset(path: str | Path, rs: RuleSet) -> None:
    path = Path(path)
    if path.suffix == ".json":
        import json

        path.write_text(json.dumps(ruleset_to_dict(rs), indent=2, sort_keys=True) + "\n")
    else:
        path.write_text(serialize_ruleset(rs))
