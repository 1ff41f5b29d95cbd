"""Reading and writing rule files, and reading the lines of any input file.

Rule and topology files are UTF-8 text, less one leading byte-order mark,
read line by line, and each defect in one is a :class:`RuleFileError`
naming the file and line.  The helpers raise a ``ValueError`` holding the
reason alone, and each line loop, here and in ``topology``, places it.  The
rule-file text format, line by line (``#`` starts a comment anywhere):

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
gives the same reason in both.  JSON fields are read through one checked
lookup (:func:`_at`, :func:`_shaped`); the JSON arm places each error, with no line.
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
)
from .values import (
    ANY,
    AttrKind,
    COMPLEMENT_LABEL,
    ValueSet,
    ValueSetError,
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
    """The one point that a packet field names: ``token`` read as a rule value."""
    try:
        v = parse_value(token, attr)
    except ValueError as exc:
        raise ValueSetError(str(exc)) from None
    if v.labels is not None and len(v.labels) == 1:
        (point,) = v.labels
        return point
    if v.intervals is not None and len(v.intervals) == 1 and v.intervals[0][0] == v.intervals[0][1]:
        return v.intervals[0][0]
    single = "address" if attr.kind is AttrKind.IPV4_RANGE else "value"
    raise ValueSetError(f"{attr.name}: a packet needs a single {single}")


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
    """``data`` as text: bytes are decoded as UTF-8, less one leading byte-order mark.

    ``utf-8-sig`` would drop the mark too, but count a bad byte's offset from
    after it.
    """
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise RuleFileError(reason, None, source) from None


def _lines(text: str):
    """``(number, line)`` for each line that holds more than a ``#`` comment, stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _once(seen: dict, key, line_no: int, what: str) -> None:
    """Note ``key`` as given on ``line_no``; if ``seen`` has it from an
    earlier line, fail with ``what`` and that line."""
    first = seen.setdefault(key, line_no)
    if first != line_no:
        raise ValueError(f"{what} on line {first}")


def _name(text: str, what: str, forbidden: str = "") -> str:
    """``text``, unless it holds a C0 control character or DEL, a lone surrogate,
    or a character of ``forbidden``.

    Names read from input files are printed verbatim in reports and rule
    files, where a control character would be a line break or a terminal
    escape, and a lone surrogate, which JSON can spell, cannot be written.
    """
    bad = next((c for c in text if c < " " or c == "\x7f"), None)
    if bad is not None:
        raise ValueError(f"{what} {text!r} holds control character {bad!r}")
    bad = next((c for c in text if c in forbidden or "\ud800" <= c <= "\udfff"), None)
    if bad is not None:
        raise ValueError(f"{what} {text!r} holds {bad!r}")
    return text


def _labels(text: str, what: str, forbidden: str = "") -> frozenset[str]:
    """The comma-separated names of a label domain."""
    return frozenset(_name(p.strip(), what, forbidden) for p in text.split(","))


def _parse_attr_decl(rest: str) -> AttributeDef:
    parts = rest.split(None, 2)
    if len(parts) != 3:
        raise ValueError("expected: attr <name> <kind> <domain>")
    name, kind_s, domain_s = parts
    _name(name, "attribute name")
    try:
        kind = AttrKind(kind_s)
    except ValueError:
        raise ValueError(f"unknown attribute kind {kind_s!r}") from None
    if kind.is_numeric:
        try:
            domain = _parse_intervals(domain_s, kind)
        except ValueError as exc:
            raise ValueError(f"bad domain for {name!r}: {exc}") from None
    else:
        names = _labels(domain_s, f"label of {name!r}", _COLUMN)
        if "" in names:
            raise ValueError(f"bad domain for {name!r}: empty label")
        # a declared 'any' or 'all' would be written back as, and read as, the wildcard
        reserved = sorted(n for n in names if n == COMPLEMENT_LABEL or n.lower() in _WILDCARD_TOKENS)
        if reserved:
            raise ValueError(f"{reserved[0]!r} is reserved and cannot be declared")
        if kind is AttrKind.LABEL_ENUM:  # open: one more label stands for every label not named
            names |= {COMPLEMENT_LABEL}
        domain = ValueSet(labels=names)
    return AttributeDef(name=name, kind=kind, domain=domain)


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
        except RuleFileError as exc:  # the header text's lines are not the file's
            reason = exc.reason
        except ValueError as exc:
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
        try:
            if read_rule is not None:
                rules.append(_parse_rule_line(line, len(attrs), len(rules) + 1, read_rule))
                continue
            head, *tail = line.split(None, 1)  # a tab separates as a space does
            rest = tail[0] if tail else ""
            if head in ("component", "kind", "decision"):
                _once(header_at, head, line_no, f"{head} already given")
            if head == "component":
                if not rest:
                    raise ValueError("component needs a name")
                component = _name(rest, "component", _COLUMN)
            elif head == "kind":
                try:
                    kind = ComponentKind(rest)
                except ValueError:
                    raise ValueError(f"kind must be filtering or alerting, not {rest!r}") from None
            elif head == "attr":
                attr = _parse_attr_decl(rest)
                if any(a.name == attr.name for a in attrs):
                    raise ValueError(f"duplicate attribute {attr.name!r}")
                attrs.append(attr)
            elif head == "decision":
                parts = rest.split(None, 1)
                if len(parts) != 2:
                    raise ValueError("expected: decision <name> <labels>")
                name = _name(parts[0], "decision name")
                names = _labels(parts[1], "decision label")
                decision = AttributeDef(name, AttrKind.LABEL_ENUM, ValueSet(labels=names))
            elif head == "rules":
                if component is None or kind is None or decision is None or not attrs:
                    raise ValueError("component, kind, attr and decision lines must precede rules")
                read_rule = _rule_reader(attrs, decision, component)
            else:
                raise ValueError(f"unknown directive {head!r}")
        except ValueError as exc:  # each reason, a SchemaError's too, placed here
            raise RuleFileError(str(exc), line_no, source) from None

    if read_rule is None:
        raise RuleFileError("missing 'rules' section", None, source)

    try:
        schema = Schema(condition_attributes=tuple(attrs), decision_attribute=decision)
    except SchemaError as exc:
        raise RuleFileError(str(exc), None, source) from None
    # read_rule checked each rule as it read it
    return RuleSet._of_checked(schema, tuple(rules), kind, component)


def _parse_rule_line(line: str, n: int, position: int, read_rule) -> Rule:
    """The rule on a text line of ``n`` values, read by ``read_rule``."""
    cells = [c.strip() for c in line.split("|")]
    if len(cells) not in (n + 2, n + 3):
        raise ValueError(f"expected {n + 2} columns (id, {n} values, action), got {len(cells)}")
    try:
        rule_id = _parse_int(cells[0])
    except ValueError:
        raise ValueError(f"bad rule id {cells[0]!r}") from None
    origin = _name(cells[n + 2], "origin") if len(cells) == n + 3 else ""
    return read_rule(rule_id, cells[1 : n + 1], cells[n + 1], origin, position)


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
        texts: dict[ValueSet, str] = {}
        column = []
        for rule in rs.rules:
            v = rule.condition[attr.name]
            text = texts.get(v)
            if text is None:
                text = texts[v] = format_value(v, attr)
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

_SHAPES = {list: "a list", dict: "an object", str: "a string", int: "an integer"}


def _shaped(value, shape: type, what: str, forbidden: str = _NOT_IN_HEADER, word: bool = False):
    """``value``, if it is of ``shape``: a list, an object, a string or an integer, not a bool.
    A string must also pass :func:`_name` without ``forbidden``, have no surrounding
    whitespace and, with ``word``, be one word: the header is rebuilt as text, where
    these characters or a space change its meaning, and a text reader strips each field."""
    if not isinstance(value, shape) or isinstance(value, bool):
        raise ValueError(f"{what} must be {_SHAPES[shape]}")
    if shape is str:
        _name(value, what, forbidden)
        if value != value.strip():
            raise ValueError(f"{what} {value!r} has surrounding whitespace")
        if word and value.split() != [value]:
            raise ValueError(f"{what} {value!r} must be one word")
    return value


def _at(entry: dict, key: str, place: str):
    """``entry[key]``, where ``place`` names ``entry`` if the key is missing."""
    if key not in entry:
        raise ValueError(f"{place}: missing key {key!r}")
    return entry[key]


def _known(entry: dict, keys: tuple[str, ...], place: str) -> dict:
    """``entry``, unless it holds a key not in ``keys``: a misspelt key is not skipped."""
    unknown = next((k for k in entry if k not in keys), None)
    if unknown is not None:
        raise ValueError(f"{place}: unknown key {unknown!r}")
    return entry


def _from_dict(d: dict, source: str) -> RuleSet:
    doc = "the document"
    _known(_shaped(d, dict, doc), ("component", "kind", "attributes", "decision", "rules"), doc)
    lines = [f"{k} {_shaped(_at(d, k, doc), str, k)}" for k in ("component", "kind")]
    for i, a in enumerate(_shaped(_at(d, "attributes", doc), list, "attributes")):
        place = f"attributes[{i}]"
        keys = ("name", "kind", "domain")
        _known(_shaped(a, dict, place), keys, place)
        fields = (_shaped(_at(a, k, place), str, f"{place}.{k}", word=k != "domain") for k in keys)
        lines.append("attr " + " ".join(fields))
    dec = _known(_shaped(_at(d, "decision", doc), dict, "decision"), ("name", "labels"), "decision")
    name = _shaped(_at(dec, "name", "decision"), str, "decision.name", word=True)
    labels = [
        _shaped(label, str, f"decision.labels[{i}]", _NOT_IN_HEADER + ",")
        for i, label in enumerate(_shaped(_at(dec, "labels", "decision"), list, "decision.labels"))
    ]
    lines += [f"decision {name} {','.join(labels)}", "rules"]
    base = _parse_text("\n".join(lines) + "\n", source)
    attrs, names = base.schema.condition_attributes, set(base.schema.condition_names)
    read_rule = _rule_reader(attrs, base.schema.decision_attribute, base.component_name)
    rules = []
    for position, entry in enumerate(_shaped(_at(d, "rules", doc), list, "rules"), start=1):
        place = f"rules[{position - 1}]"
        rule_id = _shaped(_at(_shaped(entry, dict, place), "id", place), int, f"{place}.id")
        place = f"rule {rule_id}"
        _known(entry, ("id", "values", "action", "origin"), place)
        origin = _shaped(entry.get("origin", ""), str, f"{place} origin", _NOT_IN_HEADER + _COLUMN)
        action = _shaped(_at(entry, "action", place), str, f"{place}: action")
        given = _shaped(_at(entry, "values", place), dict, f"{place}: values")
        texts = [
            _shaped(_at(given, a.name, place), str, f"{place}: value for {a.name!r}") for a in attrs
        ]
        undeclared = next((k for k in given if k not in names), None)
        if undeclared is not None:
            raise ValueError(f"{place}: value for undeclared attribute {undeclared!r}")
        try:
            rules.append(read_rule(rule_id, texts, action, origin, position))
        except ValueError as exc:
            raise ValueError(f"{place}: {exc}") from None
    return RuleSet._of_checked(base.schema, tuple(rules), base.component_kind, base.component_name)


def load_ruleset(path: str | Path) -> RuleSet:
    """Load a rule set from a ``.rules`` text file or a ``.json`` mirror."""
    return parse_ruleset(Path(path).read_bytes(), source=str(path))


def save_ruleset(path: str | Path, rs: RuleSet) -> None:
    path = Path(path)
    if path.suffix == ".json":
        import json

        text = json.dumps(ruleset_to_dict(rs), indent=2, sort_keys=True) + "\n"
    else:
        text = serialize_ruleset(rs)
    path.write_text(text, encoding="utf-8")
