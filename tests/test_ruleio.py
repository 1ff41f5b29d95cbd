"""Rule-file parsing, serialization, and their round-trip guarantees."""

import ipaddress
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from policytree.model import AttributeDef, Rule, RuleSet, Schema, SchemaError
from policytree.ruleio import (
    RuleFileError,
    format_value,
    load_ruleset,
    parse_point,
    parse_ruleset,
    parse_value,
    ruleset_to_dict,
    save_ruleset,
    serialize_ruleset,
)
from policytree.values import (
    ANY,
    AttrKind,
    COMPLEMENT_LABEL,
    ValueSetError,
    intervals,
    labels,
)

from _corpus import ruleset_from_dict

MINIMAL = """
component X
kind filtering
attr p protocol-enum TCP,UDP
attr port port-range 0-65535
decision action accept,deny
rules
1 | TCP | 80 | accept
2 | any | 1024-2048,4000-5000 | deny
"""


def test_fixture_round_trip(fw, ids):
    for rs in (fw, ids):
        again = parse_ruleset(serialize_ruleset(rs))
        assert again == rs


def test_dict_round_trip(fw, ids):
    for rs in (fw, ids):
        d = ruleset_to_dict(rs)
        json.dumps(d)  # must be JSON-serializable as-is
        assert ruleset_from_dict(d) == rs


def test_save_load_both_formats(tmp_path, fw):
    text_path = tmp_path / "a.rules"
    json_path = tmp_path / "a.json"
    save_ruleset(text_path, fw)
    save_ruleset(json_path, fw)
    assert load_ruleset(text_path) == fw
    assert load_ruleset(json_path) == fw
    json.loads(json_path.read_text())


def test_minimal_parse():
    rs = parse_ruleset(MINIMAL)
    assert rs.component_name == "X"
    assert len(rs.rules) == 2
    assert rs.rules[0].condition["port"] == intervals(((80, 80),))
    assert rs.rules[1].condition["p"] == ANY
    assert rs.rules[1].condition["port"] == intervals(((1024, 2048), (4000, 5000)))
    # origin defaults to the component name and is omitted on output
    assert rs.rules[0].origin == "X"
    assert "| X" not in serialize_ruleset(rs)


def test_origin_column_round_trips():
    text = MINIMAL.replace("| accept", "| accept | FW:r3")
    rs = parse_ruleset(text)
    assert rs.rules[0].origin == "FW:r3"
    assert "FW:r3" in serialize_ruleset(rs)
    assert parse_ruleset(serialize_ruleset(rs)) == rs


def test_an_empty_origin_column_reads_as_no_origin():
    rs = parse_ruleset(MINIMAL.replace("| accept", "| accept | "))
    assert [r.origin for r in rs.rules] == ["X", "X"]
    assert parse_ruleset(serialize_ruleset(rs)) == rs


def test_an_empty_json_origin_reads_as_no_origin():
    d = ruleset_to_dict(parse_ruleset(MINIMAL.replace("| deny", "| deny | FW")))
    d["rules"][0]["origin"] = ""
    rs = parse_ruleset(json.dumps(d), source="x.json")
    assert [r.origin for r in rs.rules] == ["X", "FW"]
    assert parse_ruleset(serialize_ruleset(rs)) == rs
    assert parse_ruleset(json.dumps(ruleset_to_dict(rs)), source="x.json") == rs


ipv4 = AttributeDef("a", AttrKind.IPV4_RANGE, intervals(((0, 2**32 - 1),)))


def test_ipv4_forms():
    star = parse_value("140.192.10.*", ipv4)
    assert star == parse_value("140.192.10.0-140.192.10.255", ipv4)
    assert parse_value("10.0.*.*", ipv4) == parse_value("10.0.0.0-10.0.255.255", ipv4)
    # a prefix length means the whole block; host bits and bad lengths are errors
    assert parse_value("140.192.10.0/24", ipv4) == star
    assert parse_value("10.0.0.0/8", ipv4) == parse_value("10.*.*.*", ipv4)
    assert parse_value("140.192.10.7/32", ipv4) == parse_value("140.192.10.7", ipv4)
    assert parse_value("0.0.0.0/0", ipv4) == ipv4.domain
    for bad in ("140.192.10.7/24", "1.2.3.4/junk", "1.2.3.4/33", "1.2.3.4/", "1.2.3.0/+24"):
        with pytest.raises(ValueError):
            parse_value(bad, ipv4)
    with pytest.raises(ValueError):
        parse_value("10.*.0.0", ipv4)  # wildcard octets must be a suffix
    with pytest.raises(ValueError):
        parse_value("1.2.3", ipv4)


@pytest.mark.parametrize("n", [0, 255, 256, 2**32 - 1, (140 << 24) + (192 << 16) + (10 << 8) + 7])
def test_ipv4_bounds_format_as_dotted_quads(n):
    assert format_value(intervals(((n, n),)), ipv4) == str(ipaddress.IPv4Address(n))


def test_ipv4_domain_must_fit_32_bits():
    for spans in (((0, 2**32),), ((0, 2**33),), ((-1, 5),)):
        with pytest.raises(SchemaError, match="outside the IPv4 range"):
            AttributeDef("ip", AttrKind.IPV4_RANGE, intervals(spans))
    # only addresses have that bound
    AttributeDef("n", AttrKind.INTEGER_RANGE, intervals(((0, 2**33),)))


def test_shared_out_of_domain_value_names_its_first_rule():
    port = AttributeDef("port", AttrKind.PORT_RANGE, intervals(((0, 99),)))
    size = AttributeDef("size", AttrKind.INTEGER_RANGE, intervals(((0, 9),)))
    decision = AttributeDef("action", AttrKind.LABEL_ENUM, labels("accept"))
    small, large = intervals(((0, 9),)), intervals(((50, 150),))
    ports = [small, large, small, small, large]
    rules = tuple(Rule(i, {"port": v}, "accept") for i, v in enumerate(ports, start=1))
    with pytest.raises(SchemaError, match=r"^rule 2: value for 'port' falls outside its domain$"):
        RuleSet(Schema((port,), decision), rules)
    # a value set inside one attribute's domain is checked again on another
    medium = intervals(((50, 60),))
    rules = (
        Rule(1, {"port": medium, "size": ANY}, "accept"),
        Rule(2, {"port": ANY, "size": medium}, "accept"),
    )
    with pytest.raises(SchemaError, match=r"^rule 2: value for 'size' falls outside its domain$"):
        RuleSet(Schema((port, size), decision), rules)


def test_wildcard_tokens():
    port = AttributeDef("port", AttrKind.PORT_RANGE, intervals(((0, 65535),)))
    for token in ("any", "ANY", "All", "all"):
        assert parse_value(token, port) == ANY
    assert format_value(ANY, port) == "any"


@given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=3))
def test_interval_value_round_trip(pairs):
    attr = AttributeDef("n", AttrKind.INTEGER_RANGE, intervals(((0, 99),)))
    v = intervals(tuple((min(a, b), max(a, b)) for a, b in pairs))
    assert parse_value(format_value(v, attr), attr) == v


def test_label_enum_gains_complement_member():
    text = MINIMAL.replace(
        "attr p protocol-enum TCP,UDP", "attr p label-enum winworm,Win32"
    ).replace("1 | TCP |", "1 | winworm |")
    rs = parse_ruleset(text)
    assert COMPLEMENT_LABEL in rs.schema.attribute("p").domain.labels
    # ... but the declaration line stays as the user wrote it
    assert COMPLEMENT_LABEL not in serialize_ruleset(rs)
    assert parse_ruleset(serialize_ruleset(rs)) == rs


def test_reserved_label_rejected():
    text = MINIMAL.replace(
        "attr p protocol-enum TCP,UDP", f"attr p label-enum winworm,{COMPLEMENT_LABEL}"
    )
    with pytest.raises(RuleFileError, match="reserved"):
        parse_ruleset(text)


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("kind filtering", "kind firewall"), "kind"),
        (lambda t: t.replace("1 | TCP", "7 | TCP"), "rule id"),
        (lambda t: t.replace("| 80 |", "|"), "column"),
        (lambda t: t[: t.index("rules\n")], "missing 'rules' section"),
        (lambda t: t.replace("| accept", "| allow"), "decision domain"),
        (lambda t: t.replace("1 | TCP", "1 | ICMP"), "domain"),
        (lambda t: t.replace("| 80 |", "| 90000 |"), "domain"),
        (lambda t: t + "garbage line\n", "columns"),
        (lambda t: t.replace("rules\n", "garbage line\nrules\n"), "directive"),
        (lambda t: t.replace("| 80 |", "| 1,,5 |"), "port: empty value atom"),
        (lambda t: t.replace("| 80 |", "| 20-10 |"), "port: inverted range '20-10'"),
        (lambda t: t.replace("1 | TCP", "1 | a,"), "p: empty label in 'a,'"),
        (
            lambda t: t.replace("protocol-enum TCP,UDP", "label-enum a,,b"),
            "bad domain for 'p': empty label",
        ),
        (lambda t: t.replace("component X", "component"), "component needs a name"),
    ],
)
def test_parse_errors(mangle, fragment):
    with pytest.raises(RuleFileError) as exc:
        parse_ruleset(mangle(MINIMAL), source="t.rules")
    assert fragment in exc.value.reason  # the source's name holds 'rules'


_PORT = AttributeDef("port", AttrKind.PORT_RANGE, intervals(((0, 99),)))
_ACTION = AttributeDef("action", AttrKind.LABEL_ENUM, labels("accept", "deny"))


def _rules(*rules: Rule) -> RuleSet:
    return RuleSet(Schema((_PORT,), _ACTION), rules)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: _rules(Rule(2, {"port": ANY}, "deny"), Rule(1, {"port": ANY}, "deny")),
            "rule ids must be consecutive from 1; found 2 at position 1",
        ),
        (lambda: _rules(Rule(1, {}, "deny")), "rule 1: missing port"),
        (lambda: _rules(Rule(1, {"port": ANY, "x": ANY}, "deny")), "rule 1: unexpected x"),
        (
            lambda: _rules(Rule(1, {"port": ANY}, "drop")),
            "rule 1: action 'drop' not in decision domain",
        ),
        (
            lambda: AttributeDef("n", AttrKind.INTEGER_RANGE, ANY),
            "attribute 'n' needs an explicit domain",
        ),
        (
            lambda: AttributeDef("n", AttrKind.INTEGER_RANGE, intervals(())),
            "attribute 'n' has an empty domain",
        ),
        (
            lambda: AttributeDef("n", AttrKind.INTEGER_RANGE, labels("a")),
            "attribute 'n' needs an interval domain",
        ),
        (
            lambda: AttributeDef("p", AttrKind.LABEL_ENUM, intervals(((0, 9),))),
            "attribute 'p' needs a label domain",
        ),
        (lambda: Schema((), _ACTION), "a schema needs at least one condition attribute"),
    ],
)
def test_model_records_refuse_what_they_cannot_hold(build, message):
    with pytest.raises(SchemaError) as exc:
        build()
    assert str(exc.value) == message


def test_errors_carry_location():
    bad = MINIMAL.replace("2 | any", "9 | any")
    with pytest.raises(RuleFileError) as exc:
        parse_ruleset(bad, source="t.rules")
    assert exc.value.source == "t.rules"
    assert exc.value.line is not None
    assert str(exc.value).startswith("t.rules:")


def test_a_tab_after_a_header_keyword_separates_as_a_space_does(cases_dir, fw):
    text = (cases_dir / "fw.rules").read_text()
    header, rules = text.split("\nrules\n")
    tabbed = "\n".join(line.replace(" ", "\t", 1) for line in header.splitlines())
    assert "component\tFW\nkind\tfiltering\n" in tabbed
    assert parse_ruleset(f"{tabbed}\nrules\n{rules}") == fw
    with pytest.raises(RuleFileError, match=r"component 'F\\tW' holds control character '\\t'"):
        parse_ruleset(text.replace("component FW", "component F\tW"))


def test_duplicate_attribute_rejected():
    dup = MINIMAL.replace(
        "attr port port-range 0-65535",
        "attr port port-range 0-65535\nattr port port-range 0-9",
    )
    with pytest.raises(RuleFileError, match="duplicate"):
        parse_ruleset(dup)


def test_empty_ruleset_round_trips(cases_dir):
    rs = load_ruleset(cases_dir / "empty.rules")
    assert rs.rules == ()
    assert parse_ruleset(serialize_ruleset(rs)) == rs


def test_parse_point():
    port = AttributeDef("port", AttrKind.PORT_RANGE, intervals(((0, 65535),)))
    proto = AttributeDef("p", AttrKind.PROTOCOL_ENUM, labels("TCP", "UDP"))
    assert parse_point("80", port) == 80
    assert parse_point("TCP", proto) == "TCP"
    assert parse_point("140.192.10.9", ipv4) == (140 << 24) + (192 << 16) + (10 << 8) + 9
    with pytest.raises(ValueSetError):
        parse_point("70000", port)
    with pytest.raises(ValueSetError):
        parse_point("ICMP", proto)
    with pytest.raises(ValueSetError):
        parse_point("1.2.3.*", ipv4)
    # a packet field is read as a rule value that names one point
    assert parse_point("80-80", port) == 80
    assert parse_point("140.192.10.9-140.192.10.9", ipv4) == parse_point("140.192.10.9/32", ipv4)
    for token, attr in (("80,81", port), ("any", port), ("TCP,UDP", proto), ("All", proto)):
        with pytest.raises(ValueSetError, match=f"^{attr.name}: a packet needs a single value$"):
            parse_point(token, attr)
    with pytest.raises(ValueSetError, match="^a: a packet needs a single address$"):
        parse_point("140.192.10.9,140.192.10.10", ipv4)


@pytest.mark.parametrize("token", ["1_0", "+10", "-10", "\u0661\u0660"])
def test_numbers_are_ascii_digits_only(token):
    # int() reads these as 10 or -10; a rule file means none of them
    port = AttributeDef("port", AttrKind.PORT_RANGE, intervals(((0, 65535),)))
    with pytest.raises(ValueError, match="bad number"):
        parse_value(token, port)
    with pytest.raises(ValueError, match="bad number"):
        parse_value(f"5-{token}", port)
    with pytest.raises(ValueSetError, match="bad number"):
        parse_point(token, port)
    with pytest.raises(RuleFileError, match="bad rule id"):
        parse_ruleset(MINIMAL.replace("2 | any", f"{token} | any"), source="t.rules")


def test_dict_header_strings_keep_their_meaning(fw):
    d = ruleset_to_dict(fw)
    d["attributes"][0]["domain"] += " # note"
    with pytest.raises(RuleFileError, match=r"attributes\[0\]\.domain '.* # note' holds '#'"):
        ruleset_from_dict(d)
    for key in ("component", "kind"):
        for text in ("FW\r", "FW\u2028x", 5):
            with pytest.raises(RuleFileError, match=key):
                ruleset_from_dict({**ruleset_to_dict(fw), key: text})
    # a name or kind with a space in it would be split into other fields of its text line
    empty = {**ruleset_to_dict(fw), "rules": []}
    attr = {"name": "x port-range", "kind": "0-10", "domain": ""}
    reason = r"attributes\[0\]\.name 'x port-range' must be one word"
    with pytest.raises(RuleFileError, match=reason):
        ruleset_from_dict({**empty, "attributes": [attr]})
    decision = {"name": "act accept,deny", "labels": []}
    with pytest.raises(RuleFileError, match="decision.name 'act accept,deny' must be one word"):
        ruleset_from_dict({**empty, "decision": decision})
    # a text reader strips each field, so JSON may not pad one: ' FW  ' would load as FW
    for key, text in (("component", " FW  "), ("kind", "filtering ")):
        with pytest.raises(RuleFileError, match=f"{key} '{text}' has surrounding whitespace"):
            ruleset_from_dict({**ruleset_to_dict(fw), key: text})
    padded = [
        (("decision", "labels", 0), " accept", r"decision\.labels\[0\] ' accept'"),
        (("rules", 0, "values", "protocol"), "TCP ", r"rule 1: value for 'protocol' 'TCP '"),
        (("rules", 0, "origin"), "FW ", r"rule 1 origin 'FW '"),
    ]
    for (*path, key), text, what in padded:
        d = ruleset_to_dict(fw)
        _within(d, path)[key] = text
        with pytest.raises(RuleFileError, match=f"{what} has surrounding whitespace"):
            ruleset_from_dict(d)


def _within(d: dict, path) -> dict:
    """The object at ``path`` in ``d``, a sequence of keys and indices."""
    for step in path:
        d = d[step]
    return d


def _required_keys(d: dict):
    """``(place, path, key)`` for each key of ``d`` that a JSON rule file must give:
    ``key`` of the dict at ``path`` in ``d``, and the place its error names."""
    yield from (("the document", (), k) for k in d)
    yield from (("decision", ("decision",), k) for k in d["decision"])
    for i, attr in enumerate(d["attributes"]):
        yield from ((f"attributes[{i}]", ("attributes", i), k) for k in attr)
    for i, rule in enumerate(d["rules"]):
        # a rule is named by its id once it has one; an absent origin reads as the component
        named = f"rule {rule['id']}"
        for k in rule.keys() - {"origin"}:
            yield f"rules[{i}]" if k == "id" else named, ("rules", i), k
        yield from ((named, ("rules", i, "values"), k) for k in rule["values"])


def test_every_missing_json_key_names_its_place(fw):
    cases = list(_required_keys(ruleset_to_dict(fw)))
    # the document's 5 keys, the decision's 2, 3 per attribute, 3 and 5 values per rule
    assert len(cases) == 5 + 2 + 5 * 3 + 4 * (3 + 5)
    for place, path, key in cases:
        d = ruleset_to_dict(fw)
        del _within(d, path)[key]
        with pytest.raises(RuleFileError) as exc:
            ruleset_from_dict(d)
        assert f"{place}: missing key {key!r}" in exc.value.reason


def test_every_unknown_json_key_names_its_place(fw):
    d = ruleset_to_dict(fw)
    places = [("the document", ()), ("decision", ("decision",))]
    places += [(f"attributes[{i}]", ("attributes", i)) for i in range(len(d["attributes"]))]
    places += [(f"rule {r['id']}", ("rules", i)) for i, r in enumerate(d["rules"])]
    assert len(places) == 2 + 5 + 4
    # a misspelt key would drop what it names: "orgin" leaves the rule with the component
    for place, path in places:
        for key in ("comment", "orgin"):
            d = ruleset_to_dict(fw)
            _within(d, path)[key] = ""
            with pytest.raises(RuleFileError) as exc:
                ruleset_from_dict(d)
            assert f"{place}: unknown key {key!r}" in exc.value.reason
    # the keys of a rule's values name attributes, so an unknown one is an undeclared attribute
    d = ruleset_to_dict(fw)
    d["rules"][0]["values"]["orgin"] = "any"
    with pytest.raises(RuleFileError, match="rule 1: value for undeclared attribute 'orgin'"):
        ruleset_from_dict(d)



# two attributes that read a bare number, so one cell text can be good
# under one and bad under the other
PORT_AND_LEVEL = """component X
kind filtering
attr port port-range 0-65535
attr level integer-range 0-10
decision action accept,deny
rules
"""


def _port_and_level(*cells: tuple[str, str]) -> str:
    """PORT_AND_LEVEL with one rule per (port, level) pair, from line 7 on."""
    rows = (f"{i} | {port} | {level} | accept" for i, (port, level) in enumerate(cells, start=1))
    return PORT_AND_LEVEL + "\n".join(rows) + "\n"


def _port_and_level_json(*cells: tuple[str, str]) -> str:
    """The JSON mirror of ``_port_and_level(*cells)``, cells as written."""
    d = ruleset_to_dict(parse_ruleset(PORT_AND_LEVEL))
    d["rules"] = [
        {"id": i, "values": {"port": port, "level": level}, "action": "accept"}
        for i, (port, level) in enumerate(cells, start=1)
    ]
    return json.dumps(d)


def test_each_distinct_cell_is_parsed_once(monkeypatch):
    calls = []

    def counted(token, attr):
        calls.append((attr.name, token))
        return parse_value(token, attr)

    monkeypatch.setattr("policytree.ruleio.parse_value", counted)
    cells = (("80", "5"), ("80", "5"), ("any", "5"), ("80", "any"))
    rs = parse_ruleset(_port_and_level(*cells))
    assert sorted(calls) == [("level", "5"), ("level", "any"), ("port", "80"), ("port", "any")]
    assert rs.rules[0].condition["port"] is rs.rules[3].condition["port"]
    calls.clear()
    assert parse_ruleset(_port_and_level_json(*cells), source="t.json") == rs
    assert len(calls) == 4


def test_a_repeated_bad_cell_fails_where_it_first_appears():
    cells = (("8_0", "5"), ("80", "5"), ("8_0", "5"))  # lines 7 to 9
    with pytest.raises(RuleFileError, match=r"^t\.rules:7: port: bad number '8_0'$"):
        parse_ruleset(_port_and_level(*cells), source="t.rules")
    json_message = r"^t\.json: bad JSON rule file: rule 1: port: bad number '8_0'$"
    with pytest.raises(RuleFileError, match=json_message):
        parse_ruleset(_port_and_level_json(*cells), source="t.json")


def test_one_cell_text_is_read_per_attribute():
    # 80 is inside port's 0-65535, and outside level's 0-10
    good = (("80", "5"), ("80", "10"))
    rs = parse_ruleset(_port_and_level(*good))
    assert rs.rules[1].condition["port"] == intervals(((80, 80),))
    assert parse_ruleset(_port_and_level_json(*good), source="t.json") == rs
    bad = (("80", "5"), ("80", "80"))
    message = "level: value '80' outside the declared domain"
    with pytest.raises(RuleFileError, match=rf"^t\.rules:8: {message}$"):
        parse_ruleset(_port_and_level(*bad), source="t.rules")
    with pytest.raises(RuleFileError, match=rf"^t\.json: bad JSON rule file: rule 2: {message}$"):
        parse_ruleset(_port_and_level_json(*bad), source="t.json")
