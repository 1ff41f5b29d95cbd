"""Cross-component checks: schema union/extension, anomaly pairs, topologies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import iter_packets, mixed_values
from policytree.dtree import tree_to_rules
from policytree.interop import (
    InterKind,
    detect_inter,
    extend_schema,
    union_schema,
)
from policytree.model import (
    AttributeDef,
    ComponentKind,
    Rule,
    RuleSet,
    Schema,
    ConflictPolicy,
    SchemaError,
    Severity,
)
from policytree.oracle import endpoint_space, evaluate
from policytree.rdt import build_rdt
from policytree.ruleio import RuleFileError
from policytree.topology import PositioningViolation, check_positioning, parse_topology
from policytree.values import ANY, COMPLEMENT_LABEL, AttrKind, ValueSet, intervals, labels


def _schema(*attrs: AttributeDef, decisions=("accept", "deny")) -> Schema:
    return Schema(
        condition_attributes=attrs,
        decision_attribute=AttributeDef("action", AttrKind.LABEL_ENUM, labels(*decisions)),
    )


def _iattr(name: str, lo: int, hi: int) -> AttributeDef:
    return AttributeDef(name, AttrKind.INTEGER_RANGE, intervals(((lo, hi),)))


# ---------------------------------------------------------------------------
# schema union
# ---------------------------------------------------------------------------


def test_union_keeps_preceding_order_then_appends(fw, ids):
    u = union_schema(fw.schema, ids.schema)
    assert u.condition_names == (
        "protocol",
        "src_addr",
        "src_port",
        "dst_addr",
        "dst_port",
        "packet_length",
        "attack_class",
    )
    assert u.decision_attribute.name == "action"
    assert u.decision_attribute.domain.labels == frozenset({"accept", "deny", "pass", "reject"})


def test_union_merges_domains_without_widening_to_wildcard():
    a = _schema(_iattr("x", 0, 9))
    b = _schema(_iattr("x", 5, 19))
    u = union_schema(a, b)
    assert u.attribute("x").domain == intervals(((0, 19),))

    c = _schema(_iattr("x", 20, 29))
    gap = union_schema(a, c)
    assert gap.attribute("x").domain == intervals(((0, 9), (20, 29)))
    assert not gap.attribute("x").domain.is_wildcard

    lbl_a = _schema(AttributeDef("t", AttrKind.LABEL_ENUM, labels("a", "b")))
    lbl_b = _schema(AttributeDef("t", AttrKind.LABEL_ENUM, labels("b", "c")))
    assert union_schema(lbl_a, lbl_b).attribute("t").domain == labels("a", "b", "c")


def test_union_rejects_kind_clash():
    a = _schema(_iattr("x", 0, 9))
    b = _schema(AttributeDef("x", AttrKind.LABEL_ENUM, labels("a")))
    with pytest.raises(SchemaError, match="declared as"):
        union_schema(a, b)


# ---------------------------------------------------------------------------
# schema extension
# ---------------------------------------------------------------------------


def test_extend_adds_wildcards_for_new_attributes(fw, ids):
    u = union_schema(fw.schema, ids.schema)
    ext = extend_schema(fw, u)
    assert ext.schema == u
    assert len(ext.rules) == len(fw.rules)
    for before, after in zip(fw.rules, ext.rules):
        assert after.id == before.id and after.action == before.action
        assert after.condition["packet_length"].is_wildcard
        assert after.condition["attack_class"].is_wildcard
        for name in fw.schema.condition_names:
            assert after.condition[name] == before.condition[name]


def test_extend_reorders_existing_attributes(fw, ids):
    u = union_schema(fw.schema, ids.schema)
    ext = extend_schema(ids, u)
    assert ext.schema.condition_names == u.condition_names
    for before, after in zip(ids.rules, ext.rules):
        for name in ids.schema.condition_names:
            assert after.condition[name] == before.condition[name]


def test_extend_pins_wildcards_when_the_domain_grows():
    rs = RuleSet(
        schema=_schema(_iattr("x", 0, 9)),
        rules=(Rule(1, {"x": ANY}, "accept"), Rule(2, {"x": intervals(((3, 4),))}, "deny")),
        component_name="S",
    )
    wider = _schema(_iattr("x", 0, 19), _iattr("y", 0, 5))
    ext = extend_schema(rs, wider)
    assert ext.rules[0].condition["x"] == intervals(((0, 9),))  # not the new wildcard
    assert ext.rules[1].condition["x"] == intervals(((3, 4),))
    assert ext.rules[0].condition["y"].is_wildcard


@st.composite
def _open_side(draw, name: str) -> RuleSet:
    # an interval attribute and an open label enumeration, each side its own domains
    declared = draw(st.frozensets(st.sampled_from(("a", "b", "c")), min_size=1))
    tag = AttributeDef("tag", AttrKind.LABEL_ENUM, ValueSet(labels=declared | {COMPLEMENT_LABEL}))
    schema = _schema(_iattr("x", 0, draw(st.sampled_from((9, 14)))), tag)
    rules = tuple(
        Rule(i, {a.name: draw(mixed_values(a)) for a in schema.condition_attributes},
             draw(st.sampled_from(("accept", "deny"))))
        for i in range(1, draw(st.integers(1, 5)) + 1)
    )
    return RuleSet(schema=schema, rules=rules, component_name=name)


@settings(max_examples=100, derandomize=True)
@given(_open_side("P"), _open_side("F"))
def test_restating_keeps_every_decision(p, f):
    union = union_schema(p.schema, f.schema)
    restated = [extend_schema(rs, union) for rs in (p, f)]
    packets = list(iter_packets(endpoint_space(*restated)))
    for rs, ext in zip((p, f), restated):
        declared = rs.schema.attribute("tag").domain.labels
        for packet in packets:
            # a label the side never declared is, to that side, its complement label
            own = dict(packet, tag=packet["tag"] if packet["tag"] in declared else COMPLEMENT_LABEL)
            for policy in ConflictPolicy:
                assert evaluate(ext, packet, policy) == evaluate(rs, own, policy)


@pytest.mark.parametrize(
    "target, message",
    [
        (_schema(_iattr("y", 0, 9)), "lacks attribute"),
        (_schema(AttributeDef("x", AttrKind.LABEL_ENUM, labels("a"))), "changes kind"),
        (_schema(_iattr("x", 0, 4)), "does not cover"),
        (_schema(_iattr("x", 0, 9), decisions=("reject", "pass")), "decision domain"),
    ],
)
def test_extend_rejects_narrower_targets(target, message):
    rs = RuleSet(
        schema=_schema(_iattr("x", 0, 9)),
        rules=(Rule(1, {"x": ANY}, "accept"),),
        component_name="S",
    )
    with pytest.raises(SchemaError, match=message):
        extend_schema(rs, target)


# ---------------------------------------------------------------------------
# cross-component anomalies
# ---------------------------------------------------------------------------


def _pair(p_rows, f_rows, decisions=("accept", "deny", "reject", "pass")):
    schema = _schema(_iattr("x", 0, 39), decisions=decisions)
    mk = lambda rows, name, kind: RuleSet(
        schema=schema,
        rules=tuple(
            Rule(i, {"x": ANY if spans is None else intervals(spans)}, action)
            for i, (spans, action) in enumerate(rows, start=1)
        ),
        component_name=name,
        component_kind=kind,
    )
    return (
        mk(p_rows, "P", ComponentKind.FILTERING),
        mk(f_rows, "F", ComponentKind.ALERTING),
    )


def test_kind_classification_on_contained_pairs():
    cases = [
        ("deny", "pass", InterKind.SHADOWING, Severity.ERROR),
        ("accept", "reject", InterKind.SPURIOUSNESS, Severity.ERROR),
        ("deny", "reject", InterKind.REDUNDANCY, Severity.WARNING),
        ("discard", "pass", InterKind.SHADOWING, Severity.ERROR),
        ("accept", "discard", InterKind.SPURIOUSNESS, Severity.ERROR),
    ]
    decisions = ("accept", "deny", "reject", "pass", "discard")
    for p_action, f_action, kind, sev in cases:
        p, f = _pair([(((0, 20),), p_action)], [(((5, 10),), f_action)], decisions)
        (a,) = detect_inter(p, f)
        assert (a.kind, a.severity) == (kind, sev)
        assert (a.preceding_rule, a.following_rule) == (1, 1)


def test_contained_permit_permit_is_quiet():
    p, f = _pair([(((0, 20),), "accept")], [(((5, 10),), "pass")])
    assert detect_inter(p, f) == []


def test_partial_overlap_flags_only_class_conflicts():
    p, f = _pair([(((0, 10),), "accept")], [(((5, 20),), "reject")])
    (a,) = detect_inter(p, f)
    assert a.kind is InterKind.CORRELATION
    assert a.severity is Severity.ERROR

    p, f = _pair([(((0, 10),), "deny")], [(((5, 20),), "reject")])
    assert detect_inter(p, f) == []


def test_disjoint_pairs_are_quiet():
    p, f = _pair([(((0, 9),), "deny")], [(((20, 30),), "pass")])
    assert detect_inter(p, f) == []


def test_detect_inter_requires_the_shared_schema(fw, ids):
    with pytest.raises(SchemaError, match="shared schema"):
        detect_inter(fw, ids)


def test_firewall_ids_pair_findings(fw, ids):
    corrected = tree_to_rules(build_rdt(fw).tree)
    u = union_schema(corrected.schema, ids.schema)
    found = detect_inter(extend_schema(corrected, u), extend_schema(ids, u))
    assert [(a.kind, a.preceding_rule, a.following_rule) for a in found] == [
        (InterKind.CORRELATION, 2, 1),
        (InterKind.SPURIOUSNESS, 5, 2),
    ]


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------


def test_parse_topology_fixture(cases_dir):
    path = cases_dir / "ingress.topo"
    topo = parse_topology(path.read_text(), source="ingress.topo")
    assert parse_topology(path.read_bytes(), source="ingress.topo") == topo
    assert set(topo.components) == {"FW", "IDS"}
    assert topo.components["FW"].kind is ComponentKind.FILTERING
    assert topo.components["FW"].rules_path == "fw.rules"
    assert topo.paths == (("ingress", ("FW", "IDS")),)
    assert check_positioning(topo) == []
    with pytest.raises(RuleFileError, match=r"^bad\.topo: not UTF-8 text"):
        parse_topology(b"component FW filtering \xe9\n", source="bad.topo")


def test_parse_topology_inline_members_and_comments():
    topo = parse_topology(
        """
        # comment-only line
        path egress IDS2:alerting FW2:filtering  # trailing comment
        """
    )
    assert topo.components["IDS2"].kind is ComponentKind.ALERTING
    assert topo.components["IDS2"].rules_path is None
    assert check_positioning(topo) == [
        PositioningViolation(path="egress", alerting="IDS2", filtering="FW2")
    ]


def test_positioning_allows_filter_then_alert_chains():
    topo = parse_topology("path p A:filtering B:filtering C:alerting D:alerting")
    assert check_positioning(topo) == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("route a B:filtering", "unknown directive"),
        ("component FW router", "unknown kind"),
        ("component FW", "expected component"),
        ("path solo", "needs a name and members"),
        ("path p GHOST", "undeclared component"),
        ("path p X:bridge", "unknown kind"),
        ("component FW filtering a.rules\ncomponent FW alerting", "t.topo:2: .* on line 1"),
        (
            "path p FW:alerting IDS:alerting\ncomponent FW filtering fw.rules",
            "t.topo:2: component 'FW' is filtering here but alerting on line 1",
        ),
        (
            "component FW filtering fw.rules\n\npath p FW:alerting IDS:alerting",
            "t.topo:3: component 'FW' is alerting here but filtering on line 1",
        ),
    ],
)
def test_topology_errors(text, message):
    with pytest.raises(RuleFileError, match=message):
        parse_topology(text, source="t.topo")


def test_topology_errors_carry_location():
    with pytest.raises(RuleFileError, match=r"t\.topo:2"):
        parse_topology("component FW filtering\nbogus line\n", source="t.topo")
