"""The pair-repair pipeline: integration, projection, and the case fixture.

The literal nine-row/three-row expectation below was derived by simulating
the global insertion order by hand.  It is cross-checked in-test: both
outputs must be relevant, anomaly-free, and mutually interoperable, and
``test_oracle`` re-verifies the same pipeline against the packet grid.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from policytree.correction import (
    CorrectedPair,
    correct_pair,
    correct_ruleset,
    integrate,
    project,
)
from policytree.dtree import DecisionTree, Edge, Node, dump_tree, tree_to_rules
from policytree.interop import detect_inter, extend_schema, union_schema
from policytree.intra import detect_intra, is_relevant_ruleset
from policytree.model import AttributeDef, ComponentKind, Rule, RuleSet, Schema, SchemaError
from policytree.oracle import Semantics, endpoint_space, equivalence
from policytree.rdt import ConflictPolicy, build_rdt
from policytree.ruleio import parse_ruleset, parse_value, serialize_ruleset
from policytree.values import ANY, AttrKind, COMPLEMENT_LABEL, ValueSet, intervals, labels

from _corpus import (
    build_tree,
    check_relevant,
    interval_schema,
    node_counts,
    random_component_pair,
    reference_project,
    texts,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _attr(schema: Schema, name: str) -> AttributeDef:
    return schema.attribute(name)


def _fw_row(fw, src: str, dst: str) -> dict:
    return {
        "protocol": parse_value("TCP", _attr(fw.schema, "protocol")),
        "src_addr": parse_value(src, _attr(fw.schema, "src_addr")),
        "src_port": ANY,
        "dst_addr": parse_value(dst, _attr(fw.schema, "dst_addr")),
        "dst_port": ANY,
    }


def _ids_row(ids, length: str, proto: str, src: str, dst: str, attack: str) -> dict:
    s = ids.schema
    return {
        "packet_length": ANY if length == "any" else parse_value(length, _attr(s, "packet_length")),
        "protocol": parse_value(proto, _attr(s, "protocol")),
        "src_addr": parse_value(src, _attr(s, "src_addr")),
        "src_port": ANY,
        "dst_addr": parse_value(dst, _attr(s, "dst_addr")),
        "dst_port": ANY,
        "attack_class": parse_value(attack, _attr(s, "attack_class")),
    }


def _rows(rs: RuleSet) -> list[tuple[dict, str, str]]:
    return [(r.condition, r.action, r.origin) for r in rs.rules]


# ---------------------------------------------------------------------------
# single-component repair and integration
# ---------------------------------------------------------------------------


def test_correct_ruleset_origins_name_the_winning_rule(fw):
    fixed = correct_ruleset(fw)
    assert [r.origin for r in fixed.rules] == ["FW:r1", "FW:r2", "FW:r3", "FW:r3", "FW:r4"]
    assert is_relevant_ruleset(fixed)
    assert detect_intra(fixed) == []


def test_correct_ruleset_is_stable_on_relevant_input(fw):
    once = correct_ruleset(fw)
    twice = correct_ruleset(once)
    assert [(r.condition, r.action) for r in twice.rules] == [
        (r.condition, r.action) for r in once.rules
    ]


def test_integrate_concatenates_and_tracks_provenance(fw, ids):
    fixed = correct_ruleset(fw)
    u = union_schema(fixed.schema, ids.schema)
    g = integrate(extend_schema(fixed, u), extend_schema(ids, u))
    rs = g.ruleset
    assert rs.component_name == "FW+IDS"
    assert [r.id for r in rs.rules] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert g.provenance == {
        1: ("FW", 1),
        2: ("FW", 2),
        3: ("FW", 3),
        4: ("FW", 4),
        5: ("FW", 5),
        6: ("IDS", 1),
        7: ("IDS", 2),
        8: ("IDS", 3),
    }
    # origins survive from the earlier repair; raw rules fall back to the component
    assert [r.origin for r in rs.rules] == [
        "FW:r1", "FW:r2", "FW:r3", "FW:r3", "FW:r4", "IDS", "IDS", "IDS",
    ]


def test_integrate_requires_matching_schemas(fw, ids):
    with pytest.raises(SchemaError, match="shared schema"):
        integrate(fw, ids)


def test_a_rule_with_an_empty_value_set_owns_no_region():
    # rule files cannot hold an empty value, but a rule set built in code can
    rs = RuleSet(
        schema=interval_schema(2),
        rules=(
            Rule(1, {"f0": intervals(((0, 4),)), "f1": ValueSet(intervals=())}, "accept"),
            Rule(2, {"f0": ANY, "f1": ANY}, "deny"),
        ),
        component_name="E",
    )
    for policy, semantics in (
        (ConflictPolicy.SPECIFICITY, Semantics.OWNER_CAPTURE),
        (ConflictPolicy.FIRST_MATCH, Semantics.FIRST_MATCH),
    ):
        back = parse_ruleset(serialize_ruleset(correct_ruleset(rs, policy)))
        assert [(r.condition, r.action, r.origin) for r in back.rules] == [
            ({"f0": ANY, "f1": ANY}, "deny", "E:r2")
        ]
        tree = build_rdt(back, policy).tree
        assert equivalence(tree, rs, semantics, endpoint_space(rs, back)) == []


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

_PX = Schema(
    condition_attributes=(
        AttributeDef("x", AttrKind.INTEGER_RANGE, intervals(((0, 39),))),
        AttributeDef("tag", AttrKind.LABEL_ENUM, labels("a", "b", COMPLEMENT_LABEL)),
    ),
    decision_attribute=AttributeDef("action", AttrKind.LABEL_ENUM, labels("accept", "deny")),
)


def _px_rules(*rows: tuple[tuple[tuple[int, int], ...] | None, str | None, str]) -> RuleSet:
    rules = tuple(
        Rule(
            i,
            {
                "x": ANY if spans is None else intervals(spans),
                "tag": ANY if tag is None else labels(tag),
            },
            action,
        )
        for i, (spans, tag, action) in enumerate(rows, start=1)
    )
    return RuleSet(schema=_PX, rules=rules, component_name="PX")


def test_drop_specific_keeps_only_foreign_wildcard_branches():
    rdt = build_rdt(_px_rules((((0, 9),), None, "deny"), (((10, 19),), "a", "accept")))
    t = project(rdt.tree, ["x"])
    assert t.schema.condition_names == ("x",)
    got = tree_to_rules(t)
    assert [(r.condition["x"], r.action) for r in got.rules] == [(intervals(((0, 9),)), "deny")]


def test_keep_specific_selects_deliberate_values_only():
    rdt = build_rdt(
        _px_rules(
            (((0, 9),), None, "deny"),
            (((10, 19),), "a", "accept"),
            (((20, 29),), COMPLEMENT_LABEL, "accept"),
        )
    )
    t = project(rdt.tree, ["x", "tag"], designated="tag")
    got = tree_to_rules(t)
    # the wildcard and the complement leftover both drop out
    assert [(r.condition["x"], r.condition["tag"], r.action) for r in got.rules] == [
        (intervals(((10, 19),)), labels("a"), "accept"),
    ]


def test_projection_onto_all_attributes_is_identity():
    rdt = build_rdt(_px_rules((((0, 9),), None, "deny"), (((10, 19),), "a", "accept")))
    t = project(rdt.tree, _PX.condition_names)
    assert [(r.condition, r.action) for r in tree_to_rules(t).rules] == [
        (r.condition, r.action) for r in tree_to_rules(rdt.tree).rules
    ]


def test_projection_input_validation():
    rdt = build_rdt(_px_rules((((0, 9),), None, "deny")))
    with pytest.raises(SchemaError, match="unknown attributes"):
        project(rdt.tree, ["x", "nope"])
    with pytest.raises(SchemaError, match="at least one attribute"):
        project(rdt.tree, [])
    with pytest.raises(SchemaError, match="designated kept attribute"):
        project(rdt.tree, ["x"], designated="tag")


def _px_tree(*edges: Edge) -> DecisionTree:
    return DecisionTree(schema=_PX, root=Node(1, list(edges)), component_name="PX")


def _px_leaf(action: str, owner: int) -> Node:
    return Node(3, [Edge(labels(action), None, owner)])


def test_projection_refuses_to_merge_colliding_regions():
    clash = build_tree(_px_rules((((0, 9),), None, "deny"), (((0, 9),), None, "accept")))
    x = intervals(((0, 9),))
    # the foreign tag level holds two wildcard edges
    two_wildcards = _px_tree(
        Edge(x, Node(2, [Edge(ANY, _px_leaf("deny", 1)), Edge(ANY, _px_leaf("accept", 2))]))
    )
    # the kept x level holds two equal labels
    twin_labels = _px_tree(
        Edge(x, Node(2, [Edge(labels("a"), _px_leaf("deny", 1))])),
        Edge(x, Node(2, [Edge(labels("b"), _px_leaf("accept", 2))])),
    )
    for tree, kept in ((clash, ["x"]), (two_wildcards, ["x"]), (twin_labels, ["x", "tag"])):
        with pytest.raises(ValueError, match="collapsed two distinct regions"):
            project(tree, kept)


def _assert_projects_as_the_branch_walk(
    preceding: RuleSet, following: RuleSet, policy: ConflictPolicy
) -> None:
    """Every projection of the pair's global tree, in both modes, against the reference."""
    u = union_schema(preceding.schema, following.schema)
    g = integrate(extend_schema(preceding, u), extend_schema(following, u))
    tree = build_rdt(g.ruleset, policy).tree
    shared = set(preceding.schema.condition_names)
    f_names = following.schema.condition_names
    designated = [n for n in f_names if n not in shared][-1]
    for kept, kept_specific in (
        (preceding.schema.condition_names, None),
        (f_names, None),
        (f_names, designated),
    ):
        got = project(tree, kept, designated=kept_specific)
        assert texts(got) == texts(reference_project(tree, kept, designated=kept_specific))


@given(st.integers(0, 10_000), st.sampled_from(list(ConflictPolicy)))
def test_projection_reads_as_the_branch_walk(seed, policy):
    _assert_projects_as_the_branch_walk(*random_component_pair(random.Random(seed)), policy)


def test_the_case_pair_projects_as_the_branch_walk(fw, ids):
    for policy in ConflictPolicy:
        _assert_projects_as_the_branch_walk(correct_ruleset(fw, policy), ids, policy)


def test_a_projection_shares_nodes_and_reading_it_leaves_it_unchanged(fw, ids):
    t = project(correct_pair(correct_ruleset(fw), ids).rdt.tree, fw.schema.condition_names)
    distinct, expanded = node_counts(t.root)
    assert distinct < expanded
    before = dump_tree(t)
    tree_to_rules(t)
    check_relevant(t)
    assert dump_tree(t) == before
    assert node_counts(t.root) == (distinct, expanded)


# ---------------------------------------------------------------------------
# the firewall/IDS pair
# ---------------------------------------------------------------------------


def test_pair_repair_matches_the_worked_case(fw, ids):
    cp = correct_pair(correct_ruleset(fw), ids)

    assert cp.preceding.schema.condition_names == fw.schema.condition_names
    assert _rows(cp.preceding) == [
        (_fw_row(fw, "140.192.10.61-140.192.10.69,140.192.10.91-140.192.10.100",
                 "129.170.20.20-129.170.20.29"), "deny", "FW:r1"),
        (_fw_row(fw, "140.192.10.70-140.192.10.90",
                 "129.170.20.20-129.170.20.29"), "deny", "FW:r1"),
        (_fw_row(fw, "140.192.10.20-140.192.10.39",
                 "129.170.20.20-129.170.20.70"), "accept", "FW:r2"),
        (_fw_row(fw, "140.192.10.40-140.192.10.50",
                 "129.170.20.20-129.170.20.70"), "accept", "FW:r2"),
        (_fw_row(fw, "140.192.10.1-140.192.10.19,140.192.10.51-140.192.10.60",
                 "129.170.20.20-129.170.20.100"), "deny", "FW:r3"),
        (_fw_row(fw, "140.192.10.20-140.192.10.39",
                 "129.170.20.71-129.170.20.100"), "deny", "FW:r3"),
        (_fw_row(fw, "140.192.10.40-140.192.10.50",
                 "129.170.20.71-129.170.20.100"), "deny", "FW:r3"),
        (_fw_row(fw, "140.192.10.61-140.192.10.69,140.192.10.91-140.192.10.100",
                 "129.170.20.30-129.170.20.100"), "accept", "FW:r4"),
        (_fw_row(fw, "140.192.10.70-140.192.10.90",
                 "129.170.20.51-129.170.20.100"), "accept", "FW:r4"),
    ]

    # the repaired set keeps the shared-schema order: a packet_length-first
    # tree cannot stay relevant once rule 3 pins the length others wildcard
    assert cp.following.schema.condition_names == (
        "protocol", "src_addr", "src_port", "dst_addr", "dst_port",
        "packet_length", "attack_class",
    )
    assert _rows(cp.following) == [
        (_ids_row(ids, "any", "TCP", "140.192.10.40-140.192.10.50",
                  "129.170.20.10-129.170.20.19", "winworm"), "reject", "IDS:r1"),
        (_ids_row(ids, "any", "TCP", "140.192.10.70-140.192.10.90",
                  "129.170.20.30-129.170.20.50", "winworm"), "reject", "IDS:r2"),
        (_ids_row(ids, "10", "UDP", "140.192.20.0-140.192.20.255",
                  "210.160.20.0-210.160.20.255", "Win32"), "reject", "IDS:r3"),
    ]


def test_pair_repair_outputs_are_clean_and_interoperable(fw, ids):
    cp = correct_pair(correct_ruleset(fw), ids)
    for rs in (cp.preceding, cp.following):
        assert is_relevant_ruleset(rs)
        assert detect_intra(rs) == []
    assert check_relevant(cp.rdt.tree) == []
    assert check_relevant(project(cp.rdt.tree, cp.preceding.schema.condition_names)) == []
    f_names = cp.following.schema.condition_names
    assert check_relevant(project(cp.rdt.tree, f_names, designated="attack_class")) == []

    u = union_schema(cp.preceding.schema, cp.following.schema)
    assert detect_inter(extend_schema(cp.preceding, u), extend_schema(cp.following, u)) == []

    assert cp.preceding.component_kind is ComponentKind.FILTERING
    assert cp.following.component_kind is ComponentKind.ALERTING
    # both outputs carry the merged decision vocabulary
    assert cp.preceding.schema.decision_attribute.domain.labels == frozenset(
        {"accept", "deny", "pass", "reject"}
    )


def test_pair_repair_under_first_match(fw, ids):
    cp = correct_pair(correct_ruleset(fw, ConflictPolicy.FIRST_MATCH), ids,
                      ConflictPolicy.FIRST_MATCH)
    assert check_relevant(cp.rdt.tree) == []
    u = union_schema(cp.preceding.schema, cp.following.schema)
    assert detect_inter(extend_schema(cp.preceding, u), extend_schema(cp.following, u)) == []


def test_already_interoperable_pair_round_trips():
    schema_p = Schema(
        condition_attributes=(AttributeDef("x", AttrKind.INTEGER_RANGE, intervals(((0, 39),))),),
        decision_attribute=AttributeDef("action", AttrKind.LABEL_ENUM, labels("accept", "deny")),
    )
    schema_f = Schema(
        condition_attributes=(
            AttributeDef("x", AttrKind.INTEGER_RANGE, intervals(((0, 39),))),
            AttributeDef("attack", AttrKind.LABEL_ENUM, labels("a", COMPLEMENT_LABEL)),
        ),
        decision_attribute=AttributeDef("action", AttrKind.LABEL_ENUM, labels("reject", "pass")),
    )
    p = RuleSet(
        schema=schema_p,
        rules=(Rule(1, {"x": intervals(((0, 9),))}, "deny"),),
        component_name="P",
        component_kind=ComponentKind.FILTERING,
    )
    f = RuleSet(
        schema=schema_f,
        rules=(Rule(1, {"x": intervals(((20, 29),)), "attack": labels("a")}, "reject"),),
        component_name="F",
        component_kind=ComponentKind.ALERTING,
    )
    cp = correct_pair(p, f)
    assert _rows(cp.preceding) == [(p.rules[0].condition, "deny", "P:r1")]
    assert _rows(cp.following) == [(f.rules[0].condition, "reject", "F:r1")]


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_random_pairs_come_back_interoperable(seed):
    p, f = random_component_pair(random.Random(seed))
    cp = correct_pair(p, f)
    assert is_relevant_ruleset(cp.preceding)
    assert is_relevant_ruleset(cp.following)
    u = union_schema(cp.preceding.schema, cp.following.schema)
    assert detect_inter(extend_schema(cp.preceding, u), extend_schema(cp.following, u)) == []


# ---------------------------------------------------------------------------
# rule sets made from checked ones are valid by construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", list(ConflictPolicy))
def test_library_made_rule_sets_pass_the_full_check(cases_dir, policy):
    parsed = [parse_ruleset(p.read_bytes(), source=str(p)) for p in sorted(cases_dir.glob("*.rules"))]
    by_name = {rs.component_name: rs for rs in parsed}
    pairs = [(by_name["FW"], by_name["IDS"])]
    pairs += [random_component_pair(random.Random(seed)) for seed in range(20)]
    made = list(parsed)
    for preceding, following in pairs:
        u = union_schema(preceding.schema, following.schema)
        restated = extend_schema(preceding, u), extend_schema(following, u)
        cp = correct_pair(preceding, following, policy)
        made += [*restated, integrate(*restated).ruleset, cp.preceding, cp.following]
        made += [correct_ruleset(preceding, policy), correct_ruleset(following, policy)]
    for rs in made:
        assert RuleSet(rs.schema, rs.rules, rs.component_kind, rs.component_name) == rs
