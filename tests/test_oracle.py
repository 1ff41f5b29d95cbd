"""The packet-level referee: scalar evaluation, elementary cells, grid comparison."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from policytree.dtree import DecisionTree, Edge, Node, branches, tree_to_rules
from policytree.model import AttributeDef, Rule, RuleSet, Schema, SchemaError
from policytree.oracle import (
    DomainSpace,
    Semantics,
    endpoint_space,
    equivalence,
    evaluate,
    evaluate_rule,
    matches,
)
from policytree.rdt import ConflictPolicy, build_rdt
from policytree.ruleio import parse_point
from policytree.values import ANY, AttrKind, ValueSet, intervals, labels

from _corpus import (
    build_tree,
    copy_node,
    enumerate_points,
    interval_schema,
    iter_packets,
    random_ruleset,
    tree_decider,
)

SCHEMA1 = interval_schema(1, (40,))


def _rs1(*rows: tuple[tuple[tuple[int, int], ...] | None, str]) -> RuleSet:
    rules = tuple(
        Rule(i, {"f0": ANY if spans is None else intervals(spans)}, action)
        for i, (spans, action) in enumerate(rows, start=1)
    )
    return RuleSet(schema=SCHEMA1, rules=rules, component_name="T1")


def _fw_packet(fw, proto="TCP", src="140.192.10.30", dst="129.170.20.40"):
    a = {x.name: x for x in fw.schema.condition_attributes}
    return {
        "protocol": proto,
        "src_addr": parse_point(src, a["src_addr"]),
        "src_port": 1234,
        "dst_addr": parse_point(dst, a["dst_addr"]),
        "dst_port": 80,
    }


# ---------------------------------------------------------------------------
# scalar evaluation
# ---------------------------------------------------------------------------


def test_matches_checks_every_field(fw):
    pkt = _fw_packet(fw)
    assert all(matches(pkt, r, fw.schema) for r in fw.rules)
    assert not matches(_fw_packet(fw, proto="ICMP"), fw.rules[0], fw.schema)
    with pytest.raises(SchemaError, match="missing 'dst_port'"):
        pkt2 = dict(pkt)
        del pkt2["dst_port"]
        matches(pkt2, fw.rules[0], fw.schema)


def test_the_two_semantics_disagree_inside_the_exception(fw):
    pkt = _fw_packet(fw)  # inside rules 1-4; rule 2 is the most specific
    assert evaluate(fw, pkt, Semantics.FIRST_MATCH) == "deny"
    assert evaluate(fw, pkt, Semantics.OWNER_CAPTURE) == "accept"
    assert evaluate_rule(fw, pkt, Semantics.FIRST_MATCH).id == 1
    assert evaluate_rule(fw, pkt, Semantics.OWNER_CAPTURE).id == 2


def test_unmatched_packet_returns_none(fw):
    pkt = _fw_packet(fw, proto="ICMP")
    for sem in Semantics:
        assert evaluate_rule(fw, pkt, sem) is None
        assert evaluate(fw, pkt, sem) is None


def test_capture_chains_through_nested_rules():
    rs = _rs1((((0, 20),), "accept"), (((5, 15),), "deny"), (((7, 9),), "accept"))
    assert evaluate(rs, {"f0": 8}, Semantics.OWNER_CAPTURE) == "accept"  # r3 over r2
    assert evaluate(rs, {"f0": 6}, Semantics.OWNER_CAPTURE) == "deny"  # r2 over r1
    assert evaluate(rs, {"f0": 2}, Semantics.OWNER_CAPTURE) == "accept"  # r1 alone
    assert evaluate(rs, {"f0": 8}, Semantics.FIRST_MATCH) == "accept"  # still r1


def test_partial_overlap_never_captures():
    rs = _rs1((((0, 10),), "accept"), (((5, 15),), "deny"))
    assert evaluate(rs, {"f0": 7}, Semantics.OWNER_CAPTURE) == "accept"  # r1 keeps it
    assert evaluate(rs, {"f0": 12}, Semantics.OWNER_CAPTURE) == "deny"  # r2's own part


# ---------------------------------------------------------------------------
# elementary cells
# ---------------------------------------------------------------------------


def test_endpoint_space_brackets_every_rule_boundary():
    # one point per elementary cell: [0,4], [5,10], [11,39]
    assert endpoint_space(_rs1((((5, 10),), "accept"))).points["f0"] == (0, 5, 11)
    # a domain with a hole gets no point inside the hole
    gap = AttributeDef("f0", AttrKind.INTEGER_RANGE, intervals(((0, 9), (20, 29))))
    schema = Schema(condition_attributes=(gap,), decision_attribute=SCHEMA1.decision_attribute)
    rs = RuleSet(schema=schema, rules=(Rule(1, {"f0": intervals(((5, 7), (22, 24)))}, "deny"),))
    assert endpoint_space(rs).points["f0"] == (0, 5, 8, 20, 22, 25)


def test_endpoint_space_enumerates_label_domains(fw):
    space = endpoint_space(fw)
    assert space.points["protocol"] == ("ICMP", "TCP", "UDP")
    assert space.size() == len(list(islice(iter_packets(space), space.size() + 1)))


def test_endpoint_space_input_checks(fw, ids):
    with pytest.raises(ValueError, match="at least one"):
        endpoint_space()
    with pytest.raises(SchemaError, match="shared schema"):
        endpoint_space(fw, ids)


# ---------------------------------------------------------------------------
# equivalence over the grid
# ---------------------------------------------------------------------------


def test_equivalence_agrees_per_semantics(fw):
    space = endpoint_space(fw)
    corrected = build_rdt(fw).tree
    first = build_rdt(fw, ConflictPolicy.FIRST_MATCH).tree
    assert equivalence(corrected, fw, Semantics.OWNER_CAPTURE, space) == []
    assert equivalence(first, fw, Semantics.FIRST_MATCH, space) == []

    crossed = equivalence(corrected, fw, Semantics.FIRST_MATCH, space)
    assert crossed
    pkt, by_tree, by_rules = crossed[0]
    assert {by_tree, by_rules} == {"accept", "deny"}
    assert evaluate(fw, pkt, Semantics.FIRST_MATCH) == by_rules


def test_equivalence_requires_one_schema(fw, ids):
    with pytest.raises(SchemaError, match="share a schema"):
        equivalence(build_rdt(fw).tree, ids, Semantics.FIRST_MATCH, endpoint_space(fw))


def test_equivalence_rejects_a_region_outside_the_domain(fw):
    # an interval past the domain's end, an unknown protocol, an unknown action
    rs = _rs1((((5, 10),), "accept"), (((0, 39),), "deny"))
    for source, label in ((rs, intervals(((20, 50),))), (fw, ValueSet(labels=frozenset({"GRE"})))):
        tree = build_rdt(source).tree
        mutant = copy_node(tree.root)
        mutant.edges[0].label = label
        with pytest.raises(SchemaError, match="falls outside its domain"):
            space = endpoint_space(source)
            equivalence(replace(tree, root=mutant), source, Semantics.OWNER_CAPTURE, space)
    tree = build_rdt(rs).tree
    mutant = copy_node(tree.root)
    mutant.edges[0].child.edges[0].label = ValueSet(labels=frozenset({"drop"}))
    with pytest.raises(SchemaError, match="not in decision domain"):
        equivalence(replace(tree, root=mutant), rs, Semantics.OWNER_CAPTURE, endpoint_space(rs))


def test_no_decision_counts_as_agreement():
    rs = _rs1((((5, 10),), "accept"))
    space = endpoint_space(rs)
    assert equivalence(build_rdt(rs).tree, rs, Semantics.OWNER_CAPTURE, space) == []


# ---------------------------------------------------------------------------
# scalar and grid referee agree with the trees
# ---------------------------------------------------------------------------


@given(st.integers(0, 10_000))
@example(11)
def test_scalar_referee_matches_the_trees(seed):
    rs = random_ruleset(random.Random(seed), max_rules=8, n_attrs=2)
    space = endpoint_space(rs)
    corrected = build_rdt(rs).tree
    first = build_rdt(rs, ConflictPolicy.FIRST_MATCH).tree
    naive = build_tree(rs)
    assert equivalence(naive, rs, Semantics.FIRST_MATCH, space) == []
    by_corrected, by_first, by_naive = map(tree_decider, (corrected, first, naive))
    for pkt in islice(iter_packets(space), 120):
        assert by_corrected(pkt) == evaluate(rs, pkt, Semantics.OWNER_CAPTURE)
        assert by_first(pkt) == evaluate(rs, pkt, Semantics.FIRST_MATCH)
        assert by_naive(pkt) == evaluate(rs, pkt, Semantics.FIRST_MATCH)


def _every_point(schema: Schema) -> DomainSpace:
    return DomainSpace(
        schema=schema,
        points={
            a.name: tuple(enumerate_points(a.domain, a.domain))
            for a in schema.condition_attributes
        },
    )


def _shrink_one_label(tree, rng: random.Random):
    """A copy of the tree with one condition label losing its top point."""
    mutant = copy_node(tree.root)
    edges = []
    stack = [mutant]
    while stack:
        node = stack.pop()
        if node.level < tree.action_level:
            edges += [(node.level, e) for e in node.edges]
            stack += [e.child for e in node.edges]
    level, edge = rng.choice(edges)
    domain = tree.attribute_at(level).domain
    spans = (edge.label if not edge.label.is_wildcard else domain).intervals
    edge.label = intervals(spans[:-1] + ((spans[-1][0], spans[-1][1] - 1),))
    return replace(tree, root=mutant)


@given(st.integers(0, 10_000))
@example(2)
def test_cells_decide_as_every_point_does(seed):
    """The cell referee finds a mismatch exactly when full enumeration does.

    The trees come from another rule set, or are a correct tree with one
    label shrunk by its top point, so their bounds are not all ``rs``'s.
    """
    rng = random.Random(seed)
    n_attrs = rng.randint(1, 3)
    rs = random_ruleset(rng, max_rules=6, n_attrs=n_attrs)
    other = random_ruleset(rng, max_rules=6, n_attrs=n_attrs)
    cells, full = endpoint_space(rs), _every_point(rs.schema)
    trees = [build_tree(other), build_rdt(other).tree]
    for policy in ConflictPolicy:
        trees.append(_shrink_one_label(build_rdt(rs, policy).tree, rng))
    for tree in trees:
        for semantics in Semantics:
            by_cells = equivalence(tree, rs, semantics, cells)
            by_points = equivalence(tree, rs, semantics, full)
            assert bool(by_cells) == bool(by_points)


def _scalar_mismatches(tree, rs, space):
    """The referee's answer under each semantics, one packet at a time."""
    packets = list(iter_packets(space))
    by_tree = list(map(tree_decider(tree), packets))
    return {
        semantics: [
            (pkt, t, r)
            for pkt, t in zip(packets, by_tree)
            if t != (r := evaluate(rs, pkt, semantics))
        ]
        for semantics in Semantics
    }


@settings(max_examples=12)
@given(st.integers(0, 10_000), st.none())
@example(2, None)
@example(42, 4)  # four attributes: 38,400 points, and the two semantics disagree
def test_equivalence_lists_what_every_point_decides(seed, n_attrs):
    """The exact mismatch list, order included, against scalar evaluation."""
    rng = random.Random(seed)
    n_attrs = n_attrs or rng.randint(1, 3)
    rs = random_ruleset(rng, max_rules=6, n_attrs=n_attrs)
    other = random_ruleset(rng, max_rules=6, n_attrs=n_attrs)
    full = _every_point(rs.schema)
    for tree in (build_tree(other), build_rdt(other).tree):
        for semantics, expected in _scalar_mismatches(tree, rs, full).items():
            assert equivalence(tree, rs, semantics, full) == expected


def test_overlapping_regions_go_to_the_first_in_flattening_order():
    # depth-first, owner 3's region comes before owner 2's; they meet on 10..20
    def leaf(action: str, owner: int) -> Node:
        return Node(2, [Edge(labels(action), None, owner)])

    root = Node(1, [Edge(intervals(((0, 20),)), leaf("deny", 3))])
    root.edges.append(Edge(intervals(((10, 30),)), leaf("accept", 2)))
    tree = DecisionTree(schema=SCHEMA1, root=root)
    assert [b.owner for b in branches(tree)] == [3, 2]
    rs = _rs1((((0, 20),), "deny"), (((10, 30),), "accept"))
    full = _every_point(SCHEMA1)
    for semantics, expected in _scalar_mismatches(tree, rs, full).items():
        got = equivalence(tree, rs, semantics, full)
        assert got == expected
        assert [(p["f0"], t) for p, t, _ in got] == [(x, "accept") for x in range(10, 21)]


def test_equivalence_lists_label_and_address_mismatches(fw):
    # labels, IPv4 ranges and ports, on the cells of the rules and of the tree
    for policy, semantics in (
        (ConflictPolicy.SPECIFICITY, Semantics.OWNER_CAPTURE),
        (ConflictPolicy.FIRST_MATCH, Semantics.FIRST_MATCH),
    ):
        tree = build_rdt(fw, policy).tree
        space = endpoint_space(fw, tree_to_rules(tree))
        for other, expected in _scalar_mismatches(tree, fw, space).items():
            assert bool(expected) == (other is not semantics)
            assert equivalence(tree, fw, other, space) == expected
