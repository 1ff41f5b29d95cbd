"""Relevant-tree construction under both conflict policies.

The firewall fixture's corrected region list is written out literally; the
values were derived by hand-simulating the insertion order and are held in
place by :func:`_verify`: the tree must be relevant, its flattening free of
anomalies, and its decisions equal, on the packet grid, to the original
rules replayed under the same policy.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from policytree.correction import project
from policytree.dtree import (
    branches,
    dump_tree,
    tree_to_rules,
)
from policytree.intra import detect_intra
from policytree.model import ComponentKind, ConflictPolicy, Rule, RuleSet
from policytree.oracle import endpoint_space, equivalence, evaluate
from policytree.rdt import (
    RelevantDecisionTree,
    build_rdt,
    normalize,
)
from policytree.ruleio import load_ruleset, parse_point, parse_value
from policytree.values import ANY, intervals

from _corpus import (
    build_tree,
    check_relevant,
    copy_node,
    evaluate_tree,
    insertion_masks,
    interval_schema,
    mixed_rulesets,
    mixed_schemas,
    node_counts,
    random_ruleset,
    random_value,
    reference_rdt,
    texts,
    tree_decider,
)

SCHEMA1 = interval_schema(1, (40,))


def _rs1(*rows: tuple[tuple[tuple[int, int], ...] | None, str]) -> RuleSet:
    rules = tuple(
        Rule(i, {"f0": ANY if spans is None else intervals(spans)}, action)
        for i, (spans, action) in enumerate(rows, start=1)
    )
    return RuleSet(schema=SCHEMA1, rules=rules, component_name="T1")


def _regions(rdt: RelevantDecisionTree) -> list[tuple[dict, str]]:
    return [(r.condition, r.action) for r in tree_to_rules(rdt.tree).rules]


def _verify(rdt: RelevantDecisionTree, rs: RuleSet) -> tuple[list, list, list]:
    """Overlapping sibling labels, anomalies of the flattening, and packet mismatches.

    The mismatches replay ``rs`` under first match for the first-match
    policy and under owner capture for the specificity policy.
    """
    return (
        check_relevant(rdt.tree),
        detect_intra(tree_to_rules(rdt.tree)),
        equivalence(rdt.tree, rs, rdt.policy, endpoint_space(rs)),
    )


# ---------------------------------------------------------------------------
# capture policy on minimal overlaps
# ---------------------------------------------------------------------------


def test_specific_rule_captures_enclosed_region():
    rs = _rs1((((0, 20),), "accept"), (((5, 10),), "deny"))
    assert _regions(build_rdt(rs)) == [
        ({"f0": intervals(((0, 4), (11, 20)))}, "accept"),
        ({"f0": intervals(((5, 10),))}, "deny"),
    ]


def test_first_match_never_captures():
    rs = _rs1((((0, 20),), "accept"), (((5, 10),), "deny"))
    assert _regions(build_rdt(rs, ConflictPolicy.FIRST_MATCH)) == [
        ({"f0": intervals(((0, 20),))}, "accept"),
    ]


def test_general_late_rule_gets_only_the_ring():
    rs = _rs1((((5, 10),), "accept"), (((0, 20),), "deny"))
    assert _regions(build_rdt(rs)) == [
        ({"f0": intervals(((5, 10),))}, "accept"),
        ({"f0": intervals(((0, 4), (11, 20)))}, "deny"),
    ]


def test_correlated_overlap_stays_with_the_earlier_rule():
    rs = _rs1((((0, 10),), "accept"), (((5, 20),), "deny"))
    assert _regions(build_rdt(rs)) == [
        ({"f0": intervals(((0, 10),))}, "accept"),
        ({"f0": intervals(((11, 20),))}, "deny"),
    ]


def test_exact_duplicate_loses_under_both_policies():
    for policy in ConflictPolicy:
        for second_action in ("accept", "deny"):
            rs = _rs1((((0, 9),), "accept"), (((0, 9),), second_action))
            assert _regions(build_rdt(rs, policy)) == [
                ({"f0": intervals(((0, 9),))}, "accept"),
            ]


# ---------------------------------------------------------------------------
# merging sibling regions
# ---------------------------------------------------------------------------


def test_adjacent_same_action_edges_merge():
    for policy in ConflictPolicy:
        t = build_rdt(_rs1((((0, 5),), "accept"), (((6, 10),), "accept")), policy).tree
        assert len(t.root.edges) == 1
        assert t.root.edges[0].label == intervals(((0, 10),))
        (b,) = branches(t)
        assert b.owner == 1  # the merged region keeps the earliest owner


def test_merged_full_domain_compresses_to_wildcard():
    t = build_rdt(_rs1((((0, 19),), "accept"), (((20, 39),), "accept"))).tree
    assert len(t.root.edges) == 1
    assert t.root.edges[0].label.is_wildcard


def test_different_actions_do_not_merge():
    t = build_rdt(_rs1((((0, 5),), "accept"), (((6, 10),), "deny"))).tree
    assert len(t.root.edges) == 2


def test_duplicate_action_edges_dedupe_to_earliest():
    t = build_rdt(_rs1((((0, 9),), "accept"), (((0, 9),), "accept"))).tree
    assert [b.owner for b in branches(t)] == [1]
    assert check_relevant(t) == []


def _relevant_ruleset(rng: random.Random) -> RuleSet:
    """Pairwise-disjoint one-attribute rules, some split so that the merge
    has same-action sibling pairs to join."""
    cuts = sorted(rng.sample(range(1, 39), rng.randint(1, 5)))
    spans = list(zip([0] + cuts, [c - 1 for c in cuts] + [39]))
    rows: list[tuple[tuple[tuple[int, int], ...], str]] = []
    for lo, hi in spans:
        action = rng.choice(("accept", "deny"))
        if hi - lo >= 1 and rng.random() < 0.5:
            mid = rng.randint(lo, hi - 1)
            rows.append((((lo, mid),), action))
            rows.append((((mid + 1, hi),), action))
        else:
            rows.append((((lo, hi),), action))
    return _rs1(*rows)


@given(st.integers(0, 10_000))
def test_merge_keeps_decisions_on_relevant_sets(seed):
    rs = _relevant_ruleset(random.Random(seed))
    for policy in ConflictPolicy:
        t = build_rdt(rs, policy).tree
        assert check_relevant(t) == []
        assert len(branches(t)) <= len(rs.rules)
        decide = tree_decider(t)
        for x in range(40):
            p = {"f0": x}
            assert decide(p) == evaluate(rs, p, ConflictPolicy.FIRST_MATCH)


@given(st.integers(0, 10_000), st.sampled_from(list(ConflictPolicy)))
def test_merge_is_idempotent(seed, policy):
    rs = random_ruleset(random.Random(seed), max_rules=10)
    once = normalize(insertion_masks(rs, policy))
    merged = copy_node(once.root)
    assert normalize(once).root == merged


# ---------------------------------------------------------------------------
# shared subtrees
# ---------------------------------------------------------------------------


@given(st.integers(0, 10_000), st.sampled_from(list(ConflictPolicy)))
def test_diagram_reads_as_sequential_insertion(seed, policy):
    rs = random_ruleset(random.Random(seed), max_rules=25)
    assert texts(build_rdt(rs, policy).tree) == texts(reference_rdt(rs, policy))


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_diagram_over_every_attribute_kind_reads_as_sequential_insertion(data):
    rs = data.draw(mixed_rulesets(data.draw(mixed_schemas()), "R"))
    for policy in ConflictPolicy:
        assert texts(build_rdt(rs, policy).tree) == texts(reference_rdt(rs, policy))


def test_build_rdt_merges_without_a_second_walk(fw, monkeypatch):
    sets = [fw] + [random_ruleset(random.Random(seed), max_rules=25) for seed in range(5)]
    # the reference merges its own tree with normalize, so it is built first
    expected = [texts(reference_rdt(rs, p)) for rs in sets for p in ConflictPolicy]

    def second_walk(*_):
        raise AssertionError("build_rdt walked the diagram again to merge it")

    monkeypatch.setattr("policytree.rdt.normalize", second_walk)
    monkeypatch.setattr("policytree.rdt._merge", second_walk)
    assert [texts(build_rdt(rs, p).tree) for rs in sets for p in ConflictPolicy] == expected


def _sixty_rules() -> RuleSet:
    rng = random.Random(60)
    schema = interval_schema(4)
    rules = tuple(
        Rule(
            i,
            {a.name: random_value(rng, a) for a in schema.condition_attributes},
            rng.choice(("accept", "deny")),
        )
        for i in range(1, 61)
    )
    return RuleSet(schema=schema, rules=rules, component_name="S60")


def test_a_subtree_reached_through_two_parents_is_built_once():
    for policy in ConflictPolicy:
        distinct, expanded = node_counts(build_rdt(_sixty_rules(), policy).tree.root)
        assert distinct < expanded


def test_reading_a_shared_tree_leaves_it_unchanged():
    rs = _sixty_rules()
    for policy in ConflictPolicy:
        t = build_rdt(rs, policy).tree
        before = dump_tree(t), node_counts(t.root)
        branches(t)
        tree_to_rules(t)
        check_relevant(t)
        evaluate_tree(t, {name: 3 for name in rs.schema.condition_names})
        project(t, rs.schema.condition_names[:2])
        equivalence(t, rs, policy, endpoint_space(rs))
        assert (dump_tree(t), node_counts(t.root)) == before


def test_a_build_of_more_than_8192_rules_decides_as_its_rules():
    # each point's region holds three of 8,202 rules, so the builder keys it
    # by their indices, not by an 8,202-bit int; each point splits only the
    # wide rule's remainder, which stays the first part
    schema = interval_schema(1, (20_000,))
    points = [intervals(((p, p),)) for p in range(0, 16_400, 2)]
    values = [intervals(((0, 16_399),)), *points, ANY]
    actions = ["deny", *(("deny", "accept")[k % 4 == 0] for k in range(len(points))), "accept"]
    rules = tuple(Rule(i, {"f0": v}, a) for i, (v, a) in enumerate(zip(values, actions), start=1))
    rs = RuleSet(schema=schema, rules=rules, component_name="WIDE")
    assert len(rs.rules) > 8192
    space = endpoint_space(rs)
    for policy in ConflictPolicy:
        assert equivalence(build_rdt(rs, policy).tree, rs, policy, space) == []


# ---------------------------------------------------------------------------
# the firewall fixture
# ---------------------------------------------------------------------------


def _fw_cond(fw, src: str, dst: str) -> dict:
    by_name = {a.name: a for a in fw.schema.condition_attributes}
    return {
        "protocol": parse_value("TCP", by_name["protocol"]),
        "src_addr": parse_value(src, by_name["src_addr"]),
        "src_port": ANY,
        "dst_addr": parse_value(dst, by_name["dst_addr"]),
        "dst_port": ANY,
    }


def test_firewall_corrected_regions(fw):
    rdt = build_rdt(fw)
    assert _regions(rdt) == [
        (_fw_cond(fw, "140.192.10.61-140.192.10.100", "129.170.20.20-129.170.20.29"), "deny"),
        (_fw_cond(fw, "140.192.10.20-140.192.10.50", "129.170.20.20-129.170.20.70"), "accept"),
        (
            _fw_cond(
                fw,
                "140.192.10.1-140.192.10.19,140.192.10.51-140.192.10.60",
                "129.170.20.20-129.170.20.100",
            ),
            "deny",
        ),
        (_fw_cond(fw, "140.192.10.20-140.192.10.50", "129.170.20.71-129.170.20.100"), "deny"),
        (_fw_cond(fw, "140.192.10.61-140.192.10.100", "129.170.20.30-129.170.20.100"), "accept"),
    ]
    assert _verify(rdt, fw) == ([], [], [])


def test_firewall_first_match_collapses_to_rule_one(fw):
    rdt = build_rdt(fw, ConflictPolicy.FIRST_MATCH)
    got = tree_to_rules(rdt.tree)
    assert len(got.rules) == 1
    assert got.rules[0].condition == fw.rules[0].condition
    assert got.rules[0].action == "deny"
    assert _verify(rdt, fw) == ([], [], [])


def test_policies_disagree_inside_the_specific_rule(fw):
    pkt = {
        "protocol": "TCP",
        "src_addr": parse_point("140.192.10.30", fw.schema.condition_attributes[1]),
        "src_port": 5,
        "dst_addr": parse_point("129.170.20.40", fw.schema.condition_attributes[3]),
        "dst_port": 7,
    }
    assert evaluate_tree(build_rdt(fw).tree, pkt) == "accept"
    assert evaluate_tree(build_rdt(fw, ConflictPolicy.FIRST_MATCH).tree, pkt) == "deny"


def test_component_metadata_survives(fw):
    t = build_rdt(fw).tree
    assert t.component_name == "FW"
    assert t.component_kind is ComponentKind.FILTERING


def test_empty_ruleset(cases_dir):
    rs = load_ruleset(cases_dir / "empty.rules")
    rdt = build_rdt(rs)
    assert rdt.tree.root.edges == []
    assert tree_to_rules(rdt.tree).rules == ()
    assert _verify(rdt, rs) == ([], [], [])


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------


def test_verify_rejects_a_plain_overlapping_tree(fw):
    fake = RelevantDecisionTree(tree=build_tree(fw), policy=ConflictPolicy.SPECIFICITY)
    relevancy_violations, anomalies, mismatches = _verify(fake, fw)
    assert relevancy_violations
    assert anomalies
    assert mismatches  # first-match tree vs owner-capture reference


@given(st.integers(0, 10_000), st.sampled_from(list(ConflictPolicy)))
def test_random_rulesets_verify_clean(seed, policy):
    rs = random_ruleset(random.Random(seed), max_rules=8)
    rdt = build_rdt(rs, policy)
    assert rdt.policy is policy
    assert _verify(rdt, rs) == ([], [], [])


@settings(max_examples=150, derandomize=True)
@given(st.data())
def test_trees_over_every_attribute_kind_decide_as_the_rules(data):
    # ports, integers, IPv4, protocols and open labels, with wildcards,
    # explicit full domains and empty sets among the rule values
    rs = data.draw(mixed_rulesets(data.draw(mixed_schemas()), "R"))
    space = endpoint_space(rs)
    for policy in ConflictPolicy:
        assert equivalence(build_rdt(rs, policy).tree, rs, policy, space) == []
