"""Single-component anomaly detection and the relevancy predicate."""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from policytree.dtree import tree_to_rules
from policytree.intra import IntraAnomaly, IntraKind, detect_intra, is_relevant_ruleset
from policytree.model import AttributeDef, ConflictPolicy, Rule, RuleSet, Schema, Severity
from policytree.oracle import endpoint_space, equivalence
from policytree.rdt import build_rdt
from policytree.relations import RelationKind, relate
from policytree.values import ANY, AttrKind, intervals, labels

from _corpus import interval_schema, random_ruleset

SCHEMA1 = interval_schema(1, (40,))


def _rs1(*rows, decisions=("accept", "deny")):
    schema = SCHEMA1
    if set(decisions) != {"accept", "deny"}:
        schema = Schema(
            condition_attributes=SCHEMA1.condition_attributes,
            decision_attribute=AttributeDef("action", AttrKind.LABEL_ENUM, labels(*decisions)),
        )
    rules = tuple(
        Rule(i, {"f0": ANY if spans is None else intervals(spans)}, action)
        for i, (spans, action) in enumerate(rows, start=1)
    )
    return RuleSet(schema=schema, rules=rules, component_name="T1")


def _kinds(found: list[IntraAnomaly]) -> list[tuple[IntraKind, int, int]]:
    return [(a.kind, a.earlier, a.later) for a in found]


# ---------------------------------------------------------------------------
# one pair at a time
# ---------------------------------------------------------------------------


def test_shadowing_later_rule_inside_with_other_class():
    rs = _rs1((((0, 20),), "accept"), (((5, 10),), "deny"))
    (a,) = detect_intra(rs)
    assert a.kind is IntraKind.SHADOWING
    assert (a.earlier, a.later) == (1, 2)
    assert a.severity is Severity.ERROR
    assert relate(
        rs.rules[a.earlier - 1], rs.rules[a.later - 1], rs.schema
    ) is RelationKind.BACKWARD


def test_redundancy_later_rule_inside_with_same_class():
    (a,) = detect_intra(_rs1((((0, 20),), "deny"), (((5, 10),), "deny")))
    assert a.kind is IntraKind.REDUNDANCY
    assert a.severity is Severity.ERROR


def test_identical_conditions_shadow_or_duplicate():
    rs = _rs1((((0, 9),), "accept"), (((0, 9),), "deny"))
    (a,) = detect_intra(rs)
    assert a.kind is IntraKind.SHADOWING
    assert relate(
        rs.rules[a.earlier - 1], rs.rules[a.later - 1], rs.schema
    ) is RelationKind.EXACT
    (b,) = detect_intra(_rs1((((0, 9),), "accept"), (((0, 9),), "accept")))
    assert b.kind is IntraKind.REDUNDANCY


def test_generalization_catch_all_after_exception():
    rs = _rs1((((5, 10),), "deny"), (((0, 20),), "accept"))
    (a,) = detect_intra(rs)
    assert a.kind is IntraKind.GENERALIZATION
    assert a.severity is Severity.WARNING
    assert relate(
        rs.rules[a.earlier - 1], rs.rules[a.later - 1], rs.schema
    ) is RelationKind.FORWARD


def test_correlation_partial_overlap_other_class():
    (a,) = detect_intra(_rs1((((0, 10),), "accept"), (((5, 20),), "deny")))
    assert a.kind is IntraKind.CORRELATION
    assert a.severity is Severity.WARNING


def test_quiet_pairs():
    # specific-then-general with one class, overlap with one class, disjoint
    assert detect_intra(_rs1((((5, 10),), "deny"), (((0, 20),), "deny"))) == []
    assert detect_intra(_rs1((((0, 10),), "accept"), (((5, 20),), "accept"))) == []
    assert detect_intra(_rs1((((0, 9),), "accept"), (((10, 20),), "deny"))) == []


def test_action_class_not_label_decides():
    # pass and accept are both permits; reject and discard block like deny
    rows = (
        (((0, 20),), "pass"),
        (((5, 10),), "accept"),
        (((7, 8),), "reject"),
        (((8, 8),), "discard"),
    )
    found = detect_intra(_rs1(*rows, decisions=("accept", "pass", "reject", "discard")))
    assert _kinds(found) == [
        (IntraKind.REDUNDANCY, 1, 2),
        (IntraKind.SHADOWING, 1, 3),
        (IntraKind.SHADOWING, 1, 4),
        (IntraKind.SHADOWING, 2, 3),
        (IntraKind.SHADOWING, 2, 4),
        (IntraKind.REDUNDANCY, 3, 4),
    ]


# ---------------------------------------------------------------------------
# the firewall fixture
# ---------------------------------------------------------------------------


def test_firewall_findings(fw):
    found = detect_intra(fw)
    assert _kinds(found) == [
        (IntraKind.SHADOWING, 1, 2),
        (IntraKind.REDUNDANCY, 1, 3),
        (IntraKind.SHADOWING, 1, 4),
        (IntraKind.GENERALIZATION, 2, 3),
        (IntraKind.CORRELATION, 3, 4),
    ]
    by_sev = [a.severity for a in found]
    assert by_sev.count(Severity.ERROR) == 3
    assert by_sev.count(Severity.WARNING) == 2


def test_firewall_correction_clears_findings(fw):
    corrected = tree_to_rules(build_rdt(fw).tree)
    assert detect_intra(corrected) == []
    assert is_relevant_ruleset(corrected)


def test_a_covered_later_rule_decides_no_packet_under_first_match():
    """Each shadowing or redundancy finding claims that its later rule never
    fires: the set without it, renumbered, decides every packet as the whole
    set does.

    This pins first match only.  Under owner-capture a covered later rule can
    still own a packet (148 of these 173 shadowing and 55 of these 145
    redundancy findings change some decision there).
    """
    covering = (IntraKind.SHADOWING, IntraKind.REDUNDANCY)
    checked = {kind: 0 for kind in covering}
    for seed in range(300):
        rs = random_ruleset(random.Random(seed), max_rules=12)
        space = endpoint_space(rs)
        for finding in detect_intra(rs):
            if finding.kind not in covering:
                continue
            kept = (r for r in rs.rules if r.id != finding.later)
            rules = tuple(r._replace(id=i) for i, r in enumerate(kept, start=1))
            less = RuleSet(rs.schema, rules, rs.component_kind, rs.component_name)
            tree = build_rdt(less, ConflictPolicy.FIRST_MATCH).tree
            assert equivalence(tree, rs, ConflictPolicy.FIRST_MATCH, space) == [], (seed, finding)
            checked[finding.kind] += 1
    assert checked == {IntraKind.SHADOWING: 173, IntraKind.REDUNDANCY: 145}


# ---------------------------------------------------------------------------
# the relevancy predicate
# ---------------------------------------------------------------------------


def test_relevant_rulesets(fw):
    assert is_relevant_ruleset(_rs1((((0, 9),), "accept"), (((10, 20),), "deny")))
    assert is_relevant_ruleset(_rs1((((0, 9),), "accept")))
    assert is_relevant_ruleset(RuleSet(schema=SCHEMA1, rules=(), component_name="E"))
    assert not is_relevant_ruleset(fw)


def test_clean_report_does_not_imply_relevant():
    # same-class containment produces no finding but the pair still overlaps
    rs = _rs1((((5, 10),), "accept"), (((0, 20),), "accept"))
    assert detect_intra(rs) == []
    assert not is_relevant_ruleset(rs)


@given(st.integers(0, 10_000))
def test_correction_always_clears_findings(seed):
    rs = random_ruleset(random.Random(seed), max_rules=10)
    corrected = tree_to_rules(build_rdt(rs).tree)
    assert detect_intra(corrected) == []
    assert is_relevant_ruleset(corrected)
