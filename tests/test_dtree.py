"""Plain decision trees (``_corpus.build_tree``): flattening, relevancy, evaluation.

The exhaustive referees here enumerate whole (small) domains, so the
assertions are about packet behaviour, not tree shape — except where the
shape itself is the contract (prefix sharing, owner bookkeeping).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from policytree.dtree import (
    branches,
    dump_tree,
    tree_to_rules,
)
from policytree.model import Rule, RuleSet, SchemaError
from policytree.oracle import Semantics, evaluate
from policytree.values import ANY, intervals

from _corpus import build_tree, check_relevant, copy_node, evaluate_tree, interval_schema, random_ruleset

SCHEMA1 = interval_schema(1, (40,))
SCHEMA2 = interval_schema(2, (40, 15))


def _rs1(*rows: tuple[tuple[tuple[int, int], ...] | None, str]) -> RuleSet:
    """One-attribute rule set from ((spans)|None, action) rows."""
    rules = tuple(
        Rule(i, {"f0": ANY if spans is None else intervals(spans)}, action)
        for i, (spans, action) in enumerate(rows, start=1)
    )
    return RuleSet(schema=SCHEMA1, rules=rules, component_name="T1")


# ---------------------------------------------------------------------------
# build_tree / tree_to_rules round trip
# ---------------------------------------------------------------------------


def test_round_trip_fixture(fw):
    got = tree_to_rules(build_tree(fw))
    assert len(got.rules) == len(fw.rules)
    for a, b in zip(got.rules, fw.rules):
        assert a.id == b.id
        assert a.action == b.action
        assert a.condition == b.condition
    # origins are stamped with the component on the way out
    assert {r.origin for r in got.rules} == {"FW"}


@given(st.integers(0, 10_000))
def test_round_trip_random(seed):
    rs = random_ruleset(random.Random(seed), max_rules=12)
    got = tree_to_rules(build_tree(rs))
    assert [(r.condition, r.action) for r in got.rules] == [
        (r.condition, r.action) for r in rs.rules
    ]


def test_shared_prefixes_keep_owners(fw):
    # r1 and r4 share protocol/src/port edges; the branch list still carries
    # every rule exactly once.
    owners = [b.owner for b in branches(build_tree(fw))]
    assert sorted(owners) == [1, 2, 3, 4]
    assert owners != [1, 2, 3, 4]  # r4 sits under r1's prefix in DFS order


# ---------------------------------------------------------------------------
# relevancy checking
# ---------------------------------------------------------------------------


def test_overlapping_rules_are_flagged(fw):
    viols = check_relevant(build_tree(fw))
    assert viols
    assert all(v.attribute in fw.schema.condition_names for v in viols)


def test_disjoint_rules_are_relevant():
    rs = _rs1((((0, 9),), "accept"), (((10, 39),), "deny"))
    assert check_relevant(build_tree(rs)) == []


def test_duplicate_rule_flagged_at_action_level():
    rs = _rs1((((0, 9),), "accept"), (((0, 9),), "accept"))
    viols = check_relevant(build_tree(rs))
    assert len(viols) == 1
    assert viols[0].attribute == "action"
    assert viols[0].path == (intervals(((0, 9),)),)


def test_conflicting_duplicate_not_an_action_overlap():
    # Identical conditions with different actions collide as *conditions*
    # elsewhere in the pipeline; at the action node the labels are disjoint.
    rs = _rs1((((0, 9),), "accept"), (((0, 9),), "deny"))
    assert check_relevant(build_tree(rs)) == []


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@given(st.integers(0, 10_000))
def test_evaluate_tree_is_first_match(seed):
    rng = random.Random(seed)
    rs = random_ruleset(rng, max_rules=12, n_attrs=2)
    t = build_tree(rs)
    for _ in range(6):
        p = {"f0": rng.randrange(40), "f1": rng.randrange(15)}
        assert evaluate_tree(t, p) == evaluate(rs, p, Semantics.FIRST_MATCH)


def test_evaluate_tree_ignores_prefix_sharing():
    # r3 reuses r1's src edge, so it precedes r2 in DFS order; rule order
    # must still decide.
    rules = (
        Rule(1, {"f0": intervals(((0, 20),)), "f1": intervals(((0, 2),))}, "accept"),
        Rule(2, {"f0": intervals(((10, 30),)), "f1": intervals(((5, 9),))}, "deny"),
        Rule(3, {"f0": intervals(((0, 20),)), "f1": intervals(((5, 9),))}, "accept"),
    )
    rs = RuleSet(schema=SCHEMA2, rules=rules, component_name="T2")
    assert evaluate_tree(build_tree(rs), {"f0": 15, "f1": 6}) == "deny"


def test_evaluate_tree_no_match_and_missing_attr(fw):
    t = build_tree(_rs1((((0, 9),), "accept")))
    assert evaluate_tree(t, {"f0": 30}) is None
    with pytest.raises(SchemaError, match="missing"):
        evaluate_tree(build_tree(fw), {"protocol": "TCP"})


# ---------------------------------------------------------------------------
# copying, rendering
# ---------------------------------------------------------------------------


def test_copy_node_is_deep(fw):
    t = build_tree(fw)
    dup = copy_node(t.root)
    assert dup == t.root
    dup.edges[0].child.edges[0].label = ANY
    assert dup != t.root


def test_dump_tree_mentions_every_level(fw):
    text = dump_tree(build_tree(fw))
    assert text.startswith("tree FW")
    for name in fw.schema.condition_names:
        assert f"{name} = " in text
    assert "action: deny [r1]" in text
