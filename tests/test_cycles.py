"""Library calls leave no reference cycles.

Reference counting frees what a call made as soon as its last user drops
it.  A structure caught in a reference cycle waits for the cyclic
collector instead, which the command line pauses while a command runs.
Each call is warmed up once, then run again with the collector paused: a
full collection afterwards must find nothing unreachable.
"""

from __future__ import annotations

import functools
import gc
import random

import pytest

from _corpus import check_relevant, random_component_pair, random_ruleset
from conftest import CASES
from policytree.correction import correct_pair, correct_ruleset, project
from policytree.dtree import dump_tree, flattened, tree_to_rules
from policytree.interop import detect_inter, extend_schema, union_schema
from policytree.intra import detect_intra, is_relevant_ruleset
from policytree.oracle import Semantics, endpoint_space, equivalence
from policytree.rdt import ConflictPolicy, build_rdt
from policytree.relations import relation_sets
from policytree.ruleio import parse_ruleset, serialize_ruleset


@functools.cache
def _inputs(source: str):
    """One rule set and one preceding/following pair."""
    if source == "cases":
        single = parse_ruleset((CASES / "fw.rules").read_bytes())
        pair = single, parse_ruleset((CASES / "ids.rules").read_bytes())
    else:
        rng = random.Random(7)
        single, pair = random_ruleset(rng, max_rules=12), random_component_pair(rng)
    return single, pair


def _calls(source: str) -> dict:
    rs, (preceding, following) = _inputs(source)
    text = serialize_ruleset(rs)
    target = union_schema(preceding.schema, following.schema)
    p_ext, f_ext = extend_schema(preceding, target), extend_schema(following, target)
    tree = build_rdt(rs).tree
    pair_tree = correct_pair(preceding, following).rdt.tree
    space = endpoint_space(rs)
    return {
        "parse_ruleset": lambda: parse_ruleset(text),
        "detect_intra": lambda: detect_intra(rs),
        "is_relevant_ruleset": lambda: is_relevant_ruleset(rs),
        "relation_sets": lambda: relation_sets(p_ext.rules, f_ext.rules, target),
        "extend_schema": lambda: extend_schema(following, union_schema(preceding.schema, following.schema)),
        "detect_inter": lambda: detect_inter(p_ext, f_ext),
        "build_rdt-specificity": lambda: build_rdt(rs, ConflictPolicy.SPECIFICITY),
        "build_rdt-first-match": lambda: build_rdt(rs, ConflictPolicy.FIRST_MATCH),
        "correct_ruleset": lambda: correct_ruleset(rs),
        "correct_pair": lambda: correct_pair(preceding, following),
        "project": lambda: project(pair_tree, preceding.schema.condition_names),
        "flattened": lambda: flattened(tree),
        "tree_to_rules": lambda: tree_to_rules(tree),
        "dump_tree": lambda: dump_tree(tree),
        "check_relevant": lambda: check_relevant(tree),
        "endpoint_space": lambda: endpoint_space(rs),
        "equivalence": lambda: equivalence(tree, rs, Semantics.OWNER_CAPTURE, space),
        "serialize_ruleset": lambda: serialize_ruleset(rs),
    }


_NAMES = list(_calls("cases"))


@pytest.mark.parametrize("source", ["cases", "corpus"])
@pytest.mark.parametrize("name", _NAMES)
def test_call_leaves_nothing_for_the_collector(source, name):
    call = _calls(source)[name]
    call()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert unreachable == 0
