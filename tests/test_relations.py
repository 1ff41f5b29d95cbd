"""Pairwise rule relations: the six-way classification and its symmetries."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (
    ActionClass,
    action_class,
    enumerate_points,
    interval_schema,
    is_correlated,
    iter_packets,
    random_ruleset,
    random_value,
)
from _corpus import mixed_rulesets as _rulesets
from _corpus import mixed_schemas as _schemas
from policytree.interop import InterAnomaly, InterKind, detect_inter
from policytree.intra import IntraAnomaly, IntraKind, detect_intra, is_relevant_ruleset
from policytree.model import Rule, RuleSet, SchemaError, Severity
from policytree.oracle import endpoint_space, matches
from policytree.relations import RelationKind, relate, relation_sets
from policytree.values import ANY, intervals

SCHEMA = interval_schema(2)  # f0 in 0..39, f1 in 0..14
F0 = SCHEMA.attribute("f0")
F1 = SCHEMA.attribute("f1")


def rule(f0, f1, action="accept", rid=1):
    return Rule(rid, {"f0": f0, "f1": f1}, action)


def box(r):
    return set(
        itertools.product(
            enumerate_points(r.condition["f0"], F0.domain),
            enumerate_points(r.condition["f1"], F1.domain),
        )
    )


@pytest.mark.parametrize(
    "a, b, kind",
    [
        (intervals(((0, 5),)), intervals(((0, 5),)), RelationKind.EXACT),
        (intervals(((1, 4),)), intervals(((0, 5),)), RelationKind.FORWARD),
        (intervals(((0, 5),)), intervals(((1, 4),)), RelationKind.BACKWARD),
        (intervals(((0, 5),)), intervals(((4, 9),)), RelationKind.CORRELATED_GENERAL),
        (intervals(((0, 5),)), intervals(((7, 9),)), RelationKind.DISJOINT),
        (ANY, F0.domain, RelationKind.EXACT),
    ],
)
def test_one_field_cases(a, b, kind):
    one = interval_schema(1, (40,))  # f0 in 0..39, as in SCHEMA
    assert relate(Rule(1, {"f0": a}, "accept"), Rule(2, {"f0": b}, "deny"), one) is kind


def test_kind_examples():
    a = rule(intervals(((0, 20),)), intervals(((0, 10),)))
    assert relate(a, rule(a.condition["f0"], a.condition["f1"]), SCHEMA) is RelationKind.EXACT
    inner = rule(intervals(((5, 10),)), intervals(((0, 10),)))
    assert relate(inner, a, SCHEMA) is RelationKind.FORWARD
    assert relate(a, inner, SCHEMA) is RelationKind.BACKWARD
    crossed = rule(intervals(((5, 10),)), ANY)
    assert relate(a, crossed, SCHEMA) is RelationKind.CORRELATED
    slid = rule(intervals(((10, 30),)), intervals(((5, 12),)))
    assert relate(a, slid, SCHEMA) is RelationKind.CORRELATED_GENERAL
    apart = rule(intervals(((30, 39),)), ANY)
    assert relate(a, apart, SCHEMA) is RelationKind.DISJOINT
    # an empty value set lies inside every value, so this rule is inside a
    hollow = rule(intervals(()), intervals(((3, 5),)))
    assert relate(hollow, a, SCHEMA) is RelationKind.FORWARD
    both = [hollow, a]
    assert _set_bits(both, both, SCHEMA) == _scalar_bits(both, both, SCHEMA)


def test_disjoint_wins_over_partial_overlap():
    # one disjoint field makes the rules disjoint no matter the others
    a = rule(intervals(((0, 10),)), intervals(((0, 5),)))
    b = rule(intervals(((0, 10),)), intervals(((7, 9),)))
    assert relate(a, b, SCHEMA) is RelationKind.DISJOINT


def test_is_correlated():
    assert is_correlated(RelationKind.CORRELATED)
    assert is_correlated(RelationKind.CORRELATED_GENERAL)
    assert not is_correlated(RelationKind.FORWARD)
    assert not is_correlated(RelationKind.DISJOINT)


@given(st.integers(0, 10_000))
def test_classification_total_and_symmetric(seed):
    rng = random.Random(seed)
    rs = random_ruleset(rng, max_rules=6, n_attrs=2)
    for a, b in itertools.combinations(rs.rules, 2):
        ab = relate(a, b, rs.schema)
        ba = relate(b, a, rs.schema)
        assert ab in RelationKind
        if ab is RelationKind.FORWARD:
            assert ba is RelationKind.BACKWARD
        elif ab is RelationKind.BACKWARD:
            assert ba is RelationKind.FORWARD
        else:
            assert ba is ab  # exact, correlated, and disjoint are symmetric


@given(st.integers(0, 10_000))
def test_classification_matches_point_semantics(seed):
    rng = random.Random(seed)
    rs = random_ruleset(rng, max_rules=5, n_attrs=2)
    for a, b in itertools.combinations(rs.rules, 2):
        kind = relate(a, b, rs.schema)
        pa, pb = box(a), box(b)
        assert (pa <= pb) == (kind in (RelationKind.EXACT, RelationKind.FORWARD))
        assert (pa >= pb) == (kind in (RelationKind.EXACT, RelationKind.BACKWARD))
        assert pa.isdisjoint(pb) == (kind is RelationKind.DISJOINT)


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_classification_matches_packets_on_every_attribute_kind(data):
    schema = data.draw(_schemas())
    rs = data.draw(_rulesets(schema, "A"))
    packets = list(iter_packets(endpoint_space(rs)))
    boxes = [
        frozenset(n for n, packet in enumerate(packets) if matches(packet, r, schema))
        for r in rs.rules
    ]
    for (a, pa), (b, pb) in itertools.permutations(zip(rs.rules, boxes), 2):
        if not pa or not pb:
            continue  # an empty value set lies inside everything, by convention
        kind = relate(a, b, schema)
        assert (pa <= pb) == (kind in (RelationKind.EXACT, RelationKind.FORWARD))
        assert (pa >= pb) == (kind in (RelationKind.EXACT, RelationKind.BACKWARD))
        assert pa.isdisjoint(pb) == (kind is RelationKind.DISJOINT)


def test_case_study_relations(fw):
    r1, r2, r3, r4 = fw.rules
    assert relate(r1, r2, fw.schema) is RelationKind.BACKWARD
    assert relate(r1, r3, fw.schema) is RelationKind.BACKWARD
    assert relate(r1, r4, fw.schema) is RelationKind.BACKWARD
    assert relate(r2, r3, fw.schema) is RelationKind.FORWARD
    assert relate(r3, r4, fw.schema) is RelationKind.CORRELATED


# ---------------------------------------------------------------------------
# the bitset kernel against the scalar relation
# ---------------------------------------------------------------------------

def _scalar_intra(rs: RuleSet) -> list[IntraAnomaly]:
    found = []
    for a, b in itertools.combinations(rs.rules, 2):
        rel = relate(a, b, rs.schema)
        same = action_class(a.action) is action_class(b.action)
        if rel in (RelationKind.EXACT, RelationKind.BACKWARD):
            kind = IntraKind.REDUNDANCY if same else IntraKind.SHADOWING
        elif rel is RelationKind.FORWARD and not same:
            kind = IntraKind.GENERALIZATION
        elif is_correlated(rel) and not same:
            kind = IntraKind.CORRELATION
        else:
            continue
        severity = (
            Severity.ERROR if kind in (IntraKind.REDUNDANCY, IntraKind.SHADOWING)
            else Severity.WARNING
        )
        found.append(IntraAnomaly(kind, a.id, b.id, severity))
    return found


def _scalar_inter(preceding: RuleSet, following: RuleSet) -> list[InterAnomaly]:
    permit, block = ActionClass.PERMIT, ActionClass.BLOCK
    inside = {
        (block, permit): InterKind.SHADOWING,
        (permit, block): InterKind.SPURIOUSNESS,
        (block, block): InterKind.REDUNDANCY,
    }
    found = []
    for p in preceding.rules:
        for f in following.rules:
            rel = relate(p, f, preceding.schema)
            classes = (action_class(p.action), action_class(f.action))
            if rel in (RelationKind.EXACT, RelationKind.BACKWARD):
                kind = inside.get(classes)
            elif is_correlated(rel) and classes[0] is not classes[1]:
                kind = InterKind.CORRELATION
            else:
                kind = None
            if kind is not None:
                severity = Severity.WARNING if kind is InterKind.REDUNDANCY else Severity.ERROR
                found.append(InterAnomaly(kind, p.id, f.id, severity))
    return found


def _scalar_relevant(rs: RuleSet) -> bool:
    return all(
        relate(a, b, rs.schema) is RelationKind.DISJOINT
        for a, b in itertools.combinations(rs.rules, 2)
    )


# (meets, covers, inside) of a pair by the kind of relate(a, b)
_BITS = {
    RelationKind.EXACT: (1, 1, 1),
    RelationKind.BACKWARD: (1, 1, 0),
    RelationKind.FORWARD: (1, 0, 1),
    RelationKind.CORRELATED: (1, 0, 0),
    RelationKind.CORRELATED_GENERAL: (1, 0, 0),
    RelationKind.DISJOINT: (0, 0, 0),
}


def _scalar_bits(a_rules, b_rules, schema) -> list[list[tuple[int, int, int]]]:
    return [[_BITS[relate(a, b, schema)] for b in b_rules] for a in a_rules]


def _set_bits(a_rules, b_rules, schema) -> list[list[tuple[int, int, int]]]:
    sets = relation_sets(a_rules, b_rules, schema)
    for bitsets in sets:
        assert len(bitsets) == len(b_rules)
        assert all(0 <= s < 1 << len(a_rules) for s in bitsets)
    return [
        [tuple(bitsets[j] >> i & 1 for bitsets in sets) for j in range(len(b_rules))]
        for i in range(len(a_rules))
    ]


@settings(max_examples=300, derandomize=True)
@given(st.data())
def test_kernel_agrees_with_scalar_relate(data):
    schema = data.draw(_schemas())
    a = data.draw(_rulesets(schema, "A"))
    b = data.draw(_rulesets(schema, "B"))
    for left, right in ((a.rules, a.rules), (a.rules, b.rules), (b.rules, a.rules)):
        assert _set_bits(left, right, schema) == _scalar_bits(left, right, schema)
    assert detect_intra(a) == _scalar_intra(a)
    assert is_relevant_ruleset(a) == _scalar_relevant(a)
    assert detect_inter(a, b) == _scalar_inter(a, b)


def test_kernel_over_many_rules():
    rng = random.Random(3)
    rs = random_ruleset(rng, max_rules=6, n_attrs=3)
    many = [
        Rule(i, {a.name: random_value(rng, a) for a in rs.schema.condition_attributes}, "deny")
        for i in range(1, 516)
    ]
    assert _set_bits(many, rs.rules, rs.schema) == _scalar_bits(many, rs.rules, rs.schema)
    assert _set_bits(rs.rules, many, rs.schema) == _scalar_bits(rs.rules, many, rs.schema)


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_kernel_rejects_rules_off_the_schema(change):
    good = rule(ANY, ANY, rid=1)
    condition = {"f0": ANY} if change == "missing" else {"f0": ANY, "f1": ANY, "f2": ANY}
    bad = Rule(2, condition, "deny")
    for a_rules, b_rules in (([good], [bad]), ([bad], [good]), ([good, bad], [good, bad])):
        with pytest.raises(SchemaError, match="rule 2 does not match the schema"):
            relation_sets(a_rules, b_rules, SCHEMA)
    with pytest.raises(SchemaError, match="rule 2"):
        relate(good, bad, SCHEMA)
