"""The interval/label algebra, checked point-wise against Python sets."""

import copy
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _corpus import enumerate_points, mixed_rulesets, mixed_schemas
from policytree import values
from policytree.model import Rule
from policytree.values import (
    ANY,
    Cells,
    ValueSet,
    ValueSetError,
    contains_point,
    intervals,
    labels,
    vs_compare,
    vs_is_empty,
    vs_subset,
)

DOM = intervals(((0, 30),))
LDOM = labels("a", "b", "c", "d")
EMPTY_INTERVALS = ValueSet(intervals=())
EMPTY_LABELS = ValueSet(labels=frozenset())


def pts(v: ValueSet, dom: ValueSet = DOM) -> set:
    return set(enumerate_points(v, dom))


def from_points(points: set, dom: ValueSet) -> ValueSet:
    """The canonical value set holding exactly ``points``: the wildcard for all of ``dom``."""
    if points == pts(dom, dom):
        return ANY
    if dom.labels is not None:
        return ValueSet(labels=frozenset(points))
    return intervals((x, x) for x in points)


span = st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
    lambda p: (min(p), max(p))
)
ivals = st.lists(span, max_size=3).map(lambda ps: intervals(tuple(ps)))
operand = st.one_of(st.just(ANY), ivals)
label_operand = st.one_of(
    st.just(ANY), st.sets(st.sampled_from("abcd")).map(lambda names: labels(*names))
)
# two operands of one shape, with the domain they live in
same_shape = st.one_of(
    st.tuples(operand, operand, st.just(DOM)),
    st.tuples(label_operand, label_operand, st.just(LDOM)),
)


def _one(lo: int, hi: int) -> ValueSet:
    return intervals(((lo, hi),))


@given(same_shape)
# single intervals, which vs_compare answers from their ends
@example((_one(2, 5), _one(5, 8), DOM))  # touching ends
@example((_one(5, 8), _one(2, 5), DOM))
@example((_one(2, 4), _one(5, 8), DOM))  # adjacent, disjoint
@example((_one(5, 8), _one(2, 4), DOM))
@example((_one(3, 6), _one(3, 6), DOM))  # equal
@example((_one(4, 4), _one(4, 4), DOM))
@example((_one(3, 3), _one(3, 7), DOM))  # shared single ends
@example((_one(7, 7), _one(3, 7), DOM))
@example((_one(3, 7), _one(3, 3), DOM))
@example((_one(3, 5), _one(3, 8), DOM))
@example((_one(1, 8), _one(4, 8), DOM))
@example((_one(0, 30), ANY, DOM))  # the whole domain against the wildcard
@example((ANY, _one(0, 30), DOM))
@example((ANY, _one(0, 29), DOM))
@example((_one(1, 30), ANY, DOM))
def test_relations_match_set_semantics(operands):
    a, b, dom = operands
    pa, pb = pts(a, dom), pts(b, dom)
    assert vs_subset(a, b, dom) == (pa <= pb)
    assert vs_compare(a, b, dom) == (pa <= pb, pb <= pa, bool(pa & pb))


@given(st.integers(0, 30), operand)
def test_contains_point_matches_enumeration(x, v):
    assert contains_point(v, x, DOM) == (x in pts(v))


def test_wildcard_vs_explicit_domain():
    assert vs_compare(ANY, DOM, DOM) == (True, True, True)
    cells = Cells(DOM)
    assert cells.value(cells.mask(intervals(((0, 30),))) & cells.mask(ANY)) == ANY
    assert cells.value(cells.mask(ANY) & cells.mask(ANY)) == ANY


def test_empty_is_not_wildcard():
    assert vs_is_empty(EMPTY_INTERVALS)
    assert vs_is_empty(EMPTY_LABELS)
    assert not vs_is_empty(ANY)
    assert EMPTY_INTERVALS != ANY
    a, b = intervals(((0, 4),)), intervals(((6, 9),))
    cells = Cells(DOM, [a, b])
    assert vs_is_empty(cells.value(cells.mask(a) & cells.mask(b)))


def test_canonical_construction():
    assert intervals(((10, 15), (7, 9))) == intervals(((7, 15),))
    assert intervals(((3, 5), (5, 8))) == intervals(((3, 8),))
    assert intervals(((9, 2),)) == EMPTY_INTERVALS  # inverted pairs drop out


def test_label_algebra():
    ab, bc = labels("a", "b"), labels("b", "c")
    cells = Cells(LDOM)
    assert cells.value(cells.mask(ab) & cells.mask(bc)) == labels("b")
    assert cells.value(cells.mask(ANY) & cells.mask(labels("a", "b", "c", "d"))) == ANY
    assert vs_subset(labels("a"), ab, LDOM)
    assert not vs_subset(ab, labels("a"), LDOM)


def test_shape_mismatch_raises():
    with pytest.raises(ValueSetError):
        vs_compare(labels("a"), intervals(((0, 1),)), DOM)
    with pytest.raises(ValueSetError):
        ValueSet(labels=frozenset({"a"}), intervals=((0, 1),))
    with pytest.raises(ValueSetError, match="either labels or intervals"):
        ValueSet(frozenset(), ())


def test_value_records_are_equal_by_their_fields():
    for make in (lambda: labels("dos", "worm"), lambda: intervals(((0, 9), (20, 29))), ValueSet):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
        assert (a.labels, a.intervals) == tuple(a)
        assert all(type(twin) is ValueSet for twin in (copy.copy(a), pickle.loads(pickle.dumps(a))))
    assert ValueSet() == ANY and ANY.is_wildcard
    rule = Rule(3, {"port": _one(80, 80)}, "deny", "FW:r3")
    assert rule == Rule(3, {"port": _one(80, 80)}, "deny", "FW:r3")
    assert (rule.id, rule.condition["port"], rule.action, rule.origin) == (3, _one(80, 80), "deny", "FW:r3")
    assert Rule(1, {}, "accept").origin == ""


def test_wildcard_domain_rejected():
    with pytest.raises(ValueSetError):
        vs_compare(ANY, ANY, ANY)
    with pytest.raises(ValueSetError):
        Cells(ANY)


def test_string_point_in_interval_set_raises():
    with pytest.raises(ValueSetError):
        contains_point(intervals(((0, 5),)), "TCP", DOM)


# ---------------------------------------------------------------------------
# the cell-mask codec
# ---------------------------------------------------------------------------


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_cells_are_exact_on_every_attribute_kind(data):
    # wildcards, explicit full domains, empty sets and proper subsets of
    # port, integer, IPv4, protocol and open-label attributes
    rs = data.draw(mixed_rulesets(data.draw(mixed_schemas()), "R"))
    for attr in rs.schema.condition_attributes:
        dom = attr.domain
        values = [r.condition[attr.name] for r in rs.rules]
        cells = Cells(dom, values)
        assert cells.mask(ANY) == cells.mask(dom) == cells.full
        for v in values:
            assert cells.value(cells.mask(v)) == (ANY if pts(v, dom) == pts(dom, dom) else v)
        for a, b in itertools.product(values, repeat=2):
            ma, mb = cells.mask(a), cells.mask(b)
            pa, pb = pts(a, dom), pts(b, dom)
            assert cells.value(ma & mb) == from_points(pa & pb, dom)
            assert cells.value(ma & ~mb) == from_points(pa - pb, dom)
            assert cells.value(ma | mb) == from_points(pa | pb, dom)


def test_cells_over_a_domain_with_a_hole():
    dom = intervals(((0, 9), (20, 29)))
    v = intervals(((5, 9), (20, 22)))
    cells = Cells(dom, [v])
    # cells [0,4] [5,9] [10,19] [20,22] [23,29]; the hole is never set
    assert cells.mask(v) == 0b01010
    assert cells.full == 0b11011
    assert cells.value(cells.mask(v)) == v
    assert cells.value(cells.full) == ANY
    assert cells.value(cells.full & ~cells.mask(v)) == intervals(((0, 4), (23, 29)))
    assert cells.value(0) == EMPTY_INTERVALS
    with pytest.raises(ValueSetError, match="not cut by this codec"):
        cells.mask(intervals(((3, 6),)))
    with pytest.raises(ValueSetError, match="label set"):
        cells.mask(labels("a"))
    with pytest.raises(ValueSetError, match="label set"):
        Cells(LDOM).mask(v)
    assert Cells(LDOM).value(0) == EMPTY_LABELS


_SAMPLES = "[labels('dos', 'worm', '~other~'), intervals(((0, 9), (20, 29)))]"


def test_an_unpickled_value_set_finds_its_key_in_another_interpreter(tmp_path):
    # string hashes are salted per interpreter: a hash restored from the
    # pickle, not rebuilt, would miss the key of an equal fresh value
    src = str(Path(values.__file__).parents[1])
    path = str(tmp_path / "values.pickle")
    head = f"import pickle, sys; sys.path[:0] = [{src!r}]; "
    head += "from policytree.values import intervals, labels; "
    dump = head + f"open({path!r}, 'wb').write(pickle.dumps({_SAMPLES}))"
    load = head + f"keys = {{v: i for i, v in enumerate({_SAMPLES})}}; "
    load += f"print([keys.get(v) for v in pickle.loads(open({path!r}, 'rb').read())])"
    for seed, code in (("1", dump), ("2", load)):
        probe = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        )
    assert probe.stdout == "[0, 1]\n"


def test_a_copied_value_set_keeps_its_hash():
    for v in (labels("dos", "worm"), intervals(((0, 9), (20, 29))), ANY, EMPTY_INTERVALS):
        for twin in (copy.copy(v), copy.deepcopy(v)):
            assert twin == v
            assert hash(twin) == hash(v)
            assert {v: 1}.get(twin) == 1
