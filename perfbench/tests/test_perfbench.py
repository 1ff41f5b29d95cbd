"""Tests of the benchmark's own code: generators, output checks, tracer.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import gen
import bench
import spans
import workloads
from policytree.dtree import Edge
from policytree.oracle import endpoint_space, equivalence
from policytree.ruleio import parse_ruleset, serialize_ruleset
from policytree.values import ValueSet

def test_generators_are_byte_deterministic_per_seed():
    assert gen.firewall(3, 40) == gen.firewall(3, 40)
    assert gen.firewall(3, 40) != gen.firewall(4, 40)
    assert gen.pair(3, 20, 8) == gen.pair(3, 20, 8)
    assert gen.pair(3, 20, 8) != gen.pair(4, 20, 8)


def test_generated_files_parse_and_write_prefixes_as_ranges():
    fw_text = gen.firewall(5, 60)
    fw = parse_ruleset(fw_text)
    assert len(fw.rules) == 61
    assert all(v.is_wildcard for v in fw.rules[-1].condition.values())
    assert fw.rules[-1].action == "deny"
    fw_pair, ids_text = gen.pair(5, 20, 8)
    ids = parse_ruleset(ids_text)
    assert len(parse_ruleset(fw_pair).rules) == 21 and len(ids.rules) == 8
    assert "attack_class" in ids.schema.condition_names
    for text in (fw_text, fw_pair, ids_text):
        assert "/" not in text


def _fw_audit_input(tmp_path, n=20, seed=11):
    wl = workloads.WORKLOADS["fw-audit"]
    inp = wl.make_input(seed, tmp_path, 0, n)
    outcome = wl.record(inp, wl.verdict(inp, workloads.Untraced()))
    assert outcome.problems == []
    assert wl.check(inp, outcome) == []
    return wl, inp, outcome


def _rewrite(path: Path, edit) -> None:
    rs = parse_ruleset(path.read_text())
    path.write_text(serialize_ruleset(edit(rs)))


def test_fw_audit_check_catches_a_flipped_action(tmp_path):
    wl, inp, outcome = _fw_audit_input(tmp_path)

    def flip(rs):
        rules = list(rs.rules)
        r = rules[len(rules) // 2]
        flipped = "accept" if r.action == "deny" else "deny"
        rules[len(rules) // 2] = type(r)(r.id, r.condition, flipped, r.origin)
        return type(rs)(rs.schema, tuple(rules), rs.component_kind, rs.component_name)

    _rewrite(inp.files["out"], flip)
    assert wl.check(inp, outcome)


def test_fw_audit_check_catches_a_dropped_region(tmp_path):
    wl, inp, outcome = _fw_audit_input(tmp_path)

    def drop(rs):
        kept = [r for k, r in enumerate(rs.rules) if k != len(rs.rules) // 2]
        rules = tuple(type(r)(i, r.condition, r.action, r.origin) for i, r in enumerate(kept, 1))
        return type(rs)(rs.schema, rules, rs.component_kind, rs.component_name)

    _rewrite(inp.files["out"], drop)
    assert wl.check(inp, outcome)


def _action_nodes(tree):
    todo = [tree.root]
    while todo:
        node = todo.pop()
        if node.level == tree.action_level:
            yield node
        else:
            todo.extend(e.child for e in node.edges)


@pytest.mark.parametrize("fault", ["flip", "drop"])
def test_referee_check_catches_a_planted_fault(tmp_path, fault):
    wl = workloads.WORKLOADS["referee"]
    inp = wl.make_input(11, tmp_path, 0, 12)
    raw = wl.verdict(inp, workloads.Untraced())
    assert wl.record(inp, raw).problems == []

    rs = parse_ruleset(inp.files["rules"].read_text())
    space = endpoint_space(rs)
    faulty = []
    for (tree, _), (_, semantics) in zip(raw, workloads._REFEREE_POLICIES):
        node = next(iter(_action_nodes(tree)))
        if fault == "flip":
            (label,) = node.edges[0].label.labels
            flipped = "accept" if label == "deny" else "deny"
            node.edges[0] = Edge(ValueSet(labels=frozenset({flipped})), None, node.edges[0].owner)
        else:
            node.edges.clear()
        faulty.append((tree, equivalence(tree, rs, semantics, space)))
    assert len(wl.record(inp, faulty).problems) == 2


def test_pair_check_catches_a_foreign_origin_and_an_overlap(tmp_path):
    wl = workloads.WORKLOADS["pair-interop"]
    inp = wl.make_input(11, tmp_path, 0, (12, 6))
    fixed, checked = wl.verdict(inp, workloads.Untraced())
    outcome = wl.record(inp, (fixed, checked))
    assert outcome.problems == [] and wl.check(inp, outcome) == []

    fw_out = inp.files["out"] / "FW-corrected.rules"
    ids_out = inp.files["out"] / "IDS-corrected.rules"
    text = fw_out.read_text()
    fw_out.write_text(text.replace(" | FW:r", " | FW:r9999", 1))
    assert wl.check(inp, outcome)

    # a second copy of the last rule overlaps it: check-interop refuses the pair
    last_id, rest = text.rstrip("\n").splitlines()[-1].split(" | ", 1)
    fw_out.write_text(text + f"{int(last_id) + 1} | {rest}\n")
    checked = workloads._invoke(workloads.Untraced(), ["check-interop", str(fw_out), str(ids_out)])
    assert wl.record(inp, (fixed, checked)).problems


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert bench.tail([float(k) for k in range(1, 41)]) == (75, 30.0, 10)
    assert bench.tail([float(k) for k in range(1, 121)]) == (91, 110.0, 10)
    assert bench.tail([1.0, 2.0]) == (100, 2.0, 0)


def test_tracer_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda: sum(range(200_000)))
    outer = tracer.span("outer", lambda: inner() + inner())
    outer()
    assert 0 < tracer.self_s["outer"] < tracer.self_s["inner"] / 10


def test_traced_run_names_every_listed_layer_metric(tmp_path):
    wl = workloads.WORKLOADS["pair-interop"]
    inp = wl.make_input(11, tmp_path, 0, (12, 6))
    tracer = spans.Tracer()
    spans.install(tracer, workloads.__name__)
    try:
        wl.verdict(inp, tracer)
    finally:
        tracer.uninstall()
    seen = tracer.metrics()
    for name in ("relations.relate_calls", "intra.gate_pairs", "interop.pairs",
                 "correction.regions_global", "ruleio.rules_written", "cli.self_s"):
        assert seen[name] > 0, name


@pytest.mark.parametrize("name", ["fw-audit", "pair-interop", "referee"])
def test_digest_does_not_depend_on_the_working_directory(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    size = {"fw-audit": 20, "pair-interop": (12, 6), "referee": 12}[name]
    digests = []
    for where in ("a", "b/deeper"):
        work = tmp_path / where
        work.mkdir(parents=True)
        inp = wl.make_input(11, work, 0, size)
        outcome = wl.record(inp, wl.verdict(inp, workloads.Untraced()))
        assert outcome.problems == []
        digests.append(outcome.digest)
    assert digests[0] == digests[1]
