"""Acceptance checks for the whole pipeline, one criterion per test.

Run with ``pytest -s tests/test_acceptance.py`` to see one summary line per
criterion.  Criteria 7-9 share a seeded 500-set corpus (built once, in the
first of those tests, and cached for the other two).
"""

from __future__ import annotations

import json
import random
import time
from itertools import islice

from click.testing import CliRunner

from policytree.cli import main as cli_main
from policytree.correction import correct_pair, correct_ruleset, integrate, project
from policytree.dtree import tree_to_rules
from policytree.interop import InterKind, detect_inter, extend_schema, union_schema
from policytree.intra import detect_intra
from policytree.oracle import Semantics, endpoint_space, equivalence
from policytree.rdt import ConflictPolicy, build_rdt
from policytree.ruleio import (
    load_ruleset,
    parse_ruleset,
    parse_value,
    ruleset_to_dict,
    serialize_ruleset,
)
from policytree.values import ANY

from _corpus import (
    check_relevant,
    evaluate_tree,
    iter_packets,
    random_component_pair,
    random_ruleset,
    ruleset_from_dict,
)

runner = CliRunner()

_CORPUS: list = []  # criterion 7 fills this; 8 and 9 reuse it


def _verdict(n: int, ok: bool, note: str) -> None:
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {note}"
    print(line)
    assert ok, line


def _corpus_sets() -> list:
    if not _CORPUS:
        _CORPUS.extend(random_ruleset(random.Random(seed), max_rules=20) for seed in range(500))
    return _CORPUS


def _region_map(rs) -> dict:
    return {tuple(sorted(r.condition.items())): r.action for r in rs.rules}


def _fw_region(fw, src: str, dst: str, action: str):
    cond = {
        "protocol": parse_value("TCP", fw.schema.attribute("protocol")),
        "src_addr": parse_value(src, fw.schema.attribute("src_addr")),
        "src_port": ANY,
        "dst_addr": parse_value(dst, fw.schema.attribute("dst_addr")),
        "dst_port": ANY,
    }
    return tuple(sorted(cond.items())), action


def _ids_region(ids, length, proto, src, dst, attack, action):
    s = ids.schema
    cond = {
        "packet_length": ANY if length is None else parse_value(length, s.attribute("packet_length")),
        "protocol": parse_value(proto, s.attribute("protocol")),
        "src_addr": parse_value(src, s.attribute("src_addr")),
        "src_port": ANY,
        "dst_addr": parse_value(dst, s.attribute("dst_addr")),
        "dst_port": ANY,
        "attack_class": parse_value(attack, s.attribute("attack_class")),
    }
    return tuple(sorted(cond.items())), action


def test_criterion_01_lint_finds_the_five_anomalies(cases_dir):
    started = time.perf_counter()
    result = runner.invoke(cli_main, ["lint", str(cases_dir / "fw.rules")])
    elapsed = time.perf_counter() - started
    n = result.output.count("finding:")
    ok = result.exit_code == 1 and n == 5 and elapsed < 1.0
    _verdict(1, ok, f"lint exit={result.exit_code}, {n} findings in {elapsed:.2f}s")


def test_criterion_02_single_component_regions(fw):
    got = _region_map(correct_ruleset(fw))
    want = dict(
        [
            _fw_region(fw, "140.192.10.61-140.192.10.100", "129.170.20.20-129.170.20.29", "deny"),
            _fw_region(fw, "140.192.10.20-140.192.10.50", "129.170.20.20-129.170.20.70", "accept"),
            _fw_region(fw, "140.192.10.1-140.192.10.19,140.192.10.51-140.192.10.60",
                       "129.170.20.20-129.170.20.100", "deny"),
            _fw_region(fw, "140.192.10.20-140.192.10.50", "129.170.20.71-129.170.20.100", "deny"),
            _fw_region(fw, "140.192.10.61-140.192.10.100", "129.170.20.30-129.170.20.100", "accept"),
        ]
    )
    _verdict(2, got == want, f"corrected firewall has {len(got)} regions")


def test_criterion_03_schema_extension(fw, ids):
    fixed = correct_ruleset(fw)
    u = union_schema(fixed.schema, ids.schema)
    ext = extend_schema(fixed, u)
    ok = (
        u.condition_names
        == ("protocol", "src_addr", "src_port", "dst_addr", "dst_port", "packet_length", "attack_class")
        and u.decision_attribute.domain.labels == frozenset({"accept", "deny", "pass", "reject"})
        and len(ext.rules) == len(fixed.rules)
        and all(r.condition["packet_length"].is_wildcard for r in ext.rules)
        and all(r.condition["attack_class"].is_wildcard for r in ext.rules)
        and all(
            e.condition[n] == r.condition[n]
            for e, r in zip(ext.rules, fixed.rules)
            for n in fixed.schema.condition_names
        )
    )
    _verdict(3, ok, "extension adds wildcards and keeps every original field")


def test_criterion_04_pair_anomalies(fw, ids):
    fixed = correct_ruleset(fw)
    u = union_schema(fixed.schema, ids.schema)
    found = detect_inter(extend_schema(fixed, u), extend_schema(ids, u))
    got = [(a.kind, a.preceding_rule, a.following_rule) for a in found]
    want = [(InterKind.CORRELATION, 2, 1), (InterKind.SPURIOUSNESS, 5, 2)]
    ok = got == want  # a non-empty list: the pair does not interoperate
    _verdict(4, ok, f"pair check reports {got}")


def test_criterion_05_integration(fw, ids):
    fixed = correct_ruleset(fw)
    u = union_schema(fixed.schema, ids.schema)
    g = integrate(extend_schema(fixed, u), extend_schema(ids, u))
    want = {i: ("FW", i) for i in range(1, 6)} | {i + 5: ("IDS", i) for i in range(1, 4)}
    ok = (
        [r.id for r in g.ruleset.rules] == list(range(1, 9))
        and g.provenance == want
        and g.ruleset.component_name == "FW+IDS"
    )
    _verdict(5, ok, f"global set has {len(g.ruleset.rules)} rules with provenance")


def test_criterion_06_pair_repair_regions(fw, ids):
    cp = correct_pair(correct_ruleset(fw), ids)
    got_p = _region_map(cp.preceding)
    want_p = dict(
        [
            _fw_region(fw, "140.192.10.61-140.192.10.69,140.192.10.91-140.192.10.100",
                       "129.170.20.20-129.170.20.29", "deny"),
            _fw_region(fw, "140.192.10.70-140.192.10.90", "129.170.20.20-129.170.20.29", "deny"),
            _fw_region(fw, "140.192.10.20-140.192.10.39", "129.170.20.20-129.170.20.70", "accept"),
            _fw_region(fw, "140.192.10.40-140.192.10.50", "129.170.20.20-129.170.20.70", "accept"),
            _fw_region(fw, "140.192.10.1-140.192.10.19,140.192.10.51-140.192.10.60",
                       "129.170.20.20-129.170.20.100", "deny"),
            _fw_region(fw, "140.192.10.20-140.192.10.39", "129.170.20.71-129.170.20.100", "deny"),
            _fw_region(fw, "140.192.10.40-140.192.10.50", "129.170.20.71-129.170.20.100", "deny"),
            _fw_region(fw, "140.192.10.61-140.192.10.69,140.192.10.91-140.192.10.100",
                       "129.170.20.30-129.170.20.100", "accept"),
            _fw_region(fw, "140.192.10.70-140.192.10.90", "129.170.20.51-129.170.20.100", "accept"),
        ]
    )
    got_f = _region_map(cp.following)
    want_f = dict(
        [
            _ids_region(ids, None, "TCP", "140.192.10.40-140.192.10.50",
                        "129.170.20.10-129.170.20.19", "winworm", "reject"),
            _ids_region(ids, None, "TCP", "140.192.10.70-140.192.10.90",
                        "129.170.20.30-129.170.20.50", "winworm", "reject"),
            _ids_region(ids, "10", "UDP", "140.192.20.0-140.192.20.255",
                        "210.160.20.0-210.160.20.255", "Win32", "reject"),
        ]
    )
    ok = got_p == want_p and got_f == want_f
    _verdict(6, ok, f"repair yields {len(got_p)}+{len(got_f)} regions")


def test_criterion_07_trees_are_always_relevant():
    started = time.perf_counter()
    sets = _corpus_sets()
    bad = 0
    for rs in sets:
        for policy in ConflictPolicy:
            if check_relevant(build_rdt(rs, policy).tree):
                bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and len(sets) >= 500 and elapsed < 60.0
    _verdict(7, ok, f"{len(sets)} sets x 2 policies, {bad} violations, {elapsed:.1f}s")


def test_criterion_08_corrected_sets_are_anomaly_free():
    bad = sum(1 for rs in _corpus_sets() if detect_intra(tree_to_rules(build_rdt(rs).tree)))
    _verdict(8, bad == 0, f"{len(_CORPUS)} corrected sets, {bad} with findings")


def test_criterion_09_trees_match_the_packet_referee():
    bad = 0
    for rs in _corpus_sets():
        space = endpoint_space(rs)
        if equivalence(build_rdt(rs).tree, rs, Semantics.OWNER_CAPTURE, space):
            bad += 1
        if equivalence(
            build_rdt(rs, ConflictPolicy.FIRST_MATCH).tree, rs, Semantics.FIRST_MATCH, space
        ):
            bad += 1
    _verdict(9, bad == 0, f"{len(_CORPUS)} sets x 2 semantics, {bad} mismatching")


def test_criterion_10_projection_keeps_relevancy_and_decisions():
    bad_relevancy = bad_decisions = 0
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        rs = random_ruleset(rng, max_rules=8)
        rdt = build_rdt(rs)
        names = list(rs.schema.condition_names)
        kept = rng.sample(names, rng.randint(1, len(names)))
        kept.sort(key=names.index)
        projected = project(rdt.tree, kept)
        if check_relevant(projected):
            bad_relevancy += 1
            continue
        for pkt in islice(iter_packets(endpoint_space(rs)), 60):
            decided = evaluate_tree(projected, pkt)
            if decided is not None and evaluate_tree(rdt.tree, pkt) != decided:
                bad_decisions += 1
                break
    ok = bad_relevancy == 0 and bad_decisions == 0
    _verdict(
        10,
        ok,
        f"100 projections: {bad_relevancy} overlap, {bad_decisions} contradict the source",
    )


def test_criterion_11_repaired_pairs_interoperate():
    bad = 0
    for seed in range(100):
        p, f = random_component_pair(random.Random(20_000 + seed))
        cp = correct_pair(p, f)
        u = union_schema(cp.preceding.schema, cp.following.schema)
        if detect_inter(extend_schema(cp.preceding, u), extend_schema(cp.following, u)):
            bad += 1
    _verdict(11, bad == 0, f"100 repaired pairs, {bad} still anomalous")


def test_criterion_12_round_trips_and_determinism(cases_dir, tmp_path):
    stable = True
    for name in ("fw.rules", "ids.rules", "empty.rules"):
        rs = load_ruleset(cases_dir / name)
        text = serialize_ruleset(rs)
        stable &= parse_ruleset(text, source=name) == rs
        stable &= serialize_ruleset(parse_ruleset(text, source=name)) == text
        stable &= ruleset_from_dict(json.loads(json.dumps(ruleset_to_dict(rs)))) == rs

    fw_path = str(cases_dir / "fw.rules")
    ids_path = str(cases_dir / "ids.rules")
    for args in (["lint", fw_path], ["--format", "json", "lint", fw_path]):
        stable &= runner.invoke(cli_main, args).output == runner.invoke(cli_main, args).output
    a, b = tmp_path / "a", tmp_path / "b"
    runner.invoke(cli_main, ["fix-interop", fw_path, ids_path, "-o", str(a)])
    runner.invoke(cli_main, ["fix-interop", fw_path, ids_path, "-o", str(b)])
    for out_name in ("FW-corrected.rules", "IDS-corrected.rules"):
        stable &= (a / out_name).read_bytes() == (b / out_name).read_bytes()
    _verdict(12, stable, "serialize/parse identity and byte-stable reports")
