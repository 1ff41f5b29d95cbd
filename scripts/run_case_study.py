#!/usr/bin/env python3
"""Walk the bundled firewall/IDS pair through the whole pipeline.

Prints every intermediate artifact: the raw rule tables, the firewall's
internal anomalies, its corrected regions, the shared schema, the
cross-component anomalies, the merged global set, and the final pair of
corrected components.  Ends with a check of the global tree against the
plain ordered-rules referee, one packet per elementary cell.

Usage:
    python3 scripts/run_case_study.py [--cases DIR] [--policy NAME]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from policytree.correction import correct_pair, correct_ruleset, integrate
from policytree.dtree import DecisionTree, Node
from policytree.interop import detect_inter, extend_schema, union_schema
from policytree.intra import detect_intra
from policytree.model import ConflictPolicy, RuleSet
from policytree.oracle import endpoint_space, equivalence
from policytree.rdt import build_rdt
from policytree.ruleio import format_value, load_ruleset
from policytree.values import vs_compare


def table(rs: RuleSet, title: str) -> str:
    attrs = rs.schema.condition_attributes
    header = ["#", *(a.name for a in attrs), rs.schema.decision_attribute.name, "origin"]
    rows = [header]
    for r in rs.rules:
        rows.append(
            [
                str(r.id),
                *(format_value(r.condition[a.name], a) for a in attrs),
                r.action,
                r.origin or "-",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [title, "-" * len(title)]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def overlapping_siblings(t: DecisionTree, node: Node | None = None) -> int:
    """Pairs of sibling edges whose labels meet, on every path; 0 for a relevant tree."""
    node = node or t.root
    at_action = node.level == t.action_level
    attr = t.schema.decision_attribute if at_action else t.attribute_at(node.level)
    found = sum(
        vs_compare(a.label, b.label, attr.domain)[2]
        for i, a in enumerate(node.edges)
        for b in node.edges[i + 1 :]
    )
    if not at_action:
        found += sum(overlapping_siblings(t, e.child) for e in node.edges)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cases",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "cases",
        help="directory holding fw.rules and ids.rules",
    )
    parser.add_argument(
        "--policy",
        choices=[p.value for p in ConflictPolicy],
        default=ConflictPolicy.SPECIFICITY.value,
        help="conflict policy for tree construction",
    )
    args = parser.parse_args()
    policy = ConflictPolicy(args.policy)

    fw = load_ruleset(args.cases / "fw.rules")
    ids = load_ruleset(args.cases / "ids.rules")
    print(table(fw, f"{fw.component_name} (raw, {fw.component_kind.value})"))
    print()
    print(table(ids, f"{ids.component_name} (raw, {ids.component_kind.value})"))

    print("\nInternal anomalies")
    print("------------------")
    for rs in (fw, ids):
        found = detect_intra(rs)
        if not found:
            print(f"{rs.component_name}: none")
        for a in found:
            print(f"{rs.component_name}: {a.kind.value} r{a.earlier} -> r{a.later} [{a.severity.value}]")

    fw_fixed = correct_ruleset(fw, policy)
    print()
    print(table(fw_fixed, f"{fw.component_name} corrected on its own ({policy.value})"))

    union = union_schema(fw_fixed.schema, ids.schema)
    print("\nShared schema:", ", ".join(union.condition_names))
    p_ext = extend_schema(fw_fixed, union)
    f_ext = extend_schema(ids, union)

    print("\nCross-component anomalies (corrected FW vs raw IDS)")
    print("---------------------------------------------------")
    for a in detect_inter(p_ext, f_ext):
        print(
            f"{a.kind.value}: {fw.component_name} r{a.preceding_rule} vs "
            f"{ids.component_name} r{a.following_rule} [{a.severity.value}]"
        )

    merged = integrate(p_ext, f_ext)
    print()
    print(table(merged.ruleset, f"Global ordered set {merged.ruleset.component_name}"))

    pair = correct_pair(fw_fixed, ids, policy)
    print()
    print(table(pair.preceding, f"{fw.component_name} after pair repair"))
    print()
    print(table(pair.following, f"{ids.component_name} after pair repair"))

    print("\nVerification")
    print("------------")
    started = time.perf_counter()
    space = endpoint_space(merged.ruleset)
    mismatches = equivalence(pair.rdt.tree, merged.ruleset, policy, space)
    elapsed = time.perf_counter() - started
    print(f"packet space: {space.size():,} elementary cells")
    print(f"referee wall time: {elapsed:.1f}s", file=sys.stderr)
    print(f"tree vs ordered-rules referee ({policy.value}): {len(mismatches)} mismatches")
    print(f"relevancy violations in the global tree: {overlapping_siblings(pair.rdt.tree)}")

    residue = detect_inter(
        extend_schema(pair.preceding, union_schema(pair.preceding.schema, pair.following.schema)),
        extend_schema(pair.following, union_schema(pair.preceding.schema, pair.following.schema)),
    )
    print(f"cross-component anomalies after repair: {len(residue)}")
    return 0 if not mismatches and not residue else 1


if __name__ == "__main__":
    raise SystemExit(main())
