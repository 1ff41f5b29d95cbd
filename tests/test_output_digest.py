"""The bytes of reports and written rule files, pinned by one digest.

Every command that builds or flattens a tree runs on the case files and on
seeded random rule sets, under both policies and in both report formats.
The exit codes, the reports and the written files are hashed together,
with the case and temporary directories masked out of the reports.  A change to tree
building, merging or flattening that moves a single byte changes the digest.
"""

from __future__ import annotations

import hashlib
import random

from click.testing import CliRunner

from _corpus import random_component_pair, random_ruleset
from conftest import CASES
from policytree.cli import main
from policytree.ruleio import serialize_ruleset

#: Recorded with the tree built and merged over value sets, before cell masks.
DIGEST = "e0cd73db51eb567bfe3117502a7c2da73b16cc61caf06c168b5bf43ef130586c"

SEEDS = range(10)


def _write_inputs(tmp_path) -> tuple[list, list]:
    singles = [CASES / "fw.rules", CASES / "ids.rules", CASES / "empty.rules"]
    pairs = [(CASES / "fw.rules", CASES / "ids.rules")]
    for seed in SEEDS:
        rng = random.Random(seed)
        single = tmp_path / f"gen{seed}.rules"
        single.write_text(serialize_ruleset(random_ruleset(rng, max_rules=12)))
        singles.append(single)
        preceding, following = random_component_pair(rng)
        p_path, f_path = tmp_path / f"p{seed}.rules", tmp_path / f"s{seed}.rules"
        p_path.write_text(serialize_ruleset(preceding))
        f_path.write_text(serialize_ruleset(following))
        pairs.append((p_path, f_path))
    return singles, pairs


def test_reports_and_rule_files_keep_their_bytes(tmp_path):
    inputs = tmp_path / "in"
    inputs.mkdir()
    singles, pairs = _write_inputs(inputs)
    runner = CliRunner()
    digest = hashlib.sha256()

    def feed(*args, written=None) -> None:
        result = runner.invoke(main, [str(a) for a in args])
        digest.update(f"{result.exit_code}\n".encode())
        output = result.output.replace(str(tmp_path), "<tmp>").replace(str(CASES), "<cases>")
        digest.update(output.encode())
        if written is not None:  # a written file, or a directory of them
            files = sorted(written.iterdir()) if written.is_dir() else [written]
            for path in files:
                digest.update(path.name.encode() + b"\n" + path.read_bytes())

    for run, (policy, fmt) in enumerate(
        (policy, fmt) for policy in ("specificity", "first-match") for fmt in ("text", "json")
    ):
        flags = (f"--policy={policy}", f"--format={fmt}")
        out = tmp_path / f"out{run}"
        out.mkdir()
        for i, rules in enumerate(singles):
            corrected, dumped = out / f"c{i}.rules", out / f"d{i}.json"
            feed(*flags, "lint", rules)
            feed(*flags, "--dump-tree", "lint", rules)
            feed(*flags, "correct", rules)
            feed(*flags, "correct", rules, "-o", corrected, written=corrected)
            feed(*flags, "--dump-tree", "correct", rules, "-o", dumped, written=dumped)
        for i, (preceding, following) in enumerate(pairs):
            fixed = out / f"fix{i}"
            feed(*flags, "check-interop", preceding, following)
            feed(*flags, "--assume-relevant", "check-interop", preceding, following)
            feed(*flags, "--dump-tree", "fix-interop", preceding, following, "-o", fixed,
                 written=fixed)
    assert digest.hexdigest() == DIGEST
