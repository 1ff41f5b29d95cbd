"""End-to-end command-line behaviour: exit codes, report shape, determinism."""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import random
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import random_component_pair
from conftest import CASES
from policytree import cli, correction, interop, intra, model, rdt, relations
from policytree.cli import main
from policytree.ruleio import load_ruleset, ruleset_to_dict, serialize_ruleset

runner = CliRunner()


def run(*args: str):
    return runner.invoke(main, list(args))


@pytest.fixture(scope="module")
def fw_path(cases_dir):
    return str(cases_dir / "fw.rules")


@pytest.fixture(scope="module")
def ids_path(cases_dir):
    return str(cases_dir / "ids.rules")


@pytest.fixture(scope="module")
def fixed_fw(fw_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("fixed") / "fw-fixed.rules"
    result = run("correct", fw_path, "-o", str(out))
    assert result.exit_code == 1  # the input had findings; the file is still written
    return str(out)


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def test_lint_reports_the_five_findings(fw_path):
    result = run("lint", fw_path)
    assert result.exit_code == 1
    out = result.output
    assert out.startswith("policytree 0.1.0\ncommand: lint\npolicy: specificity-then-order\n")
    assert f"input: {fw_path} sha256=" in out
    assert "finding: shadowing earlier=r1 later=r2 [error]" in out
    assert "finding: redundancy earlier=r1 later=r3 [error]" in out
    assert "finding: shadowing earlier=r1 later=r4 [error]" in out
    assert "finding: generalization earlier=r2 later=r3 [warning]" in out
    assert "finding: correlation earlier=r3 later=r4 [warning]" in out
    assert out.count("finding:") == 5
    assert "verdict: 5 findings (3 errors, 2 warnings)" in out


def test_lint_clean_input_exits_zero(fixed_fw):
    result = run("lint", fixed_fw)
    assert result.exit_code == 0
    assert "verdict: clean" in result.output
    assert "finding:" not in result.output


def test_lint_json_round_trips(fw_path):
    result = run("--format", "json", "lint", fw_path)
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["command"] == "lint"
    assert payload["tool"] == "policytree"
    assert len(payload["findings"]) == 5
    assert payload["verdict"].startswith("5 findings")
    assert payload["inputs"][0]["path"] == fw_path
    assert len(payload["inputs"][0]["sha256"]) == 64


def test_reports_are_byte_deterministic(fw_path):
    for fmt in ("text", "json"):
        a = run("--format", fmt, "lint", fw_path)
        b = run("--format", fmt, "lint", fw_path)
        assert a.output == b.output


def test_repeated_runs_keep_no_objects(fw_path):
    # click.echo would cache every invocation's output stream for good
    for _ in range(20):
        run("lint", fw_path)
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(200):
        run("lint", fw_path)
    gc.collect()
    assert len(gc.get_objects()) - before < 50


def _fresh_cli_run(tmp_path, commands: list[list[str]]) -> str:
    """Import the CLI in a fresh interpreter and run each command on ``cases/``.

    Returns the line it prints: the exit codes, then which of the modules that
    the workload commands never need are loaded.
    """
    src = str(Path(cli.__file__).parents[1])
    fields = {"fw": CASES / "fw.rules", "ids": CASES / "ids.rules", "topo": CASES / "ingress.topo"}
    fields["out"] = tmp_path
    commands = [[arg.format(**fields) for arg in command] for command in commands]
    code = f"""import sys
sys.path[:0] = [{src!r}]
import policytree.cli
from click.testing import CliRunner
codes = [CliRunner().invoke(policytree.cli.main, c).exit_code for c in {commands!r}]
unneeded = ("numpy", "json", "policytree.oracle", "policytree.topology")
print(codes, [m for m in unneeded if m in sys.modules])
"""
    probe = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return probe.stdout


def test_workload_commands_load_only_what_they_run(tmp_path):
    # the referee, json and the topology reader load only with eval, JSON files and check-topology
    commands = [
        ["lint", "{fw}"],
        ["correct", "{fw}", "-o", "{out}/fixed.rules"],
        ["check-interop", "{out}/fixed.rules", "{ids}"],
        ["fix-interop", "{fw}", "{ids}", "-o", "{out}"],
    ]
    assert _fresh_cli_run(tmp_path, commands) == "[1, 1, 1, 1] []\n"


def test_commands_that_load_more_import_it_as_they_run(tmp_path):
    commands = [["eval", "{fw}", "--packet", _PKT], ["check-topology", "{topo}"]]
    assert _fresh_cli_run(tmp_path, commands) == (
        "[0, 1] ['policytree.oracle', 'policytree.topology']\n"
    )


#: sha256 of ``policytree --help`` and each subcommand's ``--help``, in name order.
HELP_DIGEST = "638f7133d14a2dc4e2a17d6f59a6f50187f17358602e292d5043711bc260f99f"


def test_help_keeps_its_bytes():
    digest = hashlib.sha256()
    for command in ([], *([name] for name in sorted(main.commands))):
        result = runner.invoke(
            main, [*command, "--help"], prog_name="policytree", terminal_width=80
        )
        assert result.exit_code == 0
        digest.update(result.output.encode())
    assert digest.hexdigest() == HELP_DIGEST


def test_dump_tree_flag(fw_path):
    result = run("--dump-tree", "lint", fw_path)
    assert "tree:" in result.output
    assert "tree FW" in result.output
    assert "protocol = TCP" in result.output


def test_json_rule_files_load(fw, tmp_path):
    p = tmp_path / "fw.json"
    p.write_text(json.dumps(ruleset_to_dict(fw)))
    result = run("lint", str(p))
    assert result.exit_code == 1
    assert result.output.count("finding:") == 5


# ---------------------------------------------------------------------------
# correct
# ---------------------------------------------------------------------------


def test_correct_writes_a_relevant_ruleset(fixed_fw):
    rs = load_ruleset(fixed_fw)
    assert len(rs.rules) == 5
    assert [r.origin for r in rs.rules] == ["FW:r1", "FW:r2", "FW:r3", "FW:r3", "FW:r4"]
    again = run("lint", fixed_fw)
    assert again.exit_code == 0


def test_correct_without_output_prints_rules(fw_path):
    result = run("correct", fw_path)
    assert result.exit_code == 1
    assert result.output.startswith("component FW\nkind filtering\n")
    assert " | deny | FW:r1" in result.output


def test_correct_first_match_collapses(fw_path, tmp_path):
    out = tmp_path / "fm.rules"
    result = run("--policy", "first-match", "correct", fw_path, "-o", str(out))
    assert result.exit_code == 1
    assert len(load_ruleset(out).rules) == 1


def test_correct_clean_input_exits_zero(fixed_fw, tmp_path):
    result = run("correct", fixed_fw, "-o", str(tmp_path / "again.rules"))
    assert result.exit_code == 0


@pytest.mark.parametrize("policy", ["specificity", "first-match"])
def test_correct_dump_tree_is_the_tree_of_the_output(fw_path, tmp_path, policy):
    def tree_block(output: str) -> str:
        return output[output.index("tree:\n") :]

    linted = run("--policy", policy, "--dump-tree", "lint", fw_path)
    a, b = tmp_path / "a.rules", tmp_path / "b.rules"
    dumped = run("--policy", policy, "--dump-tree", "correct", fw_path, "-o", str(a))
    run("--policy", policy, "correct", fw_path, "-o", str(b))
    assert tree_block(dumped.output) == tree_block(linted.output)
    assert a.read_bytes() == b.read_bytes()


#: sha256 of the exit codes, reports and written files of ``--dump-tree
#: correct -o`` on fw.rules under both policies and both formats, recorded
#: when the tree was built twice (once to correct, once to dump).
DUMP_DIGEST = "022de2ac4fb60879140846e6cdd64b1712c6d28bc00b08f36438ce76c70295d3"


def test_correct_dump_tree_builds_the_tree_once(fw_path, tmp_path, monkeypatch):
    builds = []
    for module in (cli, correction):

        def counted(*args, _build=module.build_rdt, **kwargs):
            builds.append(args[0].component_name)
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, "build_rdt", counted)
    out = tmp_path / "fixed.rules"
    digest = hashlib.sha256()
    for policy in ("specificity", "first-match"):
        for fmt in ("text", "json"):
            builds.clear()
            result = run(
                "--policy", policy, "--format", fmt, "--dump-tree", "correct", fw_path, "-o", str(out)
            )
            assert builds == ["FW"]
            digest.update(f"{result.exit_code}\n".encode())
            output = result.output.replace(str(out), "<out>").replace(str(CASES), "<cases>")
            digest.update(output.encode())
            digest.update(out.read_bytes())
    assert digest.hexdigest() == DUMP_DIGEST


def test_fix_interop_screens_each_input_once_and_restates_the_pair_once(
    fw_path, ids_path, tmp_path, monkeypatch
):
    screens, restated = [], []
    importers = [
        m
        for m in list(sys.modules.values())
        if m is not relations and getattr(m, "relation_sets", None) is relations.relation_sets
    ]
    for module in importers:

        def screen(a, b, schema, _screen=module.relation_sets):
            if a is b:
                screens.append(len(a))
            return _screen(a, b, schema)

        monkeypatch.setattr(module, "relation_sets", screen)
    for module in (cli, correction):

        def extend(rs, target, _extend=module.extend_schema):
            restated.append(rs.component_name)
            return _extend(rs, target)

        monkeypatch.setattr(module, "extend_schema", extend)
    p, f = tmp_path / "p.rules", tmp_path / "f.rules"
    for rs, path in zip(random_component_pair(random.Random(3)), (p, f)):
        path.write_text(serialize_ruleset(rs))
    for pair in ((fw_path, ids_path), (str(p), str(f))):
        screens.clear()
        restated.clear()
        result = run("fix-interop", *pair, "-o", str(tmp_path / "out"))
        assert result.exit_code in (0, 1), result.output
        assert len(screens) == 2
        assert len(restated) == 2


# ---------------------------------------------------------------------------
# check-interop / fix-interop
# ---------------------------------------------------------------------------


def test_check_interop_flags_the_pair(fixed_fw, ids_path):
    result = run("check-interop", fixed_fw, ids_path)
    assert result.exit_code == 1
    out = result.output
    assert "finding: inter-correlation following=IDS:r1 preceding=FW:r2 [error]" in out
    assert "finding: inter-spuriousness following=IDS:r2 preceding=FW:r5 [error]" in out
    assert out.count("finding:") == 2
    assert "verdict: not interoperable (2 findings (2 errors, 0 warnings))" in out


def test_check_interop_gates_on_overlapping_input(fw_path, ids_path):
    result = run("check-interop", fw_path, ids_path)
    assert result.exit_code == 2
    assert "error:" in result.output
    assert "overlap" in result.output
    forced = run("--assume-relevant", "check-interop", fw_path, ids_path)
    assert forced.exit_code == 1


def test_fix_interop_repairs_the_pair(fw_path, ids_path, tmp_path):
    result = run("fix-interop", fw_path, ids_path, "-o", str(tmp_path))
    assert result.exit_code == 1
    out = result.output
    assert out.count("finding:") == 7  # 5 internal to FW, 2 across the pair
    assert "component=FW" in out and "role=preceding" in out
    assert "verdict: 7 findings (5 errors, 2 warnings)" in out

    fw_fixed = tmp_path / "FW-corrected.rules"
    ids_fixed = tmp_path / "IDS-corrected.rules"
    assert f"output: {fw_fixed}" in out
    assert f"output: {ids_fixed}" in out
    assert len(load_ruleset(fw_fixed).rules) == 9
    assert len(load_ruleset(ids_fixed).rules) == 3
    # origins name raw input rules even though FW was self-corrected first
    assert {r.origin.split(":")[0] for r in load_ruleset(fw_fixed).rules} == {"FW"}

    recheck = run("check-interop", str(fw_fixed), str(ids_fixed))
    assert recheck.exit_code == 0
    assert "verdict: interoperable" in recheck.output


def test_fix_interop_is_idempotent_and_deterministic(fw_path, ids_path, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    run("fix-interop", fw_path, ids_path, "-o", str(first))
    run("fix-interop", fw_path, ids_path, "-o", str(second))
    for name in ("FW-corrected.rules", "IDS-corrected.rules"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    third = tmp_path / "c"
    result = run(
        "fix-interop",
        str(first / "FW-corrected.rules"),
        str(first / "IDS-corrected.rules"),
        "-o",
        str(third),
    )
    assert result.exit_code == 0
    assert "verdict: already interoperable" in result.output


# A filtering follower, and an alerting one that sees only the firewall's attributes
_FW2 = b"""component FW2
kind filtering
attr protocol protocol-enum TCP,UDP,ICMP
attr dst_addr ipv4-range 0.0.0.0-255.255.255.255
attr dst_port port-range 0-65535
attr app label-enum http,ssh
decision action accept,deny
rules
1 | TCP | 129.170.20.20-129.170.20.60 | 22 | ssh | deny
2 | TCP | 129.170.20.61-129.170.20.100 | any | http | accept
3 | UDP | any | any | any | deny
"""

_IDS_OF_FW_ATTRIBUTES = b"""component IDS3
kind alerting
attr protocol protocol-enum TCP,UDP,ICMP
attr src_addr ipv4-range 140.192.0.0-140.192.255.255
attr dst_addr ipv4-range 0.0.0.0-255.255.255.255
attr dst_port port-range 0-65535
decision action reject,pass
rules
1 | TCP | 140.192.10.30-140.192.10.80 | 129.170.20.25-129.170.20.60 | 80 | reject
2 | TCP | 140.192.10.81-140.192.10.95 | 129.170.20.61-129.170.20.90 | any | pass
"""

#: Recorded before the follower's projection was chosen by its designated attribute alone.
PAIR_REPAIR_DIGEST = "5e9d9bd200926ba754727022641f7951883ed268896b25644cca64098fd64e86"


def test_pair_repairs_keep_their_bytes(tmp_path):
    # the follower keeps what is specific in its own attack attribute (IDS), or
    # drops what depends on attributes it cannot see (FW2, IDS3)
    followers = [CASES / "ids.rules"]
    for name, text in (("fw2.rules", _FW2), ("ids3.rules", _IDS_OF_FW_ATTRIBUTES)):
        followers.append(tmp_path / name)
        followers[-1].write_bytes(text)
    digest = hashlib.sha256()
    for i, following in enumerate(followers):
        for policy in ("specificity", "first-match"):
            for fmt in ("text", "json"):
                out = tmp_path / f"out-{i}-{policy}-{fmt}"
                result = run(
                    f"--policy={policy}", f"--format={fmt}", "fix-interop",
                    str(CASES / "fw.rules"), str(following), "-o", str(out),
                )
                digest.update(f"{result.exit_code}\n".encode())
                output = result.output.replace(str(tmp_path), "<tmp>")
                digest.update(output.replace(str(CASES), "<cases>").encode())
                for path in sorted(out.iterdir()):
                    digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == PAIR_REPAIR_DIGEST


def _one_error_line(result) -> None:
    assert result.exit_code == 2
    assert result.output.startswith("error: ")
    assert result.output.count("\n") == 1


def test_fix_interop_rejects_two_components_of_one_name(ids_path, tmp_path):
    renamed = tmp_path / "fw.rules"
    renamed.write_text(
        (CASES / "fw.rules").read_text().replace("component FW", "component IDS")
    )
    out = tmp_path / "out"
    result = run("fix-interop", str(renamed), ids_path, "-o", str(out))
    _one_error_line(result)
    assert "'IDS'" in result.output
    assert not out.exists()


def test_fix_interop_leaves_no_file_when_a_write_fails(fw_path, ids_path, tmp_path):
    (tmp_path / "IDS-corrected.rules").mkdir()  # the second output cannot be written
    result = run("fix-interop", fw_path, ids_path, "-o", str(tmp_path))
    _one_error_line(result)
    assert [p.name for p in tmp_path.iterdir()] == ["IDS-corrected.rules"]


def test_fix_interop_writes_json_for_json_inputs(fw, ids, tmp_path):
    inputs = []
    for rs, name in ((fw, "fw.json"), (ids, "ids.json")):
        inputs.append(tmp_path / name)
        inputs[-1].write_text(json.dumps(ruleset_to_dict(rs)))
    out = tmp_path / "out"
    result = run("fix-interop", *map(str, inputs), "-o", str(out))
    assert result.exit_code == 1
    written = sorted(p.name for p in out.iterdir())
    assert written == ["FW-corrected.json", "IDS-corrected.json"]
    for name in written:
        json.loads((out / name).read_text())
        assert load_ruleset(out / name).rules


@pytest.mark.parametrize("suffix", [".rules", ".json"])
@pytest.mark.parametrize("relative", [True, False])
def test_fix_interop_keeps_its_files_in_the_output_dir(fw, ids_path, tmp_path, suffix, relative):
    # the output file is named after the component, which must not lead out of -o DIR
    name = "../escaped" if relative else str(tmp_path / "escaped")
    path = tmp_path / f"fw{suffix}"
    if suffix == ".json":
        path.write_text(json.dumps({**ruleset_to_dict(fw), "component": name}))
    else:
        path.write_text(_FW_TEXT.decode().replace("component FW", f"component {name}"))
    out = tmp_path / "out"
    result = run("--assume-relevant", "fix-interop", str(path), ids_path, "-o", str(out))
    _one_error_line(result)
    assert f"component name {name!r} is not a single path component" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    assert run("lint", str(path)).exit_code == 1  # other commands still read the name


def _ids_dict(component: str = "IDS", origin: str | None = None) -> dict:
    """cases/ids.rules with rule 1 open to every attack class, so that its
    regions reach the firewall's corrected file."""
    d = ruleset_to_dict(load_ruleset(CASES / "ids.rules"))
    d["component"] = component
    d["rules"][0]["values"]["attack_class"] = "any"
    for rule in d["rules"]:
        rule["origin"] = component if origin is None else origin
    return d


_LABEL_WITH_COLUMN = b"""component X
kind filtering
attr app label-enum x|y,z
decision action accept,deny
rules
1 | z | deny
2 | any | accept
"""


# Each of these names would be written into a rule line, where '|' ends a
# column, '#' starts a comment and a line break ends the line.
@pytest.mark.parametrize(
    "name, content, hint",
    [
        ("in.rules", _LABEL_WITH_COLUMN, "label of 'app' 'x|y' holds '|'"),
        ("in.json", _ids_dict(component="A|B"), "component 'A|B' holds '|'"),
        ("in.json", _ids_dict(origin="up | accept"), "rule 1 origin 'up | accept' holds '|'"),
        ("in.json", _ids_dict(origin="up2 # c"), "rule 1 origin 'up2 # c' holds '#'"),
        ("in.json", _ids_dict(origin="up\u2028x"), "rule 1 origin 'up\\u2028x' holds '\\u2028'"),
    ],
)
def test_names_a_rule_line_cannot_hold_are_input_errors(fixed_fw, tmp_path, name, content, hint):
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    out = tmp_path / "out"
    if name.endswith(".json"):
        result = run("fix-interop", fixed_fw, str(path), "-o", str(out))
    else:
        result = run("correct", str(path), "-o", str(out))
    _one_error_line(result)
    assert hint in result.output
    assert not out.exists()


# ---------------------------------------------------------------------------
# check-topology
# ---------------------------------------------------------------------------


def test_topology_flags_raw_components(cases_dir):
    result = run("check-topology", str(cases_dir / "ingress.topo"))
    assert result.exit_code == 1
    assert "finding: component-not-relevant component=FW [error]" in result.output


def test_topology_assume_relevant_checks_pairs_anyway(cases_dir):
    result = run("--assume-relevant", "check-topology", str(cases_dir / "ingress.topo"))
    assert result.exit_code == 1
    assert "component-not-relevant" not in result.output
    assert "path=ingress" in result.output


def test_topology_positioning_violation(cases_dir):
    result = run("check-topology", str(cases_dir / "bad-order.topo"))
    assert result.exit_code == 1
    assert (
        "finding: mis-positioning alerting=IDS2 filtering=FW2 path=egress [error]"
        in result.output
    )


def test_topology_clean_after_repair(fw_path, ids_path, tmp_path):
    run("fix-interop", fw_path, ids_path, "-o", str(tmp_path))
    topo = tmp_path / "site.topo"
    topo.write_text(
        "component FW filtering FW-corrected.rules\n"
        "component IDS alerting IDS-corrected.rules\n"
        "path ingress FW IDS\n"
    )
    result = run("check-topology", str(topo))
    assert result.exit_code == 0
    assert "verdict: clean" in result.output


def test_topology_rejects_a_kind_its_rule_file_contradicts(tmp_path):
    shutil.copy(CASES / "fw.rules", tmp_path / "fw.rules")  # declares kind filtering
    topo = tmp_path / "site.topo"
    topo.write_text("component FW alerting fw.rules\n")
    result = run("check-topology", str(topo))
    _one_error_line(result)
    assert "filtering" in result.output and "alerting" in result.output

    # two components may share one rule file under other names
    topo.write_text("component A filtering fw.rules\ncomponent B filtering fw.rules\n")
    result = run("check-topology", str(topo))
    assert result.exit_code == 1
    assert "finding: component-not-relevant component=A [error]" in result.output


def test_topology_names_findings_by_component_and_reads_a_shared_file_once(tmp_path):
    shutil.copy(CASES / "fw.rules", tmp_path / "fw.rules")  # declares component FW
    topo = tmp_path / "site.topo"
    topo.write_text(
        "component A filtering fw.rules\ncomponent B filtering fw.rules\npath p A B\n"
    )
    result = run("--assume-relevant", "check-topology", str(topo))
    assert result.exit_code == 1
    findings = [line for line in result.output.splitlines() if line.startswith("finding:")]
    assert findings
    assert all("preceding=A:r" in line and "following=B:r" in line for line in findings)
    assert "FW:r" not in result.output
    assert result.output.count("fw.rules sha256=") == 1


#: Recorded before the findings were built once in the command that names them.
TOPOLOGY_DIGEST = "c715eb14ab7a106d0abc024f24dcdef7f886168a3ad3002b8578ad2827d79411"


def test_topology_reports_keep_their_bytes(tmp_path):
    # three members on one path, an alerting member ahead of filtering ones on
    # another, a shared rule file, a rule-less inline member and a relevant file
    for name in ("fw.rules", "ids.rules", "empty.rules"):
        shutil.copy(CASES / name, tmp_path / name)
    assert run("correct", str(CASES / "fw.rules"), "-o", str(tmp_path / "fixed.rules")).exit_code == 1
    site = tmp_path / "site.topo"
    site.write_text(
        "component FW filtering fixed.rules\n"
        "component RAW filtering fw.rules\n"
        "component EDGE filtering empty.rules\n"
        "component IDS alerting ids.rules\n"
        "path inbound EDGE FW IDS\n"
        "path raw RAW IDS\n"
        "path backwards IDS RAW EDGE SENSOR:alerting\n"
    )
    digest = hashlib.sha256()
    for topo in (CASES / "ingress.topo", site):
        for policy in ("specificity", "first-match"):
            for fmt in ("text", "json"):
                for relevance in ([], ["--assume-relevant"]):
                    result = run(
                        f"--policy={policy}", f"--format={fmt}", *relevance, "check-topology", str(topo)
                    )
                    digest.update(f"{result.exit_code}\n".encode())
                    output = result.output.replace(str(tmp_path), "<tmp>")
                    digest.update(output.replace(str(CASES), "<cases>").encode())
    assert digest.hexdigest() == TOPOLOGY_DIGEST


def test_topology_parse_error(tmp_path):
    bad = tmp_path / "bad.topo"
    bad.write_text("component X router\n")
    result = run("check-topology", str(bad))
    assert result.exit_code == 2
    assert "unknown kind" in result.output


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_PKT = (
    "protocol=TCP,src_addr=140.192.10.30,src_port=1234,"
    "dst_addr=129.170.20.40,dst_port=80"
)


def test_eval_first_match(fw_path):
    result = run("eval", fw_path, "--packet", _PKT)
    assert result.exit_code == 0
    assert "decision: deny" in result.output
    assert "rule: r1" in result.output


def test_eval_owner_capture(fw_path):
    result = run("eval", fw_path, "--packet", _PKT, "--semantics", "owner-capture")
    assert result.exit_code == 0
    assert "decision: accept" in result.output
    assert "rule: r2" in result.output


def test_eval_origin_traces_to_the_input_rule(fixed_fw):
    result = run("eval", fixed_fw, "--packet", _PKT)
    assert result.exit_code == 0
    assert "decision: accept" in result.output
    assert "origin: FW:r2" in result.output


def test_eval_unmatched_packet(fw_path):
    icmp = _PKT.replace("protocol=TCP", "protocol=ICMP")
    result = run("eval", fw_path, "--packet", icmp)
    assert result.exit_code == 1
    assert "finding: unmatched-packet [error]" in result.output
    assert "decision: no-match" in result.output


@pytest.mark.parametrize(
    "packet, hint",
    [
        ("protocol=TCP", "missing attributes"),
        (_PKT + ",extra=1", "bad --packet"),
        (_PKT.replace("dst_port=80", "dst_port=eighty"), "bad --packet"),
        (_PKT.replace("src_addr=140.192.10.30", "src_addr=10.0.0.1"), "outside the declared domain"),
        (_PKT.replace("dst_port=80", "dst_port"), "malformed packet field"),
        (
            _PKT.replace("protocol=TCP", "protocol=TCP,protocol=UDP"),
            "bad --packet: duplicate attribute 'protocol'",
        ),
        (_PKT.replace("dst_port=80", "dst_port=8_0"), "bad --packet: dst_port: bad number '8_0'"),
        (_PKT.replace("dst_port=80", "dst_port=\u0668\u0660"), "bad --packet: dst_port: bad number"),
        (
            _PKT.replace("src_addr=140.192.10.30", "src_addr=140.192.10.0/24"),
            "bad --packet: src_addr: a packet needs a single address",
        ),
    ],
)
def test_eval_rejects_bad_packets(fw_path, packet, hint):
    result = run("eval", fw_path, "--packet", packet)
    assert result.exit_code == 2
    assert hint in result.output


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------


def test_missing_file_is_an_input_error(tmp_path):
    result = run("lint", str(tmp_path / "nope.rules"))
    assert result.exit_code == 2
    assert result.output.startswith("error:")


@pytest.mark.parametrize(
    "command, output",
    [
        ("correct", "no/such/dir/x.rules"),  # the directory does not exist
        ("fix-interop", "taken"),  # a file stands where the directory should be
    ],
)
def test_unwritable_output_is_an_input_error(fw_path, ids_path, tmp_path, command, output):
    (tmp_path / "taken").write_text("")
    inputs = [fw_path] if command == "correct" else [fw_path, ids_path]
    result = run(command, *inputs, "-o", str(tmp_path / output))
    assert result.exit_code == 2
    assert result.output.startswith("error: ")
    assert result.output.count("\n") == 1
    assert str(tmp_path) in result.output


def test_malformed_rules_file_reports_location(tmp_path):
    bad = tmp_path / "bad.rules"
    bad.write_text("component X\nkind filtering\nwat\n")
    result = run("lint", str(bad))
    assert result.exit_code == 2
    assert "bad.rules:3" in result.output


def test_malformed_json_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run("lint", str(bad))
    assert result.exit_code == 2


def _fw_dict(**changes) -> dict:
    d = ruleset_to_dict(load_ruleset(CASES / "fw.rules"))
    d.update(changes)
    return d


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def _first_rule(change) -> dict:
    d = _fw_dict()
    change(d["rules"][0])
    return d


def _edited(change) -> dict:
    d = _fw_dict()
    change(d)
    return d


_FW_TEXT = (CASES / "fw.rules").read_bytes()
_FW_JSON = json.dumps(_fw_dict()).encode()


@pytest.mark.parametrize(
    "name, content, hint",
    [
        ("bad.rules", b"component FW\nkind filtering\n\xff\n", "not UTF-8 text"),
        ("bad.topo", b"component FW filtering fw.rules \xe9\n", "not UTF-8 text"),
        (
            "bad.topo",
            b"component FW filtering fw\x00.rules\n",
            "bad.topo:1: rule file 'fw\\x00.rules' holds control character '\\x00'",
        ),
        ("bad.json", _without(_fw_dict(), "kind"), "missing key 'kind'"),
        ("bad.json", _fw_dict(rules=5), "bad JSON rule file"),
        ("bad.json", [_fw_dict()], "bad JSON rule file"),
        (
            "bad.json",
            _first_rule(lambda r: r["values"].update(protocol="SCTP")),
            "outside the declared domain",
        ),
        ("bad.json", _first_rule(lambda r: r.update(id="one")), "id must be an integer"),
        pytest.param(
            "bad.json", b"[" * 5000 + b"]" * 5000, "bad JSON rule file: nested too deeply", id="deep-json"
        ),
        # one value per declared attribute: an undeclared one is not dropped
        (
            "bad.json",
            _first_rule(lambda r: r["values"].update(extra="x")),
            "rule 1: value for undeclared attribute 'extra'",
        ),
        ("bad.json", _first_rule(lambda r: r.update(action=["deny"])), "rule 1: action must be a string"),
        # ids and actions of a JSON file are checked by RuleSet itself
        (
            "bad.json",
            _edited(lambda d: d["rules"][1].update(id=7)),
            "rule ids must be consecutive from 1; found 7 at position 2",
        ),
        (
            "bad.json",
            _edited(lambda d: d["rules"][2].update(action="drop")),
            "rule 3: action 'drop' not in decision domain",
        ),
        # a bad value names its rule, as a bad action does
        (
            "fw.json",
            _edited(lambda d: d["rules"][2]["values"].update(src_port="8_0")),
            "fw.json: bad JSON rule file: rule 3: src_port: bad number '8_0'",
        ),
        # a port or rule id that int() would read: 1_0 is not 10, an Arabic-Indic 1 is not 1
        ("bad.rules", _FW_TEXT.replace(b"| any | deny", b"| 8_0 | deny", 1), "bad number '8_0'"),
        ("bad.rules", _FW_TEXT.replace(b"\n1 |", "\n\u0661 |".encode()), "bad rule id"),
        # JSON strings go into header lines, where '#' and line breaks change their meaning
        (
            "bad.json",
            _edited(lambda d: d["attributes"][0].update(domain="TCP,UDP,ICMP # note")),
            "attributes[0].domain holds '#'",
        ),
        ("bad.json", _edited(lambda d: d.update(component="FW\nkind alerting")), "component holds"),
        ("bad.json", _edited(lambda d: d["decision"].update(labels=["accept,deny"])), "labels[0]"),
        (
            "bad.topo",
            b"component FW filtering fw.rules\n\ncomponent FW alerting ids.rules\n",
            "bad.topo:3: component 'FW' already declared on line 1",
        ),
        (
            "bad.topo",
            b"path ingress FW:alerting IDS:alerting\ncomponent FW filtering fw.rules\n",
            "bad.topo:2: component 'FW' is filtering here but alerting on line 1",
        ),
        # a /nn prefix is a block: its host bits must be clear, its length 0-32
        (
            "bad.rules",
            _FW_TEXT.replace(b"129.170.20.20-129.170.20.100", b"129.170.20.20/24", 1),
            "host bits set in '129.170.20.20/24'",
        ),
        (
            "bad.rules",
            _FW_TEXT.replace(b"129.170.20.20-129.170.20.100", b"129.170.20.0/33", 1),
            "bad prefix length in '129.170.20.0/33'",
        ),
        (
            "bad.rules",
            _FW_TEXT.replace(b"129.170.20.20-129.170.20.100", b"129.170.20.0/junk", 1),
            "bad prefix length in '129.170.20.0/junk'",
        ),
        # names are printed as they are, so a control character would be a terminal escape
        (
            "bad.rules",
            _FW_TEXT.replace(b"component FW", b"component F\x1b[31mW"),
            "component 'F\\x1b[31mW' holds control character '\\x1b'",
        ),
        (
            "bad.rules",
            _FW_TEXT.replace(b"attr src_port", b"attr src\x07port"),
            "attribute name 'src\\x07port' holds control character '\\x07'",
        ),
        (
            "bad.rules",
            _FW_TEXT.replace(b"TCP,UDP,ICMP", b"TCP,UDP,IC\x7fMP"),
            "label of 'protocol' 'IC\\x7fMP' holds control character '\\x7f'",
        ),
        (
            "bad.rules",
            _FW_TEXT.replace(b"accept,deny", b"accept,deny,\x01"),
            "decision label '\\x01' holds control character '\\x01'",
        ),
        (
            "bad.rules",
            _FW_TEXT.replace(b"| any | deny\n", b"| any | deny | X\x1b[0m\n", 1),
            "origin 'X\\x1b[0m' holds control character '\\x1b'",
        ),
        ("bad.json", _fw_dict(component="F\x1b[31mW"), "component holds '\\x1b'"),
        (
            "bad.json",
            _edited(lambda d: d["rules"][0].update(origin="\x9b\x1b")),
            "rule 1 origin '\\x9b\\x1b' holds control character '\\x1b'",
        ),
        (
            "bad.topo",
            b"component F\x1bW filtering fw.rules\n",
            "bad.topo:1: name 'F\\x1bW' holds control character '\\x1b'",
        ),
        (
            "bad.topo",
            b"path in\x7fgress FW:filtering IDS:alerting\n",
            "name 'in\\x7fgress' holds control character '\\x7f'",
        ),
        ("bad.topo", b"path ingress F\x1bW:filtering\n", "name 'F\\x1bW' holds"),
        (
            "bad.topo",
            b"component FW filtering fw\x1b[31m.rules\n",
            "bad.topo:1: rule file 'fw\\x1b[31m.rules' holds control character '\\x1b'",
        ),
        # a header line given twice is an error, not an override
        (
            "bad.rules",
            _FW_TEXT.replace(b"kind filtering\n", b"kind filtering\ncomponent B\n"),
            "bad.rules:4: component already given on line 2",
        ),
        (
            "bad.rules",
            _FW_TEXT.replace(b"rules\n1 |", b"kind alerting\nrules\n1 |"),
            "bad.rules:10: kind already given on line 3",
        ),
        (
            "bad.rules",
            _FW_TEXT.replace(b"rules\n1 |", b"decision action accept,deny\nrules\n1 |"),
            "bad.rules:10: decision already given on line 9",
        ),
        # a label spelled as the wildcard would be written back as, and read as, any label
        (
            "bad.rules",
            _FW_TEXT.replace(b"TCP,UDP,ICMP", b"any,TCP"),
            "bad.rules:4: 'any' is reserved and cannot be declared",
        ),
        (
            "bad.json",
            _edited(lambda d: d["attributes"][0].update(domain="TCP,All")),
            "'All' is reserved and cannot be declared",
        ),
        # a JSON key given twice is an error, not an override
        (
            "bad.json",
            _FW_JSON.replace(b'"component": "FW"', b'"component": "FW", "component": "XX"'),
            "bad JSON rule file: repeated key 'component'",
        ),
        (
            "bad.json",
            _FW_JSON.replace(b'"dst_port": "any"', b'"dst_port": "any", "dst_port": "80"', 1),
            "bad JSON rule file: repeated key 'dst_port'",
        ),
        (
            "bad.topo",
            b"component FW filtering fw.rules\ncomponent IDS alerting ids.rules\n"
            b"path ingress FW IDS\npath ingress IDS FW\n",
            "bad.topo:4: path 'ingress' already declared on line 3",
        ),
        (
            "bad.topo",
            b"component FW filtering fw.rules\ncomponent IDS alerting ids.rules\n"
            b"path p FW FW:filtering IDS\n",
            "bad.topo:3: path 'p' names 'FW' twice",
        ),
        # a path member reads name:kind, so no path could name this component
        ("bad.topo", b"component FW:x filtering fw.rules\n", "bad.topo:1: name 'FW:x' holds ':'"),
        # header mistakes that only the whole schema shows still name the file
        (
            "bad.rules",
            _FW_TEXT.replace(b"attr dst_port", b"attr action"),
            "bad.rules: attribute names must be unique",
        ),
        (
            "bad.rules",
            _FW_TEXT.replace(b"accept,deny", b"accept,alert,deny"),
            "bad.rules: decision domain must be drawn from",
        ),
    ],
)
def test_bad_files_are_input_errors(tmp_path, name, content, hint):
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    command = "check-topology" if name.endswith(".topo") else "lint"
    result = run(command, str(path))
    assert result.exit_code == 2
    assert result.output.startswith("error: ")
    assert str(tmp_path) in result.output
    assert result.output.count("\n") == 1
    assert hint in result.output


# JSON header defects: the header is read as text, but the text's lines are not the file's
@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda d: d["attributes"][0].update(domain="TCP,All"), "'All' is reserved"),
        (lambda d: d.update(kind="firewall"), "kind must be filtering or alerting"),
        (lambda d: d["attributes"][1].update(kind="ipv6"), "unknown attribute kind 'ipv6'"),
        (lambda d: d["attributes"][1].update(name="protocol"), "duplicate attribute 'protocol'"),
        (lambda d: d.update(component="A|B"), "component 'A|B' holds '|'"),
        (lambda d: d["decision"].update(labels=["accept", "alert"]), "decision domain must be"),
    ],
)
def test_json_errors_name_no_line(tmp_path, change, reason):
    path = tmp_path / "fw.json"
    path.write_text(json.dumps(_edited(change), indent=2))
    result = run("lint", str(path))
    assert result.exit_code == 2
    assert result.output.startswith(f"error: {path}: bad JSON rule file: {reason}")
    assert re.search(r"\.json:\d+:", result.output) is None


# (rule index, field, value written, the reason both formats give)
_RULE_DEFECTS = [
    (1, "id", 7, "rule ids must be consecutive from 1; found 7 at position 2"),
    (2, "action", "drop", "action 'drop' not in decision domain"),
    (0, "src_addr", "10.0.0.1", "src_addr: value '10.0.0.1' outside the declared domain"),
    (3, "src_port", "8_0", "src_port: bad number '8_0'"),
]


@pytest.mark.parametrize("index, field, value, reason", _RULE_DEFECTS)
def test_both_formats_give_one_reason_per_rule_defect(tmp_path, index, field, value, reason):
    d = _fw_dict()
    rule = d["rules"][index]
    (rule if field in rule else rule["values"])[field] = value
    header, _ = _FW_TEXT.decode().split("\nrules\n")  # rule 1 is on line 11
    rows = (" | ".join(map(str, [r["id"], *r["values"].values(), r["action"]])) for r in d["rules"])
    text, mirror = tmp_path / "fw.rules", tmp_path / "fw.json"
    text.write_text(header + "\nrules\n" + "\n".join(rows) + "\n")
    mirror.write_text(json.dumps(d))
    assert run("lint", str(text)).output == f"error: {text}:{11 + index}: {reason}\n"
    expected = f"error: {mirror}: bad JSON rule file: rule {rule['id']}: {reason}\n"
    assert run("lint", str(mirror)).output == expected


# ---------------------------------------------------------------------------
# anomaly kinds and captures come from the relation bitsets
# ---------------------------------------------------------------------------


def _case_runs(out) -> list:
    """Each command over ``cases/`` under both policies: its exit code, report and files."""
    fw, ids = str(CASES / "fw.rules"), str(CASES / "ids.rules")
    commands = [
        *(("lint", str(path)) for path in sorted(CASES.glob("*.rules"))),
        ("correct", fw, "-o", str(out / "fw-corrected.rules")),
        ("fix-interop", fw, ids, "-o", str(out)),
        ("check-interop", fw, ids),
        ("check-interop", ids, fw),
        *(("check-topology", str(path)) for path in sorted(CASES.glob("*.topo"))),
    ]
    runs = []
    for policy in ("first-match", "specificity"):
        for command in commands:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            result = run("--policy", policy, *command)
            written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((policy, command, result.exit_code, result.output, written))
    return runs


def test_no_command_calls_scalar_relate(tmp_path, monkeypatch):
    expected = _case_runs(tmp_path / "out")

    def refuse(*args):
        raise AssertionError("scalar relate called")

    for module in (intra, interop, rdt):
        monkeypatch.setattr(module, "relate", refuse)
    assert _case_runs(tmp_path / "out") == expected


def test_no_command_checks_a_rule_set_twice(tmp_path, monkeypatch):
    """Text files are checked as they are read, and what the library makes of
    checked sets is valid by construction, so no command runs RuleSet's check."""
    expected = _case_runs(tmp_path / "out")

    def refuse(*args):
        raise AssertionError("rule checked again")

    monkeypatch.setattr(model, "_validate_rule", refuse)
    assert _case_runs(tmp_path / "out") == expected


def test_a_json_rule_file_is_checked_once(tmp_path, monkeypatch):
    """A JSON file's rules are checked as they are read, as a text file's are."""
    fw, ids = str(tmp_path / "fw.json"), str(tmp_path / "ids.json")
    for path in (fw, ids):
        rs = load_ruleset(CASES / Path(path).with_suffix(".rules").name)
        Path(path).write_text(json.dumps(ruleset_to_dict(rs)))
    commands = [
        ("lint", fw),
        ("--assume-relevant", "check-interop", fw, ids),
        ("--assume-relevant", "check-interop", ids, fw),
    ]

    def outcomes() -> list:
        return [(result.exit_code, result.output) for result in (run(*c) for c in commands)]

    expected = outcomes()
    assert [code for code, _ in expected] == [1, 1, 1]

    def refuse(*args):
        raise AssertionError("rule checked again")

    monkeypatch.setattr(model, "_validate_rule", refuse)
    assert outcomes() == expected


# ---------------------------------------------------------------------------
# the cyclic collector is paused while a command runs
# ---------------------------------------------------------------------------

#: Each command with the exit code it gives on the case files.
_COMMANDS = [
    (["lint", "{fw}"], 1),
    (["lint", "{fixed}"], 0),
    (["correct", "{fw}"], 1),
    (["--dump-tree", "correct", "{fw}", "-o", "{out}/fixed.rules"], 1),
    (["check-interop", "{fw}", "{ids}"], 2),
    (["check-interop", "{fixed}", "{ids}"], 1),
    (["--dump-tree", "fix-interop", "{fw}", "{ids}", "-o", "{out}"], 1),
    (["check-topology", "{topo}"], 1),
    (["eval", "{fw}", "--packet", _PKT], 0),
    (["lint", "{out}/missing.rules"], 2),
]


def _set_collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collector():
    """Restores the collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    _set_collector(enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_commands_pause_the_collector_and_restore_it(
    fw_path, ids_path, fixed_fw, cases_dir, tmp_path, monkeypatch, collector, enabled
):
    paths = {
        "fw": fw_path,
        "ids": ids_path,
        "fixed": fixed_fw,
        "topo": str(cases_dir / "ingress.topo"),
        "out": str(tmp_path),
    }
    seen: list[bool] = []  # the collector's state whenever a command reads a file

    def read(ctx, path, _read=cli._read):
        seen.append(gc.isenabled())
        return _read(ctx, path)

    monkeypatch.setattr(cli, "_read", read)
    for template, code in _COMMANDS:
        _set_collector(enabled)
        seen.clear()
        result = run(*(a.format(**paths) for a in template))
        assert (result.exit_code, gc.isenabled()) == (code, enabled), template
        assert seen and not any(seen), template


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_an_unexpected_error_restores_the_collector(fw_path, monkeypatch, collector, enabled):
    seen: list[bool] = []

    def broken(ctx, path):
        seen.append(gc.isenabled())
        raise RuntimeError("broken read")

    monkeypatch.setattr(cli, "_read", broken)
    _set_collector(enabled)
    result = run("lint", fw_path)
    assert isinstance(result.exception, RuntimeError)
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_a_command_frees_its_rule_sets_without_a_collection(fw_path, monkeypatch, collector):
    # an exit raised inside the command would keep its frames, and all they
    # name, reachable from the traceback until the collector ran
    parsed = []

    def parse(*args, _parse=cli.parse_ruleset, **kwargs):
        rs = _parse(*args, **kwargs)
        parsed.append(weakref.ref(rs))
        return rs

    monkeypatch.setattr(cli, "parse_ruleset", parse)
    gc.disable()
    for args in (["lint", fw_path], ["correct", fw_path], ["--dump-tree", "lint", fw_path]):
        parsed.clear()
        result = run(*args)
        assert result.exit_code == 1
        assert len(parsed) == 1 and parsed[0]() is None, args


# ---------------------------------------------------------------------------
# fuzzing: no input ends in anything but exit 0, 1 or 2
# ---------------------------------------------------------------------------

_FW = (CASES / "fw.rules").read_bytes()
_IDS = (CASES / "ids.rules").read_bytes()
_TOPO = (CASES / "ingress.topo").read_bytes()
_FW_DICT = _fw_dict()
# fragments that are meaningful somewhere in a rule or topology file
_FRAGMENTS = [
    b"any", b"All", b"TCP", b"80", b"0-65535", b"70000", b"9-1", b"140.192.10.*",
    b"10.0.0.0/8", b"1.2.3", b",", b"|", b"-", b"#", b"\n", b"\x00", b"\xff", b"\xc3",
    b"accept", b"reject", b"rules\n", b"attr x label-enum a\n", b"path p FW IDS\n",
    b"component Z filtering nope.rules\n", b"IDS:alerting",
]
# deep-copied so that a mutation inside inserted junk cannot change the next draw
_JUNK = st.sampled_from(
    [None, 5, 1.5, True, "", "x", "0-9", [], {}, [1], {"a": 1}]
).map(copy.deepcopy)
_FLAGS = ["--assume-relevant", "--dump-tree", "--format=json", "--policy=first-match"]
_PATHS = {"fw.rules", "ids.rules", "fw.json", "site.topo", "out.rules", "out"}


def _splice(data: bytes, edits) -> bytes:
    for pos, cut, insert in edits:
        pos = min(pos, len(data))
        data = data[:pos] + insert + data[pos + cut :]
    return data


def _mutants(base: bytes):
    insert = st.one_of(st.sampled_from(_FRAGMENTS), st.binary(max_size=3))
    edit = st.tuples(st.integers(0, len(base)), st.integers(0, 6), insert)
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: _splice(base, edits))


def _slots(node) -> list:
    """Every (container, key) pair in a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(_slots(value))
    return out


@st.composite
def _json_mutants(draw) -> bytes:
    d = copy.deepcopy(_FW_DICT)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(d)
        node, key = slots[draw(st.integers(0, len(slots) - 1))]
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JUNK)
    return json.dumps(d).encode()


@st.composite
def _invocations(draw) -> tuple[dict, list]:
    files = {"fw.rules": _FW, "ids.rules": _IDS, "site.topo": _TOPO}
    flags = draw(st.lists(st.sampled_from(_FLAGS), unique=True))
    kind = draw(st.sampled_from(["rules", "json", "topo", "packet"]))
    if kind == "topo":
        files["site.topo"] = draw(_mutants(_TOPO))
        return files, flags + ["check-topology", "site.topo"]
    rules = "fw.rules"
    if kind == "rules":
        files["fw.rules"] = draw(_mutants(_FW))
    elif kind == "json":
        rules = "fw.json"
        files[rules] = draw(_json_mutants())
    else:
        packet = draw(_mutants(_PKT.encode())).decode("latin-1")
        return files, flags + ["eval", rules, "--packet", packet]
    command = draw(
        st.sampled_from(
            [
                ["lint", rules],
                ["correct", rules, "-o", "out.rules"],
                ["check-interop", rules, "ids.rules"],
                ["fix-interop", rules, "ids.rules", "-o", "out"],
                ["eval", rules, "--packet", _PKT],
            ]
        )
    )
    return files, flags + command


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True)
@given(_invocations())
def test_cli_fuzz_exits_cleanly(fuzz_dir, invocation):
    files, args = invocation
    for name, data in files.items():
        (fuzz_dir / name).write_bytes(data)
    # file arguments resolve inside the fuzz directory
    args = [str(fuzz_dir / a) if a in _PATHS else a for a in args]
    result = run(*args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.output
    # names and paths read from the inputs are printed, so they hold no terminal escape
    assert re.search("[\x00-\x09\x0b-\x1f]", result.output) is None
