"""The benchmark workloads: their inputs, their verdicts and their checks.

A workload turns a seed into cycles of rule files, one file (or pair) of
each size per cycle, written before any timing starts.  ``verdict`` is the
timed part: what an admin or a CI job runs on one input before reading the
answer.  ``record`` and ``check`` run outside the timed region and return
the problems they find; an input with any problem counts as failed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import gen
from spans import tree_regions
from policytree.cli import main as cli_main
from policytree.dtree import dump_tree
from policytree.oracle import Semantics, endpoint_space, equivalence, evaluate
from policytree.rdt import ConflictPolicy, build_rdt
from policytree.ruleio import parse_ruleset

_RUNNER = CliRunner()
_REFEREE_POLICIES = (
    (ConflictPolicy.SPECIFICITY, Semantics.OWNER_CAPTURE),
    (ConflictPolicy.FIRST_MATCH, Semantics.FIRST_MATCH),
)


class Untraced:
    """Stands in for a tracer when the run is not traced."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Input:
    name: str
    size: str
    work: Path  # the directory that holds every file of the input
    files: dict[str, Path]

    def stdout(self, result) -> bytes:
        """A command's standard output with the working directory masked.

        Reports name their files by path, and the working directory
        differs from run to run; the masked bytes do not.
        """
        return result.stdout_bytes.replace(str(self.work).encode(), b"<work>")


@dataclass
class Outcome:
    """What ``record`` keeps of one verdict: enough to check it later."""

    digest: str
    rules_out: int
    problems: list[str] = field(default_factory=list)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _invoke(tracer, args: list[str]):
    return tracer.call("cli.self_s", _RUNNER.invoke, cli_main, args)


def _command_problems(label: str, result, allowed: tuple[int, ...]) -> list[str]:
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return [f"{label} raised {result.exception!r}"]
    if result.exit_code not in allowed:
        return [f"{label} exited {result.exit_code}: {result.stderr.strip()[:200]}"]
    return []


def _findings(report: str) -> int:
    return sum(1 for line in report.splitlines() if line.startswith("finding: "))


def _rules_in(text: str) -> int:
    return text.split("\nrules\n", 1)[1].count("\n")


# ---------------------------------------------------------------------------
# packet checks for corrected rule sets
# ---------------------------------------------------------------------------


def _first_point(v, attr):
    ev = attr.domain if v.is_wildcard else v
    return sorted(ev.labels)[0] if ev.labels is not None else ev.intervals[0][0]


def _random_point(rng: random.Random, v, attr):
    ev = attr.domain if v.is_wildcard else v
    if ev.labels is not None:
        return rng.choice(sorted(ev.labels))
    lo, hi = rng.choice(ev.intervals)
    return rng.randint(lo, hi)


_RANDOM_PACKETS = 32


def check_packets(rng: random.Random, source, corrected) -> list[dict]:
    """Packets for checking ``corrected`` against ``source``.

    Half of the random packets fall inside a random source rule, half
    anywhere; then one corner packet (every attribute at its lowest value)
    for each corrected region.
    """
    attrs = source.schema.condition_attributes
    packets = []
    for k in range(_RANDOM_PACKETS):
        if k % 2 == 0 and source.rules:
            rule = rng.choice(source.rules)
            packets.append({a.name: _random_point(rng, rule.condition[a.name], a) for a in attrs})
        else:
            packets.append({a.name: _random_point(rng, a.domain, a) for a in attrs})
    for rule in corrected.rules:
        packets.append({a.name: _first_point(rule.condition[a.name], a) for a in attrs})
    return packets


def match_matrix(rs, packets: list[dict]) -> np.ndarray:
    """``m[p, r]`` is true when packet ``p`` matches rule ``r``."""
    m = np.ones((len(packets), len(rs.rules)), dtype=bool)
    for attr in rs.schema.condition_attributes:
        col = [p[attr.name] for p in packets]
        hit = np.zeros_like(m)
        if attr.kind.is_numeric:
            x = np.array(col, dtype=np.int64)
            for r, rule in enumerate(rs.rules):
                v = rule.condition[attr.name]
                if v.is_wildcard:
                    hit[:, r] = True
                    continue
                for lo, hi in v.intervals:
                    hit[:, r] |= (x >= lo) & (x <= hi)
        else:
            x = np.array(col, dtype=object)
            for r, rule in enumerate(rs.rules):
                v = rule.condition[attr.name]
                hit[:, r] = True if v.is_wildcard else np.isin(x, list(v.labels))
        m &= hit
    return m


def _volume(v, attr) -> int:
    ev = attr.domain if v.is_wildcard else v
    if ev.labels is not None:
        return len(ev.labels)
    return sum(hi - lo + 1 for lo, hi in ev.intervals)


def corrected_problems(rng: random.Random, source, corrected, semantics: Semantics) -> list[str]:
    """Does ``corrected`` decide every packet as ``source`` does?

    The corrected regions must together be exactly as large as the packet
    space: the source ends in a default rule, so it decides every packet,
    and disjoint regions of that total size leave none out.  Each check
    packet must match exactly one corrected rule, and that rule's action
    must be the referee's decision on the source rules.  The random packets
    are also decided by the referee's own first-match ``evaluate`` on the
    corrected rules.
    """
    attrs = source.schema.condition_attributes
    space = math.prod(_volume(a.domain, a) for a in attrs)
    covered = sum(math.prod(_volume(r.condition[a.name], a) for a in attrs) for r in corrected.rules)
    problems = [] if covered == space else [f"regions cover {covered} of {space} packets"]
    packets = check_packets(rng, source, corrected)
    m = match_matrix(corrected, packets)
    hits = m.sum(axis=1)
    actions = [r.action for r in corrected.rules]
    for k, packet in enumerate(packets):
        if hits[k] != 1:
            problems.append(f"packet {packet} matches {hits[k]} corrected rules")
            continue
        got = actions[int(np.argmax(m[k]))]
        if k < _RANDOM_PACKETS:
            first = evaluate(corrected, packet, Semantics.FIRST_MATCH)
            if first != got:
                problems.append(f"packet {packet}: first-match {first}, unique match {got}")
        want = evaluate(source, packet, semantics)
        if got != want:
            problems.append(f"packet {packet}: corrected says {got}, referee says {want}")
        if len(problems) >= 5:
            break
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload; ``layers.json`` says why each was chosen."""

    name = ""
    sizes: tuple = ()
    cycles = 0

    def prepare(self, seed: int, work: Path) -> list[Input]:
        """A warm-up input, then ``cycles`` inputs of each size, sizes interleaved."""
        sizes = [self.sizes[0]] + list(self.sizes) * self.cycles
        return [self.make_input(seed, work, index, size) for index, size in enumerate(sizes)]

    def make_input(self, seed: int, work: Path, index: int, size) -> Input:
        raise NotImplementedError

    def verdict(self, inp: Input, tracer):
        raise NotImplementedError

    def record(self, inp: Input, raw) -> Outcome:
        raise NotImplementedError

    def check(self, inp: Input, outcome: Outcome) -> list[str]:
        return []


class FwAudit(Workload):
    """``lint`` then ``correct -o`` on a firewall, as an admin or a CI job runs them."""

    name = "fw-audit"
    sizes = (40, 50, 60, 70, 80)
    cycles = 16

    def make_input(self, seed, work, index, n):
        path = work / f"fw-{index:04d}.rules"
        path.write_text(gen.firewall(seed * 10_007 + index, n))
        return Input(
            name=path.stem,
            size=str(n + 1),
            work=work,
            files={"rules": path, "out": work / f"fw-{index:04d}.corrected.rules"},
        )

    def verdict(self, inp, tracer):
        lint = _invoke(tracer, ["lint", str(inp.files["rules"])])
        fixed = _invoke(tracer, ["correct", str(inp.files["rules"]), "-o", str(inp.files["out"])])
        return lint, fixed

    def record(self, inp, raw):
        lint, fixed = raw
        problems = _command_problems("lint", lint, (0, 1)) + _command_problems(
            "correct", fixed, (0, 1)
        )
        if problems:
            return Outcome(digest="", rules_out=0, problems=problems)
        out = inp.files["out"].read_bytes()
        findings = _findings(lint.stdout)
        if lint.exit_code != (1 if findings else 0):
            problems.append(f"lint exited {lint.exit_code} with {findings} findings")
        if fixed.exit_code != lint.exit_code:
            problems.append(f"correct exited {fixed.exit_code}, lint {lint.exit_code}")
        return Outcome(
            digest=_sha(inp.stdout(lint), inp.stdout(fixed), out),
            rules_out=_rules_in(out.decode()),
            problems=problems,
        )

    def check(self, inp, outcome):
        source = parse_ruleset(inp.files["rules"].read_text())
        corrected = parse_ruleset(inp.files["out"].read_text())
        rng = random.Random(f"check/{inp.name}")
        return corrected_problems(rng, source, corrected, Semantics.OWNER_CAPTURE)


class PairInterop(Workload):
    """``fix-interop`` on a firewall and an IDS, then ``check-interop`` on what it wrote."""

    name = "pair-interop"
    sizes = ((16, 7), (19, 8), (22, 8), (25, 9), (28, 10))
    cycles = 24

    def make_input(self, seed, work, index, size):
        n, m = size
        fw, ids = gen.pair(seed * 10_007 + index, n, m)
        fw_path, ids_path = work / f"pair-{index:04d}-fw.rules", work / f"pair-{index:04d}-ids.rules"
        fw_path.write_text(fw)
        ids_path.write_text(ids)
        out = work / f"pair-{index:04d}-out"
        return Input(
            name=f"pair-{index:04d}",
            size=f"{n + 1}+{m}",
            work=work,
            files={"fw": fw_path, "ids": ids_path, "out": out},
        )

    def verdict(self, inp, tracer):
        out = inp.files["out"]
        fixed = _invoke(
            tracer, ["fix-interop", str(inp.files["fw"]), str(inp.files["ids"]), "-o", str(out)]
        )
        checked = _invoke(
            tracer,
            ["check-interop", str(out / "FW-corrected.rules"), str(out / "IDS-corrected.rules")],
        )
        return fixed, checked

    def record(self, inp, raw):
        fixed, checked = raw
        problems = _command_problems("fix-interop", fixed, (0, 1)) + _command_problems(
            "check-interop", checked, (0,)
        )
        if problems:
            return Outcome(digest="", rules_out=0, problems=problems)
        if fixed.exit_code != (1 if _findings(fixed.stdout) else 0):
            problems.append(f"fix-interop exited {fixed.exit_code}")
        if "verdict: interoperable\n" not in checked.stdout:
            problems.append("check-interop did not find the repaired pair interoperable")
        out = inp.files["out"]
        fw_out = (out / "FW-corrected.rules").read_bytes()
        ids_out = (out / "IDS-corrected.rules").read_bytes()
        return Outcome(
            digest=_sha(inp.stdout(fixed), inp.stdout(checked), fw_out, ids_out),
            rules_out=_rules_in(fw_out.decode()) + _rules_in(ids_out.decode()),
            problems=problems,
        )

    def check(self, inp, outcome):
        inputs = {
            "FW": parse_ruleset(inp.files["fw"].read_text()),
            "IDS": parse_ruleset(inp.files["ids"].read_text()),
        }
        out = inp.files["out"]
        return origin_problems(
            inputs,
            [
                parse_ruleset((out / "FW-corrected.rules").read_text()),
                parse_ruleset((out / "IDS-corrected.rules").read_text()),
            ],
        )


def origin_problems(inputs: dict, outputs: list) -> list[str]:
    """Every output rule's origin must name an input rule as ``component:rN``."""
    problems = []
    for rs in outputs:
        for rule in rs.rules:
            component, _, rid = (rule.origin or "").partition(":r")
            source = inputs.get(component)
            if source is None or not rid.isdigit() or not 1 <= int(rid) <= len(source.rules):
                problems.append(f"{rs.component_name} r{rule.id} has origin {rule.origin!r}")
    return problems


class Referee(Workload):
    """The corrected tree under both policies, checked against the packet referee."""

    name = "referee"
    sizes = (14, 17, 20, 23, 26)
    cycles = 16

    def make_input(self, seed, work, index, n):
        path = work / f"ref-{index:04d}.rules"
        path.write_text(gen.firewall(seed * 10_007 + index, n))
        return Input(name=path.stem, size=str(n + 1), work=work, files={"rules": path})

    def verdict(self, inp, tracer):
        rs = parse_ruleset(inp.files["rules"].read_text())
        space = endpoint_space(rs)
        out = []
        for policy, semantics in _REFEREE_POLICIES:
            tree = build_rdt(rs, policy).tree
            out.append((tree, equivalence(tree, rs, semantics, space)))
        return out

    def record(self, inp, raw):
        problems = [
            f"{policy.value}: {len(mismatches)} mismatches, first {mismatches[0]}"
            for (policy, _), (_, mismatches) in zip(_REFEREE_POLICIES, raw)
            if mismatches
        ]
        dumps = [dump_tree(tree).encode() for tree, _ in raw]
        return Outcome(
            digest=_sha(*dumps),
            rules_out=sum(tree_regions(tree) for tree, _ in raw),
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (FwAudit(), PairInterop(), Referee())}
