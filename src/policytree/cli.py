"""Command-line front end.

Exit codes are uniform across subcommands: 0 means nothing to report
(clean, interoperable, or a successful evaluation), 1 means findings were
reported (anomalies, a non-interoperable pair, a packet no rule matches),
and 2 means the inputs themselves were unusable (parse errors, schema
mismatches, a packet naming unknown attributes, or overlapping rules where
relevant input is required).
"""

from __future__ import annotations

import contextlib
import gc
from pathlib import Path
from typing import NamedTuple

import click

from .correction import correct_pair, correct_ruleset
from .dtree import dump_tree
from .interop import detect_inter, extend_schema, union_schema
from .intra import detect_intra, is_relevant_ruleset
from .model import RuleSet, SchemaError, Semantics, Severity
from .rdt import ConflictPolicy, build_rdt
from .relations import relation_sets
from .report import Report, input_entry, render_json, render_text
from .ruleio import (
    RuleFileError,
    parse_point,
    parse_ruleset,
    save_ruleset,
    serialize_ruleset,
)
from .values import ValueSetError

_POLICIES = {
    "specificity": ConflictPolicy.SPECIFICITY,
    "first-match": ConflictPolicy.FIRST_MATCH,
}

_INPUT_ERRORS = (RuleFileError, SchemaError, ValueSetError)


class Options(NamedTuple):
    policy: ConflictPolicy
    fmt: str
    assume_relevant: bool
    dump_tree: bool


@click.group()
@click.option(
    "--policy",
    type=click.Choice(sorted(_POLICIES)),
    default="specificity",
    show_default=True,
    help="How conflicting rules are resolved when building trees.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
    help="Report format.",
)
@click.option(
    "--assume-relevant",
    is_flag=True,
    help="Skip the overlap pre-check on commands that need relevant input.",
)
@click.option("--dump-tree", is_flag=True, help="Include the decision tree in the report.")
@click.pass_context
def main(ctx: click.Context, policy: str, fmt: str, assume_relevant: bool, dump_tree: bool):
    """Analyze, correct, and align ordered security rule sets."""
    ctx.with_resource(_collector_paused())
    ctx.obj = Options(
        policy=_POLICIES[policy],
        fmt=fmt,
        assume_relevant=assume_relevant,
        dump_tree=dump_tree,
    )


@main.result_callback()
@click.pass_context
def _exit(ctx: click.Context, code: int, **_params) -> None:
    """Exit with the command's code once the command has returned.

    Raised from inside a command, the ``Exit`` would hold the command's
    frames, and every rule set and tree they name, until a collection.
    """
    ctx.exit(code)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, if it runs, until the command ends.

    The library leaves no reference cycles, so reference counting frees
    what a command drops, and a collection would only rescan its live trees.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _write(text: str, err: bool = False) -> None:
    """Write ``text`` unchanged to stdout (or stderr).

    ``click.echo`` would strip ANSI escapes when not writing to a terminal,
    and under click's ``CliRunner`` it caches each invocation's stream in a
    weak mapping whose value is the key itself, so none is ever freed.
    """
    stream = click.get_text_stream("stderr" if err else "stdout")
    stream.write(text)
    stream.flush()


def _fail(ctx: click.Context, message: str) -> None:
    _write(f"error: {message}\n", err=True)
    ctx.exit(2)


def _read(ctx: click.Context, path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        _fail(ctx, str(exc))


def _save(ctx: click.Context, outputs: list[tuple[Path, RuleSet]]) -> None:
    """Write every ``(path, rules)`` pair; on an ``OSError`` remove the
    regular files this call opened, so a failed run leaves none of its
    outputs behind."""
    opened: list[Path] = []
    try:
        for path, rs in outputs:
            opened.append(path)
            save_ruleset(path, rs)
    except OSError as exc:
        for path in opened:
            if path.is_file():
                with contextlib.suppress(OSError):
                    path.unlink()
        _fail(ctx, str(exc))


def _load(ctx: click.Context, path: str) -> tuple[RuleSet, dict]:
    p = Path(path)
    data = _read(ctx, p)
    try:
        rs = parse_ruleset(data, source=str(p))
    except _INPUT_ERRORS as exc:
        _fail(ctx, str(exc))
    return rs, input_entry(str(p), data)


def _gate_relevant(ctx: click.Context, rs: RuleSet, opts: Options) -> None:
    if opts.assume_relevant or is_relevant_ruleset(rs):
        return
    _fail(
        ctx,
        f"rules of {rs.component_name!r} overlap; run 'policytree correct' first "
        "or pass --assume-relevant",
    )


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _verdict(findings: list[dict]) -> str:
    if not findings:
        return "clean"
    errors = sum(1 for f in findings if f["severity"] == Severity.ERROR.value)
    warnings = len(findings) - errors
    return (
        f"{_plural(len(findings), 'finding')} "
        f"({_plural(errors, 'error')}, {_plural(warnings, 'warning')})"
    )


def _finish(report: Report, opts: Options) -> int:
    _write(render_json(report) if opts.fmt == "json" else render_text(report))
    return 1 if report.findings else 0


def _intra_findings(rs: RuleSet, screen=None, **place) -> list[dict]:
    """Findings within ``rs``, each with the keys in ``place`` that say where it was found."""
    return [
        {
            "kind": a.kind.value,
            "severity": a.severity.value,
            "earlier": f"r{a.earlier}",
            "later": f"r{a.later}",
            **place,
        }
        for a in detect_intra(rs, screen=screen)
    ]


def _inter_findings(ctx: click.Context, preceding: RuleSet, following: RuleSet, **place):
    """Cross-component findings, each with the keys in ``place``, and the pair
    restated over the shared schema they are read from."""
    try:
        target = union_schema(preceding.schema, following.schema)
        restated = extend_schema(preceding, target), extend_schema(following, target)
        anomalies = detect_inter(*restated)
    except _INPUT_ERRORS as exc:
        _fail(ctx, str(exc))
    return [
        {
            "kind": a.kind.value,
            "severity": a.severity.value,
            "preceding": f"{preceding.component_name}:r{a.preceding_rule}",
            "following": f"{following.component_name}:r{a.following_rule}",
            **place,
        }
        for a in anomalies
    ], restated


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@main.command()
@click.argument("rules_file", type=click.Path())
@click.pass_context
def lint(ctx: click.Context, rules_file: str):
    """Report redundancy, shadowing, generalization, and correlation."""
    opts: Options = ctx.obj
    rs, entry = _load(ctx, rules_file)
    report = Report(command="lint", policy=opts.policy.value, inputs=[entry])
    report.findings = _intra_findings(rs)
    report.verdict = _verdict(report.findings)
    if opts.dump_tree:
        report.tree = dump_tree(build_rdt(rs, opts.policy).tree)
    return _finish(report, opts)


@main.command()
@click.argument("rules_file", type=click.Path())
@click.option("-o", "--output", type=click.Path(), default=None, help="Corrected rules file.")
@click.pass_context
def correct(ctx: click.Context, rules_file: str, output: str | None):
    """Rewrite a rule set as disjoint rules free of internal anomalies."""
    opts: Options = ctx.obj
    rs, entry = _load(ctx, rules_file)
    built = build_rdt(rs, opts.policy) if opts.dump_tree else None
    corrected = correct_ruleset(rs, opts.policy, built=built)
    if output is None:
        _write(serialize_ruleset(corrected))
        return 1 if detect_intra(rs) else 0
    _save(ctx, [(Path(output), corrected)])
    report = Report(command="correct", policy=opts.policy.value, inputs=[entry])
    report.findings = _intra_findings(rs)
    report.verdict = _verdict(report.findings)
    report.outputs = [{"path": output, "rules": len(corrected.rules)}]
    if built is not None:
        report.tree = dump_tree(built.tree)
    return _finish(report, opts)


@main.command(name="check-interop")
@click.argument("preceding_file", type=click.Path())
@click.argument("following_file", type=click.Path())
@click.pass_context
def check_interop(ctx: click.Context, preceding_file: str, following_file: str):
    """Check a preceding/following pair for cross-component anomalies."""
    opts: Options = ctx.obj
    preceding, p_entry = _load(ctx, preceding_file)
    following, f_entry = _load(ctx, following_file)
    _gate_relevant(ctx, preceding, opts)
    _gate_relevant(ctx, following, opts)
    report = Report(
        command="check-interop", policy=opts.policy.value, inputs=[p_entry, f_entry]
    )
    report.findings, _ = _inter_findings(ctx, preceding, following)
    report.verdict = "interoperable" if not report.findings else (
        f"not interoperable ({_verdict(report.findings)})"
    )
    return _finish(report, opts)


@main.command(name="fix-interop")
@click.argument("preceding_file", type=click.Path())
@click.argument("following_file", type=click.Path())
@click.option(
    "-o",
    "--output-dir",
    type=click.Path(),
    required=True,
    help="Directory for the corrected rule files.",
)
@click.pass_context
def fix_interop(ctx: click.Context, preceding_file: str, following_file: str, output_dir: str):
    """Correct both components so the pair interoperates.

    A component with overlapping rules is first corrected on its own; then
    both are merged, re-split, and written back as <component>-corrected
    files whose rule origins trace to the input rules.
    \f
    Each input is screened once, for its findings and the overlap check,
    and the pair is restated over its union schema once, for the cross
    findings and the repair.
    """
    opts: Options = ctx.obj
    preceding, p_entry = _load(ctx, preceding_file)
    following, f_entry = _load(ctx, following_file)
    for name in (preceding.component_name, following.component_name):
        if Path(name).name != name:  # each output file is named after its component
            _fail(ctx, f"component name {name!r} is not a single path component")
    if preceding.component_name == following.component_name:
        _fail(
            ctx,
            f"both components are named {preceding.component_name!r}; "
            "their corrected files would share one name",
        )
    report = Report(
        command="fix-interop", policy=opts.policy.value, inputs=[p_entry, f_entry]
    )
    relevant = []
    for rs, tag in ((preceding, "preceding"), (following, "following")):
        screen = relation_sets(rs.rules, rs.rules, rs.schema)
        report.findings += _intra_findings(rs, screen, component=rs.component_name, role=tag)
        relevant.append(
            rs if is_relevant_ruleset(rs, screen=screen) else correct_ruleset(rs, opts.policy)
        )
    findings, restated = _inter_findings(ctx, *relevant)
    report.findings.extend(findings)
    pair = correct_pair(*relevant, opts.policy, restated=restated)
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(ctx, str(exc))
    written = []
    for corrected, source in ((pair.preceding, preceding_file), (pair.following, following_file)):
        suffix = Path(source).suffix or ".rules"
        written.append((out / f"{corrected.component_name}-corrected{suffix}", corrected))
    _save(ctx, written)
    report.outputs = [{"path": str(dest), "rules": len(rs.rules)} for dest, rs in written]
    report.verdict = (
        "already interoperable" if not report.findings else _verdict(report.findings)
    )
    if opts.dump_tree:
        report.tree = dump_tree(pair.rdt.tree)
    return _finish(report, opts)


@main.command(name="check-topology")
@click.argument("topology_file", type=click.Path())
@click.pass_context
def check_topology(ctx: click.Context, topology_file: str):
    """Validate component ordering (and pairwise interop) along paths."""
    # no other command reads topology files
    from .topology import check_positioning, parse_topology

    opts: Options = ctx.obj
    p = Path(topology_file)
    data = _read(ctx, p)
    try:
        topo = parse_topology(data, source=str(p))
    except _INPUT_ERRORS as exc:
        _fail(ctx, str(exc))
    report = Report(command="check-topology", inputs=[input_entry(str(p), data)])
    error = Severity.ERROR.value
    report.findings = [
        {"kind": "mis-positioning", "severity": error, **v._asdict()}
        for v in check_positioning(topo)
    ]

    # a shared rule file is read, parsed and gated once, then named per component
    by_file: dict[Path, tuple[RuleSet, bool]] = {}
    loaded: dict[str, RuleSet] = {}  # the relevant components
    for name, comp in sorted(topo.components.items()):
        if comp.rules_path is None:
            continue
        rules_path = p.parent / comp.rules_path
        if rules_path not in by_file:
            rs, entry = _load(ctx, str(rules_path))
            report.inputs.append(entry)
            by_file[rules_path] = (rs, opts.assume_relevant or is_relevant_ruleset(rs))
        rs, relevant = by_file[rules_path]
        if rs.component_kind is not comp.kind:
            _fail(
                ctx,
                f"{rules_path} declares kind {rs.component_kind.value},"
                f" but {p} gives component {name!r} kind {comp.kind.value}",
            )
        if relevant:
            loaded[name] = RuleSet._of_checked(rs.schema, rs.rules, rs.component_kind, name)
        else:
            report.findings.append(
                {"kind": "component-not-relevant", "severity": error, "component": name}
            )
    for path_name, members in topo.paths:
        for left, right in zip(members, members[1:]):
            p_rs, f_rs = loaded.get(left), loaded.get(right)
            if p_rs is None or f_rs is None:
                continue
            report.findings += _inter_findings(ctx, p_rs, f_rs, path=path_name)[0]
    report.verdict = _verdict(report.findings)
    return _finish(report, opts)


@main.command(name="eval")
@click.argument("rules_file", type=click.Path())
@click.option(
    "--packet",
    "packet_arg",
    required=True,
    help="Comma-separated attribute=value pairs covering every attribute.",
)
@click.option(
    "--semantics",
    type=click.Choice([s.value for s in Semantics]),
    default=Semantics.FIRST_MATCH.value,
    show_default=True,
    help="Which rule wins when several match.",
)
@click.pass_context
def eval_packet(ctx: click.Context, rules_file: str, packet_arg: str, semantics: str):
    """Decide one packet against a rule set."""
    from .oracle import evaluate_rule  # the referee; no other command loads it

    opts: Options = ctx.obj
    rs, entry = _load(ctx, rules_file)
    packet: dict[str, int | str] = {}
    try:
        for item in packet_arg.split(","):
            name, _, token = item.partition("=")
            name, token = name.strip(), token.strip()
            if not name or not token:
                raise ValueSetError(f"malformed packet field {item.strip()!r}")
            attr = rs.schema.attribute(name)
            if attr.name in packet:
                raise ValueSetError(f"duplicate attribute {attr.name!r}")
            packet[attr.name] = parse_point(token, attr)
    except _INPUT_ERRORS as exc:
        _fail(ctx, f"bad --packet: {exc}")
    missing = set(rs.schema.condition_names) - set(packet)
    if missing:
        _fail(ctx, f"bad --packet: missing attributes {sorted(missing)}")
    report = Report(command="eval", inputs=[entry])
    rule = evaluate_rule(rs, packet, Semantics(semantics))
    if rule is None:
        report.result = {"decision": "no-match"}
        report.verdict = "no rule matches this packet"
        report.findings = [{"kind": "unmatched-packet", "severity": "error"}]
    else:
        report.result = {
            "decision": rule.action,
            "rule": f"r{rule.id}",
            "origin": rule.origin,
        }
        report.verdict = f"decision: {rule.action}"
    return _finish(report, opts)


if __name__ == "__main__":
    main()
