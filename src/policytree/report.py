"""Deterministic report rendering for the command-line tool.

Reports carry no timestamps or environment details, so running the same
command on the same inputs twice yields byte-identical output in both the
text and the JSON form.  Inputs are identified by path and content digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

from . import __version__

__all__ = ["Report", "input_entry", "render_text", "render_json"]


@dataclass
class Report:
    command: str
    policy: str | None = None
    tool: str = "policytree"
    version: str = __version__
    inputs: list[dict] = field(default_factory=list)
    findings: list[dict] = field(default_factory=list)
    outputs: list[dict] = field(default_factory=list)
    result: dict = field(default_factory=dict)
    verdict: str = ""
    tree: str | None = None


def input_entry(path: str, data: bytes) -> dict:
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _finding_line(f: dict) -> str:
    detail = " ".join(
        f"{k}={f[k]}" for k in sorted(f) if k not in ("kind", "severity")
    )
    sep = " " if detail else ""
    return f"finding: {f['kind']}{sep}{detail} [{f['severity']}]"


def render_text(report: Report) -> str:
    lines = [f"{report.tool} {report.version}", f"command: {report.command}"]
    if report.policy:
        lines.append(f"policy: {report.policy}")
    for entry in report.inputs:
        lines.append(f"input: {entry['path']} sha256={entry['sha256']}")
    for f in report.findings:
        lines.append(_finding_line(f))
    for out in report.outputs:
        lines.append(f"output: {out['path']}")
    for key in sorted(report.result):
        lines.append(f"{key}: {report.result[key]}")
    if report.verdict:
        lines.append(f"verdict: {report.verdict}")
    if report.tree is not None:
        lines.append("tree:")
        lines.extend("  " + ln for ln in report.tree.splitlines())
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    import json  # only JSON reports need it

    payload = asdict(report)
    if payload["tree"] is None:
        del payload["tree"]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
