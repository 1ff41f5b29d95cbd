"""Every module-level import in ``policytree`` is used in its module.

A name is used when the module reads it or lists it in ``__all__``.  The
three ``relate`` imports below are kept only so that ``perfbench/spans.py``
can wrap the name where each module imports it; ROADMAP item 4 takes them
out together with the scalar ``relate`` family.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "policytree"

WRAPPED_BY_THE_TRACER = {("intra", "relate"), ("interop", "relate"), ("rdt", "relate")}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}  # bound name -> line
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in used and (path.stem, name) not in WRAPPED_BY_THE_TRACER
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []
