"""Every private module-level name in ``policytree`` is read somewhere in it.

A private helper, class or constant whose last reader went is dead code,
and nothing else in the suite would notice it.  Decorated functions are
exempt: the decorator may register them, as click does ``cli._exit``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import policytree

SOURCES = sorted(Path(policytree.__file__).parent.glob("*.py"))


def _private_definitions(module: ast.Module):
    """The private names a module defines at its top level."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [] if node.decorator_list else [node.name]
        elif isinstance(node, ast.ClassDef):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def _reads(module: ast.Module) -> set[str]:
    """Every name a module loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(module)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_private_name_is_read():
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    read = set().union(*map(_reads, modules.values()))
    unread = [
        f"{stem}.{name}"
        for stem, module in modules.items()
        for name in _private_definitions(module)
        if name not in read
    ]
    assert unread == []
