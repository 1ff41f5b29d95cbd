"""Only the merge changes an edge's label after the edge is made.

:func:`policytree.rdt.build_rdt` reads each condition label back as a value
set as it makes the node, so a built tree's labels keep one type for their
life.  The one writer left is ``rdt._merge``, which ORs the labels of the
edges that :func:`policytree.rdt.normalize` merges.
"""

from __future__ import annotations

import ast
from pathlib import Path

import policytree

from test_error_placement import _functions, _own_nodes

SOURCES = sorted(Path(policytree.__file__).parent.glob("*.py"))


def test_only_the_merge_writes_a_label():
    writers = set()
    for path in SOURCES:
        module = ast.parse(path.read_text(), filename=str(path))
        for name, function in _functions(module):
            if any(
                isinstance(node, ast.Attribute)
                and node.attr == "label"
                and isinstance(node.ctx, ast.Store)
                for node in _own_nodes(function)
            ):
                writers.add(f"{path.stem}.{name}")
    assert writers == {"rdt._merge"}
