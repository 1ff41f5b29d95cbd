"""Each input error is placed once per format.

The helpers of ``ruleio`` and ``topology`` raise a ``ValueError`` holding
its reason alone.  Only the reader of each format builds the
``RuleFileError`` that adds the file and line: ``_decoded`` for the bytes,
each line loop for its line, and ``parse_ruleset``'s JSON arm for the
document.  So only those readers, and ``_from_dict``, which hands the file's
name to the text reader of its header, need the file's name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import policytree

PACKAGE = Path(policytree.__file__).parent
MODULES = ("ruleio", "topology")
PLACERS = {"ruleio._decoded", "ruleio._parse_text", "ruleio.parse_ruleset", "topology.parse_topology"}


def _functions(tree: ast.AST, outer: str = ""):
    """``(qualified name, node)`` for each function in ``tree``, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{outer}{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _functions(node, f"{name}.")
        else:
            yield from _functions(node, outer)


def _own_nodes(function: ast.AST):
    """The nodes of ``function``'s body, less those of the functions nested in it."""
    for node in ast.iter_child_nodes(function):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _own_nodes(node)


def _parsed():
    for stem in MODULES:
        path = PACKAGE / f"{stem}.py"
        yield stem, ast.parse(path.read_text(), filename=str(path))


def test_only_the_readers_build_a_rule_file_error():
    builders = {
        f"{stem}.{name}"
        for stem, module in _parsed()
        for name, function in _functions(module)
        for node in _own_nodes(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "RuleFileError"
    }
    assert builders == PLACERS


def test_only_the_readers_take_the_source():
    takers = {
        f"{stem}.{name}"
        for stem, module in _parsed()
        for name, function in _functions(module)
        if "source" in {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
    }
    # the error itself holds the source it names
    assert takers == PLACERS | {"ruleio._from_dict", "ruleio.RuleFileError.__init__"}
