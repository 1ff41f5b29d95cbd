"""Every name a ``policytree`` module lists in ``__all__`` is defined there.

A name moved out of a module but left in its ``__all__`` breaks only
``from policytree.<module> import *``, which nothing else in the suite runs.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import policytree

MODULES = sorted(m.name for m in pkgutil.iter_modules(policytree.__path__))


def test_the_package_lists_its_library_modules():
    assert {"correction", "interop", "oracle", "relations", "ruleio", "topology"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"policytree.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "a name listed twice"
    assert [n for n in exported if not hasattr(module, n)] == []
