"""The benchmark tracer's hooks still find every function they wrap.

``perfbench/spans.py`` wraps ``policytree`` functions by module and name
(``policytree.intra.relate``, ``policytree.cli.correct_ruleset``, ...).
A renamed or deleted name would only show when ``perfbench/run.py
--trace 1`` is run; here it fails the suite instead.  The benchmark's
referee workload also names each policy twice, once through the names that
``oracle`` keeps for it; both must be the one policy.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import policytree.cli
from policytree.model import ConflictPolicy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    original = policytree.cli.correct_ruleset
    tracer = spans.Tracer()
    try:
        spans.install(tracer, workloads.__name__)
        patched = list(tracer._patched)
        assert policytree.cli.correct_ruleset.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert policytree.cli.correct_ruleset is original
    for module, attr, fn in patched:
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"


def test_the_referee_workload_checks_each_tree_under_its_own_policy(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert [a for a, _ in workloads._REFEREE_POLICIES] == list(ConflictPolicy)
    for a, b in workloads._REFEREE_POLICIES:
        assert a is b
