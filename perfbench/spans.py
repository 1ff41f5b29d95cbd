"""Per-layer spans for the traced benchmark run.

The program is not instrumented.  Instead, :func:`install` replaces public
functions of each ``policytree`` module at the place they are imported
(``policytree.cli.detect_intra``, ``policytree.correction.build_rdt``,
``policytree.intra.relate`` and so on) with wrappers that time the call.
:func:`uninstall` puts the originals back.

Each wrapper records a span.  A span's self time is its duration minus the
time covered by the spans it caused, so ``intra.detect_s`` does not include
``relations.relate_s``.  ``relate`` runs tens of thousands of times per
input, so it gets a count and a time rather than a span record.  Work
counts are taken at the same boundaries; counting that has to walk a tree
is kept out of every span's time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

def _tree_nodes(tree) -> int:
    count, todo = 0, [tree.root]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(e.child for e in node.edges if e.child is not None)
    return count


def tree_regions(tree) -> int:
    count, todo = 0, [tree.root]
    while todo:
        node = todo.pop()
        for e in node.edges:
            if e.child is None:
                count += 1
            else:
                todo.append(e.child)
    return count


class Tracer:
    """Self times and work counts, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child = [0.0]  # time covered by child spans, one slot per open span
        self._open = ["(none)"]  # names of the open spans
        self.relate_by_caller: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, seconds
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _untracked(self, fn, *args) -> None:
        # bookkeeping between spans: charged to no layer
        t0 = perf_counter()
        fn(*args)
        self._child[-1] += perf_counter() - t0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a span named ``name`` and return its result."""
        self._child.append(0.0)
        self._open.append(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._open.pop()
            self.self_s[name] += dt - self._child.pop()
            self._child[-1] += dt

    def span(self, name: str, fn, before=None, after=None):
        """A wrapper of ``fn`` that records a span and its work counts.

        ``before(counts, args)`` runs ahead of the call and ``after(counts,
        args, result)`` after it; neither is charged to any span.
        """

        def wrapped(*args, **kwargs):
            if before is not None:
                self._untracked(before, self.counts, args)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                self._untracked(after, self.counts, args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def counted(self, name: str, fn):
        """A wrapper that adds only a call count and a time (for ``relate``).

        Calls and time are also summed by the span that made the call.
        """
        counts, child, open_spans = self.counts, self._child, self._open
        calls, seconds = f"{name}_calls", f"{name}_s"

        def wrapped(a, b, schema):
            t0 = perf_counter()
            result = fn(a, b, schema)
            dt = perf_counter() - t0
            counts[calls] += 1
            self.self_s[seconds] += dt
            by_caller = self.relate_by_caller[open_spans[-1]]
            by_caller[0] += 1
            by_caller[1] += dt
            child[-1] += dt
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installing --------------------------------------------------------

    def patch(self, module_name: str, attr: str, wrapper_of) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper_of(original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.self_s)
        out.update(self.counts)
        out["intra.gate_pairs"] = self.relate_by_caller.get("intra.gate_s", (0, 0.0))[0]
        return out


def install(tracer: Tracer, bench_module: str) -> None:
    """Wrap every traced function where it is imported.

    ``policytree`` modules import most of them; the referee workload calls
    ``parse_ruleset``, ``build_rdt``, ``endpoint_space`` and ``equivalence``
    itself, so those are wrapped in ``bench_module`` too.
    """

    def span(name, before=None, after=None):
        return lambda fn: tracer.span(name, fn, before, after)

    def add(counts, key, n):
        counts[key] += n

    for module in ("policytree.intra", "policytree.interop", "policytree.rdt"):
        tracer.patch(module, "relate", lambda fn: tracer.counted("relations.relate", fn))

    tracer.patch(
        "policytree.cli",
        "detect_intra",
        span(
            "intra.detect_s",
            after=lambda c, a, r: (
                add(c, "intra.pairs", len(a[0].rules) * (len(a[0].rules) - 1) // 2),
                add(c, "intra.findings", len(r)),
            ),
        ),
    )
    tracer.patch("policytree.cli", "is_relevant_ruleset", span("intra.gate_s"))
    tracer.patch(
        "policytree.cli",
        "detect_inter",
        span(
            "interop.detect_s",
            after=lambda c, a, r: (
                add(c, "interop.pairs", len(a[0].rules) * len(a[1].rules)),
                add(c, "interop.findings", len(r)),
            ),
        ),
    )
    for module in ("policytree.cli", "policytree.correction"):
        tracer.patch(module, "union_schema", span("interop.extend_s"))
        tracer.patch(module, "extend_schema", span("interop.extend_s"))
    for module in ("policytree.cli", "policytree.correction", bench_module):
        tracer.patch(
            module,
            "build_rdt",
            span("rdt.build_s", after=lambda c, a, r: add(c, "rdt.rules_inserted", len(a[0].rules))),
        )
    tracer.patch(
        "policytree.rdt",
        "normalize",
        span(
            "dtree.normalize_s",
            before=lambda c, a: add(c, "rdt.nodes_before_normalize", _tree_nodes(a[0])),
            after=lambda c, a, r: add(c, "dtree.nodes_out", _tree_nodes(r)),
        ),
    )
    tracer.patch(
        "policytree.correction",
        "tree_to_rules",
        span("dtree.to_rules_s", after=lambda c, a, r: add(c, "dtree.regions_out", len(r.rules))),
    )
    tracer.patch("policytree.cli", "correct_ruleset", span("correction.ruleset_s"))
    tracer.patch(
        "policytree.cli",
        "correct_pair",
        span(
            "correction.pair_s",
            after=lambda c, a, r: add(c, "correction.regions_global", tree_regions(r.rdt.tree)),
        ),
    )
    tracer.patch("policytree.correction", "project", span("correction.project_s"))
    for module in ("policytree.cli", bench_module):
        tracer.patch(
            module,
            "parse_ruleset",
            span("ruleio.parse_s", after=lambda c, a, r: add(c, "ruleio.rules_parsed", len(r.rules))),
        )
    for attr in ("save_ruleset", "serialize_ruleset"):
        tracer.patch(
            "policytree.cli",
            attr,
            span("ruleio.write_s", after=lambda c, a, r: add(c, "ruleio.rules_written", len(a[-1].rules))),
        )
    for attr in ("render_text", "render_json"):
        tracer.patch("policytree.cli", attr, span("report.render_s"))
    tracer.patch(
        bench_module,
        "endpoint_space",
        span("oracle.space_s", after=lambda c, a, r: add(c, "oracle.points", r.size())),
    )
    tracer.patch(
        bench_module,
        "equivalence",
        span(
            "oracle.equiv_s",
            after=lambda c, a, r: (
                add(c, "oracle.points_checked", a[3].size()),
                add(c, "oracle.mismatches", len(r)),
            ),
        ),
    )
