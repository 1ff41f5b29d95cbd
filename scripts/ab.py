#!/usr/bin/env python3
"""Interleaved A/B timing of two policytree source trees in one process.

Each tree's ``src/policytree`` is loaded under its own package name
(``policytree_a``, ``policytree_b``), and ``perfbench/workloads.py`` is
loaded once against each.  Every round runs one workload's verdict loop
over the same seeded inputs for both trees in turn, swapping which goes
first each round, and times each loop in process CPU time.  One process
and alternation within a round cancel most of the host drift that
separate benchmark runs see.

Prints each round's B/A ratio of CPU time, their median, and how many
rounds each side won; then each side's ``rules_out`` and outputs sha256
from its first round, computed as ``perfbench/run.py`` does, so they can
be compared with that script's output at the same seed.

Usage, from the root of the repository:

    python3 scripts/ab.py A_TREE B_TREE --workload pair-interop --seed 23 --rounds 16

``A_TREE`` and ``B_TREE`` are repository roots (a parent commit and a
change, say).  The workloads and generator come from this repository's
``perfbench`` directory, which neither is asked to have.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _exec(name: str, path: Path, search: list[str] | None = None):
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(tree: Path, tag: str):
    """``workloads.py`` bound to the ``policytree`` of ``tree``, loaded as ``policytree_<tag>``.

    While ``workloads.py`` runs its imports, ``policytree`` and each of its
    modules are aliases of that tree's copy; the aliases are removed after.
    """
    package = f"policytree_{tag}"
    source = tree / "src" / "policytree"
    _exec(package, source / "__init__.py", [str(source)])
    for path in sorted(source.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{package}.{path.stem}")
    aliases = {
        "policytree" + name[len(package):]: module
        for name, module in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    }
    if any(name in sys.modules for name in aliases):
        sys.exit("error: a module named policytree is already loaded")
    sys.modules.update(aliases)
    try:
        return _exec(f"workloads_{tag}", PERFBENCH / "workloads.py")
    finally:
        for name in aliases:
            del sys.modules[name]


def timed_loop(workloads, workload, inputs) -> tuple[float, list]:
    """CPU seconds of one verdict on each input, in order, and the verdicts."""
    gc.collect()
    t0 = time.process_time()
    raws = [workload.verdict(inp, workloads.Untraced) for inp in inputs]
    return time.process_time() - t0, raws


def summary(workload, inputs, raws) -> tuple[int, str]:
    """``rules_out`` and the outputs sha256 of one loop, as ``perfbench/run.py`` prints them."""
    outcomes = [workload.record(inp, raw) for inp, raw in zip(inputs, raws)]
    problems = [f"{inp.name}: {p}" for inp, o in zip(inputs, outcomes) for p in o.problems]
    if problems:
        sys.exit("error: " + "; ".join(problems[:3]))
    h = hashlib.sha256()
    for name, outcome in sorted((inp.name, o) for inp, o in zip(inputs, outcomes)):
        h.update(f"{name} {outcome.digest}\n".encode())
    return sum(o.rules_out for o in outcomes), h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_tree", type=Path)
    ap.add_argument("b_tree", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=12)
    args = ap.parse_args()

    sys.path.insert(0, str(PERFBENCH))
    trees = {"a": args.a_tree, "b": args.b_tree}
    sides = {tag: load_workloads(tree.resolve(), tag) for tag, tree in trees.items()}
    if args.workload not in sides["a"].WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = {tag: w.WORKLOADS[args.workload] for tag, w in sides.items()}

    with tempfile.TemporaryDirectory(prefix=f"ab-{args.workload}-") as work:
        warm_up, *inputs = workload["a"].prepare(args.seed, Path(work))
        print(f"{args.workload}, seed {args.seed}: {len(inputs)} inputs, {args.rounds} rounds")
        for tag in sides:
            workload[tag].verdict(warm_up, sides[tag].Untraced)  # not timed
        ratios, summaries = [], {}
        for r in range(args.rounds):
            cpu = {}
            for tag in ("a", "b") if r % 2 == 0 else ("b", "a"):
                cpu[tag], raws = timed_loop(sides[tag], workload[tag], inputs)
                if tag not in summaries:
                    summaries[tag] = summary(workload[tag], inputs, raws)
                del raws
            ratios.append(cpu["b"] / cpu["a"])
            print(f"  round {r + 1:2d}: A {cpu['a']:.3f} s, B {cpu['b']:.3f} s, "
                  f"B/A {ratios[-1]:.3f}")
    b_wins = sum(ratio < 1 for ratio in ratios)
    print(f"B/A median {statistics.median(ratios):.3f}; "
          f"B faster in {b_wins} of {len(ratios)} rounds, A faster in {len(ratios) - b_wins}")
    for tag in sides:
        rules_out, digest = summaries[tag]
        print(f"{tag.upper()}: rules_out {rules_out}, outputs sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
