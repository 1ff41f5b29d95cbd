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
be compared with that script's output at the same seed.  Exits 1 when the
two sides' outputs differ.

``--import-rounds N`` times ``import policytree.cli`` instead, in N fresh
interpreters per tree, alternating which tree goes first.  Each runs with
``PYTHONPATH`` set to its tree's ``src`` and the rest of the environment
inherited, as the benchmark's ``setup_s`` probe does.  It prints whether
the probes write bytecode, which they inherit from the environment
(``PYTHONDONTWRITEBYTECODE``): only when they do not does each import
include compiling ``src/``.  Then each side's median and quartiles, B/A of
the medians, and how many rounds B won.

Usage, from the root of the repository:

    python3 scripts/ab.py A_TREE B_TREE --workload pair-interop --seed 23 --rounds 16
    python3 scripts/ab.py A_TREE B_TREE --import-rounds 20

``A_TREE`` and ``B_TREE`` are repository roots (a parent commit and a
change, say).  The workloads and generator come from this repository's
``perfbench`` directory, which neither is asked to have.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import policytree.cli; "
    "print(time.perf_counter() - t)"
)


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


def probe(tree: Path, code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports from ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        cwd=tree,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.strip()


def import_time(tree: Path) -> float:
    """Seconds to import ``policytree.cli`` from ``tree`` in a fresh interpreter."""
    return float(probe(tree, IMPORT_PROBE))


def compare_imports(trees: dict[str, Path], rounds: int) -> None:
    """Time the import in ``rounds`` fresh interpreters per tree, alternating which goes first."""
    times: dict[str, list[float]] = {"a": [], "b": []}
    for r in range(rounds):
        for tag in ("a", "b") if r % 2 == 0 else ("b", "a"):
            times[tag].append(import_time(trees[tag]))
    print(f"import policytree.cli, {rounds} fresh interpreters per tree")
    if probe(trees["a"], "import sys; print(sys.flags.dont_write_bytecode)") != "0":
        print("the probes write no bytecode: each import includes compiling src/")
    else:
        print("the probes write bytecode: only a tree's first import may compile src/")
    for tag, samples in times.items():
        q1, median, q3 = statistics.quantiles(samples, n=4)
        print(f"{tag.upper()}: median {median * 1e3:.1f} ms [{q1 * 1e3:.1f}, {q3 * 1e3:.1f}]")
    b_wins = sum(b < a for a, b in zip(times["a"], times["b"]))
    ratio = statistics.median(times["b"]) / statistics.median(times["a"])
    print(f"B/A median {ratio:.3f}; B faster in {b_wins} of {rounds} rounds")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_tree", type=Path)
    ap.add_argument("b_tree", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--import-rounds", type=int, metavar="N")
    args = ap.parse_args()
    if args.import_rounds is not None and args.import_rounds < 2:
        ap.error("--import-rounds needs at least 2 rounds")
    if args.import_rounds is None and args.workload is None:
        ap.error("give --workload, --import-rounds, or both")
    if args.workload is not None and args.seed is None:
        ap.error("--workload needs --seed")

    trees = {"a": args.a_tree.resolve(), "b": args.b_tree.resolve()}
    if args.import_rounds is not None:
        compare_imports(trees, args.import_rounds)
    if args.workload is None:
        return 0

    sys.path.insert(0, str(PERFBENCH))
    sides = {tag: load_workloads(tree, tag) for tag, tree in trees.items()}
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
    differ = [
        name
        for name, a, b in zip(("rules_out", "outputs sha256"), summaries["a"], summaries["b"])
        if a != b
    ]
    if differ:
        print(f"error: A and B differ in {' and '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
