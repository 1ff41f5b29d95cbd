#!/usr/bin/env python3
"""The policytree benchmark: one workload, one seed, one run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fw-audit --seed 1 --seconds 35 --trace 0

Workloads: ``fw-audit``, ``pair-interop`` and ``referee`` (see
``workloads.py`` and ``layers.json``); the per-layer metric names and
units come from ``BENCHMARK.json``.  The load is a closed loop with one
client: one process, one thread, and each input starts only after the
previous verdict returned.  Inputs are generated from ``--seed`` into a
working directory under ``.perfbench/`` before timing starts.

With ``--trace 0`` the run goes through the inputs, and round again, for
``--seconds`` seconds, checks every output, and prints the end-to-end
metrics.  With ``--trace 1`` it runs half of the inputs untraced and
traced, and prints per-layer self times and work counts, the self time of
each module, and the tracing overhead.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "policytree" / "__init__.py").is_file():
        print(f"error: no policytree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    import policytree
    from workloads import WORKLOADS

    if Path(policytree.__file__).resolve().parent != SRC / "policytree":
        print(f"error: imported policytree from {policytree.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workload = WORKLOADS[args.workload]

    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        warm_up, *inputs = workload.prepare(args.seed, work)
        print(f"policytree benchmark: workload {args.workload}, seed {args.seed}, "
              f"trace {args.trace}; {bench.machine()}")
        print(f"  {len(inputs)} inputs, {len(inputs) // len(workload.sizes)} of each size: "
              f"{', '.join(inp.size for inp in inputs[: len(workload.sizes)])} rules")
        if args.trace:
            result = bench.traced(workload, warm_up, inputs, per_layer)
        else:
            result = bench.end_to_end(workload, warm_up, inputs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
