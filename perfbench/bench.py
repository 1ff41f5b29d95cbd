"""Measuring one workload: the timed loop, its metrics, and the traced run.

``run.py`` is the entry point; it finds the sources and calls
:func:`end_to_end` or :func:`traced`.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy

import spans
import workloads
from workloads import Outcome, Untraced

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_INTERPRETERS = 11
REPEATS = 3  # inputs that run at least twice, whatever --seconds says
MAX_ROUNDS = 50

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import policytree.cli; "
    "print(time.perf_counter() - t)"
)


def import_time() -> float:
    """Seconds to import ``policytree.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=SRC.parent,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


def tail(samples: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least 10 samples beyond it.

    Returns the percentile, its nearest-rank value and the samples beyond
    it; with 10 samples or fewer it is the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    pct = 100 * (n - 10) // n if n > 10 else 100
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


class Log:
    """Every verdict of a run: its time and what ``record`` kept of it."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.times: dict[str, list[float]] = defaultdict(list)
        self.verdicts: list[tuple] = []  # (input, outcome), in run order

    def run(self, inp, tracer) -> None:
        t0 = perf_counter()
        try:
            raw = self.workload.verdict(inp, tracer)
        except Exception as exc:  # a verdict that raises is a failed input
            raw = exc
        self.times[inp.name].append(perf_counter() - t0)
        if isinstance(raw, Exception):
            outcome = Outcome("", 0, [f"verdict raised {raw!r}"])
        else:
            outcome = self.workload.record(inp, raw)
        self.verdicts.append((inp, outcome))

    def check(self) -> tuple[int, int, list[str]]:
        """Check every verdict: (attempted, failed, the first problems).

        The output files of an input are checked once, after its last
        verdict; every verdict on an input must leave the same digest.
        """
        problems_of: dict[str, list[str]] = {}
        for inp, outcome in reversed(self.verdicts):
            if inp.name in problems_of or outcome.problems:
                continue
            try:
                problems_of[inp.name] = self.workload.check(inp, outcome)
            except Exception as exc:  # an unreadable output fails its input
                problems_of[inp.name] = [f"check raised {exc!r}"]
        first_digest: dict[str, str] = {}
        failed, problems = 0, []
        for inp, outcome in self.verdicts:
            found = outcome.problems + problems_of.get(inp.name, [])
            if first_digest.setdefault(inp.name, outcome.digest) != outcome.digest:
                found = found + ["differs from an earlier verdict on the same input"]
            if found:
                failed += 1
                problems.extend(f"{inp.name}: {p}" for p in found[:2])
        return len(self.verdicts), failed, problems

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, outcome in sorted({i.name: o for i, o in self.verdicts}.items()):
            h.update(f"{name} {outcome.digest}\n".encode())
        return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine() -> str:
    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, {platform.machine()}"
    )


def show(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<28} {text:>14} {unit:<6} {note}".rstrip())


def end_to_end(workload, warm_up, inputs, seconds: float) -> dict:
    """Rounds over ``inputs`` until ``seconds`` have passed.

    The first round runs every input; the run goes on, in the same order,
    until ``seconds`` have passed and at least ``REPEATS`` inputs ran twice.
    An input's verdict time is the mean of its runs.  Between verdicts, an
    :func:`import_time` interpreter starts each time another
    ``1 / SETUP_INTERPRETERS`` of ``seconds`` has passed, so that the
    ``setup_s`` median sees the same host as the verdict times do.
    """
    import_time()  # not timed: byte-code caches now exist, as for any installed tool
    setup: list[float] = []
    untraced = Untraced()
    workload.verdict(warm_up, untraced)  # not timed
    log = Log(workload)
    n = len(inputs)
    started = perf_counter()
    for k in range(MAX_ROUNDS * n):
        elapsed = perf_counter() - started
        if len(setup) < min(SETUP_INTERPRETERS, SETUP_INTERPRETERS * elapsed / seconds):
            setup.append(import_time())
        if k >= n + REPEATS and elapsed >= seconds:
            break
        log.run(inputs[k % n], untraced)
    while len(setup) < SETUP_INTERPRETERS:
        setup.append(import_time())
    setup_s = statistics.median(setup)
    rss = peak_rss_mb()
    attempted, failed, problems = log.check()
    per_input = [statistics.fmean(log.times[inp.name]) for inp in inputs]
    p50 = statistics.median(per_input)
    pct, tail_s, beyond = tail(per_input)
    ips = n / sum(per_input)
    rules_out = sum(outcome.rules_out for _, outcome in log.verdicts[:n])

    print(f"  {len(log.verdicts)} verdicts on {n} inputs; an input's verdict time is the mean of its runs")
    show("setup_s", setup_s, "s", f"median of {len(setup)} interpreters, "
         f"range {min(setup):.3f}-{max(setup):.3f}")
    show("inputs_per_s", ips, "1/s", f"{n} inputs / sum of their verdict times")
    show("verdict_p50_s", p50, "s", f"n={n}")
    show("verdict_tail_s", tail_s, "s", f"p{pct}, {beyond} beyond, n={n}")
    show("peak_rss_mb", rss, "MB")
    show("rules_out", rules_out, "count", f"the first verdict on each of {n} inputs")
    show("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} verdicts")
    print(f"  outputs sha256 {log.digest()}")
    for p in problems[:10]:
        print(f"  problem: {p}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "inputs_per_s": (ips, "1/s"),
            "verdict_p50_s": (p50, "s"),
            "verdict_tail_s": (tail_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "rules_out": (rules_out, "count"),
        },
    }


def traced(workload, warm_up, inputs, per_layer: dict[str, str]) -> dict:
    """Each input of the first half once untraced and once traced.

    The two alternate which goes first, input by input, so that neither
    gains from running second.
    """
    untraced, tracer = Untraced(), spans.Tracer()
    workload.verdict(warm_up, untraced)  # not timed
    plain, log = Log(workload), Log(workload)
    inputs = inputs[: len(inputs) // 2]
    for k, inp in enumerate(inputs):
        for traced_now in (False, True) if k % 2 == 0 else (True, False):
            if traced_now:
                spans.install(tracer, workloads.__name__)
                try:
                    log.run(inp, tracer)
                finally:
                    tracer.uninstall()
            else:
                plain.run(inp, untraced)
    plain.verdicts += log.verdicts
    attempted, failed, problems = plain.check()

    wall = sum(t for ts in log.times.values() for t in ts)
    ips_plain = len(inputs) / sum(t for ts in plain.times.values() for t in ts)
    ips_traced = len(inputs) / wall
    layer = tracer.metrics()
    layer["trace.overhead_frac"] = overhead = 1 - ips_traced / ips_plain
    if layer.get("oracle.equiv_s"):
        layer["oracle.points_per_s"] = layer["oracle.points_checked"] / layer["oracle.equiv_s"]

    print(f"  {len(inputs)} inputs, each run untraced and traced")
    print(f"  inputs_per_s untraced {ips_plain:.4g}, traced {ips_traced:.4g}: "
          f"tracing overhead {100 * overhead:.1f}%")
    print("  self time by module (share of traced verdict time):")
    # a metric's layer is the policytree module named before its dot
    by_module = dict.fromkeys((n.split(".")[0] for n in per_layer if not n.startswith("trace.")), 0.0)
    for name, value in tracer.self_s.items():
        by_module[name.split(".")[0]] += value
    for module, seconds in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"    {module:<12} {seconds:9.4f} s  {100 * seconds / wall:5.1f}%")
    print(f"    {'(no span)':<12} {wall - sum(by_module.values()):9.4f} s")
    print("  relations.relate_s by calling span (share of traced verdict time):")
    for caller, (calls, seconds) in sorted(tracer.relate_by_caller.items(), key=lambda kv: -kv[1][1]):
        print(f"    {caller:<22} {seconds:9.4f} s  {100 * seconds / wall:5.1f}%  {calls} calls")
    print("  per-layer metrics (totals over the traced inputs):")
    metrics = {}
    for name, unit in per_layer.items():
        metrics[name] = (layer.get(name, 0), unit)
        show(name, *metrics[name])
    for p in problems[:10]:
        print(f"  problem: {p}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}
