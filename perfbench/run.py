#!/usr/bin/env python3
"""Benchmark of the Snapify reproduction: host cost and simulated results.

Run from the repository root::

    python3 perfbench/run.py --workload paper_eval --seed 0 --seconds 34 --trace 0
    python3 perfbench/run.py --selfcheck

``--trace 0`` repeats the workload's whole input while another pass fits in
``--seconds`` (at least once) and reports the end-to-end metrics of ``BENCHMARK.json`` (medians
over passes). ``--trace 1`` runs the input once untraced and once under
spans, layer counters and cProfile, and reports the per-layer metrics.
Either way the last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything else — every simulated cell, every failure, the spans — goes to
``.perfbench/<workload>-seed<N>-trace<T>.json`` in the checkout.
See ``perfbench/NOTES.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional

from probe import nearest_rank

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7
SUBPROCESS_TIMEOUT = 150
#: Units of host measurements; every other metric must repeat exactly.
HOST_UNITS = ("s", "ms", "us", "MB")


def _bootstrap() -> None:
    """Import the program from this checkout, or fail loudly."""
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(1, path)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    origin = os.path.abspath(getattr(repro, "__file__", None) or "")
    if not origin.startswith(os.path.join(SRC, "")):
        sys.exit(f"perfbench: imported repro from {origin}, not from {SRC}")
    if not os.path.isdir(os.path.join(ROOT, "benchmarks")):
        sys.exit(f"perfbench: figure drivers missing under {ROOT}/benchmarks")


def _spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> List[float]:
    """Wall seconds of fresh interpreters that import the workload and boot
    its first testbed, then exit."""
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=SUBPROCESS_TIMEOUT, check=False,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-2000:]}")
    return walls


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten items beyond it (100 —
    the maximum — when there are ten items or fewer)."""
    return 100 if n <= 10 else math.floor(100 * (n - 10) / n)


def item_walls(passes: List[Any]) -> Dict[str, float]:
    """Per item, the median host wall over passes (items repeat per pass).

    A workload whose pass is a single item (fleet_rack32) has one sample
    per pass instead, so its tail is the slowest pass, not a copy of p50.
    """
    keys = passes[0].item_wall.keys()
    if len(keys) == 1:
        return {f"{k}#{i}": p.item_wall[k] for i, p in enumerate(passes) for k in keys}
    return {k: statistics.median(p.item_wall[k] for p in passes) for k in keys}


def end_to_end(passes, walls, setup, rss_mb, totals) -> Dict[str, Any]:
    """The end-to-end metrics; ``totals`` are the probe's per-pass sums."""
    first = passes[0]
    items = list(item_walls(passes).values())
    pct = tail_percentile(len(items))
    ok = first.attempted - len(first.failures)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "item_wall_ms.p50": 1000 * statistics.median(items),
        "item_wall_ms.tail": 1000 * nearest_rank(items, pct),
        "ok_frac": ok / first.attempted,
        "sim_time_s": totals["sim_time_s"],
        "sim_op_s": totals["sim_op_s"],
        "_tail_label": f"p{pct} of {len(items)} items",
    }


def per_layer(tracer, untraced_wall, traced_wall, traced, totals, self_s) -> Dict[str, float]:
    """Per-layer values; a layer the workload never reaches reads 0."""
    c = tracer.counts

    def frac(num, den):
        return c[num] / c[den] if c[den] else 0.0

    def mean(prefix):
        return frac(f"{prefix}.sum", f"{prefix}.count")

    events = totals["events"]
    out: Dict[str, float] = defaultdict(float, c)
    out.update(traced.metrics)
    out.update(tracer.usecase_counts())
    out.update(tracer.peaks)
    out.update({f"{layer}.self_s": seconds for layer, seconds in self_s.items()})
    out.update({
        "sim.events": events,
        "sim.host_us_per_event": 1e6 * untraced_wall / events if events else 0.0,
        "snapify.fleet.wait_sim_s.maintenance.mean": mean("snapify.fleet.wait.maintenance"),
        "snapify.fleet.wait_sim_s.swap.mean": mean("snapify.fleet.wait.swap"),
        "snapify.fleet.wait_sim_s.background.mean": mean("snapify.fleet.wait.background"),
        "snapify.fleet.service_sim_s.mean": mean("snapify.fleet.service"),
        "snapify_io.first_try_frac": frac("snapify_io.first_try", "snapify_io.transfers"),
        "mpi.replica_delivery_frac": frac("mpi.replica_delivered", "mpi.replica_copies"),
        "sched.useful_iter_frac": frac("sched.iterations_useful", "sched.iterations_executed"),
        "check.unraisable": len(traced.unraisable),
        "obs.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import gc

    from probe import Probe, Tracer
    from workloads import WORKLOADS

    spec = _spec()
    setup = measure_setup(name, seed)
    passes, walls = [], []
    report: Dict[str, Any] = {"workload": name, "seed": seed, "trace": int(trace)}
    with Probe() as probe:
        workload = WORKLOADS[name](seed, probe)

        def one_pass():
            seen = len(probe.unraisable)
            t0 = time.perf_counter()
            p = workload.run_pass()
            gc.collect()  # finalize orphaned generators while the hook is on
            walls.append(time.perf_counter() - t0)
            p.unraisable = probe.unraisable[seen:]
            passes.append(p)

        start = time.perf_counter()
        one_pass()
        # The high-water mark of one pass: later passes reuse the memory, so
        # reading it here keeps it independent of how many passes fit.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Start another pass only if it should end within the time budget.
        while not trace and time.perf_counter() - start + walls[-1] <= seconds:
            one_pass()
        totals = {k: v / len(passes) for k, v in probe.totals.items()}
        if trace:
            probe.totals.clear()
            tracer = Tracer(probe)
            tracer.install()
            seen = len(probe.unraisable)
            t0 = time.perf_counter()
            tracer.profile.enable()
            try:
                traced = workload.run_pass()
                gc.collect()
            finally:
                tracer.profile.disable()
            traced_wall = time.perf_counter() - t0
            traced.unraisable = probe.unraisable[seen:]
            passes.append(traced)

    first = passes[0]
    problems = []
    for i, p in enumerate(passes, 1):
        problems.extend(p.problems)
        if p.sim != first.sim:
            label = "traced pass" if trace and i == len(passes) else f"pass {i}"
            problems.append(f"{label}: simulated results differ from pass 1")

    if trace:
        self_s = tracer.self_time_by_layer(SRC, (HERE, os.path.join(ROOT, "benchmarks")))
        layer_values = per_layer(tracer, walls[0], traced_wall, passes[-1], probe.totals, self_s)
        values = {m["name"]: layer_values[m["name"]] for m in spec["per_layer"]}
        report["spans"] = tracer.spans
        kind = "per_layer"
    else:
        values = end_to_end(passes, walls, setup, rss_mb, totals)
        report["tail_percentile"] = values.pop("_tail_label")
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = [m for m in units if m not in values]
    if missing:
        problems.append(f"metrics not produced: {missing}")
    report.update({
        "passes": len(walls), "pass_wall_s": walls, "setup_s": setup,
        "attempted": first.attempted, "failed": len(first.failures),
        "failures": first.failures,
        "failure_classes": dict(Counter(first.failures.values())),
        "unraisable": first.unraisable, "problems": problems,
        "workload_metrics": first.metrics, "sim": first.sim,
        "sim_totals_per_pass": totals, "item_wall_s": item_walls(passes[:len(walls)]),
        "metrics": {m: {"value": float(values[m]), "unit": u}
                    for m, u in units.items() if m in values},
        "correct": not problems,
    })
    return report


def write_report(report: Dict[str, Any]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    return path


def print_report(report: Dict[str, Any], path: str) -> None:
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['passes']} pass(es), pass walls "
          + ", ".join(f"{w:.3f}s" for w in report["pass_wall_s"]))
    print(f"items: {report['attempted']} attempted, {report['failed']} failed "
          f"{report['failure_classes']}; unraisable: {len(report['unraisable'])}")
    for key, cls in sorted(report["failures"].items()):
        print(f"  failed: {key} ({cls})")
    for msg in report["unraisable"]:
        print(f"  unraisable: {msg[:200]}")
    if "tail_percentile" in report:
        print(f"item_wall_ms.tail is the {report['tail_percentile']}")
    for name, value in sorted(report["workload_metrics"].items()):
        print(f"  {name} = {value!r}")
    for name, value in report["sim"].get("cells", {}).items():
        print(f"  cell {name} = {value!r}")
    for name, m in report["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for msg in report["problems"]:
        print(f"PROBLEM: {msg}")
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------

def _invoke(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return {"result": result, "report": json.load(fh)}


def selfcheck(seed: int) -> int:
    """Assert the benchmark's own contract; return an exit code."""
    spec = _spec()
    failures: List[str] = []

    def check(cond: bool, msg: str) -> None:
        print(("ok   " if cond else "FAIL ") + msg, flush=True)
        if not cond:
            failures.append(msg)

    for w in spec["workloads"]:
        name = w["name"]
        a = _invoke(name, seed, 0)
        b = _invoke(name, seed, 0)
        t = _invoke(name, seed, 1)
        u = _invoke(name, seed, 1)
        d = _invoke(name, seed + 1, 0)
        for run, kind in ((a, "end_to_end"), (t, "per_layer")):
            got = run["result"]["metrics"]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            check(set(got) == set(want) and all(got[k]["unit"] == u for k, u in want.items()),
                  f"{name}: every {kind} metric emitted with its unit")
        check(a["result"]["correct"] and t["result"]["correct"] and d["result"]["correct"],
              f"{name}: correctness checks pass (seeds {seed}, {seed + 1}, traced)")
        same = ("sim", "workload_metrics", "attempted", "failed", "failures",
                "sim_totals_per_pass")
        check(all(a["report"][k] == b["report"][k] for k in same),
              f"{name}: simulated results and counts repeat exactly for seed {seed}")
        for m in ("sim_time_s", "sim_op_s", "ok_frac"):
            check(a["result"]["metrics"][m] == b["result"]["metrics"][m],
                  f"{name}: {m} repeats exactly for seed {seed}")
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] not in HOST_UNITS and not m["name"].startswith("obs.")]
        differ = [m for m in counts
                  if t["result"]["metrics"][m] != u["result"]["metrics"][m]]
        check(not differ, f"{name}: per-layer counts repeat exactly for seed {seed}"
              + (f" (differ: {differ})" if differ else ""))
        check(a["report"]["sim"] == t["report"]["sim"],
              f"{name}: tracing does not perturb the simulation")
        if name != "paper_eval":
            check(a["report"]["sim"] != d["report"]["sim"],
                  f"{name}: seed {seed + 1} changes the schedule")
    print(f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="time budget of the measured phase (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="assert the benchmark's own contract and exit")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _bootstrap()
    if args.selfcheck:
        return selfcheck(args.seed)
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].boot(args.seed)
        return 0
    seconds = _spec()["run_seconds"] if args.seconds is None else args.seconds
    report = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print_report(report, write_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
