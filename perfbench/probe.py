"""Instrumentation installed from outside the program.

Everything here patches *public* names of the ``repro`` package for the
duration of one measured phase and restores them afterwards; nothing under
``src/`` knows it is being measured. Two levels exist:

* :class:`Probe` — always on. It notices every :class:`Simulator` a workload
  creates and, when the workload says an item ended, reads what the
  simulation left behind (kernel events, simulated end time, Snapify
  operations). Its per-run cost is a handful of attribute reads per item.
* :class:`Tracer` — the traced run only. It adds spans around each layer's
  public entry points, counting/timing wrappers, the registry roll-up and
  a cProfile session whose self time is attributed to ``src/repro/<layer>``.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import itertools
import math
import os
import pstats
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Snapify operation phases (``OperationResult.phases`` keys) per sim metric.
#: ``drained`` (paused, capture not yet started) counts as pause.
PHASE_GROUPS = {
    "pause": ("pausing", "drained"),
    "capture": ("capturing", "capturing_delta"),
    "transfer": ("transferring", "retrying", "replicating"),
}

#: Snapify use cases and the kind each counts as in ``snapify.ops.<kind>``;
#: ``capture_sequence`` is the fleet's checkpoint cycle.
USECASES = {
    "checkpoint_offload_app": "checkpoint",
    "capture_sequence": "checkpoint",
    "restart_offload_app": "restart",
    "snapify_migration": "migrate",
    "snapify_swapout": "swapout",
    "snapify_swapin": "swapin",
}

#: Layers the profiler attributes self time to: the packages of src/repro.
LAYERS = ("sim", "hw", "osim", "scif", "coi", "blcr", "snapify", "snapify_io",
          "mpi", "sched", "check", "obs")


class Patches:
    """Replace attributes and put every one of them back on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, wrap: Callable[[Any], Any]) -> None:
        """Wrap a module-level function everywhere ``from x import f`` copied
        it inside the ``repro`` package, so every caller sees the wrapper."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = wrap(original)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(mod, "__dict__", {}).get(attr) is original:
                self.set(mod, attr, wrapper)

    def method(self, cls: type, attr: str, wrap: Callable[[Any], Any]) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self.set(cls, attr, staticmethod(wrap(raw.__func__)))
        else:
            self.set(cls, attr, wrap(raw))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def nearest_rank(values: List[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def event_count(sim: Any) -> int:
    """Kernel events scheduled so far (reads the tie-break counter once)."""
    nxt = next(sim._seq)
    return nxt[1] if isinstance(nxt, tuple) else nxt


class Probe:
    """Always-on, per-item readout of the simulations a workload runs."""

    def __init__(self) -> None:
        self.patches = Patches()
        self.sims: List[Any] = []
        self.current_sim: Any = None
        self.unraisable: List[str] = []
        self._old_hook = None
        self.totals: Dict[str, float] = defaultdict(float)
        #: Extra per-simulation readers (the traced run's roll-up).
        self.extra: List[Callable[[Any], None]] = []

    # -- lifetime ------------------------------------------------------------
    def __enter__(self) -> "Probe":
        from repro.sim.kernel import Simulator

        def wrap_init(init):
            def __init__(sim, *args, **kwargs):
                init(sim, *args, **kwargs)
                self.sims.append(sim)
                self.current_sim = sim
            return __init__

        self.patches.method(Simulator, "__init__", wrap_init)
        self._old_hook = sys.unraisablehook

        def hook(info):
            self.unraisable.append(
                f"{type(info.exc_value).__name__}: {info.exc_value} "
                f"({info.err_msg or 'unraisable'} {info.object!r})"
            )

        sys.unraisablehook = hook
        return self

    def __exit__(self, *exc) -> None:
        sys.unraisablehook = self._old_hook
        self.patches.undo()

    # -- per item --------------------------------------------------------------
    def end_item(self) -> Dict[str, float]:
        """Read every simulation created since the last call; forget them."""
        from repro.snapify.ops import DONE, OperationManager

        out = {"events": 0, "sim_time_s": 0.0, "sim_op_s": 0.0, "ops": 0,
               "ops_failed": 0}
        for sim in self.sims:
            out["events"] += event_count(sim)
            out["sim_time_s"] += sim.now
            mgr = OperationManager.peek(sim)
            for op in (mgr.operations.values() if mgr else ()):
                out["ops"] += 1
                res = op.result
                if op.state == DONE and res is not None:
                    out["sim_op_s"] += res.finished - res.started
                elif op.state != DONE:
                    out["ops_failed"] += 1
            for fn in self.extra:
                fn(sim)
        for k, v in out.items():
            self.totals[k] += v
        self.sims.clear()
        self.current_sim = None
        return out


# ---------------------------------------------------------------------------
# Traced run: spans, counting wrappers, registry roll-up, profiler.
# ---------------------------------------------------------------------------


class Tracer:
    """Spans + layer counters + profiler self time for one traced pass."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self.counts: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = defaultdict(float)
        self.runners: List[Any] = []
        self.comms: List[Any] = []
        self.teams: List[Any] = []
        self.managers: List[Any] = []
        self.iterations_by_sim: Dict[int, int] = defaultdict(int)
        self.profile = cProfile.Profile()
        probe.extra.append(self._read_sim)

    # -- spans -------------------------------------------------------------------
    def _now(self) -> Optional[float]:
        sim = self.probe.current_sim
        return None if sim is None else sim.now

    def _open(self, name: str) -> Dict[str, Any]:
        span = {"id": next(self._ids), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "host_start": time.perf_counter(), "sim_start": self._now(),
                "host_end": None, "sim_end": None}
        self.spans.append(span)
        return span

    def _close(self, span: Dict[str, Any], error: Optional[BaseException]) -> None:
        span["host_end"] = time.perf_counter()
        span["sim_end"] = self._now()
        if error is not None:
            span["error"] = type(error).__name__

    def spanned(self, name: str, on_return: Optional[Callable] = None):
        """Wrapper factory: record a span around a plain function or a
        sub-generator, then call ``on_return(result, host_s)`` where
        ``host_s`` is the host time spent executing the call itself."""
        tracer = self

        def wrap(fn):
            if inspect.isgeneratorfunction(fn):
                def gen_wrapper(*args, **kwargs):
                    gen = fn(*args, **kwargs)
                    span = tracer._open(name)
                    host = 0.0
                    value: Any = None
                    exc: Optional[BaseException] = None
                    while True:
                        tracer._stack.append(span["id"])
                        t0 = time.perf_counter()
                        try:
                            step = gen.throw(exc) if exc is not None else gen.send(value)
                        except StopIteration as stop:
                            host += time.perf_counter() - t0
                            tracer._stack.pop()
                            tracer._close(span, None)
                            if on_return is not None:
                                on_return(stop.value, host)
                            return stop.value
                        except BaseException as err:
                            tracer._stack.pop()
                            tracer._close(span, err)
                            raise
                        host += time.perf_counter() - t0
                        tracer._stack.pop()
                        try:
                            value, exc = (yield step), None
                        except GeneratorExit:
                            gen.close()
                            tracer._close(span, None)
                            raise
                        except BaseException as err:  # thrown into us: pass on
                            value, exc = None, err
                return gen_wrapper

            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                tracer._stack.append(span["id"])
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as err:
                    tracer._close(span, err)
                    raise
                finally:
                    tracer._stack.pop()
                tracer._close(span, None)
                if on_return is not None:
                    on_return(result, time.perf_counter() - t0)
                return result
            return wrapper

        return wrap

    # -- installation --------------------------------------------------------------
    def install(self) -> None:
        from repro.blcr.context import ProcessContext
        from repro.mpi.replication import TeamComm
        from repro.mpi.runtime import MPIComm
        from repro.sched.resilient import ResilientRunner
        from repro.snapify.fleet import FleetManager

        p = self.probe.patches
        counts = self.counts

        def count(key):
            def on_return(_result, _host):
                counts[key] += 1
            return on_return

        def on_capture(ctx, host):
            counts["blcr.captures"] += 1
            counts["blcr.capture_host_s"] += host
            counts["blcr.image_bytes"] += ctx.image_bytes

        def on_capture_incremental(link, host):
            counts["blcr.captures"] += 1
            counts["blcr.capture_host_s"] += host
            counts["blcr.image_bytes"] += link.delta_bytes

        def on_check_all(_violations, host):
            counts["check.oracle_runs"] += 1
            counts["check.oracle_host_s"] += host

        def on_scenario(result, _host):
            counts["check.runs"] += 1
            counts["check.violations"] += len(result.violations)
            counts["check.deadlocks"] += result.outcome == "deadlock"

        p.method(ProcessContext, "capture", self.spanned("blcr.capture", on_capture))
        p.function("repro.blcr.incremental", "capture_incremental",
                   self.spanned("blcr.capture_incremental", on_capture_incremental))
        p.function("repro.scif.registry", "scif_register",
                   self.spanned("scif.register", count("scif.registrations")))
        p.function("repro.check.oracles", "check_all",
                   self.spanned("check.check_all", on_check_all))
        p.function("repro.check.scenarios", "run_scenario",
                   self.spanned("check.run_scenario", on_scenario))
        for attr in USECASES:
            module = "repro.snapify.ops" if attr == "capture_sequence" else "repro.snapify.usecases"
            p.function(module, attr, self.spanned(f"snapify.{attr}"))
        for attr in ("mpi_checkpoint", "mpi_restart"):
            p.function("repro.mpi.cr", attr, self.spanned(f"mpi.{attr}"))
        for attr in [a for a in vars(FleetManager)
                     if a.startswith("submit") or a == "collect"]:
            p.method(FleetManager, attr,
                     self.spanned(f"snapify.fleet.{attr}"))

        def collector(store):
            def wrap(init):
                def __init__(obj, *args, **kwargs):
                    init(obj, *args, **kwargs)
                    store.append(obj)
                return __init__
            return wrap

        p.method(ResilientRunner, "__init__", collector(self.runners))
        p.method(MPIComm, "__init__", collector(self.comms))
        p.method(TeamComm, "__init__", collector(self.teams))
        p.method(FleetManager, "__init__", collector(self.managers))

        by_sim = self.iterations_by_sim
        probe = self.probe

        def wrap_iterate(fn):
            def _iterate_effect(ctx, args):
                by_sim[id(probe.current_sim)] += 1
                return fn(ctx, args)
            return _iterate_effect

        p.function("repro.apps.offload", "_iterate_effect", wrap_iterate)

    def usecase_counts(self) -> Dict[str, int]:
        """``snapify.ops.<kind>``: use-case calls not nested in another one
        (a migration's inner swap-out and swap-in count as one migrate)."""
        by_id = {s["id"]: s for s in self.spans}
        names = {f"snapify.{u}": k for u, k in USECASES.items()}
        out = {f"snapify.ops.{k}": 0 for k in names.values()}
        for span in self.spans:
            if span["name"] not in names:
                continue
            parent = span["parent"]
            while parent is not None and by_id[parent]["name"] not in names:
                parent = by_id[parent]["parent"]
            if parent is None:
                out[f"snapify.ops.{names[span['name']]}"] += 1
        return out

    # -- per-simulation roll-up --------------------------------------------------------
    def _read_sim(self, sim: Any) -> None:
        from repro.obs.registry import MetricsRegistry
        from repro.snapify.ops import OperationManager

        c = self.counts
        snap = MetricsRegistry.of(sim).snapshot()
        vals = {**snap["counters"], **snap["gauges"]}
        mic_peak = 0
        for name, v in vals.items():
            if not isinstance(v, (int, float)):
                continue
            parts = name.split(".")
            head, last = parts[0], parts[-1]
            if head == "link" and ".pcie" in name:
                if last in ("transfers", "bytes"):
                    c[f"hw.pcie.{last}"] += v
                elif last == "utilization":
                    c["hw.pcie.busy_sim_s"] += v * snap["time"]
            elif head == "disk" and last in ("bytes_written", "bytes_read"):
                c[f"hw.disk.{last}"] += v
            elif head == "mem" and ".mic" in name and last == "peak":
                mic_peak += v
            elif head == "scif" and last in ("messages", "connections"):
                c[f"scif.{last}"] += v
            elif head == "snapifyio" and last in ("bytes_staged", "connections",
                                                  "retries", "fallbacks", "aborts"):
                c[f"snapify_io.{last}"] += v
            elif head == "memtier" and parts[1] == "hits":
                c[f"snapify_io.memtier.hits.{last}"] += v
            elif name.startswith(("snapify.drain.case", "snapify.monitor.relays")):
                c[name] += v
            elif head == "fleet" and len(parts) == 2 and \
                    last in ("submitted", "completed", "failed"):
                c[f"snapify.fleet.{last}"] += v
        self.peaks["hw.mic_mem.peak_bytes"] = max(
            self.peaks["hw.mic_mem.peak_bytes"], mic_peak)
        for name, h in snap["histograms"].items():
            parts = name.split(".")
            if parts[0] != "fleet":
                continue
            if parts[1] == "wait" and len(parts) == 3:
                c[f"snapify.fleet.wait.{parts[2]}.sum"] += h["sum"]
                c[f"snapify.fleet.wait.{parts[2]}.count"] += h["count"]
            elif parts[1] == "service" and len(parts) == 2:
                c["snapify.fleet.service.sum"] += h["sum"]
                c["snapify.fleet.service.count"] += h["count"]

        mgr = OperationManager.peek(sim)
        for op in (mgr.operations.values() if mgr else ()):
            c["snapify.ops.total"] += 1
            res = op.result
            if res is None:
                continue
            for group, states in PHASE_GROUPS.items():
                c[f"snapify.{group}_sim_s"] += sum(res.phases.get(s, 0.0) for s in states)
            if res.channel is not None:
                c["snapify_io.transfers"] += 1
                c["snapify_io.first_try"] += res.attempts == 1

        runners = [r for r in self.runners if r.sim is sim]
        for r in runners:
            c["sched.restarts"] += r.restarts
            c["sched.iterations_useful"] += r.app.iterations
        if runners:
            c["sched.iterations_executed"] += self.iterations_by_sim.get(id(sim), 0)
        self.iterations_by_sim.pop(id(sim), None)
        self.runners[:] = [r for r in self.runners if r.sim is not sim]

        for comm in [m for m in self.comms if m.sim is sim]:
            c["mpi.messages_sent"] += comm.messages_sent
            c["mpi.dropped"] += comm.messages_dropped
            c["mpi.consumed"] += comm.messages_consumed
        self.comms[:] = [m for m in self.comms if m.sim is not sim]
        for team in [t for t in self.teams if t.sim is sim]:
            c["mpi.replica_copies"] += team.copies_sent + team.backfilled
            c["mpi.replica_delivered"] += team.delivered
        self.teams[:] = [t for t in self.teams if t.sim is not sim]
        for m in [m for m in self.managers if m.sim is sim]:
            self.peaks["snapify.fleet.hwm_in_flight"] = max(
                self.peaks["snapify.fleet.hwm_in_flight"], m.hwm_in_flight)
        self.managers[:] = [m for m in self.managers if m.sim is not sim]

    # -- profiler attribution ------------------------------------------------------------
    def self_time_by_layer(self, src: str, bench_dirs: Tuple[str, ...]) -> Dict[str, float]:
        """Sum cProfile self time per layer.

        Code in ``src/repro/<layer>/`` is charged to ``<layer>``; the
        application models (``src/repro/apps``) and the top-level modules
        (testbed, calibration, metrics) to ``other``; the benchmark's own files and the figure drivers it
        imports (``bench_dirs``) to ``bench``. Standard-library and builtin
        time is reported as its own layer, ``py``, not charged to the caller.
        """
        src = os.path.join(os.path.abspath(src), "repro", "")
        bench_dirs = tuple(os.path.join(os.path.abspath(d), "") for d in bench_dirs)
        out: Dict[str, float] = defaultdict(float)
        for (filename, _line, _name), (_cc, _nc, tt, _ct, _callers) in \
                pstats.Stats(self.profile).stats.items():
            path = os.path.abspath(filename) if os.path.isabs(filename) else filename
            if path.startswith(src):
                rel = path[len(src):].split(os.sep)
                layer = rel[0] if len(rel) > 1 and rel[0] in LAYERS else "other"
            elif path.startswith(bench_dirs):
                layer = "bench"
            else:
                layer = "py"
            out[layer] += tt
        return dict(out)
