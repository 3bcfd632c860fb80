"""Golden-trace determinism tests for two full snapshot cycles.

Kernel optimizations and refactors are only admissible if they do not
perturb event ordering: seed + workload must produce the *same*
interleaving. Two runs are pinned:

* ``snapshot_cycle_trace.json`` — a Fig-10-style migrate cycle (launch →
  pause → capture → restore on the second card → resume → run to
  completion), the classic full-image path through Snapify-IO.
* ``incremental_cycle_trace.json`` — three incremental capture epochs
  (base + two deltas, each replicated to the partner card, the last one
  terminating the offload process), then a restore on the second card
  served from the memory tier through ``reassemble``, resume, and run to
  completion.

Each digest holds:

* every trace record (time, category, fields), repr-exact,
* the final simulated time, repr-exact,
* the total number of heap entries drawn from the tie-break counter — any
  change in what gets scheduled (or how often) shifts this,
* the full thread table (tid, name, completion).

Regenerate both after an *intentional* behavior change with::

    PYTHONPATH=src python tests/test_trace_determinism.py --regen

which prints, per golden, which of the four fields changed.
"""

import json
from dataclasses import replace
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "snapshot_cycle_trace.json"
INCREMENTAL_GOLDEN_PATH = GOLDEN_DIR / "incremental_cycle_trace.json"


def _digest(sim):
    return {
        "records": [
            [repr(rec.time), rec.category, sorted((k, repr(v)) for k, v in rec.fields.items())]
            for rec in sim.trace.records
        ],
        "final_time": repr(sim.now),
        "scheduled_events": next(sim._seq),
        "threads": [[t.tid, t.name, t.done.triggered] for t in sim.threads],
    }


def snapshot_cycle_digest():
    """Run the migrate cycle and return a canonical, JSON-stable digest."""
    from repro.apps import OPENMP_BENCHMARKS, OffloadApplication
    from repro.sim import Simulator
    from repro.snapify import MIGRATE, snapify_command
    from repro.testbed import XeonPhiServer

    sim = Simulator(trace=True)
    server = XeonPhiServer(sim=sim)
    profile = replace(OPENMP_BENCHMARKS["MC"], iterations=30)
    app = OffloadApplication(server, profile)

    def driver(s):
        yield from app.launch()
        yield s.timeout(0.3)
        done = snapify_command(app.host_proc, MIGRATE, engine=server.engine(1))
        yield done
        yield app.host_proc.main_thread.done

    server.run(driver(sim))
    assert app.verify(), "migrate cycle corrupted the application state"
    return _digest(sim)


def incremental_cycle_digest():
    """Run three incremental epochs + a memory-tier restore; return the digest."""
    from repro.apps import OPENMP_BENCHMARKS, OffloadApplication
    from repro.sim import Simulator
    from repro.snapify import capture_sequence, snapify_restore, snapify_resume, snapify_t
    from repro.snapify_io.memtier import MemoryTier
    from repro.testbed import XeonPhiServer

    sim = Simulator(trace=True)
    server = XeonPhiServer(sim=sim)
    tier = MemoryTier.of(sim)
    tier.register_server(server)
    profile = replace(OPENMP_BENCHMARKS["MC"], iterations=30)
    app = OffloadApplication(server, profile)
    path = "/golden/inc"

    def driver(s):
        yield from app.launch()
        yield s.timeout(0.3)
        # Hold the application gate across the cycle, as the snapify CLI
        # does around a swap: the handle is replaced before the app resumes.
        gate = app.host_proc.runtime["app_gate"]
        yield gate.acquire(owner="golden")
        snap = snapify_t(path, coiproc=app.coiproc, incremental=True)
        proc = app.coiproc.offload_proc
        for epoch in range(3):
            yield from capture_sequence(snap, terminate=epoch == 2)
            if epoch < 2:
                for region in proc.regions.values():
                    span = max(1, region.size // 25)
                    region.write((epoch * 7919 * 4096) % max(1, region.size - span), span)
        new = yield from snapify_restore(snap, server.engine(1), app.host_proc)
        yield from snapify_resume(snap)
        app.host_proc.runtime["coi_handle"] = new
        gate.release()
        yield app.host_proc.main_thread.done

    server.run(driver(sim))
    assert app.verify(), "incremental cycle corrupted the application state"
    assert len(tier.lookup(path).links) == 3
    return _digest(sim)


GOLDENS = {
    GOLDEN_PATH: snapshot_cycle_digest,
    INCREMENTAL_GOLDEN_PATH: incremental_cycle_digest,
}


def _canonical(digest):
    return json.loads(json.dumps(digest))


def test_snapshot_cycle_trace_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _canonical(snapshot_cycle_digest()) == golden


def test_snapshot_cycle_digest_is_stable_across_runs():
    assert snapshot_cycle_digest() == snapshot_cycle_digest()


def test_incremental_cycle_trace_matches_golden():
    golden = json.loads(INCREMENTAL_GOLDEN_PATH.read_text())
    assert _canonical(incremental_cycle_digest()) == golden


def test_incremental_cycle_digest_is_stable_across_runs():
    assert incremental_cycle_digest() == incremental_cycle_digest()


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if "--regen" in sys.argv:
        for path, make in GOLDENS.items():
            digest = _canonical(make())
            old = json.loads(path.read_text()) if path.exists() else {}
            changed = [k for k in digest if old.get(k) != digest[k]]
            path.write_text(json.dumps(digest, indent=1) + "\n")
            print(
                f"regenerated {path.name}: {len(digest['records'])} records, "
                f"{digest['scheduled_events']} scheduled events; changed: "
                f"{', '.join(changed) or 'nothing'}"
            )
    else:
        print(__doc__)
