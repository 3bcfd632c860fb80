"""The idle-skipping Snapify monitor keeps every relay on the poll grid.

The daemon's monitor models a poll of the offload pipes every
``MONITOR_POLL_INTERVAL``. It executes only the ticks that can find
something: after an idle tick it parks until a pipe write, an offload exit or
a new request, then sleeps to the next tick of the grid the polling loop
would have walked. These tests pin that invariant against a reference
polling loop (the monitor as the paper describes it, one timeout per tick)
and check the parked state's wake-ups and teardown.
"""

import pytest

from repro.coi import COIDaemon, OffloadBinary, OffloadFunction
from repro.hw import MB
from repro.sched.faults import FaultInjector
from repro.sim import Simulator
from repro.snapify import (
    snapify_capture,
    snapify_pause,
    snapify_resume,
    snapify_t,
    snapify_wait,
)
from repro.snapify import constants as c
from repro.snapify.monitor import SnapifyError, SnapifyService
from repro.testbed import XeonPhiServer

POLL = c.MONITOR_POLL_INTERVAL


def polling_monitor(ticks):
    """A ``SnapifyService._monitor`` that executes every tick, idle or not,
    as the paper describes it; each tick's time is appended to ``ticks``."""

    def _monitor(self):
        while self.active:
            ticks.append(self.sim.now)
            yield from self._tick()
            yield self.sim.timeout(POLL)
        self.monitor_running = False
        self.sim.trace.emit("monitor.exit", daemon=self.daemon.proc.name)

    return _monitor


def make_binary(name):
    return OffloadBinary(
        name=name,
        image_size=8 * MB,
        functions={"step": OffloadFunction("step", duration=0.05)},
    )


def launch(server, count=1):
    """``count`` offload processes on card 0, each with a 64 MB buffer."""
    procs = []

    def setup(sim):
        for i in range(count):
            host_proc = yield from server.host_os.spawn_process(f"app{i}", image_size=4 * MB)
            coiproc = yield from server.engine(0).process_create(
                host_proc, make_binary(f"grid{i}.so")
            )
            buf = yield from coiproc.buffer_create(64 * MB)
            yield from coiproc.buffer_write(buf, payload=3)
            procs.append(coiproc)

    server.run(setup(server.sim))
    return procs


def run_scenario(scenario, monkeypatch, polling):
    """Run ``scenario(sim, procs)`` on a traced server; return the monitor
    trace records, the polling ticks (reference runs only) and the number of
    kernel events scheduled."""
    ticks = []
    with monkeypatch.context() as m:
        if polling:
            m.setattr(SnapifyService, "_monitor", polling_monitor(ticks))
        sim = Simulator(trace=True)
        server = XeonPhiServer(sim=sim)
        procs = launch(server, count=2)
        result = server.run(scenario(sim, procs))
    records = [
        (rec.time, rec.category, rec.fields.get("status"))
        for rec in sim.trace.records
        if rec.category.startswith("monitor.")
    ]
    return result, records, ticks, next(sim._seq)


def assert_on_polling_grid(scenario, monkeypatch):
    """The monitor relays exactly when, and what, the polling loop relays,
    with fewer kernel events."""
    ref_result, ref_records, ticks, ref_events = run_scenario(scenario, monkeypatch, True)
    result, records, _, events = run_scenario(scenario, monkeypatch, False)
    assert result == ref_result
    assert records == ref_records
    relays = [t for t, cat, _ in records if cat == "monitor.relay"]
    assert relays and set(relays) <= set(ticks)
    assert events < ref_events
    return result, records, ticks


def test_cycle_relays_lie_on_the_poll_grid(monkeypatch):
    """Pause, capture and resume: every relay is a polling tick, and the
    ticks between relays are the ``+= MONITOR_POLL_INTERVAL`` chain."""

    def cycle(sim, procs):
        snap = snapify_t(snapshot_path="/snap/grid", coiproc=procs[0])
        yield from snapify_pause(snap)
        yield from snapify_capture(snap, terminate=False)
        yield from snapify_wait(snap)
        yield from snapify_resume(snap)
        return snap.timings["pause"]

    _, records, ticks = assert_on_polling_grid(cycle, monkeypatch)
    statuses = [status for _, cat, status in records if cat == "monitor.relay"]
    assert statuses == [c.PAUSE_COMPLETE, c.CAPTURE_COMPLETE, c.RESUME_ACK]

    # The first relay is on the grid walked from the spawn tick.
    spawn = next(t for t, cat, _ in records if cat == "monitor.spawn")
    first_relay = next(t for t, cat, _ in records if cat == "monitor.relay")
    tick = spawn
    while tick < first_relay:
        tick += POLL
    assert tick == first_relay
    # Every later tick follows its predecessor by one float addition of the
    # interval, except right after a relay (its send takes simulated time).
    relays = {t for t, cat, _ in records if cat == "monitor.relay"}
    for prev, nxt in zip(ticks, ticks[1:]):
        if prev not in relays:
            assert nxt == prev + POLL


def test_crash_while_parked_fails_at_the_next_tick(monkeypatch):
    """An offload crash mid-capture wakes the parked monitor, which relays
    SNAPIFY_FAILED at the polling loop's next tick instead of hanging."""

    def crash(sim, procs):
        snap = snapify_t(snapshot_path="/snap/crash", coiproc=procs[0])
        yield from snapify_pause(snap)
        yield from snapify_capture(snap, terminate=False)
        yield sim.timeout(0.01)
        crashed_at = sim.now
        procs[0].offload_proc.terminate(code=139)
        with pytest.raises(SnapifyError, match="died during"):
            yield from snapify_wait(snap)
        return crashed_at

    crashed_at, records, ticks = assert_on_polling_grid(crash, monkeypatch)
    failed_at, _, status = records[-1]
    assert status == c.SNAPIFY_FAILED
    assert failed_at == min(t for t in ticks if t >= crashed_at)


def test_second_request_while_parked_is_relayed_on_the_grid(monkeypatch):
    """A pause of a second process on the same card arrives while the
    monitor is parked on the first one; both relays stay on the grid."""

    def two(sim, procs):
        a = snapify_t(snapshot_path="/snap/two-a", coiproc=procs[0])
        b = snapify_t(snapshot_path="/snap/two-b", coiproc=procs[1])
        yield from snapify_pause(a)
        yield sim.timeout(0.0123)
        yield from snapify_pause(b)
        yield from snapify_resume(a)
        yield from snapify_resume(b)
        return "ok"

    _, records, _ = assert_on_polling_grid(two, monkeypatch)
    spawns = [t for t, cat, _ in records if cat == "monitor.spawn"]
    assert len(spawns) == 1  # b joined the parked monitor, not a new one
    statuses = [status for _, cat, status in records if cat == "monitor.relay"]
    assert statuses.count(c.PAUSE_COMPLETE) == 2


def test_card_failure_while_parked_disarms_every_pipe():
    """Killing the parked monitor (its card fails) leaves no ``on_put``
    callback on any active request's pipe."""
    sim = Simulator()
    server = XeonPhiServer(sim=sim)
    procs = launch(server, count=2)
    svc = SnapifyService.of(COIDaemon.of(server.node.phis[0]))

    def driver(sim):
        for i, coiproc in enumerate(procs):
            yield from snapify_pause(snapify_t(snapshot_path=f"/snap/k{i}", coiproc=coiproc))
        yield sim.timeout(0.01)

    server.run(driver(sim))
    assert len(svc.active) == 2 and svc._wake is not None  # parked
    pipes = [req.entry.pipe.inbound for req in svc.active.values()]
    assert all(end.on_put is not None for end in pipes)

    FaultInjector(sim).fail_now(server.node.phis[0])
    sim.run()
    assert svc.active  # nobody relays for a dead card...
    assert all(end.on_put is None for end in pipes)  # ...and nothing is armed
    assert svc._wake is None and svc._armed == []


def test_timeout_at_fires_exactly_at_when():
    sim = Simulator()
    when = 0.9
    assert 0.2 + (when - 0.2) != when  # a relative timeout would miss by an ulp
    seen = []

    def worker(sim):
        yield sim.timeout(0.2)
        yield sim.timeout_at(when)
        seen.append(sim.now)
        with pytest.raises(ValueError):
            sim.timeout_at(when - POLL)

    sim.spawn(worker(sim))
    sim.run()
    assert seen == [when]
