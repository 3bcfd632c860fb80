"""Direct dispatch: a resume whose heap entry would be the next pop runs inline.

``Thread._step`` (yield of an already-triggered event) and
``Timeout._expire`` (a timeout with one parked thread) draw the resume's
tie-break key exactly where the heap push used to, and skip the push only
when that entry would be popped next anyway. These tests pin the three
parts of that invariant — same draw, next-pop test, ``run_until`` guard —
against the plain heap path, which ``sim._awaited = sim._fired`` forces for
every resume.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Channel, DeadlockError, Interrupted, Mutex, Simulator, kernel
from repro.sim.sync import _AcquireEvent

SCHEDULES = [None, 0, 7, 20]


# ---------------------------------------------------------------------------
# Same-instant ordering
# ---------------------------------------------------------------------------


def _same_instant(seed, forced):
    sim = Simulator(schedule_seed=seed)
    log = []

    def yielder(tag):
        yield sim.timeout(1)
        for k in range(3):
            sim.schedule(0, log.append, f"{tag}.entry{k}")
        yield sim._fired
        log.append(f"{tag}.resumed")
        yield sim.timeout(0)
        log.append(f"{tag}.slept")

    for tag in "abc":
        sim.spawn(yielder(tag))
    if forced:
        sim._awaited = sim._fired
    sim.run()
    return log, sim.now, next(sim._seq)


def test_fired_yield_runs_after_an_earlier_entry_at_the_same_instant():
    log, _, _ = _same_instant(None, forced=False)
    # FIFO: each thread's entries were queued before its resume drew a key.
    per_thread = [f"{t}.{s}" for t in "abc" for s in ("entry0", "entry1", "entry2", "resumed")]
    assert log == per_thread + ["a.slept", "b.slept", "c.slept"]


@pytest.mark.parametrize("seed", SCHEDULES)
def test_same_instant_order_matches_the_heap(seed):
    assert _same_instant(seed, forced=False) == _same_instant(seed, forced=True)


# ---------------------------------------------------------------------------
# Timeout fan-out
# ---------------------------------------------------------------------------


def _fan_out(callback_first):
    sim = Simulator()
    log = []
    to = sim.timeout(1)

    def callback(ev):
        log.append("callback")
        sim.schedule(0, log.append, "callback.entry")

    def waiter():
        value = yield to
        log.append(("thread", value))

    if callback_first:
        to.add_callback(callback)
    sim.spawn(waiter())
    sim.run(until=0.5)  # the thread is parked on the timeout now
    if not callback_first:
        to.add_callback(callback)
    sim.run()
    return log


def test_timeout_with_thread_then_callback_fires_in_registration_order():
    # The thread's resume is drawn first, so it runs before the entry the
    # callback schedules; the callback itself runs synchronously in _fire.
    assert _fan_out(callback_first=False) == ["callback", ("thread", None), "callback.entry"]


def test_timeout_with_callback_then_thread_fires_in_registration_order():
    assert _fan_out(callback_first=True) == ["callback", "callback.entry", ("thread", None)]


def test_timeout_without_waiters_and_with_interrupted_waiter_still_succeeds():
    sim = Simulator()
    lonely = sim.timeout(1, value="v")
    to = sim.timeout(2)
    seen = []

    def waiter():
        try:
            yield to
        except Interrupted:
            seen.append("interrupted")

    t = sim.spawn(waiter())
    sim.run(until=0.5)
    t.interrupt("stop")
    sim.run()
    assert lonely.value == "v" and to.ok and seen == ["interrupted"]


# ---------------------------------------------------------------------------
# run_until guard
# ---------------------------------------------------------------------------


def test_run_until_returns_before_code_after_the_awaited_trigger():
    sim = Simulator()
    awaited = sim.event("awaited")
    log = []

    def trigger():
        yield sim.timeout(1)
        awaited.succeed("v")
        yield sim._fired
        log.append("after fired")
        yield sim.timeout(0)
        log.append("after timeout")

    sim.spawn(trigger())
    assert sim.run_until(awaited) == "v"
    assert log == [] and sim.now == 1
    assert sim._awaited is not awaited  # restored on the way out
    sim.run()
    assert log == ["after fired", "after timeout"]


def test_run_until_restores_the_guard_when_it_raises():
    sim = Simulator()
    before = sim._awaited
    with pytest.raises(DeadlockError):
        sim.run_until(sim.event("never"))
    assert sim._awaited is before


# ---------------------------------------------------------------------------
# Differential: direct dispatch vs every resume through the heap
# ---------------------------------------------------------------------------

DELAYS = st.sampled_from([0.0, 0.5, 1.0])
OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("lock"), DELAYS),
    st.tuples(st.just("send"), st.sampled_from([0, 1])),
    st.tuples(st.just("recv"), st.sampled_from([0, 1])),
    st.tuples(st.just("any"), DELAYS),
    st.tuples(st.just("fired"), st.just(None)),
)
PROGRAMS = st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=5)


def _execute(program, seed, forced):
    sim = Simulator(schedule_seed=seed)
    mutex = Mutex(sim, name="m")
    chans = [Channel(sim, name="unbounded"), Channel(sim, name="bounded", capacity=1)]
    log = []

    def body(i, ops):
        for j, (op, arg) in enumerate(ops):
            got = None
            if op == "sleep":
                got = yield sim.timeout(arg)
            elif op == "lock":
                yield mutex.acquire(owner=i)
                yield sim.timeout(arg)
                mutex.release()
            elif op == "send":
                got = yield chans[arg].send((i, j))
            elif op == "recv":
                got = yield chans[arg].recv()
            elif op == "any":
                got, _ = yield sim.any_of([sim.timeout(arg), sim.timeout(0.5)])
            else:
                got = yield sim._fired
            log.append((sim.now, i, j, got))

    for i, ops in enumerate(program):
        sim.spawn(body(i, ops), name=f"p{i}")
    if forced:
        sim._awaited = sim._fired
    sim.run(check_deadlock=False)
    return log, sim.now, next(sim._seq)


@pytest.mark.parametrize("forced", [False, True])
def test_forcing_the_heap_pops_every_drawn_entry(monkeypatch, forced):
    """The differential's reference really is the heap path: with the guard
    forced every drawn key is popped, while direct dispatch skips pops."""
    pops = []

    def counting_pop(heap):
        pops.append(None)
        return heapq.heappop(heap)

    monkeypatch.setattr(kernel, "heappop", counting_pop)
    program = [[("sleep", 1.0), ("lock", 0.5), ("send", 0), ("fired", None)]] * 3
    *_, draws = _execute(program, None, forced=forced)
    if forced:
        assert len(pops) == draws
    else:
        assert 0 < len(pops) < draws


@pytest.mark.parametrize("seed", SCHEDULES)
@settings(max_examples=60, deadline=None)
@given(program=PROGRAMS)
def test_direct_dispatch_matches_the_heap_path(seed, program):
    assert _execute(program, seed, forced=False) == _execute(program, seed, forced=True)


# ---------------------------------------------------------------------------
# Mutex grants
# ---------------------------------------------------------------------------


def test_uncontended_acquire_returns_the_shared_fired_event():
    sim = Simulator()
    m = Mutex(sim, name="m")
    assert m.acquire(owner="a") is sim._fired
    m.release()
    assert m.acquire() is sim._fired


def test_contended_acquire_keeps_its_owner_edge():
    sim = Simulator()
    m = Mutex(sim, name="m")

    def holder():
        yield m.acquire(owner="holder")
        yield sim.timeout(10)
        m.release()

    events = []

    def waiter():
        ev = m.acquire(owner="waiter")
        events.append(ev)
        yield ev
        m.release()

    sim.spawn(holder(), name="holder")
    sim.spawn(waiter(), name="waiter")
    sim.run(until=1)
    assert isinstance(events[0], _AcquireEvent)
    edges = {e["thread"]: e for e in sim.wait_for_graph()}
    assert edges["waiter"]["owner"] == "mutex 'm' holder 'holder'"
    assert edges["holder"]["owner"] is None  # parked on a plain timeout
    sim.run()
    assert not m.locked
