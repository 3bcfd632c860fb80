"""Coverage for the kernel/channel fast paths and thread-ID isolation.

The optimized kernel short-circuits the common cases (already-triggered
event waits, unbounded sends with a ready receiver, immediate recvs on a
non-empty channel). These tests pin down the semantics of those paths —
including the interrupt/kill interactions that the fast paths must not
break — and the per-simulator thread-ID counter.
"""

import itertools
import random

import pytest

from repro.sim import Channel, ChannelClosed, Event, Interrupted, Simulator
from repro.sim.kernel import _perturbed_seq


# ---------------------------------------------------------------------------
# Per-simulator thread IDs (regression: the counter used to be class-global)
# ---------------------------------------------------------------------------


def test_thread_ids_do_not_leak_across_simulators():
    """Thread IDs restart at 1 for every Simulator, so trace output and
    tie-breaking cannot depend on how many simulators ran earlier in the
    process."""

    def worker(sim):
        yield sim.timeout(1)

    tids = []
    for _ in range(3):
        sim = Simulator()
        t1 = sim.spawn(worker(sim))
        t2 = sim.spawn(worker(sim))
        sim.run()
        tids.append((t1.tid, t2.tid))
    assert tids == [(1, 2), (1, 2), (1, 2)]


def test_default_thread_names_are_reproducible_per_simulator():
    def worker(sim):
        yield sim.timeout(1)

    names = []
    for _ in range(2):
        sim = Simulator()
        t = sim.spawn(worker(sim))
        sim.run()
        names.append(t.name)
    assert names == ["thread-1", "thread-1"]


# ---------------------------------------------------------------------------
# Already-triggered event waits
# ---------------------------------------------------------------------------


def test_yield_already_succeeded_event_returns_value():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed("pre")

    def worker(sim):
        value = yield ev
        return value

    t = sim.spawn(worker(sim))
    sim.run()
    assert t.done.value == "pre"


def test_yield_already_failed_event_raises_in_thread():
    sim = Simulator()
    ev = Event(sim)
    ev.fail(ValueError("pre-failed"))

    def worker(sim):
        with pytest.raises(ValueError, match="pre-failed"):
            yield ev
        return "caught"

    t = sim.spawn(worker(sim))
    sim.run()
    assert t.done.value == "caught"


def test_triggered_event_wait_preserves_scheduling_order():
    """A thread resuming through the already-triggered fast path must queue
    behind work scheduled before it, exactly like a callback resume would."""
    sim = Simulator()
    ev = Event(sim)
    ev.succeed("x")
    order = []

    def eager(sim):
        order.append("eager-start")
        yield ev  # already triggered: fast path
        order.append("eager-resumed")

    def other(sim):
        order.append("other-start")
        yield sim.timeout(0)
        order.append("other-resumed")

    sim.spawn(eager(sim))
    sim.spawn(other(sim))
    sim.run()
    assert order == ["eager-start", "other-start", "eager-resumed", "other-resumed"]


def test_many_threads_wait_on_one_event_wake_fifo():
    sim = Simulator()
    ev = Event(sim)
    order = []

    def waiter(sim, tag):
        value = yield ev
        order.append((tag, value))

    for tag in "abc":
        sim.spawn(waiter(sim, tag))

    def trigger(sim):
        yield sim.timeout(1)
        ev.succeed(7)

    sim.spawn(trigger(sim))
    sim.run()
    assert order == [("a", 7), ("b", 7), ("c", 7)]


def test_mixed_thread_waiters_and_callbacks_fire_in_registration_order():
    """Threads park directly in the callback list; plain callbacks and
    thread resumes must still fire in registration order."""
    sim = Simulator()
    ev = Event(sim)
    order = []

    def waiter(sim):
        yield ev
        order.append("thread")

    sim.spawn(waiter(sim))
    sim.run(until=0, check_deadlock=False)  # let the waiter park itself first
    ev.add_callback(lambda e: order.append("callback"))

    def trigger(sim):
        yield sim.timeout(1)
        ev.succeed(None)

    sim.spawn(trigger(sim))
    sim.run()
    # The callback runs synchronously at trigger time; the thread resume is
    # scheduled through the heap, so it lands after.
    assert order == ["callback", "thread"]


def test_interrupted_thread_not_resumed_by_fast_path_event():
    sim = Simulator()
    ev = Event(sim)
    hits = []

    def worker(sim):
        try:
            yield ev
            hits.append("normal")
        except Interrupted:
            hits.append("interrupted")
        yield sim.timeout(5)

    t = sim.spawn(worker(sim))

    def driver(sim):
        yield sim.timeout(1)
        t.interrupt()
        yield sim.timeout(1)
        ev.succeed("late")

    sim.spawn(driver(sim))
    sim.run()
    assert hits == ["interrupted"]


# ---------------------------------------------------------------------------
# Channel fast paths — unbounded
# ---------------------------------------------------------------------------


def test_unbounded_send_completes_immediately():
    sim = Simulator()
    ch = Channel(sim, "c")
    ev = ch.send("m")
    assert ev.triggered and ev.ok
    assert ch.qsize == 1


def test_recv_on_nonempty_channel_completes_immediately():
    sim = Simulator()
    ch = Channel(sim, "c")
    ch.send("m1")
    ch.send("m2")
    ev = ch.recv()
    assert ev.triggered and ev.value == "m1"
    assert ch.qsize == 1


def test_send_hands_off_to_parked_receiver():
    sim = Simulator()
    ch = Channel(sim, "c")
    got = []

    def receiver(sim):
        value = yield ch.recv()
        got.append(value)

    def sender(sim):
        yield sim.timeout(1)
        yield ch.send("direct")

    sim.spawn(receiver(sim))
    sim.spawn(sender(sim))
    sim.run()
    assert got == ["direct"]
    assert ch.qsize == 0
    assert ch.sent_count == ch.received_count == 1


def test_ping_pong_interleaving_unbounded():
    sim = Simulator()
    a = Channel(sim, "a")
    b = Channel(sim, "b")
    log = []

    def ping(sim):
        for i in range(3):
            yield a.send(i)
            echo = yield b.recv()
            log.append(("ping", echo))

    def pong(sim):
        for _ in range(3):
            v = yield a.recv()
            log.append(("pong", v))
            yield b.send(v * 10)

    sim.spawn(ping(sim))
    sim.spawn(pong(sim))
    sim.run()
    assert log == [
        ("pong", 0),
        ("ping", 0),
        ("pong", 1),
        ("ping", 10),
        ("pong", 2),
        ("ping", 20),
    ]


# ---------------------------------------------------------------------------
# Channel fast paths — bounded (back-pressure must be preserved)
# ---------------------------------------------------------------------------


def test_bounded_send_blocks_until_recv():
    sim = Simulator()
    ch = Channel(sim, "c", capacity=1)
    states = []

    def sender(sim):
        yield ch.send("a")  # fills the buffer
        second = ch.send("b")  # must block
        states.append(second.triggered)
        yield second
        states.append(second.triggered)

    def receiver(sim):
        yield sim.timeout(1)
        v = yield ch.recv()
        return v

    sim.spawn(sender(sim))
    r = sim.spawn(receiver(sim))
    sim.run()
    assert states == [False, True]
    assert r.done.value == "a"
    assert ch.qsize == 1  # "b" was admitted when "a" drained


def test_bounded_ping_pong_interleaving_matches_unbounded():
    def run(capacity):
        sim = Simulator()
        a = Channel(sim, "a", capacity=capacity)
        b = Channel(sim, "b", capacity=capacity)
        log = []

        def ping(sim):
            for i in range(4):
                yield a.send(i)
                log.append(("sent", i))
                echo = yield b.recv()
                log.append(("echo", echo))

        def pong(sim):
            for _ in range(4):
                v = yield a.recv()
                yield b.send(v)

        sim.spawn(ping(sim))
        sim.spawn(pong(sim))
        sim.run()
        return log

    # A ping-pong never has more than one message in flight per direction,
    # so any capacity >= 1 must produce the identical interleaving.
    assert run(None) == run(1) == run(4)


def test_interrupted_receiver_does_not_swallow_message():
    sim = Simulator()
    ch = Channel(sim, "c")
    got = []

    def victim(sim):
        try:
            yield ch.recv()
            got.append("victim")
        except Interrupted:
            pass

    def survivor(sim):
        yield sim.timeout(2)
        v = yield ch.recv()
        got.append(("survivor", v))

    t = sim.spawn(victim(sim))
    sim.spawn(survivor(sim))

    def driver(sim):
        yield sim.timeout(1)
        t.interrupt()
        yield sim.timeout(2)
        yield ch.send("msg")

    sim.spawn(driver(sim))
    sim.run()
    # The interrupted receiver's abandoned event is skipped; the message
    # goes to the live one.
    assert got == [("survivor", "msg")]


def test_interrupted_blocked_sender_does_not_inject_message():
    sim = Simulator()
    ch = Channel(sim, "c", capacity=1)
    delivered = []

    def blocked_sender(sim):
        yield ch.send("first")
        try:
            yield ch.send("ghost")  # blocks: buffer full
        except Interrupted:
            pass

    t = sim.spawn(blocked_sender(sim))

    def driver(sim):
        yield sim.timeout(1)
        t.interrupt()
        yield sim.timeout(1)
        ok, item = ch.try_recv()
        delivered.append((ok, item))
        delivered.append(ch.try_recv())

    sim.spawn(driver(sim))
    sim.run()
    # Only "first" is ever delivered; the interrupted send's item is dropped.
    assert delivered == [(True, "first"), (False, None)]


def test_closed_channel_fails_fast_paths():
    sim = Simulator()
    ch = Channel(sim, "c")
    ch.send("m")
    ch.close()
    assert not ch.send("x").ok
    recv_ev = ch.recv()
    assert recv_ev.triggered and isinstance(recv_ev.exception, ChannelClosed)


# ---------------------------------------------------------------------------
# Lazy callback lists
# ---------------------------------------------------------------------------


def test_abandoned_reflects_lazy_callback_list():
    sim = Simulator()
    ev = Event(sim)
    assert ev.abandoned  # pending, no listeners ever registered
    ev.add_callback(lambda e: None)
    assert not ev.abandoned
    ev.succeed(None)
    assert not ev.abandoned  # triggered events are never abandoned


def test_remove_callback_before_any_registration_is_noop():
    sim = Simulator()
    ev = Event(sim)
    ev.remove_callback(lambda e: None)  # must not raise
    assert ev.abandoned


# ---------------------------------------------------------------------------
# Perturbed tie-break keys
# ---------------------------------------------------------------------------


def _generator_perturbed_seq(seed):
    """The perturbed key stream as first written: a Python generator."""
    rng = random.Random(seed)
    for n in itertools.count():
        yield (rng.getrandbits(32), n)


@pytest.mark.parametrize("seed", [0, 7, 20])
def test_perturbed_seq_keys_match_the_generator(seed):
    fast = itertools.islice(_perturbed_seq(seed), 10_000)
    slow = itertools.islice(_generator_perturbed_seq(seed), 10_000)
    assert list(fast) == list(slow)
