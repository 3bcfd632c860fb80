"""Tests for the SCIF layer: connections, messaging, RDMA, teardown."""

import itertools

import pytest

from repro.hw import GB, MB, HardwareParams, ServerNode
from repro.osim import boot_node
from repro.scif import (
    ConnectionReset,
    ScifError,
    ScifNetwork,
    scif_register,
    scif_unregister,
    scif_vreadfrom,
    scif_vwriteto,
    scif_writeto,
)
from repro.scif.registry import RdmaRegistry
from repro.sim import Simulator


def make_env(phis=2):
    sim = Simulator()
    node = ServerNode(sim, HardwareParams(phis_per_node=phis))
    host_os, phi_oses = boot_node(node)
    net = ScifNetwork.of(node)
    return sim, node, net, host_os, phi_oses


def run(sim, gen):
    t = sim.spawn(gen)
    sim.run()
    assert t.done.ok, t.done.exception
    return t.done.value


def test_connect_and_message_roundtrip():
    sim, node, net, host, phis = make_env()
    listener = net.listen(phis[0], port=100)
    log = []

    def server(sim):
        ep = yield listener.accept()
        msg = yield ep.recv()
        log.append(msg)
        yield from ep.send({"reply": "ok"})

    def client(sim):
        ep = yield from net.connect(host, dst_node_id=1, dst_port=100)
        yield from ep.send({"cmd": "ping"})
        reply = yield ep.recv()
        return reply

    sim.spawn(server(sim))
    t = sim.spawn(client(sim))
    sim.run()
    assert log == [{"cmd": "ping"}]
    assert t.done.value == {"reply": "ok"}


def test_connect_refused_without_listener():
    sim, node, net, host, phis = make_env()

    def client(sim):
        yield sim.timeout(0)
        with pytest.raises(ScifError):
            yield from net.connect(host, dst_node_id=1, dst_port=999)
        return "ok"

    assert run(sim, client(sim)) == "ok"


def test_duplicate_listen_rejected():
    sim, node, net, host, phis = make_env()
    net.listen(phis[0], port=100)
    with pytest.raises(ScifError):
        net.listen(phis[0], port=100)


def test_rdma_register_and_vwriteto():
    sim, node, net, host, phis = make_env()
    listener = net.listen(phis[0], port=100)
    state = {}

    def offload_side(sim):
        ep = yield listener.accept()
        offset = yield from scif_register(ep, 256 * MB)
        state["offset"] = offset
        yield from ep.send({"offset": offset})
        msg = yield ep.recv()  # completion notification
        state["payload"] = msg

    def host_side(sim):
        ep = yield from net.connect(host, 1, 100)
        msg = yield ep.recv()
        t0 = sim.now
        yield from scif_vwriteto(ep, msg["offset"], 256 * MB, payload="weights")
        state["xfer_time"] = sim.now - t0
        yield from ep.send("weights")

    sim.spawn(offload_side(sim))
    sim.spawn(host_side(sim))
    sim.run()
    assert state["payload"] == "weights"
    # 256 MB over ~6 GB/s PCIe -> ~42 ms.
    assert state["xfer_time"] == pytest.approx(256 * MB / (6.0 * GB), rel=0.1)


def test_rdma_to_unregistered_offset_fails():
    sim, node, net, host, phis = make_env()
    listener = net.listen(phis[0], port=100)

    def offload_side(sim):
        ep = yield listener.accept()
        yield ep.recv()

    def host_side(sim):
        ep = yield from net.connect(host, 1, 100)
        with pytest.raises(ScifError, match="unregistered"):
            yield from scif_vwriteto(ep, 0xDEAD000, 1 * MB)
        yield from ep.send("done")
        return "ok"

    sim.spawn(offload_side(sim))
    t = sim.spawn(host_side(sim))
    sim.run()
    assert t.done.value == "ok"


def test_rdma_window_overrun_rejected():
    sim, node, net, host, phis = make_env()
    listener = net.listen(phis[0], port=100)

    def offload_side(sim):
        ep = yield listener.accept()
        offset = yield from scif_register(ep, 1 * MB)
        yield from ep.send(offset)
        yield ep.recv()

    def host_side(sim):
        ep = yield from net.connect(host, 1, 100)
        offset = yield ep.recv()
        with pytest.raises(ScifError, match="overruns"):
            yield from scif_vwriteto(ep, offset, 2 * MB)
        yield from ep.send("done")

    sim.spawn(offload_side(sim))
    sim.spawn(host_side(sim))
    sim.run()


def test_reregistration_returns_new_offset():
    """The property that forces Snapify's (old, new) address table."""
    sim, node, net, host, phis = make_env()
    listener = net.listen(phis[0], port=100)

    def offload_side(sim):
        ep = yield listener.accept()
        off1 = yield from scif_register(ep, 4 * MB)
        scif_unregister(ep, off1)
        off2 = yield from scif_register(ep, 4 * MB)
        return off1, off2

    def host_side(sim):
        yield from net.connect(host, 1, 100)

    t = sim.spawn(offload_side(sim))
    sim.spawn(host_side(sim))
    sim.run()
    off1, off2 = t.done.value
    assert off1 != off2


def test_writeto_requires_both_windows():
    sim, node, net, host, phis = make_env()
    listener = net.listen(phis[0], port=100)

    def offload_side(sim):
        ep = yield listener.accept()
        roff = yield from scif_register(ep, 4 * MB)
        yield from ep.send(roff)
        yield ep.recv()

    def host_side(sim):
        ep = yield from net.connect(host, 1, 100)
        roff = yield ep.recv()
        with pytest.raises(ScifError, match="not registered"):
            yield from scif_writeto(ep, 0x1234000, roff, 4 * MB)
        loff = yield from scif_register(ep, 4 * MB)
        yield from scif_writeto(ep, loff, roff, 4 * MB)
        yield from ep.send("done")

    sim.spawn(offload_side(sim))
    sim.spawn(host_side(sim))
    sim.run()


def test_readfrom_pulls_data():
    sim, node, net, host, phis = make_env()
    listener = net.listen(phis[0], port=100)
    state = {}

    def offload_side(sim):
        ep = yield listener.accept()
        roff = yield from scif_register(ep, 16 * MB)
        yield from ep.send(roff)
        yield ep.recv()

    def host_side(sim):
        ep = yield from net.connect(host, 1, 100)
        roff = yield ep.recv()
        payload = yield from scif_vreadfrom(ep, roff, 16 * MB, payload="results")
        state["got"] = payload
        yield from ep.send("done")

    sim.spawn(offload_side(sim))
    sim.spawn(host_side(sim))
    sim.run()
    assert state["got"] == "results"


def test_phi_to_phi_path_is_two_hops():
    sim, node, net, host, phis = make_env(phis=2)
    listener = net.listen(phis[1], port=100)
    state = {}

    def mic1_side(sim):
        ep = yield listener.accept()
        roff = yield from scif_register(ep, 600 * MB)
        yield from ep.send(roff)
        yield ep.recv()

    def mic0_side(sim):
        ep = yield from net.connect(phis[0], 2, 100)
        roff = yield ep.recv()
        t0 = sim.now
        yield from scif_vwriteto(ep, roff, 600 * MB)
        state["dt"] = sim.now - t0
        yield from ep.send("done")

    sim.spawn(mic1_side(sim))
    sim.spawn(mic0_side(sim))
    sim.run()
    # Device-to-device transfers are paced by the root complex's P2P rate,
    # far below the raw per-hop DMA bandwidth.
    params = node.params.pcie
    expected = 600 * MB / params.p2p_bw
    assert state["dt"] == pytest.approx(expected, rel=0.1)
    # ... and strictly slower than a single host<->device hop would be.
    assert state["dt"] > 600 * MB / params.dma_bw_d2h


def test_peer_process_death_resets_connection():
    sim, node, net, host, phis = make_env()
    listener = net.listen(phis[0], port=100)
    state = {}

    def offload_main(proc):
        ep = yield listener.accept()
        proc.runtime["ep"] = ep
        yield proc.sim.event("block-forever")

    def host_side(sim):
        offload = yield from phis[0].spawn_process("offload", main_factory=offload_main)
        ep = yield from net.connect(host, 1, 100, proc=None)
        yield sim.timeout(0.01)
        offload.terminate()
        # The peer endpoint was owned by the dead process context; our recv
        # must now fail with a connection reset rather than hang.
        try:
            yield ep.recv()
        except ConnectionReset:
            state["reset"] = True
        return "ok"

    # Endpoint ownership: attach server endpoints to the offload process.
    def offload_main_owned(proc):
        ep = yield listener.accept()
        proc.open_fds.append(ep)
        yield proc.sim.event("block-forever")

    def host_side2(sim):
        offload = yield from phis[0].spawn_process("offload", main_factory=offload_main_owned)
        ep = yield from net.connect(host, 1, 100)
        yield sim.timeout(0.01)
        offload.terminate()
        try:
            yield ep.recv()
        except ConnectionReset:
            state["reset"] = True
        return "ok"

    t = sim.spawn(host_side2(sim))
    sim.run()
    assert t.done.value == "ok"
    assert state.get("reset") is True


def test_endpoint_pending_counts_undelivered_messages():
    sim, node, net, host, phis = make_env()
    listener = net.listen(phis[0], port=100)
    state = {}

    def server(sim):
        ep = yield listener.accept()
        state["ep"] = ep
        yield sim.timeout(1.0)  # don't receive yet

    def client(sim):
        ep = yield from net.connect(host, 1, 100)
        yield from ep.send("m1")
        yield from ep.send("m2")
        yield sim.timeout(0.1)
        state["pending"] = state["ep"].pending

    sim.spawn(server(sim))
    sim.spawn(client(sim))
    sim.run()
    assert state["pending"] == 2


def test_rdma_offsets_match_the_per_page_counter():
    """Offsets are those of the original allocator, which advanced an
    ``itertools.count`` once per page plus once for the window itself."""
    sizes = [1, 4096, 4097, 4 * MB, int(174.9 * MB)]
    counter = itertools.count(0x1_0000)
    expected = []
    for nbytes in sizes:
        base = next(counter)
        for _ in range(max(1, (nbytes + 4095) // 4096)):
            next(counter)
        expected.append(base * 4096)
    registry = RdmaRegistry(os=None)
    assert [registry.allocate_offset(n) for n in sizes] == expected
