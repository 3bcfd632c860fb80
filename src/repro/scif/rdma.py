"""SCIF RDMA verbs.

Four transfer functions mirror the real API (§2 of the paper):

* ``scif_vwriteto`` / ``scif_vreadfrom`` — local side is an arbitrary
  virtual buffer, remote side must be a registered window.
* ``scif_writeto`` / ``scif_readfrom`` — both sides registered (fastest
  path; used by COI for buffer transfers).

All verbs move ``nbytes`` across the PCIe path between the two endpoints'
OS instances and can carry an optional real ``payload`` that materializes at
the destination (the caller decides where to put it — RDMA is zero-copy, so
the verbs just return it).
"""

from __future__ import annotations

from typing import Any

from .endpoint import ScifEndpoint, ScifError
from .registry import check_local_window, check_remote_window


def _rdma_transfer(ep: ScifEndpoint, nbytes: int, toward_peer: bool):
    if ep.closed:
        raise ScifError(f"ep{ep.eid}: RDMA on closed endpoint")
    peer = ep.peer
    if peer is None or peer.closed:
        raise ScifError(f"ep{ep.eid}: RDMA with no live peer")
    if nbytes < 0:
        raise ScifError("negative RDMA size")
    segs = ep._route if toward_peer else peer._route
    if not segs:
        # Loopback RDMA: charge a memcpy on the local pool.
        yield ep.sim.timeout(ep.os.memory.memcpy_time(nbytes))
        return
    t0 = ep.sim.now
    for link, direction in segs:
        yield from link.rdma(direction, nbytes)
    if len(segs) == 2:
        # Device-to-device: the root complex paces P2P traffic far below
        # the raw per-hop DMA rate.
        p2p_bw = segs[0][0].params.p2p_bw
        floor = nbytes / p2p_bw
        elapsed = ep.sim.now - t0
        if elapsed < floor:
            yield ep.sim.timeout(floor - elapsed)


def scif_vwriteto(ep: ScifEndpoint, remote_offset: int, nbytes: int, payload: Any = None):
    """Sub-generator: push local virtual memory into the peer's window."""
    check_remote_window(ep, remote_offset, nbytes)
    yield from _rdma_transfer(ep, nbytes, toward_peer=True)
    return payload


def scif_vreadfrom(ep: ScifEndpoint, remote_offset: int, nbytes: int, payload: Any = None):
    """Sub-generator: pull the peer's window into local virtual memory."""
    check_remote_window(ep, remote_offset, nbytes)
    yield from _rdma_transfer(ep, nbytes, toward_peer=False)
    return payload


def scif_writeto(ep: ScifEndpoint, local_offset: int, remote_offset: int, nbytes: int, payload: Any = None):
    """Sub-generator: registered-to-registered push."""
    check_local_window(ep, local_offset, nbytes)
    check_remote_window(ep, remote_offset, nbytes)
    yield from _rdma_transfer(ep, nbytes, toward_peer=True)
    return payload


def scif_readfrom(ep: ScifEndpoint, local_offset: int, remote_offset: int, nbytes: int, payload: Any = None):
    """Sub-generator: registered-to-registered pull."""
    check_local_window(ep, local_offset, nbytes)
    check_remote_window(ep, remote_offset, nbytes)
    yield from _rdma_transfer(ep, nbytes, toward_peer=False)
    return payload
