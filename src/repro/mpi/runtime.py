"""A small MPI substrate over the simulated cluster fabric.

Point-to-point messages are *tagged* and matched by (source, tag): restarted
ranks may legitimately re-send a message another rank already consumed, and
tag matching makes the duplicate harmless — the property the coordinated
checkpoint protocol of :mod:`repro.mpi.cr` relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..sim.errors import SimError
from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Simulator
    from ..testbed import XeonPhiCluster


class MPIError(SimError):
    """MPI substrate failure."""


class MPIComm:
    """Communicator binding one rank per cluster node."""

    #: Simulator attribute holding every communicator (oracle discovery).
    _ATTR = "mpi_comms"

    def __init__(self, cluster: "XeonPhiCluster", n_ranks: int):
        if n_ranks > len(cluster):
            raise MPIError(f"{n_ranks} ranks > {len(cluster)} nodes")
        self.cluster = cluster
        self.sim = cluster.sim
        self.n_ranks = n_ranks
        #: (dst, src, tag) -> payload (delivered, unconsumed)
        self._delivered: Dict[Tuple[int, int, Any], Any] = {}
        #: (dst, src, tag) -> waiting event
        self._waiters: Dict[Tuple[int, int, Any], Event] = {}
        #: Messages accepted by the substrate (delivered to a waiter or
        #: queued); duplicate re-sends dropped on the floor count in
        #: ``messages_dropped`` instead, so at quiescence
        #: ``messages_sent == messages_consumed + pending_messages()``.
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_consumed = 0
        comms = getattr(self.sim, self._ATTR, None)
        if comms is None:
            comms = []
            setattr(self.sim, self._ATTR, comms)
        comms.append(self)

    @classmethod
    def all_of(cls, sim: "Simulator") -> List["MPIComm"]:
        """Every communicator built on ``sim`` (oracle discovery hook)."""
        return list(getattr(sim, cls._ATTR, ()))

    def send(self, src: int, dst: int, tag: Any, nbytes: int, payload: Any = None):
        """Sub-generator: eager tagged send (re-sends of a still-delivered
        tag are dropped on the floor, making restart-induced duplicates
        safe)."""
        self._check_rank(src)
        self._check_rank(dst)
        yield from self.cluster.cluster.transfer(src, dst, nbytes)
        key = (dst, src, tag)
        waiter = self._waiters.pop(key, None)
        if waiter is not None and waiter.abandoned:
            # The receiving rank died mid-recv: its event has no thread left
            # to resume. Succeeding it would vanish the payload, so re-queue
            # the message for whoever (e.g. a restarted rank) recvs next.
            waiter = None
        if waiter is not None and not waiter.triggered:
            self.messages_sent += 1
            self.messages_consumed += 1
            waiter.succeed(payload)
        elif key in self._delivered:
            self.messages_dropped += 1
        else:
            self.messages_sent += 1
            self._delivered[key] = payload

    def recv(self, dst: int, src: int, tag: Any) -> Event:
        """Event for the (src, tag) message addressed to ``dst``."""
        self._check_rank(src)
        self._check_rank(dst)
        key = (dst, src, tag)
        ev = Event(self.sim, name=f"mpi.recv:{key}")
        if key in self._delivered:
            self.messages_consumed += 1
            ev.succeed(self._delivered.pop(key))
        else:
            stale = self._waiters.get(key)
            if stale is not None and not stale.triggered and not stale.abandoned:
                raise MPIError(f"double recv on {key}")
            self._waiters[key] = ev
        return ev

    def pending_messages(self) -> int:
        """Delivered-but-unconsumed messages (drain probe for checkpoints)."""
        return len(self._delivered)

    def _check_rank(self, r: int) -> None:
        if not (0 <= r < self.n_ranks):
            raise MPIError(f"bad rank {r}")
