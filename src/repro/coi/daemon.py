"""The COI daemon (one per coprocessor).

The daemon launches offload processes on request from host applications,
monitors both ends (terminating orphaned offload processes and cleaning up
their local-store files), and — in the Snapify-extended stack — coordinates
the pause/capture/resume/restore protocol, dispatching snapify service
requests to handlers registered in :attr:`COIDaemon.extensions`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..hw.node import PhiDevice
from ..osim.process import OSInstance, SimProcess
from ..scif.endpoint import ConnectionReset, ScifEndpoint, ScifNetwork
from ..scif.ports import COI_DAEMON_PORT
from ..sim.errors import Interrupted
from ..sim.events import Event
from . import messages as m
from .buffer import localstore_dir
from .process import card_main_factory
from .services import COIError


@dataclass
class DaemonEntry:
    """Daemon-side bookkeeping for one offload process."""

    host_proc: SimProcess
    offload_proc: SimProcess
    port: int
    state: str = "running"  # running | terminated | crashed
    #: Daemon-side endpoint of the snapify control pipe (opened at pause).
    pipe: Optional[Any] = None


class COIDaemon:
    """One ``coi_daemon`` process on one Phi."""

    #: name -> handler(daemon, ep, msg) sub-generator; Snapify installs here.
    extensions: Dict[str, Callable] = {}

    def __init__(self, phi: PhiDevice):
        if phi.os is None:
            raise COIError(f"{phi!r}: boot the card OS before starting the daemon")
        self.phi = phi
        self.phi_os: OSInstance = phi.os
        self.sim = phi.sim
        self.entries: Dict[int, DaemonEntry] = {}
        self._ports = itertools.count(2000 + 10_000 * phi.scif_node_id)
        self.proc: Optional[SimProcess] = None
        #: Extension attachment point (Snapify's monitor-thread state).
        self.runtime: Dict[str, Any] = {}

    # -- boot -------------------------------------------------------------------
    @staticmethod
    def boot(phi: PhiDevice):
        """Sub-generator: start the daemon process on the card; returns it."""
        daemon = COIDaemon(phi)
        proc = yield from phi.os.spawn_process(
            f"coi_daemon.mic{phi.index}", image_size=8 * 1024 * 1024,
            main_factory=daemon._main_factory(), start=True,
        )
        daemon.proc = proc
        proc.main_thread.daemon = True  # service loop: never exits
        phi.coi_daemon = daemon  # type: ignore[attr-defined]
        return daemon

    @staticmethod
    def of(phi: PhiDevice) -> "COIDaemon":
        daemon = getattr(phi, "coi_daemon", None)
        if daemon is None:
            raise COIError(f"{phi!r}: COI daemon not booted")
        return daemon

    def _main_factory(self):
        def main(proc: SimProcess):
            net = ScifNetwork.of(self.phi.node)
            listener = net.listen(self.phi_os, COI_DAEMON_PORT)
            proc.runtime["listener"] = listener
            proc.open_fds.append(listener)  # released if the daemon dies
            while True:
                ep = yield listener.accept()
                # Owning the endpoint means a card failure (killing this
                # daemon) resets the host's connection instead of hanging it.
                proc.open_fds.append(ep)
                proc.spawn_thread(self._conn_handler(ep), name="daemon-conn", daemon=True)

        return main

    # -- per-connection service loop ------------------------------------------------
    def _conn_handler(self, ep: ScifEndpoint):
        try:
            while True:
                msg = yield ep.recv()
                if not isinstance(msg, dict):
                    raise COIError(f"daemon: bad message {msg!r}")
                mtype = msg.get("type")
                if mtype == m.LAUNCH:
                    yield from self._handle_launch(ep, msg)
                elif mtype == m.SHUTDOWN_PROC:
                    yield from self._handle_shutdown(ep, msg)
                elif mtype in self.extensions:
                    yield from self.extensions[mtype](self, ep, msg)
                else:
                    raise COIError(f"daemon: unknown request {mtype!r}")
        except Interrupted:
            return
        except ConnectionReset:
            if not ep.peer.closed:
                raise  # another connection's reset: not this requester's
            # The requester went away, before its next request or before
            # our reply; its exit callbacks clean up.

    def _handle_launch(self, ep: ScifEndpoint, msg: Dict[str, Any]):
        port = next(self._ports)
        offload = yield from self.phi_os.spawn_process(
            f"{msg['name']}.offload", image_size=0,
            main_factory=card_main_factory(msg["binary"]), start=False,
        )
        offload.store["_snapify_enabled"] = msg.get("snapify_enabled", True)
        entry = DaemonEntry(host_proc=msg["host_proc"], offload_proc=offload, port=port)
        try:
            yield from self.start_offload(entry)
        except COIError as exc:
            yield from ep.send({"type": m.REPLY, "ok": False, "error": str(exc)})
            return
        yield from ep.send({"type": m.LAUNCH_OK, "pid": offload.pid, "port": port,
                            "offload_proc": offload})

    def start_offload(self, entry: DaemonEntry):
        """Sub-generator: the one start path of an offload process, freshly
        spawned or BLCR-restored (not yet started).

        Starts it, registers and watches ``entry``, and waits until the card
        runtime listens on ``entry.port``. An offload whose main thread ends
        before it listens (a crash, or a kill because its host exited) fails
        that rendezvous: the daemon reaps it and raises :class:`COIError`.
        """
        proc = entry.offload_proc
        listening = self.sim.event(f"listening:{proc.name}")
        proc.runtime["listening"] = listening
        proc.store["_listen_port"] = entry.port
        proc.start()
        self.entries[proc.pid] = entry

        def on_main_done(done: Event) -> None:
            if not listening.triggered:
                listening.fail(COIError(
                    f"{proc.name} exited before listening: {done.exception!r}"))

        def on_offload_exit(_ev: Event) -> None:
            if entry.state == "running":
                # Without Snapify's bookkeeping the daemon "will assume that
                # the offload process has crashed" (§3).
                entry.state = "crashed"
            self._cleanup_localstore(entry)

        proc.main_thread.done.add_callback(on_main_done)
        proc.exit_event.add_callback(on_offload_exit)
        # Monitor both ends through the processes' own exit events: an
        # orphaned offload is terminated and cleaned up (§2), at once if its
        # host has already exited.
        entry.host_proc.exit_event.add_callback(
            lambda _ev: self.terminate_offload(entry, expected=True))
        try:
            yield listening  # card runtime is accepting connections
        except COIError:
            self.terminate_offload(entry, expected=False)
            raise

    def _handle_shutdown(self, ep: ScifEndpoint, msg: Dict[str, Any]):
        entry = self.entries.get(msg["pid"])
        if entry is None:
            yield from ep.send({"type": m.REPLY, "ok": False})
            return
        self.terminate_offload(entry, expected=True)
        yield from ep.send({"type": m.REPLY, "ok": True})

    # -- monitoring --------------------------------------------------------------------
    def terminate_offload(self, entry: DaemonEntry, expected: bool) -> None:
        if entry.offload_proc.alive:
            entry.state = "terminated" if expected else "crashed"
            entry.offload_proc.terminate()

    def _cleanup_localstore(self, entry: DaemonEntry) -> None:
        prefix = localstore_dir(entry.offload_proc.pid)
        for path in self.phi_os.fs.listdir(prefix):
            self.phi_os.fs.unlink(path)

    def entry_for(self, offload_proc: SimProcess) -> DaemonEntry:
        entry = self.entries.get(offload_proc.pid)
        if entry is None:
            raise COIError(f"daemon has no entry for pid {offload_proc.pid}")
        return entry
