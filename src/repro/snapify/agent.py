"""The Snapify card agent: the offload-process side of the protocol.

When the COI daemon receives a pause request it opens a pipe to the offload
process and signals it; the signal handler (installed by the Snapify-
modified COI runtime) attaches this agent to the pipe. The agent then
services pause / capture / resume requests arriving over the pipe:

* **pause** — quiesce the card side of every SCIF channel (drain cases 3
  and 4), then save the local store to the host snapshot directory through
  Snapify-IO.
* **capture** — run BLCR against a Snapify-IO descriptor so the context
  streams straight to the host file system (or, for an incremental
  capture, place the next chain link in the in-memory tier).
* **resume** — release every lock taken by the pause.
"""

from __future__ import annotations


from ..blcr import cr_request_checkpoint
from ..blcr.plugins import PluginRegistry
from ..coi.process import CardRuntime
from ..obs.registry import MetricsRegistry
from ..osim.process import SimProcess
from ..snapify_io.library import snapifyio_open
from . import constants as c


def install_signal_handler(proc: SimProcess) -> None:
    """Install the SIGSNAPIFY handler that attaches the agent to the pipe
    the daemon just created (step 2 of Fig. 3)."""
    from ..osim import signals as sig

    def handler(proc: SimProcess, signum: int):
        pipe_end = proc.runtime.pop("snapify_pipe_pending", None)
        if pipe_end is None:
            return  # spurious signal
        proc.runtime["snapify_pipe"] = pipe_end
        yield from pipe_end.send({"t": c.PAUSE_ACK})
        yield from agent_loop(proc, pipe_end)

    proc.install_signal_handler(sig.SIGSNAPIFY, handler)


def attach_restored_agent(proc: SimProcess) -> None:
    """Restored offload processes get their pipe at creation (no signal)."""
    pipe_end = proc.runtime.pop("snapify_pipe_pending", None)
    if pipe_end is None:
        return
    proc.runtime["snapify_pipe"] = pipe_end
    proc.spawn_thread(_restored_agent(proc, pipe_end), name="snapify-agent", daemon=True)


def _restored_agent(proc: SimProcess, pipe_end):
    yield from pipe_end.send({"t": c.PAUSE_ACK})
    yield from agent_loop(proc, pipe_end)


def agent_loop(proc: SimProcess, pipe_end):
    """Service loop over the daemon pipe."""
    runtime: CardRuntime = proc.runtime["coi"]
    sim = proc.sim
    while True:
        msg = yield pipe_end.recv()
        op = msg["op"]
        parent = msg.get("span", 0)
        # Echoed in every reply so the daemon's monitor thread can route
        # the status to the operation that requested it.
        op_id = msg.get("op_id", 0)
        if op == "pause":
            sp = sim.trace.span("agent.pause", parent=parent, proc=proc.name)
            sub = sim.trace.span("agent.quiesce", parent=sp)
            yield from runtime.quiesce()
            sub.finish()
            # Checkpoint-plugin drain phase: at the DRAINED boundary every
            # registered plugin that overrides pre_pause gets to quiesce its
            # resource (e.g. wait out in-flight socket datagrams). With only
            # the built-ins registered this emits nothing — the golden trace
            # is untouched.
            drainers = PluginRegistry.for_process(proc).drain_plugins()
            if drainers:
                sub = sim.trace.span("agent.plugin_drain", parent=sp,
                                     plugins=len(drainers))
                for plugin in drainers:
                    hook = plugin.pre_pause(proc)
                    if hook is not None:
                        yield from hook
                sub.finish()
            sub = sim.trace.span("agent.localstore_save", parent=sp,
                                 node=msg.get("localstore_node", 0))
            try:
                ls_bytes = yield from save_local_store(
                    proc, runtime, msg["path"],
                    node=msg.get("localstore_node", 0), span=sub.span_id,
                )
            except Exception as exc:
                # The save target is gone (dead card, downed link, crashed
                # IO daemon). Un-pause and report a clean operation failure
                # instead of dying with the locks held — a silent agent
                # death leaves the host waiting on the pipe forever.
                runtime.release()
                sub.finish(error=str(exc))
                yield from pipe_end.send(
                    {"t": c.SNAPIFY_FAILED, "op_id": op_id,
                     "reason": f"local store save failed: {exc}"}
                )
                sp.finish(error=str(exc))
                continue
            sub.finish(bytes=ls_bytes)
            reply = {"t": c.PAUSE_COMPLETE, "localstore_bytes": ls_bytes,
                     "op_id": op_id}
            if drainers:
                reply["plugins_drained"] = len(drainers)
            yield from pipe_end.send(reply)
            sp.finish(localstore_bytes=ls_bytes)
        elif op == "capture":
            name = "agent.capture_delta" if msg.get("incremental") else "agent.capture"
            sp = sim.trace.span(name, parent=parent, proc=proc.name)
            yield from _capture(proc, pipe_end, msg, op_id, sp)
        elif op == "resume":
            sp = sim.trace.span("agent.resume", parent=parent, proc=proc.name)
            runtime.release()
            yield from pipe_end.send({"t": c.RESUME_ACK, "op_id": op_id})
            sp.finish()
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"snapify agent: unknown op {op!r}")


class _CaptureFailed(Exception):
    """A capture sink gave up; the message is the reason the host sees and
    ``__cause__`` the error that ended it."""


def _capture(proc: SimProcess, pipe_end, msg, op_id: int, sp):
    """Sub-generator: one BLCR capture into its sink, reported over the pipe.

    Image and sink are the only things a full and an incremental capture
    differ in. A full capture streams a :class:`~repro.blcr.ProcessContext`
    to the host file system (:func:`_stream_to_host`); an incremental one
    (``msg["incremental"]``) takes the next chain link of the snapshot and
    places it in the in-memory tier (:func:`_store_in_memtier`). Either way
    the agent answers with one ``CAPTURE_COMPLETE`` or, when the sink gives
    up, one ``SNAPIFY_FAILED`` — a clean operation failure on the host
    rather than a dead agent.
    """
    incremental = bool(msg.get("incremental"))
    sink = _store_in_memtier if incremental else _stream_to_host
    try:
        image, reply = yield from sink(proc, pipe_end, msg, op_id, sp)
    except _CaptureFailed as exc:
        yield from pipe_end.send(
            {"t": c.SNAPIFY_FAILED, "op_id": op_id, "reason": str(exc)}
        )
        sp.finish(error=str(exc.__cause__))
        return
    if image.plugin_images:
        reply["plugins"] = len(image.plugin_images)
    yield from pipe_end.send({"t": c.CAPTURE_COMPLETE, "op_id": op_id, **reply})
    if incremental:
        sp.finish(epoch=image.epoch, delta_bytes=image.delta_bytes,
                  logical_bytes=image.logical_bytes)
    else:
        sp.finish(bytes=image.image_bytes)


def _stream_to_host(proc: SimProcess, pipe_end, msg, op_id: int, sp):
    """Sink of a full capture: BLCR writes the context through a Snapify-IO
    descriptor to the host snapshot directory, surviving transient stream
    faults. Returns the context and its reply fields.

    A broken stream (connection reset, link flap, daemon restart) aborts
    the current descriptor — the remote keeps its durable partial — backs
    off per the daemon's :class:`~repro.snapify_io.resilience.RetryPolicy`,
    then re-opens with ``resume=True`` and re-runs the checkpoint; the
    descriptor silently skips the bytes already durable. The fault-free
    first attempt is event-for-event identical to the pre-resilience code.
    """
    from ..snapify_io.daemon import SnapifyIODaemon
    from ..snapify_io.resilience import TRANSIENT_ERRORS, RetryPolicy

    sim = proc.sim
    path = c.context_path(msg["path"])
    policy = RetryPolicy.from_params(SnapifyIODaemon.of(proc.os).params)
    attempts = max(1, policy.attempts)
    for attempt in range(1, attempts + 1):
        fd = None
        try:
            fd = yield from snapifyio_open(
                proc.os, node=0, path=path, mode="w", proc=proc,
                span=sp.span_id, resume=attempt > 1,
            )
            ctx = yield cr_request_checkpoint(proc, fd)
            yield from fd.finish()
        except TRANSIENT_ERRORS as exc:
            if fd is not None and not fd.closed:
                fd.close()  # abort marker: the remote keeps its partial
            if attempt == attempts:
                raise _CaptureFailed(
                    f"capture stream failed after {attempts} attempts: {exc}"
                ) from exc
            MetricsRegistry.of(sim).counter("snapifyio.retries").inc()
            sim.trace.emit("io.retry", path=path, channel="snapifyio",
                           attempt=attempt, error=str(exc))
            yield from policy.backoff(sim, attempt)
            continue
        return ctx, {"image_bytes": ctx.image_bytes, "attempts": attempt,
                     "channel": "snapifyio"}


def _store_in_memtier(proc: SimProcess, pipe_end, msg, op_id: int, sp):
    """Sink of an incremental capture: the next chain link goes to the
    in-memory partner tier. Returns the link and its reply fields.

    Epoch 0 is the full base image, later epochs only the pages written
    since the previous capture (the dirty bitmap decides). The image never
    touches a channel here: it is committed to the local card's memory tier
    copy, then replicated to a partner card — NFS demotion is somebody
    else's background ticket. A dead process or a full tier fails the
    capture.
    """
    from ..hw.memory import MemoryExhausted
    from ..sim.errors import SimError
    from ..snapify_io.memtier import MemoryTier, TierError

    path = msg["path"]
    try:
        image = yield cr_request_checkpoint(proc, snapshot_id=path)
    except SimError as exc:
        raise _CaptureFailed(f"incremental capture failed: {exc}") from exc
    # Delta harvested and sealed: tell the host before the (potentially
    # slow) partner replication so the operation can show REPLICATING.
    yield from pipe_end.send(
        {"t": c.CAPTURE_REPLICATING, "op_id": op_id, "epoch": image.epoch,
         "delta_bytes": image.delta_bytes}
    )
    try:
        placement = yield from MemoryTier.of(proc.sim).store(
            proc.os, path, image, span=sp.span_id)
    except (TierError, MemoryExhausted) as exc:
        raise _CaptureFailed(f"memory tier store failed: {exc}") from exc
    return image, {"image_bytes": image.logical_bytes,
                   "delta_bytes": image.delta_bytes, "epoch": image.epoch,
                   "incremental": True, "tier": "memtier",
                   "partner": placement.get("partner"), "attempts": 1,
                   "channel": "memtier"}


def save_local_store(proc: SimProcess, runtime: CardRuntime, snapshot_path: str,
                     node: int = 0, span: int = 0):
    """Sub-generator: stream the local store (COI buffer files) through
    Snapify-IO to SCIF node ``node`` — the host (0) for checkpoint/swap, or
    the migration target card directly ("the offload process copies its
    local store directly from its current coprocessor to another
    coprocessor using Snapify-IO", §7). Returns the byte count.

    This does not use any of the quiesced SCIF channels between the host
    process and the offload process — Snapify-IO has its own connection.
    """
    meta = {"buffers": {}}
    total = 0
    fd = yield from snapifyio_open(
        proc.os, node=node, path=c.localstore_path(snapshot_path), mode="w", proc=proc,
        span=span,
    )
    for buf_id, entry in sorted(runtime._buffers.items()):
        f = runtime.buffer_file(buf_id)
        # Read the RAM-FS file, then stream it out.
        yield from proc.os.fs.read(entry["path"])
        yield from fd.write(entry["size"])
        meta["buffers"][buf_id] = {
            "size": entry["size"], "path": entry["path"], "payload": f.payload,
        }
        total += entry["size"]
    yield from fd.write(1, record=meta)
    yield from fd.finish()
    return total
