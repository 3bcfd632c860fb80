"""BLCR checkpoint path.

``cr_checkpoint`` serializes a process through any
:class:`~repro.osim.fd.FileDescriptor` — a local file, an NFS file, or a
Snapify-IO socket. ``cr_request_checkpoint`` is the asynchronous entry point
the paper's offload process uses: the capture request arrives over the
daemon pipe, and the process checkpoints itself.

Both capture either image kind: a full :class:`ProcessContext`, or — given
a ``snapshot_id`` — the next :class:`~repro.blcr.incremental.DeltaImage`
link of that snapshot's chain (the base on its first capture, dirty pages
after). Without a descriptor the kernel-side cost is still charged but
nothing is written: the in-memory tier takes the image from the caller.
"""

from __future__ import annotations

from typing import Optional

from ..osim.fd import FileDescriptor
from ..osim.process import SimProcess
from ..sim.errors import SimError
from ..sim.events import Event
from .context import RECORD_CPU_COST, ProcessContext
from .incremental import capture_incremental


def page_walk_cost(os_instance) -> float:
    """Per-byte kernel cost of walking/copying process pages on this OS.

    Nonzero on the Phi (slow in-order cores; see PhiParams.blcr_page_cost,
    expressed per 4 KiB page), negligible on the host.
    """
    hw = getattr(os_instance, "hw", None)
    node = getattr(hw, "node", None)
    if node is None:
        return 0.0  # host
    return node.params.phi.blcr_page_cost / 4096.0


class BLCRError(SimError):
    """Checkpoint/restart failure."""


def cr_checkpoint(proc: SimProcess, fd: Optional[FileDescriptor] = None,
                  snapshot_id: Optional[str] = None):
    """Sub-generator: capture ``proc`` and write the image through ``fd``.

    Returns the captured :class:`ProcessContext`, or the next chain link for
    ``snapshot_id`` when one is given. State is copied atomically at entry;
    the time is spent on record assembly and the page walk over the bytes
    the image ships, and on pushing them through ``fd`` when there is one.
    """
    if not proc.alive:
        raise BLCRError(f"cannot checkpoint dead process {proc.name}")
    if snapshot_id is None:
        image = ProcessContext.capture(proc)
    else:
        image = capture_incremental(proc, snapshot_id)
    sim = proc.sim
    per_byte = page_walk_cost(proc.os)
    for nbytes, record in image.write_plan():
        yield sim.timeout(RECORD_CPU_COST + per_byte * nbytes)
        if fd is not None:
            yield from fd.write(nbytes, record)
    return image


def cr_request_checkpoint(proc: SimProcess, fd: Optional[FileDescriptor] = None,
                          snapshot_id: Optional[str] = None) -> Event:
    """Asynchronously checkpoint ``proc`` from within (returns a done event).

    Mirrors BLCR's ``cr_request_checkpoint()``: the work happens on a thread
    inside the target process; the returned event succeeds with the captured
    image (see :func:`cr_checkpoint`) or fails with the checkpoint error.
    """
    done = Event(proc.sim, name=f"ckpt:{proc.name}")

    def _runner(proc: SimProcess = proc):
        try:
            image = yield from cr_checkpoint(proc, fd, snapshot_id)
        except SimError as exc:
            done.fail(exc)
            return
        done.succeed(image)

    proc.spawn_thread(_runner(), name="blcr-checkpoint")
    return done
