"""BLCR context files.

A context file is the serialized image of one process: a burst of small
metadata records (credentials, fd table, per-thread register/signal state)
followed by the bulk memory pages. The *write pattern* is modeled faithfully
because it drives Table 4: "BLCR performs multiple small writes before
reaching the loop where it actually takes snapshots of the application's
memory pages, and these small writes lead to poor performance for the NFS
variants."
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..osim.process import MemoryRegion, SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from .plugins import PluginImage, PluginRegistry

#: Size of one metadata record.
SMALL_RECORD = 256
#: Fixed number of prologue records (header, creds, mm layout, fd table...).
BASE_SMALL_RECORDS = 48
#: Metadata records per thread (registers, signal mask, FPU state...).
RECORDS_PER_THREAD = 4
#: Bulk pages are written in chunks of this size.
BULK_CHUNK = 4 * 1024 * 1024
#: CPU cost of assembling one record (kernel-side copy bookkeeping).
RECORD_CPU_COST = 4e-6


def small_records(nthreads: int, nregions: int,
                  plugin_images: Sequence["PluginImage"]) -> int:
    """Metadata records of an image: prologue, per-thread state, one per
    region entry, plus each plugin image's own records."""
    return (
        BASE_SMALL_RECORDS
        + RECORDS_PER_THREAD * nthreads
        + nregions
        + sum(image.records for image in plugin_images)
    )


def image_size(nthreads: int, region_sizes: Sequence[int],
               plugin_images: Sequence["PluginImage"]) -> int:
    """Serialized bytes of a full image: metadata records, every region's
    pages, then every plugin image's bulk payload."""
    return (
        small_records(nthreads, len(region_sizes), plugin_images) * SMALL_RECORD
        + sum(region_sizes)
        + sum(image.bulk_bytes for image in plugin_images)
    )


def bulk_chunks(nbytes: int) -> Iterator[int]:
    """The chunk sizes a bulk payload of ``nbytes`` moves in."""
    while nbytes > 0:
        chunk = min(nbytes, BULK_CHUNK)
        yield chunk
        nbytes -= chunk


def record_plan(n_small: int, header: Any,
                bulk: Iterable[int]) -> List[Tuple[int, Optional[Any]]]:
    """An image's (nbytes, record) write sequence: ``n_small`` metadata
    records, the last carrying ``header`` (the image object a reader
    rebuilds from), then each bulk payload in ``bulk`` chunked."""
    plan: List[Tuple[int, Optional[Any]]] = [(SMALL_RECORD, None)] * (n_small - 1)
    plan.append((SMALL_RECORD, header))
    for nbytes in bulk:
        plan.extend((chunk, None) for chunk in bulk_chunks(nbytes))
    return plan


@dataclass
class RegionImage:
    """Serialized form of one memory region."""

    name: str
    size: int
    kind: str
    pinned: bool
    data: Any = None

    @staticmethod
    def from_region(region: MemoryRegion) -> "RegionImage":
        return RegionImage(
            name=region.name,
            size=region.size,
            kind=region.kind,
            pinned=region.pinned,
            data=copy.deepcopy(region.data),
        )


@dataclass
class ProcessContext:
    """Everything needed to rebuild a process on (possibly another) OS.

    ``main_factory`` stands in for the executable: restart re-invokes it
    against the restored ``store``, and resumable programs keep their
    progress (iteration counters, phase tags) in the store.
    """

    name: str
    nthreads: int
    store: Dict[str, Any]
    regions: List[RegionImage]
    main_factory: Optional[Callable] = None
    #: Ordered images from non-builtin checkpoint plugins (sockets, RAM-FS
    #: files, signals, RDMA windows, ...). Empty for legacy captures, which
    #: keeps ``image_bytes``/``write_plan`` — and the golden trace —
    #: byte-identical when only the built-ins are registered.
    plugin_images: List["PluginImage"] = field(default_factory=list)

    @property
    def image_bytes(self) -> int:
        """Total serialized size: metadata records + memory pages."""
        return self.metadata_bytes + self.bulk_bytes

    @property
    def metadata_bytes(self) -> int:
        return self.n_small_records * SMALL_RECORD

    @property
    def n_small_records(self) -> int:
        return small_records(self.nthreads, len(self.regions), self.plugin_images)

    @property
    def bulk_bytes(self) -> int:
        return sum(r.size for r in self.regions) + sum(
            image.bulk_bytes for image in self.plugin_images
        )

    def plugin_payload(self, name: str) -> Optional[Any]:
        """The payload of the named plugin's image, or ``None``."""
        for image in self.plugin_images:
            if image.plugin == name:
                return image.payload
        return None

    def write_plan(self) -> List[Tuple[int, Optional[Any]]]:
        """The (nbytes, record) sequence BLCR pushes through the descriptor.

        The final metadata record carries the context object itself so a
        reader can reconstruct the process; earlier records model the write
        pattern. Each region's pages are chunked on their own, then each
        plugin image's bulk payload (the restore side mirrors this layout).
        """
        return record_plan(
            self.n_small_records, self,
            [r.size for r in self.regions]
            + [image.bulk_bytes for image in self.plugin_images],
        )

    @staticmethod
    def capture(
        proc: SimProcess, registry: Optional["PluginRegistry"] = None
    ) -> "ProcessContext":
        """Freeze a live process into a context (instantaneous state copy).

        Capture is plugin-driven: each registered plugin's ``pre_checkpoint``
        freezes its resource. The built-ins (memory regions, store) fold into
        the legacy context fields; extras append to ``plugin_images``. With
        the default registry the result is bit-for-bit what the monolithic
        capture produced.

        The caller is responsible for quiescence: Snapify guarantees it via
        the pause protocol, native benchmarks via their own structure. The
        copy itself is atomic at the simulated instant it is taken.
        """
        from .plugins import PluginRegistry

        if registry is None:
            registry = PluginRegistry.for_process(proc)
        ctx = ProcessContext(
            name=proc.name,
            nthreads=max(1, len([t for t in proc.threads if t.alive])),
            store={},
            regions=[],
            main_factory=proc.main_factory,
        )
        for plugin in registry:
            image = plugin.pre_checkpoint(proc)
            if image is None:
                continue
            if plugin.builtin:
                plugin.apply_to_context(ctx, image)
            else:
                ctx.plugin_images.append(image)
        return ctx
