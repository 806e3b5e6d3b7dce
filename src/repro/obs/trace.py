"""The structured trace ring buffer.

Every interesting transition inside a run -- a fault, a prefetch being
issued / filtered / dropped, a release, an eviction, a disk request --
can be recorded as one :class:`TraceEvent` in a fixed-capacity ring
buffer.  The buffer never allocates after construction beyond the event
tuples themselves, wraps around silently (keeping the *newest* events,
counting what it overwrote), and costs nothing when absent: every
emitting component holds an observer reference that is ``None`` unless
tracing was requested, so the hot paths pay one identity check at most.

Events are flat and fixed-schema on purpose.  Each carries the simulated
timestamp, a :class:`TraceKind`, a page number, a page count, one
kind-specific float ``value``, and one kind-specific string ``tag``;
``docs/observability.md`` documents the meaning of ``value``/``tag`` per
kind, and ``scripts/check_docs.py`` keeps that table honest.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple

from repro.errors import MachineError


class TraceKind(str, enum.Enum):
    """What one trace event records (see docs/observability.md)."""

    #: A demand access that was not a plain hit: any of the paper's
    #: fault classes (tag carries the :class:`AccessOutcome` value).
    FAULT = "fault"
    #: A prefetch run handed to the OS (one event per contiguous run
    #: actually sent to the disks).
    PREFETCH_ISSUED = "prefetch_issued"
    #: Prefetched pages dropped by the run-time layer's bit-vector check.
    PREFETCH_FILTERED = "prefetch_filtered"
    #: A prefetch request skipped wholesale by adaptive suppression.
    PREFETCH_SUPPRESSED = "prefetch_suppressed"
    #: A prefetch the OS dropped because no frame was free.
    PREFETCH_DROPPED = "prefetch_dropped"
    #: A prefetch satisfied by reclaiming the page from the free list.
    PREFETCH_RECLAIMED = "prefetch_reclaimed"
    #: A prefetch for a page the OS found already resident.
    PREFETCH_UNNECESSARY = "prefetch_unnecessary"
    #: One release call reaching the OS (npages = pages actually freed).
    RELEASE = "release"
    #: One page evicted (tag: "fault", "daemon", or "pressure").
    EVICTION = "eviction"
    #: One request submitted to a disk (tag: "disk<i>:<fault|prefetch|write>").
    DISK_REQUEST = "disk_request"
    #: One vectorized event chunk replayed by the machine (npages = length).
    CHUNK = "chunk"
    #: A transient read error retried with backoff (fault injection only).
    DISK_RETRY = "disk_retry"
    #: A request served via the penalized reconstruction path (dead disk
    #: or retries exhausted; fault injection only).
    DISK_DEGRADED = "disk_degraded"
    #: A prefetch hint system call that failed / timed out (fault
    #: injection only).
    HINT_FAILED = "hint_failed"
    #: The run-time layer entering or re-probing out of demand-paging
    #: fallback (tag: "enter" or "reprobe"; fault injection only).
    HINT_FALLBACK = "hint_fallback"
    #: A demand fault stalled waiting for a pinned in-flight prefetch to
    #: arrive so its frame could be evicted (value = stall microseconds;
    #: vpage = -1, the wait is not attributable to one page).
    STALL_FRAME_WAIT = "stall_frame_wait"
    #: One crash-consistent snapshot written (value = payload bytes;
    #: tag = "seq<N>"; vpage = -1).  Pure observation: a checkpoint
    #: costs no simulated time.
    CHECKPOINT_WRITE = "checkpoint_write"
    #: A run resumed from a snapshot (value = snapshot cycle; tag =
    #: "seq<N>"; vpage = -1).  First event of a resumed incarnation.
    CHECKPOINT_RESTORE = "checkpoint_restore"


class TraceEvent(NamedTuple):
    """One entry of the ring buffer (flat, fixed schema)."""

    #: Simulated time of the event, microseconds.
    ts_us: float
    #: The event kind (a :class:`TraceKind` -- serialized as its value).
    kind: TraceKind
    #: Virtual page the event concerns, or -1 when not page-specific.
    vpage: int
    #: Page count the event covers (1 unless the kind says otherwise).
    npages: int
    #: Kind-specific number (stall microseconds, queue delay, ...).
    value: float
    #: Kind-specific discriminator ("nonprefetched_fault", "disk0:write", ...).
    tag: str


class TraceBuffer:
    """Fixed-capacity ring buffer of :class:`TraceEvent`.

    ``emit`` appends; once ``capacity`` events have been written the
    buffer wraps and the oldest events are overwritten (``dropped``
    counts them).  ``events()`` returns the surviving events oldest
    first.  A buffer constructed with ``enabled=False`` is a pure no-op
    recorder that never allocates its ring (a metrics-only
    :class:`~repro.obs.observer.Observer`) -- components additionally
    skip the call entirely when no observer is attached, so
    disabled-mode cost is a single ``is None`` check on their side.
    """

    __slots__ = ("capacity", "enabled", "_ring", "_next", "_total")

    def __init__(self, capacity: int = 65536, enabled: bool = True) -> None:
        if capacity <= 0:
            raise MachineError(f"trace buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.clear()

    # ------------------------------------------------------------------

    def emit(
        self,
        ts_us: float,
        kind: TraceKind,
        vpage: int = -1,
        npages: int = 1,
        value: float = 0.0,
        tag: str = "",
    ) -> None:
        """Record one event (drops the oldest when the ring is full)."""
        if not self.enabled:
            return
        self._ring[self._next] = TraceEvent(ts_us, kind, vpage, npages, value, tag)
        self._next = (self._next + 1) % self.capacity
        self._total += 1

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return min(self._total, self.capacity)

    @property
    def total_emitted(self) -> int:
        """Events ever emitted, including any the wraparound discarded."""
        return self._total

    @property
    def dropped(self) -> int:
        """Events lost to wraparound."""
        return max(0, self._total - self.capacity)

    def events(self) -> list[TraceEvent]:
        """Surviving events, oldest first."""
        if self._total < self.capacity:
            return [e for e in self._ring[: self._next] if e is not None]
        tail = self._ring[self._next:] + self._ring[: self._next]
        return [e for e in tail if e is not None]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def counts_by_kind(self) -> dict[str, int]:
        """Surviving event counts keyed by kind value (for summaries)."""
        counts: dict[str, int] = {}
        for event in self.events():
            key = event.kind.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def clear(self) -> None:
        """Forget everything recorded so far (capacity is kept)."""
        self._ring: list[TraceEvent | None] = (
            [None] * self.capacity if self.enabled else [])
        self._next = 0
        self._total = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceBuffer(capacity={self.capacity}, kept={len(self)}, "
                f"total={self._total})")
