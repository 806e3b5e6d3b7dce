"""Causal page-lifecycle spans assembled from the flat trace stream.

The ring buffer (:mod:`repro.obs.trace`) records *what happened*; this
module recovers *why* by linking the flat events into one span chain per
page: prefetch issued -> filtered / suppressed / dropped / reclaimed ->
disk queue -> arrival -> first use or stall -> release / evict.  The
:class:`SpanBuilder` is a pure consumer -- it never emits events, never
touches the clock, and never changes a simulated result; the golden
EMBAR trace is bit-identical with or without one attached (tested).

Two assembly modes:

* **online** -- install the builder as ``observer.sink`` (or construct a
  :class:`~repro.obs.attrib.StallAttributor`, which does it for you).
  Every event is correlated the moment it is emitted, so assembly is
  immune to ring-buffer wraparound and can read the observer's live
  loop-context stack and segment map.
* **offline** -- :meth:`SpanBuilder.from_buffer` replays a recorded
  :class:`~repro.obs.trace.TraceBuffer`.  If the ring wrapped, the
  builder degrades gracefully: it sets :attr:`SpanBuilder.truncated`,
  appends a warning, and assembles what the surviving suffix supports
  (chains whose openings were overwritten appear as implicit spans).

Correlation is by page id.  Two documented approximations are inherited
from the event schema itself: a striped disk request carries the *run
start* page for every per-disk sub-request, and a ``release`` event
names only the first page it freed -- so queue/retry marks attach to the
run's spans collectively and only the first released page's span closes
as ``released`` (the rest close at eviction or stay open).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.obs.trace import TraceBuffer, TraceKind


class SpanState(str, enum.Enum):
    """One transition in a page's lifecycle chain.

    The table in docs/observability.md ("Span state reference") is the
    authoritative description; ``scripts/check_docs.py`` keeps the two
    in sync.
    """

    #: A prefetch for the page was handed to the OS.
    ISSUED = "issued"
    #: The run-time layer's bit vector dropped the prefetch.
    FILTERED = "filtered"
    #: Adaptive suppression skipped the request wholesale.
    SUPPRESSED = "suppressed"
    #: The OS dropped the prefetch -- no free frame.
    DROPPED = "dropped"
    #: The prefetch was satisfied by reclaiming from the free list.
    RECLAIMED = "reclaimed"
    #: The OS found the page already resident or in transit.
    UNNECESSARY = "unnecessary"
    #: A disk sub-request for the page's run entered a disk queue.
    QUEUED = "queued"
    #: The read hit a transient error and was retried (fault injection).
    RETRIED = "retried"
    #: The read was served via the reconstruction path (fault injection).
    DEGRADED = "degraded"
    #: The prefetch hint call itself failed / timed out (fault injection).
    HINT_FAILED = "hint_failed"
    #: First use found the page resident (the prefetch fully hid the fault).
    USED_HIT = "used_hit"
    #: First use stalled (late prefetch, dropped prefetch, or no prefetch).
    USED_STALL = "used_stall"
    #: The page was released back to the free list.
    RELEASED = "released"
    #: The page was evicted (tag records the trigger).
    EVICTED = "evicted"


#: Span outcomes that end a chain (first use, release, evict).
_CLOSING = frozenset({SpanState.USED_HIT, SpanState.USED_STALL,
                      SpanState.RELEASED, SpanState.EVICTED})

#: Closed spans a :class:`SpanBuilder` keeps (its outcome tallies count
#: every span).
KEEP_COMPLETED = 4096


class StallRecord(NamedTuple):
    """One stall contribution, in clock-accumulation order.

    ``stall_us`` is the exact float the clock added to its stall-read
    accumulator for this event, so summing records chronologically with
    ``+=`` reproduces ``RunStats.times.stall_read`` *bitwise* -- the
    conservation invariant ``repro explain`` proves.
    """

    vpage: int
    ts_us: float
    #: The fault tag ("prefetched_fault", "nonprefetched_fault") or
    #: "frame_wait" for pinned-frame waits.
    tag: str
    stall_us: float
    #: The last lifecycle state before the stall, or None for a page
    #: with no prior chain (never prefetched / chain truncated).
    last_state: SpanState | None
    #: True when fault injection touched this chain (retry, degraded
    #: read, or failed hint call).
    injected: bool
    #: Loop-nest path at the moment of the stall (online mode only).
    context: tuple[str, ...]
    #: Array the page belongs to ("?" offline or unmapped).
    segment: str


@dataclass
class Span:
    """One page's lifecycle chain between two membership changes."""

    vpage: int
    opened_us: float
    #: Prefetch issue-run id shared by pages issued together (-1 when
    #: the chain did not start with an issued prefetch).
    run_id: int = -1
    #: Fault injection touched this chain.
    injected: bool = False
    closed_us: float = -1.0
    outcome: SpanState | None = None
    #: (ts_us, state, detail) transitions, chronological.
    states: list[tuple[float, SpanState, str]] = field(default_factory=list)

    @property
    def last_state(self) -> SpanState | None:
        return self.states[-1][1] if self.states else None

    @property
    def closed(self) -> bool:
        return self.outcome is not None

    def mark(self, ts_us: float, state: SpanState, detail: str = "") -> None:
        self.states.append((ts_us, state, detail))


class SpanBuilder:
    """Correlates :class:`TraceKind` events into per-page span chains.

    Install as ``observer.sink`` for online assembly, or replay a
    recorded buffer with :meth:`from_buffer`.  Set :attr:`stall_sink`
    to receive one :class:`StallRecord` per stall contribution, in
    clock-accumulation order (this is how
    :class:`~repro.obs.attrib.StallAttributor` subscribes).
    """

    def __init__(self, observer=None) -> None:
        #: Attached observer (context + segment source); None offline.
        self.observer = observer
        #: Open span per page.
        self.open: dict[int, Span] = {}
        #: Most recent closed spans (bounded; counts are unbounded).
        self.completed: deque[Span] = deque(maxlen=KEEP_COMPLETED)
        #: Closed-span tally per outcome value (unbounded, exact).
        self.outcome_counts: dict[str, int] = {}
        #: Per-stall callback, or None.
        self.stall_sink: Callable[[StallRecord], None] | None = None
        #: True when the source buffer had wrapped (offline mode).
        self.truncated = False
        self.warnings: list[str] = []
        #: Events consumed (all kinds).
        self.events_seen = 0
        #: Demand faults whose chain opening was not seen (implicit spans).
        self.implicit_spans = 0
        #: Per-disk request timeline: disk index -> [(ts_us, npages)].
        self.disk_timeline: dict[int, list[tuple[float, int]]] = {}
        self._next_run_id = 0
        #: Pages of each open issue run (for marking injection run-wide).
        self._run_members: dict[int, list[int]] = {}
        #: Pages whose *next* fault is injection-tainted (a demand-fault
        #: disk retry/degraded event precedes its FAULT event).
        self._pending_injected: set[int] = set()

    # ------------------------------------------------------------------

    @classmethod
    def from_buffer(cls, buffer: TraceBuffer, observer=None,
                    stall_sink: Callable[[StallRecord], None] | None = None,
                    ) -> "SpanBuilder":
        """Assemble spans offline from a recorded (possibly wrapped) ring."""
        builder = cls(observer=observer)
        builder.stall_sink = stall_sink
        if buffer.dropped:
            builder.truncated = True
            builder.warnings.append(
                f"trace ring dropped {buffer.dropped} of "
                f"{buffer.total_emitted} events; spans are assembled from "
                f"the surviving suffix and early-run chains are approximate"
            )
        for ev in buffer.events():
            builder.on_event(ev.ts_us, ev.kind, ev.vpage, ev.npages,
                             ev.value, ev.tag)
        return builder

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _open_span(self, vpage: int, ts_us: float, run_id: int = -1) -> Span:
        span = Span(vpage, ts_us, run_id=run_id)
        self.open[vpage] = span
        return span

    def _ensure_span(self, vpage: int, ts_us: float) -> Span:
        span = self.open.get(vpage)
        if span is None:
            span = self._open_span(vpage, ts_us)
        return span

    def _close(self, span: Span, ts_us: float, outcome: SpanState,
               detail: str = "") -> None:
        span.mark(ts_us, outcome, detail)
        span.closed_us = ts_us
        span.outcome = outcome
        self.open.pop(span.vpage, None)
        members = self._run_members.get(span.run_id)
        if members is not None:
            try:
                members.remove(span.vpage)
            except ValueError:
                pass
            if not members:
                del self._run_members[span.run_id]
        self.completed.append(span)
        key = outcome.value
        self.outcome_counts[key] = self.outcome_counts.get(key, 0) + 1

    def _mark_run_injected(self, anchor_vpage: int, state: SpanState,
                           ts_us: float, detail: str) -> None:
        """Taint the issue run containing ``anchor_vpage`` (striping
        reports the run-start page for every sub-request, so the mark
        applies to the whole run, not one page)."""
        span = self.open.get(anchor_vpage)
        if span is None:
            return
        if span.run_id >= 0:
            for vpage in self._run_members.get(span.run_id, ()):
                member = self.open.get(vpage)
                if member is not None:
                    member.injected = True
        span.injected = True
        span.mark(ts_us, state, detail)

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def on_event(self, ts_us: float, kind: TraceKind, vpage: int,
                 npages: int, value: float, tag: str) -> None:
        """Consume one trace event (the ``Observer.sink`` protocol)."""
        self.events_seen += 1
        if kind is TraceKind.PREFETCH_ISSUED:
            run_id = self._next_run_id
            self._next_run_id += 1
            members: list[int] = []
            for page in range(vpage, vpage + npages):
                old = self.open.get(page)
                if old is not None:
                    # A fresh issue supersedes whatever the old chain
                    # was waiting for (e.g. a dropped prefetch).
                    self._close(old, ts_us, old.last_state or SpanState.ISSUED,
                                "superseded")
                span = self._open_span(page, ts_us, run_id=run_id)
                span.mark(ts_us, SpanState.ISSUED, tag)
                members.append(page)
            self._run_members[run_id] = members
        elif kind is TraceKind.PREFETCH_FILTERED:
            for page in range(vpage, vpage + npages):
                self._ensure_span(page, ts_us).mark(ts_us, SpanState.FILTERED)
        elif kind is TraceKind.PREFETCH_SUPPRESSED:
            for page in range(vpage, vpage + npages):
                self._ensure_span(page, ts_us).mark(ts_us, SpanState.SUPPRESSED)
        elif kind is TraceKind.PREFETCH_DROPPED:
            self._ensure_span(vpage, ts_us).mark(ts_us, SpanState.DROPPED)
        elif kind is TraceKind.PREFETCH_RECLAIMED:
            self._ensure_span(vpage, ts_us).mark(ts_us, SpanState.RECLAIMED)
        elif kind is TraceKind.PREFETCH_UNNECESSARY:
            self._ensure_span(vpage, ts_us).mark(
                ts_us, SpanState.UNNECESSARY, tag)
        elif kind is TraceKind.HINT_FAILED:
            for page in range(vpage, vpage + npages):
                span = self._ensure_span(page, ts_us)
                span.injected = True
                span.mark(ts_us, SpanState.HINT_FAILED)
        elif kind is TraceKind.HINT_FALLBACK:
            pass  # an episode marker, not a page transition
        elif kind is TraceKind.DISK_REQUEST:
            disk, _, io_kind = tag.partition(":")
            try:
                index = int(disk.removeprefix("disk"))
            except ValueError:
                index = -1
            self.disk_timeline.setdefault(index, []).append((ts_us, npages))
            if io_kind != "write":
                span = self.open.get(vpage)
                if span is not None:
                    span.mark(ts_us, SpanState.QUEUED, tag)
        elif kind is TraceKind.DISK_RETRY:
            self._note_injected_io(vpage, npages, ts_us, SpanState.RETRIED, tag)
        elif kind is TraceKind.DISK_DEGRADED:
            self._note_injected_io(vpage, npages, ts_us, SpanState.DEGRADED, tag)
        elif kind is TraceKind.FAULT:
            self._on_fault(ts_us, vpage, value, tag)
        elif kind is TraceKind.STALL_FRAME_WAIT:
            if self.stall_sink is not None:
                self.stall_sink(StallRecord(
                    vpage, ts_us, "frame_wait", value, None, False,
                    self._context(), "?",
                ))
        elif kind is TraceKind.RELEASE:
            span = self.open.get(vpage)
            if span is not None:
                self._close(span, ts_us, SpanState.RELEASED)
        elif kind is TraceKind.EVICTION:
            span = self.open.get(vpage)
            if span is not None:
                self._close(span, ts_us, SpanState.EVICTED, tag)
        # CHUNK is a pacing marker; nothing to correlate.

    def _note_injected_io(self, vpage: int, npages: int, ts_us: float,
                          state: SpanState, tag: str) -> None:
        """A retried / degraded read: taint its run, or -- for a demand
        fault whose FAULT event has not been emitted yet -- remember the
        taint for that upcoming fault."""
        if self.open.get(vpage) is not None:
            self._mark_run_injected(vpage, state, ts_us, tag)
        for page in range(vpage, vpage + npages):
            if page not in self.open:
                self._pending_injected.add(page)

    def _context(self) -> tuple[str, ...]:
        return self.observer.context() if self.observer is not None else ()

    def _segment(self, vpage: int) -> str:
        return self.observer.segment_of(vpage) if self.observer is not None else "?"

    def _on_fault(self, ts_us: float, vpage: int, value: float, tag: str) -> None:
        span = self.open.get(vpage)
        pending = vpage in self._pending_injected
        self._pending_injected.discard(vpage)
        injected = pending or (span is not None and span.injected)
        stalled = tag in ("prefetched_fault", "nonprefetched_fault")
        last_state = span.last_state if span is not None else None
        if span is None:
            # Chain opening unseen: never prefetched, or truncated ring.
            self.implicit_spans += 1
            span = self._open_span(vpage, ts_us)
            span.injected = injected
        if stalled and self.stall_sink is not None:
            self.stall_sink(StallRecord(
                vpage, ts_us, tag, value, last_state, injected,
                self._context(), self._segment(vpage),
            ))
        outcome = SpanState.USED_STALL if stalled else SpanState.USED_HIT
        self._close(span, ts_us, outcome, tag)

    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Note chains still open at end of run (pages never used again)."""
        if self.open:
            self.warnings.append(
                f"{len(self.open)} spans still open at end of run "
                f"(pages prefetched or marked but never touched again)"
            )

    def summary(self) -> dict[str, int]:
        """Outcome tally plus open/implicit counts (for reports)."""
        out = dict(sorted(self.outcome_counts.items()))
        out["open"] = len(self.open)
        out["implicit"] = self.implicit_spans
        return out
