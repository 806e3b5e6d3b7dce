"""The observer: one trace buffer plus one metrics registry per run.

Components (machine, memory manager, run-time layer, disk array) accept
an optional :class:`Observer`.  When it is ``None`` -- the default
everywhere -- they emit nothing and pay a single ``is None`` check on
their slow paths only, which is what keeps tier-1 timings unchanged.
When attached, the observer receives typed :class:`TraceKind` events and
feeds the live histograms that cannot be recomputed after the run:
stall latency, prefetch timeliness, disk queue delay, retry backoff.

Beyond the flat event stream, the observer carries the *correlation
context* that the causal span layer (:mod:`repro.obs.spans`) needs to
label lifecycles without adding a single trace event:

* a **loop-context stack** pushed/popped by the interpreter around each
  loop, so every event can be tagged with the loop nest it happened in;
* a **segment map** registered by ``Machine.map_segment`` so a virtual
  page resolves to the array it belongs to;
* an optional **sink** -- any object with an ``on_event`` method (a
  :class:`~repro.obs.spans.SpanBuilder`) that sees every emit as it
  happens, immune to ring-buffer wraparound.

None of this changes what gets recorded in the ring, so the golden
trace stays bit-identical whether or not a sink is attached.  Nor does
the ring change the run: a metrics-only observer (``record_trace=False``)
yields the same ``RunStats`` and metrics as a recording one.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_BOUNDS_US,
    TIMELINESS_BOUNDS_US,
    MetricsRegistry,
    OBS_METRIC_NAMES,
)
from repro.obs.trace import TraceBuffer, TraceKind


class Observer:
    """Bundles the trace buffer and the metrics registry of one run."""

    __slots__ = ("trace", "metrics", "stall_latency", "prefetch_to_use",
                 "disk_queue_delay", "retry_backoff", "disk_idle_fraction",
                 "sink", "_context", "_segments")

    def __init__(
        self,
        capacity: int = 65536,
        metrics: MetricsRegistry | None = None,
        record_trace: bool = True,
    ) -> None:
        # record_trace=False makes a metrics-only observer: every event
        # still reaches the live histograms and the sink, but none is
        # kept -- for callers that will never write the trace.
        self.trace = TraceBuffer(capacity, enabled=record_trace)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Pre-bound live histograms so hot-ish paths skip the registry
        # lookup.  Names must stay in sync with OBS_METRIC_NAMES.
        self.stall_latency = self.metrics.histogram(
            "obs.stall_latency_us", DEFAULT_BOUNDS_US
        )
        self.prefetch_to_use = self.metrics.histogram(
            "obs.prefetch_to_use_us", TIMELINESS_BOUNDS_US
        )
        self.disk_queue_delay = self.metrics.histogram(
            "obs.disk_queue_delay_us", DEFAULT_BOUNDS_US
        )
        self.retry_backoff = self.metrics.histogram(
            "obs.retry_backoff_us", DEFAULT_BOUNDS_US
        )
        # Set once per disk (in index order) by Machine.finish: value is
        # the last disk's idle fraction, min/max the array's extremes.
        self.disk_idle_fraction = self.metrics.gauge("obs.disk_idle_fraction")
        assert all(name in self.metrics for name in OBS_METRIC_NAMES)
        #: Optional live consumer of every emitted event (a SpanBuilder).
        self.sink = None
        self._context: list[str] = []
        #: Registered segments as (first_vpage, end_vpage, name) tuples.
        self._segments: list[tuple[int, int, str]] = []

    def emit(
        self,
        ts_us: float,
        kind: TraceKind,
        vpage: int = -1,
        npages: int = 1,
        value: float = 0.0,
        tag: str = "",
    ) -> None:
        """Emit one event at simulated time ``ts_us`` to the trace (kept
        only when recording) and the sink."""
        self.trace.emit(ts_us, kind, vpage, npages, value, tag)
        if self.sink is not None:
            self.sink.on_event(ts_us, kind, vpage, npages, value, tag)

    # ------------------------------------------------------------------
    # Correlation context (no trace events -- golden traces unaffected)
    # ------------------------------------------------------------------

    def push_context(self, label: str) -> None:
        """Enter a loop-nest frame (the interpreter calls this)."""
        self._context.append(label)

    def pop_context(self) -> None:
        """Leave the innermost loop-nest frame."""
        self._context.pop()

    def context(self) -> tuple[str, ...]:
        """The current loop-nest path, outermost first."""
        return tuple(self._context)

    def register_segment(self, name: str, base_vpage: int, npages: int) -> None:
        """Record one mapped array so pages resolve to array names."""
        self._segments.append((base_vpage, base_vpage + npages, name))

    def segment_of(self, vpage: int) -> str:
        """The array a page belongs to, or ``"?"`` when unmapped."""
        for first, end, name in self._segments:
            if first <= vpage < end:
                return name
        return "?"
