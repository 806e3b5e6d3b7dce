"""The metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every named instrument of one run.
The registry is the export surface for *all* quantitative results: the
per-run counters of :class:`repro.sim.stats.RunStats` are published into
it (``RunStats.publish``), the live histograms of an attached
:class:`repro.obs.observer.Observer` are registered in it directly, and
both the CLI's metric tables and the ``--metrics-out`` JSON artifact are
rendered from it rather than from hand-picked dataclass fields.

Naming convention: dotted lowercase, ``<group>.<metric>`` -- e.g.
``faults.prefetched_hit``, ``disk.utilization``, ``obs.stall_latency_us``.
``docs/observability.md`` lists every name; ``scripts/check_docs.py``
fails the build when the doc and :data:`RUN_METRIC_NAMES` /
:data:`OBS_METRIC_NAMES` disagree.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import MachineError

#: Default histogram bucket upper bounds, microseconds (an exponential
#: ladder wide enough for both syscall overheads and full disk stalls).
DEFAULT_BOUNDS_US: tuple[float, ...] = (
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)

#: Bounds for signed timeliness measurements (negative = the use beat
#: the I/O completion, i.e. the prefetch was late).
TIMELINESS_BOUNDS_US: tuple[float, ...] = (
    -100_000.0, -10_000.0, -1_000.0, 0.0,
    1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MachineError(f"counter {self.name} cannot decrease")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter in; equals recording both streams."""
        self.value += other.value

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "Counter":
        counter = cls(name)
        counter.value = float(payload["value"])
        return counter


class Gauge:
    """A point-in-time value with min/max tracking."""

    __slots__ = ("name", "value", "min", "max", "_seen")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.min: float = 0.0
        self.max: float = 0.0
        self._seen = False

    def set(self, value: float) -> None:
        self.value = value
        if not self._seen:
            self.min = self.max = value
            self._seen = True
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in: the other side's sets happened after
        ours, so its value wins while min/max union both streams."""
        if not other._seen:
            return
        if not self._seen:
            self.value, self.min, self.max = other.value, other.min, other.max
            self._seen = True
            return
        self.value = other.value
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value,
                "min": self.min, "max": self.max, "seen": self._seen}

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "Gauge":
        gauge = cls(name)
        gauge.value = float(payload["value"])
        gauge.min = float(payload["min"])
        gauge.max = float(payload["max"])
        gauge._seen = bool(payload.get("seen", True))
        return gauge


class Histogram:
    """A bucketed distribution with count/sum/min/max.

    ``bounds`` are inclusive upper bounds of each bucket; one overflow
    bucket catches everything beyond the last bound.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS_US) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise MachineError(f"histogram {name} needs ascending bounds")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for idx, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[idx] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the q-th bucket,
        clamped to the observed [min, max] (a bucket bound may lie far
        outside the values that fell into it)."""
        if not 0.0 <= q <= 1.0:
            raise MachineError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for idx, n in enumerate(self.buckets[:-1]):
            seen += n
            if seen >= rank:
                return min(max(self.bounds[idx], self.min), self.max)
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in; bucket layouts must match."""
        if self.bounds != other.bounds:
            raise MachineError(
                f"histogram {self.name} bounds mismatch on merge:"
                f" {self.bounds} vs {other.bounds}"
            )
        for idx, n in enumerate(other.buckets):
            self.buckets[idx] += n
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "Histogram":
        histogram = cls(name, payload["bounds"])
        buckets = [int(n) for n in payload["buckets"]]
        if len(buckets) != len(histogram.buckets):
            raise MachineError(
                f"histogram {name} snapshot has {len(buckets)} buckets,"
                f" expected {len(histogram.buckets)}"
            )
        histogram.buckets = buckets
        histogram.count = int(payload["count"])
        histogram.total = float(payload["sum"])
        if histogram.count:
            histogram.min = float(payload["min"])
            histogram.max = float(payload["max"])
        return histogram


class MetricsRegistry:
    """Named instruments for one run.

    Requesting an existing name returns the existing instrument;
    requesting it as a different type is an error.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, cls, *args):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise MachineError(
                    f"metric {name!r} already registered as {instrument.kind}"
                )
            return instrument
        instrument = cls(name, *args)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS_US
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Counter | Gauge | Histogram:
        try:
            return self._instruments[name]
        except KeyError:
            raise MachineError(f"no metric named {name!r}") from None

    def value(self, name: str) -> float:
        """The scalar value of a counter or gauge."""
        instrument = self.get(name)
        if isinstance(instrument, Histogram):
            raise MachineError(f"metric {name!r} is a histogram; use get()")
        return instrument.value

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every instrument, sorted by name."""
        return {name: self._instruments[name].as_dict() for name in self.names()}

    # -- cross-process folding ----------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every instrument of ``other`` into this registry.

        Merging is associative and equals sequential recording: a
        registry merged from N worker deltas carries exactly the
        counts/buckets the workers would have produced recording into
        one shared registry.  A same-name instrument of another kind or
        other histogram bounds is an error, found before anything is
        merged: a merge that raises leaves this registry unchanged.
        """
        for name, theirs in other._instruments.items():
            mine = self._instruments.get(name)
            if mine is not None and mine.kind != theirs.kind:
                raise MachineError(
                    f"metric {name!r} already registered as {mine.kind}")
            if isinstance(mine, Histogram) and mine.bounds != theirs.bounds:
                raise MachineError(f"histogram {name} bounds mismatch on merge:"
                                   f" {mine.bounds} vs {theirs.bounds}")
        for name in other.names():
            instrument = other._instruments[name]
            if isinstance(instrument, Counter):
                self.counter(name).merge(instrument)
            elif isinstance(instrument, Gauge):
                self.gauge(name).merge(instrument)
            else:
                self.histogram(name, instrument.bounds).merge(instrument)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        """Rebuild a registry from an :meth:`as_dict` snapshot."""
        registry = cls()
        for name in sorted(snapshot):
            payload = snapshot[name]
            kind = payload.get("kind")
            if kind == Counter.kind:
                registry._instruments[name] = Counter.from_dict(name, payload)
            elif kind == Gauge.kind:
                registry._instruments[name] = Gauge.from_dict(name, payload)
            elif kind == Histogram.kind:
                registry._instruments[name] = Histogram.from_dict(name, payload)
            else:
                raise MachineError(
                    f"metric snapshot {name!r} has unknown kind {kind!r}"
                )
        return registry


def labeled_name(name: str, **labels: str) -> str:
    """The canonical labeled-child spelling: ``name{k=v,...}``.

    Label keys are sorted so the same label set always produces the
    same registry name.  Used by the farm rollup to keep per-state and
    per-tenant dimensions alongside the unlabeled family.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def base_name(name: str) -> str:
    """Strip a ``{...}`` label suffix, if any."""
    brace = name.find("{")
    return name if brace < 0 else name[:brace]


#: Every metric name ``RunStats.publish`` registers, grouped by family.
#: This is not registration order: ``publish`` registers all its
#: counters before its gauges.  ``scripts/check_docs.py`` cross-checks
#: this list against the metric reference table in docs/observability.md.
RUN_METRIC_NAMES: tuple[str, ...] = (
    "time.elapsed_us",
    "time.user_compute_us",
    "time.user_overhead_us",
    "time.sys_fault_us",
    "time.sys_prefetch_us",
    "time.sys_release_us",
    "time.stall_read_us",
    "time.stall_flush_us",
    "faults.hits",
    "faults.prefetched_hit",
    "faults.prefetched_fault",
    "faults.nonprefetched_fault",
    "faults.reclaim",
    "faults.coverage",
    "prefetch.compiler_inserted",
    "prefetch.filtered",
    "prefetch.suppressed",
    "prefetch.readahead_pages",
    "prefetch.binding_stale",
    "prefetch.issued_calls",
    "prefetch.issued_pages",
    "prefetch.unnecessary_issued",
    "prefetch.reclaimed",
    "prefetch.dropped",
    "prefetch.in_transit",
    "prefetch.disk_reads",
    "release.calls",
    "release.pages_released",
    "release.writebacks",
    "release.noop",
    "disk.reads_fault",
    "disk.reads_prefetch",
    "disk.writes",
    "disk.sequential",
    "disk.near",
    "disk.random",
    "disk.utilization",
    "robust.disk_retries",
    "robust.degraded_reads",
    "robust.degraded_writes",
    "robust.hint_failures",
    "robust.fallback_episodes",
    "robust.hints_skipped",
    "robust.storm_bursts",
    "memory.frames_total",
    "memory.evictions",
    "memory.eviction_writebacks",
    "memory.min_free",
    "memory.max_free",
    "memory.avg_free_fraction",
)

#: Live histograms an :class:`~repro.obs.observer.Observer` maintains
#: while the run executes (they cannot be reconstructed from RunStats).
OBS_METRIC_NAMES: tuple[str, ...] = (
    "obs.stall_latency_us",
    "obs.prefetch_to_use_us",
    "obs.disk_queue_delay_us",
    "obs.retry_backoff_us",
    "obs.disk_idle_fraction",
)

#: Operational metrics of the checkpoint subsystem (registered only when
#: a checkpointer runs with an observer attached).  Documented in the
#: "Checkpoint metric reference" table of docs/robustness.md, which
#: ``scripts/check_docs.py`` cross-checks against this list.
CKPT_METRIC_NAMES: tuple[str, ...] = (
    "ckpt.writes",
    "ckpt.restores",
    "ckpt.corrupt_skipped",
    "ckpt.crashes_delivered",
    "ckpt.payload_bytes",
    "ckpt.last_cycle_us",
)

#: Operational metrics of the simulation job farm (``repro serve``; one
#: registry per :class:`repro.serve.controller.Farm`, all instruments
#: registered up front so artifacts always carry the full set).
#: Documented in the "Serve metric reference" table of docs/serving.md,
#: which ``scripts/check_docs.py`` cross-checks against this list.
SERVE_METRIC_NAMES: tuple[str, ...] = (
    "serve.jobs_submitted",
    "serve.jobs_done",
    "serve.jobs_failed_attempts",
    "serve.jobs_quarantined",
    "serve.jobs_shed",
    "serve.retries",
    "serve.resumes",
    "serve.preemptions",
    "serve.worker_kills",
    "serve.worker_stalls",
    "serve.worker_restarts",
    "serve.heartbeat_timeouts",
    "serve.deadline_timeouts",
    "serve.queue_depth",
    "serve.workers_busy",
    "serve.job_latency_us",
    "serve.ledger_records",
    "serve.recoveries",
    "serve.jobs_recovered",
    "serve.results_deduped",
    "serve.orphans_adopted",
    "serve.orphans_reaped",
)

#: Operational metrics of the scenario fuzzer (``repro fuzz``; one
#: registry per :func:`repro.fuzz.runner.run_fuzz` invocation, all
#: instruments registered up front so artifacts always carry the full
#: set).  Documented in the "Fuzz metric reference" table of
#: docs/robustness.md, which ``scripts/check_docs.py`` cross-checks
#: against this list.
FUZZ_METRIC_NAMES: tuple[str, ...] = (
    "fuzz.scenarios",
    "fuzz.runs",
    "fuzz.oracle_checks",
    "fuzz.violations",
    "fuzz.corpus_replayed",
    "fuzz.wall_s",
)

#: Operational metrics of the farm telemetry pipeline itself
#: (:class:`repro.obs.telemetry.FarmTelemetry`; registered up front in
#: the telemetry registry so snapshots always carry the full set).
#: Documented in the "Telemetry metric reference" table of
#: docs/observability.md, which ``scripts/check_docs.py`` cross-checks
#: against this list.
TELEMETRY_METRIC_NAMES: tuple[str, ...] = (
    "telemetry.deltas_folded",
    "telemetry.snapshot_writes",
    "telemetry.spans",
    "telemetry.instants",
    "telemetry.trace_events",
    "telemetry.instruments",
    "telemetry.tenants",
)

#: Metrics the SLO engine emits about its own evaluations (registered
#: up front alongside the telemetry family).  Documented in the "SLO
#: metric reference" table of docs/observability.md, which
#: ``scripts/check_docs.py`` cross-checks against this list.
SLO_METRIC_NAMES: tuple[str, ...] = (
    "slo.rules",
    "slo.evaluations",
    "slo.checks",
    "slo.violations",
)
