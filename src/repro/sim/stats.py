"""Statistics containers for one simulated run.

Every figure and table in the paper's evaluation is computed from the
counters collected here:

* :class:`TimeBreakdown` -- Figure 3(a)'s stacked bars.
* :class:`FaultStats` -- Figure 3(b) and Figure 4(a)'s coverage breakdown.
* :class:`PrefetchStats` -- Figure 4(b)'s filtering effectiveness.
* :class:`DiskStats` -- Figure 5's request breakdown and utilization.
* :class:`MemoryStats` / :class:`ReleaseStats` -- Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.clock import Clock, TimeCategory


@dataclass(slots=True)
class TimeBreakdown:
    """Final per-category times of one run, in simulated microseconds."""

    user_compute: float = 0.0
    user_overhead: float = 0.0
    sys_fault: float = 0.0
    sys_prefetch: float = 0.0
    sys_release: float = 0.0
    stall_read: float = 0.0
    stall_flush: float = 0.0

    @classmethod
    def from_clock(cls, clock: Clock) -> "TimeBreakdown":
        b = clock.breakdown()
        return cls(
            user_compute=b[TimeCategory.USER_COMPUTE],
            user_overhead=b[TimeCategory.USER_OVERHEAD],
            sys_fault=b[TimeCategory.SYS_FAULT],
            sys_prefetch=b[TimeCategory.SYS_PREFETCH],
            sys_release=b[TimeCategory.SYS_RELEASE],
            stall_read=b[TimeCategory.STALL_READ],
            stall_flush=b[TimeCategory.STALL_FLUSH],
        )

    @property
    def user(self) -> float:
        """User-mode time (computation plus prefetch/filter overhead)."""
        return self.user_compute + self.user_overhead

    @property
    def system(self) -> float:
        """System-mode time (faults, prefetch calls, release calls)."""
        return self.sys_fault + self.sys_prefetch + self.sys_release

    @property
    def idle(self) -> float:
        """Idle time, i.e. the I/O stall portion of Figure 3(a)."""
        return self.stall_read + self.stall_flush

    @property
    def total(self) -> float:
        return self.user + self.system + self.idle


@dataclass(slots=True)
class FaultStats:
    """Page-fault classification (paper Figure 4(a)).

    The paper classifies the *original* page faults of the application into
    faults that were prefetched and eliminated (``prefetched_hit``), faults
    that were prefetched but still stalled (``prefetched_fault`` -- the
    prefetch arrived late, or the page was evicted/dropped before use), and
    faults that the compiler failed to prefetch (``nonprefetched_fault``).
    """

    prefetched_hit: int = 0
    prefetched_fault: int = 0
    nonprefetched_fault: int = 0
    #: Faults satisfied by reclaiming a page still on the free list.
    reclaim_fault: int = 0
    #: Plain accesses to resident pages (not faults; kept for sanity checks).
    hits: int = 0

    @property
    def total_faults(self) -> int:
        """All events that would have been page faults without prefetching."""
        return self.prefetched_hit + self.prefetched_fault + self.nonprefetched_fault

    @property
    def actual_faults(self) -> int:
        """Faults that actually stalled the application."""
        return self.prefetched_fault + self.nonprefetched_fault

    @property
    def coverage(self) -> float:
        """Fraction of original faults that were prefetched (Figure 4(a))."""
        if self.total_faults == 0:
            return 0.0
        return (self.prefetched_hit + self.prefetched_fault) / self.total_faults


@dataclass(slots=True)
class PrefetchStats:
    """Prefetch accounting across the three layers (paper Figure 4(b)).

    ``compiler_inserted`` counts dynamic executions of compiler-inserted
    prefetch requests (in pages).  The run-time layer filters those already
    believed resident (``filtered``); the remainder are issued to the OS
    (``issued_pages`` across ``issued_calls`` system calls).  Of those, the
    OS finds some already resident (``unnecessary_issued`` -- only possible
    as the tail of a block request, per Section 2.4), reclaims some from the
    free list (``reclaimed``), drops some for lack of memory (``dropped``),
    ignores in-flight duplicates (``in_transit``), and starts disk reads for
    the rest (``disk_reads``).
    """

    compiler_inserted: int = 0
    filtered: int = 0
    #: Requests skipped wholesale by adaptive suppression (Section 4.3.1
    #: extension): not even the bit vector was checked.
    suppressed: int = 0
    #: Pages fetched by OS sequential readahead (the Section 5 baseline;
    #: only nonzero in readahead runs, which carry no compiler hints).
    readahead_pages: int = 0
    #: Stale first uses that *binding* prefetches would have produced
    #: (Figure-1 instrumentation; only tracked in binding mode).
    binding_stale: int = 0
    issued_calls: int = 0
    issued_pages: int = 0
    unnecessary_issued: int = 0
    reclaimed: int = 0
    dropped: int = 0
    in_transit: int = 0
    disk_reads: int = 0

    @property
    def unnecessary_fraction(self) -> float:
        """Fraction of compiler-inserted prefetches that were unnecessary.

        The right-hand column of Figure 4(b): pages already resident,
        whether dropped by the run-time layer or discovered by the OS.
        """
        if self.compiler_inserted == 0:
            return 0.0
        return (self.filtered + self.unnecessary_issued) / self.compiler_inserted

    @property
    def issued_useful_fraction(self) -> float:
        """Fraction of OS-issued prefetch pages that did useful work.

        The left-hand column of Figure 4(b): disk reads plus free-list
        reclaims, over all pages issued to the OS.
        """
        if self.issued_pages == 0:
            return 0.0
        return (self.disk_reads + self.reclaimed) / self.issued_pages


@dataclass(slots=True)
class ReleaseStats:
    """Release-operation accounting (paper Table 3)."""

    calls: int = 0
    pages_released: int = 0
    #: Dirty released pages whose write-back the release itself scheduled.
    writebacks: int = 0
    #: Release requests for pages that were not resident (no-ops).
    noop: int = 0


@dataclass(slots=True)
class DiskStats:
    """Per-run disk subsystem activity (paper Figure 5)."""

    reads_fault: int = 0
    reads_prefetch: int = 0
    writes: int = 0
    #: Busy microseconds accumulated by each disk.
    busy_us: list[float] = field(default_factory=list)
    #: Requests served sequentially (head already positioned in the extent).
    sequential: int = 0
    #: Requests within the short-seek window.
    near: int = 0
    random: int = 0
    #: Transient-read-error retries (fault injection only; zero otherwise).
    retries: int = 0
    #: Reads served via the penalized reconstruction path (dead disk or
    #: retries exhausted).
    degraded_reads: int = 0
    #: Writes redirected to a surviving disk (never lost).
    degraded_writes: int = 0

    @property
    def total_requests(self) -> int:
        return self.reads_fault + self.reads_prefetch + self.writes

    def utilization(self, elapsed_us: float) -> float:
        """Average utilization across all disks over the run."""
        if elapsed_us <= 0 or not self.busy_us:
            return 0.0
        return sum(self.busy_us) / (len(self.busy_us) * elapsed_us)


@dataclass(slots=True)
class RobustnessStats:
    """Degraded-mode accounting of the run-time layer and the harness.

    All zero unless a :class:`repro.faults.plan.FaultPlan` was active --
    together with ``DiskStats.retries`` / ``degraded_*`` these are the
    columns of the ``repro chaos`` degradation table.
    """

    #: Prefetch hint system calls that failed / timed out.
    hint_failures: int = 0
    #: Times the layer gave up on hints and fell back to demand paging.
    fallback_episodes: int = 0
    #: Prefetch pages skipped while a fallback cooldown was running.
    hints_skipped: int = 0
    #: Memory-pressure storm bursts scheduled by the fault plan.
    storm_bursts: int = 0


@dataclass(slots=True)
class MemoryStats:
    """Memory-manager activity (paper Table 3)."""

    frames_total: int = 0
    #: Time-integral of the free-frame count (frame-microseconds).
    free_integral: float = 0.0
    evictions: int = 0
    eviction_writebacks: int = 0
    min_free: int = 0
    max_free: int = 0

    def avg_free_fraction(self, elapsed_us: float) -> float:
        """Average fraction of application memory left free (Table 3)."""
        if elapsed_us <= 0 or self.frames_total == 0:
            return 0.0
        return self.free_integral / (elapsed_us * self.frames_total)


@dataclass(slots=True)
class RunStats:
    """Everything measured during one simulated run."""

    times: TimeBreakdown = field(default_factory=TimeBreakdown)
    faults: FaultStats = field(default_factory=FaultStats)
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)
    release: ReleaseStats = field(default_factory=ReleaseStats)
    disk: DiskStats = field(default_factory=DiskStats)
    memory: MemoryStats = field(default_factory=MemoryStats)
    robust: RobustnessStats = field(default_factory=RobustnessStats)
    elapsed_us: float = 0.0

    def publish(self, registry=None):
        """Publish every counter into a metrics registry (and return it).

        This is the bridge between the per-run dataclasses and the
        observability layer: the registry's dotted names
        (:data:`repro.obs.metrics.RUN_METRIC_NAMES`) are the canonical
        export vocabulary consumed by the CLI tables, ``--metrics-out``
        JSON, and the doc lint.  Publish a finished run exactly once per
        registry -- counters accumulate.
        """
        from repro.obs.metrics import MetricsRegistry

        reg = registry if registry is not None else MetricsRegistry()
        t = self.times
        counters = {
            "time.elapsed_us": self.elapsed_us,
            "time.user_compute_us": t.user_compute,
            "time.user_overhead_us": t.user_overhead,
            "time.sys_fault_us": t.sys_fault,
            "time.sys_prefetch_us": t.sys_prefetch,
            "time.sys_release_us": t.sys_release,
            "time.stall_read_us": t.stall_read,
            "time.stall_flush_us": t.stall_flush,
            "faults.hits": self.faults.hits,
            "faults.prefetched_hit": self.faults.prefetched_hit,
            "faults.prefetched_fault": self.faults.prefetched_fault,
            "faults.nonprefetched_fault": self.faults.nonprefetched_fault,
            "faults.reclaim": self.faults.reclaim_fault,
            "prefetch.compiler_inserted": self.prefetch.compiler_inserted,
            "prefetch.filtered": self.prefetch.filtered,
            "prefetch.suppressed": self.prefetch.suppressed,
            "prefetch.readahead_pages": self.prefetch.readahead_pages,
            "prefetch.binding_stale": self.prefetch.binding_stale,
            "prefetch.issued_calls": self.prefetch.issued_calls,
            "prefetch.issued_pages": self.prefetch.issued_pages,
            "prefetch.unnecessary_issued": self.prefetch.unnecessary_issued,
            "prefetch.reclaimed": self.prefetch.reclaimed,
            "prefetch.dropped": self.prefetch.dropped,
            "prefetch.in_transit": self.prefetch.in_transit,
            "prefetch.disk_reads": self.prefetch.disk_reads,
            "release.calls": self.release.calls,
            "release.pages_released": self.release.pages_released,
            "release.writebacks": self.release.writebacks,
            "release.noop": self.release.noop,
            "disk.reads_fault": self.disk.reads_fault,
            "disk.reads_prefetch": self.disk.reads_prefetch,
            "disk.writes": self.disk.writes,
            "disk.sequential": self.disk.sequential,
            "disk.near": self.disk.near,
            "disk.random": self.disk.random,
            "robust.disk_retries": self.disk.retries,
            "robust.degraded_reads": self.disk.degraded_reads,
            "robust.degraded_writes": self.disk.degraded_writes,
            "robust.hint_failures": self.robust.hint_failures,
            "robust.fallback_episodes": self.robust.fallback_episodes,
            "robust.hints_skipped": self.robust.hints_skipped,
            "robust.storm_bursts": self.robust.storm_bursts,
            "memory.evictions": self.memory.evictions,
            "memory.eviction_writebacks": self.memory.eviction_writebacks,
        }
        for name, value in counters.items():
            reg.counter(name).inc(value)
        gauges = {
            "faults.coverage": self.faults.coverage,
            "disk.utilization": self.disk.utilization(self.elapsed_us),
            "memory.frames_total": self.memory.frames_total,
            "memory.min_free": self.memory.min_free,
            "memory.max_free": self.memory.max_free,
            "memory.avg_free_fraction":
                self.memory.avg_free_fraction(self.elapsed_us),
        }
        for name, value in gauges.items():
            reg.gauge(name).set(value)
        return reg
