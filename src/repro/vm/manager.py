"""The memory manager: faults, prefetch hints, release hints, eviction.

This is the OS half of the paper's interface (Section 2.4):

* **Demand faults** block the application for the fault-service time plus
  however long the disk read takes (minus whatever a prefetch already
  overlapped).
* **Prefetch** is a non-binding hint: pages already resident are noted as
  unnecessary, pages on the free list are reclaimed, in-flight pages are
  ignored, and -- crucially -- when all memory is in use the prefetch is
  simply *dropped* ("the OS simply drops prefetches when all memory is in
  use").  Prefetches never evict.
* **Release** moves a resident page to the free list, scheduling an
  asynchronous write-back if it is dirty, and clears the page's residency
  bit so the run-time layer stops filtering prefetches for it.
* **Eviction** (only on demand faults with no free memory) picks a victim
  with the clock algorithm and schedules its write-back if dirty; writes
  are buffered and pipelined (Section 2.1), so the faulting process does
  not wait for them -- but they do occupy disk time and delay later reads.
"""

from __future__ import annotations

import enum
import heapq

from repro.config import PlatformConfig
from repro.errors import MachineError
from repro.obs.trace import TraceKind
from repro.sim.clock import Clock, TimeCategory
from repro.sim.stats import RunStats
from repro.storage.array_ctl import DiskArray, IOKind
from repro.vm.frames import FramePool
from repro.vm.page import (
    FREELIST, IN_TRANSIT, ON_DISK, RESIDENT, PageColumns, PageState,
)
from repro.vm.replacement import ClockRing
from repro.vm.residency import ResidencyBitVector


class AccessOutcome(enum.Enum):
    """How one memory access was satisfied (for tests and traces)."""

    HIT = "hit"
    PREFETCHED_HIT = "prefetched_hit"
    PREFETCHED_FAULT = "prefetched_fault"
    NONPREFETCHED_FAULT = "nonprefetched_fault"
    RECLAIM = "reclaim"


class MemoryManager:
    """OS-side page management over a :class:`FramePool` and a disk array."""

    #: Readahead window cap (pages), doubling per confirmed sequential hit.
    READAHEAD_MAX_WINDOW = 32

    def __init__(
        self,
        config: PlatformConfig,
        clock: Clock,
        disks: DiskArray,
        stats: RunStats,
        bitvector=None,
        readahead: bool = False,
        binding: bool = False,
        observer=None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.disks = disks
        self.stats = stats
        #: Attached :class:`repro.obs.Observer`, or None (tracing off).
        self.obs = observer
        #: Residency bit vector shared with the run-time layer (may be None
        #: for runs without the run-time layer / without prefetching).
        self.bitvector = bitvector
        #: OS sequential readahead: the fault-history baseline the paper's
        #: related work describes (Section 5).  The OS watches for
        #: ascending per-segment fault runs and asynchronously fetches a
        #: doubling window ahead -- no compiler knowledge involved.
        self.readahead = readahead
        #: Per-segment readahead state: segment name -> (next expected
        #: fault page, confirmed run length).
        self._ra_state: dict[str, tuple[int, int]] = {}
        #: Figure-1 instrumentation: treat prefetches as *binding* (the
        #: data value is copied at prefetch time, as an asynchronous
        #: read() into a buffer would).  Each bound page maps to whether
        #: a store has landed since its copy was taken; a load that
        #: consumes such a copy is a stale read that non-binding
        #: prefetching can never produce.
        self.binding = binding
        self._bound_stored: dict[int, bool] = {}
        self.frames = FramePool(config.available_frames)
        #: Every per-page field, one column each, indexed by vpage; its
        #: first-touch list is the set of pages the manager has created.
        self.cols = PageColumns()
        self.ring = ClockRing(self.cols)
        #: Fast-access mask: a granularity-1 flag per page mirroring the
        #: chunk kernel's predicate (resident and past its first
        #: prefetched use); every state transition below keeps it in sync
        #: so ``run_chunk`` classifies a whole chunk of accesses with one
        #: numpy gather, and the scalar loop each access with one byte.
        self.fast = ResidencyBitVector()
        #: Pages currently IN_TRANSIT, in transit order (an ordered set),
        #: for settle-on-pressure handling.
        self._in_transit: dict[int, None] = {}
        self._free_last_us = 0.0
        #: Multiprogramming pressure schedule: a heap of (time_us,
        #: frame_delta); positive deltas claim frames for a competitor,
        #: negative deltas give them back.
        self._pressure_events: list[tuple[float, int]] = []
        stats.memory.frames_total = self.frames.total_frames
        stats.memory.min_free = self.frames.total_frames
        stats.memory.max_free = self.frames.total_frames

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------

    def state_of(self, vpage: int) -> PageState:
        """``vpage``'s residency state (ON_DISK for a page never touched)."""
        cols = self.cols
        return PageState(cols.state[vpage] if vpage < cols.capacity else ON_DISK)

    # ------------------------------------------------------------------
    # Multiprogramming pressure (future-work extension, paper Section 6)
    # ------------------------------------------------------------------

    def schedule_pressure(
        self, at_us: float, frames: int, duration_us: float | None = None
    ) -> None:
        """A competing application claims ``frames`` at ``at_us``.

        With ``duration_us`` the frames come back when the competitor
        exits.  Pressure takes effect at the next memory operation after
        the deadline (the OS acts when it is entered, not mid-computation).
        """
        if frames <= 0:
            raise MachineError(f"pressure must claim >= 1 frame, got {frames}")
        heapq.heappush(self._pressure_events, (at_us, frames))
        if duration_us is not None:
            heapq.heappush(self._pressure_events, (at_us + duration_us, -frames))

    def _apply_due_pressure(self) -> None:
        now = self.clock.now
        due: list[int] = []
        while self._pressure_events and self._pressure_events[0][0] <= now:
            due.append(heapq.heappop(self._pressure_events)[1])
        for delta in due:
            if delta < 0:
                # A claim may have fallen short (nothing evictable at the
                # time), so give back at most what is actually reserved.
                give_back = min(-delta, self.frames.reserved)
                if give_back:
                    self.frames.unreserve(give_back)
                continue
            for _ in range(delta):
                if self.frames.reserved >= self.frames.total_frames - 1:
                    # Oversized claim (fuzz-found): a competitor may take
                    # everything but the application's last frame, or a
                    # later fault has no frame and nothing to evict.  Like
                    # the nothing-evictable case below, the competitor
                    # simply gets less than it asked for.
                    break
                if self.frames.reserve_fresh():
                    continue
                if not self._steal_free_frame():
                    victim = self._select_victim()
                    if victim is None:
                        break  # nothing evictable: competitor gets less
                    self._evict(victim, "pressure")
                self.frames.convert_in_use_to_reserved()

    def _tick_free(self) -> None:
        """Integrate the free-frame count up to now (Table 3 statistic)."""
        if self._pressure_events:
            self._apply_due_pressure()
        now = self.clock.now
        free = self.frames.free_count
        self.stats.memory.free_integral += free * (now - self._free_last_us)
        self._free_last_us = now
        if free < self.stats.memory.min_free:
            self.stats.memory.min_free = free
        if free > self.stats.memory.max_free:
            self.stats.memory.max_free = free

    def finalize_accounting(self) -> None:
        """Close out the free-memory integral at the end of the run."""
        self._tick_free()

    # ------------------------------------------------------------------
    # Frame acquisition and eviction
    # ------------------------------------------------------------------

    def _settle_arrived(self) -> int:
        """Convert IN_TRANSIT pages whose reads completed into residents."""
        now = self.clock.now
        cols = self.cols
        arrival = cols.arrival_us
        settled = [v for v in self._in_transit if arrival[v] <= now]
        for vpage in settled:
            del self._in_transit[vpage]
            cols.state[vpage] = RESIDENT
            self.ring.insert(vpage)
        return len(settled)

    def _select_victim(self) -> int | None:
        """Run the clock hand, settling arrived prefetches if it finds none."""
        victim = self.ring.select_victim()
        if victim is None and self._settle_arrived():
            victim = self.ring.select_victim()
        return victim

    def _evict(self, victim: int, tag: str) -> None:
        """RESIDENT -> ON_DISK for the clock hand's ``victim``.

        Writes are buffered and pipelined, so a dirty victim's write-back
        occupies the disks without stalling anyone.  The caller decides
        where the vacated frame goes.
        """
        now = self.clock.now
        cols = self.cols
        dirty = cols.dirty[victim]
        self.stats.memory.evictions += 1
        if self.obs is not None:
            self.obs.emit(now, TraceKind.EVICTION, victim,
                          value=float(dirty), tag=tag)
        if dirty:
            self.disks.write_page(victim, now)
            self.stats.memory.eviction_writebacks += 1
            cols.dirty[victim] = 0
        cols.state[victim] = ON_DISK
        cols.via_prefetch[victim] = 0
        cols.used_since_arrival[victim] = 0
        self.fast.clear(victim)
        if self.bitvector is not None:
            self.bitvector.clear(victim)

    def _steal_free_frame(self) -> bool:
        """FREELIST -> ON_DISK: take the oldest free-list frame, if any,
        silently discarding the released page it still holds."""
        stolen = self.frames.steal_from_freelist()
        if stolen is None:
            return False
        cols = self.cols
        cols.state[stolen] = ON_DISK
        cols.via_prefetch[stolen] = 0
        self.fast.clear(stolen)
        if self.bitvector is not None:
            self.bitvector.clear(stolen)
        return True

    def _replenish_free_pool(self) -> None:
        """The page-out daemon: keep the free pool near its target.

        Runs "in the background" (another processor on the paper's Hector
        machine), so it charges no CPU time; its dirty write-backs do
        occupy the disks.  Without this, steady-state out-of-core
        execution has zero free memory and every prefetch is dropped.
        """
        target = int(self.frames.total_frames * self.config.free_target_fraction)
        if target <= 0 or self.frames.free_count > target // 2:
            return
        self._tick_free()
        while self.frames.free_count < target:
            victim = self._select_victim()
            if victim is None:
                break
            self._evict(victim, "daemon")
            self.frames.surrender()

    def _obtain_frame_for_fault(self) -> None:
        """Get a frame for a demand fault, evicting if necessary."""
        self._replenish_free_pool()
        self._tick_free()
        if self.frames.take_fresh() or self._steal_free_frame():
            return
        victim = self._select_victim()
        if victim is None and self._in_transit:
            # Every frame is pinned by an in-flight prefetch: wait for the
            # earliest *issued* arrival, settle it, and evict it.
            arrival = self.cols.arrival_us
            issued = [
                arrival[v]
                for v in self._in_transit
                if arrival[v] != float("inf")
            ]
            if issued:
                waited = self.clock.wait_until(min(issued), TimeCategory.STALL_READ)
                if waited and self.obs is not None:
                    # Not attributable to one page: the fault is waiting
                    # for *some* pinned in-flight frame to arrive.
                    self.obs.emit(self.clock.now, TraceKind.STALL_FRAME_WAIT,
                                  -1, 1, waited)
                self._settle_arrived()
                victim = self.ring.select_victim()
        if victim is None:
            raise MachineError("no frame available and no page is evictable")
        # The evicted page's frame transfers directly to the faulting page;
        # it stays counted as in-use, so the pool needs no adjustment.
        self._evict(victim, "fault")

    def _try_frame_for_prefetch(self) -> bool:
        """Get a frame without evicting; False means drop the prefetch."""
        self._tick_free()
        return self.frames.take_fresh() or self._steal_free_frame()

    # ------------------------------------------------------------------
    # The access path (demand reads and writes)
    # ------------------------------------------------------------------

    def access(self, vpage: int, is_write: bool) -> AccessOutcome:
        """Perform one memory access, charging all costs to the clock."""
        cols = self.cols
        cols.create(vpage)
        state = cols.state[vpage]
        if state == FREELIST:
            # Run any due daemon/pressure work *before* committing to the
            # reclaim: it may steal this very frame, in which case the
            # access proceeds as an ordinary demand fault.
            self._tick_free()
            state = cols.state[vpage]

        if self.binding and vpage in self._bound_stored:
            # A store writes memory, bypassing the binding buffer; only a
            # load consumes it, stale if a store landed since the copy.
            if is_write:
                self._bound_stored[vpage] = True
            elif self._bound_stored.pop(vpage):
                self.stats.prefetch.binding_stale += 1

        if state == RESIDENT:
            return self._touch_resident(vpage, is_write)
        clock = self.clock
        if state == IN_TRANSIT:
            if self._map_in_transit(vpage, is_write):
                return AccessOutcome.PREFETCHED_HIT
            use_ts = clock.now
            clock.advance(self.config.cost.fault_service_us, TimeCategory.SYS_FAULT)
            waited = clock.wait_until(cols.arrival_us[vpage],
                                      TimeCategory.STALL_READ)
            self._in_flight_fault(vpage, use_ts, waited)
            return AccessOutcome.PREFETCHED_FAULT
        if state == FREELIST:
            return self._reclaim(vpage, is_write)
        # ON_DISK: a full demand fault -- trap, frame, read, wait, then map.
        completion = self._start_fault_read(vpage)
        waited = clock.wait_until(completion, TimeCategory.STALL_READ)
        return self._map_fault(vpage, completion, is_write, waited)

    def access_async(self, vpage: int, is_write: bool) -> float:
        """Like :meth:`access`, but never waits: returns the ready time.

        For the co-scheduler (multiprogramming): a faulting process is
        *blocked* until the returned time while other processes run.  All
        CPU costs (fault service, reclaim) are charged to the clock as
        usual; only the I/O wait is left to the caller.  The faulted page
        is mapped immediately -- the processes' address spaces are
        disjoint, so only the owning (blocked) process could observe it
        before the data arrives, and it is blocked.
        """
        cols = self.cols
        cols.create(vpage)
        state = cols.state[vpage]
        if state == FREELIST:
            self._tick_free()
            state = cols.state[vpage]

        clock = self.clock
        if state == RESIDENT:
            self._touch_resident(vpage, is_write)
            return clock.now
        if state == IN_TRANSIT:
            if self._map_in_transit(vpage, is_write):
                return clock.now
            use_ts = clock.now
            clock.advance(self.config.cost.fault_service_us, TimeCategory.SYS_FAULT)
            arrival = cols.arrival_us[vpage]
            self._in_flight_fault(vpage, use_ts, max(0.0, arrival - clock.now))
            return arrival
        if state == FREELIST:
            self._reclaim(vpage, is_write)
            return clock.now
        # ON_DISK: the demand fault without the wait.
        completion = self._start_fault_read(vpage)
        self._map_fault(vpage, completion, is_write,
                        max(0.0, completion - clock.now))
        return completion

    # Page transitions shared by the two entry points above.  Each one
    # charges no I/O wait: ``access`` waits before it maps a faulted
    # page, ``access_async`` leaves the wait to its caller.

    def _touch_resident(self, vpage: int, is_write: bool) -> AccessOutcome:
        """RESIDENT: a plain hit, or the first use of a prefetched page."""
        cols = self.cols
        cols.ref[vpage] = 1
        if is_write:
            cols.dirty[vpage] = 1
        if cols.via_prefetch[vpage] and not cols.used_since_arrival[vpage]:
            cols.used_since_arrival[vpage] = 1
            cols.prefetched_pending[vpage] = 0
            self.fast.set(vpage)
            self._count_prefetched_hit(vpage)
            return AccessOutcome.PREFETCHED_HIT
        self.stats.faults.hits += 1
        return AccessOutcome.HIT

    def _count_prefetched_hit(self, vpage: int) -> None:
        """A prefetched page's data was in memory by its first use."""
        self.stats.faults.prefetched_hit += 1
        if self.obs is not None:
            now = self.clock.now
            self.obs.prefetch_to_use.observe(now - self.cols.arrival_us[vpage])
            self.obs.emit(now, TraceKind.FAULT, vpage, tag="prefetched_hit")

    def _map_in_transit(self, vpage: int, is_write: bool) -> bool:
        """IN_TRANSIT -> RESIDENT at first touch.

        True when the read had already completed: the OS mapped the page
        at I/O completion, so this is a fully hidden fault.  False means
        the access caught up with its own prefetch: it still traps, but
        stalls only for the remaining latency (:meth:`_in_flight_fault`).
        """
        cols = self.cols
        self._in_transit.pop(vpage, None)
        cols.state[vpage] = RESIDENT
        cols.used_since_arrival[vpage] = 1
        cols.prefetched_pending[vpage] = 0
        self.fast.set(vpage)
        if is_write:
            cols.dirty[vpage] = 1
        self.ring.insert(vpage)
        if cols.arrival_us[vpage] <= self.clock.now:
            self._count_prefetched_hit(vpage)
            return True
        return False

    def _in_flight_fault(self, vpage: int, use_ts: float, stall: float) -> None:
        """Count a trap on a page whose prefetch was still in flight at
        ``use_ts``; ``stall`` is how long the faulting process waits."""
        self.stats.faults.prefetched_fault += 1
        if self.obs is not None:
            self.obs.prefetch_to_use.observe(use_ts - self.cols.arrival_us[vpage])
            self.obs.stall_latency.observe(stall)
            self.obs.emit(self.clock.now, TraceKind.FAULT, vpage,
                          value=stall, tag="prefetched_fault")

    def _reclaim(self, vpage: int, is_write: bool) -> AccessOutcome:
        """FREELIST -> RESIDENT: a cheap reclaim, the contents are still
        in the frame.  The caller ran due daemon work first, so nothing
        can steal the frame in between."""
        self.clock.advance(self.config.cost.fault_reclaim_us, TimeCategory.SYS_FAULT)
        if not self.frames.reclaim(vpage):
            raise MachineError(f"page {vpage} on FREELIST but not reclaimable")
        self._map(vpage, is_write)
        self.stats.faults.reclaim_fault += 1
        if self.obs is not None:
            self.obs.emit(self.clock.now, TraceKind.FAULT, vpage, tag="reclaim")
        return AccessOutcome.RECLAIM

    def _start_fault_read(self, vpage: int) -> float:
        """ON_DISK: trap, get a frame, and start the read; returns its
        completion time."""
        self.clock.advance(self.config.cost.fault_service_us, TimeCategory.SYS_FAULT)
        self._obtain_frame_for_fault()
        return self.disks.read_page(vpage, self.clock.now, IOKind.FAULT)

    def _map_fault(self, vpage: int, completion: float, is_write: bool,
                   stall: float) -> AccessOutcome:
        """ON_DISK -> RESIDENT once the fault's read is started: map the
        page and count the fault; ``stall`` is how long the faulting
        process waits."""
        self.cols.arrival_us[vpage] = completion
        self._map(vpage, is_write)
        if self.readahead:
            self._sequential_readahead(vpage)
        # Readahead may have grown the store: index it afresh.
        pending = self.cols.prefetched_pending
        if pending[vpage]:
            pending[vpage] = 0
            self.stats.faults.prefetched_fault += 1
            outcome = AccessOutcome.PREFETCHED_FAULT
        else:
            self.stats.faults.nonprefetched_fault += 1
            outcome = AccessOutcome.NONPREFETCHED_FAULT
        if self.obs is not None:
            self.obs.stall_latency.observe(stall)
            self.obs.emit(self.clock.now, TraceKind.FAULT, vpage,
                          value=stall, tag=outcome.value)
        return outcome

    def _map(self, vpage: int, is_write: bool) -> None:
        """Make ``vpage`` resident on demand (fault, reclaim, warm load)."""
        cols = self.cols
        cols.state[vpage] = RESIDENT
        cols.via_prefetch[vpage] = 0
        cols.used_since_arrival[vpage] = 1
        self.fast.set(vpage)
        if is_write:
            cols.dirty[vpage] = 1
        self.ring.insert(vpage)
        if self.bitvector is not None:
            self.bitvector.set(vpage)

    def _sequential_readahead(self, vpage: int) -> None:
        """Fault-history readahead (the Section 5 baseline).

        A demand fault that continues an ascending run in its segment
        doubles the readahead window (capped); anything else resets the
        run -- the "some number of faults are required to establish
        patterns" cost the paper points out.  Readahead reads use frames
        only when free (like prefetch hints, they never evict).
        """
        try:
            ext = self.disks.layout.extent_of(vpage)
        except MachineError:
            return
        expected, run = self._ra_state.get(ext.name, (-1, 0))
        run = run + 1 if vpage == expected else 0
        self._ra_state[ext.name] = (vpage + 1, run)
        if run == 0:
            return
        window = min(self.READAHEAD_MAX_WINDOW, 2 ** run)
        last_page = ext.base_vpage + ext.npages - 1
        cols = self.cols
        fetched = 0
        for target in range(vpage + 1, min(vpage + window, last_page) + 1):
            cols.create(target)
            if (cols.state[target] != ON_DISK
                    or not self._try_frame_for_prefetch()):
                break
            self._begin_transit(target)
            fetched += 1
        if fetched:
            self._read_run(vpage + 1, fetched, "readahead")
            self.stats.prefetch.readahead_pages += fetched
            # The stream's next *fault* lands just past the window; treat
            # it as continuing the run (the window position is part of
            # the per-stream state, as in real readahead implementations).
            self._ra_state[ext.name] = (vpage + fetched + 1, run)

    # ------------------------------------------------------------------
    # Prefetch and release hints (the system-call side)
    # ------------------------------------------------------------------

    def prefetch_call(self, start_vpage: int, npages: int) -> None:
        """Service one prefetch system call for a contiguous page run."""
        self.clock.advance(
            self.config.cost.prefetch_syscall_us
            + self.config.cost.prefetch_per_page_us * npages,
            TimeCategory.SYS_PREFETCH,
        )
        self._prefetch_pages(start_vpage, npages)

    def prefetch_release_call(
        self, start_vpage: int, npages: int, release_vpages: list[int]
    ) -> None:
        """Service one *bundled* prefetch+release system call.

        The compiler bundles prefetch and release requests "to minimize
        system call overhead" (Section 2.3, Figure 2(b)'s
        ``prefetch_release_block``), so only one syscall overhead is paid.
        Releases are processed first so that the freed frames are available
        to the prefetch -- that ordering is what lets a streaming loop run
        in a near-constant memory footprint.
        """
        cost = self.config.cost
        self.clock.advance(
            cost.prefetch_syscall_us
            + cost.prefetch_per_page_us * npages
            + cost.release_per_page_us * len(release_vpages),
            TimeCategory.SYS_PREFETCH,
        )
        self._release_pages(release_vpages)
        self.stats.release.calls += 1
        self._prefetch_pages(start_vpage, npages)

    def _begin_transit(self, vpage: int) -> None:
        """ON_DISK -> IN_TRANSIT for a prefetch that got a frame.

        The page cannot settle until :meth:`_read_run` issues its read
        and records the real completion time.
        """
        cols = self.cols
        cols.state[vpage] = IN_TRANSIT
        cols.via_prefetch[vpage] = 1
        cols.used_since_arrival[vpage] = 0
        cols.prefetched_pending[vpage] = 1
        cols.arrival_us[vpage] = float("inf")
        self._in_transit[vpage] = None
        if self.bitvector is not None:
            self.bitvector.set(vpage)

    def _read_run(self, start: int, npages: int, tag: str = "") -> None:
        """Issue one prefetch read for the transit pages
        ``[start, start + npages)``."""
        now = self.clock.now
        arrival = self.cols.arrival_us
        for vpage, done in self.disks.read_run(start, npages, now,
                                               IOKind.PREFETCH):
            arrival[vpage] = done
        if self.obs is not None:
            self.obs.emit(now, TraceKind.PREFETCH_ISSUED, start, npages,
                          tag=tag)

    def _prefetch_pages(self, start_vpage: int, npages: int) -> None:
        clock = self.clock
        pstats = self.stats.prefetch
        pstats.issued_calls += 1
        pstats.issued_pages += npages
        self._replenish_free_pool()

        # Gather contiguous sub-runs of fetchable pages so each becomes one
        # (mostly sequential) disk request per disk.
        run_start = run_len = 0

        def flush_run() -> None:
            nonlocal run_len
            if run_len:
                self._read_run(run_start, run_len)
                pstats.disk_reads += run_len
                run_len = 0

        cols = self.cols
        binding = self.binding
        obs = self.obs
        bitvector = self.bitvector
        try_frame = self._try_frame_for_prefetch
        for vpage in range(start_vpage, start_vpage + npages):
            cols.create(vpage)
            state = cols.state[vpage]
            if state == FREELIST:
                # Let due daemon/pressure work steal the frame now if it
                # is going to; re-dispatch on the refreshed state.
                self._tick_free()
                state = cols.state[vpage]
            if binding:
                # An explicit asynchronous read() copies the value of
                # every requested page at issue time, resident or not.
                self._bound_stored[vpage] = False
            if state == RESIDENT:
                pstats.unnecessary_issued += 1
                if obs is not None:
                    obs.emit(clock.now, TraceKind.PREFETCH_UNNECESSARY,
                             vpage, tag="resident")
                flush_run()
            elif state == IN_TRANSIT:
                pstats.in_transit += 1
                if obs is not None:
                    obs.emit(clock.now, TraceKind.PREFETCH_UNNECESSARY,
                             vpage, tag="in_transit")
                flush_run()
            elif state == FREELIST:
                if not self.frames.reclaim(vpage):
                    raise MachineError(
                        f"page {vpage} on FREELIST but missing from the pool"
                    )
                self._tick_free()
                cols.state[vpage] = RESIDENT
                cols.via_prefetch[vpage] = 1
                cols.used_since_arrival[vpage] = 0
                cols.arrival_us[vpage] = clock.now
                self.ring.insert(vpage)
                if bitvector is not None:
                    bitvector.set(vpage)
                pstats.reclaimed += 1
                if obs is not None:
                    obs.emit(clock.now, TraceKind.PREFETCH_RECLAIMED, vpage)
                flush_run()
            else:  # ON_DISK
                cols.prefetched_pending[vpage] = 1
                if try_frame():
                    self._begin_transit(vpage)
                    if not run_len:
                        run_start = vpage
                    run_len += 1
                else:
                    pstats.dropped += 1
                    if obs is not None:
                        obs.emit(clock.now, TraceKind.PREFETCH_DROPPED,
                                 vpage)
                    flush_run()
        flush_run()

    def release_call(self, vpages: list[int]) -> None:
        """Service one release system call for the given pages."""
        cost = self.config.cost
        self.clock.advance(
            cost.release_syscall_us + cost.release_per_page_us * len(vpages),
            TimeCategory.SYS_RELEASE,
        )
        self.stats.release.calls += 1
        self._release_pages(vpages)

    def _release_pages(self, vpages: list[int]) -> None:
        clock = self.clock
        rstats = self.stats.release
        released = writebacks = 0
        cols = self.cols
        state, dirty, via_prefetch = cols.state, cols.dirty, cols.via_prefetch
        tick_free = self._tick_free
        ring_forget = self.ring.forget
        fast_clear = self.fast.clear
        add_to_freelist = self.frames.add_to_freelist
        bitvector = self.bitvector
        for vpage in vpages:
            if vpage >= cols.capacity or state[vpage] != RESIDENT:
                rstats.noop += 1
                continue
            # Account free time *before* the transition: _tick_free may
            # reentrantly run the page-out daemon / pressure events, which
            # must never observe the page half-moved (state changed but
            # not yet on the pool's free list) -- and which may evict this
            # very page, so the residency check repeats afterwards.  They
            # create no page, so the column buffers stay current.
            tick_free()
            if state[vpage] != RESIDENT:
                rstats.noop += 1
                continue
            if dirty[vpage]:
                self.disks.write_page(vpage, clock.now)
                rstats.writebacks += 1
                writebacks += 1
                dirty[vpage] = 0
            ring_forget(vpage)
            state[vpage] = FREELIST
            via_prefetch[vpage] = 0
            fast_clear(vpage)
            add_to_freelist(vpage)
            if bitvector is not None:
                bitvector.clear(vpage)
            rstats.pages_released += 1
            released += 1
        if self.obs is not None and vpages:
            self.obs.emit(clock.now, TraceKind.RELEASE, vpages[0],
                          released, float(writebacks))

    # ------------------------------------------------------------------
    # Run boundary helpers
    # ------------------------------------------------------------------

    def warm_load(self, vpages: list[int]) -> None:
        """Preload pages at time zero (warm-started runs, Figure 6)."""
        cols = self.cols
        for vpage in vpages:
            cols.create(vpage)
            if cols.state[vpage] != ON_DISK:
                continue
            self._tick_free()
            if not self.frames.take_fresh():
                raise MachineError("warm_load exceeds available memory")
            self._map(vpage, False)

    def flush_dirty(self) -> None:
        """Write back every dirty resident page and wait for the disks.

        Models the paper's modification of the benchmarks to "write their
        results back out to disk" (Section 3.2); charged identically to the
        original and prefetching versions.
        """
        # First-touch order, as the disk model's results depend on it.
        cols = self.cols
        state, dirty = cols.state, cols.dirty
        for vpage in cols.order:
            if state[vpage] == RESIDENT and dirty[vpage]:
                self.disks.write_page(vpage, self.clock.now)
                dirty[vpage] = 0
        self.clock.wait_until(self.disks.drain_time(), TimeCategory.STALL_FLUSH)
        self.finalize_accounting()
