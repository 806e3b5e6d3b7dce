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
from repro.vm.page import Page, PageColumns, PageState
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
        #: read() into a buffer would).  Page write-versions recorded at
        #: issue are compared at first use; a mismatch is a stale read
        #: that non-binding prefetching can never produce.
        self.binding = binding
        self._bound_versions: dict[int, int] = {}
        self.frames = FramePool(config.available_frames)
        self.ring = ClockRing()
        self.pages: dict[int, Page] = {}
        #: Fast-access mask: a granularity-1 flag per page mirroring the
        #: chunk kernel's predicate (resident and past its first
        #: prefetched use); every state transition below keeps it in sync
        #: so ``run_chunk`` can classify a whole chunk of accesses with
        #: one numpy gather.
        self.fast = ResidencyBitVector()
        #: Columnar ref/dirty/version store shared by every Page; the
        #: chunk kernel scatters whole fast segments into it.
        self.cols = PageColumns()
        #: Pages currently IN_TRANSIT, for settle-on-pressure handling.
        self._in_transit: dict[int, Page] = {}
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

    def page_of(self, vpage: int) -> Page:
        page = self.pages.get(vpage)
        if page is None:
            self.cols.ensure(vpage)
            page = Page(vpage, self.cols)
            self.pages[vpage] = page
        return page

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

    def resident_count(self) -> int:
        return self.frames.in_use

    # ------------------------------------------------------------------
    # Frame acquisition and eviction
    # ------------------------------------------------------------------

    def _settle_arrived(self) -> int:
        """Convert IN_TRANSIT pages whose reads completed into residents."""
        now = self.clock.now
        settled = 0
        for vpage in [v for v, p in self._in_transit.items() if p.arrival_us <= now]:
            page = self._in_transit.pop(vpage)
            page.state = PageState.RESIDENT
            self.ring.insert(page)
            settled += 1
        return settled

    def _select_victim(self) -> Page | None:
        """Run the clock hand, settling arrived prefetches if it finds none."""
        victim = self.ring.select_victim()
        if victim is None and self._settle_arrived():
            victim = self.ring.select_victim()
        return victim

    def _evict(self, victim: Page, tag: str) -> None:
        """RESIDENT -> ON_DISK for the clock hand's ``victim``.

        Writes are buffered and pipelined, so a dirty victim's write-back
        occupies the disks without stalling anyone.  The caller decides
        where the vacated frame goes.
        """
        now = self.clock.now
        self.stats.memory.evictions += 1
        if self.obs is not None:
            self.obs.emit(now, TraceKind.EVICTION, victim.vpage,
                          value=float(victim.dirty), tag=tag)
        if victim.dirty:
            self.disks.write_page(victim.vpage, now)
            self.stats.memory.eviction_writebacks += 1
            victim.dirty = False
        victim.state = PageState.ON_DISK
        victim.via_prefetch = False
        victim.used_since_arrival = False
        self.fast.clear(victim.vpage)
        if self.bitvector is not None:
            self.bitvector.clear(victim.vpage)

    def _steal_free_frame(self) -> bool:
        """FREELIST -> ON_DISK: take the oldest free-list frame, if any,
        silently discarding the released page it still holds."""
        stolen = self.frames.steal_from_freelist()
        if stolen is None:
            return False
        discarded = self.pages[stolen]
        discarded.state = PageState.ON_DISK
        discarded.via_prefetch = False
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
            issued = [
                p.arrival_us
                for p in self._in_transit.values()
                if p.arrival_us != float("inf")
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
        page = self.pages.get(vpage) or self.page_of(vpage)
        state = page.state
        if state == PageState.FREELIST:
            # Run any due daemon/pressure work *before* committing to the
            # reclaim: it may steal this very frame, in which case the
            # access proceeds as an ordinary demand fault.
            self._tick_free()
            state = page.state

        if self.binding and not is_write and vpage in self._bound_versions:
            # Only a load consumes the binding buffer (a store writes
            # memory, bypassing it); the check runs before any bump, so
            # an intervening store since the copy is visible here.
            self._check_binding_staleness(page)

        if state == PageState.RESIDENT:
            return self._touch_resident(page, is_write)
        clock = self.clock
        if state == PageState.IN_TRANSIT:
            if self._map_in_transit(page, is_write):
                return AccessOutcome.PREFETCHED_HIT
            use_ts = clock.now
            clock.advance(self.config.cost.fault_service_us, TimeCategory.SYS_FAULT)
            waited = clock.wait_until(page.arrival_us, TimeCategory.STALL_READ)
            self._in_flight_fault(page, use_ts, waited)
            return AccessOutcome.PREFETCHED_FAULT
        if state == PageState.FREELIST:
            return self._reclaim(page, is_write)
        # ON_DISK: a full demand fault -- trap, frame, read, wait, then map.
        completion = self._start_fault_read(vpage)
        waited = clock.wait_until(completion, TimeCategory.STALL_READ)
        return self._map_fault(page, completion, is_write, waited)

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
        page = self.pages.get(vpage) or self.page_of(vpage)
        state = page.state
        if state == PageState.FREELIST:
            self._tick_free()
            state = page.state

        clock = self.clock
        if state == PageState.RESIDENT:
            self._touch_resident(page, is_write)
            return clock.now
        if state == PageState.IN_TRANSIT:
            if self._map_in_transit(page, is_write):
                return clock.now
            use_ts = clock.now
            clock.advance(self.config.cost.fault_service_us, TimeCategory.SYS_FAULT)
            self._in_flight_fault(page, use_ts,
                                  max(0.0, page.arrival_us - clock.now))
            return page.arrival_us
        if state == PageState.FREELIST:
            self._reclaim(page, is_write)
            return clock.now
        # ON_DISK: the demand fault without the wait.
        completion = self._start_fault_read(vpage)
        self._map_fault(page, completion, is_write,
                        max(0.0, completion - clock.now))
        return completion

    # Page transitions shared by the two entry points above.  Each one
    # charges no I/O wait: ``access`` waits before it maps a faulted
    # page, ``access_async`` leaves the wait to its caller.

    def _touch_resident(self, page: Page, is_write: bool) -> AccessOutcome:
        """RESIDENT: a plain hit, or the first use of a prefetched page."""
        page.ref_bit = True
        if is_write:
            page.dirty = True
            page.version += 1
        if page.via_prefetch and not page.used_since_arrival:
            page.used_since_arrival = True
            page.prefetched_pending = False
            self.fast.set(page.vpage)
            self._count_prefetched_hit(page)
            return AccessOutcome.PREFETCHED_HIT
        self.stats.faults.hits += 1
        return AccessOutcome.HIT

    def _count_prefetched_hit(self, page: Page) -> None:
        """A prefetched page's data was in memory by its first use."""
        self.stats.faults.prefetched_hit += 1
        if self.obs is not None:
            now = self.clock.now
            self.obs.prefetch_to_use.observe(now - page.arrival_us)
            self.obs.emit(now, TraceKind.FAULT, page.vpage, tag="prefetched_hit")

    def _map_in_transit(self, page: Page, is_write: bool) -> bool:
        """IN_TRANSIT -> RESIDENT at first touch.

        True when the read had already completed: the OS mapped the page
        at I/O completion, so this is a fully hidden fault.  False means
        the access caught up with its own prefetch: it still traps, but
        stalls only for the remaining latency (:meth:`_in_flight_fault`).
        """
        self._in_transit.pop(page.vpage, None)
        page.state = PageState.RESIDENT
        page.used_since_arrival = True
        page.prefetched_pending = False
        self.fast.set(page.vpage)
        if is_write:
            page.dirty = True
            page.version += 1
        self.ring.insert(page)
        if page.arrival_us <= self.clock.now:
            self._count_prefetched_hit(page)
            return True
        return False

    def _in_flight_fault(self, page: Page, use_ts: float, stall: float) -> None:
        """Count a trap on a page whose prefetch was still in flight at
        ``use_ts``; ``stall`` is how long the faulting process waits."""
        self.stats.faults.prefetched_fault += 1
        if self.obs is not None:
            self.obs.prefetch_to_use.observe(use_ts - page.arrival_us)
            self.obs.stall_latency.observe(stall)
            self.obs.emit(self.clock.now, TraceKind.FAULT, page.vpage,
                          value=stall, tag="prefetched_fault")

    def _reclaim(self, page: Page, is_write: bool) -> AccessOutcome:
        """FREELIST -> RESIDENT: a cheap reclaim, the contents are still
        in the frame.  The caller ran due daemon work first, so nothing
        can steal the frame in between."""
        self.clock.advance(self.config.cost.fault_reclaim_us, TimeCategory.SYS_FAULT)
        if not self.frames.reclaim(page.vpage):
            raise MachineError(f"page {page.vpage} on FREELIST but not reclaimable")
        self._map(page, is_write)
        self.stats.faults.reclaim_fault += 1
        if self.obs is not None:
            self.obs.emit(self.clock.now, TraceKind.FAULT, page.vpage, tag="reclaim")
        return AccessOutcome.RECLAIM

    def _start_fault_read(self, vpage: int) -> float:
        """ON_DISK: trap, get a frame, and start the read; returns its
        completion time."""
        self.clock.advance(self.config.cost.fault_service_us, TimeCategory.SYS_FAULT)
        self._obtain_frame_for_fault()
        return self.disks.read_page(vpage, self.clock.now, IOKind.FAULT)

    def _map_fault(self, page: Page, completion: float, is_write: bool,
                   stall: float) -> AccessOutcome:
        """ON_DISK -> RESIDENT once the fault's read is started: map the
        page and count the fault; ``stall`` is how long the faulting
        process waits."""
        page.arrival_us = completion
        self._map(page, is_write)
        if self.readahead:
            self._sequential_readahead(page.vpage)
        if page.prefetched_pending:
            page.prefetched_pending = False
            self.stats.faults.prefetched_fault += 1
            outcome = AccessOutcome.PREFETCHED_FAULT
        else:
            self.stats.faults.nonprefetched_fault += 1
            outcome = AccessOutcome.NONPREFETCHED_FAULT
        if self.obs is not None:
            self.obs.stall_latency.observe(stall)
            self.obs.emit(self.clock.now, TraceKind.FAULT, page.vpage,
                          value=stall, tag=outcome.value)
        return outcome

    def _map(self, page: Page, is_write: bool) -> None:
        """Make ``page`` resident on demand (fault, reclaim, warm load)."""
        page.state = PageState.RESIDENT
        page.via_prefetch = False
        page.used_since_arrival = True
        self.fast.set(page.vpage)
        if is_write:
            page.dirty = True
            page.version += 1
        self.ring.insert(page)
        if self.bitvector is not None:
            self.bitvector.set(page.vpage)

    def _check_binding_staleness(self, page) -> None:
        """Figure-1 check: was the page written since its binding copy?"""
        bound = self._bound_versions.pop(page.vpage, None)
        if bound is None:
            return
        if page.version != bound:
            self.stats.prefetch.binding_stale += 1

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
        fetched: list[Page] = []
        for target in range(vpage + 1, min(vpage + window, last_page) + 1):
            page = self.page_of(target)
            if page.state != PageState.ON_DISK or not self._try_frame_for_prefetch():
                break
            self._begin_transit(page)
            fetched.append(page)
        if fetched:
            self._read_run(fetched, "readahead")
            self.stats.prefetch.readahead_pages += len(fetched)
            # The stream's next *fault* lands just past the window; treat
            # it as continuing the run (the window position is part of
            # the per-stream state, as in real readahead implementations).
            self._ra_state[ext.name] = (fetched[-1].vpage + 1, run)

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

    def _begin_transit(self, page: Page) -> None:
        """ON_DISK -> IN_TRANSIT for a prefetch that got a frame.

        The page cannot settle until :meth:`_read_run` issues its read
        and records the real completion time.
        """
        page.state = PageState.IN_TRANSIT
        page.via_prefetch = True
        page.used_since_arrival = False
        page.prefetched_pending = True
        page.arrival_us = float("inf")
        self._in_transit[page.vpage] = page
        if self.bitvector is not None:
            self.bitvector.set(page.vpage)

    def _read_run(self, run: list[Page], tag: str = "") -> None:
        """Issue one prefetch read for a contiguous run of transit pages."""
        start = run[0].vpage
        now = self.clock.now
        # The run is contiguous from start, so each completion addresses
        # its page directly.
        for vpage, done in self.disks.read_run(start, len(run), now,
                                               IOKind.PREFETCH):
            run[vpage - start].arrival_us = done
        if self.obs is not None:
            self.obs.emit(now, TraceKind.PREFETCH_ISSUED, start, len(run),
                          tag=tag)

    def _prefetch_pages(self, start_vpage: int, npages: int) -> None:
        clock = self.clock
        pstats = self.stats.prefetch
        pstats.issued_calls += 1
        pstats.issued_pages += npages
        self._replenish_free_pool()

        # Gather contiguous sub-runs of fetchable pages so each becomes one
        # (mostly sequential) disk request per disk.
        run: list[Page] = []

        def flush_run() -> None:
            if run:
                self._read_run(run)
                pstats.disk_reads += len(run)
                run.clear()

        page_of = self.page_of
        binding = self.binding
        obs = self.obs
        bitvector = self.bitvector
        try_frame = self._try_frame_for_prefetch
        for vpage in range(start_vpage, start_vpage + npages):
            page = page_of(vpage)
            state = page.state
            if state == PageState.FREELIST:
                # Let due daemon/pressure work steal the frame now if it
                # is going to; re-dispatch on the refreshed state.
                self._tick_free()
                state = page.state
            if binding:
                # An explicit asynchronous read() copies the value of
                # every requested page at issue time, resident or not.
                self._bound_versions[vpage] = page.version
            if state == PageState.RESIDENT:
                pstats.unnecessary_issued += 1
                if obs is not None:
                    obs.emit(clock.now, TraceKind.PREFETCH_UNNECESSARY,
                             vpage, tag="resident")
                flush_run()
            elif state == PageState.IN_TRANSIT:
                pstats.in_transit += 1
                if obs is not None:
                    obs.emit(clock.now, TraceKind.PREFETCH_UNNECESSARY,
                             vpage, tag="in_transit")
                flush_run()
            elif state == PageState.FREELIST:
                if not self.frames.reclaim(vpage):
                    raise MachineError(
                        f"page {vpage} on FREELIST but missing from the pool"
                    )
                self._tick_free()
                page.state = PageState.RESIDENT
                page.via_prefetch = True
                page.used_since_arrival = False
                page.arrival_us = clock.now
                self.ring.insert(page)
                if bitvector is not None:
                    bitvector.set(vpage)
                pstats.reclaimed += 1
                if obs is not None:
                    obs.emit(clock.now, TraceKind.PREFETCH_RECLAIMED, vpage)
                flush_run()
            else:  # ON_DISK
                page.prefetched_pending = True
                if try_frame():
                    self._begin_transit(page)
                    run.append(page)
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
        pages_get = self.pages.get
        tick_free = self._tick_free
        ring_forget = self.ring.forget
        fast_clear = self.fast.clear
        add_to_freelist = self.frames.add_to_freelist
        bitvector = self.bitvector
        for vpage in vpages:
            page = pages_get(vpage)
            if page is None or page.state != PageState.RESIDENT:
                rstats.noop += 1
                continue
            # Account free time *before* the transition: _tick_free may
            # reentrantly run the page-out daemon / pressure events, which
            # must never observe the page half-moved (state changed but
            # not yet on the pool's free list) -- and which may evict this
            # very page, so the residency check repeats afterwards.
            tick_free()
            if page.state != PageState.RESIDENT:
                rstats.noop += 1
                continue
            if page.dirty:
                self.disks.write_page(vpage, clock.now)
                rstats.writebacks += 1
                writebacks += 1
                page.dirty = False
            ring_forget(page)
            page.state = PageState.FREELIST
            page.via_prefetch = False
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
        for vpage in vpages:
            page = self.page_of(vpage)
            if page.state != PageState.ON_DISK:
                continue
            self._tick_free()
            if not self.frames.take_fresh():
                raise MachineError("warm_load exceeds available memory")
            self._map(page, False)

    def flush_dirty(self) -> None:
        """Write back every dirty resident page and wait for the disks.

        Models the paper's modification of the benchmarks to "write their
        results back out to disk" (Section 3.2); charged identically to the
        original and prefetching versions.
        """
        for page in self.pages.values():
            if page.state == PageState.RESIDENT and page.dirty:
                self.disks.write_page(page.vpage, self.clock.now)
                page.dirty = False
        self.clock.wait_until(self.disks.drain_time(), TimeCategory.STALL_FLUSH)
        self.finalize_accounting()
