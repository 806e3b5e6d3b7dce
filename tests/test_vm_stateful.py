"""Stateful property tests: the VM under arbitrary operation sequences.

Hypothesis drives random interleavings of accesses (through both
``access`` and the co-scheduler's ``access_async``), prefetches, releases,
time advances, and multiprogramming pressure against one MemoryManager and
checks the global invariants after every step:

* frame conservation (fresh + freelist + in-use + reserved == total);
* the resident page count equals the in-use frame count;
* freelist contents are exactly the FREELIST-state pages;
* the in-transit map's keys are exactly the IN_TRANSIT pages;
* the clock ring's live entries are exactly the RESIDENT pages;
* the shared bit vector never claims a never-resident page;
* the fast-access mask flags exactly the pages the chunk kernel and the
  scalar loop may touch without the manager;
* a resident prefetched page not yet used arrived no later than now;
* simulated time never runs backwards.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.config import PlatformConfig
from repro.runtime.layer import RuntimeLayer
from repro.sim.clock import Clock, TimeCategory
from repro.sim.stats import RunStats
from repro.storage.array_ctl import DiskArray
from repro.vm.manager import MemoryManager
from repro.vm.page import PageState

PAGES = st.integers(1, 60)


class VMStateMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.config = PlatformConfig(
            memory_pages=16, available_fraction=1.0, num_disks=3,
            free_target_fraction=0.1,
        )
        self.clock = Clock()
        self.stats = RunStats()
        self.disks = DiskArray(self.config)
        self.disks.register_segment("x", base_vpage=1, npages=60)
        self.manager = MemoryManager(self.config, self.clock, self.disks, self.stats)
        self.layer = RuntimeLayer(
            self.config, self.clock, self.manager, self.stats
        )
        self.last_now = 0.0
        self.pressure_outstanding = 0

    def _pages(self, state: PageState) -> set[int]:
        """The created pages in ``state``, read off the state column."""
        cols = self.manager.cols
        return {v for v in cols.order if cols.state[v] == state}

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(vpage=PAGES, write=st.booleans())
    def access(self, vpage: int, write: bool) -> None:
        self.manager.access(vpage, write)

    @rule(vpage=PAGES, write=st.booleans())
    def access_async(self, vpage: int, write: bool) -> None:
        self.manager.access_async(vpage, write)

    @rule(vpage=PAGES, npages=st.integers(1, 6))
    def prefetch(self, vpage: int, npages: int) -> None:
        npages = min(npages, 60 - vpage + 1)
        self.layer.prefetch(vpage, npages)

    @rule(vpage=PAGES, count=st.integers(1, 4))
    def release(self, vpage: int, count: int) -> None:
        pages = [v for v in range(vpage, vpage + count) if v <= 60]
        self.layer.release(pages)

    @rule(vpage=PAGES, npages=st.integers(1, 4), rel=PAGES)
    def prefetch_release(self, vpage: int, npages: int, rel: int) -> None:
        npages = min(npages, 60 - vpage + 1)
        self.layer.prefetch_release(vpage, npages, [rel])

    @rule(us=st.floats(1.0, 50_000.0))
    def advance_time(self, us: float) -> None:
        self.clock.advance(us, TimeCategory.USER_COMPUTE)

    @rule(frames=st.integers(1, 4), duration=st.floats(10.0, 10_000.0))
    def pressure(self, frames: int, duration: float) -> None:
        if self.pressure_outstanding + frames > 8:
            return  # keep some memory for the application
        self.manager.schedule_pressure(self.clock.now, frames, duration)
        self.pressure_outstanding += frames
        # Durations expire as time advances; conservatively track the max.

    @rule()
    def flush_like_settle(self) -> None:
        self.manager._settle_arrived()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def frames_conserved(self) -> None:
        if not hasattr(self, "manager"):
            return
        self.manager.frames.check_invariant()

    @invariant()
    def resident_matches_in_use(self) -> None:
        if not hasattr(self, "manager"):
            return
        resident = (len(self._pages(PageState.RESIDENT))
                    + len(self._pages(PageState.IN_TRANSIT)))
        assert resident == self.manager.frames.in_use, (
            resident, self.manager.frames.in_use
        )

    @invariant()
    def freelist_matches_states(self) -> None:
        if not hasattr(self, "manager"):
            return
        on_freelist = self._pages(PageState.FREELIST)
        assert on_freelist == set(self.manager.frames.freelist), (
            on_freelist, set(self.manager.frames.freelist)
        )

    @invariant()
    def in_transit_tracked(self) -> None:
        if not hasattr(self, "manager"):
            return
        in_transit = self._pages(PageState.IN_TRANSIT)
        assert in_transit == set(self.manager._in_transit)

    @invariant()
    def ring_live_entries_are_resident_pages(self) -> None:
        if not hasattr(self, "manager"):
            return
        ring = self.manager.ring
        tokens = self.manager.cols.ring_token
        live = [v for v, token in ring._ring if tokens[v] == token]
        assert len(live) == len(set(live)) == ring.live_count
        assert set(live) == self._pages(PageState.RESIDENT)

    @invariant()
    def bitvector_never_claims_on_disk_unprefetched(self) -> None:
        if not hasattr(self, "manager"):
            return
        cols = self.manager.cols
        for vpage in self._pages(PageState.ON_DISK):
            if not cols.prefetched_pending[vpage]:
                assert not self.layer.bitvector.test(vpage), vpage

    @invariant()
    def fast_mask_matches_predicate(self) -> None:
        if not hasattr(self, "manager"):
            return
        cols = self.manager.cols
        fast = {
            vpage for vpage in self._pages(PageState.RESIDENT)
            if cols.used_since_arrival[vpage] or not cols.via_prefetch[vpage]
        }
        flagged = {v for v, bit in enumerate(self.manager.fast.bits) if bit}
        assert flagged == fast, (flagged ^ fast)

    @invariant()
    def unused_prefetched_pages_have_arrived(self) -> None:
        if not hasattr(self, "manager"):
            return
        cols = self.manager.cols
        for vpage in self._pages(PageState.RESIDENT):
            if cols.via_prefetch[vpage] and not cols.used_since_arrival[vpage]:
                assert cols.arrival_us[vpage] <= self.clock.now, vpage

    @invariant()
    def time_monotonic(self) -> None:
        if not hasattr(self, "manager"):
            return
        assert self.clock.now >= self.last_now
        self.last_now = self.clock.now


TestVMStateMachine = VMStateMachine.TestCase
TestVMStateMachine.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)
