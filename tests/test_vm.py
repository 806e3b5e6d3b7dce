"""Tests for the VM substrate: frames, clock ring, the columnar page
store, and the memory manager."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import PlatformConfig
from repro.errors import MachineError
from repro.sim.clock import Clock, TimeCategory
from repro.sim.stats import RunStats
from repro.storage.array_ctl import DiskArray
from repro.vm.frames import FramePool
from repro.vm.manager import AccessOutcome, MemoryManager
from repro.vm.page import COLUMNS, PageColumns, PageState
from repro.vm.page_table import AddressSpace
from repro.vm.replacement import ClockRing
from repro.vm.residency import ResidencyBitVector


class TestAddressSpace:
    def test_segments_are_page_aligned_and_disjoint(self):
        space = AddressSpace(4096)
        a = space.map_segment("a", 10_000)
        b = space.map_segment("b", 5_000)
        assert a.base % 4096 == 0
        assert b.base % 4096 == 0
        assert b.base >= a.base + a.npages * 4096

    def test_guard_page_between_segments(self):
        space = AddressSpace(4096)
        a = space.map_segment("a", 4096)
        b = space.map_segment("b", 4096)
        assert b.base - (a.base + a.nbytes) >= 4096

    def test_duplicate_name_rejected(self):
        space = AddressSpace(4096)
        space.map_segment("a", 100)
        with pytest.raises(MachineError):
            space.map_segment("a", 100)

    def test_zero_page_never_mapped(self):
        space = AddressSpace(4096)
        seg = space.map_segment("a", 100)
        assert seg.base >= 4096


class TestFramePool:
    def test_take_fresh_until_exhausted(self):
        pool = FramePool(3)
        assert pool.take_fresh()
        assert pool.take_fresh()
        assert pool.take_fresh()
        assert not pool.take_fresh()
        pool.check_invariant()

    def test_freelist_reclaim(self):
        pool = FramePool(2)
        pool.take_fresh()
        pool.add_to_freelist(42)
        assert pool.reclaim(42)
        assert not pool.reclaim(42)
        pool.check_invariant()

    def test_steal_is_fifo(self):
        pool = FramePool(3)
        for _ in range(3):
            pool.take_fresh()
        pool.add_to_freelist(1)
        pool.add_to_freelist(2)
        assert pool.steal_from_freelist() == 1
        assert pool.steal_from_freelist() == 2
        assert pool.steal_from_freelist() is None
        pool.check_invariant()

    def test_free_count(self):
        pool = FramePool(4)
        pool.take_fresh()
        pool.take_fresh()
        pool.add_to_freelist(7)
        assert pool.free_count == 3  # 2 fresh + 1 freelist

    def test_double_freelist_rejected(self):
        pool = FramePool(2)
        pool.take_fresh()
        pool.add_to_freelist(7)
        with pytest.raises(MachineError):
            pool.add_to_freelist(7)

    @given(st.lists(st.sampled_from(["take", "free", "steal", "surrender"]), max_size=50))
    def test_frames_conserved_under_any_sequence(self, ops):
        pool = FramePool(5)
        next_page = 0
        held = 0
        for op in ops:
            if op == "take":
                if pool.take_fresh():
                    held += 1
            elif op == "free" and held:
                pool.add_to_freelist(next_page)
                next_page += 1
                held -= 1
            elif op == "steal":
                if pool.steal_from_freelist() is not None:
                    held += 1
            elif op == "surrender" and held:
                pool.surrender()
                held -= 1
            pool.check_invariant()


class TestClockRing:
    def _ring(self, n):
        """A ring over a fresh store whose pages 0..n-1 are resident."""
        cols = PageColumns()
        for vpage in range(n):
            cols.state[vpage] = PageState.RESIDENT
        return ClockRing(cols), cols

    def test_victim_is_oldest_unreferenced(self):
        ring, _ = self._ring(3)
        for vpage in range(3):
            ring.insert(vpage)
        # All inserted with ref bits set: first sweep clears, second evicts
        # the first-inserted page.
        victim = ring.select_victim()
        assert victim == 0

    def test_referenced_page_survives_one_sweep(self):
        ring, cols = self._ring(2)
        ring.insert(0)
        ring.insert(1)
        cols.ref[0] = 1
        cols.ref[1] = 0
        assert ring.select_victim() == 1

    def test_forget_makes_entry_stale(self):
        ring, cols = self._ring(2)
        ring.insert(0)
        ring.insert(1)
        ring.forget(0)
        cols.state[0] = PageState.FREELIST
        assert ring.select_victim() == 1

    def test_empty_ring(self):
        assert ClockRing(PageColumns()).select_victim() is None

    def test_second_chance_order(self):
        ring, cols = self._ring(4)
        for vpage in range(4):
            ring.insert(vpage)
        # Touch page 0 again right before eviction: it survives, page 1 goes.
        first = ring.select_victim()
        assert first == 0
        cols.ref[1] = 1
        second = ring.select_victim()
        assert second == 2


class TestColumnarStore:
    """Every numpy view is its buffer's memory, through growth and
    pickling, so the kernel's bulk scatters and the scalar paths' item
    writes land in one store."""

    @staticmethod
    def _assert_views_share(cols):
        for name in COLUMNS:
            view = getattr(cols, f"{name}_view")
            buffer = np.frombuffer(getattr(cols, name), view.dtype)
            assert np.shares_memory(view, buffer), name
            assert len(view) == cols.capacity, name

    def test_views_survive_growth_and_pickling(self):
        cols = PageColumns(capacity=4)
        cols.create(2)
        cols.ring_token[2] = 7
        cols.arrival_us[2] = 1.5
        self._assert_views_share(cols)
        cols.ensure(100)
        assert cols.capacity > 100
        assert cols.ring_token[2] == 7 and cols.arrival_us[2] == 1.5
        self._assert_views_share(cols)
        cols.create(50)
        restored = pickle.loads(pickle.dumps(cols))
        self._assert_views_share(restored)
        assert list(restored.order) == [2, 50] and restored.top == 51
        assert restored.ring_token[2] == 7 and restored.arrival_us[2] == 1.5
        # A scatter through a view is visible through the item accessor.
        restored.ring_token_view[[2, 50]] += 1
        restored.ref_view[[2, 50]] = 1
        assert (restored.ring_token[2], restored.ring_token[50]) == (8, 1)
        assert restored.ref[2] == restored.ref[50] == 1

    def test_pickle_stops_at_the_highest_created_page(self):
        small, large = PageColumns(), PageColumns()
        for cols in (small, large):
            cols.create(3)
            cols.dirty[3] = 1
        large.ensure(50_000)
        assert pickle.dumps(small) == pickle.dumps(large)
        assert len(pickle.dumps(large)) < 300

    def test_bit_vector_views_survive_growth_and_pickling(self):
        bits = ResidencyBitVector()
        bits.set(3)
        bits.set(9)
        bits.clear(9)
        bits.reserve(5_000)
        assert np.shares_memory(bits.raw, np.frombuffer(bits.bits, np.uint8))
        restored = pickle.loads(pickle.dumps(bits))
        assert np.shares_memory(restored.raw,
                                np.frombuffer(restored.bits, np.uint8))
        assert restored.test(3) and not restored.test(9)
        assert restored.drops == bits.drops == 1
        assert not restored.test(4_000)
        restored.reserve(4_000)
        assert np.shares_memory(restored.raw,
                                np.frombuffer(restored.bits, np.uint8))
        # A scatter through the view is visible through the byte accessor.
        restored.raw[[7, 4_000]] = 1
        assert restored.test(7) and restored.test(4_000)
        assert restored.bits[4_000] == 1


def make_manager(frames=8, num_disks=2):
    cfg = PlatformConfig(
        memory_pages=frames,
        available_fraction=1.0,
        num_disks=num_disks,
    )
    clock = Clock()
    stats = RunStats()
    disks = DiskArray(cfg)
    disks.register_segment("x", base_vpage=1, npages=1000)
    return MemoryManager(cfg, clock, disks, stats), clock, stats, cfg


class TestManagerFaults:
    def test_first_access_is_nonprefetched_fault(self):
        mgr, clock, stats, _ = make_manager()
        outcome = mgr.access(1, is_write=False)
        assert outcome is AccessOutcome.NONPREFETCHED_FAULT
        assert stats.faults.nonprefetched_fault == 1
        assert clock.stall_time() > 0

    def test_second_access_is_hit(self):
        mgr, clock, stats, _ = make_manager()
        mgr.access(1, False)
        before = clock.now
        assert mgr.access(1, False) is AccessOutcome.HIT
        assert clock.now == before  # hits are free

    def test_write_marks_dirty(self):
        mgr, _, _, _ = make_manager()
        mgr.access(1, is_write=True)
        assert mgr.cols.dirty[1]

    def test_eviction_when_full(self):
        mgr, _, stats, _ = make_manager(frames=2)
        mgr.access(1, False)
        mgr.access(2, False)
        mgr.access(3, False)
        assert stats.memory.evictions == 1
        states = [mgr.state_of(v) for v in (1, 2, 3)]
        assert states.count(PageState.RESIDENT) == 2

    def test_dirty_eviction_writes_back(self):
        mgr, _, stats, _ = make_manager(frames=1)
        mgr.access(1, is_write=True)
        mgr.access(2, False)
        assert stats.memory.eviction_writebacks == 1
        assert mgr.disks.writes == 1

    def test_clock_gives_second_chance_to_touched_pages(self):
        mgr, _, _, _ = make_manager(frames=3)
        mgr.access(1, False)
        mgr.access(2, False)
        mgr.access(3, False)
        # First eviction sweeps all reference bits and takes the oldest.
        mgr.access(4, False)
        assert mgr.state_of(1) == PageState.ON_DISK
        # Page 2's bit was cleared by the sweep; touching it again sets it,
        # so the next eviction skips 2 and takes 3.
        mgr.access(2, False)
        mgr.access(5, False)
        assert mgr.state_of(3) == PageState.ON_DISK
        assert mgr.state_of(2) == PageState.RESIDENT


class TestManagerPrefetch:
    def test_prefetch_then_access_is_hidden(self):
        mgr, clock, stats, _ = make_manager()
        mgr.prefetch_call(1, 1)
        clock.advance(100_000.0, TimeCategory.USER_COMPUTE)
        outcome = mgr.access(1, False)
        assert outcome is AccessOutcome.PREFETCHED_HIT
        assert stats.faults.prefetched_hit == 1
        assert clock.stall_time() == 0.0

    def test_access_catching_up_stalls_partially(self):
        mgr, clock, stats, cfg = make_manager()
        mgr.prefetch_call(1, 1)
        outcome = mgr.access(1, False)
        assert outcome is AccessOutcome.PREFETCHED_FAULT
        # Stall is less than a full fault would have been.
        assert 0 < clock.stall_time() < cfg.disk.random_service_us(1)

    def test_prefetch_dropped_when_memory_full(self):
        mgr, _, stats, _ = make_manager(frames=2)
        mgr.access(1, False)
        mgr.access(2, False)
        mgr.prefetch_call(3, 1)
        assert stats.prefetch.dropped == 1
        assert mgr.state_of(3) == PageState.ON_DISK
        assert mgr.cols.prefetched_pending[3]

    def test_dropped_prefetch_fault_classified_prefetched(self):
        mgr, _, stats, _ = make_manager(frames=2)
        mgr.access(1, False)
        mgr.access(2, False)
        mgr.prefetch_call(3, 1)
        outcome = mgr.access(3, False)
        assert outcome is AccessOutcome.PREFETCHED_FAULT

    def test_prefetch_resident_is_unnecessary(self):
        mgr, _, stats, _ = make_manager()
        mgr.access(1, False)
        mgr.prefetch_call(1, 1)
        assert stats.prefetch.unnecessary_issued == 1

    def test_prefetch_in_transit_ignored(self):
        mgr, _, stats, _ = make_manager()
        mgr.prefetch_call(1, 1)
        mgr.prefetch_call(1, 1)
        assert stats.prefetch.in_transit == 1
        assert stats.prefetch.disk_reads == 1

    def test_prefetch_never_evicts(self):
        mgr, _, stats, _ = make_manager(frames=2)
        mgr.access(1, False)
        mgr.access(2, False)
        mgr.prefetch_call(3, 4)
        assert stats.memory.evictions == 0
        assert stats.prefetch.dropped == 4

    def test_block_prefetch_reads_in_parallel(self):
        mgr, clock, stats, cfg = make_manager(frames=8, num_disks=4)
        mgr.prefetch_call(1, 4)
        arrivals = {mgr.cols.arrival_us[v] for v in range(1, 5)}
        # Four pages across four disks: all finish within one service time.
        assert max(arrivals) <= cfg.disk.random_service_us(1) + clock.now


class TestManagerRelease:
    def test_release_moves_to_freelist(self):
        mgr, _, stats, _ = make_manager()
        mgr.access(1, False)
        mgr.release_call([1])
        assert mgr.state_of(1) == PageState.FREELIST
        assert stats.release.pages_released == 1

    def test_release_dirty_schedules_writeback(self):
        mgr, _, stats, _ = make_manager()
        mgr.access(1, is_write=True)
        mgr.release_call([1])
        assert stats.release.writebacks == 1
        assert mgr.disks.writes == 1
        assert not mgr.cols.dirty[1]

    def test_release_nonresident_is_noop(self):
        mgr, _, stats, _ = make_manager()
        mgr.release_call([5])
        assert stats.release.noop == 1

    def test_released_page_reclaimable(self):
        mgr, clock, stats, _ = make_manager()
        mgr.access(1, False)
        mgr.release_call([1])
        outcome = mgr.access(1, False)
        assert outcome is AccessOutcome.RECLAIM
        assert mgr.disks.reads_fault == 1  # no second disk read

    def test_prefetch_of_released_page_reclaims(self):
        mgr, _, stats, _ = make_manager()
        mgr.access(1, False)
        mgr.release_call([1])
        mgr.prefetch_call(1, 1)
        assert stats.prefetch.reclaimed == 1
        assert mgr.access(1, False) is AccessOutcome.PREFETCHED_HIT

    def test_freed_frames_feed_faults(self):
        mgr, _, stats, _ = make_manager(frames=2)
        mgr.access(1, False)
        mgr.access(2, False)
        mgr.release_call([1])
        mgr.access(3, False)
        assert stats.memory.evictions == 0  # took the free-list frame
        assert mgr.state_of(1) == PageState.ON_DISK  # contents discarded

    def test_bundled_prefetch_release_frees_then_fetches(self):
        mgr, _, stats, _ = make_manager(frames=2)
        mgr.access(1, False)
        mgr.access(2, False)
        mgr.prefetch_release_call(3, 1, [1])
        # Release of page 1 freed the frame the prefetch then used.
        assert stats.prefetch.dropped == 0
        assert stats.prefetch.disk_reads == 1
        assert mgr.state_of(3) == PageState.IN_TRANSIT


class TestManagerAccounting:
    def test_free_integral_tracks_usage(self):
        mgr, clock, stats, _ = make_manager(frames=4)
        clock.advance(100.0, TimeCategory.USER_COMPUTE)
        mgr.access(1, False)
        clock.advance(100.0, TimeCategory.USER_COMPUTE)
        mgr.finalize_accounting()
        frac = stats.memory.avg_free_fraction(clock.now)
        assert 0.0 < frac <= 1.0

    def test_warm_load(self):
        mgr, clock, stats, _ = make_manager(frames=4)
        mgr.warm_load([1, 2, 3])
        assert all(mgr.state_of(v) == PageState.RESIDENT for v in (1, 2, 3))
        assert clock.now == 0.0
        assert mgr.access(1, False) is AccessOutcome.HIT

    def test_warm_load_overflow_rejected(self):
        mgr, _, _, _ = make_manager(frames=2)
        with pytest.raises(MachineError):
            mgr.warm_load([1, 2, 3])

    def test_flush_writes_dirty_pages(self):
        mgr, clock, _, _ = make_manager()
        mgr.access(1, True)
        mgr.access(2, False)
        mgr.flush_dirty()
        assert mgr.disks.writes == 1
        assert clock.spent(TimeCategory.STALL_FLUSH) > 0

    def test_issued_pages_partition_into_their_outcomes(self):
        """Every issued prefetch page has exactly one outcome: already
        resident, read already in flight, reclaimed, dropped, or a disk
        read started -- for every app and prefetching variant, clean and
        faulted."""
        from repro.apps.registry import ALL_APPS
        from repro.config import VARIANTS
        from repro.faults import default_plan
        from repro.harness.experiment import build_variant, run_variant

        platform = PlatformConfig(memory_pages=128)
        plan = default_plan(platform.num_disks, seed=1)
        for spec in ALL_APPS:
            program = build_variant(spec, platform, "p", 192)
            for variant in ("p", "nofilter", "adaptive"):
                for fault_plan in (None, plan):
                    p = run_variant(program, platform, fault_plan=fault_plan,
                                    **VARIANTS[variant]).prefetch
                    where = (spec.name, variant, fault_plan is not None)
                    assert p.issued_pages > 0, where
                    assert p.issued_pages == (
                        p.unnecessary_issued + p.in_transit + p.reclaimed
                        + p.dropped + p.disk_reads), where
