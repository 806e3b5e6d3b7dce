"""Tests for the run-time layer: bit vector and prefetch filtering."""

import pytest

from repro.config import PlatformConfig
from repro.errors import ConfigError
from repro.runtime.layer import RuntimeLayer
from repro.sim.clock import Clock, TimeCategory
from repro.sim.stats import RunStats
from repro.storage.array_ctl import DiskArray
from repro.vm.manager import MemoryManager
from repro.vm.residency import ResidencyBitVector


class TestBitVector:
    def test_set_test_clear(self):
        bv = ResidencyBitVector()
        assert not bv.test(5)
        bv.set(5)
        assert bv.test(5)
        bv.clear(5)
        assert not bv.test(5)

    def test_auto_grow(self):
        bv = ResidencyBitVector()
        bv.set(1_000_000)
        assert bv.test(1_000_000)
        assert not bv.test(999_999)

    def test_granularity_groups_pages(self):
        bv = ResidencyBitVector(granularity=4)
        bv.set(5)
        # Pages 4..7 share one bit.
        assert bv.test(4) and bv.test(7)
        assert not bv.test(8)
        bv.clear(6)
        assert not bv.test(5)

    def test_bad_granularity(self):
        with pytest.raises(ConfigError):
            ResidencyBitVector(granularity=0)


def make_layer(frames=16, filter_enabled=True):
    cfg = PlatformConfig(memory_pages=frames, available_fraction=1.0, num_disks=2)
    clock = Clock()
    stats = RunStats()
    disks = DiskArray(cfg)
    disks.register_segment("x", base_vpage=1, npages=1000)
    mgr = MemoryManager(cfg, clock, disks, stats)
    layer = RuntimeLayer(cfg, clock, mgr, stats, filter_enabled=filter_enabled)
    return layer, mgr, clock, stats, cfg


class TestRuntimeLayerFiltering:
    def test_registration_wires_bitvector_into_os(self):
        layer, mgr, _, _, _ = make_layer()
        assert mgr.bitvector is layer.bitvector
        mgr.access(1, False)  # OS sets the bit on a non-prefetched fault
        assert layer.bitvector.test(1)

    def test_resident_prefetch_filtered_without_syscall(self):
        layer, mgr, clock, stats, cfg = make_layer()
        mgr.access(1, False)
        before_sys = clock.spent(TimeCategory.SYS_PREFETCH)
        layer.prefetch(1, 1)
        assert stats.prefetch.filtered == 1
        assert stats.prefetch.issued_calls == 0
        assert clock.spent(TimeCategory.SYS_PREFETCH) == before_sys
        # Filtering costs roughly 1% of a system call (paper, 4.1.1).
        assert clock.spent(TimeCategory.USER_OVERHEAD) < cfg.cost.prefetch_syscall_us / 10

    def test_nonresident_prefetch_issued(self):
        layer, _, _, stats, _ = make_layer()
        layer.prefetch(1, 1)
        assert stats.prefetch.issued_calls == 1
        assert stats.prefetch.disk_reads == 1

    def test_block_scan_skips_leading_residents(self):
        layer, mgr, _, stats, _ = make_layer()
        mgr.access(1, False)
        mgr.access(2, False)
        layer.prefetch(1, 4)  # pages 1,2 resident; 3,4 not
        assert stats.prefetch.filtered == 2
        assert stats.prefetch.issued_pages == 2
        assert stats.prefetch.issued_calls == 1  # at most one syscall

    def test_block_with_resident_tail_issues_rest(self):
        """Residents *after* the first miss still go to the OS (Sec. 2.4)."""
        layer, mgr, _, stats, _ = make_layer()
        mgr.access(2, False)
        layer.prefetch(1, 3)  # page 1 missing, 2 resident, 3 missing
        assert stats.prefetch.issued_pages == 3
        assert stats.prefetch.unnecessary_issued == 1

    def test_fully_resident_block_no_syscall(self):
        layer, mgr, _, stats, _ = make_layer()
        for v in (1, 2, 3, 4):
            mgr.access(v, False)
        layer.prefetch(1, 4)
        assert stats.prefetch.filtered == 4
        assert stats.prefetch.issued_calls == 0

    def test_disabled_filter_always_issues(self):
        layer, mgr, _, stats, _ = make_layer(filter_enabled=False)
        mgr.access(1, False)
        layer.prefetch(1, 1)
        assert stats.prefetch.filtered == 0
        assert stats.prefetch.issued_calls == 1
        assert stats.prefetch.unnecessary_issued == 1

    def test_release_clears_bit_so_prefetch_reissues(self):
        layer, mgr, _, stats, _ = make_layer()
        mgr.access(1, False)
        layer.release([1])
        assert not layer.bitvector.test(1)
        layer.prefetch(1, 1)
        assert stats.prefetch.issued_calls == 1
        assert stats.prefetch.reclaimed == 1

    def test_eviction_clears_bit(self):
        layer, mgr, _, _, _ = make_layer(frames=2)
        mgr.access(1, False)
        mgr.access(2, False)
        mgr.access(3, False)  # evicts one of 1/2
        evicted = 1 if not layer.bitvector.test(1) else 2
        assert not layer.bitvector.test(evicted)

    def test_prefetch_sets_bit_at_issue(self):
        layer, _, _, _, _ = make_layer()
        layer.prefetch(5, 1)
        assert layer.bitvector.test(5)


class TestBundledPrefetchRelease:
    def test_bundle_pays_one_syscall(self):
        layer, mgr, clock, stats, cfg = make_layer()
        mgr.access(1, False)
        before = clock.spent(TimeCategory.SYS_PREFETCH) + clock.spent(
            TimeCategory.SYS_RELEASE
        )
        layer.prefetch_release(5, 2, [1])
        total = clock.spent(TimeCategory.SYS_PREFETCH) + clock.spent(
            TimeCategory.SYS_RELEASE
        )
        # One syscall overhead, not two.
        assert total - before < cfg.cost.prefetch_syscall_us + cfg.cost.release_syscall_us

    def test_bundle_releases_before_prefetching(self):
        """Released frames must be available to the bundled prefetch."""
        layer, mgr, _, stats, _ = make_layer(frames=2)
        mgr.access(1, False)
        mgr.access(2, False)
        layer.prefetch_release(3, 2, [1, 2])
        assert stats.prefetch.dropped == 0
        assert stats.prefetch.disk_reads == 2

    def test_fully_filtered_bundle_still_releases(self):
        layer, mgr, _, stats, _ = make_layer()
        for v in (1, 2, 3):
            mgr.access(v, False)
        layer.prefetch_release(2, 2, [1])
        assert stats.prefetch.filtered == 2
        assert stats.release.pages_released == 1
