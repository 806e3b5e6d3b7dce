"""Tests for the Machine facade and its chunked execution hot path."""

import pytest

from repro.config import PlatformConfig
from repro.errors import MachineError
from repro.machine.events import PREFETCH, READ, RELEASE, WRITE
from repro.machine.machine import Machine


def small_machine(prefetching=True, runtime_filter=True, frames=16):
    cfg = PlatformConfig(memory_pages=frames, available_fraction=1.0, num_disks=2)
    m = Machine(cfg, prefetching=prefetching, runtime_filter=runtime_filter)
    m.map_segment("x", 1000 * cfg.page_size)
    return m


def vp(machine, index=0):
    """First virtual page of segment x, plus an offset."""
    seg = machine.address_space.segment("x")
    return seg.base // machine.config.page_size + index


class TestMachineBasics:
    def test_map_segment_registers_extent(self):
        m = small_machine()
        # A read through the disk array must find a backing extent.
        m.access(vp(m), False)
        assert m.disks.reads_fault == 1

    def test_compute_accumulates_user_time(self):
        m = small_machine()
        m.compute(123.0)
        assert m.clock.now == 123.0

    def test_hints_ignored_without_prefetching(self):
        m = small_machine(prefetching=False)
        m.prefetch(vp(m), 4)
        m.release([vp(m)])
        assert m.stats.prefetch.compiler_inserted == 0
        assert m.clock.now == 0.0

    def test_finish_flushes_and_freezes(self):
        m = small_machine()
        m.access(vp(m), True)
        stats = m.finish()
        assert stats.disk.writes == 1
        assert stats.elapsed_us == m.clock.now
        with pytest.raises(MachineError):
            m.finish()

    def test_warm_load_segment(self):
        cfg = PlatformConfig(memory_pages=64, available_fraction=1.0, num_disks=2)
        m = Machine(cfg)
        seg = m.map_segment("x", 10 * cfg.page_size)
        m.warm_load_segment(seg)
        m.access(seg.base // cfg.page_size, False)
        assert m.stats.faults.total_faults == 0


class TestRunChunk:
    def test_chunk_equals_scalar_sequence(self):
        """The chunked path must behave exactly like scalar calls."""
        pages = [vp_i for vp_i in range(0, 10)]
        m1 = small_machine()
        base = vp(m1)
        for p in pages:
            m1.compute(5.0)
            m1.access(base + p, p % 2 == 0)
        s1 = m1.finish()

        m2 = small_machine()
        base2 = vp(m2)
        kinds = [WRITE if p % 2 == 0 else READ for p in pages]
        m2.run_chunk(kinds, [base2 + p for p in pages], [5.0] * len(pages))
        s2 = m2.finish()

        assert s1.elapsed_us == pytest.approx(s2.elapsed_us)
        assert s1.faults.total_faults == s2.faults.total_faults
        assert s1.disk.total_requests == s2.disk.total_requests

    def test_chunk_prefetch_filtering(self):
        m = small_machine()
        base = vp(m)
        m.access(base, False)  # resident: bit set
        m.run_chunk([PREFETCH, PREFETCH], [base, base + 5], [0.0, 0.0])
        assert m.stats.prefetch.compiler_inserted == 2
        assert m.stats.prefetch.filtered == 1
        assert m.stats.prefetch.issued_calls == 1

    def test_chunk_release(self):
        m = small_machine()
        base = vp(m)
        m.access(base, False)
        m.run_chunk([RELEASE], [base], [0.0])
        assert m.stats.release.pages_released == 1

    def test_chunk_hits_are_batched(self):
        m = small_machine()
        base = vp(m)
        m.access(base, False)
        hits_before = m.stats.faults.hits
        m.run_chunk([READ] * 100, [base] * 100, [1.0] * 100)
        assert m.stats.faults.hits == hits_before + 100
        assert m.stats.faults.total_faults == 1  # only the initial fault

    def test_chunk_write_marks_dirty(self):
        m = small_machine()
        base = vp(m)
        m.access(base, False)
        m.run_chunk([WRITE], [base], [0.0])
        stats = m.finish()
        assert stats.disk.writes == 1

    def test_chunk_without_filter_issues_everything(self):
        m = small_machine(runtime_filter=False)
        base = vp(m)
        m.access(base, False)
        m.run_chunk([PREFETCH], [base], [0.0])
        assert m.stats.prefetch.filtered == 0
        assert m.stats.prefetch.unnecessary_issued == 1

    def test_chunk_mismatched_lists_rejected(self):
        m = small_machine()
        with pytest.raises(MachineError):
            m.run_chunk([READ], [1, 2], [0.0])

    @pytest.mark.parametrize("kind", [17, -1])
    def test_chunk_unknown_kind_rejected(self, kind):
        m = small_machine()
        with pytest.raises(MachineError):
            m.run_chunk([kind], [vp(m)], [0.0])

    def test_chunk_compute_time_preserved(self):
        m = small_machine()
        base = vp(m)
        m.access(base, False)
        t0 = m.clock.now
        m.run_chunk([READ] * 10, [base] * 10, [2.5] * 10)
        assert m.clock.now == pytest.approx(t0 + 25.0)

    def test_prefetch_time_overlaps_compute(self):
        """The whole point: compute proceeds while the disk works."""
        m = small_machine()
        base = vp(m)
        m.prefetch(base, 1)
        issue_done = m.clock.now
        m.compute(100_000.0)
        m.access(base, False)
        # No stall: the access time equals issue + compute.
        assert m.clock.now == pytest.approx(issue_done + 100_000.0)
        assert m.stats.faults.prefetched_hit == 1
