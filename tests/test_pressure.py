"""Tests for the multiprogramming pressure extension."""

import pytest

from repro.apps.registry import get_app
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import MachineError
from repro.interp.executor import Executor
from repro.machine.machine import Machine
from repro.sim.clock import TimeCategory


def machine_with_segment(frames=32):
    cfg = PlatformConfig(memory_pages=frames, available_fraction=1.0, num_disks=2)
    m = Machine(cfg, prefetching=False)
    m.map_segment("x", 1000 * cfg.page_size)
    return m


def vp(machine):
    return machine.address_space.segment("x").base // machine.config.page_size


class TestPressureMechanics:
    def test_frames_reserved_at_deadline(self):
        m = machine_with_segment(frames=32)
        m.manager.schedule_pressure(at_us=1000.0, frames=10)
        m.compute(2000.0)
        m.access(vp(m), False)  # first memory op past the deadline
        assert m.manager.frames.reserved == 10
        m.manager.frames.check_invariant()

    def test_pressure_not_applied_early(self):
        m = machine_with_segment()
        m.manager.schedule_pressure(at_us=1_000_000.0, frames=10)
        m.access(vp(m), False)
        assert m.manager.frames.reserved == 0

    def test_competitor_exit_returns_frames(self):
        m = machine_with_segment(frames=32)
        m.manager.schedule_pressure(at_us=0.0, frames=10, duration_us=5000.0)
        m.access(vp(m), False)
        assert m.manager.frames.reserved == 10
        m.compute(10_000.0)
        m.access(vp(m) + 1, False)
        assert m.manager.frames.reserved == 0
        m.manager.frames.check_invariant()

    def test_pressure_evicts_resident_pages(self):
        m = machine_with_segment(frames=8)
        base = vp(m)
        for k in range(8):
            m.access(base + k, False)
        m.manager.schedule_pressure(at_us=m.clock.now, frames=4)
        m.access(base + 20, False)
        assert m.manager.frames.reserved == 4
        resident = sum(
            1 for v in m.manager.cols.order
            if m.manager.state_of(v).name == "RESIDENT"
        )
        assert resident <= 4
        m.manager.frames.check_invariant()

    def test_dirty_victims_written_back(self):
        m = machine_with_segment(frames=4)
        base = vp(m)
        for k in range(4):
            m.access(base + k, True)
        writes_before = m.disks.writes
        m.manager.schedule_pressure(at_us=m.clock.now, frames=3)
        m.access(base + 20, False)
        assert m.disks.writes > writes_before

    def test_invalid_pressure_rejected(self):
        m = machine_with_segment()
        with pytest.raises(MachineError):
            m.manager.schedule_pressure(at_us=0.0, frames=0)

    def test_events_applied_in_order(self):
        m = machine_with_segment(frames=32)
        m.manager.schedule_pressure(at_us=2000.0, frames=5)
        m.manager.schedule_pressure(at_us=1000.0, frames=3)
        m.compute(3000.0)
        m.access(vp(m), False)
        assert m.manager.frames.reserved == 8


class TestPressureEndToEnd:
    def _run(self, spec_name, pressure_fraction, prefetching, memory_multiple=2.0):
        platform = PlatformConfig(memory_pages=128)
        spec = get_app(spec_name)
        program = spec.make(max(8, int(memory_multiple * platform.available_frames)))
        if prefetching:
            compiled = insert_prefetches(
                program, CompilerOptions.from_platform(platform)
            )
            program = compiled.program
        machine = Machine(platform, prefetching=prefetching)
        if pressure_fraction:
            frames = int(platform.available_frames * pressure_fraction)
            # Competitor arrives early and stays for the whole run.
            machine.manager.schedule_pressure(at_us=1000.0, frames=frames)
        stats = Executor(machine).run(program)
        return stats

    def test_pressure_slows_the_original(self):
        """A working set that fits until the competitor arrives starts
        thrashing once half of memory disappears.  (A pure out-of-core
        stream would barely notice: it has no retained reuse to lose.)
        BUK re-reads its keys every ranking iteration, so the reuse is
        real."""
        calm = self._run("BUK", 0.0, prefetching=False, memory_multiple=0.6)
        pressured = self._run("BUK", 0.5, prefetching=False, memory_multiple=0.6)
        assert pressured.elapsed_us > 1.2 * calm.elapsed_us

    def test_prefetching_still_wins_under_pressure(self):
        """The paper's motivation for OS-arbitrated hints: the system
        adapts to dynamic resource availability (Sections 1.2, 6)."""
        o = self._run("EMBAR", 0.5, prefetching=False)
        p = self._run("EMBAR", 0.5, prefetching=True)
        assert p.elapsed_us < o.elapsed_us

    def test_release_app_degrades_less_under_pressure(self):
        """EMBAR's releases keep its footprint tiny, so losing half of
        memory barely hurts it -- the Table 3 claim, exercised."""
        calm = self._run("EMBAR", 0.0, prefetching=True)
        pressured = self._run("EMBAR", 0.5, prefetching=True)
        degradation = pressured.elapsed_us / calm.elapsed_us
        assert degradation < 1.3, degradation
