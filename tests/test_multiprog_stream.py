"""Unit tests for a co-scheduled process's operation stream: the
executor's steps, split by ``repro.multiprog.scheduler.operations``."""

import pytest

from repro.apps import synthetic
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.interp.executor import Executor
from repro.machine.machine import Machine
from repro.multiprog.scheduler import operations

CFG = PlatformConfig(memory_pages=128)


def bind(program, machine=None, name="p0"):
    """An executor bound the way ``CoScheduler.add_process`` binds one."""
    executor = Executor(machine or Machine(CFG))
    executor.bind(program, prefix=f"{name}:")
    return executor


def ops(executor, program):
    return list(operations(executor.steps(program)))


def compiled(program):
    return insert_prefetches(program, CompilerOptions.from_platform(CFG)).program


class TestStreamContents:
    def test_stream_yields_page_events(self):
        program = synthetic.stream(4 * 512, cost_us=2.0)
        events = ops(bind(program), program)
        accesses = [e for e in events if e[0] == "event" and e[1] <= 1]
        pages = {e[2] for e in accesses}
        assert len(pages) == 4  # one event per page after collapsing

    def test_compute_total_preserved(self):
        n = 3 * 512
        program = synthetic.stream(n, cost_us=2.0)
        total = 0.0
        for ev in ops(bind(program), program):
            if ev[0] == "compute":
                total += ev[1]
            elif ev[0] == "event":
                total += ev[3]
        assert total == pytest.approx(n * 2.0)

    def test_compiled_program_yields_hints(self):
        program = compiled(synthetic.stream(120_000, cost_us=8.0))
        kinds = {e[0] for e in ops(bind(program), program)}
        assert "prefetch" in kinds or "prefetch_release" in kinds

    def test_indirect_program_yields_single_page_prefetch_events(self):
        program = compiled(synthetic.gather(30_000, 120_000, cost_us=8.0))
        prefetch_events = [
            e for e in ops(bind(program), program)
            if e[0] == "event" and e[1] == 2
        ]
        assert prefetch_events

    def test_two_streams_share_space_without_collision(self):
        machine = Machine(CFG)
        p1 = synthetic.stream(2048, name="a")
        p2 = synthetic.stream(2048, name="a")
        pages1 = {e[2] for e in ops(bind(p1, machine, "p0"), p1)
                  if e[0] == "event"}
        pages2 = {e[2] for e in ops(bind(p2, machine, "p1"), p2)
                  if e[0] == "event"}
        assert pages1.isdisjoint(pages2)

    def test_hint_resolution_clamps(self):
        """Block hints arrive pre-clamped to the segment."""
        program = compiled(synthetic.stream(120_000, cost_us=8.0))
        executor = bind(program)
        seg_base, seg_bytes = executor._segments["x"]
        first = seg_base // CFG.page_size
        last = (seg_base + seg_bytes - 1) // CFG.page_size
        for ev in ops(executor, program):
            if ev[0] == "prefetch":
                assert first <= ev[1] <= last
                assert ev[1] + ev[2] - 1 <= last
            elif ev[0] == "prefetch_release":
                assert first <= ev[1] and ev[1] + ev[2] - 1 <= last
                assert all(first <= v <= last for v in ev[3])
