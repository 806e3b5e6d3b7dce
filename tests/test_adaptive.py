"""Tests for adaptive prefetch suppression (the Section 4.3.1 extension)."""

import pytest

from repro.apps.registry import get_app
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.harness.experiment import compare_app, run_variant
from repro.machine.machine import Machine
from repro.runtime.layer import SUPPRESS_AFTER, SUPPRESS_SPAN


def layer_machine(frames=64):
    cfg = PlatformConfig(memory_pages=frames, available_fraction=1.0, num_disks=2)
    m = Machine(cfg, prefetching=True, adaptive_prefetch=True)
    m.map_segment("x", 4000 * cfg.page_size)
    return m


def vp(machine):
    return machine.address_space.segment("x").base // machine.config.page_size


class TestSuppressionStateMachine:
    def test_engages_after_streak(self):
        m = layer_machine()
        base = vp(m)
        m.access(base, False)  # page resident: every prefetch filtered
        for _ in range(SUPPRESS_AFTER):
            m.prefetch(base, 1)
        before = m.stats.prefetch.suppressed
        m.prefetch(base, 1)
        m.prefetch(base, 1)
        assert m.stats.prefetch.suppressed > before

    def test_not_engaged_below_streak(self):
        m = layer_machine()
        base = vp(m)
        m.access(base, False)
        for _ in range(SUPPRESS_AFTER // 2):
            m.prefetch(base, 1)
        assert m.stats.prefetch.suppressed == 0

    def test_issue_resets_streak(self):
        m = layer_machine()
        base = vp(m)
        m.access(base, False)
        for _ in range(SUPPRESS_AFTER - 1):
            m.prefetch(base, 1)
        m.prefetch(base + 100, 1)  # non-resident: streak resets
        for _ in range(SUPPRESS_AFTER - 1):
            m.prefetch(base, 1)
        assert m.stats.prefetch.suppressed == 0

    def test_suppression_is_sampled(self):
        """Within a span, every 64th request still reaches the filter."""
        m = layer_machine()
        base = vp(m)
        m.access(base, False)
        for _ in range(SUPPRESS_AFTER):
            m.prefetch(base, 1)
        filtered_before = m.stats.prefetch.filtered
        for _ in range(640):
            m.prefetch(base, 1)
        sampled = m.stats.prefetch.filtered - filtered_before
        assert 5 <= sampled <= 15  # ~640/64

    def test_span_bounded(self):
        m = layer_machine()
        base = vp(m)
        m.access(base, False)
        for _ in range(SUPPRESS_AFTER + SUPPRESS_SPAN + 10):
            m.prefetch(base, 1)
        # After exhausting the span, the filter re-engages (the next
        # streak builds toward another suppression window).
        assert m.stats.prefetch.suppressed <= SUPPRESS_SPAN

    def test_disabled_by_default(self):
        cfg = PlatformConfig(memory_pages=64, available_fraction=1.0, num_disks=2)
        m = Machine(cfg, prefetching=True)
        m.map_segment("x", 100 * cfg.page_size)
        base = vp(m)
        m.access(base, False)
        for _ in range(SUPPRESS_AFTER + 10):
            m.prefetch(base, 1)
        assert m.stats.prefetch.suppressed == 0


class TestAdaptiveEndToEnd:
    def test_reduces_warm_incore_overhead(self):
        """The point of the extension: warm in-core BUK pays much less."""
        platform = PlatformConfig()
        spec = get_app("BUK")
        pages = int(platform.available_frames * 0.35)
        plain = compare_app(spec, platform, data_pages=pages, warm=True)
        adaptive = compare_app(
            spec, platform, data_pages=pages, warm=True, include_adaptive=True
        )
        ad = adaptive.extras["P-adaptive"].stats
        p = plain.prefetch.stats
        assert ad.prefetch.suppressed > 0
        assert ad.times.user_overhead < p.times.user_overhead * 0.5
        assert ad.elapsed_us < p.elapsed_us

    def test_out_of_core_performance_preserved(self):
        """Suppression must not engage while data is streaming from disk."""
        platform = PlatformConfig(memory_pages=128)
        spec = get_app("EMBAR")
        program = spec.make(2 * platform.available_frames)
        compiled = insert_prefetches(
            program, CompilerOptions.from_platform(platform)
        )
        plain = run_variant(compiled.program, platform, prefetching=True)
        program2 = spec.make(2 * platform.available_frames)
        compiled2 = insert_prefetches(
            program2, CompilerOptions.from_platform(platform)
        )
        adaptive = run_variant(
            compiled2.program, platform, prefetching=True,
            adaptive_prefetch=True,
        )
        assert adaptive.elapsed_us == pytest.approx(plain.elapsed_us, rel=0.05)

    def test_semantics_unchanged(self):
        """Suppressed hints change timing only, never faults vs hits."""
        platform = PlatformConfig(memory_pages=128)
        spec = get_app("BUK")
        pages = platform.available_frames // 3
        program = spec.make(pages)
        compiled = insert_prefetches(program, CompilerOptions.from_platform(platform))
        plain = run_variant(compiled.program, platform, prefetching=True, warm=True)
        adaptive = run_variant(
            compiled.program, platform, prefetching=True, warm=True,
            adaptive_prefetch=True,
        )
        assert plain.faults.total_faults == adaptive.faults.total_faults == 0
