"""Tests for the experiment harness and the report renderers."""

import pytest

from repro.apps.registry import get_app
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.harness.experiment import compare_app, default_data_pages, run_variant
from repro.harness.report import ascii_bars, render_table, stacked_time_bar
from repro.sim.stats import TimeBreakdown

SMALL = PlatformConfig(memory_pages=96, available_fraction=0.75)


class TestExperiment:
    def test_default_data_pages_is_out_of_core(self):
        pages = default_data_pages(SMALL)
        assert pages == 2 * SMALL.available_frames

    def test_compare_app_prefetching_wins_out_of_core(self):
        result = compare_app(get_app("EMBAR"), SMALL)
        assert result.speedup > 1.2
        assert result.stall_eliminated > 0.5
        assert result.pass_result is not None

    def test_compare_app_nofilter_variant(self):
        result = compare_app(get_app("BUK"), SMALL, include_nofilter=True)
        assert "P-nofilter" in result.extras
        nf = result.extras["P-nofilter"].stats
        # Without the filter, nothing is filtered at user level.
        assert nf.prefetch.filtered == 0
        assert nf.prefetch.issued_pages >= result.prefetch.stats.prefetch.issued_pages

    def test_same_workload_for_o_and_p(self):
        """O and P must fault on the same data (identical index arrays)."""
        result = compare_app(get_app("BUK"), SMALL, seed=5)
        o = result.original.stats
        p = result.prefetch.stats
        # Reads that ultimately come from disk cover the same pages, so
        # total disk reads agree within the prefetch over-fetch margin.
        o_reads = o.disk.reads_fault
        p_reads = p.disk.reads_fault + p.disk.reads_prefetch
        assert abs(o_reads - p_reads) / o_reads < 0.25

    def test_warm_start_flag(self):
        spec = get_app("EMBAR")
        pages = SMALL.available_frames // 3
        cold = compare_app(spec, SMALL, data_pages=pages)
        warm = compare_app(spec, SMALL, data_pages=pages, warm=True)
        assert warm.original.elapsed_us < cold.original.elapsed_us

    def test_run_variant_standalone(self):
        program = get_app("EMBAR").make(32)
        stats = run_variant(program, SMALL, prefetching=False)
        assert stats.elapsed_us > 0
        assert stats.prefetch.compiler_inserted == 0

    def test_custom_compiler_options_respected(self):
        options = CompilerOptions.from_platform(SMALL, release_policy="none")
        result = compare_app(get_app("EMBAR"), SMALL, options=options)
        assert result.prefetch.stats.release.pages_released == 0


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "long_header"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line.strip()}) <= 2
        assert "long_header" in lines[0]

    def test_render_table_title(self):
        text = render_table(["h"], [["v"]], title="My Table")
        assert text.startswith("My Table\n========")

    def test_ascii_bars_scales_to_peak(self):
        text = ascii_bars(["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_ascii_bars_empty(self):
        assert ascii_bars([], []) == "(no data)"

    def test_ascii_bars_zero_value(self):
        text = ascii_bars(["z"], [0.0])
        assert "#" not in text

    def test_stacked_time_bar_proportions(self):
        breakdown = TimeBreakdown(user_compute=50.0, sys_fault=25.0, stall_read=25.0)
        bar = stacked_time_bar(breakdown, normalize_to=100.0, width=20)
        assert bar.count("u") == 10
        assert bar.count("s") == 5
        assert bar.count(".") == 5
        assert "(100%)" in bar
