"""Tests for the observability layer (repro.obs).

Covers the trace ring buffer (wraparound, disabled no-op), the metrics
registry (aggregation, type safety), the RunStats publish surface, the
no-perturbation guarantee (observed runs are bit-identical to
unobserved ones), multiprogrammed interleaving, and a golden-file pin
of the Chrome trace export.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.apps import synthetic
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import MachineError
from repro.harness.experiment import run_variant
from repro.multiprog import CoScheduler
from repro.obs import (
    OBS_METRIC_NAMES,
    RUN_METRIC_NAMES,
    MetricsRegistry,
    Observer,
    TraceBuffer,
    TraceKind,
    chrome_trace,
    metrics_json,
    validate_chrome_trace,
)
from repro.obs.metrics import TIMELINESS_BOUNDS_US, Counter, Gauge, Histogram
from repro.sim.stats import RunStats

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "embar_trace_golden.json"


def _load_regen_script():
    """The regen script is the single source of truth for the golden run."""
    path = REPO_ROOT / "scripts" / "regen_golden_trace.py"
    spec = importlib.util.spec_from_file_location("regen_golden_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Trace ring buffer
# ----------------------------------------------------------------------


class TestTraceBuffer:
    def test_records_in_order(self):
        buf = TraceBuffer(capacity=16)
        for i in range(5):
            buf.emit(float(i), TraceKind.FAULT, vpage=i, tag="nonprefetched_fault")
        events = buf.events()
        assert len(buf) == 5
        assert [e.ts_us for e in events] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert all(e.kind is TraceKind.FAULT for e in events)
        assert buf.dropped == 0

    def test_wraparound_keeps_newest(self):
        buf = TraceBuffer(capacity=4)
        for i in range(10):
            buf.emit(float(i), TraceKind.RELEASE, vpage=i)
        assert len(buf) == 4
        assert buf.total_emitted == 10
        assert buf.dropped == 6
        assert [e.vpage for e in buf.events()] == [6, 7, 8, 9]

    def test_wraparound_exact_boundary(self):
        buf = TraceBuffer(capacity=3)
        for i in range(3):
            buf.emit(float(i), TraceKind.CHUNK)
        assert buf.dropped == 0
        assert [e.ts_us for e in buf.events()] == [0.0, 1.0, 2.0]

    def test_disabled_is_a_no_op(self):
        buf = TraceBuffer(capacity=8, enabled=False)
        buf.emit(1.0, TraceKind.FAULT, vpage=3)
        assert len(buf) == 0
        assert buf.total_emitted == 0
        assert buf.events() == []

    def test_counts_by_kind(self):
        buf = TraceBuffer(capacity=8)
        buf.emit(0.0, TraceKind.FAULT)
        buf.emit(1.0, TraceKind.FAULT)
        buf.emit(2.0, TraceKind.EVICTION)
        assert buf.counts_by_kind() == {"fault": 2, "eviction": 1}

    def test_clear(self):
        buf = TraceBuffer(capacity=4)
        buf.emit(0.0, TraceKind.FAULT)
        buf.clear()
        assert len(buf) == 0
        assert buf.total_emitted == 0
        assert buf.capacity == 4

    def test_bad_capacity_rejected(self):
        with pytest.raises(MachineError):
            TraceBuffer(capacity=0)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestInstruments:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(MachineError):
            c.inc(-1)

    def test_gauge_tracks_extremes(self):
        g = Gauge("x")
        for v in (5.0, -2.0, 7.0):
            g.set(v)
        assert g.value == 7.0
        assert g.min == -2.0
        assert g.max == 7.0

    def test_histogram_buckets_and_stats(self):
        h = Histogram("x", bounds=(10.0, 100.0))
        for v in (1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.buckets == [2, 1, 1]  # <=10, <=100, overflow
        assert h.mean == pytest.approx(139.0)
        assert h.min == 1.0 and h.max == 500.0
        assert h.quantile(0.5) == 10.0
        assert h.quantile(1.0) == 500.0

    def test_histogram_negative_bounds_for_timeliness(self):
        h = Histogram("x", bounds=TIMELINESS_BOUNDS_US)
        h.observe(-200_000.0)  # a badly late prefetch
        h.observe(2_000.0)
        assert h.buckets[0] == 1
        assert h.count == 2
        assert h.min == -200_000.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(MachineError):
            Histogram("x", bounds=(100.0, 10.0))
        with pytest.raises(MachineError):
            Histogram("x", bounds=())

    def test_quantile_domain(self):
        h = Histogram("x")
        with pytest.raises(MachineError):
            h.quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(MachineError):
            reg.gauge("a.b")

    def test_value_refuses_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        with pytest.raises(MachineError):
            reg.value("h")

    def test_unknown_name_errors(self):
        with pytest.raises(MachineError):
            MetricsRegistry().get("nope")

    def test_as_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(3.0)
        snap = reg.as_dict()
        assert snap["c"] == {"kind": "counter", "value": 2.0}
        assert snap["g"]["min"] == 1.5 and snap["g"]["max"] == 1.5
        assert snap["h"]["count"] == 1
        assert list(snap) == sorted(snap)


# ----------------------------------------------------------------------
# Publish surface and end-to-end observation
# ----------------------------------------------------------------------

CFG = PlatformConfig(memory_pages=96)
OPTS = CompilerOptions.from_platform(CFG)


def _compiled_stream(n=60_000, name="s"):
    prog = synthetic.stream(n, cost_us=10.0, writes=True, name=name)
    return insert_prefetches(prog, OPTS).program


class TestObservedRun:
    def setup_method(self):
        self.obs = Observer()
        self.stats = run_variant(
            _compiled_stream(), CFG, prefetching=True, observer=self.obs
        )

    def test_publish_registers_the_documented_names(self):
        assert set(self.obs.metrics.names()) == (
            set(RUN_METRIC_NAMES) | set(OBS_METRIC_NAMES)
        )

    def test_trace_agrees_with_stats(self):
        counts = self.obs.trace.counts_by_kind()
        f = self.stats.faults
        assert self.obs.trace.dropped == 0
        fault_events = [e for e in self.obs.trace if e.kind is TraceKind.FAULT]
        by_tag = {}
        for e in fault_events:
            by_tag[e.tag] = by_tag.get(e.tag, 0) + 1
        assert by_tag.get("prefetched_hit", 0) == f.prefetched_hit
        assert by_tag.get("prefetched_fault", 0) == f.prefetched_fault
        assert by_tag.get("nonprefetched_fault", 0) == f.nonprefetched_fault
        assert counts.get("release", 0) == self.stats.release.calls

    def test_live_histograms_filled(self):
        f = self.stats.faults
        # Every real stall records one latency sample; every use of a
        # still-tracked prefetch records one timeliness sample (faults on
        # *dropped* prefetches cannot -- the arrival time is gone).
        assert self.obs.stall_latency.count == (
            f.prefetched_fault + f.nonprefetched_fault
        )
        assert self.obs.prefetch_to_use.count >= f.prefetched_hit
        assert self.obs.disk_queue_delay.count > 0

    def test_timestamps_monotonic(self):
        ts = [e.ts_us for e in self.obs.trace]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_does_not_perturb_the_simulation(self):
        bare = run_variant(_compiled_stream(), CFG, prefetching=True)
        assert bare.elapsed_us == self.stats.elapsed_us
        assert bare.times.idle == self.stats.times.idle
        assert bare.faults.prefetched_hit == self.stats.faults.prefetched_hit
        assert bare.prefetch.filtered == self.stats.prefetch.filtered
        assert bare.prefetch.issued_pages == self.stats.prefetch.issued_pages

    def test_chrome_export_is_valid(self):
        trace = chrome_trace(self.obs.trace)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["dropped"] == 0

    def test_metrics_json_round_trips(self):
        payload = json.loads(json.dumps(metrics_json(self.obs.metrics)))
        assert set(payload["metrics"]) == set(self.obs.metrics.names())
        assert payload["metrics"]["faults.prefetched_hit"]["value"] == (
            self.stats.faults.prefetched_hit
        )


class TestPublishStandalone:
    def test_publish_without_observer(self):
        stats = run_variant(_compiled_stream(), CFG, prefetching=True)
        reg = stats.publish()
        assert set(reg.names()) == set(RUN_METRIC_NAMES)
        assert reg.value("time.elapsed_us") == stats.elapsed_us

    def test_run_metric_names_is_exhaustive(self):
        """publish() must not invent names beyond the documented list."""
        reg = RunStats().publish()
        assert set(reg.names()) == set(RUN_METRIC_NAMES)


# ----------------------------------------------------------------------
# Ring wraparound must degrade the exporters, not break them
# ----------------------------------------------------------------------


class TestWrappedRingExports:
    def setup_method(self):
        # Tiny ring: the run emits far more events than 64.
        self.obs = Observer(capacity=64)
        self.stats = run_variant(
            _compiled_stream(), CFG, prefetching=True, observer=self.obs
        )

    def test_run_actually_wrapped(self):
        assert self.obs.trace.dropped > 0
        assert len(self.obs.trace) == 64

    def test_chrome_trace_still_valid(self):
        trace = chrome_trace(self.obs.trace)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["dropped"] == self.obs.trace.dropped

    def test_metrics_export_still_complete(self):
        # Metrics live outside the ring; wraparound must not touch them.
        payload = json.loads(json.dumps(metrics_json(self.obs.metrics)))
        assert set(payload["metrics"]) == set(self.obs.metrics.names())
        assert payload["metrics"]["time.elapsed_us"]["value"] == (
            self.stats.elapsed_us
        )

    def test_spans_assemble_from_truncated_buffer_with_warning(self):
        from repro.obs import SpanBuilder

        builder = SpanBuilder.from_buffer(self.obs.trace)
        assert builder.truncated is True
        assert any("dropped" in w for w in builder.warnings)
        assert builder.events_seen == 64

    def test_wrap_does_not_perturb_the_simulation(self):
        bare = run_variant(_compiled_stream(), CFG, prefetching=True)
        assert bare.elapsed_us == self.stats.elapsed_us


# ----------------------------------------------------------------------
# The disk-idle gauge must agree with the stats it is derived from
# ----------------------------------------------------------------------


class TestDiskIdleGauge:
    def test_gauge_matches_busy_fractions(self):
        obs = Observer()
        stats = run_variant(_compiled_stream(), CFG, prefetching=True,
                            observer=obs)
        idle = [max(0.0, 1.0 - busy / stats.elapsed_us)
                for busy in stats.disk.busy_us]
        gauge = obs.disk_idle_fraction
        # One gauge set per disk in index order: value is the last disk,
        # min/max are the array extremes -- the same numbers `repro
        # profile` prints in its idle column.
        assert gauge.value == idle[-1]
        assert gauge.min == min(idle)
        assert gauge.max == max(idle)

    def test_gauge_is_exported(self):
        obs = Observer()
        run_variant(_compiled_stream(), CFG, prefetching=True, observer=obs)
        payload = metrics_json(obs.metrics)
        assert payload["metrics"]["obs.disk_idle_fraction"]["kind"] == "gauge"


# ----------------------------------------------------------------------
# Multiprogrammed interleaving
# ----------------------------------------------------------------------


class TestMultiprogInterleave:
    def test_shared_observer_sees_both_processes(self):
        obs = Observer()
        sched = CoScheduler(CFG, observer=obs)
        sched.add_process(_compiled_stream(name="a"), name="a", prefetching=True)
        sched.add_process(synthetic.stream(40_000, name="b"), name="b",
                          prefetching=False)
        sched.run()
        events = obs.trace.events()
        assert events, "a co-scheduled run must produce trace events"
        ts = [e.ts_us for e in events]
        assert all(x <= y for x, y in zip(ts, ts[1:])), (
            "interleaved processes must emit in simulated-time order"
        )
        kinds = {e.kind for e in events}
        assert TraceKind.FAULT in kinds
        assert TraceKind.PREFETCH_ISSUED in kinds
        assert validate_chrome_trace(chrome_trace(obs.trace)) == []

    def test_scheduler_results_unperturbed_by_observer(self):
        def run(observer):
            sched = CoScheduler(CFG, observer=observer)
            sched.add_process(_compiled_stream(name="a"), name="a",
                              prefetching=True)
            sched.add_process(synthetic.stream(40_000, name="b"), name="b",
                              prefetching=False)
            return sched.run()

        bare, seen = run(None), run(Observer())
        assert bare.elapsed_us == seen.elapsed_us
        assert bare.stats.faults.total_faults == seen.stats.faults.total_faults


# ----------------------------------------------------------------------
# Golden trace
# ----------------------------------------------------------------------


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def golden_module(self):
        return _load_regen_script()

    def test_golden_trace_is_stable(self, golden_module):
        """The canonical EMBAR run exports exactly the checked-in trace.

        If this fails after an intentional schema or scheduling change,
        regenerate with ``PYTHONPATH=src python scripts/regen_golden_trace.py``.
        """
        obs = golden_module.golden_run()
        trace = chrome_trace(obs.trace)
        assert validate_chrome_trace(trace) == []
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        assert trace == golden

    def test_golden_file_is_itself_valid(self):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        assert validate_chrome_trace(golden) == []
        assert golden["otherData"]["dropped"] == 0
