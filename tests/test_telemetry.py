"""Tests for farm-wide telemetry (repro.obs.telemetry).

Three layers are pinned here:

* **mergeable instruments** -- hypothesis property tests that merging
  two registries recorded separately equals one registry recorded
  sequentially, per instrument kind.  This is the algebra the whole
  cross-worker aggregation rests on: if it holds, the controller's
  rollup equals what one shared registry would have seen.
* **the pipeline pieces** -- one aggregator delta per job, SLO
  rule validation and evaluation, trace-recorder output, and
  ``merge_chrome_traces`` producing a single valid timeline.
* **the farm end to end** -- a real (small) farm run whose controller
  totals equal the sum of solo per-job observer registries bit for
  bit, and a chaos run that still yields a valid merged timeline, a
  per-tenant table, and an SLO verdict artifact.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.errors import ConfigError, ExitCode, MachineError
from repro.obs import Observer
from repro.obs.export import merge_chrome_traces, validate_chrome_trace
from repro.obs.metrics import (
    DEFAULT_BOUNDS_US,
    SLO_METRIC_NAMES,
    TELEMETRY_METRIC_NAMES,
    TIMELINESS_BOUNDS_US,
    Histogram,
    MetricsRegistry,
    base_name,
    labeled_name,
)
from repro.obs.telemetry import (
    FarmTelemetry,
    FarmTraceRecorder,
    SloEngine,
    SloRule,
    TelemetryAggregator,
    TelemetryConfig,
    default_slo_rules,
    load_slo_rules,
)
from repro.serve import (
    FarmConfig,
    JobRecord,
    JobSpec,
    JobState,
    RetryPolicy,
    result_digest,
    run_farm,
)
from repro.serve.worker import execute_job

FAST_RETRY = RetryPolicy(base_s=0.01, cap_s=0.05, seed=1)
BOUNDS = (10.0, 100.0, 1000.0)


# ----------------------------------------------------------------------
# Property: merge(a, b) == sequential recording, per instrument kind
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 50), max_size=20),
       st.lists(st.integers(0, 50), max_size=20))
def test_counter_merge_equals_sequential(a_incs, b_incs):
    a, b, seq = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for n in a_incs:
        a.counter("c").inc(n)
    for n in b_incs:
        b.counter("c").inc(n)
    for n in a_incs + b_incs:
        seq.counter("c").inc(n)
    a.merge(b)
    assert a.as_dict() == seq.as_dict()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), max_size=20),
       st.lists(st.floats(-1e6, 1e6), max_size=20))
def test_gauge_merge_equals_sequential(a_sets, b_sets):
    """A gauge split at an arbitrary point in its sample stream merges
    back to the sequential gauge: last value wins, min/max union."""
    a, b, seq = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for v in a_sets:
        a.gauge("g").set(v)
    for v in b_sets:
        b.gauge("g").set(v)
    for v in a_sets + b_sets:
        seq.gauge("g").set(v)
    a.merge(b)
    assert a.as_dict() == seq.as_dict()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 5000), max_size=20),
       st.lists(st.floats(0, 5000), max_size=20))
def test_histogram_merge_equals_sequential(a_obs, b_obs):
    """Histograms merge bucket-wise, so any split of the observation
    stream (order included -- buckets are order-free) merges exactly."""
    a, b, seq = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for reg in (a, b, seq):
        reg.histogram("h", BOUNDS)
    for v in a_obs:
        a.histogram("h", BOUNDS).observe(v)
    for v in b_obs:
        b.histogram("h", BOUNDS).observe(v)
    for v in a_obs + b_obs:
        seq.histogram("h", BOUNDS).observe(v)
    a.merge(b)
    merged, sequential = a.as_dict()["h"], seq.as_dict()["h"]
    # float addition is commutative but not associative: the partial
    # sums can differ from the sequential sum in the last bit
    assert merged.pop("sum") == pytest.approx(sequential.pop("sum"))
    assert merged == sequential


_QUANTILES = [k / 20 for k in range(21)] + [0.99, 0.999]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2e6, 2e6), min_size=1, max_size=20),
       st.lists(st.floats(-2e6, 2e6), max_size=20),
       st.sampled_from([BOUNDS, DEFAULT_BOUNDS_US, TIMELINESS_BOUNDS_US]))
def test_quantile_is_clamped_monotone_and_merge_invariant(a_obs, b_obs,
                                                          bounds):
    """A quantile lies in [min, max], rises with q, and reads the same
    after a merge as after sequential recording."""
    a, b, seq = (Histogram("h", bounds) for _ in range(3))
    for v in a_obs:
        a.observe(v)
    for v in b_obs:
        b.observe(v)
    for v in a_obs + b_obs:
        seq.observe(v)
    quantiles = [seq.quantile(q) for q in sorted(_QUANTILES)]
    assert all(seq.min <= v <= seq.max for v in quantiles)
    assert quantiles == sorted(quantiles)
    a.merge(b)
    assert [a.quantile(q) for q in sorted(_QUANTILES)] == quantiles


def test_quantile_never_reports_past_the_slowest_sample():
    """The 1-worker demo once printed a 60 s p99 for a 37.79 s batch:
    the bucket bound, not anything observed."""
    from repro.serve.controller import JOB_LATENCY_BOUNDS_US

    latency = Histogram("serve.job_latency_us", JOB_LATENCY_BOUNDS_US)
    for seconds in (3.1, 12.0, 37.79):
        latency.observe(seconds * 1e6)
    assert latency.quantile(0.99) == 37.79e6  # the bucket bound is 60 s
    assert latency.quantile(0.0) == 3.1e6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 50), max_size=10),
       st.lists(st.floats(-100, 100), max_size=10),
       st.lists(st.floats(0, 5000), max_size=10))
def test_registry_snapshot_roundtrip(incs, sets, obs):
    """from_snapshot(as_dict()) is the identity -- the wire format the
    workers ship their deltas in loses nothing."""
    reg = MetricsRegistry()
    for n in incs:
        reg.counter("c").inc(n)
    for v in sets:
        reg.gauge("g").set(v)
    for v in obs:
        reg.histogram("h", BOUNDS).observe(v)
    assert MetricsRegistry.from_snapshot(reg.as_dict()).as_dict() == reg.as_dict()


def test_histogram_merge_rejects_mismatched_bounds():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", (1.0, 2.0)).observe(1.5)
    b.histogram("h", (1.0, 3.0)).observe(1.5)
    with pytest.raises(Exception):
        a.merge(b)
    # All or nothing: "g" sorts before "h" and is not merged either.
    b.counter("g").inc(2)
    before = a.as_dict()
    with pytest.raises(MachineError):
        a.merge(b)
    assert a.as_dict() == before


def test_labeled_name_roundtrip():
    name = labeled_name("obs.stall_latency_us", tenant="acme")
    assert name == "obs.stall_latency_us{tenant=acme}"
    assert base_name(name) == "obs.stall_latency_us"
    assert labeled_name("x", b="2", a="1") == "x{a=1,b=2}"  # sorted keys
    assert base_name("plain") == "plain"


# ----------------------------------------------------------------------
# Aggregator semantics
# ----------------------------------------------------------------------


def _delta(value: float) -> dict:
    reg = MetricsRegistry()
    reg.counter("jobs.c").inc(value)
    reg.histogram("jobs.h", BOUNDS).observe(value)
    return reg.as_dict()


def test_aggregator_ignores_a_second_delta_for_a_job():
    agg = TelemetryAggregator()
    assert agg.ingest("j1", "acme", _delta(3))
    assert not agg.ingest("j1", "acme", _delta(100))
    assert agg.rollup().value("jobs.c") == 3
    assert agg.jobs_folded() == 1
    assert agg.tenants() == ["acme"]


def test_aggregator_rollup_has_tenant_children():
    agg = TelemetryAggregator()
    agg.ingest("j1", "acme", _delta(3))
    agg.ingest("j2", "globex", _delta(5))
    rollup = agg.rollup()
    assert rollup.value("jobs.c") == 8  # unlabeled = farm-wide total
    assert rollup.value(labeled_name("jobs.c", tenant="acme")) == 3
    assert rollup.value(labeled_name("jobs.c", tenant="globex")) == 5
    assert rollup.get(labeled_name("jobs.h", tenant="acme")).count == 1


# ----------------------------------------------------------------------
# SLO rules and engine
# ----------------------------------------------------------------------


def test_slo_rule_validation():
    with pytest.raises(ConfigError):
        SloRule(name="", metric="m")
    with pytest.raises(ConfigError):
        SloRule(name="r", metric="")
    with pytest.raises(ConfigError):
        SloRule(name="r", metric="m", agg="median")
    with pytest.raises(ConfigError):
        SloRule(name="r", metric="m", op="~=")
    with pytest.raises(ConfigError):
        SloRule(name="r", metric="m", threshold=float("nan"))


def test_slo_rule_missing_metric_is_flagged_not_fatal():
    row = SloRule(name="r", metric="nope", op="==").check(MetricsRegistry())
    assert row["missing"] and row["observed"] == 0.0 and row["ok"]


def test_slo_rule_aggregations():
    reg = MetricsRegistry()
    hist = reg.histogram("h", BOUNDS)
    for v in (5.0, 50.0, 50.0, 500.0):
        hist.observe(v)
    reg.counter("c").inc(4)
    assert SloRule(name="n", metric="h", agg="count").observe(reg) == (4.0, False)
    assert SloRule(name="n", metric="h", agg="p50").observe(reg)[0] == 100.0
    assert SloRule(name="n", metric="h", agg="max").observe(reg)[0] == 500.0
    assert SloRule(name="n", metric="c", agg="rate").observe(reg)[0] == 4.0
    with pytest.raises(ConfigError):  # scalar agg on a histogram
        SloRule(name="n", metric="h", agg="value").observe(reg)
    with pytest.raises(ConfigError):  # quantile on a counter
        SloRule(name="n", metric="c", agg="p99").observe(reg)


def test_slo_rule_tenant_scoping():
    reg = MetricsRegistry()
    reg.counter("c").inc(9)
    reg.counter(labeled_name("c", tenant="acme")).inc(2)
    rule = SloRule(name="n", metric="c", agg="value", op="<",
                   threshold=5.0, tenant="acme")
    assert rule.target == "c{tenant=acme}"
    assert rule.check(reg)["ok"]  # reads 2, not the farm-wide 9


def test_load_slo_rules(tmp_path):
    good = tmp_path / "rules.json"
    good.write_text(json.dumps({"version": 1, "rules": [
        {"name": "a", "metric": "m", "op": "<", "threshold": 1.0},
        {"name": "b", "metric": "m2", "agg": "p99", "threshold": 2.0},
    ]}))
    rules = load_slo_rules(str(good))
    assert [r.name for r in rules] == ["a", "b"]
    assert rules[0].to_dict() == SloRule.from_dict(rules[0].to_dict()).to_dict()

    with pytest.raises(ConfigError):
        load_slo_rules(str(tmp_path / "missing.json"))
    bad_version = tmp_path / "v9.json"
    bad_version.write_text(json.dumps({"version": 9, "rules": [
        {"name": "a", "metric": "m"}]}))
    with pytest.raises(ConfigError):
        load_slo_rules(str(bad_version))
    dupes = tmp_path / "dupes.json"
    dupes.write_text(json.dumps({"version": 1, "rules": [
        {"name": "a", "metric": "m"}, {"name": "a", "metric": "m2"}]}))
    with pytest.raises(ConfigError):
        load_slo_rules(str(dupes))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"version": 1, "rules": []}))
    with pytest.raises(ConfigError):
        load_slo_rules(str(empty))


def test_slo_engine_reports_transitions_once():
    reg = MetricsRegistry()
    counter = reg.counter("errors")
    engine = SloEngine([SloRule(name="no-errors", metric="errors",
                                op="==", threshold=0.0)])
    verdict = engine.evaluate(reg)
    assert verdict["ok"] and not engine.new_violations(verdict)
    counter.inc()
    verdict = engine.evaluate(reg)
    assert not verdict["ok"]
    assert [row["name"] for row in engine.new_violations(verdict)] == ["no-errors"]
    # still violating: not a *new* violation
    assert not engine.new_violations(engine.evaluate(reg))


def test_default_slo_rules_are_well_formed():
    rules = default_slo_rules()
    names = [r.name for r in rules]
    assert len(set(names)) == len(names) == 3


# ----------------------------------------------------------------------
# Trace recorder and timeline merging
# ----------------------------------------------------------------------


def _recorder_segment(trace_id: str, base_ts: float = 0.0) -> dict:
    rec = FarmTraceRecorder(trace_id, workers=1)
    rec.span("queued", base_ts, 50.0, rec.ADMISSION_TID, {"job_id": "j"})
    rec.instant("dispatch", base_ts + 50.0, rec.worker_tid(0), {"job_id": "j"})
    rec.counter("farm_queue_depth", base_ts + 60.0, 1.0)
    return rec.chrome()


def test_recorder_output_is_valid_chrome_trace():
    doc = _recorder_segment("abc")
    assert validate_chrome_trace(doc) == []
    names = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "M"}
    assert "process_name" in names and "thread_name" in names


def test_recorder_bounds_events_and_counts_drops():
    rec = FarmTraceRecorder("abc", workers=1, max_events=2)
    for k in range(5):
        rec.instant("dispatch", float(k), rec.ADMISSION_TID, {})
    assert len(rec.events) == 2 and rec.dropped == 3
    assert rec.chrome()["otherData"]["dropped"] == 3


def test_merge_chrome_traces_offsets_and_validates():
    merged = merge_chrome_traces([
        {"name": "farm", "trace": _recorder_segment("abc"), "offset_us": 0.0},
        {"name": "job.a1", "trace": _recorder_segment("abc"),
         "offset_us": 1000.0},
    ])
    assert validate_chrome_trace(merged) == []
    by_pid = {}
    for ev in merged["traceEvents"]:
        if ev["ph"] != "M":
            by_pid.setdefault(ev["pid"], []).append(ev)
    assert set(by_pid) == {0, 1}
    # segment 1's events were shifted by its dispatch offset
    assert min(ev["ts"] for ev in by_pid[1]) == 1000.0
    # process_name meta was rewritten to the segment name
    procs = {ev["pid"]: ev["args"]["name"]
             for ev in merged["traceEvents"]
             if ev["ph"] == "M" and ev["name"] == "process_name"}
    assert procs == {0: "farm", 1: "job.a1"}
    assert merged["otherData"]["segments"] == ["farm", "job.a1"]


# ----------------------------------------------------------------------
# The facade, disabled and enabled
# ----------------------------------------------------------------------


def test_disabled_telemetry_is_inert(tmp_path):
    telemetry = FarmTelemetry(TelemetryConfig(enabled=False), tmp_path,
                              workers=1, serve_metrics=MetricsRegistry())
    assert telemetry.worker_args() is None
    assert telemetry.dispatch_context("j", 1) == {"trace_id": None,
                                                  "parent_span": None}
    telemetry.poll(0.0)
    assert telemetry.finalize(0.0) == {"enabled": False}
    assert not (tmp_path / "telemetry.json").exists()
    assert not (tmp_path / "slo_verdict.json").exists()


def test_an_alien_delta_is_refused_whole(tmp_path):
    """A delta that disagrees with the rollup on a kind or on histogram
    bounds folds nothing, and the flushes after it still run."""
    telemetry = FarmTelemetry(TelemetryConfig(), tmp_path, workers=1,
                              serve_metrics=MetricsRegistry())

    def on_result(job_id: str, metrics: dict) -> None:
        record = JobRecord(spec=_run_spec(job_id, "acme"))
        telemetry.on_result(record, {"state": "done",
                                     "telemetry": {"metrics": metrics}})

    on_result("j1", _delta(3))
    rollup = telemetry.aggregator.rollup().as_dict()
    alien = MetricsRegistry()
    alien.counter("jobs.a").inc(1)  # new and compatible; sorts first
    alien.gauge("jobs.c").set(1.0)  # a counter in the rollup
    alien.histogram("jobs.h", (1.0, 2.0, 3.0)).observe(2.0)
    on_result("j2", alien.as_dict())
    assert telemetry.aggregator.jobs_folded() == 1
    assert telemetry.registry.value("telemetry.deltas_folded") == 1
    assert telemetry.aggregator.rollup().as_dict() == rollup
    telemetry.poll(0.0)
    assert telemetry.finalize(1.0)["jobs_folded"] == 1


def test_a_delta_naming_farm_metrics_is_refused_whole(tmp_path):
    """Worker observers never emit ``serve.*``, ``telemetry.*`` or
    ``slo.*``: a delta that names one would clash with the farm's own
    instrument in every farm view, so it folds nothing."""
    serve = MetricsRegistry()
    serve.counter("serve.jobs_done").inc()
    serve.histogram(labeled_name("serve.job_latency_us", tenant="acme"),
                    BOUNDS).observe(50.0)
    telemetry = FarmTelemetry(TelemetryConfig(), tmp_path, workers=1,
                              serve_metrics=serve)

    def on_result(job_id: str, metrics: dict) -> None:
        record = JobRecord(spec=_run_spec(job_id, "acme"))
        telemetry.on_result(record, {"state": "done",
                                     "telemetry": {"metrics": metrics}})

    on_result("j1", _delta(3))
    rollup = telemetry.aggregator.rollup().as_dict()
    gauge = MetricsRegistry()
    gauge.gauge("serve.jobs_done").set(1.0)  # a counter on the farm
    counter = MetricsRegistry()
    # Its tenant child clashes with the farm's histogram child.
    counter.counter("serve.job_latency_us").inc()
    on_result("j2", gauge.as_dict())
    on_result("j3", counter.as_dict())
    assert telemetry.aggregator.jobs_folded() == 1
    assert telemetry.registry.value("telemetry.deltas_folded") == 1
    assert telemetry.aggregator.rollup().as_dict() == rollup
    telemetry.poll(0.0)
    assert telemetry.finalize(1.0)["jobs_folded"] == 1


def test_facade_registers_all_documented_metrics(tmp_path):
    telemetry = FarmTelemetry(TelemetryConfig(), tmp_path, workers=1,
                              serve_metrics=MetricsRegistry())
    for name in TELEMETRY_METRIC_NAMES + SLO_METRIC_NAMES:
        assert name in telemetry.registry


# ----------------------------------------------------------------------
# Farm integration (real workers)
# ----------------------------------------------------------------------


def _run_spec(job_id: str, tenant: str) -> JobSpec:
    return JobSpec(kind="run", app="EMBAR", pages=120, memory_pages=96,
                   job_id=job_id, seed=2, tenant=tenant)


def test_farm_totals_equal_sum_of_worker_deltas(tmp_path):
    """The acceptance property of the aggregation pipeline: the
    controller's farm registry equals the merge of what each worker's
    observer recorded -- reproduced here by running the same jobs solo
    with our own observers."""
    specs = [_run_spec("ja", "acme"), _run_spec("jb", "globex")]
    report = run_farm(specs, FarmConfig(workers=2, retry=FAST_RETRY),
                      tmp_path / "farm")
    assert report.all_done
    assert report.telemetry["enabled"]
    assert report.telemetry["jobs_folded"] == 2

    expected = MetricsRegistry()
    solo = {}
    for spec in specs:
        obs = Observer()
        job_dir = tmp_path / f"solo-{spec.job_id}"
        job_dir.mkdir()
        payload = execute_job(spec, job_dir, resume=False, observer=obs)
        solo[spec.tenant] = obs.metrics
        expected.merge(obs.metrics)

    snapshot = json.loads((tmp_path / "farm" / "telemetry.json").read_text())
    assert snapshot["state"] == "final"
    farm_metrics = snapshot["metrics"]
    for name in expected.names():
        instrument = expected.get(name)
        if instrument.kind == "gauge":
            continue  # last-writer-wins: farm fold order is not ours
        assert farm_metrics[name] == instrument.as_dict(), name
    # per-tenant children are each tenant's solo registry, exactly
    for tenant, registry in solo.items():
        for name in registry.names():
            instrument = registry.get(name)
            if instrument.kind == "gauge":
                continue
            child = labeled_name(name, tenant=tenant)
            assert farm_metrics[child] == instrument.as_dict(), child

    # and the farm result payloads are still bit-identical to solo runs
    by_id = {rec.spec.job_id: rec for rec in report.records}
    for spec in specs:
        job_dir = tmp_path / f"solo2-{spec.job_id}"
        job_dir.mkdir()
        assert by_id[spec.job_id].result == execute_job(spec, job_dir,
                                                        resume=False)


def test_chaos_farm_produces_timeline_tenants_and_verdict(tmp_path):
    """The ISSUE acceptance run, miniaturized: chaos kill mid-job, and
    the farm still emits a merged valid timeline, a per-tenant tail
    table, and an SLO verdict artifact (here with a rule rigged to
    violate, so the verdict and violation plumbing both fire)."""
    from repro.faults.farm import FarmChaosPlan, WorkerFault

    rules = (SloRule(name="impossible-latency",
                     metric="serve.job_latency_us", agg="p99", op="<",
                     threshold=1.0),
             SloRule(name="no-shedding", metric="serve.jobs_shed",
                     agg="rate", op="==", threshold=0.0))
    trace_out = tmp_path / "timeline.json"
    slo_out = tmp_path / "verdict.json"
    config = FarmConfig(
        workers=2, retry=FAST_RETRY,
        telemetry=TelemetryConfig(flush_every_s=0.1,
                                  trace_out=str(trace_out),
                                  slo_rules=rules, slo_out=str(slo_out)))
    spec = JobSpec(kind="run", app="MGRID", pages=480, memory_pages=96,
                   job_id="long", seed=2, tenant="acme")
    chaos = FarmChaosPlan(faults=(
        WorkerFault(on_start=1, delay_s=0.3, op="kill"),))
    report = run_farm([spec], config, tmp_path / "farm", chaos=chaos)
    rec = report.records[0]
    assert rec.state == JobState.DONE
    assert rec.attempts == 2  # the kill cost an attempt...

    telemetry = report.telemetry
    assert telemetry["jobs_folded"] == 1  # ...but only the final counts
    assert "acme" in telemetry["tenants"]
    assert telemetry["tenants"]["acme"]["done"] == 1
    assert "stall_p99_us" in telemetry["tenants"]["acme"]

    merged = json.loads(trace_out.read_text())
    assert validate_chrome_trace(merged) == []
    names = {ev["name"] for ev in merged["traceEvents"]}
    assert {"queued", "running", "dispatch", "retry", "worker_kill",
            "done", "slo_violation"} <= names
    # controller segment + the surviving attempt's job trace (the
    # SIGKILLed attempt died before it could write one)
    assert merged["otherData"]["segments"] == [
        f"repro-farm [{telemetry['trace_id']}]", "long.a2"]
    # The resumed segment is its own incarnation's trace: it opens with
    # the restore and repeats nothing from before the snapshot.
    segment = json.loads((tmp_path / "farm" / "traces" / "long.a2.json")
                         .read_text())
    events = [ev for ev in segment["traceEvents"] if ev["ph"] == "i"]
    restore = events[0]
    assert restore["name"] == "checkpoint_restore"
    assert all(ev["ts"] >= restore["args"]["value"] for ev in events)
    # ... and the resumed job still returns the solo run's exact bits.
    solo_dir = tmp_path / "solo"
    solo_dir.mkdir()
    solo = execute_job(spec, solo_dir, resume=False, observer=Observer())
    assert result_digest(rec.result) == result_digest(solo)

    verdict = json.loads(slo_out.read_text())
    assert verdict["ok"] is False
    assert verdict["rules_source"] == "file"
    rows = {row["name"]: row for row in verdict["rules"]}
    assert rows["impossible-latency"]["ok"] is False
    assert rows["no-shedding"]["ok"] is True
    assert report.metrics is not None  # serve registry untouched by SLOs


def test_killed_attempt_contributes_nothing(tmp_path):
    """A job SIGKILLed mid-run and quarantined leaves no trace in the
    rollup: its attempt never reported, so nothing was folded -- however
    often the controller polled while it ran."""
    from repro.faults.farm import FarmChaosPlan, WorkerFault

    # About 3.4 s uninterrupted on a 2-vCPU host, so the 0.5 s strike
    # lands mid-run with room to spare on a faster one.
    spec = JobSpec(kind="run", app="MGRID", pages=1920, memory_pages=96,
                   job_id="doomed", seed=2, tenant="acme", max_attempts=1)
    chaos = FarmChaosPlan(faults=(
        WorkerFault(on_start=1, delay_s=0.5, op="kill"),))
    config = FarmConfig(workers=1, retry=FAST_RETRY,
                        telemetry=TelemetryConfig(flush_every_s=0.1))
    workdir = tmp_path / "farm"
    report = run_farm([spec], config, workdir, chaos=chaos)
    assert report.records[0].state == JobState.QUARANTINED
    assert report.telemetry["jobs_folded"] == 0
    snapshot = json.loads((workdir / "telemetry.json").read_text())
    assert snapshot["state"] == "final"
    assert not [name for name in snapshot["metrics"]
                if name.startswith("obs.")]
    assert not (workdir / "telemetry").exists()  # no side channel


def test_tenant_failed_attempts_match_the_serve_counter(tmp_path):
    """Every failed attempt counts for its tenant, including the one
    that quarantines the job."""
    poison = JobSpec(kind="run", app="NO-SUCH-APP", job_id="poison",
                     max_attempts=3, tenant="acme")
    report = run_farm([poison], FarmConfig(workers=1, retry=FAST_RETRY),
                      tmp_path)
    assert report.records[0].state == JobState.QUARANTINED
    assert report.metrics.value("serve.jobs_failed_attempts") == 3
    assert report.telemetry["tenants"]["acme"]["failed_attempts"] == 3


# ----------------------------------------------------------------------
# CLI: repro top
# ----------------------------------------------------------------------


def test_top_once_renders_and_emits_json(tmp_path, capsys):
    telemetry = FarmTelemetry(TelemetryConfig(), tmp_path, workers=1,
                              serve_metrics=MetricsRegistry())
    telemetry.write_snapshot(final=True)

    assert main(["top", "--workdir", str(tmp_path), "--once"]) == int(ExitCode.OK)
    out = capsys.readouterr().out
    assert "repro top" in out and telemetry.trace_id in out

    assert main(["top", "--workdir", str(tmp_path), "--once",
                 "--json"]) == int(ExitCode.OK)
    snap = json.loads(capsys.readouterr().out)
    assert snap["trace_id"] == telemetry.trace_id
    assert snap["slo"]["rules_total"] == 3


def test_top_without_snapshot_fails(tmp_path, capsys):
    assert main(["top", "--workdir", str(tmp_path),
                 "--once"]) == int(ExitCode.FAILURE)
    err = capsys.readouterr().err
    assert "no telemetry yet" in err
    assert "farm not started" in err  # says *why*, not just that it failed
