"""Per-layer metrics from the traced run, and the end-to-end metric each
one should move.

Layers are named after the ``src/repro`` modules.  The last column of
``PER_LAYER`` is the prediction written down before any measurement:
which end-to-end metric, on which workload, a change to that layer
should move.  A
layer predicted to do no work on a workload must read 0 there
(checkpoint, obs and serve on ``clean-table3``; obs and serve on
``faulted-resume``).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from tracer import CONTROLLER_LAYERS, WORKER_LAYERS, Tracer
from workloads import FARM_WORKERS, PassResult

#: (metric, unit, better, what it should move).
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("apps.make_s", "s", "lower", "setup_s on every workload"),
    ("core.pass_s", "s", "lower", "setup_s on every workload"),
    ("interp.lower_s", "s", "lower", "wall_s on clean-table3"),
    ("interp.lower_calls", "count", "lower", "wall_s on clean-table3"),
    ("interp.lower_events", "count", "lower", "wall_s on clean-table3"),
    ("interp.executor_self_s", "s", "lower", "wall_s on clean-table3"),
    ("machine.run_chunk_s", "s", "lower",
     "wall_s on clean-table3 and faulted-resume; jobs_per_s on farm-batch"),
    ("machine.chunks", "count", "lower", "as machine.run_chunk_s"),
    ("machine.events", "count", "lower", "as machine.run_chunk_s"),
    ("machine.events_per_s", "1/s", "higher", "as machine.run_chunk_s"),
    ("machine.scalar_event_share", "frac", "lower",
     "wall_s on clean-table3 (APPBT's slow-dense bail) and faulted-resume"),
    ("runtime.hint_s", "s", "lower", "wall_s on clean-table3"),
    ("runtime.hint_calls", "count", "lower", "wall_s on clean-table3"),
    ("runtime.filter_drop_ratio", "frac", "higher", "wall_s on clean-table3"),
    ("vm.access_s", "s", "lower", "wall_s on clean-table3 and faulted-resume"),
    ("vm.access_calls", "count", "lower", "as vm.access_s"),
    ("storage.io_s", "s", "lower",
     "wall_s on clean-table3 and faulted-resume"),
    ("storage.requests", "count", "lower", "as storage.io_s"),
    ("storage.pages", "count", "lower", "as storage.io_s"),
    ("faults.disk_retries", "count", "lower",
     "nothing: must stay identical (wall_s moves on faulted-resume only)"),
    ("faults.degraded_reads", "count", "lower", "as faults.disk_retries"),
    ("faults.hint_failures", "count", "lower", "as faults.disk_retries"),
    ("checkpoint.capture_s", "s", "lower",
     "jobs_per_s, job_latency_p50_s, peak_rss_mb on farm-batch; "
     "wall_s on faulted-resume"),
    ("checkpoint.store_s", "s", "lower", "as checkpoint.capture_s"),
    ("checkpoint.writes", "count", "lower", "as checkpoint.capture_s"),
    ("checkpoint.bytes", "B", "lower", "as checkpoint.capture_s"),
    ("checkpoint.restore_s", "s", "lower", "wall_s on faulted-resume only"),
    ("checkpoint.restores", "count", "lower", "wall_s on faulted-resume only"),
    ("obs.emit_s", "s", "lower", "jobs_per_s and latencies on farm-batch"),
    ("obs.emit_calls", "count", "lower", "as obs.emit_s"),
    ("obs.telemetry_fold_s", "s", "lower", "as obs.emit_s"),
    ("obs.telemetry_overhead_x", "x", "lower", "as obs.emit_s"),
    ("serve.pool_start_s", "s", "lower", "farm-batch only"),
    ("serve.queue_wait_p50_s", "s", "lower", "farm-batch only"),
    ("serve.service_p50_s", "s", "lower", "farm-batch only"),
    ("serve.ledger_s", "s", "lower", "farm-batch only"),
    ("serve.ledger_appends", "count", "lower", "farm-batch only"),
    ("serve.retries", "count", "lower", "farm-batch only"),
    ("serve.overhead_frac", "frac", "lower", "farm-batch only"),
    ("trace.overhead_x", "x", "lower", "nothing (cost of this tracing)"),
)

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Every per-layer metric from the tracer's totals and counters.

    ``extra`` carries the farm-level numbers no wrapper sees (zero on
    the studies) and ``trace.overhead_x``.
    """
    t, c = tracer, tracer.counts
    values = {
        "apps.make_s": t.inclusive_s("apps.make"),
        "core.pass_s": t.inclusive_s("core.pass"),
        "interp.lower_s": t.self_s("interp.lower"),
        "interp.lower_calls": t.calls("interp.lower"),
        "interp.lower_events": c.get("interp.lower_events", 0),
        "interp.executor_self_s": t.self_s("interp.executor"),
        "machine.run_chunk_s": t.self_s("machine.run_chunk"),
        "machine.chunks": c.get("machine.chunks", 0),
        "machine.events": c.get("machine.events", 0),
        "machine.events_per_s": _ratio(c.get("machine.events", 0),
                                       t.inclusive_s("machine.run_chunk")),
        "machine.scalar_event_share": _ratio(c.get("machine.scalar_events", 0),
                                             c.get("machine.events", 0)),
        "runtime.hint_s": t.self_s("runtime.hint"),
        "runtime.hint_calls": t.calls("runtime.hint"),
        "runtime.filter_drop_ratio": _ratio(c.get("runtime.filtered", 0),
                                            c.get("runtime.inserted", 0)),
        "vm.access_s": t.self_s("vm.access"),
        "vm.access_calls": t.calls("vm.access"),
        "storage.io_s": t.self_s("storage.io"),
        "storage.requests": t.calls("storage.io"),
        "storage.pages": c.get("storage.pages", 0),
        "faults.disk_retries": c.get("faults.disk_retries", 0),
        "faults.degraded_reads": c.get("faults.degraded_reads", 0),
        "faults.hint_failures": c.get("faults.hint_failures", 0),
        "checkpoint.capture_s": t.self_s("checkpoint.capture"),
        "checkpoint.store_s": t.self_s("checkpoint.store"),
        "checkpoint.writes": t.calls("checkpoint.capture"),
        "checkpoint.bytes": c.get("checkpoint.bytes", 0),
        "checkpoint.restore_s": t.self_s("checkpoint.restore"),
        "checkpoint.restores": t.calls("checkpoint.restore"),
        "obs.emit_s": t.self_s("obs.emit"),
        "obs.emit_calls": t.calls("obs.emit"),
        "obs.telemetry_fold_s": t.self_s("obs.telemetry_fold"),
        "serve.pool_start_s": t.inclusive_s("serve.pool_start"),
        "serve.ledger_s": t.self_s("serve.ledger"),
        "serve.ledger_appends": t.calls("serve.ledger"),
    }
    for name in ("obs.telemetry_overhead_x", "serve.queue_wait_p50_s",
                 "serve.service_p50_s", "serve.retries",
                 "serve.overhead_frac", "trace.overhead_x"):
        values[name] = extra.get(name, 0.0)
    return values


def _traced_study(wl, tracer: Tracer):
    """An untraced pass, then setup and a pass under every worker layer."""
    plain = wl.run_pass()
    tracer.install(WORKER_LAYERS)
    try:
        tracer.begin_run("setup")
        start = time.perf_counter()
        wl.build()
        traced = wl.run_pass(tracer)
        window = time.perf_counter() - start
    finally:
        tracer.uninstall()
    extra = {"trace.overhead_x": traced.wall_s / plain.wall_s}
    return [plain, traced], extra, window, []  # one process


def _traced_farm(wl, tracer: Tracer):
    """The farm with its controller layers traced, a telemetry-off farm
    for comparison, and the in-process worker pass that gives the layers
    the farm's workers cannot report.

    The controller wrappers cost milliseconds per batch, so this traced
    farm doubles as the telemetry-on wall.  ``trace.overhead_x`` here is
    the worker pass's traced time over its time less the measured
    per-call wrapper cost.
    """
    tracer.install(CONTROLLER_LAYERS)
    try:
        start = time.perf_counter()
        farm = wl.run_pass(tracer)
        window = time.perf_counter() - start
    finally:
        tracer.uninstall()
    quiet = wl.run_pass(telemetry=False)
    start = time.perf_counter()
    solo, solo_outcomes = wl.solo_pass(tracer)
    window += time.perf_counter() - start
    traced_solo = sum(dur for name, _, dur, _ in tracer.roots
                      if name == "serve.execute_job") / 1e9
    records = farm.farm.records
    extra = {
        "obs.telemetry_overhead_x": farm.wall_s / quiet.wall_s,
        "serve.queue_wait_p50_s": statistics.median(
            r.started_at - r.submitted_at for r in records),
        "serve.service_p50_s": statistics.median(
            r.finished_at - r.started_at for r in records),
        "serve.retries": int(farm.farm.metrics.value("serve.retries")),
        "serve.overhead_frac": 1.0 - sum(solo) / (FARM_WORKERS * farm.wall_s),
        "trace.overhead_x": traced_solo / sum(solo),
    }
    solo_pass = PassResult(sum(solo), sum(solo), solo_outcomes, 1.0)
    # The telemetry-off pass is timed, not checked: without an observer
    # some simulated times differ in their last bits (see CHANGES.md).
    differ = sum(not o.ok for o in quiet.outcomes)
    notes = [f"  telemetry-off pass: {differ} of {len(quiet.outcomes)} job "
             "results differ from the observed reference (not counted)"]
    return [farm, solo_pass], extra, window * FARM_WORKERS, notes


def run_traced(wl, scratch: Path):
    """The traced run: per-layer metrics, report lines and the trace file."""
    tracer = Tracer()
    if wl.name == "farm-batch":
        passes, extra, window, notes = _traced_farm(wl, tracer)
    else:
        passes, extra, window, notes = _traced_study(wl, tracer)
    values = layer_metrics(tracer, extra)
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    metrics = {name: (values[name], units[name]) for name, *_ in PER_LAYER}

    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / f"trace-{wl.name}.json"
    trace = tracer.chrome(f"perfbench {wl.name}")
    from repro.obs.export import validate_chrome_trace

    problems = validate_chrome_trace(trace)
    if problems:
        raise ValueError(f"invalid Chrome trace: {problems[:3]}")
    with open(path, "w") as fh:
        json.dump(trace, fh)
    lines = notes + [
        f"  [host] traced wall x processes {window:.3f} s; layer self times sum to "
        f"{tracer.self_total_s():.3f} s; {len(tracer.spans)} spans kept, "
        f"{tracer.dropped} dropped; wrapper cost {tracer.call_overhead_ns} "
        "ns/call",
        f"  trace: {path.relative_to(scratch.parent)} (valid Chrome trace)"]
    for name, unit, _, moves in PER_LAYER:
        kind = "[host]" if unit in ("s", "1/s") or name.endswith("_x") \
            or name == "serve.overhead_frac" else "      "
        lines.append(f"  {kind} {name:<27} {values[name]:>14.4f} {unit:<5} "
                     f"-> {moves}")
    return passes, metrics, lines
