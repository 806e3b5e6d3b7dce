"""Farm-wide telemetry: aggregation, trace correlation, and SLOs.

The single-process observability stack (PRs 1/4) measures one run from
the inside; the job farm (PR 7) runs dozens of processes whose only
outputs are result files and 16 terminal counters.  This module closes
the gap with a pipeline built entirely from the farm's existing
communication fabric -- queues in, atomically written files out -- so a
worker dying at any instant can corrupt nothing:

* :class:`TelemetryAggregator` -- a worker serializes each ``done``
  attempt's :class:`~repro.obs.metrics.MetricsRegistry` into the result
  payload it writes anyway; the controller folds one such delta per job
  into a live farm registry.  Instruments are mergeable by
  construction, so the rollup equals what one shared registry would
  have recorded, with per-tenant labeled children
  (``obs.stall_latency_us{tenant=acme}``) on top.
* :class:`FarmTraceRecorder` -- controller-side spans (``queued`` on
  the admission lane, ``running`` on per-worker lanes) and instants
  (dispatch, retry, preemption, chaos strikes, SLO violations), all on
  one wall clock.  :func:`~repro.obs.export.merge_chrome_traces` then
  folds the per-job simulator traces in under their dispatch offsets,
  producing one Perfetto-loadable farm timeline that still passes
  :func:`~repro.obs.export.validate_chrome_trace`.
* :class:`SloEngine` -- declarative JSON rules (``p99(serve.job_latency_us)
  < 3e8``) evaluated against the live farm view on the flush cadence,
  emitting ``slo_violation`` trace instants, the ``slo.*`` metric
  family, and a machine-readable verdict artifact.
* :class:`FarmTelemetry` -- the facade the controller drives.  It owns
  the ``workdir/telemetry.json`` snapshot that ``repro top`` and
  ``repro serve status --telemetry`` render.

Telemetry is observation-only: workers attach an
:class:`~repro.obs.observer.Observer` -- metrics-only unless per-job
traces were requested -- and nothing here feeds back into scheduling,
so a job's result is the same whatever the observer mode, checkpoint
cadence or resume history.  It may differ in the last bits from an
*unobserved* run (docs/observability.md, *Fidelity over wall-clock*).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ConfigError, MachineError, ensure_finite
from repro.ioutil import atomic_write_json
from repro.obs.export import merge_chrome_traces
from repro.obs.metrics import (
    SLO_METRIC_NAMES,
    TELEMETRY_METRIC_NAMES,
    Histogram,
    MetricsRegistry,
    labeled_name,
)

#: The schema version of telemetry.json snapshots and SLO artifacts.
TELEMETRY_VERSION = 1

#: Aggregations an SLO rule may apply to a metric.
SLO_AGGS: tuple[str, ...] = (
    "value", "rate", "count", "mean", "max", "p50", "p95", "p99",
)

#: Comparison operators an SLO rule may use.
SLO_OPS: tuple[str, ...] = ("<", "<=", ">", ">=", "==", "!=")

#: Metric families the farm registers itself.  Worker observers never
#: emit them, so a job delta that names one is alien: folded, it would
#: clash with the farm's own instruments in every farm view.
FARM_FAMILIES: tuple[str, ...] = ("serve", "telemetry", "slo")

#: Hard cap on buffered farm-timeline events (a long farm run must not
#: grow without bound; drops are counted and reported, never silent).
MAX_TRACE_EVENTS = 200_000


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything the telemetry pipeline tunes.

    Enabled by default: aggregation rides the existing result channel
    and costs one metrics-only observer per job.  Per-job Chrome traces
    are the expensive part and stay opt-in via ``trace_out`` (the
    merged farm timeline) -- requesting the timeline implies recording
    the per-job segments it is built from.
    """

    enabled: bool = True
    #: Cadence (wall seconds) of controller snapshot writes and SLO
    #: evaluations.
    flush_every_s: float = 0.5
    #: Merged farm-timeline output path (None = no timeline; setting it
    #: turns on per-job trace capture).
    trace_out: str | None = None
    #: SLO rules to evaluate (None = :func:`default_slo_rules`).
    slo_rules: tuple["SloRule", ...] | None = None
    #: SLO verdict artifact path (None = workdir/slo_verdict.json).
    slo_out: str | None = None

    def __post_init__(self) -> None:
        if self.flush_every_s <= 0:
            raise ConfigError(
                f"telemetry flush cadence must be > 0, got {self.flush_every_s}"
            )

    @property
    def job_traces(self) -> bool:
        return self.trace_out is not None

    def worker_args(self, traces_dir: str) -> dict | None:
        """The plain-dict form shipped to worker processes."""
        if not self.enabled:
            return None
        return {"traces_dir": traces_dir if self.job_traces else None}


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


class TelemetryAggregator:
    """Folds per-job registry deltas into one farm-level rollup.

    One contribution per job: the delta its ``done`` attempt carried on
    the result payload, merged into the rollup once, when it is
    ingested.  A later delta for a job already folded is ignored, an
    attempt that never finishes reports nothing, and a delta that does
    not merge, or that names an instrument of a :data:`FARM_FAMILIES`
    family, is refused whole, so no attempt is ever folded twice or
    folded half-done, and the farm's own instruments keep their kinds.
    """

    def __init__(self) -> None:
        self._rollup = MetricsRegistry()
        self._tenants: dict[str, str] = {}

    def ingest(self, job_id: str, tenant: str, metrics: dict) -> bool:
        """Fold one job's delta in, plain and per tenant; returns False
        when ignored and raises, folding nothing, when it cannot."""
        if job_id in self._tenants:
            return False
        owned = sorted(name for name in metrics
                       if name.partition(".")[0] in FARM_FAMILIES)
        if owned:
            raise MachineError(
                f"job {job_id!r} delta names farm metrics: {', '.join(owned)}")
        delta = MetricsRegistry.from_snapshot(metrics)
        delta.merge(MetricsRegistry.from_snapshot(
            {labeled_name(name, tenant=tenant): payload
             for name, payload in metrics.items()}))
        self._rollup.merge(delta)
        self._tenants[job_id] = tenant
        return True

    def jobs_folded(self) -> int:
        return len(self._tenants)

    def tenants(self) -> list[str]:
        return sorted(set(self._tenants.values()))

    def rollup(self) -> MetricsRegistry:
        """The live rollup: unlabeled family plus per-tenant children."""
        return self._rollup


# ----------------------------------------------------------------------
# SLO engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SloRule:
    """One declarative objective: ``agg(metric) op threshold``.

    ``tenant`` scopes the rule to that tenant's labeled child (e.g.
    ``p99(obs.stall_latency_us{tenant=acme}) < 1e6``).  A metric absent
    from the registry evaluates as 0.0 with ``missing`` flagged in the
    verdict row, so a rule over a family that never fired still renders
    rather than crashing the evaluation.
    """

    name: str
    metric: str
    agg: str = "value"
    op: str = "<"
    threshold: float = 0.0
    tenant: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("SLO rule needs a name")
        if not self.metric:
            raise ConfigError(f"SLO rule {self.name!r} needs a metric")
        if self.agg not in SLO_AGGS:
            raise ConfigError(
                f"SLO rule {self.name!r}: agg must be one of {SLO_AGGS}, "
                f"got {self.agg!r}"
            )
        if self.op not in SLO_OPS:
            raise ConfigError(
                f"SLO rule {self.name!r}: op must be one of {SLO_OPS}, "
                f"got {self.op!r}"
            )
        ensure_finite(float(self.threshold),
                      f"SLO rule {self.name!r} threshold")

    @property
    def target(self) -> str:
        """The registry name the rule reads."""
        if self.tenant is None:
            return self.metric
        return labeled_name(self.metric, tenant=self.tenant)

    def observe(self, registry: MetricsRegistry) -> tuple[float, bool]:
        """``(observed value, missing flag)`` against one registry."""
        if self.target not in registry:
            return 0.0, True
        instrument = registry.get(self.target)
        if isinstance(instrument, Histogram):
            if self.agg in ("value", "rate"):
                raise ConfigError(
                    f"SLO rule {self.name!r}: {self.agg} does not apply to "
                    f"histogram {self.target!r}; use count/mean/max/p*"
                )
            if self.agg == "count":
                return float(instrument.count), False
            if self.agg == "mean":
                return float(instrument.mean), False
            if self.agg == "max":
                return float(instrument.max if instrument.count else 0.0), False
            return float(instrument.quantile(
                {"p50": 0.50, "p95": 0.95, "p99": 0.99}[self.agg])), False
        if self.agg not in ("value", "rate", "max", "count"):
            raise ConfigError(
                f"SLO rule {self.name!r}: {self.agg} needs a histogram, "
                f"but {self.target!r} is a {instrument.kind}"
            )
        # For counters/gauges value, rate, and count all read the scalar
        # (rate(serve.jobs_shed) == 0 <=> total over the run == 0); max
        # reads a gauge's tracked maximum.
        if self.agg == "max" and instrument.kind == "gauge":
            return float(instrument.max), False
        return float(instrument.value), False

    def check(self, registry: MetricsRegistry) -> dict[str, Any]:
        """One verdict row: observed value, pass/fail, missing flag."""
        observed, missing = self.observe(registry)
        threshold = float(self.threshold)
        ok = {
            "<": observed < threshold,
            "<=": observed <= threshold,
            ">": observed > threshold,
            ">=": observed >= threshold,
            "==": observed == threshold,
            "!=": observed != threshold,
        }[self.op]
        return {
            "name": self.name,
            "metric": self.metric,
            "agg": self.agg,
            "op": self.op,
            "threshold": threshold,
            "tenant": self.tenant,
            "observed": observed,
            "ok": bool(ok),
            "missing": missing,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "agg": self.agg,
            "op": self.op,
            "threshold": float(self.threshold),
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SloRule":
        if not isinstance(payload, dict):
            raise ConfigError("SLO rule must be a JSON object")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"malformed SLO rule: {exc}") from None


def default_slo_rules() -> tuple[SloRule, ...]:
    """The objectives every farm is held to unless a rules file says
    otherwise: bounded tail latency, no load shedding, no blown
    per-job deadlines."""
    return (
        SloRule(name="job-latency-p99", metric="serve.job_latency_us",
                agg="p99", op="<", threshold=3e8),
        SloRule(name="no-shedding", metric="serve.jobs_shed",
                agg="rate", op="==", threshold=0.0),
        SloRule(name="no-deadline-timeouts", metric="serve.deadline_timeouts",
                agg="value", op="==", threshold=0.0),
    )


def load_slo_rules(path: str) -> tuple[SloRule, ...]:
    """Load a declarative rules file: ``{"version": 1, "rules": [...]}``."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load SLO rules {path!r}: {exc}") from None
    if not isinstance(payload, dict) or "rules" not in payload:
        raise ConfigError(
            f"{path}: SLO rules must be an object with a 'rules' array")
    version = payload.get("version", TELEMETRY_VERSION)
    if version != TELEMETRY_VERSION:
        raise ConfigError(
            f"{path}: SLO rules version {version!r} is not supported "
            f"(this build reads version {TELEMETRY_VERSION})"
        )
    rules = payload["rules"]
    if not isinstance(rules, list) or not rules:
        raise ConfigError(f"{path}: SLO rules needs a non-empty 'rules' array")
    parsed = tuple(SloRule.from_dict(rule) for rule in rules)
    names = [rule.name for rule in parsed]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: duplicate SLO rule names in {names}")
    return parsed


class SloEngine:
    """Evaluates a rule set against the live farm view.

    ``evaluate`` returns the full verdict object (the artifact format)
    and remembers which rules were already violated, so the caller can
    emit one ``slo_violation`` trace instant per rule *transition*
    instead of one per polling tick.
    """

    def __init__(self, rules: Sequence[SloRule]) -> None:
        self.rules = tuple(rules)
        self.evaluations = 0
        self._violated: set[str] = set()

    def evaluate(self, registry: MetricsRegistry) -> dict[str, Any]:
        self.evaluations += 1
        rows = [rule.check(registry) for rule in self.rules]
        violations = [row for row in rows if not row["ok"]]
        return {
            "version": TELEMETRY_VERSION,
            "ok": not violations,
            "evaluations": self.evaluations,
            "rules_total": len(rows),
            "violations": len(violations),
            "rules": rows,
        }

    def new_violations(self, verdict: dict[str, Any]) -> list[dict[str, Any]]:
        """Rows that flipped to violating since the previous call."""
        fresh = []
        now_violated = set()
        for row in verdict["rules"]:
            if row["ok"]:
                continue
            now_violated.add(row["name"])
            if row["name"] not in self._violated:
                fresh.append(row)
        self._violated = now_violated
        return fresh


# ----------------------------------------------------------------------
# The farm timeline recorder
# ----------------------------------------------------------------------


class FarmTraceRecorder:
    """Controller-side Chrome trace: spans, instants, counter tracks.

    All timestamps are wall microseconds relative to farm start, so
    the farm timeline and the (offset) per-job simulator traces share
    one clock in the merged view.  The event list is bounded; overflow
    increments ``dropped`` rather than growing without bound.
    """

    #: Lane (tid) layout: admission queue plus one lane per worker.
    ADMISSION_TID = 1
    WORKER_TID0 = 10

    def __init__(self, trace_id: str, workers: int,
                 max_events: int = MAX_TRACE_EVENTS) -> None:
        self.trace_id = trace_id
        self.max_events = max_events
        self.events: list[dict[str, Any]] = []
        self.dropped = 0
        self._lanes: dict[int, str] = {self.ADMISSION_TID: "admission"}
        for w in range(workers):
            self._lanes[self.WORKER_TID0 + w] = f"worker {w}"

    def worker_tid(self, worker_id: int) -> int:
        return self.WORKER_TID0 + worker_id

    def _append(self, event: dict[str, Any]) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def span(self, name: str, ts_us: float, dur_us: float, tid: int,
             args: dict[str, Any]) -> None:
        self._append({
            "name": name, "ph": "X", "ts": ts_us,
            "dur": max(0.0, dur_us), "pid": 0, "tid": tid, "args": args,
        })

    def instant(self, name: str, ts_us: float, tid: int,
                args: dict[str, Any]) -> None:
        self._append({
            "name": name, "ph": "i", "s": "t", "ts": ts_us,
            "pid": 0, "tid": tid, "args": args,
        })

    def counter(self, name: str, ts_us: float, value: float) -> None:
        self._append({
            "name": name, "ph": "C", "ts": ts_us, "pid": 0,
            "args": {"value": value},
        })

    def chrome(self) -> dict[str, Any]:
        """The recorder's own segment, in the exporter's trace format."""
        meta: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": f"repro-farm [{self.trace_id}]"},
        }]
        for tid in sorted(self._lanes):
            meta.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": self._lanes[tid]},
            })
        body = sorted(self.events, key=lambda ev: ev["ts"])
        return {
            "traceEvents": meta + body,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_id": self.trace_id,
                "emitted": len(self.events) + self.dropped,
                "dropped": self.dropped,
            },
        }


# ----------------------------------------------------------------------
# The controller facade
# ----------------------------------------------------------------------


class FarmTelemetry:
    """Everything the farm controller drives, behind enabled checks.

    The controller calls the ``on_*`` hooks at its state transitions
    and :meth:`poll` at the end of every tick; every hook is a no-op
    when telemetry is disabled, so the farm's control flow never
    branches on telemetry state.  ``state_fn`` supplies the live farm
    summary (queue depth, busy workers, job counts) for snapshots.
    """

    def __init__(self, config: TelemetryConfig, workdir: str | Path,
                 workers: int, serve_metrics: MetricsRegistry,
                 state_fn: Callable[[], dict[str, Any]] | None = None) -> None:
        self.config = config
        self.enabled = config.enabled
        self.workdir = Path(workdir)
        self.workers = workers
        self.serve_metrics = serve_metrics
        self.state_fn = state_fn or (lambda: {})
        self.trace_id = uuid.uuid4().hex[:12]
        self.aggregator = TelemetryAggregator()
        self.engine = SloEngine(config.slo_rules
                                if config.slo_rules is not None
                                else default_slo_rules())
        self.recorder = FarmTraceRecorder(self.trace_id, workers)
        self.traces_dir = self.workdir / "traces"
        self.snapshot_path = self.workdir / "telemetry.json"
        if self.enabled and config.job_traces:
            self.traces_dir.mkdir(parents=True, exist_ok=True)
        self.registry = MetricsRegistry()
        for name in TELEMETRY_METRIC_NAMES:
            if name in ("telemetry.instruments", "telemetry.tenants"):
                self.registry.gauge(name).set(0.0)
            else:
                self.registry.counter(name)
        for name in SLO_METRIC_NAMES:
            if name == "slo.rules":
                self.registry.gauge(name).set(float(len(self.engine.rules)))
            else:
                self.registry.counter(name)
        self._t0 = time.monotonic()
        self._queued_at: dict[str, float] = {}
        self._running: dict[str, tuple[int, float, int]] = {}
        self._dispatch_offset: dict[tuple[str, int], float] = {}
        self._tenant_jobs: dict[str, dict[str, int]] = {}
        self._last_flush = float("-inf")
        self._last_verdict: dict[str, Any] | None = None

    # -- clock ---------------------------------------------------------

    def now_us(self, now_s: float | None = None) -> float:
        return ((time.monotonic() if now_s is None else now_s)
                - self._t0) * 1e6

    # -- wiring --------------------------------------------------------

    def worker_args(self) -> dict | None:
        return self.config.worker_args(str(self.traces_dir))

    def dispatch_context(self, job_id: str, attempt: int) -> dict[str, Any]:
        """The correlation fields carried by one dispatch message."""
        if not self.enabled:
            return {"trace_id": None, "parent_span": None}
        return {
            "trace_id": self.trace_id,
            "parent_span": f"{self.trace_id}/{job_id}.a{attempt}",
        }

    # -- controller hooks ----------------------------------------------

    def _tenant_row(self, tenant: str) -> dict[str, int]:
        return self._tenant_jobs.setdefault(
            tenant, {"jobs": 0, "done": 0, "failed_attempts": 0})

    def on_submit(self, record, now_s: float) -> None:
        if not self.enabled:
            return
        self._queued_at[record.spec.job_id] = self.now_us(now_s)
        self._tenant_row(record.spec.tenant)["jobs"] += 1

    def on_dispatch(self, record, worker_id: int, now_s: float) -> None:
        if not self.enabled:
            return
        ts = self.now_us(now_s)
        job_id = record.spec.job_id
        queued = self._queued_at.pop(job_id, None)
        if queued is not None:
            self.recorder.span(
                "queued", queued, ts - queued, self.recorder.ADMISSION_TID,
                {"job_id": job_id, "tenant": record.spec.tenant,
                 "priority": record.spec.priority, "attempt": record.attempts})
            self._count_span()
        self._running[job_id] = (worker_id, ts, record.attempts)
        self._dispatch_offset[(job_id, record.attempts)] = ts
        self.recorder.instant(
            "dispatch", ts, self.recorder.worker_tid(worker_id),
            {"job_id": job_id, "attempt": record.attempts,
             "tenant": record.spec.tenant, "resume": record.resume,
             "parent_span": f"{self.trace_id}/{job_id}.a{record.attempts}"})
        self._count_instant()

    def _close_running(self, job_id: str, now_us: float,
                       args: dict[str, Any]) -> int | None:
        entry = self._running.pop(job_id, None)
        if entry is None:
            return None
        worker_id, started, attempt = entry
        self.recorder.span(
            "running", started, now_us - started,
            self.recorder.worker_tid(worker_id),
            {"job_id": job_id, "attempt": attempt, **args})
        self._count_span()
        return worker_id

    def on_terminal(self, record, state: str, now_s: float) -> None:
        """A job reached done/quarantined/shed."""
        if not self.enabled:
            return
        ts = self.now_us(now_s)
        job_id = record.spec.job_id
        tenant = record.spec.tenant
        worker_id = self._close_running(job_id, ts, {"outcome": state})
        queued = self._queued_at.pop(job_id, None)
        if queued is not None:
            # Quarantined from the queue or shed: close the queue span.
            self.recorder.span(
                "queued", queued, ts - queued, self.recorder.ADMISSION_TID,
                {"job_id": job_id, "tenant": tenant, "outcome": state})
            self._count_span()
        tid = (self.recorder.worker_tid(worker_id) if worker_id is not None
               else self.recorder.ADMISSION_TID)
        name = {"done": "done", "quarantined": "quarantined",
                "shed": "shed"}.get(state, "failed")
        self.recorder.instant(name, ts, tid, {
            "job_id": job_id, "tenant": tenant,
            "attempts": record.attempts, "latency_s": record.latency_s})
        self._count_instant()
        if state == "done":
            self._tenant_row(tenant)["done"] += 1

    def on_attempt_failed(self, record, reason: str, now_s: float,
                          retry: bool = True) -> None:
        """One failed attempt: count it for the tenant and, when the job
        will retry, close its span and note the retry.  (The attempt
        that quarantines the job keeps its span for ``on_terminal``.)"""
        if not self.enabled:
            return
        self._tenant_row(record.spec.tenant)["failed_attempts"] += 1
        if not retry:
            return
        ts = self.now_us(now_s)
        job_id = record.spec.job_id
        self._close_running(job_id, ts, {"outcome": "failed"})
        self._queued_at.setdefault(job_id, ts)
        self.recorder.instant(
            "retry", ts, self.recorder.ADMISSION_TID,
            {"job_id": job_id, "attempt": record.attempts, "reason": reason})
        self._count_instant()

    def on_preempt(self, record, now_s: float) -> None:
        if not self.enabled:
            return
        ts = self.now_us(now_s)
        job_id = record.spec.job_id
        self._close_running(job_id, ts, {"outcome": "preempted"})
        self._queued_at.setdefault(job_id, ts)
        self.recorder.instant(
            "preempted", ts, self.recorder.ADMISSION_TID,
            {"job_id": job_id, "attempt": record.attempts,
             "tenant": record.spec.tenant})
        self._count_instant()

    def on_recover(self, readmitted: int, now_s: float) -> None:
        """One controller recovery: the ledger was replayed into a new
        controller and ``readmitted`` unfinished jobs went back in the
        queue (docs/serving.md, *Controller failure & recovery*)."""
        if not self.enabled:
            return
        self.recorder.instant(
            "recover", self.now_us(now_s), self.recorder.ADMISSION_TID,
            {"readmitted": readmitted})
        self._count_instant()

    def on_strike(self, worker_id: int, op: str, now_s: float) -> None:
        if not self.enabled:
            return
        self.recorder.instant(
            "worker_kill" if op == "kill" else "worker_stall",
            self.now_us(now_s), self.recorder.worker_tid(worker_id),
            {"op": op, "phase": "strike"})
        self._count_instant()

    def on_worker_failed(self, worker_id: int, kind: str, detail: str,
                         now_s: float) -> None:
        if not self.enabled:
            return
        name = {"died": "worker_died", "stalled": "worker_stall",
                "deadline": "deadline"}.get(kind, "worker_died")
        self.recorder.instant(
            name, self.now_us(now_s), self.recorder.worker_tid(worker_id),
            {"kind": kind, "detail": detail, "phase": "detected"})
        self._count_instant()

    def on_result(self, record, payload: dict[str, Any]) -> None:
        """Fold the telemetry delta a ``done`` attempt's payload carries."""
        if not self.enabled:
            return
        delta = payload.get("telemetry")
        if not isinstance(delta, dict):
            return
        metrics = delta.get("metrics")
        if not isinstance(metrics, dict):
            return
        try:
            folded = self.aggregator.ingest(
                record.spec.job_id, record.spec.tenant, metrics)
        except Exception:
            return  # a torn/alien delta must never take the farm down
        if folded:
            self.registry.counter("telemetry.deltas_folded").inc()

    # -- the polling tick ----------------------------------------------

    def poll(self, now_s: float) -> None:
        """Flush-cadence work: sample counters, write the snapshot,
        evaluate SLOs.  Called at the end of every controller tick."""
        if not self.enabled:
            return
        if now_s - self._last_flush < self.config.flush_every_s:
            return
        self._last_flush = now_s
        ts = self.now_us(now_s)
        state = self.state_fn()
        self.recorder.counter("farm_queue_depth", ts,
                              float(state.get("queue_depth", 0)))
        self.recorder.counter("farm_workers_busy", ts,
                              float(state.get("workers_busy", 0)))
        self.registry.counter("telemetry.trace_events").inc(2)
        for worker_id, age_s in state.get("hb_age_s", {}).items():
            self.recorder.instant(
                "heartbeat_epoch", ts, self.recorder.worker_tid(worker_id),
                {"age_s": round(age_s, 4)})
            self._count_instant()
        self._evaluate_slo(ts)
        self.write_snapshot(now_s, final=False)

    def farm_view(self) -> MetricsRegistry:
        """The combined registry SLOs and snapshots read: the farm's
        own serve.* instruments plus the worker rollup."""
        view = MetricsRegistry()
        view.merge(self.serve_metrics)
        view.merge(self.aggregator.rollup())
        view.merge(self.registry)
        self.registry.gauge("telemetry.instruments").set(float(len(view)))
        self.registry.gauge("telemetry.tenants").set(
            float(len(self._tenant_jobs)))
        return view

    def _evaluate_slo(self, ts_us: float) -> dict[str, Any]:
        verdict = self.engine.evaluate(self.farm_view())
        self.registry.counter("slo.evaluations").inc()
        self.registry.counter("slo.checks").inc(verdict["rules_total"])
        fresh = self.engine.new_violations(verdict)
        for row in fresh:
            self.registry.counter("slo.violations").inc()
            self.recorder.instant(
                "slo_violation", ts_us, self.recorder.ADMISSION_TID,
                {"rule": row["name"], "metric": row["metric"],
                 "agg": row["agg"], "op": row["op"],
                 "threshold": row["threshold"], "observed": row["observed"]})
            self._count_instant()
        self._last_verdict = verdict
        return verdict

    def _count_span(self) -> None:
        self.registry.counter("telemetry.spans").inc()
        self.registry.counter("telemetry.trace_events").inc()

    def _count_instant(self) -> None:
        self.registry.counter("telemetry.instants").inc()
        self.registry.counter("telemetry.trace_events").inc()

    # -- surfaces ------------------------------------------------------

    def tenant_table(self, view: MetricsRegistry) -> dict[str, dict[str, Any]]:
        """Per-tenant rollup: job counts plus tail-stall/latency."""
        table: dict[str, dict[str, Any]] = {}
        for tenant in sorted(self._tenant_jobs):
            row: dict[str, Any] = dict(self._tenant_jobs[tenant])
            stall = labeled_name("obs.stall_latency_us", tenant=tenant)
            if stall in view:
                hist = view.get(stall)
                row["stall_p50_us"] = hist.quantile(0.50)
                row["stall_p95_us"] = hist.quantile(0.95)
                row["stall_p99_us"] = hist.quantile(0.99)
                row["stalls"] = hist.count
            latency = labeled_name("serve.job_latency_us", tenant=tenant)
            if latency in view:
                row["latency_p99_us"] = view.get(latency).quantile(0.99)
            table[tenant] = row
        return table

    def snapshot(self, now_s: float | None = None,
                 final: bool = False) -> dict[str, Any]:
        """The JSON object ``repro top`` renders."""
        view = self.farm_view()
        quantiles = {}
        for name in view.names():
            instrument = view.get(name)
            if isinstance(instrument, Histogram) and "{" not in name:
                quantiles[name] = {
                    "count": instrument.count,
                    "p50": instrument.quantile(0.50),
                    "p95": instrument.quantile(0.95),
                    "p99": instrument.quantile(0.99),
                }
        verdict = self._last_verdict
        if verdict is None:
            verdict = self._evaluate_slo(self.now_us(now_s))
        return {
            "version": TELEMETRY_VERSION,
            "trace_id": self.trace_id,
            "state": "final" if final else "running",
            "updated_s": round((time.monotonic() if now_s is None else now_s)
                               - self._t0, 3),
            "farm": {**self.state_fn(), "workers": self.workers,
                     "jobs_folded": self.aggregator.jobs_folded()},
            "metrics": view.as_dict(),
            "quantiles": quantiles,
            "tenants": self.tenant_table(view),
            "slo": verdict,
        }

    def write_snapshot(self, now_s: float | None = None,
                       final: bool = False) -> None:
        snap = self.snapshot(now_s, final=final)
        # hb_age_s has int keys; JSON wants strings.
        farm = snap["farm"]
        if isinstance(farm.get("hb_age_s"), dict):
            farm["hb_age_s"] = {str(k): v for k, v in farm["hb_age_s"].items()}
        try:
            atomic_write_json(self.snapshot_path, snap)
        except OSError:
            return
        self.registry.counter("telemetry.snapshot_writes").inc()

    def finalize(self, now_s: float | None = None) -> dict[str, Any]:
        """End-of-run flush: final SLO verdict artifact, merged farm
        timeline, and the terminal snapshot.  Returns the summary the
        farm report embeds."""
        if not self.enabled:
            return {"enabled": False}
        if now_s is None:
            now_s = time.monotonic()
        ts = self.now_us(now_s)
        verdict = self._evaluate_slo(ts)
        slo_out = self.config.slo_out or str(self.workdir / "slo_verdict.json")
        atomic_write_json(slo_out, {
            **verdict,
            "trace_id": self.trace_id,
            "rules_source": ("file" if self.config.slo_rules is not None
                             else "default"),
        })
        trace_out = None
        if self.config.trace_out is not None:
            trace_out = self.config.trace_out
            self._write_timeline(trace_out)
        self.write_snapshot(now_s, final=True)
        view = self.farm_view()
        return {
            "enabled": True,
            "trace_id": self.trace_id,
            "jobs_folded": self.aggregator.jobs_folded(),
            "tenants": self.tenant_table(view),
            "slo": verdict,
            "slo_out": slo_out,
            "trace_out": trace_out,
            "snapshot": str(self.snapshot_path),
            "metrics": self.registry.as_dict(),
        }

    def _write_timeline(self, path: str) -> None:
        """Merge the controller segment with every per-job trace file."""
        segments = [{"name": f"repro-farm [{self.trace_id}]",
                     "trace": self.recorder.chrome(), "offset_us": 0.0}]
        try:
            names = sorted(os.listdir(self.traces_dir))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(self.traces_dir / name) as fh:
                    trace = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            stem = name[:-len(".json")]  # "<job_id>.a<attempt>"
            job_id, _, suffix = stem.rpartition(".a")
            try:
                attempt = int(suffix)
            except ValueError:
                job_id, attempt = stem, 0
            offset = self._dispatch_offset.get((job_id, attempt), 0.0)
            segments.append({"name": stem, "trace": trace,
                             "offset_us": offset})
        merged = merge_chrome_traces(segments)
        merged["otherData"]["trace_id"] = self.trace_id
        atomic_write_json(path, merged, sort_keys=False)
