"""The farm controller: admission, dispatch, and failure policy.

One :class:`Farm` owns the whole supervised-job-farm story:

* **admission** (:meth:`Farm.submit`): bounded queue, priority-based
  eviction, explicit ``shed`` results under overload;
* **dispatch**: strict priority order, FIFO within a band, retry
  backoff honored, and **checkpoint-driven preemption** -- when a
  higher-priority job is ready and every worker is busy, the
  lowest-priority running job's worker is killed and the job requeued
  to resume from its newest checkpoint on whichever worker frees up;
* **failure policy**: every involuntary worker death (chaos SIGKILL,
  a stale heartbeat file, blown per-job deadline, real crash) costs
  the job one attempt and schedules a retry with exponential backoff +
  jitter; after ``max_attempts`` failures the job is **quarantined**
  (poison);
* **degradation accounting**: the ``serve.*`` metrics registry
  (documented in docs/serving.md, linted by ``scripts/check_docs.py``).

The controller is one polling loop over a
:class:`~repro.serve.supervisor.WorkerPool` of real processes: each
:meth:`Farm._tick` collects results, supervises workers, dispatches,
then flushes telemetry.  All controller state lives in one thread, so
nothing needs a lock; all worker state arrives as atomically written
files, so worker death at any instant cannot corrupt the controller's
view.  An exception in a tick stops the farm with the pool shut down.
Termination is guaranteed: every job's attempts are bounded, every
attempt's wall time is bounded by its deadline, and an optional
farm-wide ``max_wall_s`` quarantines whatever is left.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ConfigError
from repro.faults.farm import FarmChaosPlan
from repro.obs.metrics import MetricsRegistry, labeled_name
from repro.obs.telemetry import FarmTelemetry, TelemetryConfig
from repro.serve.jobspec import JobRecord, JobSpec, JobState
from repro.checkpoint import has_resumable_checkpoint
from repro.serve.ledger import (
    LEDGER_VERSION,
    LIVENESS_NAME,
    JobLedger,
    clear_liveness,
    controller_alive,
    fold_ledger,
    ledger_path,
    read_ledger,
    recovery_plan,
    result_digest,
    write_liveness,
)
from repro.serve.queue import AdmissionQueue
from repro.serve.retry import RetryPolicy
from repro.serve.supervisor import (
    WorkerHandle,
    WorkerPool,
    cleanup_worker_state,
    heartbeat_age,
    pid_alive,
    scan_worker_state,
    worker_state_paths,
)
from repro.serve.worker import result_path

#: Bucket bounds for the job-latency histogram (microseconds of wall
#: time from admission to terminal state: 10 ms ... 5 min).
JOB_LATENCY_BOUNDS_US: tuple[float, ...] = (
    1e4, 1e5, 1e6, 5e6, 1e7, 3e7, 6e7, 3e8,
)

#: Seconds the controller sleeps between ticks.
POLL_S = 0.02


@dataclass(frozen=True)
class FarmConfig:
    """Everything ``repro serve submit`` tunes."""

    workers: int = 4
    queue_depth: int = 64
    hb_interval_s: float = 0.05
    hb_timeout_s: float = 5.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    preemption: bool = True
    #: Farm-wide drain deadline (None = unbounded).  On expiry every
    #: outstanding job is quarantined -- the "never hung" backstop.
    max_wall_s: float | None = None
    #: Farm telemetry: aggregation, tracing, SLOs (docs/observability.md).
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"need >= 1 worker, got {self.workers}")
        if self.queue_depth < 1:
            raise ConfigError(f"queue depth must be >= 1, got {self.queue_depth}")
        if self.max_wall_s is not None and self.max_wall_s <= 0:
            raise ConfigError(f"max_wall_s must be > 0, got {self.max_wall_s}")


@dataclass
class FarmReport:
    """What one farm run did: every record terminal, plus the metrics."""

    records: list[JobRecord]
    metrics: MetricsRegistry
    wall_s: float
    #: :meth:`repro.obs.telemetry.FarmTelemetry.finalize` summary (per-
    #: tenant rollups, SLO verdict, artifact paths).
    telemetry: dict[str, Any] | None = None

    def counts(self) -> dict[str, int]:
        counts = {state: 0 for state in
                  (JobState.DONE, JobState.QUARANTINED, JobState.SHED)}
        for record in self.records:
            counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    @property
    def all_terminal(self) -> bool:
        return all(record.terminal for record in self.records)

    @property
    def all_done(self) -> bool:
        return all(record.state == JobState.DONE for record in self.records)

    def p99_latency_s(self) -> float:
        hist = self.metrics.get("serve.job_latency_us")
        return hist.quantile(0.99) / 1e6

    def to_dict(self) -> dict[str, Any]:
        counts = self.counts()
        return {
            "version": 1,
            "summary": {
                "jobs": len(self.records),
                "done": counts[JobState.DONE],
                "quarantined": counts[JobState.QUARANTINED],
                "shed": counts[JobState.SHED],
                "retries": int(self.metrics.value("serve.retries")),
                "preemptions": int(self.metrics.value("serve.preemptions")),
                "worker_restarts": int(
                    self.metrics.value("serve.worker_restarts")),
                "p99_latency_s": round(self.p99_latency_s(), 4),
                "wall_s": round(self.wall_s, 4),
            },
            "jobs": [record.to_dict() for record in self.records],
            "metrics": self.metrics.as_dict(),
            "telemetry": self.telemetry,
        }


class Farm:
    """One supervised simulation job farm (see module docstring)."""

    def __init__(self, config: FarmConfig, workdir: str | Path,
                 chaos: FarmChaosPlan | None = None) -> None:
        self.config = config
        self.workdir = Path(workdir)
        self.results_dir = self.workdir / "results"
        self.ckpt_root = self.workdir / "ckpt"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.ckpt_root.mkdir(parents=True, exist_ok=True)
        self.chaos = chaos
        self.queue = AdmissionQueue(config.queue_depth)
        self.records: list[JobRecord] = []
        self._seq = 0
        self._starts = 0
        # Write-ahead ledger: every transition is journaled before it is
        # applied in memory, so a controller SIGKILLed at any instant
        # leaves a replayable record (docs/serving.md).
        self.state_dir = self.workdir / "workers"
        self.ledger = JobLedger(self.workdir)
        self._controller_strikes: list[float] = []
        self.metrics = MetricsRegistry()
        # Register every serve.* instrument up front so the artifact
        # carries the full documented set even when a counter stays 0.
        from repro.obs.metrics import SERVE_METRIC_NAMES

        for name in SERVE_METRIC_NAMES:
            if name == "serve.job_latency_us":
                self.metrics.histogram(name, bounds=JOB_LATENCY_BOUNDS_US)
            elif name in ("serve.queue_depth", "serve.workers_busy"):
                self.metrics.gauge(name).set(0.0)
            else:
                self.metrics.counter(name)
        self.telemetry = FarmTelemetry(
            config.telemetry, self.workdir, config.workers, self.metrics,
            state_fn=self._state_summary,
        )
        self.pool = WorkerPool(
            config.workers, self.results_dir, self.ckpt_root, self.state_dir,
            hb_interval_s=config.hb_interval_s,
            hb_timeout_s=config.hb_timeout_s,
            telemetry=self.telemetry.worker_args(),
        )

    def _journal(self, kind: str, **fields) -> None:
        """Write-ahead: journal one transition before applying it."""
        self.ledger.append(kind, **fields)
        self.metrics.counter("serve.ledger_records").inc()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, specs: Sequence[JobSpec]) -> list[JobRecord]:
        """Admit a batch; sheds are resolved immediately and explicitly."""
        now = time.monotonic()
        admitted: list[JobRecord] = []
        for spec in specs:
            self._seq += 1
            if not spec.job_id:
                spec = spec.with_id(f"job-{self._seq:04d}")
            self._journal("admitted", job=spec.job_id, seq=self._seq,
                          spec=spec.to_dict())
            record = JobRecord(spec=spec, submitted_at=now, seq=self._seq)
            self.records.append(record)
            self.metrics.counter("serve.jobs_submitted").inc()
            self.telemetry.on_submit(record, now)
            if self.queue.offer(record):
                admitted.append(record)
            for shed in self.queue.shed:
                self._finish(shed, JobState.SHED,
                             "shed by admission control (queue full)")
            self.queue.shed.clear()
        return admitted

    # ------------------------------------------------------------------
    # Terminal transitions
    # ------------------------------------------------------------------

    def _finish(self, record: JobRecord, state: str,
                reason: str | None = None, journal: bool = True) -> None:
        # journal=False replays a terminal state that an earlier
        # generation already journaled (recovery's idempotent fold).
        if journal:
            if state == JobState.DONE:
                self._journal("done", job=record.spec.job_id,
                              attempt=record.attempts,
                              digest=result_digest(record.result))
            elif state == JobState.QUARANTINED:
                self._journal("quarantined", job=record.spec.job_id,
                              reason=reason)
            else:
                self._journal("shed", job=record.spec.job_id, reason=reason)
        record.state = state
        record.finished_at = time.monotonic()
        if reason is not None:
            record.failures.append(reason)
        if state == JobState.DONE:
            self.metrics.counter("serve.jobs_done").inc()
        elif state == JobState.QUARANTINED:
            self.metrics.counter("serve.jobs_quarantined").inc()
        else:
            self.metrics.counter("serve.jobs_shed").inc()
        latency_us = max(0.0, record.latency_s) * 1e6
        # Every terminal state lands in the base family plus its
        # per-state and per-tenant labeled children, so shed and
        # quarantined jobs are visible in the latency distribution and
        # tenants get their own tail (docs/observability.md).
        for name in (
            "serve.job_latency_us",
            labeled_name("serve.job_latency_us", state=state),
            labeled_name("serve.job_latency_us", tenant=record.spec.tenant),
        ):
            self.metrics.histogram(
                name, bounds=JOB_LATENCY_BOUNDS_US).observe(latency_us)
        self.telemetry.on_terminal(record, state, record.finished_at)

    def _register_failure(self, record: JobRecord, reason: str,
                          resume: bool) -> None:
        """One failed attempt: quarantine or schedule the backoff retry."""
        now = time.monotonic()
        if record.attempts >= record.spec.max_attempts:
            record.failures.append(reason)
            record.worker = None
            self.metrics.counter("serve.jobs_failed_attempts").inc()
            self.telemetry.on_attempt_failed(record, reason, now, retry=False)
            self._finish(
                record, JobState.QUARANTINED,
                f"quarantined after {record.attempts} failed attempts",
            )
            return
        delay = self.config.retry.delay_s(record.spec.job_id, record.attempts)
        self._journal("retry_scheduled", job=record.spec.job_id,
                      attempt=record.attempts, resume=resume,
                      delay_s=delay, reason=reason)
        record.failures.append(reason)
        record.worker = None
        self.metrics.counter("serve.jobs_failed_attempts").inc()
        record.state = JobState.PENDING
        record.resume = resume
        record.eligible_at = now + delay
        record.retries += 1
        self.metrics.counter("serve.retries").inc()
        self.telemetry.on_attempt_failed(record, reason, now)
        self.queue.requeue(record)

    # ------------------------------------------------------------------
    # Result intake
    # ------------------------------------------------------------------

    def _consume_result(self, handle: WorkerHandle) -> bool:
        """Fold the worker's current job's result file in, if written."""
        record = handle.job
        if record is None:
            return False
        path = result_path(self.results_dir, record.spec.job_id,
                           record.attempts)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return False
        except (OSError, json.JSONDecodeError):
            # Cannot happen with the atomic writer; treat a damaged file
            # as a failed attempt rather than crashing the farm.
            payload = {"state": "failed", "error": "unreadable result file"}
        handle.job = None
        handle.strikes.clear()
        self._fold_result_payload(record, payload)
        return True

    def _fold_result_payload(self, record: JobRecord, payload: dict) -> None:
        """Apply one result-file payload to its record (shared with
        recovery's orphan adoption, which folds the same files)."""
        state = payload.get("state")
        if state == "done":
            record.result = payload.get("result")
            record.worker = payload.get("worker")
            self.telemetry.on_result(record, payload)
            self._finish(record, JobState.DONE)
        elif state == "crashed":
            # Planned in-simulation crash: retry resumes past it via the
            # job's checkpoint directory and crash ledger.
            self._register_failure(
                record, payload.get("error", "process crash"), resume=True)
        else:
            self._register_failure(
                record, payload.get("error", "job failed"), resume=False)

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        """One controller pass: collect, supervise, dispatch, flush."""
        for handle in self.pool.busy_workers():
            self._consume_result(handle)
        now = time.monotonic()
        # A due controller strike is an *unannounced* death -- no
        # journal record, no telemetry -- exactly like a real crash.
        if self._controller_strikes and min(self._controller_strikes) <= now:
            os.kill(os.getpid(), signal.SIGKILL)
        # Fire due chaos strikes (armed at dispatch time).
        for handle in self.pool.busy_workers():
            due = [s for s in handle.strikes if s[0] <= now]
            if not due:
                continue
            handle.strikes = [s for s in handle.strikes if s[0] > now]
            for _, op in due:
                self.pool.strike(handle, op)
                self.metrics.counter("serve.worker_kills" if op == "kill"
                                     else "serve.worker_stalls").inc()
                self.telemetry.on_strike(handle.worker_id, op, now)
        # Convert every detected worker failure into respawn + retry.
        for handle, kind, detail in self.pool.failed_workers(now):
            if kind == "stalled":
                self.metrics.counter("serve.heartbeat_timeouts").inc()
            elif kind == "deadline":
                self.metrics.counter("serve.deadline_timeouts").inc()
            self.telemetry.on_worker_failed(handle.worker_id, kind, detail, now)
            # The worker may have finished the job and died after
            # writing its result; believe the file over the corpse.
            self._consume_result(handle)
            job = self.pool.reap(handle)
            self.metrics.counter("serve.worker_restarts").inc()
            if job is not None:
                self._register_failure(
                    job, f"worker {handle.worker_id} {kind}: {detail}",
                    resume=True)
        # A reap can block for seconds, so dispatch reads the clock anew.
        now = time.monotonic()
        if self.config.preemption and not self.pool.idle_workers():
            self._maybe_preempt(now)
        for handle in self.pool.idle_workers():
            record = self.queue.pop_ready(now)
            if record is None:
                break
            self._dispatch(handle, record, now)
        # Flush last, so a snapshot shows this tick's dispatches.
        self._update_gauges()
        self.telemetry.poll(time.monotonic())

    def _maybe_preempt(self, now: float) -> None:
        """Kill the lowest-priority running job for a higher-priority one."""
        top = self.queue.peek_ready_priority(now)
        if top is None:
            return
        busy = [h for h in self.pool.busy_workers() if h.job is not None]
        if not busy:
            return
        victim = min(busy, key=lambda h: (h.job.spec.priority, -h.job.seq))
        if victim.job.spec.priority >= top:
            return
        if self._consume_result(victim):
            return  # finished in the nick of time; dispatch reuses it
        self._journal("preempted", job=victim.job.spec.job_id)
        job = self.pool.reap(victim)
        self.metrics.counter("serve.worker_restarts").inc()
        if job is None:
            return
        job.state = JobState.PENDING
        job.resume = True
        job.preemptions += 1
        job.worker = None
        self.metrics.counter("serve.preemptions").inc()
        self.telemetry.on_preempt(job, now)
        self.queue.requeue(job)

    def _dispatch(self, handle: WorkerHandle, record: JobRecord,
                  now: float) -> None:
        self._journal("dispatched", job=record.spec.job_id,
                      attempt=record.attempts + 1,
                      worker=handle.worker_id, resume=record.resume)
        record.attempts += 1
        record.state = JobState.RUNNING
        record.worker = handle.worker_id
        if record.started_at == 0.0:
            record.started_at = now
        if record.resume:
            self.metrics.counter("serve.resumes").inc()
        handle.job = record
        handle.dispatched_at = now
        self._starts += 1
        if self.chaos is not None:
            fault = self.chaos.for_start(self._starts)
            if fault is not None:
                if fault.op == "controller_crash":
                    # Aimed at us, not the worker: the tick SIGKILLs
                    # this very process when the timer fires.
                    self._controller_strikes.append(now + fault.delay_s)
                else:
                    handle.strikes.append((now + fault.delay_s, fault.op))
        self.telemetry.on_dispatch(record, handle.worker_id, now)
        handle.inbox.put({
            "spec": record.spec.to_dict(),
            "attempt": record.attempts,
            "resume": record.resume,
            **self.telemetry.dispatch_context(record.spec.job_id,
                                              record.attempts),
        })

    def _update_gauges(self) -> None:
        self.metrics.gauge("serve.queue_depth").set(float(len(self.queue)))
        self.metrics.gauge("serve.workers_busy").set(
            float(len(self.pool.busy_workers())))

    def _state_summary(self) -> dict[str, Any]:
        """Live farm state for telemetry snapshots and ``repro top``."""
        counts = {JobState.DONE: 0, JobState.QUARANTINED: 0,
                  JobState.SHED: 0, JobState.RUNNING: 0, JobState.PENDING: 0}
        for record in self.records:
            counts[record.state] = counts.get(record.state, 0) + 1
        busy = self.pool.busy_workers()
        ages = ((h.worker_id, self.pool.hb_age(h)) for h in busy)
        return {
            "jobs": len(self.records),
            "done": counts[JobState.DONE],
            "quarantined": counts[JobState.QUARANTINED],
            "shed": counts[JobState.SHED],
            "running": counts[JobState.RUNNING],
            "pending": counts[JobState.PENDING],
            "queue_depth": len(self.queue),
            "workers_busy": len(busy),
            "hb_age_s": {worker_id: age for worker_id, age in ages
                         if age is not None},
        }

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def recover(self) -> int:
        """Replay a dead controller's ledger into this farm.

        The sequence -- each step idempotent, so a crash *during*
        recovery just means the next recovery starts over:

        1. refuse if a live controller still owns the workdir;
        2. fold the ledger's longest valid prefix into per-job entries
           and derive the deterministic :func:`recovery_plan`;
        3. adopt orphan workers: for each in-flight job whose worker is
           still alive (pidfile + fresh heartbeat file), wait for its
           result file; collect results the dead ones already wrote;
        4. SIGKILL every leftover worker and clear the state dir -- the
           new pool owns all the slots;
        5. compact the ledger (atomic rotate) down to one ``admitted``
           record per job (counters carried) plus terminal records;
        6. fold: completed work re-lands by digest exactly once
           (``journal=False`` -- it is already durable), unfinished
           work is re-admitted with its remaining retry budget and
           seed-derived backoff.

        Returns the number of jobs re-admitted.  Call before
        :meth:`run`; new submissions may follow.
        """
        if controller_alive(self.workdir):
            raise ConfigError(
                f"refusing to recover {self.workdir}: a live controller "
                f"owns it (stale? remove {LIVENESS_NAME})")
        entries = fold_ledger(read_ledger(ledger_path(self.workdir)))
        if not entries:
            raise ConfigError(
                f"nothing to recover in {self.workdir}: the ledger has "
                f"no replayable job records")
        plan = recovery_plan(entries, self.config.retry)

        # 3: orphan adoption.  Result files are believed over process
        # state -- a worker that died *after* writing its result still
        # delivered (the same believe-the-file rule _consume_result uses).
        orphans = {row["worker_id"]: row
                   for row in scan_worker_state(self.state_dir)}
        payloads: dict[str, dict] = {}
        adopted_workers: set[int] = set()
        for item in plan:
            if item["action"] != "adopt":
                continue
            entry = entries[item["job"]]
            payload = self._read_result_file(entry.job_id, entry.attempts)
            if payload is None:
                row = orphans.get(entry.worker)
                if row is not None and row["alive"]:
                    payload = self._await_orphan_result(entry, row)
            if payload is not None:
                payloads[entry.job_id] = payload
                row = orphans.get(entry.worker)
                if row is not None and row["alive"]:
                    adopted_workers.add(entry.worker)
        self.metrics.counter("serve.orphans_adopted").inc(
            float(len(adopted_workers)))
        self.metrics.counter("serve.orphans_reaped").inc(
            float(len(orphans) - len(adopted_workers)))

        # 4: even adopted orphans are killed -- they sit blocked on the
        # dead controller's inbox and their slot is about to be reused.
        cleanup_worker_state(self.state_dir, kill=True)

        # 5: compaction.  One admitted record per job (counters carried
        # forward so a replay of *this* generation reconstructs the same
        # budgets), plus the terminal record for finished jobs.  Jobs
        # whose in-flight attempt produced a result keep that attempt
        # number; voided attempts roll back by one.
        compacted: list[dict] = [{
            "v": LEDGER_VERSION, "t": time.time(),
            "kind": "recovered", "jobs": len(entries),
        }]
        for item in plan:
            entry = entries[item["job"]]
            attempts = entry.attempts
            if item["action"] == "adopt" and entry.job_id not in payloads:
                attempts = entry.attempts - 1
            compacted.append({
                "v": LEDGER_VERSION, "t": time.time(), "kind": "admitted",
                "job": entry.job_id, "seq": entry.seq, "spec": entry.spec,
                "attempts": attempts, "retries": entry.retries,
                "preemptions": entry.preemptions,
            })
            if entry.phase == "done":
                compacted.append({
                    "v": LEDGER_VERSION, "t": time.time(), "kind": "done",
                    "job": entry.job_id, "attempt": entry.attempts,
                    "digest": entry.digest,
                })
            elif entry.terminal:
                compacted.append({
                    "v": LEDGER_VERSION, "t": time.time(),
                    "kind": entry.phase, "job": entry.job_id,
                    "reason": entry.reason,
                })
        self.ledger.rotate(compacted)

        # 6: the idempotent fold.
        now = time.monotonic()
        readmitted = 0
        for item in plan:
            entry = entries[item["job"]]
            spec = JobSpec.from_dict(entry.spec)
            record = JobRecord(
                spec=spec, submitted_at=now, seq=entry.seq,
                attempts=entry.attempts, retries=entry.retries,
                preemptions=entry.preemptions,
                failures=list(entry.failures),
            )
            self.records.append(record)
            self._seq = max(self._seq, entry.seq)
            self.metrics.counter("serve.jobs_submitted").inc()
            self.telemetry.on_submit(record, now)
            action = item["action"]
            if action == "fold_done":
                payload = self._read_result_file(entry.job_id,
                                                 entry.attempts)
                if (payload is not None and payload.get("state") == "done"
                        and result_digest(payload.get("result"))
                        == entry.digest):
                    record.result = payload.get("result")
                    record.worker = payload.get("worker")
                    self.telemetry.on_result(record, payload)
                    self.metrics.counter("serve.results_deduped").inc()
                    self._finish(record, JobState.DONE, journal=False)
                else:
                    # The journal says done but the artifact is gone or
                    # mismatched: re-running a deterministic job is the
                    # safe repair (identical spec => identical bits).
                    record.attempts = 0
                    self._readmit(record, resume=False, delay_s=0.0,
                                  now=now)
                    readmitted += 1
            elif action == "fold_quarantined":
                self._finish(record, JobState.QUARANTINED, entry.reason,
                             journal=False)
            elif action == "fold_shed":
                self._finish(record, JobState.SHED, entry.reason,
                             journal=False)
            elif action == "adopt":
                payload = payloads.get(entry.job_id)
                if payload is not None:
                    record.attempts = item["attempt"]
                    if payload.get("state") == "done":
                        self.metrics.counter("serve.results_deduped").inc()
                    self._fold_result_payload(record, payload)
                else:
                    record.attempts = item["attempt"] - 1
                    self._readmit(
                        record,
                        resume=has_resumable_checkpoint(
                            self.ckpt_root / entry.job_id),
                        delay_s=0.0, now=now)
                    readmitted += 1
            else:  # readmit
                resume = bool(item["resume"]) and has_resumable_checkpoint(
                    self.ckpt_root / entry.job_id)
                self._readmit(record, resume=resume,
                              delay_s=item["delay_s"], now=now)
                readmitted += 1
        self.metrics.counter("serve.recoveries").inc()
        self.telemetry.on_recover(readmitted, time.monotonic())
        return readmitted

    def _read_result_file(self, job_id: str, attempt: int) -> dict | None:
        """One attempt's result payload, or None if absent/unreadable."""
        if attempt < 1:
            return None
        path = result_path(self.results_dir, job_id, attempt)
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def _await_orphan_result(self, entry, row: dict) -> dict | None:
        """Wait for a live orphan worker, ``row`` its worker-state row
        (:func:`scan_worker_state`), to deliver its result file.

        Bounded by the job's own deadline (measured from its journaled
        dispatch time) plus the heartbeat timeout; gives up early when
        the orphan dies (:func:`pid_alive`, the rule the scan applied)
        or its heartbeat file goes stale, with one last read because
        death-right-after-writing still counts.
        """
        spec_timeout = float(entry.spec.get("timeout_s", 120.0))
        budget = entry.dispatched_t + spec_timeout + self.config.hb_timeout_s
        _, hb_path = worker_state_paths(self.state_dir, entry.worker)
        while True:
            payload = self._read_result_file(entry.job_id, entry.attempts)
            if payload is not None:
                return payload
            if time.time() > budget:
                return None
            hb_age = heartbeat_age(hb_path)
            if not pid_alive(row["pid"]) or (
                    hb_age is not None and hb_age > self.config.hb_timeout_s):
                return self._read_result_file(entry.job_id, entry.attempts)
            time.sleep(0.05)

    def _readmit(self, record: JobRecord, resume: bool, delay_s: float,
                 now: float) -> None:
        """Queue one recovered job with its surviving retry backoff."""
        record.state = JobState.PENDING
        record.resume = resume
        record.eligible_at = now + delay_s
        self.metrics.counter("serve.jobs_recovered").inc()
        self.queue.restore([record])

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self) -> FarmReport:
        """Drive every admitted job to a terminal state."""
        started = time.monotonic()
        write_liveness(self.workdir)
        self.pool.start()
        deadline = time.monotonic() + (self.config.max_wall_s or float("inf"))
        try:
            while not all(r.terminal for r in self.records):
                if time.monotonic() >= deadline:
                    self._quarantine_outstanding(
                        f"farm drain deadline ({self.config.max_wall_s:g}s) "
                        f"expired")
                    break
                self._tick()
                if all(r.terminal for r in self.records):
                    break
                time.sleep(POLL_S)
        finally:
            self.pool.shutdown()
        telemetry = self.telemetry.finalize(time.monotonic())
        clear_liveness(self.workdir)
        self.ledger.close()
        return FarmReport(records=self.records, metrics=self.metrics,
                          wall_s=time.monotonic() - started,
                          telemetry=telemetry)

    def _quarantine_outstanding(self, reason: str) -> None:
        for handle in self.pool.busy_workers():
            handle.job = None
        for record in self.queue.drain():
            pass  # drop queue references; records list below is canonical
        for record in self.records:
            if not record.terminal:
                self._finish(record, JobState.QUARANTINED, reason)


def run_farm(specs: Sequence[JobSpec], config: FarmConfig,
             workdir: str | Path,
             chaos: FarmChaosPlan | None = None,
             recover: bool = False) -> FarmReport:
    """Front door: submit a batch, run it to terminal states.

    With ``recover=True`` the dead predecessor's ledger is replayed
    first (:meth:`Farm.recover`); ``specs`` may then add new work on
    top of the re-admitted backlog.
    """
    farm = Farm(config, workdir, chaos=chaos)
    if recover:
        farm.recover()
    if specs:
        farm.submit(specs)
    return farm.run()


def recover_farm(config: FarmConfig, workdir: str | Path,
                 chaos: FarmChaosPlan | None = None) -> FarmReport:
    """``repro serve recover``: replay the ledger, finish the batch."""
    return run_farm([], config, workdir, chaos=chaos, recover=True)
