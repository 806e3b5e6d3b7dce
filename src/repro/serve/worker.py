"""The farm worker: one process, one job at a time, always heartbeating.

A worker is deliberately dumb.  It pulls a dispatch message off its
inbox queue, executes the job, writes the outcome as an **atomic** JSON
file into the farm's results directory, and goes back to waiting.  All
policy -- retries, backoff, quarantine, preemption, load shedding --
lives in the controller; all the worker owes the farm is:

* **a heartbeat file**: a daemon thread touches the worker's heartbeat
  file every ``hb_interval_s``.  A SIGSTOPped or dead worker stops
  touching it, and the file's mtime going stale is exactly the signal
  the supervisor's stall detector -- and a recovering controller --
  keys on.
* **torn-write freedom**: results go through
  :func:`repro.ioutil.atomic_write_json`, so a SIGKILL mid-report
  leaves either the complete file or nothing -- the controller never
  parses garbage.  With telemetry on, a ``done`` attempt's metrics ride
  the same result payload; an attempt that never finishes reports none.
* **checkpoint discipline**: ``run`` and ``compare`` jobs checkpoint
  into the job's own directory at a fixed simulated cadence, so a job
  killed here resumes on *another* worker from the newest good snapshot
  and finishes bit-identical to an uninterrupted run (the PR-5
  machinery; ``sweep``/``chaos`` jobs are cheap and deterministic and
  simply restart from scratch).

Communication is one-directional queues in, files out: the worker never
writes to a structure the controller also locks, so killing a worker at
any instant cannot wedge the farm.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any

from repro.errors import ProcessCrash
from repro.ioutil import atomic_write_json

#: Simulated microseconds between checkpoints inside farm jobs.  Small
#: enough that even smoke-footprint jobs write several snapshots before
#: any plausible kill, so preemption almost never replays from scratch.
DEFAULT_CHECKPOINT_EVERY_US = 10_000.0


def result_path(results_dir: str | Path, job_id: str, attempt: int) -> Path:
    """Where the outcome of one attempt of one job lands."""
    return Path(results_dir) / f"{job_id}.a{attempt}.json"


def execute_job(spec, job_dir: Path, resume: bool,
                checkpoint_every_us: float = DEFAULT_CHECKPOINT_EVERY_US,
                observer=None) -> dict[str, Any]:
    """Run one job spec to completion; returns the JSON-ready result.

    Raises :class:`~repro.errors.ProcessCrash` when a plan
    ``process_crash`` fault fires (the controller retries with resume,
    and the shared crash ledger in ``job_dir`` keeps the retry from
    re-dying), and whatever the simulator raises for poison jobs.

    ``observer`` attaches farm telemetry to ``run``/``compare`` jobs
    (live obs.* histograms, plus the per-job trace when it records
    one).  The result payload is computed from a fresh
    ``RunStats.publish`` registry, so it is the same whether the
    observer records a trace or not, at any checkpoint cadence and
    across resumes.  An observed run charges every prefetch in the
    run-time layer's order -- on the chunk kernel for a metrics-only
    observer, through the layer itself when a trace is recorded --
    which adds the same costs in another order than an unobserved run,
    so an observed result may differ in its last bits from an
    unobserved one -- which is why ``observed`` is part of the
    checkpoint signature.
    """
    from repro.apps.registry import get_app
    from repro.checkpoint import CheckpointConfig
    from repro.faults.plan import FaultPlan
    from repro.harness.experiment import (
        compare_app,
        default_data_pages,
        platform_for,
        run_app,
    )
    from repro.obs.metrics import RUN_METRIC_NAMES

    platform = platform_for(spec.memory_pages, spec.disks)
    app = get_app(spec.app)
    plan = FaultPlan.from_dict(spec.faults) if spec.faults else None
    # A kill can land before the first checkpoint of the first attempt,
    # in which case the job directory was never created: resuming then
    # just means starting fresh.
    resume = resume and job_dir.is_dir()
    # compare_app re-labels it per variant (<app>-O, <app>-P).
    checkpoint = CheckpointConfig(
        every_us=checkpoint_every_us, directory=job_dir, label="job",
        resume_from=job_dir if resume else None,
    )

    if spec.kind == "run":
        run = run_app(app, platform, spec.variant, spec.pages or None,
                      spec.seed, spec.warm, observer, plan, checkpoint)
        registry = run.stats.publish()
        return {
            "kind": "run",
            "app": app.name,
            "variant": spec.variant,
            "data_pages": run.data_pages,
            "elapsed_us": run.stats.elapsed_us,
            "metrics": {name: registry.value(name)
                        for name in RUN_METRIC_NAMES},
        }

    if spec.kind == "compare":
        result = compare_app(app, platform, data_pages=spec.pages or None,
                             seed=spec.seed, warm=spec.warm, fault_plan=plan,
                             checkpoint=checkpoint, observer=observer)
        variants = [result.original, result.prefetch]
        return {
            "kind": "compare",
            "app": app.name,
            "data_pages": result.data_pages,
            "speedup": result.speedup,
            "rows": [{"variant": run.variant,
                      "elapsed_us": run.stats.elapsed_us,
                      "stall_us": run.stats.times.idle}
                     for run in variants],
        }

    if spec.kind == "sweep":
        rows = []
        for multiple in spec.multiples:
            sweep_pages = default_data_pages(platform, multiple)
            point = compare_app(app, platform, data_pages=sweep_pages,
                                seed=spec.seed, warm=spec.warm)
            rows.append({"multiple": multiple,
                         "data_pages": sweep_pages,
                         "original_us": point.original.elapsed_us,
                         "prefetch_us": point.prefetch.elapsed_us,
                         "speedup": point.speedup})
        return {"kind": "sweep", "app": app.name, "rows": rows}

    # spec.kind == "chaos" (JobSpec validated the kind at admission).
    from repro.faults.chaos import chaos_report_dict, chaos_sweep

    report = chaos_sweep(app, platform, base_plan=plan,
                         intensities=spec.intensities,
                         data_pages=spec.pages or None,
                         seed=spec.seed, variant=spec.variant)
    return chaos_report_dict(report)


def _heartbeat_loop(hb_path: str, interval_s: float) -> None:
    """Touch the heartbeat file every ``interval_s`` (the spawning pool
    touched it just before this process started)."""
    path = Path(hb_path)
    while True:
        time.sleep(interval_s)
        try:
            path.touch()
        except OSError:
            pass


def worker_main(worker_id: int, inbox, hb_path: str, results_dir: str,
                ckpt_root: str, hb_interval_s: float,
                telemetry: dict | None = None) -> None:
    """Worker process entry point (the multiprocessing target).

    ``telemetry`` (from :meth:`repro.obs.telemetry.TelemetryConfig.
    worker_args`) turns on per-job observers: a ``done`` attempt's
    metrics ride its result payload.  Only with ``traces_dir`` set do
    the observers record a trace: each attempt's Chrome trace lands
    there for the merged farm timeline.
    """
    from repro.serve.jobspec import JobSpec

    threading.Thread(
        target=_heartbeat_loop, args=(hb_path, hb_interval_s),
        name=f"heartbeat-{worker_id}", daemon=True,
    ).start()
    results = Path(results_dir)
    while True:
        try:
            message = inbox.get()
        except (EOFError, OSError):  # controller went away
            return
        if message is None:  # drain sentinel
            return
        spec = JobSpec.from_dict(message["spec"])
        attempt = message["attempt"]
        job_dir = Path(ckpt_root) / spec.job_id
        observer = None
        if telemetry is not None:
            from repro.obs.observer import Observer

            observer = Observer(
                record_trace=bool(telemetry.get("traces_dir")))
        payload: dict[str, Any] = {
            "job_id": spec.job_id,
            "attempt": attempt,
            "worker": worker_id,
            "trace_id": message.get("trace_id"),
            "parent_span": message.get("parent_span"),
        }
        start = time.perf_counter()
        try:
            result = execute_job(spec, job_dir, resume=message["resume"],
                                 observer=observer)
            payload.update(state="done", result=result)
        except ProcessCrash as crash:
            # A planned in-simulation process death: retryable, and the
            # job's crash ledger already advanced, so the resumed
            # attempt will run past it.
            payload.update(state="crashed", error=str(crash))
        except BaseException as exc:  # noqa: BLE001 -- poison jobs may raise anything
            payload.update(state="failed",
                           error=f"{type(exc).__name__}: {exc}")
        payload["wall_s"] = round(time.perf_counter() - start, 4)
        if observer is not None:
            if payload["state"] == "done":
                payload["telemetry"] = {"metrics": observer.metrics.as_dict()}
            if telemetry.get("traces_dir"):
                _write_job_trace(telemetry["traces_dir"], spec.job_id,
                                 attempt, observer, payload)
        atomic_write_json(result_path(results, spec.job_id, attempt), payload)


def _write_job_trace(traces_dir: str, job_id: str, attempt: int,
                     observer, payload: dict) -> None:
    """One attempt's Chrome trace segment, written whatever the outcome
    (a crashed attempt's partial trace is exactly what the farm
    timeline needs to show)."""
    from repro.obs.export import chrome_trace

    try:
        trace = chrome_trace(observer.trace,
                             process_name=f"{job_id}.a{attempt}")
        trace["otherData"]["trace_id"] = payload.get("trace_id")
        trace["otherData"]["parent_span"] = payload.get("parent_span")
        atomic_write_json(
            Path(traces_dir) / f"{job_id}.a{attempt}.json", trace,
            sort_keys=False)
    except Exception:  # noqa: BLE001 -- traces are best-effort artifacts
        return
