"""Integration tests for the supervised job farm (real processes).

These spawn real multiprocessing workers and kill them with real
signals.  The invariants pinned here are the farm's whole contract:

* every submitted job ends in a terminal state (done/quarantined/shed)
  -- never hung -- under SIGKILL chaos, SIGSTOP stalls, poison jobs,
  and overload;
* a job whose worker is SIGKILLed (or preempted) mid-run resumes from
  its newest checkpoint on another worker and produces a result
  **bit-identical** to an uninterrupted solo run;
* the documented ``serve.*`` metrics registry is fully populated and
  counts what actually happened.

Footprints are the golden-trace sizes (EMBAR 120 pages / 96 memory
pages ~ 0.5 s; MGRID 480 pages ~ 1 s) so each farm run stays in the
seconds range; strike delays land mid-job on any plausible host.
"""

import os
import time

import pytest

from repro.errors import ExitCode
from repro.faults.farm import FarmChaosPlan, WorkerFault
from repro.obs.metrics import SERVE_METRIC_NAMES
from repro.obs.telemetry import FarmTelemetry
from repro.serve import (
    Farm,
    FarmConfig,
    JobSpec,
    JobState,
    RetryPolicy,
    demo_jobs,
    run_farm,
)
from repro.serve.supervisor import (
    WorkerPool,
    scan_worker_state,
    worker_state_paths,
)
from repro.serve.worker import execute_job

FAST_RETRY = RetryPolicy(base_s=0.01, cap_s=0.05, seed=1)

# A job long enough (~1 s wall on a 2-vCPU host) that a strike 0.3 s
# in reliably lands mid-run, with checkpoints every 10k simulated us to
# resume from.
LONG_RUN = JobSpec(kind="run", app="MGRID", pages=960, memory_pages=96,
                   job_id="long", seed=2)
SHORT_RUN = JobSpec(kind="run", app="EMBAR", pages=120, memory_pages=96,
                    job_id="short", seed=2)


def solo_result(spec: JobSpec, tmp_path, sub: str = "solo"):
    """The uninterrupted single-process result of one job spec."""
    job_dir = tmp_path / sub
    job_dir.mkdir()
    return execute_job(spec, job_dir, resume=False)


def test_small_batch_all_done_and_metrics_populated(tmp_path):
    specs = demo_jobs(4, seed=3)
    report = run_farm(specs, FarmConfig(workers=2, retry=FAST_RETRY),
                      tmp_path)
    assert report.all_terminal
    assert report.all_done
    counts = report.counts()
    assert counts[JobState.DONE] == 4
    metrics = report.metrics.as_dict()
    assert set(SERVE_METRIC_NAMES) <= set(metrics)
    assert metrics["serve.jobs_submitted"]["value"] == 4
    assert metrics["serve.jobs_done"]["value"] == 4
    assert metrics["serve.job_latency_us"]["count"] == 4
    assert report.p99_latency_s() > 0
    payload = report.to_dict()
    assert payload["summary"]["done"] == 4
    assert len(payload["jobs"]) == 4


def test_sigkilled_job_resumes_bit_identical(tmp_path):
    baseline = solo_result(LONG_RUN, tmp_path)
    chaos = FarmChaosPlan(faults=(
        WorkerFault(on_start=1, delay_s=0.3, op="kill"),))
    report = run_farm([LONG_RUN],
                      FarmConfig(workers=2, retry=FAST_RETRY),
                      tmp_path / "farm", chaos=chaos)
    rec = report.records[0]
    assert rec.state == JobState.DONE
    assert rec.attempts == 2
    assert rec.retries == 1
    assert rec.result == baseline  # bit-identical across the kill
    assert report.metrics.value("serve.worker_kills") == 1
    assert report.metrics.value("serve.worker_restarts") == 1
    assert report.metrics.value("serve.resumes") == 1


def test_stalled_worker_is_detected_and_job_resumes(tmp_path):
    baseline = solo_result(LONG_RUN, tmp_path)
    chaos = FarmChaosPlan(faults=(
        WorkerFault(on_start=1, delay_s=0.3, op="stall"),))
    config = FarmConfig(workers=1, hb_interval_s=0.05, hb_timeout_s=0.5,
                        retry=FAST_RETRY)
    report = run_farm([LONG_RUN], config, tmp_path / "farm", chaos=chaos)
    rec = report.records[0]
    assert rec.state == JobState.DONE
    assert rec.result == baseline
    assert report.metrics.value("serve.worker_stalls") == 1
    assert report.metrics.value("serve.heartbeat_timeouts") >= 1


def test_stale_heartbeat_file_is_the_stall_signal(tmp_path):
    """Liveness is the heartbeat file's mtime: backdating it makes the
    supervisor judge the slot stalled, and the recovery scan reads the
    same age.  The long interval keeps the worker from re-touching the
    file while the test looks at it."""
    pool = WorkerPool(1, tmp_path / "results", tmp_path / "ckpt",
                      tmp_path / "workers", hb_interval_s=30.0,
                      hb_timeout_s=60.0)
    pool.start()
    try:
        (handle,) = pool.workers
        _, hb_path = worker_state_paths(pool.state_dir, 0)
        assert pool.failed_workers(time.monotonic()) == []
        stale = time.time() - 120.0
        os.utime(hb_path, (stale, stale))
        failed = pool.failed_workers(time.monotonic())
        assert [(h.worker_id, kind) for h, kind, _ in failed] == [
            (0, "stalled")]
        (row,) = scan_worker_state(pool.state_dir)
        assert row["alive"]
        assert row["hb_age_s"] == pytest.approx(120.0, abs=5.0)
        assert pool.hb_age(handle) == pytest.approx(row["hb_age_s"],
                                                    abs=1.0)
    finally:
        pool.shutdown()
    assert not handle.alive
    assert scan_worker_state(pool.state_dir) == []


def test_poison_job_is_quarantined_after_max_attempts(tmp_path):
    poison = JobSpec(kind="run", app="NO-SUCH-APP", job_id="poison",
                     max_attempts=3)
    report = run_farm([poison], FarmConfig(workers=1, retry=FAST_RETRY),
                      tmp_path)
    rec = report.records[0]
    assert rec.state == JobState.QUARANTINED
    assert rec.attempts == 3
    assert rec.retries == 2
    assert len(rec.failures) == 4  # 3 attempt errors + the verdict
    assert "quarantined after 3 failed attempts" in rec.failures[-1]
    assert report.metrics.value("serve.jobs_quarantined") == 1
    assert report.metrics.value("serve.jobs_failed_attempts") == 3


def test_overload_sheds_explicitly(tmp_path):
    specs = [JobSpec(kind="run", app="EMBAR", pages=120, memory_pages=96,
                     job_id=f"s{i}", priority=(2 if i >= 3 else 0))
             for i in range(5)]
    config = FarmConfig(workers=1, queue_depth=2, preemption=False,
                        retry=FAST_RETRY)
    report = run_farm(specs, config, tmp_path)
    assert report.all_terminal
    by_id = {r.spec.job_id: r for r in report.records}
    # Both high-priority jobs survive; the low band is shed to make room.
    assert by_id["s3"].state == JobState.DONE
    assert by_id["s4"].state == JobState.DONE
    shed = [r for r in report.records if r.state == JobState.SHED]
    assert len(shed) == 3
    assert all(r.spec.priority == 0 for r in shed)
    assert report.metrics.value("serve.jobs_shed") == 3


def test_preemption_resumes_the_victim_bit_identical(tmp_path):
    baseline = solo_result(LONG_RUN, tmp_path)
    high = JobSpec(kind="run", app="EMBAR", pages=120, memory_pages=96,
                   job_id="vip", priority=5)

    farm = Farm(FarmConfig(workers=1, retry=FAST_RETRY), tmp_path / "farm")
    farm.submit([LONG_RUN])
    real_tick = farm._tick
    submit_at = time.monotonic() + 0.4  # let the long job run and checkpoint

    def tick():
        if len(farm.records) == 1 and time.monotonic() >= submit_at:
            farm.submit([high])
        real_tick()

    farm._tick = tick
    report = farm.run()
    by_id = {r.spec.job_id: r for r in report.records}
    assert by_id["vip"].state == JobState.DONE
    victim = by_id["long"]
    assert victim.state == JobState.DONE
    assert victim.preemptions == 1
    assert victim.result == baseline  # preemption is invisible in results
    assert report.metrics.value("serve.preemptions") == 1


def test_an_exception_in_a_tick_stops_the_farm(tmp_path, monkeypatch):
    """A tick that raises ends the run with the pool shut down, and the
    error reaches the caller before any job's deadline could end it."""
    poll = FarmTelemetry.poll
    calls = []

    def failing_poll(self, now_s):
        calls.append(now_s)
        if len(calls) >= 4:
            raise RuntimeError("telemetry flush failed")
        poll(self, now_s)

    monkeypatch.setattr(FarmTelemetry, "poll", failing_poll)
    specs = [JobSpec(kind="run", app="EMBAR", pages=120, memory_pages=96,
                     job_id=f"e{i}", timeout_s=5) for i in range(2)]
    config = FarmConfig(workers=2, retry=FAST_RETRY, max_wall_s=60)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="telemetry flush failed"):
        run_farm(specs, config, tmp_path)
    assert time.monotonic() - started < 5.0
    assert scan_worker_state(tmp_path / "workers") == []


def test_deadline_timeout_costs_an_attempt(tmp_path):
    # A deadline far shorter than the job: every attempt times out, the
    # job is quarantined, and nothing hangs.  The job runs about 3.4 s
    # uninterrupted on a 2-vCPU host, so two resumed 0.2 s attempts
    # cannot finish it.
    doomed = JobSpec(kind="run", app="MGRID", pages=1920, memory_pages=96,
                     job_id="doomed", timeout_s=0.2, max_attempts=2)
    config = FarmConfig(workers=1, retry=FAST_RETRY)
    report = run_farm([doomed], config, tmp_path)
    rec = report.records[0]
    assert rec.state == JobState.QUARANTINED
    assert rec.attempts == 2
    assert report.metrics.value("serve.deadline_timeouts") >= 1


def test_max_wall_quarantines_outstanding_jobs(tmp_path):
    specs = [JobSpec(kind="run", app="MGRID", pages=480, memory_pages=96,
                     job_id=f"w{i}") for i in range(3)]
    config = FarmConfig(workers=1, retry=FAST_RETRY, max_wall_s=0.3)
    report = run_farm(specs, config, tmp_path)
    assert report.all_terminal
    assert any(r.state == JobState.QUARANTINED for r in report.records)
    for rec in report.records:
        if rec.state == JobState.QUARANTINED:
            assert "drain deadline" in rec.failures[-1]


def test_twenty_job_demo_under_chaos_all_terminal(tmp_path):
    """The acceptance demo: >= 20 mixed jobs, kills + stalls, no hangs."""
    specs = demo_jobs(18, seed=1, poison=2)
    # A strike whose job finishes first is cleared unfired, and the
    # shortest demo jobs take about 0.1 s, so strike 20 ms in.
    chaos = FarmChaosPlan(faults=(
        WorkerFault(on_start=2, delay_s=0.02, op="kill"),
        WorkerFault(on_start=7, delay_s=0.02, op="kill"),
        WorkerFault(on_start=12, delay_s=0.02, op="stall"),
    ))
    config = FarmConfig(workers=4, hb_interval_s=0.05, hb_timeout_s=1.0,
                        retry=FAST_RETRY, max_wall_s=120.0)
    report = run_farm(specs, config, tmp_path, chaos=chaos)
    assert len(report.records) == 20
    assert report.all_terminal  # the "never hung" guarantee
    counts = report.counts()
    assert counts[JobState.DONE] == 18
    assert counts[JobState.QUARANTINED] == 2  # exactly the poison jobs
    quarantined = [r.spec.app for r in report.records
                   if r.state == JobState.QUARANTINED]
    assert quarantined == ["NO-SUCH-APP", "NO-SUCH-APP"]
    assert report.metrics.value("serve.worker_kills") == 2
    assert report.metrics.value("serve.worker_stalls") == 1
    assert report.metrics.value("serve.worker_restarts") >= 3


def test_serve_cli_submit_status_and_exit_codes(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "results.json"
    metrics_out = tmp_path / "metrics.json"
    code = main(["serve", "submit", "--demo", "4", "--workers", "2",
                 "--out", str(out), "--metrics-out", str(metrics_out)])
    assert code == ExitCode.OK
    assert out.exists() and metrics_out.exists()
    captured = capsys.readouterr().out
    assert "4 jobs: 4 done" in captured

    import json

    metrics = json.loads(metrics_out.read_text())
    assert set(SERVE_METRIC_NAMES) <= set(metrics["metrics"])

    assert main(["serve", "status", "--out", str(out)]) == ExitCode.OK
    assert main(["serve", "drain", "--out", str(out)]) == ExitCode.OK
    assert main(["serve", "submit"]) == ExitCode.USAGE
    assert main(["serve", "status", "--results",
                 str(tmp_path / "nope.json")]) == ExitCode.USAGE


def test_serve_cli_poison_batch_exits_job_failed(tmp_path):
    from repro.cli import main

    out = tmp_path / "results.json"
    code = main(["serve", "submit", "--demo", "1", "--poison", "1",
                 "--workers", "2", "--out", str(out)])
    assert code == ExitCode.JOB_FAILED
