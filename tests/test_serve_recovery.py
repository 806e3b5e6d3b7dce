"""Controller crash recovery: the write-ahead ledger's whole contract.

The farm's durability story (docs/serving.md, *Controller failure &
recovery*) is pinned here end to end:

* the ledger is append-only, checksummed, and torn-tail tolerant: a
  crash mid-append costs exactly the un-flushed suffix, never history;
* rotation compacts atomically and folds to the same per-job state;
* ``recovery_plan`` is a pure function: the same ledger prefix and the
  same seed yield byte-identical plans -- retry backoff included -- at
  *any* kill point (the hypothesis property promised by
  ``repro.serve.retry``'s docstring);
* SIGKILLing a real controller mid-batch and running
  ``repro serve recover`` produces results bit-identical to an
  uninterrupted run, with no job lost, duplicated, or double-counted;
* orphan workers that survive the controller are adopted, their results
  folded exactly once;
* the satellite CLI behaviors: ``serve recover`` usage errors,
  auto-recovery on ``submit`` over a stale ledger, ``serve drain``
  stale-state cleanup, and the telemetry freshness verdicts.

Integration tests reuse the golden-trace footprints from
``test_serve_integration`` (EMBAR ~0.5 s, MGRID ~1 s) so real crashes
land mid-job on any plausible host.
"""

import json
import multiprocessing
import os
import signal
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ExitCode
from repro.faults.farm import (
    FARM_FAULT_OPS,
    FarmChaosPlan,
    WorkerFault,
    default_farm_plan,
)
from repro.serve import (
    Farm,
    FarmConfig,
    JobSpec,
    JobState,
    RetryPolicy,
    demo_jobs,
    fold_ledger,
    ledger_is_stale,
    read_ledger,
    recover_farm,
    recovery_plan,
    run_farm,
)
from repro.serve.ledger import (
    LEDGER_RECORD_KINDS,
    LEDGER_VERSION,
    RECOVERY_SEMANTICS,
    JobLedger,
    ledger_path,
    liveness_path,
)
from repro.serve.supervisor import (
    cleanup_worker_state,
    scan_worker_state,
    worker_state_paths,
)
from repro.serve.worker import execute_job

FAST_RETRY = RetryPolicy(base_s=0.01, cap_s=0.05, seed=1)

LONG_RUN = JobSpec(kind="run", app="MGRID", pages=480, memory_pages=96,
                   job_id="long", seed=2)


def _recovery_config() -> FarmConfig:
    """One config shared by the crashed and the recovering controller
    (the retry seed must match for the backoff timetable to replay)."""
    return FarmConfig(workers=2, hb_interval_s=0.05, hb_timeout_s=1.0,
                      retry=FAST_RETRY, max_wall_s=60.0)


def _crashed_controller(specs_json: str, workdir: str, on_start: int,
                        delay_s: float) -> None:
    """Child-process target: run a farm whose controller SIGKILLs
    itself mid-batch (module-level so spawn contexts can pickle it)."""
    specs = [JobSpec.from_dict(d) for d in json.loads(specs_json)]
    chaos = FarmChaosPlan(faults=(
        WorkerFault(on_start=on_start, delay_s=delay_s,
                    op="controller_crash"),))
    run_farm(specs, _recovery_config(), workdir, chaos=chaos)


def _crash_farm_in_child(specs, workdir, on_start: int,
                         delay_s: float) -> None:
    """Run the farm in a child and assert the controller really died
    by SIGKILL, leaving a replayable ledger behind."""
    proc = multiprocessing.Process(
        target=_crashed_controller,
        args=(json.dumps([s.to_dict() for s in specs]), str(workdir),
              on_start, delay_s))
    proc.start()
    # Poll is_alive (waitpid) rather than join(timeout): the orphaned
    # workers inherit the child's sentinel pipe, so a sentinel-based
    # join would block until *they* die -- which recovery does later.
    deadline = time.monotonic() + 90.0
    while proc.is_alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not proc.is_alive()
    proc.join(timeout=5.0)
    assert proc.exitcode == -signal.SIGKILL
    assert ledger_path(workdir).is_file()
    assert read_ledger(ledger_path(workdir))


# ----------------------------------------------------------------------
# Ledger unit tests
# ----------------------------------------------------------------------


def test_ledger_appends_are_checksummed_and_replayable(tmp_path):
    ledger = JobLedger(tmp_path)
    ledger.append("admitted", job="a", seq=1,
                  spec={"job_id": "a", "kind": "run", "app": "FFT"})
    ledger.append("dispatched", job="a", attempt=1, worker=0, resume=False)
    ledger.append("done", job="a", attempt=1, digest="ab" * 8)
    assert len(ledger) == 3
    ledger.close()
    records = read_ledger(ledger.path)
    assert [r["n"] for r in records] == [1, 2, 3]
    assert [r["kind"] for r in records] == ["admitted", "dispatched", "done"]
    assert all(r["v"] == LEDGER_VERSION for r in records)
    with pytest.raises(ConfigError, match="unknown ledger record kind"):
        ledger.append("exploded", job="a")


def test_ledger_torn_tail_and_corrupt_record_drop_the_suffix(tmp_path):
    ledger = JobLedger(tmp_path)
    for n in (1, 2, 3):
        ledger.append("admitted", job=f"j{n}", seq=n, spec={"job_id": f"j{n}"})
    ledger.close()
    # Torn tail: a crash mid-append leaves half a line. Only it is lost.
    intact = ledger.path.read_text()
    ledger.path.write_text(
        intact + '{"v": 1, "kind": "done", "job": "j1", "att')
    assert [r["job"] for r in read_ledger(ledger.path)] == ["j1", "j2", "j3"]
    # A corrupt *interior* record (flipped bits, checksum mismatch)
    # truncates to the longest valid prefix before it.
    lines = intact.splitlines()
    tampered = json.loads(lines[1])
    tampered["job"] = "evil"  # sha no longer matches
    lines[1] = json.dumps(tampered, sort_keys=True)
    ledger.path.write_text("\n".join(lines) + "\n")
    assert [r["job"] for r in read_ledger(ledger.path)] == ["j1"]


def test_ledger_rotation_compacts_and_folds_equivalently(tmp_path):
    ledger = JobLedger(tmp_path)
    ledger.append("admitted", job="j1", seq=1, spec={"job_id": "j1"})
    ledger.append("dispatched", job="j1", attempt=1, worker=0, resume=False)
    ledger.append("retry_scheduled", job="j1", attempt=1, resume=False,
                  delay_s=0.01, reason="boom")
    ledger.append("dispatched", job="j1", attempt=2, worker=1, resume=False)
    ledger.append("done", job="j1", attempt=2, digest="cd" * 8)
    ledger.append("admitted", job="j2", seq=2, spec={"job_id": "j2"})
    ledger.append("dispatched", job="j2", attempt=1, worker=0, resume=False)
    before = fold_ledger(read_ledger(ledger.path))
    # Compact the way recovery does: one admitted record per job with
    # the counters carried forward, plus terminal records.
    ledger.rotate([
        {"v": LEDGER_VERSION, "t": 0.0, "kind": "recovered", "jobs": 2},
        {"v": LEDGER_VERSION, "t": 0.0, "kind": "admitted", "job": "j1",
         "seq": 1, "spec": {"job_id": "j1"}, "attempts": 2, "retries": 1,
         "preemptions": 0},
        {"v": LEDGER_VERSION, "t": 0.0, "kind": "done", "job": "j1",
         "attempt": 2, "digest": "cd" * 8},
        {"v": LEDGER_VERSION, "t": 0.0, "kind": "admitted", "job": "j2",
         "seq": 2, "spec": {"job_id": "j2"}, "attempts": 1, "retries": 0,
         "preemptions": 0},
    ])
    records = read_ledger(ledger.path)
    assert len(records) == 4  # compacted: 7 history lines became 4
    after = fold_ledger(records)
    done = after["j1"]
    assert (done.phase, done.digest, done.attempts, done.retries) == \
        ("done", before["j1"].digest, 2, 1)
    # The in-flight job's counters survive compaction; its dispatch does
    # not (the attempt was adopted or voided before the rotate).
    assert after["j2"].attempts == before["j2"].attempts == 1
    assert after["j2"].phase == "pending"
    # Appends continue numbered after the compacted generation.
    record = ledger.append("heartbeat_epoch", epoch=1)
    ledger.close()
    assert record["n"] == 5
    assert len(read_ledger(ledger.path)) == 5


def test_fold_and_recovery_plan_cover_every_action(tmp_path):
    assert set(RECOVERY_SEMANTICS) == set(LEDGER_RECORD_KINDS)
    ledger = JobLedger(tmp_path)
    for seq, job in enumerate(("a", "b", "c", "d", "p", "q", "s"), start=1):
        ledger.append("admitted", job=job, seq=seq, spec={"job_id": job})
    ledger.append("dispatched", job="a", attempt=1, worker=0, resume=False)
    ledger.append("done", job="a", attempt=1, digest="ef" * 8)
    ledger.append("dispatched", job="b", attempt=1, worker=0, resume=False)
    ledger.append("retry_scheduled", job="b", attempt=1, resume=False,
                  delay_s=0.01, reason="flaky")
    ledger.append("dispatched", job="b", attempt=2, worker=1, resume=False)
    ledger.append("dispatched", job="c", attempt=1, worker=2, resume=False)
    ledger.append("retry_scheduled", job="c", attempt=1, resume=False,
                  delay_s=0.01, reason="flaky")
    ledger.append("dispatched", job="p", attempt=1, worker=3, resume=False)
    ledger.append("preempted", job="p", attempt=1)
    ledger.append("dispatched", job="q", attempt=1, worker=0, resume=False)
    ledger.append("quarantined", job="q", reason="poison")
    ledger.append("shed", job="s", reason="overload")
    ledger.close()

    entries = fold_ledger(read_ledger(ledger.path))
    plan = recovery_plan(entries, FAST_RETRY)
    by_job = {item["job"]: item for item in plan}
    assert [item["job"] for item in plan] == list("abcdpqs")  # seq order
    assert by_job["a"]["action"] == "fold_done"
    assert by_job["a"]["digest"] == "ef" * 8
    adopt = by_job["b"]
    assert (adopt["action"], adopt["worker"], adopt["attempt"]) == \
        ("adopt", 1, 2)
    assert adopt["delay_s"] == 0.0
    retry = by_job["c"]
    assert (retry["action"], retry["resume"]) == ("readmit", False)
    assert retry["delay_s"] == FAST_RETRY.delay_s("c", 1)
    assert by_job["d"] == {"job": "d", "seq": 4, "attempts": 0,
                           "retries": 0, "preemptions": 0,
                           "action": "readmit", "resume": False,
                           "delay_s": 0.0}
    preempted = by_job["p"]
    assert (preempted["action"], preempted["resume"]) == ("readmit", True)
    assert preempted["preemptions"] == 1
    assert by_job["q"] == {"job": "q", "seq": 6, "attempts": 1,
                           "retries": 0, "preemptions": 0,
                           "action": "fold_quarantined", "reason": "poison"}
    assert by_job["s"]["action"] == "fold_shed"


# ----------------------------------------------------------------------
# Determinism property (hypothesis, random kill points)
# ----------------------------------------------------------------------


@hypothesis_settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       jobs=st.integers(min_value=1, max_value=6),
       events=st.integers(min_value=0, max_value=30),
       kill_at=st.integers(min_value=0, max_value=40))
def test_recovery_schedule_is_deterministic_at_any_kill_point(
        seed, jobs, events, kill_at):
    """Same ledger prefix + same seed => byte-identical recovery plan.

    This is the property ``repro.serve.retry`` promises: the recovered
    retry timetable (jittered delays) and dispatch order (seq order)
    are pure functions of the journal and the policy seed, whatever
    line the controller died on.
    """
    from repro.fuzz.oracles import _synthesize_ledger

    with tempfile.TemporaryDirectory(prefix="repro-ledger-") as workdir:
        _synthesize_ledger(workdir, {"jobs": jobs, "seed": seed,
                                     "events": events})
        path = ledger_path(workdir)
        lines = path.read_text().splitlines(keepends=True)
        cut = min(kill_at, len(lines))
        path.write_text("".join(lines[:cut]))

        def replay():
            policy = RetryPolicy(seed=seed)  # rebuilt from scratch
            return recovery_plan(fold_ledger(read_ledger(path)), policy)

        first, second = replay(), replay()
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    assert [item["seq"] for item in first] == \
        sorted(item["seq"] for item in first)
    policy = RetryPolicy(seed=seed)
    for item in first:
        if item["action"] == "readmit" and item["attempts"]:
            assert item["delay_s"] == policy.delay_s(item["job"],
                                                     item["attempts"])
        elif item["action"] in ("readmit", "adopt"):
            assert item["delay_s"] == 0.0


# ----------------------------------------------------------------------
# Real crashes (integration)
# ----------------------------------------------------------------------


def test_controller_kill_then_recover_is_bit_identical(tmp_path):
    """The acceptance path: SIGKILL the controller mid-batch, recover,
    and every job's result matches an uninterrupted run exactly once."""
    specs = demo_jobs(4, seed=11)
    baseline = run_farm(specs, _recovery_config(), tmp_path / "base")
    assert baseline.all_done
    expected = {r.spec.job_id: r.result for r in baseline.records}

    workdir = tmp_path / "farm"
    _crash_farm_in_child(specs, workdir, on_start=2, delay_s=0.05)
    assert ledger_is_stale(workdir)

    report = recover_farm(_recovery_config(), workdir)
    assert report.all_terminal
    assert report.all_done
    ids = [r.spec.job_id for r in report.records]
    assert sorted(ids) == sorted(expected)  # no job lost
    assert len(ids) == len(set(ids))        # no job duplicated
    for record in report.records:
        assert record.result == expected[record.spec.job_id]
    assert report.metrics.value("serve.recoveries") == 1
    assert report.metrics.value("serve.jobs_recovered") >= 1
    # Exactly-once accounting: submissions equal jobs, not jobs + replays.
    assert report.metrics.value("serve.jobs_submitted") == len(specs)
    assert not ledger_is_stale(workdir)


def test_orphan_worker_is_adopted_and_its_result_lands_once(tmp_path):
    """A worker that outlives the controller delivers its in-flight
    job: the recovering controller adopts the result instead of
    re-running the attempt."""
    baseline = execute_job(LONG_RUN, tmp_path / "solo", resume=False)

    workdir = tmp_path / "farm"
    _crash_farm_in_child([LONG_RUN], workdir, on_start=1, delay_s=0.1)

    report = recover_farm(_recovery_config(), workdir)
    record = report.records[0]
    assert record.spec.job_id == "long"
    assert record.state == JobState.DONE
    assert record.result == baseline
    assert record.attempts == 1  # the orphan's attempt, not a re-run
    assert record.retries == 0
    assert report.metrics.value("serve.orphans_adopted") == 1
    assert report.metrics.value("serve.results_deduped") == 1
    # Adoption still reclaims the slot: no orphan state files linger.
    assert scan_worker_state(workdir / "workers") == []


def test_recover_refuses_a_live_controller(tmp_path):
    ledger = JobLedger(tmp_path)
    ledger.append("admitted", job="j1", seq=1, spec={"job_id": "j1"})
    ledger.close()
    # pid 1 is always alive and never ours.
    liveness_path(tmp_path).write_text(json.dumps(
        {"version": 1, "pid": 1, "started_t": 0.0}))
    assert not ledger_is_stale(tmp_path)
    farm = Farm(_recovery_config(), tmp_path)
    with pytest.raises(ConfigError, match="refusing to recover"):
        farm.recover()


def test_recover_without_replayable_history_raises(tmp_path):
    with pytest.raises(ConfigError):
        Farm(_recovery_config(), tmp_path / "never-ran").recover()
    empty = tmp_path / "empty"
    empty.mkdir()
    ledger_path(empty).write_text("")
    with pytest.raises(ConfigError, match="nothing to recover"):
        Farm(_recovery_config(), empty).recover()


def test_recover_on_a_finished_workdir_is_an_idempotent_fold(tmp_path):
    """Recovering a batch that actually finished re-lands every result
    by digest exactly once and re-runs nothing."""
    specs = demo_jobs(3, seed=5)
    first = run_farm(specs, _recovery_config(), tmp_path)
    assert first.all_done
    assert not ledger_is_stale(tmp_path)  # every entry terminal

    report = recover_farm(_recovery_config(), tmp_path)
    assert report.all_done
    assert len(report.records) == 3
    assert report.metrics.value("serve.results_deduped") == 3
    assert report.metrics.value("serve.jobs_recovered") == 0
    expected = {r.spec.job_id: r.result for r in first.records}
    for record in report.records:
        assert record.result == expected[record.spec.job_id]


def test_finished_ledger_holds_no_heartbeat_epoch(tmp_path):
    """The controller journals job transitions only: ``heartbeat_epoch``
    is a legacy kind that older ledgers may still hold."""
    spec = JobSpec(kind="run", app="EMBAR", pages=120, memory_pages=96,
                   job_id="short", seed=2)
    report = run_farm([spec], FarmConfig(workers=1, retry=FAST_RETRY),
                      tmp_path)
    assert report.all_done
    kinds = [record["kind"] for record in read_ledger(ledger_path(tmp_path))]
    assert kinds == ["admitted", "dispatched", "done"]


# ----------------------------------------------------------------------
# Satellite regressions: drain cleanup, CLI verbs, freshness verdicts
# ----------------------------------------------------------------------


def _noop():
    pass


def _dead_pid() -> int:
    """A pid guaranteed dead: a child we already reaped."""
    proc = multiprocessing.Process(target=_noop)
    proc.start()
    proc.join()
    return proc.pid


def _write_worker_state(state_dir: Path, worker_id: int, pid: int) -> None:
    state_dir.mkdir(parents=True, exist_ok=True)
    pid_path, hb_path = worker_state_paths(state_dir, worker_id)
    pid_path.write_text(json.dumps(
        {"version": 1, "worker_id": worker_id, "pid": pid,
         "spawned_t": 0.0}))
    hb_path.touch()


def test_cleanup_worker_state_spares_live_pids(tmp_path):
    state = tmp_path / "workers"
    _write_worker_state(state, 0, _dead_pid())
    _write_worker_state(state, 1, os.getpid())
    rows = {row["worker_id"]: row for row in scan_worker_state(state)}
    assert rows[0]["alive"] is False
    assert rows[1]["alive"] is True
    assert cleanup_worker_state(state) == 2  # the dead slot's pid + hb
    pid0, hb0 = worker_state_paths(state, 0)
    pid1, hb1 = worker_state_paths(state, 1)
    assert not pid0.exists() and not hb0.exists()
    assert pid1.exists() and hb1.exists()  # a live farm is not touched


def test_cli_drain_cleans_stale_state_and_reports(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "results.json"
    assert main(["serve", "submit", "--demo", "1", "--workers", "1",
                 "--out", str(out)]) == ExitCode.OK
    workdir = tmp_path / "farm"
    _write_worker_state(workdir / "workers", 0, _dead_pid())
    liveness_path(workdir).write_text(json.dumps(
        {"version": 1, "pid": _dead_pid(), "started_t": 0.0}))
    capsys.readouterr()
    code = main(["serve", "drain", "--out", str(out),
                 "--workdir", str(workdir)])
    assert code is ExitCode.OK  # the enum, not a bare literal
    captured = capsys.readouterr().out
    assert "cleaned 3 stale worker/controller state file(s)" in captured
    assert "nothing to drain" in captured
    assert not liveness_path(workdir).exists()
    assert scan_worker_state(workdir / "workers") == []


def test_cli_recover_requires_workdir(capsys):
    from repro.cli import main

    assert main(["serve", "recover"]) is ExitCode.USAGE
    assert "serve recover needs --workdir DIR" in capsys.readouterr().err


def test_cli_submit_auto_recovers_a_stale_ledger(tmp_path, capsys):
    """``submit`` landing on a dead controller's workdir replays its
    ledger before taking the new work -- nothing is silently lost."""
    from repro.cli import main

    workdir = tmp_path / "farm"
    ghost = JobSpec(kind="run", app="EMBAR", pages=120, memory_pages=96,
                    job_id="ghost", seed=2)
    ledger = JobLedger(workdir)
    ledger.append("admitted", job="ghost", seq=1, spec=ghost.to_dict())
    ledger.close()
    assert ledger_is_stale(workdir)

    out = tmp_path / "results.json"
    code = main(["serve", "submit", "--demo", "1", "--workers", "1",
                 "--seed", "3", "--workdir", str(workdir),
                 "--out", str(out)])
    assert code is ExitCode.OK
    captured = capsys.readouterr().out
    assert "stale ledger" in captured
    assert "recovering its jobs first" in captured
    payload = json.loads(out.read_text())
    ids = [job["spec"]["job_id"] for job in payload["jobs"]]
    assert "ghost" in ids
    assert len(ids) == 2 and len(set(ids)) == 2
    assert all(job["state"] == "done" for job in payload["jobs"])
    assert not ledger_is_stale(workdir)


def test_snapshot_freshness_verdicts(tmp_path):
    from repro.cli import SNAPSHOT_STALE_AFTER_S, _snapshot_freshness

    path = tmp_path / "telemetry.json"
    snap, note = _snapshot_freshness(str(path))
    assert snap is None and "no telemetry yet" in note

    path.write_text('{"farm": {"jo')  # caught mid-rewrite
    snap, note = _snapshot_freshness(str(path))
    assert snap is None and "unreadable" in note

    path.write_text(json.dumps({"something": "else"}))
    snap, note = _snapshot_freshness(str(path))
    assert snap is None and "not a farm telemetry snapshot" in note

    payload = {"farm": {}, "state": "running", "trace_id": "t",
               "updated_s": 1.0}
    path.write_text(json.dumps(payload))
    stale_t = time.time() - (SNAPSHOT_STALE_AFTER_S + 5.0)
    os.utime(path, (stale_t, stale_t))
    snap, note = _snapshot_freshness(str(path))
    assert snap == payload
    assert "stale snapshot" in note and "serve recover" in note

    path.write_text(json.dumps({**payload, "state": "finished"}))
    snap, note = _snapshot_freshness(str(path))
    assert snap is not None and note is None


def test_cli_status_explains_missing_telemetry(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "results.json"
    assert main(["serve", "submit", "--demo", "1", "--workers", "1",
                 "--no-telemetry", "--out", str(out)]) == ExitCode.OK
    empty = tmp_path / "never-a-farm"
    empty.mkdir()
    capsys.readouterr()
    code = main(["serve", "status", "--workdir", str(empty),
                 "--out", str(out)])
    assert code is ExitCode.OK
    assert "no telemetry yet" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Chaos schema: controller_crash is a first-class fault op
# ----------------------------------------------------------------------


def test_controller_crash_is_a_first_class_fault_op():
    assert "controller_crash" in FARM_FAULT_OPS
    WorkerFault(on_start=3, delay_s=0.0, op="controller_crash")  # valid
    with pytest.raises(ConfigError):
        WorkerFault(on_start=1, delay_s=0.0, op="reboot")
    plan = default_farm_plan(kills=1, stalls=1, controller_crashes=1)
    assert [fault.op for fault in plan.faults] == \
        ["kill", "stall", "controller_crash"]
    assert plan.faults[-1].on_start == 8  # first_start=2, stride=3
    assert FarmChaosPlan.from_dict(plan.to_dict()) == plan
    with pytest.raises(ConfigError):
        default_farm_plan(controller_crashes=-1)
