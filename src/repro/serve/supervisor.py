"""The worker pool and its supervisor: spawn, watch, kill, respawn.

The supervisor's contract is that a worker's death -- however it dies:
SIGKILL chaos, a stall that lets its heartbeat go stale, a blown per-job
deadline, or a genuine crash -- is always converted into the same two
outcomes: a **fresh worker** in the dead one's slot and a **reschedule
decision** for whatever job it was running.  The controller only ever
sees "worker N died while running job J (reason)".

Design notes that keep a kill at *any* instant from wedging the farm:

* Liveness is one **heartbeat file** per slot in ``state_dir``, touched
  by the worker's heartbeat thread; its age is the file's mtime against
  the wall clock (:func:`heartbeat_age`).  A touch takes no lock, so
  there is **no lock a dying worker could orphan**.
* Each worker gets a **fresh inbox queue on respawn**.  A process
  SIGKILLed while blocked in ``Queue.get`` can leave that queue's
  internals unusable; abandoning the queue with the corpse sidesteps
  the entire class of corruption.
* Workers never share a writable structure with the controller at all:
  results travel as atomically written files (see
  :mod:`repro.serve.worker`).
* Next to the heartbeat file, each slot has a pidfile written at spawn.
  Workers are daemonic, but daemon termination happens in the parent's
  *exit handlers* -- which a SIGKILL of the controller never runs -- so
  orphaned workers survive a controller crash, finish their in-flight
  job, write its result file, and block on the dead inbox.  The pid +
  heartbeat files are how a recovering controller finds them
  (:func:`scan_worker_state`), adopts the fresh ones' results, and
  reaps the rest.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.ioutil import atomic_write_json
from repro.serve.jobspec import JobRecord
from repro.serve.worker import worker_main

_PIDFILE_RE = re.compile(r"^worker(\d+)\.pid$")


def _mp_context():
    """Fork where available (fast, SIGSTOP-friendly), spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def worker_state_paths(state_dir: str | Path,
                       worker_id: int) -> tuple[Path, Path]:
    """The (pidfile, heartbeat-file) pair of one worker slot."""
    base = Path(state_dir)
    return base / f"worker{worker_id}.pid", base / f"worker{worker_id}.hb"


def heartbeat_age(hb_path: str | Path) -> float | None:
    """Seconds since the heartbeat file was last touched (None when it
    does not exist).  Wall-clock based, so it reads the same from any
    controller process."""
    try:
        return time.time() - os.stat(hb_path).st_mtime
    except OSError:
        return None


def pid_alive(pid: int) -> bool:
    """Whether process ``pid`` exists: a pid we may not signal (EPERM)
    is someone's live process, so it counts as alive."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, PermissionError):
        return True
    return True


def scan_worker_state(state_dir: str | Path) -> list[dict]:
    """Survey the on-disk worker state left behind in ``state_dir``.

    Returns one row per pidfile: ``{"worker_id", "pid", "alive",
    "hb_age_s"}`` (``hb_age_s`` is None when the heartbeat file never
    appeared).  Used by controller crash recovery to tell still-running
    orphans (pid alive, heartbeat fresh) from corpses and SIGSTOPped
    zombies, and by ``serve drain`` to report what it cleaned up.
    """
    base = Path(state_dir)
    if not base.is_dir():
        return []
    rows = []
    for path in sorted(base.iterdir()):
        match = _PIDFILE_RE.match(path.name)
        if not match:
            continue
        worker_id = int(match.group(1))
        try:
            import json

            pid = int(json.loads(path.read_text())["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
        _, hb_path = worker_state_paths(base, worker_id)
        rows.append({"worker_id": worker_id, "pid": pid,
                     "alive": pid_alive(pid),
                     "hb_age_s": heartbeat_age(hb_path)})
    return rows


def cleanup_worker_state(state_dir: str | Path, kill: bool = False) -> int:
    """Remove stale worker pid/heartbeat files; returns files removed.

    Without ``kill``, state belonging to a still-running pid is left
    alone (``serve drain`` must not destroy a live farm's bookkeeping);
    with ``kill`` (recovery), live orphans are SIGKILLed first so their
    slots can be reused safely.
    """
    removed = 0
    for row in scan_worker_state(state_dir):
        if row["alive"]:
            if not kill:
                continue
            try:
                os.kill(row["pid"], signal.SIGKILL)
            except OSError:
                pass
        for path in worker_state_paths(state_dir, row["worker_id"]):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


@dataclass
class WorkerHandle:
    """One slot of the pool: the live process plus dispatch bookkeeping."""

    worker_id: int
    process: multiprocessing.Process | None = None
    inbox: object = None
    #: The job currently dispatched to this worker (None = idle).
    job: JobRecord | None = None
    #: Monotonic time the current job was dispatched.
    dispatched_at: float = 0.0
    #: Lifetime restarts of this slot.
    restarts: int = 0
    #: Chaos strikes armed against the current job: (fire_at, op).
    strikes: list[tuple[float, str]] = field(default_factory=list)

    @property
    def idle(self) -> bool:
        return self.job is None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """``size`` supervised worker processes, watched through their
    pid and heartbeat files in ``state_dir``."""

    def __init__(self, size: int, results_dir: str, ckpt_root: str,
                 state_dir: str | Path,
                 hb_interval_s: float = 0.05, hb_timeout_s: float = 5.0,
                 telemetry: dict | None = None) -> None:
        if size < 1:
            raise ConfigError(f"worker pool needs >= 1 worker, got {size}")
        if hb_timeout_s <= hb_interval_s:
            raise ConfigError(
                f"heartbeat timeout ({hb_timeout_s}s) must exceed the "
                f"interval ({hb_interval_s}s)"
            )
        self.ctx = _mp_context()
        self.results_dir = str(results_dir)
        self.ckpt_root = str(ckpt_root)
        self.hb_interval_s = hb_interval_s
        self.hb_timeout_s = hb_timeout_s
        #: Plain-dict telemetry wiring shipped to every worker spawn
        #: (:meth:`repro.obs.telemetry.TelemetryConfig.worker_args`).
        self.telemetry = telemetry
        #: Where each slot's pidfile and heartbeat file live.
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.workers = [WorkerHandle(worker_id=i) for i in range(size)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def spawn(self, handle: WorkerHandle) -> None:
        """(Re)start one slot with a fresh process and a fresh inbox."""
        handle.inbox = self.ctx.Queue()
        pid_path, hb_path = worker_state_paths(self.state_dir,
                                               handle.worker_id)
        # The first beat, stamped before the process exists, so a fresh
        # slot is never judged stalled while it starts up.
        hb_path.touch()
        handle.process = self.ctx.Process(
            target=worker_main,
            args=(handle.worker_id, handle.inbox, str(hb_path),
                  self.results_dir, self.ckpt_root, self.hb_interval_s,
                  self.telemetry),
            name=f"repro-worker-{handle.worker_id}",
            daemon=True,
        )
        handle.process.start()
        atomic_write_json(pid_path, {
            "version": 1,
            "worker_id": handle.worker_id,
            "pid": handle.process.pid,
            "spawned_t": time.time(),
        })

    def start(self) -> None:
        for handle in self.workers:
            self.spawn(handle)

    def idle_workers(self) -> list[WorkerHandle]:
        return [h for h in self.workers if h.idle and h.alive]

    def busy_workers(self) -> list[WorkerHandle]:
        return [h for h in self.workers if h.job is not None]

    # ------------------------------------------------------------------
    # Violence
    # ------------------------------------------------------------------

    def strike(self, handle: WorkerHandle, op: str) -> None:
        """Apply one chaos operation to a live worker."""
        if not handle.alive:
            return
        sig = signal.SIGKILL if op == "kill" else signal.SIGSTOP
        try:
            os.kill(handle.process.pid, sig)
        except (OSError, AttributeError):
            pass

    def reap(self, handle: WorkerHandle) -> JobRecord | None:
        """Kill + respawn one slot; returns the job it was running."""
        if handle.process is not None:
            try:
                os.kill(handle.process.pid, signal.SIGKILL)
            except (OSError, AttributeError):
                pass
            handle.process.join(timeout=5.0)
        job, handle.job = handle.job, None
        handle.strikes.clear()
        handle.restarts += 1
        self.spawn(handle)
        return job

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def hb_age(self, handle: WorkerHandle) -> float | None:
        """Seconds since this slot's worker last touched its heartbeat."""
        _, hb_path = worker_state_paths(self.state_dir, handle.worker_id)
        return heartbeat_age(hb_path)

    def failed_workers(
        self, now: float
    ) -> list[tuple[WorkerHandle, str, str]]:
        """Slots that need reaping, as ``(handle, kind, detail)``.

        Three detectors, checked in order of certainty: the process is
        gone (``died``: chaos SIGKILL, crash), its heartbeat file went
        stale (``stalled``: SIGSTOP, wedged interpreter), or its job blew
        the per-job deadline (``deadline``: hung/overlong work -- the
        heartbeat alone cannot catch this because a busy-looping worker
        still touches its file).  ``now`` is the monotonic clock the
        dispatch times were taken on.
        """
        failed = []
        for handle in self.workers:
            if not handle.alive:
                failed.append((handle, "died", "worker process died"))
                continue
            age = self.hb_age(handle)
            if age is not None and age > self.hb_timeout_s:
                failed.append((handle, "stalled", "heartbeat went stale"))
            elif (handle.job is not None
                  and now - handle.dispatched_at > handle.job.spec.timeout_s):
                failed.append((
                    handle, "deadline",
                    f"job deadline ({handle.job.spec.timeout_s:g}s) exceeded",
                ))
        return failed

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Drain sentinels, then escalate to SIGKILL for stragglers."""
        for handle in self.workers:
            if handle.alive:
                try:
                    handle.inbox.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 2.0
        for handle in self.workers:
            if handle.process is None:
                continue
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                try:
                    os.kill(handle.process.pid, signal.SIGKILL)
                except OSError:
                    pass
                handle.process.join(timeout=5.0)
        # A clean shutdown owes the next controller an empty state dir:
        # leftover pid/heartbeat files are the "orphans here" signal.
        for handle in self.workers:
            for path in worker_state_paths(self.state_dir, handle.worker_id):
                try:
                    path.unlink()
                except OSError:
                    pass
