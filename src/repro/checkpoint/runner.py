"""Checkpoint policy, crash delivery, and the kill/resume loop.

A :class:`Checkpointer` is installed on the interpreter
(``executor.checkpointer``) and invoked after every executed work unit
-- the interpreter's *safe points*.  At each safe point it does two
things, in a deliberate order:

1. **crash faults first** -- if the next undelivered entry of its one
   crash schedule (the fault plan's ``crashes`` merged with the
   config's own ``crash_at_us``) is at or before the current cycle,
   raise :class:`~repro.errors.ProcessCrash`.  Because the crash check
   precedes the checkpoint check, the newest retained checkpoint always
   *strictly precedes* the crash it must recover.
2. **checkpoint cadence** -- when ``every_us`` simulated microseconds
   have passed since the last due point, capture a snapshot and write
   it (to the :class:`~repro.checkpoint.store.CheckpointStore`, or just
   hold it in memory for in-process recovery loops).

Checkpointing is pure observation: it advances no simulated time and
mutates no machine state, so a checkpointed run is bit-identical to the
same run without checkpointing -- the invariant the resume tests lean
on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.checkpoint.snapshot import Snapshot, capture, machine_signature
from repro.checkpoint.store import CheckpointStore, read_checkpoint_file
from repro.errors import CheckpointError, ProcessCrash, ensure_finite
from repro.obs.trace import TraceKind


@dataclass(frozen=True)
class CheckpointConfig:
    """Everything ``--checkpoint-*`` / ``--resume-from`` configures."""

    #: Simulated microseconds between checkpoints (None = never write;
    #: useful for resume-only or crash-only configurations).
    every_us: float | None = None
    #: Where checkpoint files live (None = in-memory snapshots only).
    directory: str | Path | None = None
    #: Checkpoints and the crash ledger are namespaced per label, so one
    #: directory can serve a whole ``compare``/``bench`` invocation.
    label: str = "run"
    #: Retained-checkpoint ring size (keep the newest K).
    keep: int = 3
    #: Resume source: a checkpoint file, or a directory (then the newest
    #: good checkpoint for ``label`` is used, skipping corrupt ones).
    resume_from: str | Path | None = None
    #: Harness-level process kills at these simulated cycles, in one
    #: schedule with the plan's crashes, but without needing a fault
    #: plan (so a *clean* run can be crashed too).
    crash_at_us: tuple[float, ...] = ()
    #: Leave the plan's crashes out of the schedule
    #: (``--ignore-crash-faults``) -- the uninterrupted control run of a
    #: crash experiment.
    suppress_plan_crashes: bool = False

    def __post_init__(self) -> None:
        if self.every_us is not None:
            ensure_finite(self.every_us, "--checkpoint-every", CheckpointError)
            if self.every_us <= 0:
                raise CheckpointError(
                    f"--checkpoint-every must be > 0, got {self.every_us}"
                )
        if self.keep < 1:
            raise CheckpointError(f"must retain >= 1 checkpoint, got {self.keep}")
        crashes = tuple(sorted(float(c) for c in self.crash_at_us))
        for cycle in crashes:
            ensure_finite(cycle, "crash_at_us cycle", CheckpointError)
        object.__setattr__(self, "crash_at_us", crashes)

    def active(self) -> bool:
        """Does this config change anything about a run?"""
        return (self.every_us is not None or self.resume_from is not None
                or bool(self.crash_at_us))


class Checkpointer:
    """The safe-point hook: crash delivery plus checkpoint cadence."""

    def __init__(self, machine, executor, config: CheckpointConfig,
                 store: CheckpointStore | None = None,
                 delivered: int = 0) -> None:
        self.machine = machine
        self.executor = executor
        self.store = store
        self.label = config.label
        self.every_us = config.every_us
        #: The incarnation's machine signature, stamped on every snapshot.
        self.signature = machine_signature(machine, executor)
        self._next_due = config.every_us if config.every_us is not None else None
        plan = machine.fault_plan
        plan_crashes = (() if plan is None or config.suppress_plan_crashes
                        else plan.crashes)
        #: The run's one crash schedule: plan and harness crash cycles.
        self.crashes = tuple(sorted(plan_crashes + config.crash_at_us))
        #: Index of the next crash: how many of them earlier
        #: incarnations of the run already died at.
        self.delivered = delivered
        #: Newest snapshot written by *this* incarnation (recovery loops
        #: resume from it without touching disk).
        self.latest: Snapshot | None = None
        self.latest_path: Path | None = None
        self.writes = 0
        self.restores = 0
        #: Test hook: called with each freshly written Snapshot.
        self.on_write: Callable[[Snapshot], None] | None = None

    # ------------------------------------------------------------------
    # The safe-point protocol
    # ------------------------------------------------------------------

    def next_stop_us(self) -> float:
        """The earliest clock at which :meth:`at_safe_point` acts: the next
        crash or the next due checkpoint (inf when neither is left).  A
        tape replay stops at the first step edge that reaches it."""
        stop = math.inf
        if self.delivered < len(self.crashes):
            stop = self.crashes[self.delivered]
        if self._next_due is not None and self._next_due < stop:
            stop = self._next_due
        return stop

    def at_safe_point(self, executor) -> None:
        now = self.machine.clock.now
        # Crash faults strictly before the checkpoint check: the newest
        # checkpoint must predate the crash it will be resumed from.
        if (self.delivered < len(self.crashes)
                and now >= self.crashes[self.delivered]):
            self._deliver_crash(now, executor)
        if self._next_due is not None and now >= self._next_due:
            self.write_checkpoint()
            while self._next_due <= now:
                self._next_due += self.every_us

    def _deliver_crash(self, now: float, executor) -> None:
        scheduled_us = self.crashes[self.delivered]
        self.delivered += 1
        if self.store is not None:
            self.store.record_crash(self.label)
        obs = self.machine.obs
        if obs is not None:
            obs.metrics.counter("ckpt.crashes_delivered").inc()
        raise ProcessCrash(
            scheduled_us, now, executor.units,
            checkpoint_path=str(self.latest_path) if self.latest_path else None,
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def write_checkpoint(self) -> Snapshot:
        """Capture and persist one snapshot (pure observation).

        ``ckpt.writes`` and ``ckpt.last_cycle_us`` are set before the
        capture, so a snapshot counts itself and a run resumed from it
        counts every checkpoint of the run; ``ckpt.payload_bytes`` is set
        after, as no snapshot can hold its own size.
        """
        obs = self.machine.obs
        if obs is not None:
            obs.metrics.counter("ckpt.writes").inc()
            obs.metrics.gauge("ckpt.last_cycle_us").set(self.machine.clock.now)
        snap = capture(self.machine, self.executor, label=self.label,
                       signature=self.signature)
        if self.store is not None:
            path, seq = self.store.save(self.label, snap.meta, snap.payload)
            self.latest_path = path
            snap.meta = dict(snap.meta, seq=seq)
        else:
            snap.meta = dict(snap.meta, seq=self.writes + 1)
        self.latest = snap
        self.writes += 1
        if obs is not None:
            obs.emit(self.machine.clock.now, TraceKind.CHECKPOINT_WRITE,
                     -1, 1, float(len(snap.payload)), f"seq{snap.meta['seq']}")
            obs.metrics.gauge("ckpt.payload_bytes").set(float(len(snap.payload)))
        if self.on_write is not None:
            self.on_write(snap)
        return snap

    # ------------------------------------------------------------------
    # Resuming
    # ------------------------------------------------------------------

    def arm_resume(self, snapshot: Snapshot, skipped_corrupt: int = 0) -> None:
        """Restore ``snapshot`` once the executor has bound the program.

        Restoration must run *after* ``Executor.bind`` (which maps
        segments and warm-loads deterministically) so it overwrites that
        setup with the captured state; the executor invokes the hook at
        exactly that point, then skip-replays to the snapshot's cursor.
        """
        def hook(executor) -> None:
            snapshot.restore_into(self.machine, executor)
            self.restores += 1
            if self.every_us is not None:
                # Mirror the uninterrupted run's cadence after resume.
                periods = int(snapshot.cycle_us // self.every_us) + 1
                self._next_due = periods * self.every_us
            obs = self.machine.obs
            if obs is not None:
                seq = snapshot.meta.get("seq", 0)
                obs.emit(self.machine.clock.now, TraceKind.CHECKPOINT_RESTORE,
                         -1, 1, float(snapshot.cycle_us), f"seq{seq}")
                obs.metrics.counter("ckpt.restores").inc()
                if skipped_corrupt:
                    obs.metrics.counter("ckpt.corrupt_skipped").inc(skipped_corrupt)

        self.executor._resume_hook = hook


def _load_resume_snapshot(config: CheckpointConfig,
                          store: CheckpointStore | None
                          ) -> tuple[Snapshot, int] | None:
    """Resolve ``--resume-from`` (file or directory) into a Snapshot.

    A directory with *no* checkpoints for this label (no slot file, or
    only a crash ledger in it) resolves to None -- start fresh.  That is
    what lets a multi-variant ``compare``/``bench`` resume: variants the
    crashed invocation never reached simply run from the beginning.  A
    directory whose retained checkpoints are all corrupt, or an
    unreadable/corrupt file, still raises.  When the source is the
    checkpoint ``store``'s own directory, its one scan of the label's
    slot file also serves the crash ledger.
    """
    source = Path(config.resume_from)
    if source.is_dir():
        if store is None or store.root.resolve() != source.resolve():
            store = CheckpointStore(source, keep=config.keep)
        loaded = store.load_resumable(config.label)
        if loaded is None:
            return None
        meta, payload, skipped = loaded
        return Snapshot(meta, payload), skipped
    meta, payload = read_checkpoint_file(source)
    return Snapshot(meta, payload), 0


def setup_checkpointing(machine, executor,
                        config: CheckpointConfig) -> Checkpointer:
    """Wire a Checkpointer into a freshly built machine + executor.

    Handles the three cross-process concerns: creating the store,
    resolving the resume source, and starting the crash schedule at the
    store's crash ledger so a resumed run does not re-die at a crash it
    already recovered from.  The resume source is read first: a resume
    from the checkpoint directory then reads the ledger from the same
    scan of the label's slot file.
    """
    store = (CheckpointStore(config.directory, keep=config.keep)
             if config.directory is not None else None)
    loaded = (_load_resume_snapshot(config, store)
              if config.resume_from is not None else None)
    delivered = store.crashes_delivered(config.label) if store is not None else 0
    ckpt = Checkpointer(machine, executor, config, store=store,
                        delivered=delivered)
    if loaded is not None:
        snapshot, skipped = loaded
        ckpt.arm_resume(snapshot, skipped_corrupt=skipped)
    executor.checkpointer = ckpt
    return ckpt


# ----------------------------------------------------------------------
# In-process kill/resume loop
# ----------------------------------------------------------------------


@dataclass
class RecoveryResult:
    """What a :func:`run_with_recovery` loop went through."""

    stats: Any
    crashes: int
    resumes: int
    checkpoints: int


def run_with_recovery(make_machine_executor, program,
                      config: CheckpointConfig) -> RecoveryResult:
    """Run to completion through every scheduled crash, resuming each time.

    ``make_machine_executor`` builds a fresh ``(machine, executor)`` pair
    per incarnation (a dead process cannot reuse its old objects).  Each
    crash kills the incarnation; the next one resumes from the newest
    snapshot so far, held in memory (with ``config.directory`` set, each
    checkpoint and crash is also written to the store).  Terminates
    because every iteration either finishes the run or permanently
    consumes one scheduled crash: the dying incarnation's delivered
    count is handed to the next one.
    """
    delivered = 0
    latest: Snapshot | None = None
    crashes = 0
    resumes = 0
    checkpoints = 0
    while True:
        machine, executor = make_machine_executor()
        store = (CheckpointStore(config.directory, keep=config.keep)
                 if config.directory is not None else None)
        ckpt = Checkpointer(machine, executor, config, store=store,
                            delivered=delivered)
        if latest is not None:
            ckpt.arm_resume(latest)
            resumes += 1
        executor.checkpointer = ckpt
        try:
            stats = executor.run(program)
        except ProcessCrash:
            crashes += 1
            delivered = ckpt.delivered
            checkpoints += ckpt.writes
            if ckpt.latest is not None:
                latest = ckpt.latest
            continue
        checkpoints += ckpt.writes
        return RecoveryResult(stats, crashes, resumes, checkpoints)
