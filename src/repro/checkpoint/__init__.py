"""Crash-consistent checkpoint/restart for in-flight simulations.

The subsystem has three layers:

* :mod:`repro.checkpoint.snapshot` -- a snapshot is the machine's
  state objects (clock, ``RunStats``, address space, disks, VM,
  run-time layer, with the fault state they hold) pickled as one
  graph, plus the interpreter cursor and an attached observer's
  metrics; the observer itself, its trace included, stays with each
  incarnation;
* :mod:`repro.checkpoint.store` -- the versioned on-disk format: one
  file per label of K + 1 checksummed slots, the last K checkpoints
  retained, each save one durable write, with corruption fallback;
* :mod:`repro.checkpoint.runner` -- the policy object
  (:class:`Checkpointer`) hooked into the interpreter's safe points,
  plus the in-process kill/resume loop :func:`run_with_recovery`.

See the "Checkpoint & restart" section of docs/robustness.md.
"""

from repro.checkpoint.runner import (
    CheckpointConfig,
    Checkpointer,
    RecoveryResult,
    run_with_recovery,
)
from repro.checkpoint.snapshot import (
    SNAPSHOT_VERSION,
    Snapshot,
    capture,
    describe_state,
    machine_signature,
)
from repro.checkpoint.store import (
    CheckpointStore,
    has_resumable_checkpoint,
    read_checkpoint_file,
)

__all__ = [
    "CheckpointConfig",
    "Checkpointer",
    "CheckpointStore",
    "RecoveryResult",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "capture",
    "describe_state",
    "has_resumable_checkpoint",
    "machine_signature",
    "read_checkpoint_file",
    "run_with_recovery",
]
