"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch everything the library throws
with a single ``except`` clause while letting genuine bugs (``TypeError``,
``KeyError``, ...) propagate.
"""

from __future__ import annotations

import enum


class ExitCode(enum.IntEnum):
    """Process exit codes the ``repro`` CLI is allowed to return.

    Every command returns one of these (``main()`` converts the raised
    :class:`ProcessCrash` to :attr:`CRASH`); harnesses and CI scripts
    branch on the numbers, so the meanings are frozen:

    * ``OK`` (0) -- the command succeeded.
    * ``FAILURE`` (1) -- the command ran but its gate failed: a trace
      failed validation, a benchmark regressed, a stall-attribution
      conservation check broke.
    * ``USAGE`` (2) -- bad invocation (argparse also exits 2 on its own).
    * ``CRASH`` (3) -- a planned ``process_crash`` fault killed the
      simulated process; stderr carries the ``--resume-from`` hint.
    * ``JOB_FAILED`` (4) -- ``repro serve`` drove every job to a
      terminal state but at least one ended quarantined or shed.
    """

    OK = 0
    FAILURE = 1
    USAGE = 2
    CRASH = 3
    JOB_FAILED = 4


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid :class:`~repro.config.PlatformConfig` was supplied."""


def ensure_finite(value: float, what: str,
                  exc: type[ReproError] = ConfigError) -> float:
    """Reject NaN and infinities with a clear :class:`ReproError`.

    Range checks alone let non-finite values through (``nan < 0`` is
    false), and a single NaN cost or timestamp silently poisons every
    clock accumulator downstream -- the fuzzer found this the hard way.
    Returns ``value`` so validators can use it inline.
    """
    import math

    if not math.isfinite(value):
        raise exc(f"{what} must be finite, got {value}")
    return value


class IRError(ReproError):
    """An IR construction or validation problem (malformed loop nest)."""


class ExecutionError(ReproError):
    """The interpreter encountered an unevaluable expression or bad state."""


class AddressError(ExecutionError):
    """An array reference evaluated to an out-of-segment address."""


class MachineError(ReproError):
    """Inconsistent machine/VM state detected at run time."""


class CheckpointError(ReproError):
    """A checkpoint file or snapshot could not be written, read, or applied."""


class ProcessCrash(Exception):
    """An injected process death (the ``crashes`` fault kind).

    Deliberately *not* a :class:`ReproError`: a crash is simulated control
    flow, not a library failure, and must not be swallowed by blanket
    ``except ReproError`` handlers.  Raised at an interpreter safe point,
    so the machine state it abandons is always snapshot-consistent.
    """

    def __init__(self, scheduled_us: float, at_us: float, cursor: int,
                 checkpoint_path: str | None = None) -> None:
        super().__init__(
            f"process crashed at simulated cycle {at_us:.0f} us "
            f"(scheduled at {scheduled_us:.0f} us, interpreter unit {cursor})"
        )
        #: The cycle the plan asked the crash to happen at.
        self.scheduled_us = scheduled_us
        #: The safe-point cycle the crash was actually delivered at.
        self.at_us = at_us
        #: Interpreter unit cursor at the moment of death.
        self.cursor = cursor
        #: Newest checkpoint written before the crash, when one exists.
        self.checkpoint_path = checkpoint_path
