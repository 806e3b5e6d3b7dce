"""Multiprogrammed execution: several programs sharing one machine.

The paper's Section 6 agenda -- "multiple applications compete for shared
resources" -- made concrete: a round-robin CPU scheduler interleaves any
number of programs over one clock, one memory manager, one run-time layer,
and one disk array.  A process that faults *blocks* and the CPU switches
to another, so one process's I/O stall becomes another's compute time;
prefetch hints keep their drop-under-pressure semantics, now with real
competitors creating the pressure.  Each process is an
:class:`repro.interp.Executor` bound to the shared machine; the
scheduler interleaves the steps of its walk one access at a time.
"""

from repro.multiprog.scheduler import CoScheduler, ProcessResult, ScheduleResult

__all__ = ["CoScheduler", "ProcessResult", "ScheduleResult"]
