"""The co-scheduler: round-robin quanta over shared hardware.

One clock, one memory manager (with its page-out daemon and drop-under-
pressure prefetch semantics), one run-time layer, one disk array -- and
any number of processes.  A process runs until its quantum expires or it
blocks on a page fault; the CPU then switches.  The machine is idle only
when *every* process is blocked, which is exactly the multiprogramming
payoff the paper anticipates: prefetching turns one process's stall into
another's runtime, and releases keep a streaming process from crowding
out its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.config import PlatformConfig
from repro.core.ir.nodes import Program
from repro.errors import MachineError, ensure_finite
from repro.interp.executor import Executor
from repro.machine.machine import Machine
from repro.obs.trace import TraceKind
from repro.sim.clock import TimeCategory
from repro.sim.stats import RunStats, TimeBreakdown


@dataclass
class ProcessResult:
    """Per-process outcome of a co-scheduled run."""

    name: str
    prefetching: bool
    #: CPU time attributed to this process (compute + its syscalls).
    cpu_us: float = 0.0
    #: Time spent blocked on its own page faults.
    blocked_us: float = 0.0
    #: Time spent runnable but waiting for the CPU.
    queued_us: float = 0.0
    finish_us: float = 0.0
    faults: int = 0


@dataclass
class ScheduleResult:
    """Outcome of one co-scheduled run."""

    elapsed_us: float
    processes: list[ProcessResult]
    stats: RunStats
    times: TimeBreakdown = field(default_factory=TimeBreakdown)
    #: CPU-idle time accumulated by the scheduler itself (every process
    #: blocked on the disks).  Together with the memory manager's
    #: frame-pin waits this accounts for ``times.stall_read`` *exactly*
    #: -- the multiprog stall-conservation oracle (tests/test_fuzz.py).
    idle_wait_us: float = 0.0

    def process(self, name: str) -> ProcessResult:
        for proc in self.processes:
            if proc.name == name:
                return proc
        raise MachineError(f"no process named {name!r}")


def operations(steps: Iterator[tuple]) -> Iterator[tuple]:
    """Split an executor's steps into the scheduler's operations.

    A process can block on any one access, so chunk and work steps
    become one ``("event", kind, vpage, pre_cost_us)`` per access, kind
    being a :mod:`repro.machine.events` int (READ/WRITE/PREFETCH/RELEASE)
    and the compute time charged before it.  Compute and block-hint
    steps pass through; dropped hints do nothing.
    """
    for step in steps:
        kind = step[0]
        if kind == "chunk":
            _, kinds, pages, costs, tail_us = step
            for ev in zip(kinds.tolist(), pages.tolist(), costs.tolist()):
                yield ("event", *ev)
            if tail_us:
                yield ("compute", tail_us)
        elif kind == "work":
            if step[1]:
                yield ("compute", step[1])
            for vpage, is_write in step[2]:
                yield ("event", 1 if is_write else 0, vpage, 0.0)
        elif kind != "dropped":
            yield step


class _Proc:
    __slots__ = ("name", "prefetching", "result", "gen", "blocked_until",
                 "block_start", "runnable_since", "done")

    def __init__(self, name: str, prefetching: bool, gen) -> None:
        self.name = name
        self.prefetching = prefetching
        self.result = ProcessResult(name, prefetching)
        self.gen = gen
        self.blocked_until = 0.0
        self.block_start = 0.0
        self.runnable_since = 0.0
        self.done = False


class CoScheduler:
    """Runs several programs on one shared simulated machine."""

    def __init__(self, platform: PlatformConfig | None = None,
                 quantum_us: float = 20_000.0, observer=None,
                 fault_plan=None) -> None:
        ensure_finite(quantum_us, "quantum", MachineError)
        if quantum_us <= 0:
            raise MachineError(f"quantum must be positive, got {quantum_us}")
        self.platform = platform or PlatformConfig()
        self.quantum_us = quantum_us
        #: The shared hardware: one prefetching :class:`Machine`'s clock,
        #: memory manager, run-time layer, and disk array.  Its fault
        #: plan applies to every tenant alike (the same storms, slow
        #: disks, and stale residency bits); ``crashes`` entries are
        #: ignored, since process crashes are delivered by a checkpointer
        #: at ``Executor.run``'s safe points and the co-scheduler has none.
        self.machine = machine = Machine(
            self.platform, prefetching=True, observer=observer,
            fault_plan=fault_plan)
        self.clock = machine.clock
        self.stats = machine.stats
        #: Attached :class:`repro.obs.Observer`, or None.  The machine is
        #: shared, so one observer sees every process's events interleaved
        #: in simulated-time order.
        self.obs = observer
        self.manager = machine.manager
        self.layer = machine.runtime
        self._procs: list[_Proc] = []
        self._ran = False
        self.idle_wait_us = 0.0

    # ------------------------------------------------------------------

    def add_process(
        self, program: Program, name: str | None = None, prefetching: bool = True
    ) -> None:
        """Register a program as one process (compile it first for P)."""
        if self._ran:
            raise MachineError("cannot add processes after run()")
        name = name or f"p{len(self._procs)}:{program.name}"
        # Segments are prefixed with the process name, so two processes
        # (even of the same program) never collide.
        executor = Executor(self.machine)
        executor.bind(program, prefix=f"{name}:")
        self._procs.append(
            _Proc(name, prefetching, operations(executor.steps(program))))

    # ------------------------------------------------------------------

    def _fault_count(self) -> int:
        f = self.stats.faults
        return f.prefetched_fault + f.nonprefetched_fault

    def _handle(self, proc: _Proc, op: tuple) -> bool:
        """Execute one operation; True if the process blocked."""
        clock = self.clock
        kind = op[0]
        if kind == "compute":
            clock.advance(op[1], TimeCategory.USER_COMPUTE)
            return False
        if kind == "event":
            _, ev_kind, vpage, cost = op
            if cost:
                clock.advance(cost, TimeCategory.USER_COMPUTE)
            if ev_kind <= 1:
                ready = self.manager.access_async(vpage, ev_kind == 1)
                if ready > clock.now:
                    proc.blocked_until = ready
                    proc.block_start = clock.now
                    return True
                return False
            if not proc.prefetching:
                return False
            if ev_kind == 2:
                self.layer.prefetch(vpage, 1)
            else:
                self.layer.release([vpage])
            return False
        if not proc.prefetching:
            return False
        if kind == "prefetch":
            self.layer.prefetch(op[1], op[2])
        elif kind == "release":
            self.layer.release(op[1])
        elif kind == "prefetch_release":
            self.layer.prefetch_release(op[1], op[2], op[3])
        else:  # pragma: no cover - operations() and _handle evolve together
            raise MachineError(f"unknown process operation {op!r}")
        return False

    def run(self) -> ScheduleResult:
        """Execute all processes to completion; returns the outcome."""
        if self._ran:
            raise MachineError("CoScheduler.run() called twice")
        if not self._procs:
            raise MachineError("no processes to run")
        self._ran = True
        clock = self.clock
        procs = self._procs
        turn = 0

        while True:
            live = [p for p in procs if not p.done]
            if not live:
                break
            runnable = [p for p in live if p.blocked_until <= clock.now]
            if not runnable:
                # Everybody is waiting on the disks: the CPU idles.
                earliest = min(p.blocked_until for p in live)
                waited = clock.wait_until(earliest, TimeCategory.STALL_READ)
                self.idle_wait_us += waited
                if waited and self.obs is not None:
                    # Same event the memory manager emits for its
                    # frame-pin waits: every STALL_READ advance of a
                    # co-scheduled run is then on the trace, which is
                    # what makes the stall-conservation oracle exact.
                    self.obs.emit(clock.now, TraceKind.STALL_FRAME_WAIT,
                                  -1, 1, waited, tag="scheduler")
                runnable = [p for p in live if p.blocked_until <= clock.now]

            # Round-robin among the runnable processes.
            proc = runnable[turn % len(runnable)]
            turn += 1

            if proc.block_start:
                # I/O wait ends at the page's arrival; any further delay
                # before being picked is CPU-queueing, counted below.
                proc.result.blocked_us += (
                    min(proc.blocked_until, clock.now) - proc.block_start
                )
                proc.block_start = 0.0
            proc.result.queued_us += max(
                0.0, clock.now - max(proc.runnable_since, proc.blocked_until)
            )

            slice_start = clock.now
            faults_before = self._fault_count()
            blocked = False
            while clock.now - slice_start < self.quantum_us:
                try:
                    op = next(proc.gen)
                except StopIteration:
                    proc.done = True
                    proc.result.finish_us = clock.now
                    break
                if self._handle(proc, op):
                    blocked = True
                    break
            proc.result.cpu_us += clock.now - slice_start
            proc.result.faults += self._fault_count() - faults_before
            proc.runnable_since = proc.blocked_until if blocked else clock.now

        stats = self.machine.finish()
        return ScheduleResult(
            elapsed_us=stats.elapsed_us,
            processes=[p.result for p in procs],
            stats=stats,
            times=stats.times,
            idle_wait_us=self.idle_wait_us,
        )
