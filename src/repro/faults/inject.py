"""Runtime state of an active fault plan, threaded through the layers.

A faulted :class:`~repro.machine.machine.Machine` builds each layer's
slice of its ``fault_plan`` straight from the plan:

* the :class:`~repro.storage.array_ctl.DiskArray` gets a
  :class:`StorageFaults` policy (dead-disk checks, retry/backoff and
  reconstruction parameters) and each :class:`~repro.storage.disk.Disk`
  gets its own :class:`DiskFaultState` (fail-slow multiplier, seeded
  transient-error stream);
* the :class:`~repro.vm.manager.MemoryManager` gets the plan's pressure
  storms expanded into ``schedule_pressure`` bursts;
* the :class:`~repro.runtime.layer.RuntimeLayer` gets a
  :class:`HintFaultState` (seeded hint-call failures plus the
  demand-paging fallback state machine) and, with ``bitvector_lag_us``
  set, its bit vector is wrapped in a :class:`LaggedBitVector`.

Determinism: every random stream is a :class:`repro.seeding.KeyedRng`
derived from ``plan.seed`` plus a fixed per-layer salt, and all draws
happen at well-defined points of the (single-threaded) simulation, so a
plan is exactly reproducible; a snapshot carries each stream as its key
and draw count.  None of these objects exists when no plan is given --
the opt-out costs one ``is None`` check per already-slow path.  Planned
process crashes are not machine state: the checkpointer
(:mod:`repro.checkpoint.runner`) delivers them.
"""

from __future__ import annotations

import math
from collections import deque

from repro.errors import ConfigError
from repro.faults.plan import DiskFaultSpec, FaultPlan
from repro.seeding import KeyedRng


class DiskFaultState:
    """Per-disk fault state: fail-slow windows and the error stream."""

    __slots__ = ("spec", "_rng", "_has_errors")

    def __init__(self, spec: DiskFaultSpec, seed: int) -> None:
        self.spec = spec
        self._rng = KeyedRng(seed, "disk", spec.disk)
        self._has_errors = spec.read_error_rate > 0.0

    def service_scale(self, at_us: float) -> float:
        """Fail-slow multiplier for a service starting at ``at_us``."""
        scale = 1.0
        for window in self.spec.slow_windows:
            if window.covers(at_us):
                scale *= window.multiplier
        return scale

    def dead(self, at_us: float) -> bool:
        return self.spec.dead_at_us is not None and at_us >= self.spec.dead_at_us

    def draw_read_error(self) -> bool:
        """One seeded draw per read attempt (including retries)."""
        return self._has_errors and self._rng.random() < self.spec.read_error_rate


class StorageFaults:
    """The disk array's view of the plan: per-disk states plus policy."""

    __slots__ = ("plan", "states")

    def __init__(self, plan: FaultPlan, num_disks: int) -> None:
        self.plan = plan
        self.states: dict[int, DiskFaultState] = {}
        dead = 0
        for spec in plan.disks:
            if spec.disk >= num_disks:
                raise ConfigError(
                    f"fault plan names disk {spec.disk} but the array has "
                    f"only {num_disks} disks"
                )
            self.states[spec.disk] = DiskFaultState(spec, plan.seed)
            if spec.dead_at_us is not None:
                dead += 1
        if dead >= num_disks:
            raise ConfigError(
                "fault plan kills every disk; at least one must survive "
                "for the reconstruction path"
            )

    def state(self, disk_index: int) -> DiskFaultState | None:
        return self.states.get(disk_index)

    def dead(self, disk_index: int, at_us: float) -> bool:
        state = self.states.get(disk_index)
        return state is not None and state.dead(at_us)


class HintFaultState:
    """Seeded hint-call failures and the demand-paging fallback machine.

    The run-time layer consults this in two places: :meth:`gate` before
    doing any per-request work (a layer in fallback does not even check
    the bit vector -- it is running as plain demand paging), and
    :meth:`draw_failure` at the moment a prefetch system call would be
    issued.  The layer itself charges the timeout cost and emits the
    trace events; this object only holds the seeded decisions.
    """

    __slots__ = ("plan", "_rng", "consecutive_failures", "cooldown_remaining",
                 "in_fallback")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = KeyedRng(plan.seed, "hints")
        self.consecutive_failures = 0
        self.cooldown_remaining = 0
        self.in_fallback = False

    def gate(self) -> bool:
        """Consume one request; False while the fallback cooldown runs.

        When the cooldown expires the state exits fallback and the
        *current* request proceeds -- that is the re-probe.
        """
        if not self.in_fallback:
            return True
        if self.cooldown_remaining > 0:
            self.cooldown_remaining -= 1
            return False
        self.in_fallback = False
        return True

    def draw_failure(self) -> bool:
        """One seeded draw per prefetch call reaching the OS boundary."""
        return self._rng.random() < self.plan.hint_failure_rate

    def note_failure(self) -> bool:
        """Record one failed call; True when it tips into fallback."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.plan.fallback_after:
            self.consecutive_failures = 0
            self.in_fallback = True
            self.cooldown_remaining = self.plan.fallback_cooldown
            return True
        return False

    def note_success(self) -> None:
        self.consecutive_failures = 0


class LaggedBitVector:
    """A residency bit vector whose updates become visible late.

    Wraps the real :class:`~repro.vm.residency.ResidencyBitVector`:
    ``set``/``clear`` are queued for ``lag_us`` simulated microseconds
    and applied (in order) by the first :meth:`test` at or after their
    visible time.  The filter can therefore be stale in both directions
    -- it may filter a prefetch for a page that was just evicted (the
    page faults later; hints are non-binding, so this only costs time)
    and it may pass a prefetch for a page that is already resident (the
    OS finds it and counts it unnecessary).

    The chunk kernel classifies prefetches against :attr:`inner` as it
    stands, without applying the queue, and hands the run-time layer
    every prefetch whose test time reaches :meth:`due_us`; so the queue
    is applied at exactly the tests the scalar loop makes.
    """

    __slots__ = ("inner", "clock", "lag_us", "_pending")

    def __init__(self, inner, clock, lag_us: float) -> None:
        if lag_us <= 0:
            raise ConfigError(f"bit-vector lag must be > 0, got {lag_us}")
        self.inner = inner
        self.clock = clock
        self.lag_us = lag_us
        #: Queued ``(visible_at_us, op, vpage)`` updates, oldest first.
        self._pending: deque[tuple[float, bool, int]] = deque()

    @property
    def granularity(self) -> int:
        return self.inner.granularity

    def _apply_due(self) -> None:
        now = self.clock.now
        pending = self._pending
        while pending and pending[0][0] <= now:
            _, is_set, vpage = pending.popleft()
            if is_set:
                self.inner.set(vpage)
            else:
                self.inner.clear(vpage)

    def set(self, vpage: int) -> None:
        self._pending.append((self.clock.now + self.lag_us, True, vpage))

    def clear(self, vpage: int) -> None:
        self._pending.append((self.clock.now + self.lag_us, False, vpage))

    def test(self, vpage: int) -> bool:
        self._apply_due()
        return self.inner.test(vpage)

    def due_us(self) -> float:
        """Visible time of the oldest queued update (inf when none)."""
        return self._pending[0][0] if self._pending else math.inf

