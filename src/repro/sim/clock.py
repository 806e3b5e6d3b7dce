"""The simulated clock.

The whole system runs on simulated time measured in microseconds.  Every
microsecond that passes is attributed to exactly one :class:`TimeCategory`,
which is what lets the harness reproduce the stacked execution-time bars of
the paper's Figure 3(a): user time, system time handling faults, system time
performing prefetches, and idle (I/O stall) time.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import MachineError


class TimeCategory(enum.Enum):
    """Where a slice of simulated time was spent.

    The first five categories are CPU-busy time; the last two are idle time
    during which the CPU waits for the disk subsystem.
    """

    #: Useful application computation.
    USER_COMPUTE = "user_compute"
    #: User-level overhead added by the prefetching transformation: prefetch
    #: address generation plus run-time-layer bit-vector checks.
    USER_OVERHEAD = "user_overhead"
    #: OS time servicing page faults.
    SYS_FAULT = "sys_fault"
    #: OS time servicing prefetch system calls.
    SYS_PREFETCH = "sys_prefetch"
    #: OS time servicing release system calls.
    SYS_RELEASE = "sys_release"
    #: CPU idle, waiting for a disk read (the I/O stall of Figure 3).
    STALL_READ = "stall_read"
    #: CPU idle at program end, waiting for dirty pages to drain to disk.
    STALL_FLUSH = "stall_flush"


# Each category's slot in a clock's list of per-category sums: a list
# indexed by an int attribute is several times cheaper per update than a
# dict keyed by the Enum, whose ``__hash__`` runs in Python.
for _slot, _category in enumerate(TimeCategory):
    _category.slot = _slot
del _slot, _category

#: Categories that count as CPU-busy (everything except stalls), in
#: declaration order: sums over them must not depend on string hashing.
BUSY_CATEGORIES = (
    TimeCategory.USER_COMPUTE,
    TimeCategory.USER_OVERHEAD,
    TimeCategory.SYS_FAULT,
    TimeCategory.SYS_PREFETCH,
    TimeCategory.SYS_RELEASE,
)

#: Longest charge sequence :meth:`Clock.charge` folds in Python: below
#: about a hundred charges the loop costs less than the numpy calls.
_PYTHON_FOLD = 96


def _fold(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...``, added left to right."""
    return float(np.cumsum(np.concatenate(((start,), values)))[-1])


class Clock:
    """Simulated clock with per-category time accounting."""

    __slots__ = ("now", "_spent")

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Time per category, indexed by ``TimeCategory.slot``.
        self._spent: list[float] = [0.0] * len(TimeCategory)

    def advance(self, duration_us: float, category: TimeCategory) -> None:
        """Spend ``duration_us`` microseconds in ``category``."""
        if duration_us < 0:
            raise MachineError(f"cannot advance the clock by {duration_us} us")
        if duration_us:
            self.now += duration_us
            self._spent[category.slot] += duration_us

    def charge(self, durations, slots) -> None:
        """Spend ``durations[i]`` (a float, or an ndarray element) in the
        category whose slot is ``slots[i]``, for each ``i`` in order.

        Bit for bit one :meth:`advance` per charge.  ``now`` and each
        category's total are left folds of their charges, and
        ``np.cumsum`` folds left, so one cumsum over all the charges
        (seeded with ``now``) and one over each category's (seeded with
        its total) give the same sums.  A zero charge is a no-op either
        way: no total is ever -0.0.  Sequences of at most
        :data:`_PYTHON_FOLD` charges are folded in Python, which costs
        less than the numpy calls.
        """
        if len(durations) <= _PYTHON_FOLD:
            if isinstance(durations, np.ndarray):
                durations = durations.tolist()
            if isinstance(slots, np.ndarray):
                slots = slots.tolist()
            for duration, slot in zip(durations, slots):
                if duration:
                    if duration < 0:
                        raise MachineError(
                            f"cannot advance the clock by {duration} us")
                    self.now += duration
                    self._spent[slot] += duration
            return
        durations = np.asarray(durations, dtype=np.float64)
        slots = np.asarray(slots)
        if durations.min() < 0:
            raise MachineError(
                f"cannot advance the clock by {durations.min()} us")
        self.now = _fold(self.now, durations)
        spent = self._spent
        for slot in np.flatnonzero(np.bincount(slots)).tolist():
            spent[slot] = _fold(spent[slot], durations[slots == slot])

    def wait_until(self, deadline_us: float, category: TimeCategory) -> float:
        """Idle until ``deadline_us`` (no-op if already past).

        Returns the amount of time actually spent waiting.
        """
        waited = deadline_us - self.now
        if waited <= 0.0:
            return 0.0
        self.now = deadline_us
        self._spent[category.slot] += waited
        return waited

    def spent(self, category: TimeCategory) -> float:
        """Total time attributed to ``category`` so far."""
        return self._spent[category.slot]

    def busy_time(self) -> float:
        """Total CPU-busy time (everything except stall categories)."""
        return sum(self._spent[c.slot] for c in BUSY_CATEGORIES)

    def stall_time(self) -> float:
        """Total idle time (read stalls plus the final flush wait)."""
        return (
            self._spent[TimeCategory.STALL_READ.slot]
            + self._spent[TimeCategory.STALL_FLUSH.slot]
        )

    def breakdown(self) -> dict[TimeCategory, float]:
        """A copy of the per-category accounting, in declaration order."""
        return dict(zip(TimeCategory, self._spent))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self.now:.1f}us)"
