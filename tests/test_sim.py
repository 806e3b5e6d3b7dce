"""Tests for the simulated clock and the statistics containers."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.sim import clock as clock_module
from repro.sim.clock import Clock, TimeCategory
from repro.sim.stats import (
    DiskStats,
    FaultStats,
    MemoryStats,
    PrefetchStats,
    TimeBreakdown,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advance_accumulates_per_category(self):
        clock = Clock()
        clock.advance(10.0, TimeCategory.USER_COMPUTE)
        clock.advance(5.0, TimeCategory.SYS_FAULT)
        clock.advance(2.5, TimeCategory.USER_COMPUTE)
        assert clock.now == 17.5
        assert clock.spent(TimeCategory.USER_COMPUTE) == 12.5
        assert clock.spent(TimeCategory.SYS_FAULT) == 5.0

    def test_negative_advance_rejected(self):
        with pytest.raises(MachineError):
            Clock().advance(-1.0, TimeCategory.USER_COMPUTE)

    def test_zero_advance_is_noop(self):
        clock = Clock()
        clock.advance(0.0, TimeCategory.USER_COMPUTE)
        assert clock.now == 0.0

    def test_wait_until_future(self):
        clock = Clock()
        waited = clock.wait_until(100.0, TimeCategory.STALL_READ)
        assert waited == 100.0
        assert clock.now == 100.0
        assert clock.stall_time() == 100.0

    def test_wait_until_past_is_noop(self):
        clock = Clock()
        clock.advance(50.0, TimeCategory.USER_COMPUTE)
        waited = clock.wait_until(20.0, TimeCategory.STALL_READ)
        assert waited == 0.0
        assert clock.now == 50.0

    def test_busy_vs_stall_partition(self):
        clock = Clock()
        clock.advance(10.0, TimeCategory.USER_COMPUTE)
        clock.advance(3.0, TimeCategory.SYS_PREFETCH)
        clock.wait_until(20.0, TimeCategory.STALL_READ)
        assert clock.busy_time() == 13.0
        assert clock.stall_time() == 7.0
        assert clock.busy_time() + clock.stall_time() == pytest.approx(clock.now)

    def test_busy_time_independent_of_hash_seed(self):
        """The busy sum runs in declaration order, so its last bits do not
        follow ``PYTHONHASHSEED`` (a set's iteration order does)."""
        script = (
            "from repro.sim.clock import Clock, TimeCategory as T\n"
            "clock = Clock()\n"
            "for d, c in zip((0.1, 0.2, 0.3, 0.7, 1.1),\n"
            "                (T.USER_COMPUTE, T.USER_OVERHEAD, T.SYS_FAULT,\n"
            "                 T.SYS_PREFETCH, T.SYS_RELEASE)):\n"
            "    clock.advance(d, c)\n"
            "print(repr(clock.busy_time()))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for seed in ("1", "2", "3", "4", "5", "6"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(outputs) == 1


#: Charges as the chunk kernel makes them: small costs, many exact zeros.
_CHARGES = st.lists(
    st.tuples(st.one_of(st.just(0.0),
                        st.floats(0.0, 1e4, allow_nan=False)),
              st.sampled_from(list(TimeCategory))),
    max_size=40,
)


class TestClockCharge:
    """``Clock.charge`` is one ``advance`` per charge, bit for bit."""

    @staticmethod
    def _state(clock: Clock) -> list:
        return [clock.now.hex()] + [v.hex() for v in clock.breakdown().values()]

    @pytest.mark.parametrize("as_array", [False, True],
                             ids=["tuple", "ndarray"])
    @settings(max_examples=200, deadline=None)
    @given(start=_CHARGES, charges=_CHARGES)
    def test_equals_one_advance_per_charge(self, as_array, start, charges):
        self._check_fold(as_array, True, start, charges)

    @pytest.mark.parametrize("as_array", [False, True],
                             ids=["tuple", "ndarray"])
    @settings(max_examples=200, deadline=None)
    @given(start=_CHARGES, charges=_CHARGES)
    def test_numpy_fold_equals_one_advance_per_charge(self, as_array, start,
                                                      charges):
        """Sequences longer than ``_PYTHON_FOLD`` take the numpy fold."""
        self._check_fold(as_array, False, start, charges)

    def _check_fold(self, as_array, python_fold, start, charges):
        one_by_one, batched = Clock(), Clock()
        for clock in (one_by_one, batched):
            for duration, category in start:
                clock.advance(duration, category)
        for duration, category in charges:
            one_by_one.advance(duration, category)
        durations = tuple(d for d, _ in charges)
        slots = tuple(c.slot for _, c in charges)
        if as_array:
            durations, slots = np.array(durations), np.array(slots, dtype=int)
        # Every sequence takes the fold the parameter names.
        with mock.patch.object(clock_module, "_PYTHON_FOLD",
                               len(durations) if python_fold else 0):
            batched.charge(durations, slots)
        assert self._state(batched) == self._state(one_by_one)
        assert type(batched.now) is float
        assert all(type(v) is float for v in batched.breakdown().values())

    @pytest.mark.parametrize("length", [2, 9, clock_module._PYTHON_FOLD + 1])
    def test_negative_charge_raises(self, length):
        clock = Clock()
        with pytest.raises(MachineError):
            clock.charge([1.0] * (length - 1) + [-1.0],
                         [TimeCategory.USER_COMPUTE.slot] * length)


class TestTimeBreakdown:
    def test_from_clock(self):
        clock = Clock()
        clock.advance(4.0, TimeCategory.USER_COMPUTE)
        clock.advance(1.0, TimeCategory.USER_OVERHEAD)
        clock.advance(2.0, TimeCategory.SYS_FAULT)
        clock.wait_until(10.0, TimeCategory.STALL_FLUSH)
        b = TimeBreakdown.from_clock(clock)
        assert b.user == 5.0
        assert b.system == 2.0
        assert b.idle == 3.0
        assert b.total == pytest.approx(clock.now)


class TestFaultStats:
    def test_coverage(self):
        f = FaultStats(prefetched_hit=75, prefetched_fault=5, nonprefetched_fault=20)
        assert f.coverage == pytest.approx(0.8)
        assert f.total_faults == 100
        assert f.actual_faults == 25

    def test_coverage_no_faults(self):
        assert FaultStats().coverage == 0.0


class TestPrefetchStats:
    def test_unnecessary_fraction(self):
        p = PrefetchStats(compiler_inserted=100, filtered=90, unnecessary_issued=6)
        assert p.unnecessary_fraction == pytest.approx(0.96)

    def test_issued_useful_fraction(self):
        p = PrefetchStats(issued_pages=10, disk_reads=7, reclaimed=2)
        assert p.issued_useful_fraction == pytest.approx(0.9)

    def test_zero_division_guards(self):
        p = PrefetchStats()
        assert p.unnecessary_fraction == 0.0
        assert p.issued_useful_fraction == 0.0


class TestDiskStats:
    def test_utilization(self):
        d = DiskStats(busy_us=[50.0, 100.0])
        assert d.utilization(100.0) == pytest.approx(0.75)

    def test_utilization_guards(self):
        assert DiskStats().utilization(100.0) == 0.0
        assert DiskStats(busy_us=[1.0]).utilization(0.0) == 0.0

    def test_total_requests(self):
        d = DiskStats(reads_fault=3, reads_prefetch=4, writes=5)
        assert d.total_requests == 12


class TestMemoryStats:
    def test_avg_free_fraction(self):
        m = MemoryStats(frames_total=10, free_integral=500.0)
        assert m.avg_free_fraction(100.0) == pytest.approx(0.5)

    def test_avg_free_guards(self):
        assert MemoryStats().avg_free_fraction(10.0) == 0.0
