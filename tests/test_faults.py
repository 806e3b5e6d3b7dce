"""Tests for the fault-injection subsystem (repro.faults).

Covers the plan dataclasses (validation, JSON round trip, intensity
scaling), the per-layer fault state machines, the degraded execution
paths (fail-slow, retries, reconstruction, hint fallback, storms,
bit-vector lag), seeded determinism, and the Hypothesis safety
properties: a faulted run terminates, never loses a write, and is never
faster than the clean run.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.synthetic import stream
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import ConfigError
from repro.faults import (
    DiskFaultSpec,
    FaultPlan,
    LaggedBitVector,
    PressureStorm,
    SlowWindow,
    chaos_sweep,
    default_plan,
    load_plan,
    save_plan,
)
from repro.faults.inject import DiskFaultState, HintFaultState
from repro.interp.executor import Executor
from repro.machine.machine import Machine
from repro.sim.clock import Clock, TimeCategory
from repro.vm.residency import ResidencyBitVector

#: Small out-of-core platform: 64 frames of memory, 80 pages of data.
CFG = PlatformConfig(memory_pages=64, num_disks=4)
ELEMS_PER_PAGE = CFG.page_size // 8
DATA_PAGES = 80


def compiled_stream(writes: bool = False):
    # Low per-element compute keeps the run I/O-bound, so injected disk
    # degradation shows up in elapsed time instead of hiding under
    # compute that the prefetch pipeline overlaps anyway.
    program = stream(DATA_PAGES * ELEMS_PER_PAGE, cost_us=0.2, writes=writes)
    options = CompilerOptions.from_platform(CFG)
    return insert_prefetches(program, options).program


def run_faulted(program, plan, prefetching: bool = True):
    machine = Machine(CFG, prefetching=prefetching, fault_plan=plan)
    stats = Executor(machine).run(program)
    return machine, stats


@pytest.fixture(scope="module")
def read_program():
    return compiled_stream(writes=False)


@pytest.fixture(scope="module")
def write_program():
    return compiled_stream(writes=True)


@pytest.fixture(scope="module")
def clean_stats(read_program):
    return run_faulted(read_program, None)[1]


@pytest.fixture(scope="module")
def clean_write_stats(write_program):
    return run_faulted(write_program, None)[1]


class TestPlanValidation:
    def test_slow_window_multiplier_below_one_rejected(self):
        with pytest.raises(ConfigError):
            SlowWindow(start_us=0.0, duration_us=1.0, multiplier=0.5)

    def test_slow_window_needs_positive_duration(self):
        with pytest.raises(ConfigError):
            SlowWindow(start_us=0.0, duration_us=0.0)

    def test_read_error_rate_range(self):
        with pytest.raises(ConfigError):
            DiskFaultSpec(disk=0, read_error_rate=1.5)

    def test_negative_disk_index_rejected(self):
        with pytest.raises(ConfigError):
            DiskFaultSpec(disk=-1)

    def test_duplicate_disk_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(disks=(DiskFaultSpec(disk=0), DiskFaultSpec(disk=0)))

    def test_multi_burst_storm_needs_period(self):
        with pytest.raises(ConfigError):
            PressureStorm(start_us=0.0, frames=4, bursts=3)

    def test_fallback_after_positive(self):
        with pytest.raises(ConfigError):
            FaultPlan(fallback_after=0)

    def test_reconstruction_penalty_at_least_one(self):
        with pytest.raises(ConfigError):
            FaultPlan(reconstruction_penalty=0.5)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan().scaled(-1.0)


class TestPlanRoundTrip:
    def test_dict_round_trip(self):
        plan = default_plan(4, seed=9)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_file_round_trip(self, tmp_path):
        plan = default_plan(4, seed=2)
        path = tmp_path / "plan.json"
        save_plan(str(path), plan)
        assert load_plan(str(path)) == plan

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_plan(str(path))

    def test_load_rejects_unknown_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "warp_drive": True}))
        with pytest.raises(ConfigError):
            load_plan(str(path))


class TestScaling:
    def test_zero_intensity_is_noop(self):
        assert default_plan(4).scaled(0.0).is_noop()

    def test_half_intensity_halves_rates_and_spares_disks(self):
        plan = default_plan(4, seed=1)
        half = plan.scaled(0.5)
        assert half.hint_failure_rate == pytest.approx(plan.hint_failure_rate / 2)
        assert all(spec.dead_at_us is None for spec in half.disks)
        full = plan.scaled(1.0)
        assert any(spec.dead_at_us is not None for spec in full.disks)

    def test_multiplier_excess_interpolates(self):
        window = SlowWindow(start_us=0.0, duration_us=1.0, multiplier=5.0)
        plan = FaultPlan(disks=(DiskFaultSpec(disk=0, slow_windows=(window,)),))
        scaled = plan.scaled(0.5)
        assert scaled.disks[0].slow_windows[0].multiplier == pytest.approx(3.0)


class TestInjector:
    def test_plan_killing_every_disk_rejected(self):
        plan = FaultPlan(disks=tuple(
            DiskFaultSpec(disk=i, dead_at_us=0.0) for i in range(4)
        ))
        with pytest.raises(ConfigError):
            Machine(PlatformConfig(num_disks=4), fault_plan=plan)

    def test_disk_index_out_of_range_rejected(self):
        plan = FaultPlan(disks=(DiskFaultSpec(disk=7),))
        with pytest.raises(ConfigError):
            Machine(PlatformConfig(num_disks=4), fault_plan=plan)

    def test_storm_bursts_expand(self):
        plan = FaultPlan(storms=(
            PressureStorm(start_us=10.0, frames=4, bursts=3, period_us=100.0),
        ))
        machine = Machine(PlatformConfig(num_disks=4), fault_plan=plan)
        assert machine.stats.robust.storm_bursts == 3
        bursts = sorted(machine.manager._pressure_events)
        assert [b[0] for b in bursts] == [10.0, 110.0, 210.0]


class TestLaggedBitVector:
    def test_updates_visible_only_after_lag(self):
        clock = Clock()
        lagged = LaggedBitVector(ResidencyBitVector(1), clock, 100.0)
        lagged.set(5)
        assert not lagged.test(5)  # stale: the set has not landed yet
        clock.advance(100.0, TimeCategory.USER_COMPUTE)
        assert lagged.test(5)
        lagged.clear(5)
        assert lagged.test(5)  # stale in the other direction
        clock.advance(100.0, TimeCategory.USER_COMPUTE)
        assert not lagged.test(5)

    def test_due_us_is_the_oldest_queued_update(self):
        clock = Clock()
        lagged = LaggedBitVector(ResidencyBitVector(1), clock, 50.0)
        assert lagged.due_us() == float("inf")
        lagged.set(3)
        clock.advance(10.0, TimeCategory.USER_COMPUTE)
        lagged.clear(4)
        assert lagged.due_us() == 50.0
        clock.advance(40.0, TimeCategory.USER_COMPUTE)
        assert lagged.test(3)  # the test applies the due set...
        assert lagged.due_us() == 60.0  # ...and only that one


class TestDegradedRuns:
    def test_noop_plan_is_bit_identical(self, read_program, clean_stats):
        """An armed but empty plan must not perturb the simulation."""
        _, faulted = run_faulted(read_program, FaultPlan())
        assert faulted.publish().as_dict() == clean_stats.publish().as_dict()

    def test_dead_disk_and_fail_slow_completes(self, read_program, clean_stats):
        plan = FaultPlan(
            seed=3,
            disks=(
                DiskFaultSpec(disk=0, slow_windows=(
                    SlowWindow(start_us=1_000.0, duration_us=200_000.0,
                               multiplier=5.0),
                )),
                DiskFaultSpec(disk=1, dead_at_us=10_000.0),
            ),
        )
        _, stats = run_faulted(read_program, plan)
        assert stats.disk.degraded_reads > 0
        assert stats.elapsed_us > clean_stats.elapsed_us

    def test_transient_errors_are_retried(self, read_program, clean_stats):
        plan = FaultPlan(seed=4, disks=(
            DiskFaultSpec(disk=0, read_error_rate=0.3),
        ))
        _, stats = run_faulted(read_program, plan)
        assert stats.disk.retries > 0
        assert stats.elapsed_us > clean_stats.elapsed_us

    def test_retry_exhaustion_reconstructs(self, read_program):
        plan = FaultPlan(seed=5, max_retries=1, disks=(
            DiskFaultSpec(disk=0, read_error_rate=1.0),
        ))
        _, stats = run_faulted(read_program, plan)
        assert stats.disk.degraded_reads > 0

    def test_hint_failures_degrade_to_demand_paging(
        self, read_program, clean_stats
    ):
        plan = FaultPlan(seed=1, hint_failure_rate=1.0,
                         fallback_after=2, fallback_cooldown=16)
        _, stats = run_faulted(read_program, plan)
        assert stats.robust.hint_failures > 0
        assert stats.robust.fallback_episodes > 0
        assert stats.robust.hints_skipped > 0
        assert stats.prefetch.issued_pages < clean_stats.prefetch.issued_pages
        assert stats.elapsed_us > clean_stats.elapsed_us

    def test_storms_schedule_pressure(self, read_program, clean_stats):
        plan = FaultPlan(storms=(
            PressureStorm(start_us=20_000.0, frames=8, bursts=3,
                          period_us=80_000.0, hold_us=40_000.0),
        ))
        _, stats = run_faulted(read_program, plan)
        assert stats.robust.storm_bursts == 3
        assert stats.elapsed_us >= clean_stats.elapsed_us

    def test_bitvector_lag_completes(self, read_program, clean_stats):
        plan = FaultPlan(bitvector_lag_us=5_000.0)
        _, stats = run_faulted(read_program, plan)
        assert stats.elapsed_us >= clean_stats.elapsed_us

    def test_writes_survive_a_dead_disk(self, write_program):
        plan = FaultPlan(seed=6, disks=(
            DiskFaultSpec(disk=2, dead_at_us=1_000.0),
        ))
        machine, stats = run_faulted(write_program, plan)
        assert stats.disk.degraded_writes > 0
        assert not any(machine.manager.cols.dirty)


class TestDeterminism:
    PLAN = FaultPlan(
        seed=11,
        disks=(
            DiskFaultSpec(disk=0, read_error_rate=0.3, slow_windows=(
                SlowWindow(start_us=0.0, duration_us=100_000.0, multiplier=3.0),
            )),
            DiskFaultSpec(disk=1, dead_at_us=80_000.0),
        ),
        storms=(PressureStorm(start_us=30_000.0, frames=6, hold_us=50_000.0),),
        bitvector_lag_us=800.0,
        hint_failure_rate=0.3,
        fallback_after=2,
        fallback_cooldown=32,
    )

    def test_same_plan_same_run(self, read_program):
        _, first = run_faulted(read_program, self.PLAN)
        _, second = run_faulted(read_program, self.PLAN)
        assert first.publish().as_dict() == second.publish().as_dict()

    def test_reseeding_changes_the_run(self, read_program):
        _, first = run_faulted(read_program, self.PLAN)
        _, second = run_faulted(read_program, self.PLAN.with_seed(12))
        assert first.publish().as_dict() != second.publish().as_dict()

    @pytest.mark.parametrize("draws", [0, 1, 57, 2_000])
    def test_streams_pickle_as_key_and_draw_count(self, draws):
        """A round-tripped fault stream continues where the original is."""
        disk = DiskFaultState(self.PLAN.disks[0], self.PLAN.seed)
        hints = HintFaultState(self.PLAN)
        for _ in range(draws):
            disk.draw_read_error()
            hints.draw_failure()
        for state in (disk, hints):
            # The stream alone: its key and count, not the 625-word
            # generator state.
            assert len(pickle.dumps(state._rng, protocol=4)) < 200
            copy = pickle.loads(pickle.dumps(state, protocol=4))
            assert copy._rng.draws == draws
            assert ([copy._rng.random() for _ in range(1_000)]
                    == [state._rng.random() for _ in range(1_000)])


class TestChaosSweep:
    def test_sweep_reports_degradation(self):
        from repro.apps.registry import get_app

        report = chaos_sweep(
            get_app("EMBAR"),
            PlatformConfig(memory_pages=96, num_disks=4),
            intensities=(0.5, 1.0),
            data_pages=120,
            seed=1,
        )
        assert [row.intensity for row in report.rows] == [0.5, 1.0]
        for row in report.rows:
            assert report.slowdown(row) >= 1.0
            assert 0.0 <= row.drop_rate <= 1.0
        full = report.rows[-1]
        assert full.retries > 0
        assert full.degraded_requests > 0

    def test_empty_intensities_rejected(self):
        from repro.apps.registry import get_app

        with pytest.raises(ConfigError):
            chaos_sweep(get_app("EMBAR"), CFG, intensities=())


# ----------------------------------------------------------------------
# Property-based safety: any bounded plan terminates, conserves writes,
# and only ever slows the run down.
# ----------------------------------------------------------------------

_windows = st.builds(
    SlowWindow,
    start_us=st.floats(0.0, 200_000.0),
    duration_us=st.floats(1_000.0, 300_000.0),
    multiplier=st.floats(1.0, 8.0),
)


@st.composite
def _plans(draw):
    specs = []
    for disk in draw(st.lists(st.integers(0, 2), unique=True, max_size=2)):
        specs.append(DiskFaultSpec(
            disk=disk,
            slow_windows=tuple(draw(st.lists(_windows, max_size=2))),
            read_error_rate=draw(st.floats(0.0, 0.5)),
            dead_at_us=draw(st.one_of(st.none(), st.floats(0.0, 400_000.0))),
        ))
    storms = tuple(draw(st.lists(st.builds(
        PressureStorm,
        start_us=st.floats(0.0, 200_000.0),
        frames=st.integers(1, 8),
        hold_us=st.floats(10_000.0, 100_000.0),
    ), max_size=2)))
    return FaultPlan(
        seed=draw(st.integers(0, 10_000)),
        disks=tuple(specs),
        storms=storms,
        bitvector_lag_us=draw(st.floats(0.0, 3_000.0)),
        hint_failure_rate=draw(st.floats(0.0, 0.4)),
        fallback_after=draw(st.integers(1, 6)),
        fallback_cooldown=draw(st.integers(1, 128)),
    )


class TestFaultProperties:
    @settings(max_examples=10, deadline=None)
    @given(plan=_plans())
    def test_faulted_run_is_safe(self, write_program, clean_write_stats, plan):
        machine, stats = run_faulted(write_program, plan)
        # (a) terminated with closed accounting (Executor ran finish()).
        assert stats.elapsed_us > 0
        # (b) no write lost: nothing left dirty, and every scheduled
        # write-back reached a disk (degraded writes redirect, not drop).
        assert not any(machine.manager.cols.dirty)
        assert stats.disk.writes >= (
            stats.release.writebacks + stats.memory.eviction_writebacks
        )
        # (c) binding-resource faults (slow disks, errors, death, storms)
        # only ever cost time on an out-of-core workload.  Hint-dropping
        # faults carry no such bound: hints are non-binding and the paper
        # itself shows prefetch schedules can lose to demand paging
        # (Figure 4(c)), so dropping hints can legitimately speed an
        # I/O-bound run up -- for those plans only (a) and (b) apply.
        if plan.hint_failure_rate == 0 and plan.bitvector_lag_us == 0:
            assert stats.elapsed_us >= clean_write_stats.elapsed_us - 1e-6
