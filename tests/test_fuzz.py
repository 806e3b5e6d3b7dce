"""Tests for the fuzz subsystem (repro/fuzz/) and its satellites.

The centerpiece is the mutation guard: deliberately breaking the
run-time filter (a bit vector that always claims residency) must be
*caught* by the filter-soundness oracle, shrunk by hypothesis, and
serialized into a corpus file that replays red while the bug lives and
green once it is reverted -- the end-to-end proof that the fuzzer can
see the class of bug it exists for.  Around it: campaign determinism,
scenario JSON round-trips, corpus IO, the seeding helpers, the NaN
validation the fuzzer forced into the config layer, and the
multiprogrammed chaos properties (termination + exact stall
attribution).
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings as hypothesis_settings

from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import ConfigError, IRError, ensure_finite
from repro.faults.plan import FaultPlan, PressureStorm, SlowWindow
from repro.fuzz import (
    FUZZ_PROFILES,
    ORACLE_NAMES,
    STRATEGY_NAMES,
    OracleViolation,
    Scenario,
    load_entry,
    replay_entry,
    run_fuzz,
    run_oracles,
    write_entry,
)
from repro.fuzz.oracles import ORACLE_CHECKS, StallWaitAccumulator
from repro.fuzz.scenario import PlatformSpec, ProgramSpec
from repro.fuzz.strategies import scenarios
from repro.harness.experiment import run_variant
from repro.multiprog import CoScheduler
from repro.obs import Observer
from repro.seeding import derive_int, derive_key, derive_rng
from repro.vm.residency import ResidencyBitVector


def _quick(strategy, examples=15):
    """Decorator stack for a small, seeded, database-free property."""
    def wrap(fn):
        return hypothesis_seed(424242)(hypothesis_settings(
            max_examples=examples, deadline=None, database=None,
            suppress_health_check=list(HealthCheck),
        )(given(strategy)(fn)))
    return wrap


# ----------------------------------------------------------------------
# Scenario model
# ----------------------------------------------------------------------


class TestScenarioModel:
    @pytest.mark.parametrize("family", ORACLE_NAMES)
    def test_generated_scenarios_round_trip_json(self, family):
        @_quick(scenarios(family), examples=10)
        def prop(scenario):
            blob = json.dumps(scenario.to_dict(), sort_keys=True)
            rebuilt = Scenario.from_dict(json.loads(blob))
            assert rebuilt == scenario

        prop()

    def test_generated_programs_build_valid_ir(self):
        @_quick(scenarios("vector_equivalence"), examples=10)
        def prop(scenario):
            program = scenario.program.build()
            assert insert_prefetches(
                program,
                CompilerOptions.from_platform(scenario.platform.build()),
            ).program is not None

        prop()

    def test_unknown_oracle_name_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown oracle"):
            Scenario(
                program=ProgramSpec(pattern="stream",
                                    params={"nelems": 1024}),
                platform=PlatformSpec(),
                oracles=("no_such_oracle",),
            )

    def test_unknown_pattern_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown pattern"):
            ProgramSpec(pattern="quicksort", params={})

    def test_oracle_registry_matches_names(self):
        assert tuple(ORACLE_CHECKS) == ORACLE_NAMES
        assert len(STRATEGY_NAMES) == 7


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------


class TestCampaign:
    def test_smoke_campaign_is_green_and_exercises_every_family(self):
        report = run_fuzz(seed=5, profile="smoke")
        assert report.ok
        assert report.families_run == list(ORACLE_NAMES)
        assert not report.families_skipped
        expected = 7 * FUZZ_PROFILES["smoke"].examples_per_family
        assert report.scenarios == expected
        assert report.oracle_checks >= expected
        assert report.runs > report.scenarios  # several runs per oracle

    def test_same_seed_reproduces_the_campaign(self):
        first = run_fuzz(seed=5, profile="smoke").to_dict()
        second = run_fuzz(seed=5, profile="smoke").to_dict()
        first.pop("wall_s"), second.pop("wall_s")
        assert first == second

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown fuzz profile"):
            run_fuzz(profile="exhaustive")

    def test_report_publishes_fuzz_metrics(self):
        from repro.obs import MetricsRegistry
        from repro.obs.metrics import FUZZ_METRIC_NAMES

        report = run_fuzz(seed=5, profile="smoke")
        registry = MetricsRegistry()
        report.publish(registry)
        assert set(registry.names()) == set(FUZZ_METRIC_NAMES)


# ----------------------------------------------------------------------
# The mutation guard: a broken filter must be caught, shrunk, replayed
# ----------------------------------------------------------------------


class TestMutationGuard:
    def _broken_filter_finding(self):
        """Fuzz the filter family and return the shrunk violation."""
        @_quick(scenarios("filter_soundness"), examples=30)
        def prop(scenario):
            run_oracles(scenario)

        with pytest.raises(OracleViolation) as excinfo:
            prop()
        return excinfo.value

    def test_broken_filter_is_caught_shrunk_and_replayable(
        self, tmp_path, monkeypatch
    ):
        # The mutation: the residency bit vector always answers "here",
        # so the filter silently drops prefetches for on-disk pages --
        # exactly the unsoundness oracle (c) exists to see.
        monkeypatch.setattr(ResidencyBitVector, "test",
                            lambda self, vpage: True)
        violation = self._broken_filter_finding()
        assert violation.oracle == "filter_soundness"
        assert "suppressed a prefetch" in violation.detail

        # Serialize the shrunk scenario; it replays red while broken...
        path = write_entry(tmp_path, violation)
        scenario, oracle = load_entry(path)
        assert oracle == "filter_soundness"
        assert scenario == violation.scenario
        with pytest.raises(OracleViolation):
            replay_entry(path)

        # ... and green once the mutation is reverted.
        monkeypatch.undo()
        replay_entry(path)


# ----------------------------------------------------------------------
# Corpus IO
# ----------------------------------------------------------------------


class TestCorpusIO:
    def _violation(self):
        scenario = Scenario(
            program=ProgramSpec(pattern="stream", params={"nelems": 2048}),
            platform=PlatformSpec(memory_pages=16, num_disks=1,
                                  prefetch_block_pages=2,
                                  available_fraction=1.0),
            oracles=("vector_equivalence",),
        )
        return OracleViolation("vector_equivalence", scenario, "demo")

    def test_write_then_load_round_trips(self, tmp_path):
        violation = self._violation()
        path = write_entry(tmp_path, violation)
        assert path.name.startswith("vector_equivalence-")
        scenario, oracle = load_entry(path)
        assert scenario == violation.scenario
        assert oracle == "vector_equivalence"

    def test_filename_is_content_addressed(self, tmp_path):
        violation = self._violation()
        assert write_entry(tmp_path, violation) == write_entry(
            tmp_path, violation)

    def test_garbage_and_versioned_entries_are_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot load corpus entry"):
            load_entry(bad)
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"oracle": "stall_bound"}))
        with pytest.raises(ConfigError, match="no scenario"):
            load_entry(missing)
        future = tmp_path / "future.json"
        violation = self._violation()
        future.write_text(json.dumps({
            "corpus_version": 999, "oracle": "vector_equivalence",
            "scenario": violation.scenario.to_dict(),
        }))
        with pytest.raises(ConfigError, match="version 999"):
            load_entry(future)

    def test_campaign_replays_corpus_and_reports_red_entries(self, tmp_path):
        # A corpus entry that is *still failing* must be reported as a
        # corpus-sourced finding, not silently skipped: declare a stall
        # bound of zero, which no out-of-core run can meet.
        scenario = Scenario(
            program=ProgramSpec(pattern="stream", params={"nelems": 4096}),
            platform=PlatformSpec(memory_pages=8, num_disks=1,
                                  prefetch_block_pages=1,
                                  available_fraction=0.5),
            oracles=("stall_bound",),
            stall_factor=0.0, stall_slack_us=0.0,
        )
        write_entry(tmp_path, OracleViolation("stall_bound", scenario, "x"))
        report = run_fuzz(seed=5, profile="smoke", corpus_dir=tmp_path)
        assert report.corpus_replayed == 1
        corpus_findings = [f for f in report.findings
                           if f.source == "corpus"]
        assert len(corpus_findings) == 1
        assert corpus_findings[0].oracle == "stall_bound"

    def test_run_oracles_wraps_crashes_as_violations(self, monkeypatch):
        scenario = self._violation().scenario
        monkeypatch.setitem(
            ORACLE_CHECKS, "vector_equivalence",
            lambda s: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(OracleViolation,
                           match="unexpected RuntimeError"):
            run_oracles(scenario)


# ----------------------------------------------------------------------
# Satellite: centralized seeding
# ----------------------------------------------------------------------


class TestSeeding:
    def test_key_is_colon_joined(self):
        assert derive_key(7, "disk", 2) == "7:disk:2"

    def test_rng_matches_historical_spelling(self):
        import random

        assert (derive_rng(7, "disk", 2).random()
                == random.Random("7:disk:2").random())

    def test_int_is_stable_and_uncorrelated(self):
        assert derive_int(1, "fuzz", "stall_bound") == derive_int(
            1, "fuzz", "stall_bound")
        assert derive_int(1, "fuzz", "a") != derive_int(1, "fuzz", "b")
        assert derive_int(1, "fuzz", "a") != derive_int(2, "fuzz", "a")
        assert 0 <= derive_int(1, bits=16) < (1 << 16)


# ----------------------------------------------------------------------
# Satellite: NaN/inf validation (fuzz-found gap)
# ----------------------------------------------------------------------


class TestFiniteValidation:
    def test_ensure_finite_accepts_numbers_and_names_the_field(self):
        assert ensure_finite(3.5, "x") == 3.5
        with pytest.raises(ConfigError, match="slow start"):
            ensure_finite(float("nan"), "slow start")

    def test_fault_plan_rejects_non_finite_times(self):
        with pytest.raises(ConfigError):
            SlowWindow(start_us=float("nan"), duration_us=1.0,
                       multiplier=2.0)
        with pytest.raises(ConfigError):
            PressureStorm(start_us=0.0, frames=1, hold_us=float("inf"))
        with pytest.raises(ConfigError):
            FaultPlan(seed=1, crashes=(float("nan"),))

    def test_checkpoint_config_rejects_non_finite_cadence(self):
        from repro.checkpoint import CheckpointConfig
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            CheckpointConfig(every_us=float("nan"))

    def test_work_cost_rejects_non_finite(self):
        from repro.core.ir.builder import work

        with pytest.raises(IRError):
            work([], float("inf"))


# ----------------------------------------------------------------------
# Satellite: multiprogrammed chaos (termination + exact attribution)
# ----------------------------------------------------------------------


def _mp_platform():
    return PlatformConfig(memory_pages=16, num_disks=2,
                          prefetch_block_pages=2)


def _mp_run(fault_plan=None, observer=None, tenants=2):
    from repro.apps.synthetic import repeated_sweep

    platform = _mp_platform()
    sched = CoScheduler(platform, observer=observer, fault_plan=fault_plan)
    options = CompilerOptions.from_platform(platform)
    for tenant in range(tenants):
        program = repeated_sweep(1024, 2)
        if tenant % 2 == 0:
            program = insert_prefetches(program, options).program
        sched.add_process(program, name=f"t{tenant}",
                          prefetching=tenant % 2 == 0)
    return sched.run()


class TestMultiprogChaos:
    PLAN = FaultPlan(
        seed=3,
        storms=(PressureStorm(start_us=5_000.0, frames=3, bursts=2,
                              period_us=40_000.0, hold_us=15_000.0),),
        hint_failure_rate=0.05,
    )

    def test_faulted_coschedule_terminates_and_degrades(self):
        clean = _mp_run()
        faulted = _mp_run(fault_plan=self.PLAN)
        assert faulted.elapsed_us > 0
        assert faulted.elapsed_us >= clean.elapsed_us

    def test_stall_read_is_exactly_attributed_under_faults(self):
        obs = Observer()
        sink = StallWaitAccumulator()
        obs.sink = sink
        result = _mp_run(fault_plan=self.PLAN, observer=obs)
        # Bitwise: the trace's stall_frame_wait events, summed in
        # arrival order, rebuild the clock's stall-read accumulator.
        assert sink.total_us == result.times.stall_read
        assert sink.events > 0

    def test_scheduler_reports_idle_wait(self):
        result = _mp_run(fault_plan=self.PLAN)
        assert result.idle_wait_us >= 0.0


# ----------------------------------------------------------------------
# Satellite: pressure-storm overclaim (fuzz-found crash, now fixed)
# ----------------------------------------------------------------------


class TestPressureOverclaim:
    def test_storm_larger_than_memory_never_crashes_the_manager(self):
        # Regression for the fuzz-found MachineError ("no frame
        # available and no page is evictable"): a permanent storm
        # claiming more frames than exist must leave the application
        # its last frame and the run must complete.
        from repro.apps.synthetic import stencil1d

        platform = PlatformConfig(memory_pages=8, num_disks=1,
                                  prefetch_block_pages=1,
                                  available_fraction=0.5)
        plan = FaultPlan(seed=1, storms=(
            PressureStorm(start_us=0.0, frames=16, bursts=1),))
        compiled = insert_prefetches(
            stencil1d(512), CompilerOptions.from_platform(platform)
        ).program
        stats = run_variant(compiled, platform, prefetching=True,
                            fault_plan=plan)
        assert stats.elapsed_us > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestFuzzCli:
    def test_replay_without_files_is_usage_error(self, capsys):
        from repro.cli import main
        from repro.errors import ExitCode

        assert main(["fuzz", "replay"]) == ExitCode.USAGE
        assert "needs at least one corpus FILE" in capsys.readouterr().err

    def test_campaign_cli_writes_report_and_metrics(self, tmp_path, capsys):
        from repro.cli import main
        from repro.errors import ExitCode

        report_path = tmp_path / "report.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "fuzz", "--profile", "smoke", "--seed", "3",
            "--corpus", str(tmp_path / "corpus"),
            "--report-out", str(report_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == ExitCode.OK
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["seed"] == 3
        metrics = json.loads(metrics_path.read_text())["metrics"]
        assert metrics["fuzz.scenarios"]["value"] > 0
        assert "fuzz campaign" in capsys.readouterr().out
