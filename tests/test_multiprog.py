"""Tests for the multiprogrammed co-scheduler."""

import pytest

from repro.apps import synthetic
from repro.apps.registry import get_app
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import MachineError
from repro.harness.experiment import run_variant
from repro.multiprog import CoScheduler
from repro.obs import Observer
from repro.obs.trace import TraceKind

CFG = PlatformConfig(memory_pages=256)
OPTS = CompilerOptions.from_platform(CFG)


def compiled_stream(n=100_000, cost=10.0, name="s"):
    prog = synthetic.stream(n, cost_us=cost, writes=True, name=name)
    return insert_prefetches(prog, OPTS).program


class TestSchedulerBasics:
    def test_single_process_matches_solo_run_roughly(self):
        """One co-scheduled process ~= the plain executor (same machine
        semantics, different drivers)."""
        prog1 = synthetic.stream(100_000, cost_us=10.0, writes=True)
        solo = run_variant(prog1, CFG, prefetching=False)
        sched = CoScheduler(CFG)
        prog2 = synthetic.stream(100_000, cost_us=10.0, writes=True)
        sched.add_process(prog2, name="only", prefetching=False)
        result = sched.run()
        assert result.elapsed_us == pytest.approx(solo.elapsed_us, rel=0.05)
        assert result.stats.faults.total_faults == solo.faults.total_faults

    def test_empty_scheduler_rejected(self):
        with pytest.raises(MachineError):
            CoScheduler(CFG).run()

    def test_run_twice_rejected(self):
        sched = CoScheduler(CFG)
        sched.add_process(synthetic.stream(5_000), prefetching=False)
        sched.run()
        with pytest.raises(MachineError):
            sched.run()
        with pytest.raises(MachineError):
            sched.add_process(synthetic.stream(5_000))

    def test_bad_quantum(self):
        with pytest.raises(MachineError):
            CoScheduler(CFG, quantum_us=0)

    def test_duplicate_programs_get_disjoint_segments(self):
        sched = CoScheduler(CFG)
        sched.add_process(synthetic.stream(20_000, name="same"), prefetching=False)
        sched.add_process(synthetic.stream(20_000, name="same"), prefetching=False)
        result = sched.run()
        # Both processes fault their own copies: ~2x the pages.
        pages = 20_000 * 8 // CFG.page_size
        assert result.stats.faults.total_faults >= 2 * pages - 4

    @pytest.mark.parametrize("case", ["o-beside-its-p", "one-p-twice"])
    def test_programs_sharing_arrays_match_separate_builds(self, case):
        """A compiled program shares its ArrayDecl objects with its
        source; co-scheduling such programs must schedule exactly as
        separately built copies do."""
        platform = PlatformConfig(memory_pages=128)
        opts = CompilerOptions.from_platform(platform)

        def build():
            return get_app("EMBAR").make(120, seed=1)

        def compiled(program):
            return insert_prefetches(program, opts).program

        def schedule(procs):
            sched = CoScheduler(platform)
            for name, program, prefetching in procs:
                sched.add_process(program, name=name, prefetching=prefetching)
            return sched.run()

        if case == "o-beside-its-p":
            o = build()
            shared = [("P", compiled(o), True), ("O", o, False)]
            separate = [("P", compiled(build()), True), ("O", build(), False)]
        else:
            p = compiled(build())
            shared = [("P0", p, True), ("P1", p, True)]
            separate = [("P0", compiled(build()), True),
                        ("P1", compiled(build()), True)]
        assert schedule(shared) == schedule(separate)

    def test_process_lookup(self):
        sched = CoScheduler(CFG)
        sched.add_process(synthetic.stream(5_000), name="alpha", prefetching=False)
        result = sched.run()
        assert result.process("alpha").finish_us > 0
        with pytest.raises(MachineError):
            result.process("beta")


class TestMultiprogrammingEffects:
    def test_overlap_beats_serial_for_paged_vm(self):
        """Two O processes finish faster together than back to back:
        one's stall is the other's compute."""
        small = PlatformConfig(memory_pages=128)
        solo = run_variant(
            synthetic.stream(100_000, cost_us=10.0, writes=True),
            small, prefetching=False,
        )
        sched = CoScheduler(small)
        for k in range(2):
            sched.add_process(
                synthetic.stream(100_000, cost_us=10.0, writes=True, name=f"s{k}"),
                name=f"proc{k}", prefetching=False,
            )
        result = sched.run()
        assert result.elapsed_us < 2 * solo.elapsed_us * 0.9

    def test_prefetching_pair_beats_paged_pair(self):
        def run_pair(prefetching):
            sched = CoScheduler(CFG)
            for k in range(2):
                prog = synthetic.stream(100_000, cost_us=10.0, writes=True,
                                        name=f"s{k}")
                if prefetching:
                    prog = insert_prefetches(prog, OPTS).program
                sched.add_process(prog, name=f"proc{k}", prefetching=prefetching)
            return sched.run()

        o_pair = run_pair(False)
        p_pair = run_pair(True)
        assert p_pair.elapsed_us < o_pair.elapsed_us
        assert p_pair.times.idle < o_pair.times.idle

    def test_quantum_fairness(self):
        """Equal compute-bound processes finish near each other."""
        sched = CoScheduler(CFG, quantum_us=5_000.0)
        for k in range(3):
            sched.add_process(
                synthetic.stream(60_000, cost_us=10.0, name=f"s{k}"),
                name=f"proc{k}", prefetching=False,
            )
        result = sched.run()
        finishes = [p.finish_us for p in result.processes]
        assert max(finishes) < 1.25 * min(finishes)

    def test_accounting_adds_up(self):
        """Per-process cpu sums to the machine's busy time."""
        sched = CoScheduler(CFG)
        for k in range(2):
            sched.add_process(
                compiled_stream(name=f"s{k}"), name=f"proc{k}", prefetching=True
            )
        result = sched.run()
        total_cpu = sum(p.cpu_us for p in result.processes)
        busy = (result.times.user + result.times.system)
        assert total_cpu == pytest.approx(busy, rel=0.01)

    def test_observed_run_sets_disk_idle_fraction(self):
        """A co-scheduled run closes its accounting as a solo run does,
        so the observer's idle gauge is set once per disk."""
        obs = Observer(record_trace=False)
        sched = CoScheduler(CFG, observer=obs)
        for k in range(2):
            sched.add_process(compiled_stream(20_000, name=f"s{k}"),
                              name=f"proc{k}")
        result = sched.run()
        idle = [max(0.0, 1.0 - busy / result.elapsed_us)
                for busy in result.stats.disk.busy_us]
        gauge = obs.disk_idle_fraction
        assert gauge.as_dict()["seen"]
        assert (gauge.min, gauge.max, gauge.value) == (
            min(idle), max(idle), idle[-1])

    def test_release_app_leaves_memory_free_for_arrivals(self):
        """Table 3's multiprogramming promise, co-scheduled: a releasing
        stream keeps most of memory *free* while it runs, so a newly
        arriving application could be admitted instantly.  (A co-running
        reuse app is already protected either way -- the clock algorithm
        keeps re-referenced pages over streaming ones -- so the measurable
        difference is the free pool, not the neighbour's faults.)"""
        def co_run(companion_prefetching):
            sched = CoScheduler(CFG)
            companion = synthetic.stream(150_000, cost_us=6.0, writes=True,
                                         name="companion")
            if companion_prefetching:
                companion = insert_prefetches(companion, OPTS).program
            sched.add_process(companion, name="stream",
                              prefetching=companion_prefetching)
            reuse = synthetic.repeated_sweep(40_000, sweeps=4, cost_us=6.0,
                                             name="reuse")
            sched.add_process(reuse, name="reuse", prefetching=False)
            result = sched.run()
            return result.stats.memory.avg_free_fraction(result.elapsed_us)

        free_with = co_run(True)
        free_without = co_run(False)
        assert free_with > free_without + 0.2, (free_with, free_without)


class TestWithNasApps:
    def test_two_nas_apps_complete(self):
        platform = PlatformConfig(memory_pages=128)
        opts = CompilerOptions.from_platform(platform)
        sched = CoScheduler(platform)
        for name in ("EMBAR", "BUK"):
            prog = get_app(name).make(platform.available_frames)
            compiled = insert_prefetches(prog, opts).program
            sched.add_process(compiled, name=name, prefetching=True)
        result = sched.run()
        assert all(p.finish_us > 0 for p in result.processes)
        assert result.stats.release.pages_released > 0

    def test_stall_values_are_never_negative(self):
        """A blocked process never waits less than zero: a page whose
        prefetch lands during the fault service records a zero stall."""
        platform = PlatformConfig(memory_pages=128)
        opts = CompilerOptions.from_platform(platform)
        obs = Observer()
        sched = CoScheduler(platform, observer=obs)
        for name in ("CGM", "MGRID"):
            prog = get_app(name).make(120, seed=1)
            sched.add_process(insert_prefetches(prog, opts).program, name=name)
        sched.run()
        assert obs.metrics.get("obs.stall_latency_us").min >= 0
        faults = [e for e in obs.trace.events() if e.kind is TraceKind.FAULT]
        assert faults and all(e.value >= 0 for e in faults)
