"""The benchmark's three workloads.

Every workload drives the simulator only through public entry points
(``AppSpec.make``, ``insert_prefetches``, ``run_variant``,
``run_with_recovery``, ``execute_job``, ``run_farm``) and checks each
run or job against its reference.  Study runs execute one at a time
(a closed loop with one client); the farm batch is submitted at once by
one client and drained by two workers.

* ``clean-table3`` -- all 8 NAS apps x {O, P} at the table3 footprint
  (~2x memory), unobserved, unfaulted, uncheckpointed: the paper's
  Figure 3 experiment and the vector-kernel path.
* ``faulted-resume`` -- all 8 apps, P only, at ~2x of half the default
  memory, under ``default_plan`` faults with 10 ms simulated
  checkpoints and one crash at mid-run,
  recovered through ``run_with_recovery``: the scalar loop plus
  checkpoint write *and* restore.
* ``farm-batch`` -- a seeded 48-job batch through ``run_farm`` with the
  default telemetry and checkpoint cadence: observers, trace-bearing
  snapshots, telemetry and the controller.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from batch import make_batch
from calibrate import calibration, scale
from reference import (ReferenceStore, digest, in_workers, program_key,
                       stats_digest, use_scalar_loop)

#: Farm workers (the benchmark host has two cores).
FARM_WORKERS = 2


@dataclass(frozen=True)
class Footprint:
    """Platform memory and data pages (None = the platform default and
    the ~2x-memory table3 footprint)."""

    memory_pages: int | None = None
    pages: int | None = None


@dataclass
class Outcome:
    """One study run or farm job of one pass."""

    label: str
    latency_s: float
    ok: bool
    problem: str = ""
    #: Host-speed scale around this run (calibrate.py).
    scale: float = 1.0


@dataclass
class PassResult:
    """One pass over a workload's runs or jobs."""

    wall_s: float
    #: First submission to the last terminal state (the whole pass for
    #: the closed-loop studies).
    span_s: float
    outcomes: list[Outcome]
    #: Geometric mean of simulated O/P elapsed time.
    sim_speedup: float
    #: The FarmReport, for farm passes.
    farm: object = None

    @property
    def scale(self) -> float:
        """Host-speed scale of the pass: its runs' scales, time-weighted."""
        total = sum(o.latency_s for o in self.outcomes)
        if not total:
            return 1.0
        return sum(o.latency_s * o.scale for o in self.outcomes) / total


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _check(stats, expected: dict) -> str:
    """Empty when ``stats`` matches its reference, else the difference."""
    if stats.elapsed_us != expected["sim_elapsed_us"]:
        return (f"sim_elapsed_us {stats.elapsed_us!r} != "
                f"{expected['sim_elapsed_us']!r}")
    if stats_digest(stats) != expected["digest"]:
        return "RunStats digest differs"
    return ""


def _stats_entry(stats) -> dict:
    return {"digest": stats_digest(stats), "sim_elapsed_us": stats.elapsed_us}


def study_reference(app: str, variant: str, memory_pages: int, pages: int,
                    seed: int, plan: dict | None) -> dict:
    """One study run on the scalar loop (runs in a reference worker)."""
    use_scalar_loop()
    from repro.apps.registry import get_app
    from repro.config import PlatformConfig
    from repro.core.options import CompilerOptions
    from repro.core.prefetch_pass import insert_prefetches
    from repro.faults.plan import FaultPlan
    from repro.harness.experiment import run_variant

    platform = PlatformConfig(memory_pages=memory_pages)
    program = get_app(app).make(pages, seed=seed)
    if variant == "P":
        options = CompilerOptions.from_platform(platform)
        program = insert_prefetches(program, options).program
    stats = run_variant(program, platform, prefetching=variant == "P",
                        fault_plan=FaultPlan.from_dict(plan) if plan else None)
    return dict(_stats_entry(stats), run=f"{app}/{variant}/seed{seed}")


def farm_reference(spec: dict, scratch: str) -> dict:
    """One farm job as a telemetry-on worker runs it: with an observer,
    which changes the last bits of some simulated times (CHANGES.md).
    Checkpoints are pure observation, so the reference skips them (a
    cadence no run reaches).  Runs in a reference worker."""
    use_scalar_loop()
    from repro.obs.observer import Observer
    from repro.serve import JobSpec, result_digest
    from repro.serve.worker import execute_job

    job = JobSpec.from_dict(spec)
    job_dir = Path(scratch) / job.job_id
    try:
        result = execute_job(job, job_dir, False, checkpoint_every_us=1e18,
                             observer=Observer())
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)
    return {"digest": result_digest(result),
            "run": f"{job.kind}/{job.app}/{job.variant}/seed{job.seed}"}


class Calibrated:
    """Calibration samples around consecutive runs of one pass.

    ``next()`` takes the sample that closes the current run and returns
    the run's scale from it and the sample that opened the run.  With no
    probe every scale is 1 (the traced run reports raw host time).
    """

    def __init__(self, probe) -> None:
        self.probe = probe
        self.last = probe() if probe is not None else None

    def next(self) -> float:
        if self.probe is None:
            return 1.0
        now = self.probe()
        factor = scale(self.last, now)
        self.last = now
        return factor


class Workload:
    """Shared shape: build inputs, resolve references, run passes."""

    name = ""
    #: Modules whose import cost counts toward ``setup_s``.
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, footprint: Footprint, scratch: Path) -> None:
        self.seed = seed
        self.footprint = footprint
        self.scratch = scratch
        self.items: list = []

    def platform(self):
        from repro.config import PlatformConfig

        if self.footprint.memory_pages is None:
            return PlatformConfig()
        return PlatformConfig(memory_pages=self.footprint.memory_pages)

    def data_pages(self, platform) -> int:
        from repro.harness.experiment import default_data_pages

        return self.footprint.pages or default_data_pages(platform)

    def tmpdir(self) -> Path:
        """A fresh directory under the scratch area (caller removes it)."""
        base = self.scratch / "tmp"
        base.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=base))

    def setup(self) -> None:
        """Build the seeded inputs (timed as part of ``setup_s``)."""
        self.items = self.build()

    def build(self) -> list:
        raise NotImplementedError

    def resolve(self, refs: ReferenceStore) -> list[str]:
        """Attach each item's reference; returns the keys used."""
        raise NotImplementedError

    def run_pass(self, tracer=None, probe=None) -> PassResult:
        """One pass; ``tracer`` labels runs, ``probe`` calibrates them."""
        raise NotImplementedError


@dataclass
class StudyCase:
    app: str
    program: object
    compiled: object
    key: str = ""
    expected: dict | None = None
    o_key: str = ""
    o_expected: dict | None = None


class CleanTable3(Workload):
    name = "clean-table3"
    modules = ("repro.apps.registry", "repro.core.prefetch_pass",
               "repro.harness.experiment")

    def build(self) -> list[StudyCase]:
        from repro.apps.registry import ALL_APPS
        from repro.core import prefetch_pass
        from repro.core.options import CompilerOptions

        platform = self.platform()
        pages = self.data_pages(platform)
        options = CompilerOptions.from_platform(platform)
        cases = []
        for spec in ALL_APPS:
            program = spec.make(pages, seed=self.seed)
            compiled = prefetch_pass.insert_prefetches(program, options).program
            cases.append(StudyCase(spec.name, program, compiled))
        return cases

    def plan_dict(self) -> dict | None:
        """The fault plan of every run (None: unfaulted)."""
        return None

    def resolve(self, refs: ReferenceStore) -> list[str]:
        platform = self.platform()
        pages = self.data_pages(platform)
        plan = self.plan_dict()
        context = (self.name, platform.memory_pages, pages, plan)
        jobs = {}
        for case in self.items:
            case.o_key = program_key(case.program, case.app, "O", *context)
            case.key = program_key(case.compiled, case.app, "P", *context)
            for key, variant in ((case.o_key, "O"), (case.key, "P")):
                jobs[key] = (study_reference, (case.app, variant,
                                               platform.memory_pages, pages,
                                               self.seed, plan))
        entries = refs.resolve(jobs)
        for case in self.items:
            case.o_expected = entries[case.o_key]
            case.expected = entries[case.key]
        return list(jobs)

    def run_pass(self, tracer=None, probe=None) -> PassResult:
        """One closed-loop pass; ``probe()`` (a calibration sample) runs
        between runs, outside their timing, to scale each run."""
        from repro.harness.experiment import run_variant

        platform = self.platform()
        outcomes = []
        elapsed: dict[tuple[str, str], float] = {}
        speed = Calibrated(probe)
        for case in self.items:
            for variant, program, expected in (
                    ("O", case.program, case.o_expected),
                    ("P", case.compiled, case.expected)):
                label = f"{case.app}/{variant}"
                if tracer is not None:
                    tracer.begin_run(label)
                t0 = time.perf_counter()
                try:
                    stats = run_variant(program, platform,
                                        prefetching=variant == "P")
                except Exception as exc:  # noqa: BLE001 -- counted, not fatal
                    outcome = Outcome(label, time.perf_counter() - t0, False,
                                      repr(exc))
                else:
                    latency = time.perf_counter() - t0
                    problem = _check(stats, expected)
                    elapsed[case.app, variant] = stats.elapsed_us
                    outcome = Outcome(label, latency, not problem, problem)
                outcome.scale = speed.next()
                outcomes.append(outcome)
        ratios = [elapsed[app, "O"] / elapsed[app, "P"]
                  for app, variant in elapsed
                  if variant == "P" and (app, "O") in elapsed]
        wall = sum(o.latency_s for o in outcomes)
        return PassResult(wall, wall, outcomes, geomean(ratios or [1.0]))


class FaultedResume(CleanTable3):
    name = "faulted-resume"
    modules = CleanTable3.modules + ("repro.faults.plan",
                                     "repro.checkpoint.runner")

    def build(self) -> list[StudyCase]:
        from repro.faults.plan import default_plan

        self.plan = default_plan(self.platform().num_disks, self.seed)
        return super().build()

    def plan_dict(self) -> dict:
        # The reference is the uninterrupted, uncheckpointed run under
        # the same faults: crash recovery must reproduce it bit for bit.
        return self.plan.to_dict()

    def run_pass(self, tracer=None, probe=None) -> PassResult:
        from repro.checkpoint.runner import CheckpointConfig, run_with_recovery
        from repro.interp.executor import Executor
        from repro.machine.machine import Machine
        from repro.serve.worker import DEFAULT_CHECKPOINT_EVERY_US

        platform = self.platform()
        plan = self.plan

        def incarnation():
            machine = Machine(platform, prefetching=True, fault_plan=plan)
            return machine, Executor(machine)

        dirs = [self.tmpdir() for _ in self.items]
        outcomes = []
        ratios = []
        speed = Calibrated(probe)
        for case, directory in zip(self.items, dirs):
            label = f"{case.app}/P"
            if tracer is not None:
                tracer.begin_run(label)
            config = CheckpointConfig(
                every_us=DEFAULT_CHECKPOINT_EVERY_US, directory=directory,
                label=case.app,
                crash_at_us=(case.expected["sim_elapsed_us"] / 2,))
            t0 = time.perf_counter()
            try:
                result = run_with_recovery(incarnation, case.compiled, config)
            except Exception as exc:  # noqa: BLE001 -- counted, not fatal
                outcome = Outcome(label, time.perf_counter() - t0, False,
                                  repr(exc))
            else:
                latency = time.perf_counter() - t0
                problem = _check(result.stats, case.expected)
                if not problem and (result.crashes, result.resumes) != (1, 1):
                    problem = (f"{result.crashes} crashes / {result.resumes} "
                               "resumes, expected one of each")
                outcome = Outcome(label, latency, not problem, problem)
                ratios.append(case.o_expected["sim_elapsed_us"]
                              / result.stats.elapsed_us)
            outcome.scale = speed.next()
            outcomes.append(outcome)
        for directory in dirs:
            shutil.rmtree(directory, ignore_errors=True)
        wall = sum(o.latency_s for o in outcomes)
        return PassResult(wall, wall, outcomes, geomean(ratios or [1.0]))


class FarmBatch(Workload):
    name = "farm-batch"
    modules = ("repro.serve", "repro.serve.worker", "repro.obs.observer")

    def __init__(self, seed: int, footprint: Footprint, scratch: Path,
                 tiny: bool = False) -> None:
        super().__init__(seed, footprint, scratch)
        self.tiny = tiny
        self.expected: dict[str, str] = {}

    def build(self) -> list:
        return make_batch(self.seed, self.footprint.memory_pages,
                          self.footprint.pages, tiny=self.tiny)

    def resolve(self, refs: ReferenceStore) -> list[str]:
        scratch = self.tmpdir()
        try:
            jobs = {digest(self.name, "observed", spec.to_dict()):
                    (farm_reference, (spec.to_dict(), str(scratch)))
                    for spec in self.items}
            entries = refs.resolve(jobs)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        for spec, key in zip(self.items, jobs):
            self.expected[spec.job_id] = entries[key]["digest"]
        return list(jobs)

    def _job_problem(self, job_id: str, result) -> str:
        from repro.serve import result_digest

        if result_digest(result) != self.expected[job_id]:
            return "result digest differs from the reference"
        return ""

    def run_pass(self, tracer=None, probe=None,
                 telemetry: bool = True) -> PassResult:
        from repro.obs.telemetry import TelemetryConfig
        from repro.serve import FarmConfig, run_farm

        config = FarmConfig(workers=FARM_WORKERS,
                            telemetry=TelemetryConfig(enabled=telemetry))
        workdir = self.tmpdir()
        if tracer is not None:
            tracer.begin_run("farm controller")
        # With a probe, full calibrations (not single ``probe`` samples)
        # are taken just before run_farm starts its workers and just
        # after it has joined them, while no worker runs.
        speed = Calibrated(calibration if probe is not None else None)
        try:
            start = time.perf_counter()
            report = run_farm(self.items, config, workdir)
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        factor = speed.next()
        outcomes = []
        for record in report.records:
            problem = (f"ended {record.state}" if record.state != "done"
                       else self._job_problem(record.spec.job_id,
                                              record.result))
            outcomes.append(Outcome(record.spec.job_id, record.latency_s,
                                    not problem, problem, factor))
        span = (max(r.finished_at for r in report.records)
                - min(r.submitted_at for r in report.records))
        speedups = [r.result["speedup"] for r in report.records
                    if r.state == "done" and r.spec.kind == "compare"]
        return PassResult(wall, span, outcomes, geomean(speedups or [1.0]),
                          farm=report)

    def solo_pass(self, tracer) -> tuple[list[float], list[Outcome]]:
        """Every job through ``execute_job`` as a worker runs it, under
        every worker layer, one job at a time on two spawned processes
        like the farm's two workers; each job's tracer state is merged
        into ``tracer``.  Returns per-job solo times (less the tracer's
        own cost) and outcomes."""
        scratch = self.tmpdir()
        try:
            results = in_workers([
                (solo_worker, (spec.to_dict(), str(scratch),
                               self.expected[spec.job_id]))
                for spec in self.items], workers=FARM_WORKERS)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        solo = []
        outcomes = []
        for state, seconds, outcome in results:
            tracer.merge(state)
            solo.append(seconds)
            outcomes.append(outcome)
        return solo, outcomes


def solo_worker(payload: dict, scratch: str,
                expected: str) -> tuple[dict, float, Outcome]:
    """One job in-process under every worker layer, with the observer
    and checkpoint cadence a farm worker uses (runs in a spawned
    process)."""
    from repro.obs.observer import Observer
    from repro.serve import JobSpec, result_digest
    from repro.serve.worker import DEFAULT_CHECKPOINT_EVERY_US, execute_job
    from tracer import WORKER_LAYERS, Tracer

    spec = JobSpec.from_dict(payload)
    tracer = Tracer(span_cap=1_000)
    tracer.install(WORKER_LAYERS)
    tracer.begin_run(spec.job_id)
    t0 = time.perf_counter()
    try:
        result = tracer.span(
            "serve.execute_job", execute_job, spec,
            Path(scratch) / spec.job_id, False,
            checkpoint_every_us=DEFAULT_CHECKPOINT_EVERY_US,
            observer=Observer())
    except Exception as exc:  # noqa: BLE001 -- counted, not fatal
        outcome = Outcome(spec.job_id, time.perf_counter() - t0, False,
                          repr(exc))
    else:
        problem = ("" if result_digest(result) == expected
                   else "result digest differs from the reference")
        outcome = Outcome(spec.job_id, time.perf_counter() - t0,
                          not problem, problem)
    finally:
        tracer.uninstall()
    _, _, dur, descendants = tracer.roots[-1]
    return tracer.state(), tracer.compensated_s(dur, descendants), outcome


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CleanTable3, FaultedResume, FarmBatch)
}

#: Footprints per workload: the benchmark's, and the tiny one the
#: self-tests use.
FOOTPRINTS = {
    "clean-table3": Footprint(),
    # Half the default memory at the same ~2x-memory ratio: the table3
    # footprint with 10 ms checkpoints would not fit the run budget.
    "faulted-resume": Footprint(memory_pages=256),
    "farm-batch": Footprint(memory_pages=96, pages=120),
}
TINY_FOOTPRINTS = {
    "clean-table3": Footprint(memory_pages=48, pages=60),
    "faulted-resume": Footprint(memory_pages=48, pages=60),
    "farm-batch": Footprint(memory_pages=48, pages=60),
}


def make_workload(name: str, seed: int, scratch: Path,
                  tiny: bool = False) -> Workload:
    footprint = (TINY_FOOTPRINTS if tiny else FOOTPRINTS)[name]
    if name == "farm-batch":
        return FarmBatch(seed, footprint, scratch, tiny=tiny)
    return WORKLOADS[name](seed, footprint, scratch)
