"""Running one application under the paper's experimental variants.

The paper compares, per application:

* **O** -- the original program on plain paged virtual memory;
* **P** -- the compiled prefetching program with the run-time layer;
* **P-nofilter** -- prefetching with the run-time layer removed
  (Figure 4(c));
* warm/cold starts (Figure 6) and different problem sizes (Figures 7, 8).

:data:`repro.config.VARIANTS` names the variants and their flags.
``run_app`` runs one variant of an application (the CLI's ``run``,
``explain`` and ``profile`` and the farm's ``run`` jobs).
``compare_app`` builds the program once, compiles it once, and executes
the requested variants on fresh machines, so O and P see identical
workloads (including identical index-array data).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.apps.base import AppSpec
from repro.checkpoint.runner import CheckpointConfig, setup_checkpointing
from repro.config import (
    DEFAULT_MEMORY_PAGES,
    DEFAULT_NUM_DISKS,
    VARIANTS,
    PlatformConfig,
)
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import PassResult, insert_prefetches
from repro.interp.executor import Executor
from repro.machine.machine import Machine
from repro.sim.stats import RunStats


def platform_for(memory_pages: int = 0, disks: int = 0) -> PlatformConfig:
    """The default platform with ``memory_pages`` and ``disks``
    overridden (0 keeps the default), as the CLI and job specs ask."""
    return PlatformConfig(memory_pages=memory_pages or DEFAULT_MEMORY_PAGES,
                          num_disks=disks or DEFAULT_NUM_DISKS)


def default_data_pages(platform: PlatformConfig, memory_multiple: float = 2.0) -> int:
    """Major-data footprint at ``memory_multiple`` times available memory
    (default ~2x: an out-of-core run)."""
    return max(8, int(platform.available_frames * memory_multiple))


@dataclass
class RunResult:
    """One executed variant."""

    app: str
    variant: str  # "O", "P", "P-nofilter", ... (run_app: a VARIANTS key)
    stats: RunStats
    warm: bool = False
    data_pages: int = 0

    @property
    def elapsed_us(self) -> float:
        return self.stats.elapsed_us


@dataclass
class ComparisonResult:
    """O and P (and friends) for one application at one problem size."""

    app: str
    data_pages: int
    original: RunResult
    prefetch: RunResult
    extras: dict[str, RunResult] = field(default_factory=dict)
    pass_result: PassResult | None = None

    @property
    def speedup(self) -> float:
        return self.original.elapsed_us / self.prefetch.elapsed_us

    @property
    def stall_eliminated(self) -> float:
        """Fraction of the original I/O stall removed by prefetching."""
        o_stall = self.original.stats.times.idle
        if o_stall <= 0:
            return 0.0
        return max(0.0, 1.0 - self.prefetch.stats.times.idle / o_stall)


def run_variant(
    program,
    platform: PlatformConfig,
    prefetching: bool,
    runtime_filter: bool = True,
    warm: bool = False,
    adaptive_prefetch: bool = False,
    os_readahead: bool = False,
    observer=None,
    fault_plan=None,
    checkpoint: CheckpointConfig | None = None,
) -> RunStats:
    """Execute one program variant on a fresh machine.

    Passing a :class:`repro.obs.Observer` records the run: trace events
    go to ``observer.trace`` and the finished stats are published into
    ``observer.metrics`` (so ``--trace`` / ``--metrics-out`` artifacts
    come straight off the observer).  Passing a
    :class:`repro.faults.FaultPlan` runs the variant under injected
    faults (seeded, deterministic; see docs/robustness.md).  Passing a
    :class:`repro.checkpoint.CheckpointConfig` enables periodic
    snapshots and/or resume; a checkpointer is also attached (even with
    no config) whenever the fault plan schedules ``process_crash``
    faults, since crash delivery rides the interpreter's safe points.
    """
    machine = Machine(
        platform,
        prefetching=prefetching,
        runtime_filter=runtime_filter,
        adaptive_prefetch=adaptive_prefetch,
        os_readahead=os_readahead,
        observer=observer,
        fault_plan=fault_plan,
    )
    executor = Executor(machine, warm_start=warm)
    plan_crashes = fault_plan is not None and bool(fault_plan.crashes)
    if (checkpoint is not None and checkpoint.active()) or plan_crashes:
        setup_checkpointing(machine, executor, checkpoint or CheckpointConfig())
    stats = executor.run(program)
    if observer is not None:
        stats.publish(observer.metrics)
    return stats


def build_variant(spec: AppSpec, platform: PlatformConfig, variant: str,
                  data_pages: int, seed: int = 1):
    """The program ``variant`` runs: ``spec`` at ``data_pages``, compiled
    by the prefetching pass unless the variant is O."""
    program = spec.make(data_pages, seed=seed)
    if not VARIANTS[variant]["prefetching"]:
        return program
    return insert_prefetches(program,
                             CompilerOptions.from_platform(platform)).program


def run_app(
    spec: AppSpec,
    platform: PlatformConfig,
    variant: str = "p",
    data_pages: int | None = None,
    seed: int = 1,
    warm: bool = False,
    observer=None,
    fault_plan=None,
    checkpoint: CheckpointConfig | None = None,
) -> RunResult:
    """Build, compile (unless O), and run one variant of one app.

    ``variant`` is a :data:`repro.config.VARIANTS` key; ``data_pages``
    defaults to :func:`default_data_pages`.  The other arguments go to
    :func:`run_variant`.
    """
    data_pages = data_pages or default_data_pages(platform)
    program = build_variant(spec, platform, variant, data_pages, seed)
    stats = run_variant(program, platform, warm=warm, observer=observer,
                        fault_plan=fault_plan, checkpoint=checkpoint,
                        **VARIANTS[variant])
    return RunResult(spec.name, variant, stats, warm, data_pages)


def compare_app(
    spec: AppSpec,
    platform: PlatformConfig,
    data_pages: int | None = None,
    seed: int = 1,
    warm: bool = False,
    options: CompilerOptions | None = None,
    include_nofilter: bool = False,
    include_adaptive: bool = False,
    include_readahead: bool = False,
    observer=None,
    fault_plan=None,
    checkpoint: CheckpointConfig | None = None,
) -> ComparisonResult:
    """Run O and P (optionally P-nofilter, P-adaptive, O-readahead).

    An ``observer`` records the **P** run only -- the prefetching
    variant is the one whose schedule the trace exists to debug; the
    other variants run unobserved so their timings stay comparable.
    A ``fault_plan`` applies to *every* variant so the comparison is a
    faulted-vs-faulted one (each variant's machine builds its own fault
    state from the plan, so the seeded fault streams are identical
    across variants).
    A ``checkpoint`` config applies to every variant too, re-labelled
    ``<app>-<variant>`` so one checkpoint directory serves the whole
    comparison; variants a crashed invocation never reached have no
    checkpoints under their label and resume as fresh runs.
    """
    if data_pages is None:
        data_pages = default_data_pages(platform)
    program = spec.make(data_pages, seed=seed)
    options = options or CompilerOptions.from_platform(platform)
    compiled = insert_prefetches(program, options)

    def run(label: str, variant: str, **extra) -> RunResult:
        flags = VARIANTS[variant]
        code = compiled.program if flags["prefetching"] else program
        ckpt = (None if checkpoint is None else
                dataclasses.replace(checkpoint, label=f"{spec.name}-{label}"))
        stats = run_variant(code, platform, warm=warm, fault_plan=fault_plan,
                            checkpoint=ckpt, **flags, **extra)
        return RunResult(spec.name, label, stats, warm, data_pages)

    result = ComparisonResult(
        app=spec.name,
        data_pages=data_pages,
        original=run("O", "o"),
        prefetch=run("P", "p", observer=observer),
        pass_result=compiled,
    )
    for label, variant, wanted, extra in (
        ("P-nofilter", "nofilter", include_nofilter, {}),
        ("P-adaptive", "adaptive", include_adaptive, {}),
        ("O-readahead", "o", include_readahead, {"os_readahead": True}),
    ):
        if wanted:
            result.extras[label] = run(label, variant, **extra)
    return result
