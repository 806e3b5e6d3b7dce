"""Hypothesis strategies composing random fuzz scenarios.

Each public strategy is documented in the "Strategy reference" table of
docs/robustness.md (``scripts/check_docs.py`` keeps that table in sync
with :data:`STRATEGY_NAMES`).  The composition rules encode which
combinations are *meaningful*, not just valid:

* ``filter_soundness`` scenarios only get exact bit vectors (lag 0,
  granularity 1) -- a stale or coarse bit is allowed to be wrong;
* ``vector_equivalence`` scenarios run clean or under a crash-free
  fault plan, and the oracle runs each one unobserved and with a
  metrics-only observer: all four reach the chunk kernel (faulted and
  observed ones in the run-time layer's charge order);
* ``checkpoint_equivalence`` scenarios put process deaths in the
  checkpoint spec (fractions of the run), not the fault plan, so the
  uninterrupted control run stays uninterrupted;
* ``chaos_termination`` scenarios get the full fault taxonomy at once,
  and sometimes co-schedule 2-3 tenants on the shared faulted machine;
* ``farm_recovery`` scenarios carry no interesting program at all --
  the oracle replays a synthetic write-ahead job ledger truncated at a
  drawn controller-kill point, so the strategy draws the ledger recipe
  (jobs, transitions, kill line, torn tail) instead;
* ``farm_chaos_plans`` draws ``controller_crash`` strikes alongside
  worker kills and stalls -- the runner's real-farm phase runs such
  plans in a child process and drives ``repro serve recover`` itself.

Sizes are bounded so one generated run stays well under a second: loop
nests cap the product of extents, patterns cap their element counts,
and every time field lives within the first couple of simulated
seconds.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from repro.faults.farm import FarmChaosPlan, WorkerFault
from repro.faults.plan import (
    DiskFaultSpec,
    FaultPlan,
    PressureStorm,
    SlowWindow,
)
from repro.fuzz.scenario import (
    PATTERN_BUILDERS,
    CheckpointSpec,
    LoopSpec,
    PlatformSpec,
    ProgramSpec,
    RefSpec,
    Scenario,
    WorkSpec,
)

#: Public strategies, mirrored by docs/robustness.md's strategy table.
STRATEGY_NAMES: tuple[str, ...] = (
    "loop_nests",
    "pattern_programs",
    "platforms",
    "fault_plans",
    "checkpoint_schedules",
    "farm_chaos_plans",
    "scenarios",
)

#: Extent cap per loop level, by nest depth: the product of extents --
#: the iteration count the pure-Python interpreter must execute -- stays
#: <= 4096 whatever the drawn shape.
_EXTENT_CAPS = {1: (512,), 2: (16, 128), 3: (8, 8, 32)}

_COSTS = st.floats(min_value=0.5, max_value=20.0, allow_nan=False,
                   allow_infinity=False)


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------


@st.composite
def loop_nests(draw) -> ProgramSpec:
    """Random bounded loop-nest programs with valid bindings.

    Depth 1-3, zero-extent loops allowed, affine references
    ``a[i*mul + add]`` that may use any *enclosing* loop variable.
    Arrays are sized from the references at build time, so every
    generated (and every shrunk) program is in-bounds by construction.
    """
    depth = draw(st.integers(min_value=1, max_value=3))
    caps = _EXTENT_CAPS[depth]
    n_arrays = draw(st.integers(min_value=1, max_value=3))
    refs_at = st.integers(min_value=0, max_value=n_arrays - 1)

    def gen_work(level: int) -> WorkSpec:
        n_refs = draw(st.integers(min_value=0 if level == 0 else 1,
                                  max_value=3))
        refs = tuple(
            RefSpec(
                array=draw(refs_at),
                depth=draw(st.integers(min_value=0, max_value=level - 1)),
                mul=draw(st.integers(min_value=1, max_value=512)),
                add=draw(st.integers(min_value=0, max_value=64)),
                write=draw(st.booleans()),
            )
            for _ in range(n_refs if level > 0 else 0)
        )
        return WorkSpec(cost_us=draw(_COSTS), refs=refs)

    def gen_loop(level: int) -> LoopSpec:
        extent = draw(st.integers(min_value=0, max_value=caps[level]))
        step = draw(st.integers(min_value=1, max_value=3))
        body: list = []
        if level + 1 < depth:
            body.append(gen_loop(level + 1))
            if draw(st.booleans()):
                body.append(gen_work(level + 1))
        else:
            body.append(gen_work(level + 1))
        return LoopSpec(extent=extent, step=step, body=tuple(body))

    outer = gen_loop(0)
    if outer.extent == 0:
        # Keep the dead loop (a legal edge case worth executing) but
        # ensure the program still touches memory through a live one.
        live = LoopSpec(
            extent=draw(st.integers(min_value=1, max_value=caps[0])),
            step=1,
            body=(WorkSpec(cost_us=draw(_COSTS),
                           refs=(RefSpec(array=0, depth=0,
                                         mul=draw(st.integers(1, 512)),
                                         add=0),)),),
        )
        return ProgramSpec(nest=(outer, live))
    return ProgramSpec(nest=(outer,))


@st.composite
def pattern_programs(draw) -> ProgramSpec:
    """One of the seven synthetic access patterns, with drawn sizes.

    Covers what the nest grammar cannot express: data-dependent
    ``a[b[i]]`` gathers and scatters, pointer-chasing walks, repeated
    full-footprint sweeps.
    """
    pattern = draw(st.sampled_from(sorted(PATTERN_BUILDERS)))
    cost = draw(_COSTS)
    if pattern == "stream":
        params = {"nelems": draw(st.integers(1_024, 24_576)),
                  "cost_us": cost,
                  "writes": draw(st.booleans())}
    elif pattern == "repeated_sweep":
        params = {"nelems": draw(st.integers(1_024, 8_192)),
                  "sweeps": draw(st.integers(1, 3)),
                  "cost_us": cost}
    elif pattern == "strided":
        nelems = draw(st.integers(1_024, 16_384))
        params = {"nelems": nelems,
                  "stride": draw(st.integers(1, min(nelems - 1, 1_024))),
                  "cost_us": cost}
    elif pattern == "stencil1d":
        params = {"nelems": draw(st.integers(1_024, 8_192)),
                  "radius": draw(st.integers(1, 4)),
                  "cost_us": cost}
    elif pattern in ("gather", "scatter"):
        params = {"nelems": draw(st.integers(256, 2_048)),
                  "table_elems": draw(st.integers(512, 8_192)),
                  "cost_us": cost,
                  "seed": draw(st.integers(1, 2**16))}
    else:  # random_walk
        params = {"steps": draw(st.integers(256, 2_048)),
                  "footprint_elems": draw(st.integers(1_024, 16_384)),
                  "cost_us": cost,
                  "seed": draw(st.integers(1, 2**16))}
    return ProgramSpec(pattern=pattern, params=params)


def programs() -> st.SearchStrategy:
    """Any program: random nests two-thirds of the time, else a pattern."""
    return st.one_of(loop_nests(), loop_nests(), pattern_programs())


# ----------------------------------------------------------------------
# Machines
# ----------------------------------------------------------------------


@st.composite
def platforms(draw) -> PlatformSpec:
    """Disk/memory geometries spanning in-core to heavily out-of-core.

    With the default 4 KB pages and 8-byte elements, the drawn memory
    sizes (8-96 frames) put generated footprints anywhere from fully
    cached to ~10x memory.
    """
    return PlatformSpec(
        memory_pages=draw(st.integers(min_value=8, max_value=96)),
        num_disks=draw(st.integers(min_value=1, max_value=8)),
        prefetch_block_pages=draw(st.integers(min_value=1, max_value=8)),
        available_fraction=draw(st.floats(min_value=0.5, max_value=1.0,
                                          allow_nan=False)),
    )


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------

_TIMES = st.floats(min_value=0.0, max_value=2_000_000.0, allow_nan=False,
                   allow_infinity=False)


@st.composite
def _disk_faults(draw, disk: int) -> DiskFaultSpec:
    windows = tuple(
        SlowWindow(
            start_us=draw(_TIMES),
            duration_us=draw(st.floats(1_000.0, 500_000.0,
                                       allow_nan=False)),
            multiplier=draw(st.floats(1.0, 8.0, allow_nan=False)),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    return DiskFaultSpec(
        disk=disk,
        slow_windows=windows,
        read_error_rate=draw(st.one_of(
            st.just(0.0), st.floats(0.0, 0.15, allow_nan=False))),
        dead_at_us=draw(st.one_of(st.none(), _TIMES)),
    )


@st.composite
def fault_plans(draw, num_disks: int = 8,
                crashes: bool = True,
                bitvector_lag: bool = True) -> FaultPlan:
    """Composed plans drawing every fault kind the taxonomy has.

    Fail-slow windows, transient read errors, whole-disk death,
    pressure-storm trains, stale bit vectors, hint-call failures, and
    process crashes can all land in one plan.  ``crashes=False`` /
    ``bitvector_lag=False`` gate the kinds a family must exclude.
    """
    disk_ids = draw(st.lists(st.integers(0, num_disks - 1), min_size=0,
                             max_size=min(3, num_disks), unique=True))
    disk_specs = [draw(_disk_faults(disk)) for disk in sorted(disk_ids)]
    if disk_specs and all(s.dead_at_us is not None for s in disk_specs) \
            and len(disk_specs) == num_disks:
        # A machine (rightly) rejects plans that kill every disk;
        # keep the last one alive so the plan stays constructible.
        disk_specs[-1] = replace(disk_specs[-1], dead_at_us=None)
    # Storms always give their frames back (hold_us set): a *permanent*
    # claim legitimately thrashes a tiny machine without bound, which no
    # multiplicative termination budget can declare honestly.  Permanent
    # storms remain expressible in hand-written corpus entries.
    storms = tuple(
        PressureStorm(
            start_us=draw(_TIMES),
            frames=draw(st.integers(1, 16)),
            bursts=draw(st.integers(1, 3)),
            period_us=draw(st.floats(10_000.0, 500_000.0, allow_nan=False)),
            hold_us=draw(st.floats(5_000.0, 200_000.0, allow_nan=False)),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    crash_times = (
        tuple(draw(st.lists(st.floats(10_000.0, 1_500_000.0,
                                      allow_nan=False),
                            min_size=0, max_size=2)))
        if crashes else ()
    )
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        disks=tuple(disk_specs),
        storms=storms,
        bitvector_lag_us=(draw(st.one_of(
            st.just(0.0), st.floats(0.0, 5_000.0, allow_nan=False)))
            if bitvector_lag else 0.0),
        hint_failure_rate=draw(st.one_of(
            st.just(0.0), st.floats(0.0, 0.1, allow_nan=False))),
        crashes=crash_times,
    )


@st.composite
def checkpoint_schedules(draw) -> CheckpointSpec:
    """Checkpoint cadences and kill schedules as run fractions."""
    return CheckpointSpec(
        every_frac=draw(st.floats(0.05, 0.5, allow_nan=False)),
        crash_fracs=tuple(draw(st.lists(
            st.floats(0.05, 0.95, allow_nan=False,
                      exclude_min=False, exclude_max=True),
            min_size=1, max_size=3))),
    )


@st.composite
def farm_chaos_plans(draw, max_jobs: int = 12) -> FarmChaosPlan:
    """Worker kill/stall/controller-crash schedules for the job farm.

    ``controller_crash`` strikes are drawn rarely (the run ends there
    until recovery) and the kill/stall ops stay dominant so most plans
    still exercise the supervisor's own failover paths.
    """
    starts = draw(st.lists(st.integers(1, max_jobs), min_size=1,
                           max_size=4, unique=True))
    return FarmChaosPlan(faults=tuple(
        WorkerFault(
            on_start=start,
            delay_s=draw(st.floats(0.0, 0.2, allow_nan=False)),
            op=draw(st.sampled_from(["kill", "stall", "kill", "stall",
                                     "controller_crash"])),
        )
        for start in sorted(starts)
    ))


# ----------------------------------------------------------------------
# Scenario composition, per oracle family
# ----------------------------------------------------------------------


@st.composite
def scenarios(draw, family: str) -> Scenario:
    """A complete scenario exercising one oracle family."""
    if family == "farm_recovery":
        # Pure ledger algebra: the program/platform are a fixed minimal
        # recipe (never built), all the entropy lives in the farm spec.
        jobs = draw(st.integers(min_value=1, max_value=6))
        events = draw(st.integers(min_value=0, max_value=24))
        farm = {
            "jobs": jobs,
            "seed": draw(st.integers(min_value=0, max_value=2**16)),
            "events": events,
            "kill_at": draw(st.integers(min_value=0,
                                        max_value=jobs + events + 2)),
            "torn": draw(st.booleans()),
        }
        return Scenario(
            program=ProgramSpec(pattern="stream", params={"nelems": 1024}),
            platform=PlatformSpec(),
            oracles=("farm_recovery",), farm=farm,
        )
    program = draw(programs())
    platform = draw(platforms())
    if family == "stall_bound":
        # Clean differential O vs P: the declared envelope is only
        # meaningful without injected noise.
        return Scenario(program=program, platform=platform,
                        oracles=("stall_bound",))
    if family == "explain_conservation":
        # Crash entries are inert without a checkpointer, but excluding
        # them keeps the shrunk corpus entries honest about what ran.
        plan = draw(st.one_of(
            st.none(), fault_plans(platform.num_disks, crashes=False)))
        return Scenario(program=program, platform=platform,
                        oracles=("explain_conservation",), fault_plan=plan)
    if family == "filter_soundness":
        # The soundness claim only holds for an *exact* bit vector.
        plan = draw(st.one_of(
            st.none(),
            fault_plans(platform.num_disks, crashes=False,
                        bitvector_lag=False),
        ))
        return Scenario(program=program, platform=platform,
                        oracles=("filter_soundness",), fault_plan=plan)
    if family == "checkpoint_equivalence":
        plan = draw(st.one_of(
            st.none(), fault_plans(platform.num_disks, crashes=False)))
        return Scenario(program=program, platform=platform,
                        oracles=("checkpoint_equivalence",),
                        fault_plan=plan,
                        checkpoint=draw(checkpoint_schedules()))
    if family == "vector_equivalence":
        # Crash entries are inert without a checkpointer; the kernel's
        # fault paths are the lag cut, hint fallback and slow calls.
        plan = draw(st.one_of(
            st.none(), fault_plans(platform.num_disks, crashes=False)))
        return Scenario(program=program, platform=platform,
                        oracles=("vector_equivalence",), fault_plan=plan)
    if family == "chaos_termination":
        tenants = draw(st.sampled_from([1, 1, 2, 3]))
        plan = draw(fault_plans(platform.num_disks))
        return Scenario(program=program, platform=platform,
                        oracles=("chaos_termination",), fault_plan=plan,
                        tenants=tenants)
    raise ValueError(f"unknown oracle family {family!r}")
