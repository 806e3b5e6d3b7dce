"""The seven metamorphic / differential oracle families.

Each oracle is a function ``check_<name>(scenario)`` that rebuilds the
scenario's program and platform, drives one or more full runs through
the machine / checkpoint / multiprog layers, and raises
:class:`OracleViolation` when the property fails.  The families (the
"Oracle reference" table in docs/robustness.md documents each one;
``scripts/check_docs.py`` keeps the two in sync):

``stall_bound``
    P never stalls catastrophically more than O: prefetching may lose a
    little time to mis-scheduled I/O on adversarial geometries, but the
    scenario declares how much (``stall_factor`` / ``stall_slack_us``)
    and the run must honour its declaration.
``explain_conservation``
    ``repro explain``'s attributed stall cycles equal the clock's
    ``RunStats`` stall cycles **bitwise** -- on clean and faulted runs.
``filter_soundness``
    The run-time filter never suppresses a prefetch for a page that is
    actually on disk: at the instant of every ``prefetch_filtered``
    event, every covered page is RESIDENT or IN_TRANSIT in the memory
    manager's own page table (valid at bit-vector lag 0, granularity 1
    -- the strategies only attach this oracle then).
``checkpoint_equivalence``
    Kill the process at scheduled points and resume from the newest
    checkpoint: the recovered run's final ``RunStats`` is bit-identical
    to the uninterrupted run's.
``vector_equivalence``
    The vectorized chunk-replay kernel and the scalar loop produce
    bit-identical ``RunStats`` -- clean or faulted, unobserved or with
    a metrics-only observer, whose metrics must match too.
``chaos_termination``
    A run under a composed fault plan (slow disks, dead disks, read
    errors, hint failures, pressure storms, stale bit vectors, crashes)
    terminates, within a budget derived from the clean run and declared
    by the scenario.  With ``tenants > 1`` this is the multiprogrammed
    variant: co-scheduled O/P tenants on one faulted machine must
    terminate *and* every stall-read microsecond must be attributable
    exactly (scheduler idle + frame-pin waits == clock, bitwise).
``farm_recovery``
    Controller crash recovery is a pure fold of the write-ahead job
    ledger: journal a synthetic farm history, kill the controller at a
    random record boundary (optionally leaving a torn tail line),
    and the surviving prefix must replay into a byte-identical
    :func:`repro.serve.ledger.recovery_plan` twice over, with every
    admitted job accounted for exactly once (terminal jobs folded,
    in-flight ones adopted, the rest re-admitted) -- no real worker
    processes, just the ledger algebra, so this family runs in
    milliseconds.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

from repro.checkpoint.runner import CheckpointConfig, run_with_recovery
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import ReproError
from repro.fuzz.scenario import Scenario
from repro.harness.experiment import run_variant
from repro.interp.executor import Executor
from repro.machine.machine import Machine
from repro.multiprog.scheduler import CoScheduler
from repro.obs import Observer, StallAttributor
from repro.obs.trace import TraceKind
from repro.seeding import derive_rng
from repro.serve.ledger import (
    JobLedger,
    fold_ledger,
    read_ledger,
    recovery_plan,
)
from repro.serve.retry import RetryPolicy
from repro.vm.page import PageState

#: Every oracle family, in the order the runner exercises them.
ORACLE_NAMES: tuple[str, ...] = (
    "stall_bound",
    "explain_conservation",
    "filter_soundness",
    "checkpoint_equivalence",
    "vector_equivalence",
    "chaos_termination",
    "farm_recovery",
)


class RunCounter:
    """Counts full machine runs so ``fuzz.runs`` is exact, not estimated."""

    def __init__(self) -> None:
        self.count = 0


#: Incremented once per machine run any oracle performs (the fuzz
#: runner reads and resets it around a campaign).
RUNS = RunCounter()


class OracleViolation(ReproError):
    """One oracle failed on one scenario.

    Carries the scenario so the fuzz runner can serialize the (shrunk)
    failing case into the regression corpus.
    """

    def __init__(self, oracle: str, scenario: Scenario, detail: str) -> None:
        super().__init__(f"oracle {oracle!r} violated: {detail}")
        self.oracle = oracle
        self.scenario = scenario
        self.detail = detail


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


def _programs(scenario: Scenario):
    """Fresh (O, P) programs -- binding mutates arrays, so never reuse."""
    platform = scenario.platform.build()
    original = scenario.program.build()
    compiled = insert_prefetches(
        scenario.program.build(), CompilerOptions.from_platform(platform)
    ).program
    return platform, original, compiled


# ----------------------------------------------------------------------
# (a) stall bound
# ----------------------------------------------------------------------


def check_stall_bound(scenario: Scenario) -> None:
    platform, original, compiled = _programs(scenario)
    RUNS.count += 2
    o_stats = run_variant(original, platform, prefetching=False)
    p_stats = run_variant(compiled, platform, prefetching=True)
    bound = (o_stats.times.idle * scenario.stall_factor
             + scenario.stall_slack_us)
    if p_stats.times.idle > bound:
        raise OracleViolation(
            "stall_bound", scenario,
            f"P idled {p_stats.times.idle:.1f}us, O idled "
            f"{o_stats.times.idle:.1f}us; declared bound was {bound:.1f}us "
            f"(factor {scenario.stall_factor}, "
            f"slack {scenario.stall_slack_us})",
        )


# ----------------------------------------------------------------------
# (b) explain conservation
# ----------------------------------------------------------------------


def check_explain_conservation(scenario: Scenario) -> None:
    platform, _original, compiled = _programs(scenario)
    obs = Observer(record_trace=False)  # the sink sees every event
    attrib = StallAttributor(observer=obs)
    RUNS.count += 1
    stats = run_variant(compiled, platform, prefetching=True, observer=obs,
                        fault_plan=scenario.fault_plan)
    report = attrib.report(stats)
    if not report.conserved:
        raise OracleViolation(
            "explain_conservation", scenario,
            f"attributed {report.attributed_read_us!r}us of stall-read vs "
            f"clock {report.stall_read_us!r}us (total "
            f"{report.attributed_total_us!r} vs idle {report.idle_us!r}); "
            f"warnings: {report.warnings}",
        )


# ----------------------------------------------------------------------
# (c) filter soundness
# ----------------------------------------------------------------------


class FilterSoundnessChecker:
    """Observer sink proving every filtered prefetch was justified.

    The sink runs synchronously inside ``Observer.emit``, so at each
    ``prefetch_filtered`` event it can interrogate the memory manager's
    page table *at that exact simulated instant*: a page the filter
    suppressed must be RESIDENT or IN_TRANSIT right now -- suppressing a
    prefetch for an ON_DISK page would manufacture a future demand
    fault, the unsoundness the paper's run-time layer must never commit.

    Only meaningful when the filter's bit vector is exact: lag 0 and
    granularity 1 (a coarse-grained or stale bit is *allowed* to be
    wrong; the strategies attach this oracle only in the exact regime).
    """

    def __init__(self, manager, scenario: Scenario) -> None:
        self.manager = manager
        self.scenario = scenario
        self.checked = 0

    def on_event(self, ts_us, kind, vpage, npages, value, tag) -> None:
        if kind is not TraceKind.PREFETCH_FILTERED:
            return
        for page_no in range(vpage, vpage + npages):
            state = self.manager.state_of(page_no)
            self.checked += 1
            if state not in (PageState.RESIDENT, PageState.IN_TRANSIT):
                raise OracleViolation(
                    "filter_soundness", self.scenario,
                    f"filter suppressed a prefetch of page {page_no} "
                    f"(event at t={ts_us:.1f}us covering "
                    f"[{vpage}, {vpage + npages}), tag={tag!r}) but the "
                    f"page is {state.name}, not resident or in transit",
                )


def check_filter_soundness(scenario: Scenario) -> None:
    platform, _original, compiled = _programs(scenario)
    obs = Observer(record_trace=False)  # the sink sees every event
    machine = Machine(platform, prefetching=True, observer=obs,
                      fault_plan=scenario.fault_plan)
    checker = FilterSoundnessChecker(machine.manager, scenario)
    obs.sink = checker
    RUNS.count += 1
    Executor(machine).run(compiled)


# ----------------------------------------------------------------------
# (d) checkpoint / kill / resume equivalence
# ----------------------------------------------------------------------


def check_checkpoint_equivalence(scenario: Scenario) -> None:
    spec = scenario.checkpoint
    if spec is None:
        raise OracleViolation(
            "checkpoint_equivalence", scenario,
            "scenario has no checkpoint spec to exercise",
        )
    platform, _original, _ = _programs(scenario)
    plan = scenario.fault_plan

    def factory():
        machine = Machine(platform, prefetching=True, fault_plan=plan)
        return machine, Executor(machine)

    # The uninterrupted control run also yields the crash schedule: the
    # spec's fractions are anchored to its elapsed time, so a shrunk
    # scenario always crashes somewhere inside its own (shorter) run.
    machine, executor = factory()
    RUNS.count += 1
    base = executor.run(insert_prefetches(
        scenario.program.build(), CompilerOptions.from_platform(platform)
    ).program)
    if base.elapsed_us <= 0:
        return  # an empty program has nothing to kill or resume
    config = CheckpointConfig(
        every_us=max(base.elapsed_us * spec.every_frac, 1.0),
        crash_at_us=tuple(base.elapsed_us * f for f in spec.crash_fracs),
    )
    compiled = insert_prefetches(
        scenario.program.build(), CompilerOptions.from_platform(platform)
    ).program
    recovered = run_with_recovery(factory, compiled, config)
    RUNS.count += 1 + recovered.crashes
    base_dict = dataclasses.asdict(base)
    rec_dict = dataclasses.asdict(recovered.stats)
    if base_dict != rec_dict:
        diffs = [
            key for key in base_dict
            if base_dict[key] != rec_dict[key]
        ]
        raise OracleViolation(
            "checkpoint_equivalence", scenario,
            f"recovered run diverged from uninterrupted run in {diffs} "
            f"after {recovered.crashes} crash(es), {recovered.resumes} "
            f"resume(s), {recovered.checkpoints} checkpoint(s)",
        )


# ----------------------------------------------------------------------
# (e) scalar / vectorized equivalence
# ----------------------------------------------------------------------


def check_vector_equivalence(scenario: Scenario) -> None:
    platform = scenario.platform.build()
    compiled = insert_prefetches(
        scenario.program.build(), CompilerOptions.from_platform(platform)
    ).program
    for observed in (False, True):
        results = []
        for scalar in (True, False):
            observer = Observer(record_trace=False) if observed else None
            machine = Machine(platform, prefetching=True,
                              scalar_chunks=scalar, observer=observer,
                              fault_plan=scenario.fault_plan)
            RUNS.count += 1
            stats = Executor(machine).run(compiled)
            results.append((dataclasses.asdict(stats),
                            observer.metrics.as_dict() if observed else None))
        (scalar_dict, scalar_obs), (vector_dict, vector_obs) = results
        diffs = [key for key in scalar_dict
                 if scalar_dict[key] != vector_dict[key]]
        if scalar_obs != vector_obs:
            diffs.append("observer metrics")
        if diffs:
            mode = "metrics-only observed" if observed else "unobserved"
            raise OracleViolation(
                "vector_equivalence", scenario,
                f"scalar and vectorized chunk replay diverged ({mode}) "
                f"in {diffs}",
            )


# ----------------------------------------------------------------------
# (f) chaos termination (single- and multi-programmed)
# ----------------------------------------------------------------------


class StallWaitAccumulator:
    """Observer sink replaying the co-scheduler's stall-read accumulator.

    Every STALL_READ advance of a multiprogrammed run is carried by a
    ``stall_frame_wait`` event -- the memory manager's frame-pin waits
    and (since the fuzz PR) the scheduler's own all-blocked idling.  The
    events arrive in chronological order, so summing their values with
    the same ``+=`` the clock uses reproduces ``times.stall_read``
    bitwise; any gap means a stall advanced the clock untraced.
    """

    def __init__(self) -> None:
        self.total_us = 0.0
        self.events = 0

    def on_event(self, ts_us, kind, vpage, npages, value, tag) -> None:
        if kind is TraceKind.STALL_FRAME_WAIT:
            self.total_us += value
            self.events += 1


def _multiprog_run(scenario: Scenario, platform, fault_plan, observer=None):
    """One co-scheduled run: tenants alternate P, O, P, ... ."""
    sched = CoScheduler(platform, observer=observer, fault_plan=fault_plan)
    options = CompilerOptions.from_platform(platform)
    for tenant in range(scenario.tenants):
        prefetching = tenant % 2 == 0
        program = scenario.program.build()
        if prefetching:
            program = insert_prefetches(program, options).program
        sched.add_process(program, name=f"t{tenant}", prefetching=prefetching)
    RUNS.count += 1
    return sched.run()


def _chaos_multiprog(scenario: Scenario, platform) -> None:
    # The metamorphic baseline must co-schedule the same tenants: a
    # single-tenant clean run says nothing about multiprogrammed
    # contention, only the fault plan's own slowdown is under test.
    clean = _multiprog_run(scenario, platform, None)
    budget = (clean.elapsed_us * scenario.budget_factor
              + scenario.budget_slack_us)
    obs = Observer(record_trace=False)  # the sink sees every event
    sink = StallWaitAccumulator()
    obs.sink = sink
    result = _multiprog_run(scenario, platform, scenario.fault_plan,
                            observer=obs)
    if result.elapsed_us > budget:
        raise OracleViolation(
            "chaos_termination", scenario,
            f"{scenario.tenants} co-scheduled tenants took "
            f"{result.elapsed_us:.1f}us under the fault plan; clean "
            f"co-scheduled run took {clean.elapsed_us:.1f}us, declared "
            f"budget {budget:.1f}us",
        )
    if sink.total_us != result.times.stall_read:
        raise OracleViolation(
            "chaos_termination", scenario,
            f"multiprog stall attribution leaked: {sink.events} "
            f"stall_frame_wait events sum to {sink.total_us!r}us but the "
            f"clock accumulated {result.times.stall_read!r}us of "
            f"stall-read",
        )


def check_chaos_termination(scenario: Scenario) -> None:
    platform, _original, compiled = _programs(scenario)
    if scenario.tenants > 1:
        _chaos_multiprog(scenario, platform)
        return
    RUNS.count += 1
    clean = run_variant(
        insert_prefetches(
            scenario.program.build(), CompilerOptions.from_platform(platform)
        ).program,
        platform, prefetching=True,
    )
    budget = (clean.elapsed_us * scenario.budget_factor
              + scenario.budget_slack_us)
    plan = scenario.fault_plan
    if plan is not None and plan.crashes:

        def factory():
            machine = Machine(platform, prefetching=True, fault_plan=plan)
            return machine, Executor(machine)

        config = CheckpointConfig(
            every_us=max(clean.elapsed_us * 0.2, 1.0))
        recovered = run_with_recovery(factory, compiled, config)
        RUNS.count += 1 + recovered.crashes
        stats = recovered.stats
    else:
        RUNS.count += 1
        stats = run_variant(compiled, platform, prefetching=True,
                            fault_plan=plan)
    if stats.elapsed_us > budget:
        raise OracleViolation(
            "chaos_termination", scenario,
            f"faulted run took {stats.elapsed_us:.1f}us; clean run took "
            f"{clean.elapsed_us:.1f}us, declared budget {budget:.1f}us "
            f"(factor {scenario.budget_factor}, "
            f"slack {scenario.budget_slack_us})",
        )


# ----------------------------------------------------------------------
# (g) farm recovery (write-ahead ledger replay algebra)
# ----------------------------------------------------------------------


def _synthesize_ledger(workdir: str, farm: dict) -> int:
    """Journal a random-but-seeded farm history; returns lines written.

    The generator walks each job through the real transition grammar
    (admitted -> dispatched -> {done, retry_scheduled, preempted,
    quarantined, shed} -> ...), sprinkling heartbeat epochs, so the
    truncated prefix the oracle replays is shaped exactly like what a
    crashed controller leaves behind.
    """
    rng = derive_rng(int(farm.get("seed", 0)), "fuzz", "farm_recovery")
    ledger = JobLedger(workdir)
    jobs = int(farm.get("jobs", 3))
    phases: dict[str, str] = {}
    attempts: dict[str, int] = {}
    for n in range(1, jobs + 1):
        job_id = f"job{n}"
        ledger.append("admitted", job=job_id, seq=n,
                      spec={"job_id": job_id, "kind": "run", "app": "FFT",
                            "seed": n})
        phases[job_id] = "pending"
        attempts[job_id] = 0
    epoch = 0
    for _ in range(int(farm.get("events", 10))):
        live = sorted(j for j, phase in phases.items()
                      if phase in ("pending", "running"))
        if not live:
            break
        if rng.random() < 0.15:
            epoch += 1
            ledger.append("heartbeat_epoch", epoch=epoch)
            continue
        job_id = rng.choice(live)
        if phases[job_id] == "pending":
            attempts[job_id] += 1
            ledger.append("dispatched", job=job_id,
                          attempt=attempts[job_id],
                          worker=rng.randrange(4),
                          resume=rng.random() < 0.3)
            phases[job_id] = "running"
            continue
        kind = rng.choice(["done", "retry_scheduled", "preempted",
                           "quarantined", "shed"])
        if kind == "done":
            ledger.append("done", job=job_id, attempt=attempts[job_id],
                          digest=f"{rng.getrandbits(64):016x}")
        elif kind == "retry_scheduled":
            ledger.append("retry_scheduled", job=job_id,
                          attempt=attempts[job_id],
                          resume=rng.random() < 0.5,
                          delay_s=rng.random(), reason="worker crashed")
        elif kind == "preempted":
            ledger.append("preempted", job=job_id)
        else:
            ledger.append(kind, job=job_id, reason=f"synthetic {kind}")
        phases[job_id] = "pending" if kind in ("retry_scheduled",
                                               "preempted") else kind
    count = len(ledger)
    ledger.close()
    return count


def check_farm_recovery(scenario: Scenario) -> None:
    farm = scenario.farm
    if farm is None:
        raise OracleViolation(
            "farm_recovery", scenario,
            "scenario has no farm spec to exercise",
        )

    def fail(detail: str) -> OracleViolation:
        return OracleViolation("farm_recovery", scenario, detail)

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-ledger-") as workdir:
        total = _synthesize_ledger(workdir, farm)
        path = Path(workdir) / "ledger.jsonl"
        # Kill the controller: keep the first ``kill_at`` journal lines,
        # optionally leaving half of the next append as a torn tail.
        lines = path.read_text().splitlines(keepends=True)
        kill_at = max(0, min(int(farm.get("kill_at", total)), len(lines)))
        kept, dropped = lines[:kill_at], lines[kill_at:]
        tail = (dropped[0][:max(1, len(dropped[0]) // 2)]
                if dropped and farm.get("torn") else "")
        path.write_text("".join(kept) + tail)

        records = read_ledger(path)
        if len(records) != kill_at:
            raise fail(
                f"longest valid prefix has {len(records)} records, "
                f"expected the {kill_at} whole lines that survived "
                f"(torn tail {'present' if tail else 'absent'})"
            )
        policy = RetryPolicy(seed=int(farm.get("seed", 0)))
        entries = fold_ledger(records)
        plans = [
            json.dumps(recovery_plan(fold_ledger(read_ledger(path)),
                                     policy), sort_keys=True)
            for _ in range(2)
        ]
        if plans[0] != plans[1]:
            raise fail(
                "recovery plan is not deterministic: two replays of the "
                "same ledger prefix diverged"
            )
        plan = recovery_plan(entries, policy)
        admitted = [r["job"] for r in records if r["kind"] == "admitted"]
        planned = sorted(item["job"] for item in plan)
        if planned != sorted(set(admitted)):
            raise fail(
                f"job conservation violated: admitted {sorted(admitted)} "
                f"but the plan covers {planned}"
            )
        for item in plan:
            entry = entries[item["job"]]
            terminal_fold = item["action"].startswith("fold_")
            if entry.terminal != terminal_fold:
                raise fail(
                    f"job {item['job']} is phase {entry.phase!r} but the "
                    f"plan says {item['action']!r}"
                )
            if not entry.terminal and item["action"] not in ("adopt",
                                                             "readmit"):
                raise fail(
                    f"unfinished job {item['job']} got unknown recovery "
                    f"action {item['action']!r}"
                )


#: Dispatch table the runner and the replayer share.
ORACLE_CHECKS = {
    "stall_bound": check_stall_bound,
    "explain_conservation": check_explain_conservation,
    "filter_soundness": check_filter_soundness,
    "checkpoint_equivalence": check_checkpoint_equivalence,
    "vector_equivalence": check_vector_equivalence,
    "chaos_termination": check_chaos_termination,
    "farm_recovery": check_farm_recovery,
}

assert tuple(ORACLE_CHECKS) == ORACLE_NAMES


def run_oracles(scenario: Scenario) -> int:
    """Run every oracle the scenario declares; returns checks performed.

    Any unexpected exception (a crash inside the machine rather than a
    clean property failure) is wrapped into an :class:`OracleViolation`
    too -- a fuzzer-found crash is a finding, and wrapping it keeps the
    scenario attached for corpus serialization.
    """
    checks = 0
    for name in scenario.oracles:
        try:
            ORACLE_CHECKS[name](scenario)
        except OracleViolation:
            raise
        except Exception as exc:  # noqa: BLE001 - the fuzzer's whole point
            raise OracleViolation(
                name, scenario,
                f"unexpected {type(exc).__name__} while checking: {exc}",
            ) from exc
        checks += 1
    return checks
