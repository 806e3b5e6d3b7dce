"""Command-line interface.

::

    python -m repro apps                      # list the benchmarks
    python -m repro platform                  # show the simulated machine
    python -m repro compile BUK --print-code  # run the pass, show Fig-2 output
    python -m repro run MGRID --variant p     # execute one variant
    python -m repro run EMBAR --trace t.json  # ... and record it (Perfetto)
    python -m repro compare FFT --nofilter    # O vs P (vs P-nofilter)
    python -m repro sweep BUK --multiples 0.5,1,2,3   # Figure-8 style
    python -m repro multiprog EMBAR,MGRID     # co-schedule two applications
    python -m repro explain EMBAR             # stall-attribution report
    python -m repro profile EMBAR             # collapsed stacks + disk timeline
    python -m repro bench --smoke             # perf-trajectory benchmark
    python -m repro chaos EMBAR --quick       # fault-injection sweep
    python -m repro serve submit --demo 20    # supervised job farm
    python -m repro top --workdir farm        # live farm dashboard
    python -m repro fuzz --profile smoke      # metamorphic fuzz campaign
    python -m repro fuzz replay FILE          # re-run one corpus finding

:data:`FLAG_GROUPS` says which verbs take the shared flag groups: the
application, the variant and warm start, the observability artifacts
(docs/observability.md), fault injection, and checkpoint/resume
(docs/robustness.md).  A ``--trace`` that fails its own schema
validator exits 1 (the artifact is still written); a planned
``process_crash`` fault exits 3 with a resume hint.

``serve`` runs batches of jobs on a supervised multiprocess worker
farm with heartbeats, retry/backoff, checkpoint-driven preemption, and
load shedding; see docs/serving.md.  Farm telemetry (on by default)
folds worker metric deltas into per-tenant rollups, evaluates SLO
rules (``--slo FILE``, ``--slo-out FILE``), and can merge per-job
traces into one Perfetto timeline (``--farm-trace FILE``); ``top``
renders the live ``workdir/telemetry.json`` snapshot and ``serve
status --telemetry`` the archived summary (see docs/observability.md).
Exit codes across all commands follow :class:`repro.errors.ExitCode`.

``fuzz`` runs a seeded property-based campaign over the whole stack:
random scenarios per metamorphic oracle family, shrunk findings
serialized into a replayable regression corpus (``tests/corpus/``),
replayed first on every later campaign; see docs/robustness.md.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Sequence

from repro.apps.base import SIZE_CLASSES
from repro.apps.registry import get_app, table2_rows
from repro.checkpoint import CheckpointConfig
from repro.config import VARIANTS, PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import ConfigError, ExitCode, ProcessCrash
from repro.faults import FaultPlan, default_plan, load_plan
from repro.harness.experiment import (
    RunResult,
    build_variant,
    compare_app,
    default_data_pages,
    platform_for,
    run_app,
)
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.harness.report import render_table
from repro.obs import (
    STALL_CAUSES,
    Observer,
    StallAttributor,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.sim.stats import RunStats


def _data_pages(args: argparse.Namespace, platform: PlatformConfig) -> int:
    """``--pages``, else the ``--size-class`` footprint, else ~2x memory."""
    if args.pages:
        return args.pages
    if args.size_class:
        return default_data_pages(platform, SIZE_CLASSES[args.size_class])
    return default_data_pages(platform)


def _print_stats(stats: RunStats, registry=None) -> None:
    """Print the run's headline metrics, sourced from the registry.

    The registry (``RunStats.publish``) is the canonical export surface
    of the observability layer; this table is just a curated view of it.
    """
    reg = registry if registry is not None else stats.publish()
    v = reg.value
    secs = lambda name: f"{v(name) / 1e6:.3f} s"  # noqa: E731
    rows = [
        ["elapsed", secs("time.elapsed_us")],
        ["user compute", secs("time.user_compute_us")],
        ["user overhead", secs("time.user_overhead_us")],
        ["system (faults)", secs("time.sys_fault_us")],
        ["system (prefetch)", secs("time.sys_prefetch_us")],
        ["system (release)", secs("time.sys_release_us")],
        ["I/O stall",
         f"{(v('time.stall_read_us') + v('time.stall_flush_us')) / 1e6:.3f} s"],
        ["page faults",
         int(v("faults.prefetched_fault") + v("faults.nonprefetched_fault"))],
        ["prefetched hits", int(v("faults.prefetched_hit"))],
        ["coverage", f"{100 * v('faults.coverage'):.1f} %"],
        ["prefetches inserted", int(v("prefetch.compiler_inserted"))],
        ["filtered at user level", int(v("prefetch.filtered"))],
        ["issued to OS (pages)", int(v("prefetch.issued_pages"))],
        ["pages released", int(v("release.pages_released"))],
        ["disk requests",
         int(v("disk.reads_fault") + v("disk.reads_prefetch") + v("disk.writes"))],
        ["avg disk utilization", f"{100 * v('disk.utilization'):.1f} %"],
        ["avg free memory", f"{100 * v('memory.avg_free_fraction'):.1f} %"],
    ]
    print(render_table(["metric", "value"], rows))


def _fault_plan_from_args(
    args: argparse.Namespace, platform: PlatformConfig
) -> FaultPlan | None:
    """The plan behind ``--faults`` / ``--fault-seed`` (None = clean run).

    ``--fault-seed`` alone selects :func:`repro.faults.default_plan`;
    combined with ``--faults`` it reseeds the loaded plan.
    """
    plan = None
    if args.faults:
        plan = load_plan(args.faults)
        if args.fault_seed is not None:
            plan = plan.with_seed(args.fault_seed)
    elif args.fault_seed is not None:
        plan = default_plan(platform.num_disks, seed=args.fault_seed)
    return plan


def _checkpoint_from_args(
    args: argparse.Namespace, label: str
) -> CheckpointConfig | None:
    """The config behind ``--checkpoint-* / --resume-from`` (see
    docs/robustness.md).  Commands without those flags get None; with
    them, an (often inactive) config is always built so the checkpoint
    directory and crash ledger stay wired for plan ``process_crash``
    faults even when no cadence was requested.
    """
    if not hasattr(args, "checkpoint_every"):
        return None
    return CheckpointConfig(
        every_us=args.checkpoint_every,
        directory=args.checkpoint_dir,
        label=label,
        keep=args.checkpoint_keep,
        resume_from=args.resume_from,
        suppress_plan_crashes=args.ignore_crash_faults,
    )


def _make_observer(args: argparse.Namespace,
                   always: bool = False) -> Observer | None:
    """An observer when any observability output was requested (or
    ``always``); it records a trace only when ``--trace`` asked for one."""
    if always or args.trace or args.metrics_out:
        return Observer(capacity=args.trace_buffer,
                        record_trace=bool(args.trace))
    return None


@contextlib.contextmanager
def _observations_survive_crash(args: argparse.Namespace,
                                obs: Observer | None):
    """A planned crash still writes the dying run's requested artifacts
    (``main`` then turns it into exit code 3)."""
    try:
        yield
    except ProcessCrash:
        _write_observations(args, obs)
        raise


def _write_observations(args: argparse.Namespace, obs: Observer | None) -> int:
    """Write the requested trace / metrics artifacts and say where.

    A trace also gets its event-kind counts printed and is checked
    against its own schema validator: one with problems is still
    written, so it can be inspected, and the command exits FAILURE.
    """
    status = ExitCode.OK
    if obs is None:
        return status
    if args.trace:
        counts = obs.trace.counts_by_kind()
        print(render_table(["event kind", "count"],
                           [[kind, counts[kind]] for kind in sorted(counts)]))
        write_chrome_trace(args.trace, obs.trace)
        kept, dropped = len(obs.trace), obs.trace.dropped
        print(f"trace: {args.trace} ({kept} events"
              + (f", {dropped} dropped by ring wraparound" if dropped else "")
              + ") -- load in https://ui.perfetto.dev")
        problems = validate_chrome_trace(chrome_trace(obs.trace))
        for problem in problems:
            print(f"trace validation: {problem}", file=sys.stderr)
        if problems:
            status = ExitCode.FAILURE
    if args.metrics_out:
        write_metrics_json(args.metrics_out, obs.metrics)
        print(f"metrics: {args.metrics_out} ({len(obs.metrics)} instruments)")
    return status


def cmd_apps(args: argparse.Namespace) -> int:
    rows = [
        [r["name"], r["nas"], r["full_name"], r["pattern"]]
        for r in table2_rows()
    ]
    print(render_table(["app", "NAS", "full name", "access pattern"], rows,
                       title="NAS Parallel Benchmark models"))
    return ExitCode.OK


def cmd_platform(args: argparse.Namespace) -> int:
    platform = platform_for(args.memory_pages, args.disks)
    disk = platform.disk
    rows = [
        ["memory", f"{platform.memory_bytes // 1024} KB ({platform.memory_pages} pages)"],
        ["available to app", f"{platform.available_bytes // 1024} KB"],
        ["page size", f"{platform.page_size} B"],
        ["disks", platform.num_disks],
        ["random access", f"{disk.random_service_us(1) / 1000:.1f} ms"],
        ["sequential page", f"{disk.sequential_service_us(1) / 1000:.1f} ms"],
        ["fault latency (end to end)",
         f"{platform.average_fault_latency_us() / 1000:.1f} ms"],
        ["block prefetch", f"{platform.prefetch_block_pages} pages"],
    ]
    print(render_table(["characteristic", "value"], rows,
                       title="Simulated platform"))
    return ExitCode.OK


def cmd_compile(args: argparse.Namespace) -> int:
    platform = platform_for(args.memory_pages, args.disks)
    spec = get_app(args.app)
    program = spec.make(_data_pages(args, platform), seed=args.seed)
    options = CompilerOptions.from_platform(
        platform, two_version_loops=args.two_version
    )
    result = insert_prefetches(program, options)
    print(result.report())
    if args.print_code:
        from repro.core.ir.printer import format_program

        print()
        print(format_program(result.program))
    return ExitCode.OK


def _run_app(args: argparse.Namespace, platform: PlatformConfig,
             observer: Observer | None,
             fault_plan: FaultPlan | None) -> RunResult:
    """``run_app`` on the app, variant and footprint the flags name."""
    spec = get_app(args.app)
    checkpoint = _checkpoint_from_args(
        args, f"{spec.name}-{args.variant.upper()}")
    with _observations_survive_crash(args, observer):
        return run_app(spec, platform, args.variant,
                       _data_pages(args, platform), args.seed, args.warm,
                       observer, fault_plan, checkpoint)


def cmd_run(args: argparse.Namespace) -> int:
    platform = platform_for(args.memory_pages, args.disks)
    observer = _make_observer(args)
    fault_plan = _fault_plan_from_args(args, platform)
    run = _run_app(args, platform, observer, fault_plan)
    print(f"{run.app} [{args.variant.upper()}] at {run.data_pages} data pages "
          f"({'warm' if args.warm else 'cold'} start"
          + (", faulted" if fault_plan is not None else "")
          + (f", resumed from {args.resume_from}" if args.resume_from else "")
          + ")")
    _print_stats(run.stats, observer.metrics if observer else None)
    return _write_observations(args, observer)


def cmd_compare(args: argparse.Namespace) -> int:
    platform = platform_for(args.memory_pages, args.disks)
    spec = get_app(args.app)
    observer = _make_observer(args)
    with _observations_survive_crash(args, observer):
        result = compare_app(
            spec,
            platform,
            data_pages=_data_pages(args, platform),
            seed=args.seed,
            warm=args.warm,
            include_nofilter=args.nofilter,
            include_adaptive=args.adaptive,
            observer=observer,
            fault_plan=_fault_plan_from_args(args, platform),
            # compare_app re-labels per variant (<app>-O, <app>-P, ...).
            checkpoint=_checkpoint_from_args(args, spec.name),
        )
    rows = []
    variants = [result.original, result.prefetch] + list(result.extras.values())
    for run in variants:
        s = run.stats
        rows.append([
            run.variant,
            f"{s.elapsed_us / 1e6:.3f} s",
            f"{100 * s.times.idle / s.elapsed_us:.0f} %",
            f"{result.original.elapsed_us / s.elapsed_us:.2f}x",
            f"{100 * s.faults.coverage:.0f} %",
        ])
    print(render_table(
        ["variant", "elapsed", "idle", "speedup vs O", "coverage"],
        rows,
        title=f"{spec.name} at {result.data_pages} data pages",
    ))
    return _write_observations(args, observer)


def _attributed_run(
    args: argparse.Namespace,
) -> tuple[RunResult, Observer, StallAttributor]:
    """Execute one variant with span assembly + stall attribution live."""
    platform = platform_for(args.memory_pages, args.disks)
    observer = _make_observer(args, always=True)
    attributor = StallAttributor(observer=observer)
    run = _run_app(args, platform, observer,
                   _fault_plan_from_args(args, platform))
    return run, observer, attributor


def cmd_explain(args: argparse.Namespace) -> int:
    """Stall-attribution report: every idle microsecond gets one cause.

    Exits non-zero if the conservation invariant fails (attributed
    cycles must equal the run's stall cycles bitwise) -- it holding is
    the proof that the report explains *all* of the idle time.
    """
    run, observer, att = _attributed_run(args)
    report = att.report(run.stats)
    idle = report.idle_us or 1.0
    rows = []
    for cause in STALL_CAUSES:
        bucket = report.buckets[cause]
        if not bucket.count and not bucket.total_us:
            continue
        rows.append([
            cause,
            bucket.count,
            f"{bucket.total_us / 1e6:.3f} s",
            f"{100 * bucket.total_us / idle:.1f} %",
        ])
    print(render_table(
        ["cause", "stalls", "time", "share of idle"],
        rows,
        title=(f"{run.app} [{args.variant.upper()}] at {run.data_pages} "
               f"data pages -- stall attribution"),
    ))
    lateness = report.lateness
    if lateness.count:
        rows = []
        for idx, bound in enumerate(lateness.bounds):
            if lateness.buckets[idx]:
                rows.append([f"<= {bound / 1000:g} ms", lateness.buckets[idx]])
        if lateness.buckets[-1]:
            rows.append([f"> {lateness.bounds[-1] / 1000:g} ms",
                         lateness.buckets[-1]])
        rows.append(["mean", f"{lateness.mean / 1000:.1f} ms"])
        print(render_table(["lateness", "late prefetches"], rows,
                           title="prefetch_too_late lateness histogram"))
    for warning in report.warnings:
        print(f"warning: {warning}")
    verdict = "conserved exactly" if report.conserved else "MISMATCH"
    print(f"attributed {report.attributed_total_us / 1e6:.6f} s across "
          f"{report.records} stall records == RunStats idle "
          f"{report.idle_us / 1e6:.6f} s: {verdict}")
    status = _write_observations(args, observer)
    if not report.conserved:
        print("conservation invariant violated: attribution does not "
              "account for all stall cycles", file=sys.stderr)
        return ExitCode.FAILURE
    return status


def cmd_profile(args: argparse.Namespace) -> int:
    """Collapsed-stack stall profile plus the per-disk utilization timeline."""
    run, observer, att = _attributed_run(args)
    stats = run.stats
    att.report(stats)
    lines = att.collapsed_stacks(root=run.app)
    if args.collapsed:
        atomic_write_text(args.collapsed,
                          "\n".join(lines) + ("\n" if lines else ""))
        print(f"collapsed stacks: {args.collapsed} ({len(lines)} frames) "
              f"-- feed to any flamegraph tool")
    rows = []
    for line in lines[:args.top]:
        stack, _, stalled_us = line.rpartition(" ")
        rows.append([stack, f"{int(stalled_us) / 1e6:.3f} s"])
    print(render_table(
        ["stack (loop nest;array;cause)", "stall"],
        rows,
        title=(f"{run.app} [{args.variant.upper()}] at {run.data_pages} "
               f"data pages -- top {min(args.top, len(lines))} of "
               f"{len(lines)} stacks"),
    ))
    # Per-disk utilization: exact busy fractions from RunStats plus a
    # request-density timeline rebuilt from the span layer's DISK_REQUEST
    # feed.  The obs.disk_idle_fraction gauge is set from the same
    # busy_us numbers in Machine.finish, so the two views agree.
    elapsed = stats.elapsed_us or 1.0
    width = 48
    glyphs = ".:-=+*#@"
    rows = []
    for idx, busy in enumerate(stats.disk.busy_us):
        requests = att.spans.disk_timeline.get(idx, [])
        counts = [0] * width
        for ts_us, npages in requests:
            slot = min(width - 1, int(ts_us / elapsed * width))
            counts[slot] += npages
        peak = max(counts) if counts else 0
        timeline = "".join(
            " " if c == 0 else glyphs[min(len(glyphs) - 1,
                                          int(c / peak * (len(glyphs) - 1)))]
            for c in counts
        )
        rows.append([
            f"disk{idx}",
            sum(n for _, n in requests),
            f"{100 * busy / elapsed:.1f} %",
            f"{100 * max(0.0, 1.0 - busy / elapsed):.1f} %",
            timeline,
        ])
    print(render_table(
        ["disk", "pages", "busy", "idle", f"requests over time ({width} slots)"],
        rows,
        title="disk utilization",
    ))
    gauge = observer.disk_idle_fraction
    print(f"obs.disk_idle_fraction gauge: min {gauge.min:.3f}, "
          f"max {gauge.max:.3f} (matches the idle column by construction)")
    return _write_observations(args, observer)


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the pinned benchmark set and gate against the newest baseline."""
    from pathlib import Path

    from repro.harness.bench import (
        compare_reports,
        find_baseline,
        is_trajectory_report,
        load_report,
        run_bench,
        smoke_cases,
        table3_cases,
        write_report,
    )

    out = Path(args.out)
    if is_trajectory_report(out) and out.exists():
        print(f"error: {out} is a committed trajectory report; never "
              f"rewrite one -- pick a new BENCH_PR<N>.json or another "
              f"--out", file=sys.stderr)
        return ExitCode.USAGE
    baseline_path: Path | None = None
    if args.baseline == "auto":
        baseline_path = find_baseline(out.resolve().parent)
    elif args.baseline != "none":
        baseline_path = Path(args.baseline)
    baseline = load_report(baseline_path) if baseline_path is not None else None
    cases = smoke_cases() if args.smoke else table3_cases() + smoke_cases()
    report = run_bench(
        cases,
        progress=lambda case: print(
            f"running {case.app} ({case.profile}: {case.data_pages} pages, "
            f"{case.memory_pages} memory pages) ...", flush=True),
        wall_reps=args.wall_reps,
    )
    write_report(out, report)
    rows = [[
        entry["app"], entry["variant"], entry["profile"],
        f"{entry['sim_elapsed_us'] / 1e6:.3f} s",
        f"{entry['sim_stall_us'] / 1e6:.3f} s",
        f"{entry['wall_time_s']:.2f} s",
    ] for entry in report["entries"]]
    print(render_table(
        ["app", "variant", "profile", "sim elapsed", "sim stall", "wall"],
        rows,
        title=f"benchmark report -> {out}",
    ))
    if baseline is None:
        print("no baseline report; recorded only (use --baseline PATH to gate)")
        return ExitCode.OK
    regressions, notes = compare_reports(
        report, baseline, args.threshold, wall_threshold=args.wall_threshold
    )
    for note in notes:
        print(f"note: {note}")
    gates = f"sim threshold {100 * args.threshold:.0f}%"
    if args.wall_threshold is not None:
        gates += f", wall threshold {100 * args.wall_threshold:.0f}%"
    if regressions:
        print(f"benchmark regression vs {baseline_path} ({gates}):",
              file=sys.stderr)
        for regression in regressions:
            print(f"  {regression.describe()}", file=sys.stderr)
        return ExitCode.FAILURE
    print(f"no benchmark regression vs {baseline_path} ({gates})")
    return ExitCode.OK


def cmd_multiprog(args: argparse.Namespace) -> int:
    from repro.multiprog import CoScheduler

    platform = platform_for(args.memory_pages, args.disks)
    names = [n.strip() for n in args.apps.split(",") if n.strip()]
    if not names:
        print("no applications given", file=sys.stderr)
        return ExitCode.USAGE
    observer = _make_observer(args)
    rows = []
    for prefetching in (False, True):
        # Observe the prefetching schedule only: both schedules restart
        # the clock at zero, so one trace cannot hold both and keep
        # timestamps monotonic.
        sched = CoScheduler(platform, quantum_us=args.quantum,
                            observer=observer if prefetching else None)
        for k, app_name in enumerate(names):
            spec = get_app(app_name)
            program = build_variant(
                spec, platform, "p" if prefetching else "o",
                args.pages or default_data_pages(platform), seed=k + 1)
            sched.add_process(program, name=f"{spec.name}#{k}",
                              prefetching=prefetching)
        result = sched.run()
        if prefetching and observer is not None:
            # CoScheduler does not publish; surface its stats alongside
            # the live histograms in the metrics artifact.
            result.stats.publish(observer.metrics)
        label = "P" if prefetching else "O"
        for proc in result.processes:
            rows.append([
                label,
                proc.name,
                f"{proc.finish_us / 1e6:.3f} s",
                f"{proc.cpu_us / 1e6:.3f} s",
                f"{proc.blocked_us / 1e6:.3f} s",
                f"{proc.queued_us / 1e6:.3f} s",
            ])
        rows.append([
            label, "(machine)", f"{result.elapsed_us / 1e6:.3f} s",
            f"idle {100 * result.times.idle / result.elapsed_us:.0f} %",
            "", "",
        ])
    print(render_table(
        ["variant", "process", "finish", "cpu", "blocked", "queued"],
        rows,
        title="Co-scheduled run (O = paged VM, P = prefetching)",
    ))
    if observer is not None:
        print("(trace/metrics cover the prefetching schedule only)")
    return _write_observations(args, observer)


def cmd_sweep(args: argparse.Namespace) -> int:
    platform = platform_for(args.memory_pages, args.disks)
    spec = get_app(args.app)
    multiples = [float(m) for m in args.multiples.split(",")]
    observer = _make_observer(args)
    rows = []
    for k, multiple in enumerate(multiples):
        pages = default_data_pages(platform, multiple)
        # Observe the final sweep point only: every run restarts the
        # simulated clock at zero, so one trace cannot hold several
        # runs and keep its timestamps monotonic.
        result = compare_app(
            spec, platform, data_pages=pages, seed=args.seed,
            observer=observer if k == len(multiples) - 1 else None,
        )
        rows.append([
            f"{multiple:g}x",
            pages,
            f"{result.original.elapsed_us / 1e6:.3f} s",
            f"{result.prefetch.elapsed_us / 1e6:.3f} s",
            f"{result.speedup:.2f}x",
        ])
    print(render_table(
        ["size vs memory", "pages", "original", "prefetching", "speedup"],
        rows,
        title=f"{spec.name} problem-size sweep",
    ))
    if observer is not None:
        print(f"(trace/metrics cover the final sweep point only: "
              f"{multiples[-1]:g}x, prefetching variant)")
    return _write_observations(args, observer)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep fault intensities and print the degradation table."""
    from repro.faults.chaos import chaos_report_dict, chaos_sweep

    if args.quick:
        # CI smoke mode: a small out-of-core footprint, one intensity.
        args.memory_pages = args.memory_pages or 96
        args.pages = args.pages or 120
    platform = platform_for(args.memory_pages, args.disks)
    spec = get_app(args.app)
    if args.intensities is not None:
        spec_intensities = args.intensities
    else:
        spec_intensities = "1.0" if args.quick else "0.25,0.5,1.0"
    intensities = [float(x) for x in spec_intensities.split(",") if x.strip()]
    report = chaos_sweep(
        spec,
        platform,
        base_plan=_fault_plan_from_args(args, platform),
        intensities=intensities,
        data_pages=_data_pages(args, platform),
        seed=args.seed,
        variant=args.variant,
    )
    rows = [[
        "0 (clean)", f"{report.clean.elapsed_us / 1e6:.3f} s",
        "1.00x", "-", "-", "-", "-", "-",
    ]]
    for row in report.rows:
        rows.append([
            f"{row.intensity:g}",
            f"{row.elapsed_us / 1e6:.3f} s",
            f"{report.slowdown(row):.2f}x",
            f"{100 * row.drop_rate:.1f} %",
            row.retries,
            row.degraded_requests,
            row.fallback_episodes,
            f"{row.crashes}/{row.resumes}" if row.crashes else "-",
        ])
    print(render_table(
        ["intensity", "elapsed", "slowdown", "hints dropped",
         "retries", "degraded I/O", "fallbacks", "crashes/resumes"],
        rows,
        title=(f"{spec.name} [{args.variant.upper()}] chaos sweep "
               f"at {report.data_pages} data pages"),
    ))
    if args.out:
        atomic_write_json(args.out, chaos_report_dict(report))
        print(f"report: {args.out}")
    return ExitCode.OK


def _render_serve_report(payload: dict, title: str) -> None:
    """Print the per-job table and summary line of a results payload."""
    rows = []
    for job in payload["jobs"]:
        spec = job["spec"]
        note = job["failures"][-1] if job["failures"] else ""
        if len(note) > 48:
            note = note[:45] + "..."
        rows.append([
            spec["job_id"], spec["kind"], spec["app"], spec["priority"],
            job["state"], job["attempts"], job["retries"],
            job["preemptions"], f"{job['latency_s']:.2f} s", note,
        ])
    print(render_table(
        ["job", "kind", "app", "prio", "state", "attempts", "retries",
         "preempt", "latency", "last failure"],
        rows, title=title,
    ))
    s = payload["summary"]
    print(f"{s['jobs']} jobs: {s['done']} done, "
          f"{s['quarantined']} quarantined, {s['shed']} shed | "
          f"retries {s['retries']}, preemptions {s['preemptions']}, "
          f"worker restarts {s['worker_restarts']} | "
          f"p99 latency {s['p99_latency_s']:.2f} s, "
          f"wall {s['wall_s']:.2f} s")


def _load_serve_results(path: str) -> dict:
    import json

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load serve results {path!r}: {exc}") from None
    if not isinstance(payload, dict) or "jobs" not in payload:
        raise ConfigError(f"{path}: not a serve results file")
    return payload


def _serve_batch(args: argparse.Namespace, specs, carried: list | None = None,
                 recover: bool = False) -> int:
    """Run a batch on a farm, write the artifacts, print the table.

    ``carried`` rows (already-terminal jobs from a previous results
    file, used by ``drain``) are prepended to the output unchanged.
    ``recover`` replays the workdir's write-ahead ledger before any
    new submission (``serve recover``, or ``submit`` landing on a
    stale ledger).
    """
    import tempfile

    from repro.faults.farm import default_farm_plan, load_farm_plan
    from repro.obs.telemetry import TelemetryConfig, load_slo_rules
    from repro.serve import FarmConfig, JobState, RetryPolicy, run_farm
    from repro.serve.ledger import ledger_is_stale

    chaos = None
    if args.farm_chaos:
        chaos = load_farm_plan(args.farm_chaos)
    elif (args.chaos_kills or args.chaos_stalls
          or args.chaos_controller_crash):
        chaos = default_farm_plan(
            kills=args.chaos_kills,
            stalls=args.chaos_stalls,
            delay_s=args.chaos_delay,
            controller_crashes=args.chaos_controller_crash)
    telemetry = TelemetryConfig(
        enabled=not args.no_telemetry,
        flush_every_s=args.telemetry_every,
        trace_out=args.farm_trace,
        slo_rules=load_slo_rules(args.slo) if args.slo else None,
        slo_out=args.slo_out,
    )
    config = FarmConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        hb_interval_s=args.hb_interval,
        hb_timeout_s=args.hb_timeout,
        retry=RetryPolicy(seed=args.seed),
        preemption=not args.no_preemption,
        max_wall_s=args.max_wall,
        telemetry=telemetry,
    )
    tmp = None
    workdir = args.workdir
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
        workdir = tmp.name
    elif not recover and ledger_is_stale(workdir):
        # A previous controller died here mid-batch: replay its ledger
        # before taking new work, so its jobs are not silently lost.
        print(f"stale ledger in {workdir} (controller died mid-batch): "
              f"recovering its jobs first")
        recover = True
    try:
        report = run_farm(specs, config, workdir, chaos=chaos,
                          recover=recover)
    finally:
        if tmp is not None:
            tmp.cleanup()
    payload = report.to_dict()
    if carried:
        payload["jobs"] = carried + payload["jobs"]
        summary = payload["summary"]
        summary["jobs"] = len(payload["jobs"])
        for state in (JobState.DONE, JobState.QUARANTINED, JobState.SHED):
            summary[state] = sum(
                1 for job in payload["jobs"] if job["state"] == state)
    atomic_write_json(args.out, payload)
    _render_serve_report(
        payload,
        f"farm of {config.workers} workers"
        + (f", chaos: {len(chaos.faults)} strikes" if chaos else ""),
    )
    print(f"results: {args.out}")
    if args.metrics_out:
        write_metrics_json(args.metrics_out, report.metrics)
        print(f"metrics: {args.metrics_out} "
              f"({len(report.metrics)} instruments)")
    if report.telemetry and report.telemetry.get("enabled"):
        _render_telemetry_summary(report.telemetry)
        if tmp is None:
            print(f"telemetry snapshot: {report.telemetry['snapshot']}")
        if report.telemetry.get("trace_out"):
            print(f"farm timeline: {report.telemetry['trace_out']}")
    all_done = all(job["state"] == "done" for job in payload["jobs"])
    return ExitCode.OK if all_done else ExitCode.JOB_FAILED


def _render_telemetry_summary(telemetry: dict) -> None:
    """The per-tenant table and SLO verdict of a telemetry summary."""
    tenants = telemetry.get("tenants") or {}
    if tenants:
        rows = []
        for tenant in sorted(tenants):
            row = tenants[tenant]
            rows.append([
                tenant, row.get("jobs", 0), row.get("done", 0),
                row.get("failed_attempts", 0),
                _us(row.get("stall_p50_us")), _us(row.get("stall_p95_us")),
                _us(row.get("stall_p99_us")), _us(row.get("latency_p99_us")),
            ])
        print(render_table(
            ["tenant", "jobs", "done", "failed", "stall p50", "stall p95",
             "stall p99", "latency p99"],
            rows, title=f"tenants (trace {telemetry.get('trace_id', '?')})",
        ))
    verdict = telemetry.get("slo")
    if verdict:
        status = "OK" if verdict.get("ok") else "VIOLATED"
        broken = [r["name"] for r in verdict.get("rules", []) if not r["ok"]]
        line = f"SLO: {status} ({verdict.get('rules_total', 0)} rules"
        if broken:
            line += f"; violated: {', '.join(broken)}"
        print(line + ")")


def _us(value) -> str:
    """Microseconds, humanized for the tenant table."""
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f} s"
    if value >= 1e3:
        return f"{value / 1e3:.1f} ms"
    return f"{value:.0f} us"


def cmd_serve(args: argparse.Namespace) -> int:
    """The supervised simulation job farm (see docs/serving.md)."""
    from repro.serve import JobSpec, demo_jobs, load_jobs

    try:
        if args.verb == "submit":
            if args.demo:
                specs = demo_jobs(args.demo, seed=args.seed,
                                  poison=args.poison)
            elif args.jobs:
                specs = load_jobs(args.jobs)
            else:
                print("serve submit needs --jobs FILE or --demo N",
                      file=sys.stderr)
                return ExitCode.USAGE
            return _serve_batch(args, specs)
        if args.verb == "recover":
            if not args.workdir:
                print("serve recover needs --workdir DIR (the crashed "
                      "farm's workdir, where its ledger lives)",
                      file=sys.stderr)
                return ExitCode.USAGE
            return _serve_batch(args, [], recover=True)
        if args.verb == "status" and args.workdir:
            # Live view first: the workdir's telemetry snapshot, with an
            # explicit freshness verdict instead of silent stale data.
            path = str(Path(args.workdir) / "telemetry.json")
            snap, note = _snapshot_freshness(path)
            if note:
                print(note)
            if snap is not None:
                print("\n".join(_render_top(snap)))
        results = args.results or args.out
        payload = _load_serve_results(results)
        if args.verb == "status":
            _render_serve_report(payload, f"results: {results}")
            if args.telemetry:
                telemetry = payload.get("telemetry")
                if telemetry and telemetry.get("enabled"):
                    _render_telemetry_summary(telemetry)
                else:
                    print("no telemetry in this results file "
                          "(ran with --no-telemetry?)")
            all_done = all(job["state"] == "done" for job in payload["jobs"])
            return ExitCode.OK if all_done else ExitCode.JOB_FAILED
        # drain: re-run everything that did not finish, keep what did.
        if args.workdir:
            removed = _drain_stale_state(args.workdir)
            if removed:
                print(f"cleaned {removed} stale worker/controller state "
                      f"file(s) under {args.workdir}")
        carried = [job for job in payload["jobs"] if job["state"] == "done"]
        specs = [JobSpec.from_dict(job["spec"]) for job in payload["jobs"]
                 if job["state"] != "done"]
        if not specs:
            print(f"nothing to drain: all {len(carried)} jobs in "
                  f"{results} are done")
            return ExitCode.OK
        return _serve_batch(args, specs, carried=carried)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE


def _drain_stale_state(workdir: str) -> int:
    """``serve drain`` housekeeping: remove heartbeat/pid files left by
    SIGKILLed workers and a dead controller's liveness stamp.  Live
    processes' state is left alone."""
    from repro.serve.ledger import clear_liveness, controller_alive, liveness_path
    from repro.serve.supervisor import cleanup_worker_state

    removed = cleanup_worker_state(Path(workdir) / "workers")
    if liveness_path(workdir).is_file() and not controller_alive(workdir):
        clear_liveness(workdir)
        removed += 1
    return removed


#: A "running" snapshot older than this is considered abandoned (the
#: controller flushes every --telemetry-every seconds, default 0.5).
SNAPSHOT_STALE_AFTER_S = 10.0


def _snapshot_freshness(path: str) -> tuple[dict | None, str | None]:
    """Load a telemetry snapshot with an explicit freshness verdict.

    Returns ``(snapshot, note)``: missing and unreadable files produce
    ``(None, why)`` instead of a traceback, and a snapshot still marked
    ``running`` whose file has not been rewritten for
    :data:`SNAPSHOT_STALE_AFTER_S` produces a "stale snapshot (age Xs)"
    note pointing at ``repro serve recover`` -- never silent stale data.
    """
    import json
    import os as _os
    import time as _time

    try:
        raw = Path(path).read_text()
    except OSError:
        return None, (f"no telemetry yet at {path} (farm not started, "
                      f"--workdir not set, or telemetry off)")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError:
        return None, (f"telemetry snapshot at {path} is unreadable "
                      f"(caught mid-rewrite? retry in a moment)")
    if not isinstance(payload, dict) or "farm" not in payload:
        return None, f"{path} is not a farm telemetry snapshot"
    try:
        age = _time.time() - _os.stat(path).st_mtime
    except OSError:
        age = 0.0
    if payload.get("state") == "running" and age > SNAPSHOT_STALE_AFTER_S:
        return payload, (
            f"stale snapshot (age {age:.0f}s): the controller stopped "
            f"updating it mid-run -- if it crashed, "
            f"`repro serve recover --workdir ...` resumes the batch")
    return payload, None


def _render_top(snap: dict) -> list[str]:
    """The ``repro top`` screen for one telemetry snapshot."""
    farm = snap.get("farm", {})
    lines = [
        f"repro top - farm {snap.get('trace_id', '?')} "
        f"[{snap.get('state', '?')}] updated {snap.get('updated_s', 0):.1f}s "
        f"after start",
        f"jobs {farm.get('jobs', 0)}: {farm.get('done', 0)} done, "
        f"{farm.get('running', 0)} running, {farm.get('pending', 0)} pending, "
        f"{farm.get('quarantined', 0)} quarantined, {farm.get('shed', 0)} shed"
        f" | queue {farm.get('queue_depth', 0)}"
        f" | workers {farm.get('workers_busy', 0)}/{farm.get('workers', '?')}"
        f" busy | deltas folded {farm.get('jobs_folded', 0)}",
    ]
    verdict = snap.get("slo") or {}
    status = "OK" if verdict.get("ok") else "VIOLATED"
    broken = [r["name"] for r in verdict.get("rules", []) if not r.get("ok")]
    slo_line = (f"SLO: {status} ({verdict.get('rules_total', 0)} rules, "
                f"{verdict.get('evaluations', 0)} evaluations")
    if broken:
        slo_line += f"; violated: {', '.join(broken)}"
    lines.append(slo_line + ")")
    quantiles = snap.get("quantiles") or {}
    rows = [[name, q.get("count", 0), _us(q.get("p50")), _us(q.get("p95")),
             _us(q.get("p99"))]
            for name, q in sorted(quantiles.items())]
    if rows:
        lines.append(render_table(
            ["histogram", "n", "p50", "p95", "p99"], rows,
            title="farm distributions"))
    tenants = snap.get("tenants") or {}
    rows = [[tenant, row.get("jobs", 0), row.get("done", 0),
             row.get("failed_attempts", 0), _us(row.get("stall_p99_us")),
             _us(row.get("latency_p99_us"))]
            for tenant, row in sorted(tenants.items())]
    if rows:
        lines.append(render_table(
            ["tenant", "jobs", "done", "failed", "stall p99", "latency p99"],
            rows, title="tenants"))
    return lines


def cmd_top(args: argparse.Namespace) -> int:
    """Live farm dashboard over the telemetry.json snapshot."""
    import json
    import time as _time

    path = args.snapshot or str(Path(args.workdir) / "telemetry.json")
    if args.once:
        snap, note = _snapshot_freshness(path)
        if snap is None:
            print(f"error: {note}", file=sys.stderr)
            return ExitCode.FAILURE
        if note:
            print(note, file=sys.stderr)
        if args.json:
            print(json.dumps(snap, indent=1, sort_keys=True))
        else:
            print("\n".join(_render_top(snap)))
        return ExitCode.OK
    # Live mode: refresh until interrupted (the snapshot keeps its
    # terminal "final" state after the farm drains, so the last screen
    # sticks around to read).
    try:
        while True:
            snap, note = _snapshot_freshness(path)
            sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
            if snap is None:
                print(f"{note} -- waiting ...")
            else:
                if note:
                    print(note)
                print("\n".join(_render_top(snap)))
                print(f"\n[refresh {args.interval:g}s - ctrl-c to quit]")
            sys.stdout.flush()
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return ExitCode.OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Property-based fuzzing with metamorphic oracles (docs/robustness.md)."""
    from repro.fuzz import load_entry, replay_entry, run_fuzz
    from repro.fuzz.oracles import OracleViolation
    from repro.obs import MetricsRegistry

    if args.verb == "replay":
        if not args.paths:
            print("fuzz replay needs at least one corpus FILE",
                  file=sys.stderr)
            return ExitCode.USAGE
        failing = 0
        for path in args.paths:
            _scenario, oracle = load_entry(path)
            try:
                replay_entry(path)
            except OracleViolation as violation:
                failing += 1
                print(f"{path}: FAILING [{violation.oracle}] "
                      f"{violation.detail}")
            else:
                print(f"{path}: ok [{oracle}] (regression stays fixed)")
        return ExitCode.FAILURE if failing else ExitCode.OK
    report = run_fuzz(
        seed=args.seed,
        profile=args.profile,
        corpus_dir=args.corpus,
        out_dir=args.out,
        log=lambda line: print(f"  {line}", flush=True),
    )
    rows = [
        ["scenarios generated", report.scenarios],
        ["machine runs", report.runs],
        ["oracle checks", report.oracle_checks],
        ["corpus entries replayed", report.corpus_replayed],
        ["farm chaos runs", report.farm_runs],
        ["families run", ", ".join(report.families_run) or "-"],
        ["families skipped (budget)",
         ", ".join(report.families_skipped) or "-"],
        ["findings", len(report.findings)],
        ["wall time", f"{report.wall_s:.1f} s"],
    ]
    print(render_table(
        ["metric", "value"], rows,
        title=f"fuzz campaign: profile {report.profile}, seed {report.seed}",
    ))
    for finding in report.findings:
        where = f" -> {finding.path}" if finding.path else ""
        print(f"finding [{finding.oracle}] ({finding.source}): "
              f"{finding.detail}{where}")
    if args.metrics_out:
        registry = MetricsRegistry()
        report.publish(registry)
        write_metrics_json(args.metrics_out, registry)
        print(f"metrics: {args.metrics_out} ({len(registry)} instruments)")
    if args.report_out:
        atomic_write_json(args.report_out, report.to_dict())
        print(f"report: {args.report_out}")
    if not report.ok:
        print(f"{len(report.findings)} oracle violation(s); shrunk "
              f"scenarios are replayable with: repro fuzz replay FILE",
              file=sys.stderr)
        return ExitCode.FAILURE
    return ExitCode.OK


def _flag(*names: str, **options) -> tuple[tuple[str, ...], dict]:
    return names, options


#: Flags several verbs share, by group.
FLAGS: dict[str, list[tuple[tuple[str, ...], dict]]] = {
    "app": [
        _flag("app", help="application name (BUK, CGM, ..., or NAS name)"),
        _flag("--pages", type=int, default=0,
              help="major data footprint in pages (default ~2x memory)"),
        _flag("--size-class", choices=list(SIZE_CLASSES),
              help="NAS-style problem class instead of --pages"),
        _flag("--seed", type=int, default=1),
    ],
    "variant": [_flag("--variant", choices=list(VARIANTS), default="p")],
    "warm": [_flag("--warm", action="store_true",
                   help="preload the data set")],
    "obs": [
        _flag("--trace", metavar="FILE",
              help="write a Chrome trace_event JSON (Perfetto-loadable) "
                   "and print its event counts; exits 1 if it fails "
                   "validation"),
        _flag("--metrics-out", metavar="FILE",
              help="write the metrics-registry JSON artifact"),
        _flag("--trace-buffer", type=int, default=65536,
              help="trace ring-buffer capacity in events"),
    ],
    "faults": [
        _flag("--faults", metavar="FILE",
              help="fault plan JSON to inject (docs/robustness.md)"),
        _flag("--fault-seed", type=int, default=None,
              help="reseed the plan (alone: use the default plan)"),
    ],
    "ckpt": [
        _flag("--checkpoint-every", type=float, default=None, metavar="US",
              help="write a checkpoint every N simulated microseconds "
                   "(docs/robustness.md)"),
        _flag("--checkpoint-dir", default="checkpoints", metavar="DIR",
              help="checkpoint directory (default: checkpoints)"),
        _flag("--checkpoint-keep", type=int, default=3, metavar="K",
              help="retained checkpoints per label (default 3)"),
        _flag("--resume-from", default=None, metavar="PATH",
              help="resume from a checkpoint file, or the newest good "
                   "checkpoint in a directory"),
        _flag("--ignore-crash-faults", action="store_true",
              help="treat the plan's process_crash faults as already "
                   "delivered (uninterrupted control run)"),
    ],
}

#: The shared flag groups each verb takes (see :data:`FLAGS`).
FLAG_GROUPS: dict[str, tuple[str, ...]] = {
    "compile": ("app",),
    "run": ("app", "variant", "warm", "obs", "faults", "ckpt"),
    "compare": ("app", "warm", "obs", "faults", "ckpt"),
    "explain": ("app", "variant", "warm", "obs", "faults"),
    "profile": ("app", "variant", "warm", "obs", "faults"),
    "sweep": ("app", "obs"),
    "multiprog": ("obs",),
    "chaos": ("app", "variant", "faults"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compiler-inserted I/O prefetching reproduction (OSDI '96)",
    )
    parser.add_argument("--memory-pages", type=int, default=0,
                        help="override physical memory size (pages)")
    parser.add_argument("--disks", type=int, default=0,
                        help="override the number of disks")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        for group in FLAG_GROUPS.get(name, ()):
            for names, options in FLAGS[group]:
                p.add_argument(*names, **options)
        return p

    verb("apps", help="list the benchmark applications")
    verb("platform", help="show the simulated machine")

    p = verb("compile", help="run the prefetching pass")
    p.add_argument("--print-code", action="store_true",
                   help="print the transformed program")
    p.add_argument("--two-version", action="store_true",
                   help="enable the two-version-loop extension")

    verb("run", help="execute one variant")

    p = verb("compare", help="run original vs prefetching")
    p.add_argument("--nofilter", action="store_true",
                   help="also run without the run-time layer")
    p.add_argument("--adaptive", action="store_true",
                   help="also run with adaptive suppression")

    verb(
        "explain",
        help="stall-attribution report (which cause owns each stall)",
        description="Execute one variant with the causal span layer "
                    "attached and classify every stalled access into a "
                    "cause; exits non-zero unless the attributed cycles "
                    "equal the run's stall cycles exactly "
                    "(see docs/observability.md).",
    )

    p = verb(
        "profile",
        help="collapsed-stack stall profile + disk utilization timeline",
        description="Execute one variant and print the hottest "
                    "loop-nest;array;cause stacks plus a per-disk "
                    "utilization table (see docs/observability.md).",
    )
    p.add_argument("--collapsed", metavar="FILE",
                   help="write all collapsed stacks (flamegraph input)")
    p.add_argument("--top", type=int, default=15,
                   help="rows to print in the hot-stack table")

    p = verb(
        "bench",
        help="perf-trajectory benchmark (gates against BENCH_PR<N>.json)",
        description="Run the pinned workload set (all eight apps at "
                    "paper scale; EMBAR, MGRID and BUK with --smoke), write "
                    "a report, and gate simulated cycles against the "
                    "newest committed BENCH_PR<N>.json baseline; exits "
                    "non-zero on a regression over the threshold.  The "
                    "report format and per-field glossary are documented "
                    "in docs/observability.md.",
    )
    p.add_argument("--smoke", action="store_true",
                   help="CI mode: only the small golden-trace footprint")
    p.add_argument("--out", default="bench_report.json", metavar="FILE",
                   help="report output path (default bench_report.json; "
                        "an existing BENCH_PR<N>.json is refused)")
    p.add_argument("--baseline", default="auto", metavar="PATH",
                   help="baseline report; 'auto' finds the newest "
                        "BENCH_PR<N>.json next to --out, 'none' disables "
                        "the gate")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="fractional simulated-cycle regression allowed")
    p.add_argument("--wall-reps", type=int, default=3, metavar="N",
                   help="repetitions per variant; wall_time_s records the "
                        "best (minimum) of N (default 3)")
    p.add_argument("--wall-threshold", type=float, default=None,
                   metavar="FRAC",
                   help="also gate wall_time_s at this fractional growth; "
                        "only meaningful when baseline ran on a comparable "
                        "host (default: off; see docs/observability.md)")

    p = verb("sweep", help="problem-size sweep (Figure 8 style)")
    p.add_argument("--multiples", default="0.5,1,1.5,2,3",
                   help="comma-separated sizes as multiples of memory")

    p = verb("multiprog",
             help="co-schedule several applications on one machine")
    p.add_argument("apps", help="comma-separated application names")
    p.add_argument("--pages", type=int, default=0,
                   help="per-process data pages (default ~2x memory)")
    p.add_argument("--quantum", type=float, default=20_000.0,
                   help="scheduler quantum in microseconds")

    p = verb(
        "chaos",
        help="fault-intensity sweep with a degradation table",
        description="Run one application clean and under a fault plan "
                    "scaled to each intensity, and report slowdown, "
                    "dropped hints, retries, degraded I/O, and fallback "
                    "episodes (see docs/robustness.md).",
    )
    p.add_argument("--intensities", default=None,
                   help="comma-separated fault intensities "
                        "(default 0.25,0.5,1.0; --quick: 1.0)")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: small footprint, one intensity")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="also write the report as JSON (atomic)")

    p = verb(
        "serve",
        help="supervised simulation job farm (batch in, results out)",
        description="Run a batch of run/compare/sweep/chaos jobs on a "
                    "supervised multiprocess worker farm: heartbeats, "
                    "per-job deadlines, retry with backoff, poison-job "
                    "quarantine, checkpoint-driven preemption, and "
                    "priority-based load shedding (see docs/serving.md). "
                    "Exits 0 when every job is done, 4 when any job "
                    "ended quarantined or shed.",
    )
    p.add_argument("verb", choices=["submit", "status", "drain", "recover"],
                   help="submit a batch, render a results file, re-run "
                        "a results file's unfinished jobs, or replay a "
                        "crashed controller's write-ahead ledger")
    p.add_argument("--jobs", metavar="FILE",
                   help="job batch JSON (schema in docs/serving.md)")
    p.add_argument("--demo", type=int, default=0, metavar="N",
                   help="submit the deterministic N-job demo batch instead")
    p.add_argument("--poison", type=int, default=0, metavar="K",
                   help="append K always-failing jobs to the demo batch")
    p.add_argument("--workers", type=int, default=4,
                   help="worker processes (default 4)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission-queue bound (default 64)")
    p.add_argument("--out", default="serve_results.json", metavar="FILE",
                   help="results artifact path (default serve_results.json)")
    p.add_argument("--results", default=None, metavar="FILE",
                   help="results file to read for status/drain "
                        "(default: --out)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the serve.* metrics-registry JSON artifact")
    p.add_argument("--hb-interval", type=float, default=0.05, metavar="S",
                   help="worker heartbeat interval (default 0.05 s)")
    p.add_argument("--hb-timeout", type=float, default=5.0, metavar="S",
                   help="heartbeat silence treated as a stall (default 5 s)")
    p.add_argument("--max-wall", type=float, default=None, metavar="S",
                   help="farm drain deadline: quarantine whatever is still "
                        "outstanding after S wall seconds (default: none)")
    p.add_argument("--farm-chaos", metavar="FILE",
                   help="farm chaos plan JSON (kill/stall schedule)")
    p.add_argument("--chaos-kills", type=int, default=0, metavar="N",
                   help="SIGKILL N workers mid-job (built-in schedule)")
    p.add_argument("--chaos-stalls", type=int, default=0, metavar="N",
                   help="SIGSTOP N workers mid-job (built-in schedule)")
    p.add_argument("--chaos-controller-crash", type=int, default=0,
                   metavar="N",
                   help="SIGKILL the controller itself N times mid-batch "
                        "(each crash ends the run; `serve recover` "
                        "resumes it from the ledger)")
    p.add_argument("--chaos-delay", type=float, default=0.1, metavar="S",
                   help="delay after job start before a built-in strike")
    p.add_argument("--no-preemption", action="store_true",
                   help="never kill a running job for a higher-priority one")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep per-job checkpoints, attempt results, and "
                        "the live telemetry snapshot under DIR "
                        "(default: a temp dir, deleted)")
    p.add_argument("--seed", type=int, default=1,
                   help="demo-batch / retry-jitter seed (default 1)")
    p.add_argument("--no-telemetry", action="store_true",
                   help="disable farm telemetry (worker metric deltas, "
                        "SLO evaluation, telemetry.json snapshots)")
    p.add_argument("--telemetry-every", type=float, default=0.5, metavar="S",
                   help="controller telemetry-snapshot and SLO-evaluation "
                        "cadence (default 0.5 s)")
    p.add_argument("--farm-trace", metavar="FILE", default=None,
                   help="write the merged Perfetto farm timeline here "
                        "(controller spans + per-job traces)")
    p.add_argument("--slo", metavar="FILE", default=None,
                   help="SLO rules JSON replacing the defaults "
                        "(schema in docs/observability.md)")
    p.add_argument("--slo-out", metavar="FILE", default=None,
                   help="SLO verdict artifact path "
                        "(default: WORKDIR/slo_verdict.json)")
    p.add_argument("--telemetry", action="store_true",
                   help="status: also render the archived telemetry "
                        "summary (tenants + SLO verdict)")

    p = verb(
        "top",
        help="live farm dashboard (reads WORKDIR/telemetry.json)",
        description="Render the farm's atomically updated telemetry "
                    "snapshot: job/queue/worker state, histogram "
                    "quantiles, per-tenant p99 stall, and SLO status. "
                    "Default is a live refresh loop; --once prints one "
                    "screen (--json for scripts) and exits 1 when no "
                    "snapshot exists (see docs/observability.md).",
    )
    p.add_argument("--workdir", default=".", metavar="DIR",
                   help="the farm's --workdir (default: .)")
    p.add_argument("--snapshot", default=None, metavar="FILE",
                   help="read this snapshot file instead of "
                        "WORKDIR/telemetry.json")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="refresh cadence of the live view (default 1 s)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.add_argument("--json", action="store_true",
                   help="with --once: print the raw snapshot JSON")

    p = verb(
        "fuzz",
        help="property-based scenario fuzzing with metamorphic oracles",
        description="Generate random-but-valid scenarios per oracle "
                    "family, run them through the full stack, and check "
                    "the metamorphic oracles; shrunk findings land in "
                    "the regression corpus and are replayed first on "
                    "every later campaign (see docs/robustness.md). "
                    "Exits 0 when every oracle held, 1 on any finding.",
    )
    p.add_argument("verb", nargs="?", choices=["run", "replay"],
                   default="run",
                   help="run a campaign (default) or replay corpus files")
    p.add_argument("paths", nargs="*", metavar="FILE",
                   help="corpus entries to replay (replay verb only)")
    p.add_argument("--profile", choices=["smoke", "ci", "deep"],
                   default="smoke",
                   help="campaign shape: examples per family + wall "
                        "budget (default smoke)")
    p.add_argument("--seed", type=int, default=1,
                   help="campaign seed; same (seed, profile) regenerates "
                        "the same scenarios (default 1)")
    p.add_argument("--corpus", default="tests/corpus", metavar="DIR",
                   help="regression corpus replayed first and extended "
                        "with new shrunk findings (default tests/corpus)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write new findings here instead of --corpus")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the fuzz.* metrics-registry JSON artifact")
    p.add_argument("--report-out", metavar="FILE",
                   help="write the full campaign report as JSON (atomic)")
    return parser


COMMANDS = {
    "apps": cmd_apps,
    "platform": cmd_platform,
    "compile": cmd_compile,
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "multiprog": cmd_multiprog,
    "explain": cmd_explain,
    "profile": cmd_profile,
    "bench": cmd_bench,
    "chaos": cmd_chaos,
    "serve": cmd_serve,
    "top": cmd_top,
    "fuzz": cmd_fuzz,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ProcessCrash as crash:
        # A planned process_crash fault killed the simulated process.
        # Exit code 3 so harnesses can tell "crashed as planned" from
        # real failures; the newest checkpoint is the resume source.
        print(f"error: {crash}", file=sys.stderr)
        if crash.checkpoint_path:
            print(f"resume with: --resume-from {crash.checkpoint_path} "
                  f"(or the checkpoint directory)", file=sys.stderr)
        else:
            print("no checkpoint was written before the crash; "
                  "rerun with --checkpoint-every to bound lost work",
                  file=sys.stderr)
        return ExitCode.CRASH


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
