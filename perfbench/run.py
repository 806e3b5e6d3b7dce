"""The repo benchmark: host cost of producing the simulated results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clean-table3 --seed 1 --seconds 20 --trace 0

Workloads: ``clean-table3``, ``faulted-resume``, ``farm-batch`` (see
workloads.py).  The seed generates the inputs; references for inputs no
committed entry covers are computed on the scalar loop before timing.

* ``--trace 0`` times passes over the workload for ``--seconds`` (at
  least one pass) with tracing off and reports the end-to-end metrics.
* ``--trace 1`` reports the per-layer metrics from a separate traced
  run (layers.py); the spans are written to
  ``.perfbench/trace-<workload>.json``.
* ``--export-reference`` adds the seed's references to the committed
  files under ``perfbench/reference/`` (add-only) and exits.

Every printed time is marked ``[host]`` (seconds on this machine),
``[host*]`` (host seconds scaled to a reference host speed,
calibrate.py) or ``[sim]`` (simulated time).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The exit code is non-zero when
the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, calibration, kernel, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch area inside the checkout (temporary workdirs, reference
#: cache, traces); listed in .gitignore.
SCRATCH = ROOT / ".perfbench"

#: Setup is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 5

#: README's headline table, column "paper": approximate readings of the
#: paper's Figure 3 bars, not exact values.
PAPER_SPEEDUP = {
    "BUK": "~3.7x", "CGM": "~2x", "EMBAR": "~2-3x", "FFT": "~2x",
    "MGRID": "~2x", "APPLU": "~2x", "APPSP": "~2x", "APPBT": "~1.1x",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("clean-table3", "faulted-resume",
                                 "farm-batch"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny footprints and batch (self-tests)")
    parser.add_argument("--export-reference", action="store_true",
                        help="add this seed's references to the committed "
                             "file and exit")
    return parser.parse_args(argv)


def time_imports(modules: tuple[str, ...], reps: int = SETUP_REPS) -> float:
    """Median seconds a fresh interpreter takes to import ``modules``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); "
            "[__import__(m) for m in sys.argv[2:]]; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code, str(SRC), *modules],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Nearest-rank percentiles; with fewer than twenty samples no
    percentile qualifies and the mean of the slowest quarter (at least
    one sample) is reported: the maximum alone is a single run, whose
    spread across runs of the benchmark was about twice that.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10:
            return f"p{q:g}", ordered[rank - 1]
    k = max(1, n // 4)
    return f"mean of slowest {k}", statistics.fmean(ordered[-k:])


def end_to_end(passes, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics of a run, and the lines that explain them.

    Host times are scaled to the reference host speed by each pass's
    calibration factor: for a study the time-weighted mean over its runs
    (one sample's noise would swamp a single run), for the farm the one
    taken around the whole farm.  The raw values are printed.
    """
    per_pass = [sorted(o.latency_s * p.scale for o in p.outcomes)
                for p in passes]
    tails = [tail_percentile(lat) for lat in per_pass]
    n = len(per_pass[0])
    metrics = {
        "wall_s": (statistics.median(p.wall_s * p.scale for p in passes),
                   "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_speedup": (statistics.median(p.sim_speedup for p in passes), "x"),
        "jobs_per_s": (statistics.median(len(p.outcomes) / (p.span_s * p.scale)
                                         for p in passes), "1/s"),
        "job_latency_p50_s": (statistics.median(
            statistics.median(lat) for lat in per_pass), "s"),
        "job_latency_tail_s": (statistics.median(v for _, v in tails), "s"),
    }
    raw = ", ".join(f"{p.wall_s:.3f} x {p.scale:.3f}" for p in passes)
    host = "[host*]" if any(p.scale != 1.0 for p in passes) else "[host]"
    notes = {
        "wall_s": f"{host} median of {len(passes)} pass(es): {raw} (raw s "
                  "x scale)",
        "setup_s": f"[host*] imports + build, medians of {SETUP_REPS}",
        "peak_rss_mb": "[host] max of this process and its children",
        "sim_speedup": "[sim] geometric mean of simulated O/P elapsed",
        "jobs_per_s": f"{host} runs or jobs per second, first submit to "
                      "last terminal state",
        "job_latency_p50_s": f"{host} median over {n} runs/jobs per pass",
        "job_latency_tail_s": f"{host} {tails[0][0]} of {n} runs/jobs per "
                              "pass (highest percentile with >= 10 beyond, "
                              "else the slowest quarter's mean)",
    }
    lines = [f"  {name:<22} {value:>12.4f} {unit:<5} {notes[name]}"
             for name, (value, unit) in metrics.items()]
    lines.append("  [host*] = host seconds scaled to the reference host "
                 f"speed (calibrate.py, kernel {REFERENCE_S} s); [host] = "
                 "unscaled")
    return metrics, lines


def paper_lines(wl) -> list[str]:
    """Per-app simulated O/P speedup beside README's paper column."""
    lines = ["paper cross-check (Figure 3; paper column = approximate "
             "readings from README's headline table):",
             f"  {'app':<6} {'[sim] O/P speedup':>18}  paper"]
    for case in wl.items:
        o = case.o_expected["sim_elapsed_us"]
        p = case.expected["sim_elapsed_us"]
        lines.append(f"  {case.app:<6} {o / p:>17.2f}x  "
                     f"{PAPER_SPEEDUP.get(case.app, '?')}")
    return lines


def run_untraced(wl, seconds: float) -> list:
    """Passes until another would overrun ``seconds`` (at least one),
    each run between two calibration samples."""
    passes = []
    spent = 0.0
    while True:
        result = wl.run_pass(probe=kernel)
        passes.append(result)
        spent += result.wall_s
        if spent + result.wall_s > seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from reference import ReferenceStore, source_digest
    from workloads import make_workload

    wl = make_workload(args.workload, args.seed, SCRATCH, tiny=args.tiny)
    before = calibration()
    import_s = time_imports(wl.modules)
    builds = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        wl.setup()
        builds.append(time.perf_counter() - start)
    setup_s = (import_s + statistics.median(builds)) * scale(before,
                                                             calibration())

    suffix = "-tiny" if args.tiny else ""
    refs = ReferenceStore(
        HERE / "reference" / f"{args.workload}{suffix}.json",
        SCRATCH / "refcache" / f"{args.workload}{suffix}-"
                               f"{source_digest(SRC)}.json")
    start = time.perf_counter()
    keys = wl.resolve(refs)
    refs.save()
    print(f"perfbench {args.workload} seed={args.seed}: {len(keys)} "
          f"references, {refs.computed} computed on the scalar loop "
          f"([host] {time.perf_counter() - start:.2f} s, untimed)")
    if args.export_reference:
        refs.export(keys)
        return 0

    if args.trace:
        from layers import run_traced

        passes, metrics, lines = run_traced(wl, SCRATCH)
    else:
        passes = run_untraced(wl, args.seconds)
        metrics, lines = end_to_end(passes, setup_s)
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if not o.ok]
    print(f"perfbench {args.workload}: {len(passes)} pass(es), "
          f"{len(outcomes)} runs/jobs, {len(failed)} failed "
          f"(error_rate {len(failed) / len(outcomes):.4f})")
    for outcome in failed[:10]:
        print(f"  FAILED {outcome.label}: {outcome.problem}")
    print("\n".join(lines))
    if args.workload == "clean-table3":
        print("\n".join(paper_lines(wl)))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
