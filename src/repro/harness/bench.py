"""The perf-trajectory benchmark harness behind ``repro bench``.

Executes a pinned workload set -- the eight NAS apps at paper scale,
EMBAR, MGRID and BUK at CI scale, each as O and P -- and records both
axes of the repo's performance:

* **simulated cycles** (``sim_elapsed_us`` / ``sim_stall_us``): the
  reproduction's *result*.  A change here means the simulation itself
  changed -- which, outside an intentional model fix, is a regression.
* **wall time** (``wall_time_s``): the simulator's own speed on the
  host, recorded as best-of-``wall_reps`` to suppress host noise.
  Gating it is opt-in (``wall_threshold``): meaningful between runs on
  comparable hosts (CI gates its own artifact chain), misleading across
  hosts.

Reports are written as ``BENCH_PR<N>.json`` at the repo root, one per
PR, so the sequence of committed files *is* the performance trajectory.
``compare_reports`` gates on simulated cycles against the newest prior
report with a configurable threshold; ``repro bench`` exits non-zero on
a regression (CI runs ``repro bench --smoke`` on every push).  The
report format and field glossary are documented in
``docs/observability.md``.

Two case profiles:

* ``table3`` -- all eight apps on the default platform at the
  out-of-core footprint the paper's Table 3 evaluation uses (~2x
  available memory);
* ``smoke`` -- EMBAR, MGRID and BUK at the golden-trace footprint (96
  memory pages, 120 data pages), small enough for CI to run on every
  push.
"""

from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.apps.registry import ALL_APPS, get_app
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import ConfigError
from repro.harness.experiment import default_data_pages, run_variant
from repro.ioutil import atomic_write_json

#: Report schema identifier (bump on incompatible changes).
BENCH_SCHEMA = "repro-bench/1"

#: The smoke profile's workload set, which CI gates on every push.
SMOKE_APPS: tuple[str, ...] = ("EMBAR", "MGRID", "BUK")

#: Committed report filenames, ordered by their PR number.
_BENCH_NAME = re.compile(r"^BENCH_PR(\d+)\.json$")


@dataclass(frozen=True)
class BenchCase:
    """One app at one pinned configuration (runs both O and P)."""

    app: str
    profile: str  # "table3" or "smoke"
    memory_pages: int
    data_pages: int
    seed: int = 1


def table3_cases() -> list[BenchCase]:
    """The paper-scale cases: every app, default platform, ~2x-memory
    footprint."""
    platform = PlatformConfig()
    pages = default_data_pages(platform)
    return [BenchCase(spec.name, "table3", platform.memory_pages, pages)
            for spec in ALL_APPS]


def smoke_cases() -> list[BenchCase]:
    """CI-scale cases: the golden-trace footprint."""
    return [BenchCase(app, "smoke", 96, 120) for app in SMOKE_APPS]


#: Profile name -> case builder.  The authoritative enumeration of the
#: bench profiles: report entries carry these names in their
#: ``profile`` field, and ``scripts/check_docs.py`` keeps the
#: bench-profile table in docs/performance.md in sync with this
#: registry, both ways.
BENCH_PROFILES = {
    "table3": table3_cases,
    "smoke": smoke_cases,
}


def run_case(case: BenchCase, wall_reps: int = 1) -> list[dict]:
    """Execute one case's O and P variants; returns two report entries.

    ``wall_reps`` repeats each variant and records the *minimum* wall
    time (best-of-N): the minimum is the repetition least disturbed by
    host noise, which is the estimator closest to the simulator's true
    cost.  Every repetition must produce identical simulated results --
    a mismatch means the simulator is nondeterministic, which is a bug
    worth crashing on.
    """
    if wall_reps < 1:
        raise ConfigError(f"wall_reps must be >= 1, got {wall_reps}")
    platform = PlatformConfig(memory_pages=case.memory_pages)
    spec = get_app(case.app)
    program = spec.make(case.data_pages, seed=case.seed)
    compiled = insert_prefetches(
        program, CompilerOptions.from_platform(platform)
    ).program
    entries = []
    for variant, prog, prefetching in (("O", program, False),
                                       ("P", compiled, True)):
        stats = None
        wall = float("inf")
        for _ in range(wall_reps):
            start = time.perf_counter()
            rep_stats = run_variant(prog, platform, prefetching=prefetching)
            wall = min(wall, time.perf_counter() - start)
            if stats is not None and rep_stats != stats:
                raise ConfigError(
                    f"{case.app} [{variant}] ({case.profile}): repeated "
                    "runs disagree -- the simulator is nondeterministic"
                )
            stats = rep_stats
        entries.append({
            "app": case.app,
            "variant": variant,
            "profile": case.profile,
            "memory_pages": case.memory_pages,
            "data_pages": case.data_pages,
            "seed": case.seed,
            "sim_elapsed_us": stats.elapsed_us,
            "sim_stall_us": stats.times.idle,
            "wall_time_s": round(wall, 4),
            "wall_reps": wall_reps,
        })
    return entries


def run_bench(cases: Iterable[BenchCase],
              progress=None,
              wall_reps: int = 1) -> dict:
    """Run every case and assemble a report object."""
    entries: list[dict] = []
    for case in cases:
        if progress is not None:
            progress(case)
        entries.extend(run_case(case, wall_reps=wall_reps))
    return {
        "schema": BENCH_SCHEMA,
        "python": sys.version.split()[0],
        "entries": entries,
    }


def entry_key(entry: dict) -> tuple:
    """The identity of one measurement (what baselines join on)."""
    return (entry["app"], entry["variant"], entry["profile"],
            entry["memory_pages"], entry["data_pages"], entry["seed"])


def write_report(path: str | Path, report: dict) -> None:
    atomic_write_json(path, report, indent=1, sort_keys=True)


def load_report(path: str | Path) -> dict:
    with open(path) as fh:
        report = json.load(fh)
    if report.get("schema") != BENCH_SCHEMA:
        raise ConfigError(
            f"{path}: not a {BENCH_SCHEMA} report "
            f"(schema={report.get('schema')!r})"
        )
    return report


def is_trajectory_report(path: str | Path) -> bool:
    """Is ``path`` named like a committed ``BENCH_PR<N>.json`` report?"""
    return _BENCH_NAME.match(Path(path).name) is not None


def find_baseline(root: str | Path,
                  exclude: str | Path | None = None) -> Path | None:
    """The newest committed ``BENCH_PR<N>.json`` under ``root``.

    ``exclude`` skips the report being (re)written, so a run whose
    ``--out`` is the committed name still compares against the previous
    PR's report rather than against itself.
    """
    root = Path(root)
    exclude = Path(exclude).resolve() if exclude is not None else None
    best: tuple[int, Path] | None = None
    for path in root.glob("BENCH_PR*.json"):
        match = _BENCH_NAME.match(path.name)
        if match is None:
            continue
        if exclude is not None and path.resolve() == exclude:
            continue
        number = int(match.group(1))
        if best is None or number > best[0]:
            best = (number, path)
    return best[1] if best else None


@dataclass(slots=True)
class Regression:
    """One entry that exceeded a gate threshold.

    ``metric`` is ``"sim"`` (simulated cycles, microseconds) or
    ``"wall"`` (host wall time, seconds).
    """

    key: tuple
    baseline: float
    current: float
    metric: str = "sim"

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        app, variant, profile, *_ = self.key
        scale = 1e6 if self.metric == "sim" else 1.0
        return (f"{app} [{variant}] ({profile}) {self.metric}: "
                f"{self.baseline / scale:.3f} s -> {self.current / scale:.3f} s "
                f"({self.ratio:.2f}x)")


#: Absolute slack added on top of the relative wall gate.  Sub-100 ms
#: measurements are scheduler-noise-dominated even as best-of-N on one
#: host (observed: ~2x drift between runs minutes apart), so a purely
#: relative threshold on the smoke profile's 10-100 ms walls fires on
#: noise.  The slack keeps the gate quiet there while a real hot-path
#: regression (which moves walls by multiples, not milliseconds) still
#: trips it.
WALL_SLACK_S = 0.05


def compare_reports(
    current: dict, baseline: dict, threshold: float = 0.10,
    wall_threshold: float | None = None,
    wall_slack: float = WALL_SLACK_S,
) -> tuple[list[Regression], list[str]]:
    """Gate ``current`` against ``baseline``.

    Returns (regressions, notes): a regression is any joined entry whose
    ``sim_elapsed_us`` grew by more than ``threshold`` (fractional);
    notes record entries with no baseline counterpart.

    ``wall_threshold`` additionally gates ``wall_time_s`` -- the
    simulator's own speed.  It is opt-in (None disables it) because wall
    time only means something when current and baseline ran on
    comparable hosts: CI gates its own artifact chain with it, local
    runs against a committed report usually should not.  A wall entry
    regresses when it exceeds ``base * (1 + wall_threshold) +
    wall_slack``: the absolute slack absorbs scheduler noise on
    millisecond-scale measurements (see ``WALL_SLACK_S``).
    """
    if threshold < 0:
        raise ConfigError(f"threshold must be >= 0, got {threshold}")
    if wall_threshold is not None and wall_threshold < 0:
        raise ConfigError(
            f"wall threshold must be >= 0, got {wall_threshold}"
        )
    if wall_slack < 0:
        raise ConfigError(f"wall slack must be >= 0, got {wall_slack}")
    by_key = {entry_key(e): e for e in baseline.get("entries", [])}
    regressions: list[Regression] = []
    notes: list[str] = []
    for entry in current.get("entries", []):
        key = entry_key(entry)
        base = by_key.get(key)
        if base is None:
            notes.append(f"no baseline entry for {key[0]} [{key[1]}] ({key[2]})")
            continue
        base_us = base["sim_elapsed_us"]
        if base_us > 0 and entry["sim_elapsed_us"] > base_us * (1.0 + threshold):
            regressions.append(
                Regression(key, base_us, entry["sim_elapsed_us"], "sim")
            )
        if wall_threshold is not None:
            base_wall = base.get("wall_time_s", 0.0)
            cur_wall = entry.get("wall_time_s", 0.0)
            allowed = base_wall * (1.0 + wall_threshold) + wall_slack
            if base_wall > 0 and cur_wall > allowed:
                regressions.append(
                    Regression(key, base_wall, cur_wall, "wall")
                )
    return regressions, notes
