"""Job specifications for the simulation farm.

A :class:`JobSpec` is the unit of admission for ``repro serve``: one
``run``/``compare``/``sweep``/``chaos`` request, fully described by
plain JSON-serializable fields, so batches are files that can be
committed next to their results (exactly like fault plans).  The
schema is documented field-by-field in docs/serving.md; the "JobSpec
schema reference" table there is cross-checked against this dataclass
by ``scripts/check_docs.py``, both ways.

Lifecycle: every submitted job ends in exactly one **terminal** state --

* ``done`` -- the job executed to completion and carries a result;
* ``quarantined`` -- the job failed ``max_attempts`` times (poison job)
  or the farm's drain deadline expired with it still outstanding;
* ``shed`` -- admission control rejected it under overload (explicit
  rejection, never an unbounded backlog).

``pending`` and ``running`` are the transient states in between.  The
farm never leaves a job in a transient state: that is the "never hung"
guarantee the integration tests pin.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

from repro.config import VARIANTS
from repro.errors import ConfigError
from repro.ioutil import atomic_write_json

#: The job-batch JSON schema version this build reads and writes.
JOBS_VERSION = 1

#: Request kinds the farm executes (mirrors the one-shot CLI verbs).
JOB_KINDS: tuple[str, ...] = ("run", "compare", "sweep", "chaos")


class JobState:
    """String constants for a job's lifecycle (JSON-friendly)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    QUARANTINED = "quarantined"
    SHED = "shed"


#: States a job can legally end in.
TERMINAL_STATES = frozenset({JobState.DONE, JobState.QUARANTINED, JobState.SHED})


@dataclass(frozen=True)
class JobSpec:
    """One simulation request, as admitted by the farm.

    Identical spec => identical simulated result: the simulator is
    deterministic, every stochastic input (workload seed, fault plan)
    is part of the spec, and nothing in the farm's scheduling can leak
    into a job's simulated statistics.  That property is what makes
    retry-from-scratch and checkpoint-resume interchangeable from the
    caller's point of view -- both produce the uninterrupted run's
    bits.
    """

    kind: str
    app: str
    job_id: str = ""
    variant: str = "p"
    pages: int = 0
    memory_pages: int = 0
    disks: int = 0
    seed: int = 1
    warm: bool = False
    multiples: tuple[float, ...] = (0.5, 1.0, 2.0)
    intensities: tuple[float, ...] = (1.0,)
    faults: dict | None = None
    priority: int = 0
    timeout_s: float = 120.0
    max_attempts: int = 3
    #: Accounting dimension for farm telemetry (per-tenant rollups and
    #: tail-latency reporting); never influences scheduling.
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ConfigError(
                f"job kind must be one of {JOB_KINDS}, got {self.kind!r}"
            )
        if not self.app or not isinstance(self.app, str):
            raise ConfigError(f"job needs an application name, got {self.app!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"job variant must be one of {tuple(VARIANTS)}, "
                f"got {self.variant!r}"
            )
        if self.pages < 0:
            raise ConfigError(f"pages must be >= 0, got {self.pages}")
        if self.memory_pages < 0:
            raise ConfigError(f"memory_pages must be >= 0, got {self.memory_pages}")
        if self.disks < 0:
            raise ConfigError(f"disks must be >= 0, got {self.disks}")
        object.__setattr__(self, "multiples",
                           tuple(float(m) for m in self.multiples))
        object.__setattr__(self, "intensities",
                           tuple(float(i) for i in self.intensities))
        if self.kind == "sweep" and not self.multiples:
            raise ConfigError("sweep job needs at least one size multiple")
        if any(m <= 0 for m in self.multiples):
            raise ConfigError(f"size multiples must be > 0, got {self.multiples}")
        if self.kind == "chaos" and not self.intensities:
            raise ConfigError("chaos job needs at least one intensity")
        if any(i < 0 for i in self.intensities):
            raise ConfigError(f"intensities must be >= 0, got {self.intensities}")
        if self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ConfigError(f"tenant must be a non-empty string, got {self.tenant!r}")
        if any(ch in self.tenant for ch in "{}=,"):
            # Tenants become metric-label values (name{tenant=...}), so
            # the label syntax characters are reserved.
            raise ConfigError(f"tenant must not contain {{}}=, got {self.tenant!r}")
        if self.faults is not None:
            # Validate eagerly so a malformed inline plan is rejected at
            # admission, not attempt-by-attempt inside workers.
            from repro.faults.plan import FaultPlan

            if not isinstance(self.faults, dict):
                raise ConfigError("job faults must be a fault-plan JSON object")
            FaultPlan.from_dict(self.faults)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["multiples"] = list(self.multiples)
        payload["intensities"] = list(self.intensities)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ConfigError("job spec must be a JSON object")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"malformed job spec: {exc}") from None

    def with_id(self, job_id: str) -> "JobSpec":
        return dataclasses.replace(self, job_id=job_id)


@dataclass
class JobRecord:
    """Controller-side bookkeeping for one admitted job.

    The record is the farm's single source of truth for a job: its
    state machine, attempt/retry/preemption counters, failure history,
    and (once terminal) its result payload.  ``to_dict`` is the row the
    results artifact and ``repro serve status`` render.
    """

    spec: JobSpec
    state: str = JobState.PENDING
    attempts: int = 0
    retries: int = 0
    preemptions: int = 0
    #: Resume from the job's checkpoint directory on the next dispatch.
    resume: bool = False
    #: Wall times (time.monotonic) for latency accounting.
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Earliest monotonic time the next attempt may be dispatched
    #: (retry backoff); 0 = immediately eligible.
    eligible_at: float = 0.0
    #: Admission order (FIFO tie-break within a priority band).
    seq: int = 0
    worker: int | None = None
    result: Any = None
    failures: list[str] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency_s(self) -> float:
        if not self.terminal or self.finished_at <= 0:
            return 0.0
        return self.finished_at - self.submitted_at

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "retries": self.retries,
            "preemptions": self.preemptions,
            "latency_s": round(self.latency_s, 4),
            "worker": self.worker,
            "failures": list(self.failures),
            "result": self.result,
        }


# ----------------------------------------------------------------------
# Batch files
# ----------------------------------------------------------------------


def load_jobs(path: str) -> list[JobSpec]:
    """Load a job batch file (the ``repro serve submit`` input)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load job batch {path!r}: {exc}") from None
    if not isinstance(payload, dict) or "jobs" not in payload:
        raise ConfigError(f"{path}: job batch must be an object with a 'jobs' array")
    version = payload.get("version", JOBS_VERSION)
    if version != JOBS_VERSION:
        raise ConfigError(
            f"{path}: job batch version {version!r} is not supported "
            f"(this build reads version {JOBS_VERSION})"
        )
    jobs = payload["jobs"]
    if not isinstance(jobs, list) or not jobs:
        raise ConfigError(f"{path}: job batch needs a non-empty 'jobs' array")
    return [JobSpec.from_dict(job) for job in jobs]


def save_jobs(path: str, jobs: list[JobSpec]) -> None:
    """Write a batch file, atomically (for committing experiments)."""
    atomic_write_json(
        path,
        {"version": JOBS_VERSION, "jobs": [job.to_dict() for job in jobs]},
    )


def demo_jobs(count: int, seed: int = 1, poison: int = 0) -> list[JobSpec]:
    """A deterministic mixed batch for demos, CI smoke, and tests.

    Cycles through all four kinds at the golden-trace footprint (small
    enough that a 4-worker farm clears ~20 of them in seconds), with
    varied apps, variants, seeds, and priorities.  ``poison`` appends
    that many jobs that fail on every attempt (unknown application), to
    exercise the quarantine path.
    """
    if count < 1:
        raise ConfigError(f"demo batch needs >= 1 job, got {count}")
    apps = ("EMBAR", "BUK", "MGRID", "CGM")
    variants = ("p", "o", "adaptive", "p")
    tenants = ("acme", "globex", "initech")
    jobs: list[JobSpec] = []
    for k in range(count):
        app = apps[k % len(apps)]
        kind = JOB_KINDS[k % len(JOB_KINDS)]
        common = dict(app=app, memory_pages=96, pages=120,
                      seed=seed + k, priority=k % 3,
                      tenant=tenants[k % len(tenants)])
        if kind == "run":
            jobs.append(JobSpec(kind="run", variant=variants[k % len(variants)],
                                **common))
        elif kind == "compare":
            jobs.append(JobSpec(kind="compare", **common))
        elif kind == "sweep":
            jobs.append(JobSpec(kind="sweep", multiples=(0.5, 1.25), **common))
        else:
            jobs.append(JobSpec(kind="chaos", intensities=(0.5,), **common))
    for k in range(poison):
        jobs.append(JobSpec(kind="run", app="NO-SUCH-APP", memory_pages=96,
                            pages=120, seed=seed, priority=0, max_attempts=2))
    return jobs
