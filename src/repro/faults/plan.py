"""Fault plans: declarative, seeded descriptions of injected failures.

A :class:`FaultPlan` is the *entire* input of the fault-injection
subsystem: which disks misbehave and how, when memory-pressure storms
hit, how far the residency bit vector lags reality, and how often hint
system calls fail.  Everything stochastic inside a faulted run draws
from generators derived from ``FaultPlan.seed`` alone, so the same plan
plus the same workload produces a bit-identical run -- the property
``tests/test_faults.py`` pins.

Plans are plain frozen dataclasses with a JSON round trip
(:meth:`FaultPlan.to_dict` / :meth:`FaultPlan.from_dict` /
:meth:`load_plan`), so adversarial experiments are files that can be
committed next to their results.  ``docs/robustness.md`` documents every
field; ``scripts/check_docs.py`` fails the build when that schema table
and these dataclasses drift apart.

Fault injection is strictly opt-in: no ``FaultPlan`` means no fault
state exists anywhere in the machine, and every simulated result stays
bit-identical to an unfaulted build (pinned by the golden EMBAR trace).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigError, ensure_finite
from repro.ioutil import atomic_write_json

#: The fault-plan JSON schema version this build reads and writes.
PLAN_VERSION = 1


@dataclass(frozen=True)
class SlowWindow:
    """One fail-slow episode: service times multiplied inside a window.

    Models a disk that degrades without failing -- vibration, thermal
    throttling, a firmware retry storm -- the "fail-slow" regime that
    adversarial prefetching evaluations care about most, because a slow
    disk stretches the prefetch pipeline instead of breaking it.
    """

    start_us: float
    duration_us: float
    multiplier: float = 4.0

    def __post_init__(self) -> None:
        ensure_finite(self.start_us, "slow window start_us")
        ensure_finite(self.duration_us, "slow window duration_us")
        ensure_finite(self.multiplier, "slow window multiplier")
        if self.start_us < 0:
            raise ConfigError(f"slow window start_us must be >= 0, got {self.start_us}")
        if self.duration_us <= 0:
            raise ConfigError(
                f"slow window duration_us must be > 0, got {self.duration_us}"
            )
        if self.multiplier < 1.0:
            raise ConfigError(
                f"slow window multiplier must be >= 1 (a fault never speeds a "
                f"disk up), got {self.multiplier}"
            )

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    def covers(self, at_us: float) -> bool:
        return self.start_us <= at_us < self.end_us


@dataclass(frozen=True)
class DiskFaultSpec:
    """Fault model for one disk of the array.

    ``read_error_rate`` is the per-read-request probability of a
    transient medium error (discovered at the end of the failed service,
    retried by the :class:`~repro.storage.array_ctl.DiskArray` with
    exponential backoff).  ``dead_at_us`` marks the disk failed from
    that simulated time on: reads and writes are redirected to the
    surviving disks through the penalized reconstruction path.
    """

    disk: int
    slow_windows: tuple[SlowWindow, ...] = ()
    read_error_rate: float = 0.0
    dead_at_us: float | None = None

    def __post_init__(self) -> None:
        if self.disk < 0:
            raise ConfigError(f"disk index must be >= 0, got {self.disk}")
        if not 0.0 <= self.read_error_rate <= 1.0:
            raise ConfigError(
                f"read_error_rate must be in [0, 1], got {self.read_error_rate}"
            )
        if self.dead_at_us is not None:
            ensure_finite(self.dead_at_us, "dead_at_us")
            if self.dead_at_us < 0:
                raise ConfigError(f"dead_at_us must be >= 0, got {self.dead_at_us}")
        # Tuples survive JSON round trips as lists; normalize.
        object.__setattr__(self, "slow_windows", tuple(self.slow_windows))


@dataclass(frozen=True)
class PressureStorm:
    """A burst train of memory-pressure claims (generalized competitor).

    Each burst claims ``frames`` frames at ``start_us + k * period_us``
    and (with ``hold_us``) returns them ``hold_us`` later, driving the
    existing :meth:`~repro.vm.manager.MemoryManager.schedule_pressure`
    machinery.  ``hold_us=None`` means the frames never come back.
    """

    start_us: float
    frames: int
    bursts: int = 1
    period_us: float = 0.0
    hold_us: float | None = None

    def __post_init__(self) -> None:
        ensure_finite(self.start_us, "storm start_us")
        ensure_finite(self.period_us, "storm period_us")
        if self.hold_us is not None:
            ensure_finite(self.hold_us, "storm hold_us")
        if self.start_us < 0:
            raise ConfigError(f"storm start_us must be >= 0, got {self.start_us}")
        if self.frames <= 0:
            raise ConfigError(f"storm must claim >= 1 frame, got {self.frames}")
        if self.bursts <= 0:
            raise ConfigError(f"storm needs >= 1 burst, got {self.bursts}")
        if self.bursts > 1 and self.period_us <= 0:
            raise ConfigError("multi-burst storm needs period_us > 0")
        if self.hold_us is not None and self.hold_us <= 0:
            raise ConfigError(f"storm hold_us must be > 0, got {self.hold_us}")

    def schedule(self) -> list[tuple[float, int, float | None]]:
        """Expand into ``(at_us, frames, hold_us)`` burst triples."""
        return [
            (self.start_us + k * self.period_us, self.frames, self.hold_us)
            for k in range(self.bursts)
        ]


@dataclass(frozen=True)
class FaultPlan:
    """The complete, seeded description of one faulted run.

    Identical plan + identical workload => bit-identical faulted run:
    all randomness comes from streams derived from ``seed``, and every
    injected delay is computed in simulated time at issue, never from
    wall-clock state.
    """

    seed: int = 0
    disks: tuple[DiskFaultSpec, ...] = ()
    storms: tuple[PressureStorm, ...] = ()
    #: Residency bit-vector updates become visible this much simulated
    #: time late, so the run-time filter can be stale in both directions.
    bitvector_lag_us: float = 0.0
    #: Per-syscall probability that a prefetch hint call fails/times out.
    hint_failure_rate: float = 0.0
    #: CPU time one failed hint call burns before the error returns.
    hint_timeout_us: float = 200.0
    #: Bounded retries for transient read errors before reconstruction.
    max_retries: int = 3
    #: Base of the exponential retry backoff (simulated microseconds).
    retry_backoff_us: float = 2_000.0
    #: Service-time multiplier of the degraded reconstruction path.
    reconstruction_penalty: float = 4.0
    #: Consecutive hint-call failures before demand-paging fallback.
    fallback_after: int = 4
    #: Prefetch requests skipped per fallback episode before re-probing.
    fallback_cooldown: int = 256
    #: Simulated cycles (us) at which the whole process is killed -- the
    #: ``process_crash`` fault kind.  Delivered at interpreter safe
    #: points; a checkpointed run resumes past them, an unchckpointed
    #: run dies and must restart from scratch.
    crashes: tuple[float, ...] = ()
    #: Schema version of the plan (see :data:`PLAN_VERSION`).
    version: int = PLAN_VERSION

    def __post_init__(self) -> None:
        if self.version != PLAN_VERSION:
            raise ConfigError(
                f"fault plan version {self.version!r} is not supported "
                f"(this build reads version {PLAN_VERSION})"
            )
        object.__setattr__(self, "disks", tuple(self.disks))
        object.__setattr__(self, "storms", tuple(self.storms))
        crashes = tuple(sorted(float(c) for c in self.crashes))
        for cycle in crashes:
            ensure_finite(cycle, "crash cycle")
            if cycle < 0:
                raise ConfigError(f"crash cycle must be >= 0, got {cycle}")
        object.__setattr__(self, "crashes", crashes)
        seen = set()
        for spec in self.disks:
            if spec.disk in seen:
                raise ConfigError(f"disk {spec.disk} configured twice in the plan")
            seen.add(spec.disk)
        if not 0.0 <= self.hint_failure_rate <= 1.0:
            raise ConfigError(
                f"hint_failure_rate must be in [0, 1], got {self.hint_failure_rate}"
            )
        ensure_finite(self.bitvector_lag_us, "bitvector_lag_us")
        ensure_finite(self.hint_timeout_us, "hint_timeout_us")
        ensure_finite(self.retry_backoff_us, "retry_backoff_us")
        ensure_finite(self.reconstruction_penalty, "reconstruction_penalty")
        if self.bitvector_lag_us < 0:
            raise ConfigError(f"bitvector_lag_us must be >= 0, got {self.bitvector_lag_us}")
        if self.hint_timeout_us < 0:
            raise ConfigError(f"hint_timeout_us must be >= 0, got {self.hint_timeout_us}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_us < 0:
            raise ConfigError(f"retry_backoff_us must be >= 0, got {self.retry_backoff_us}")
        if self.reconstruction_penalty < 1.0:
            raise ConfigError(
                f"reconstruction_penalty must be >= 1, got {self.reconstruction_penalty}"
            )
        if self.fallback_after <= 0:
            raise ConfigError(f"fallback_after must be >= 1, got {self.fallback_after}")
        if self.fallback_cooldown <= 0:
            raise ConfigError(f"fallback_cooldown must be >= 1, got {self.fallback_cooldown}")

    # ------------------------------------------------------------------
    # Derived plans
    # ------------------------------------------------------------------

    def is_noop(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            not self.disks
            and not self.storms
            and self.bitvector_lag_us == 0.0
            and self.hint_failure_rate == 0.0
            and not self.crashes
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def scaled(self, intensity: float) -> "FaultPlan":
        """Interpolate between a clean run (0.0) and this plan (1.0).

        Rates, lags, and the *excess* of multipliers over 1 scale
        linearly; whole-disk death is all-or-nothing and only survives
        at ``intensity >= 1``.  Storms scale their claimed frames.
        The chaos sweep drives this to build its intensity grid.
        """
        if intensity < 0:
            raise ConfigError(f"intensity must be >= 0, got {intensity}")
        if intensity == 0:
            return FaultPlan(seed=self.seed)
        disks = []
        for spec in self.disks:
            windows = tuple(
                replace(w, multiplier=1.0 + (w.multiplier - 1.0) * min(intensity, 1.0))
                for w in spec.slow_windows
            )
            disks.append(replace(
                spec,
                slow_windows=windows,
                read_error_rate=min(1.0, spec.read_error_rate * intensity),
                dead_at_us=spec.dead_at_us if intensity >= 1.0 else None,
            ))
        storms = []
        for storm in self.storms:
            frames = int(round(storm.frames * min(intensity, 1.0)))
            if frames > 0:
                storms.append(replace(storm, frames=frames))
        return replace(
            self,
            disks=tuple(disks),
            storms=tuple(storms),
            bitvector_lag_us=self.bitvector_lag_us * intensity,
            hint_failure_rate=min(1.0, self.hint_failure_rate * intensity),
            # Like whole-disk death, process death is all-or-nothing.
            crashes=self.crashes if intensity >= 1.0 else (),
        )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ConfigError("fault plan must be a JSON object")
        data = dict(payload)
        # Reject unknown versions before field-level parsing: a future
        # schema may rename fields, and "malformed plan" would mislead.
        version = data.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ConfigError(
                f"fault plan version {version!r} is not supported "
                f"(this build reads version {PLAN_VERSION})"
            )
        try:
            disks = tuple(
                DiskFaultSpec(**{
                    **d, "slow_windows": tuple(
                        SlowWindow(**w) for w in d.get("slow_windows", ())
                    ),
                })
                for d in data.pop("disks", ())
            )
            storms = tuple(PressureStorm(**s) for s in data.pop("storms", ()))
            return cls(disks=disks, storms=storms, **data)
        except TypeError as exc:
            raise ConfigError(f"malformed fault plan: {exc}") from None


def load_plan(path: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file (the ``--faults`` flag)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load fault plan {path!r}: {exc}") from None
    return FaultPlan.from_dict(payload)


def save_plan(path: str, plan: FaultPlan) -> None:
    """Write a plan as JSON, atomically (for committing chaos experiments)."""
    atomic_write_json(path, plan.to_dict(), indent=1, sort_keys=True)


def default_plan(num_disks: int, seed: int = 1) -> FaultPlan:
    """A representative adversarial plan for chaos sweeps.

    One disk dies mid-run, another fail-slows, a third throws transient
    read errors; two pressure storms hit; the bit vector lags one fault
    service; hints fail occasionally.  Scaled by intensity this covers
    the whole taxonomy in one sweep -- supply ``--faults`` for anything
    bespoke.
    """
    if num_disks <= 0:
        raise ConfigError(f"need >= 1 disk, got {num_disks}")
    disks = [DiskFaultSpec(
        disk=0,
        slow_windows=(SlowWindow(start_us=50_000.0, duration_us=400_000.0,
                                 multiplier=6.0),),
    )]
    if num_disks > 1:
        disks.append(DiskFaultSpec(disk=1, read_error_rate=0.05))
    if num_disks > 2:
        disks.append(DiskFaultSpec(disk=2, dead_at_us=250_000.0))
    return FaultPlan(
        seed=seed,
        disks=tuple(disks),
        storms=(PressureStorm(start_us=100_000.0, frames=8, bursts=3,
                              period_us=300_000.0, hold_us=150_000.0),),
        bitvector_lag_us=500.0,
        hint_failure_rate=0.02,
    )
