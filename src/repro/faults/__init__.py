"""Deterministic fault injection with degraded-mode recovery.

The subsystem has three parts: :mod:`repro.faults.plan` (the declarative,
seeded :class:`FaultPlan` and its JSON round trip), :mod:`repro.faults.
inject` (the per-layer state the machine builds from its plan for the
disk, VM, and run-time layers), and :mod:`repro.faults.chaos` (the
intensity-sweep harness behind ``python -m repro chaos``).  See
docs/robustness.md.
"""

from repro.faults.farm import (
    FarmChaosPlan,
    WorkerFault,
    default_farm_plan,
    load_farm_plan,
)
from repro.faults.inject import (
    DiskFaultState,
    HintFaultState,
    LaggedBitVector,
    StorageFaults,
)
from repro.faults.plan import (
    DiskFaultSpec,
    FaultPlan,
    PressureStorm,
    SlowWindow,
    default_plan,
    load_plan,
    save_plan,
)

#: Chaos-harness exports resolved lazily: ``repro.faults.chaos`` imports
#: the experiment harness, which imports the machine, which imports
#: ``repro.faults.inject`` -- an eager import here would close that loop
#: while the machine module is still half-initialized.
_CHAOS_EXPORTS = ("ChaosReport", "ChaosRow", "chaos_report_dict",
                  "chaos_sweep", "dropped_hint_pages")

__all__ = [
    "DiskFaultSpec",
    "DiskFaultState",
    "FarmChaosPlan",
    "FaultPlan",
    "HintFaultState",
    "LaggedBitVector",
    "PressureStorm",
    "SlowWindow",
    "StorageFaults",
    "WorkerFault",
    "default_farm_plan",
    "default_plan",
    "load_farm_plan",
    "load_plan",
    "save_plan",
    *_CHAOS_EXPORTS,
]


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from repro.faults import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
