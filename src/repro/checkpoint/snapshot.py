"""Snapshot capture and deterministic restore of a live machine.

A snapshot is taken only at an interpreter *safe point* (between work
units), where no chunk is half-replayed and no layer holds transient
state outside its long-lived fields.  It is the machine's state objects
themselves -- the ``Machine`` attributes named in :data:`STATE` --
pickled as one graph, together with the executor's cursor and the
observer's metrics.  One ``pickle`` call means one memo table, so every
object the layers share is still one object after a restore: the clock
and the ``RunStats`` every layer holds, the bit vector of the memory
manager and the run-time layer, the manager's
:class:`~repro.vm.page.PageColumns` (read by the clock ring too), each
disk's fault state (held by the disk and by the array's storage
faults).  A field added to any component is captured, restored and
compared (:func:`describe_state`) without being listed anywhere.

Per-incarnation state never enters the payload.  The observer is
pickled as a reference that the loader binds to the restoring machine's
observer, so its trace, sink, context stack and segment map stay its
own; only its metrics are overwritten, in place, from the snapshot.
The fault plan is incarnation config too, and crash delivery belongs to
the checkpointer, so no crash schedule is captured.

Restore checks the signature -- the whole platform, the variant flags,
the fault plan, observer presence and the executor's mode -- and then
sets the unpickled objects on a freshly built machine.  A snapshot that
cannot line up fails fast with a :class:`~repro.errors.CheckpointError`
instead of resuming into a subtly different run.
"""

from __future__ import annotations

import copyreg
import dataclasses
import hashlib
import io
import json
import pickle
import types
from typing import Any

import numpy as np

from repro.errors import CheckpointError
from repro.obs.observer import Observer

#: Version of the pickled state layout (independent of the container
#: format version in :mod:`repro.checkpoint.store`).
SNAPSHOT_VERSION = 7  # v7: fault state only in the layers that use it

#: The ``Machine`` attributes a snapshot carries.  Every other attribute
#: (config, fault plan, variant flags, observer, kernel caches) belongs
#: to the incarnation and stays with the restoring machine.
STATE = ("clock", "stats", "address_space", "disks", "manager", "runtime",
         "_finished")


def _fingerprint(fields: dict) -> str:
    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def machine_signature(machine, executor) -> dict[str, Any]:
    """Everything a snapshot's machine must agree on to be resumable.

    Fixed for an incarnation's lifetime, so a checkpointer computes it
    once and hands it to every :func:`capture`.
    """
    runtime = machine.runtime
    plan = machine.fault_plan
    return {
        "config": _fingerprint(dataclasses.asdict(machine.config)),
        "memory_pages": machine.config.memory_pages,
        "num_disks": machine.config.num_disks,
        "page_size": machine.config.page_size,
        "prefetching": machine.prefetching,
        "filter_enabled": runtime.filter_enabled if runtime is not None else None,
        "adaptive": runtime.adaptive if runtime is not None else None,
        "readahead": machine.manager.readahead,
        "binding": machine.manager.binding,
        "observed": machine.obs is not None,
        "plan_fingerprint": (_fingerprint(plan.to_dict())
                             if plan is not None else None),
        "vectorize": executor.vectorize,
        "warm": executor.warm_start,
    }


# ----------------------------------------------------------------------
# The observer, bound by reference
# ----------------------------------------------------------------------


def _observer_reference():
    """What an observer pickles as; only a snapshot loader resolves it."""
    raise CheckpointError("an observer reference loads only into a machine")


#: The pickler's reductions: copyreg's, plus the observer as a reference.
_DISPATCH = dict(copyreg.dispatch_table)
_DISPATCH[Observer] = lambda obs: (_observer_reference, ())


class _Loader(pickle.Unpickler):
    """Unpickles a payload, binding observer references to ``observer``."""

    def __init__(self, payload: bytes, observer) -> None:
        super().__init__(io.BytesIO(payload))
        self.observer = observer

    def find_class(self, module: str, name: str):
        if module == __name__ and name == _observer_reference.__name__:
            return lambda: self.observer
        return super().find_class(module, name)


def _graph(machine) -> dict[str, Any]:
    return {name: getattr(machine, name) for name in STATE}


# ----------------------------------------------------------------------
# Capture and restore
# ----------------------------------------------------------------------


class Snapshot:
    """One captured machine state: a meta dict plus a pickled payload."""

    def __init__(self, meta: dict[str, Any], payload: bytes) -> None:
        self.meta = meta
        self.payload = payload

    @property
    def cycle_us(self) -> float:
        return self.meta["cycle_us"]

    @property
    def cursor(self) -> int:
        return self.meta["cursor"]

    def state(self, observer=None) -> dict[str, Any]:
        """The unpickled payload, its observer references bound to
        ``observer``."""
        try:
            state = _Loader(self.payload, observer).load()
        except Exception as exc:
            raise CheckpointError(f"unreadable snapshot payload: {exc}") from None
        if not isinstance(state, dict) or state.get("version") != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot payload version "
                f"{state.get('version') if isinstance(state, dict) else '?'} "
                f"is not supported (this build reads version {SNAPSHOT_VERSION})"
            )
        return state

    def restore_into(self, machine, executor) -> None:
        """Swap this snapshot's state objects into a freshly built machine.

        The executor must already have bound the program's arrays (the
        runner arranges this via the resume hook); after restore its
        skip-replay cursor is armed and execution continues live from
        the captured safe point.
        """
        _check_signature(self.meta, machine_signature(machine, executor))
        state = self.state(machine.obs)
        graph = state["machine"]
        for name in STATE:
            setattr(machine, name, graph[name])
        executor._skip_until, executor.out_of_range_hints = state["executor"]
        if machine.obs is not None:
            # The resumed incarnation's trace starts empty; its first
            # event is the runner's checkpoint_restore.
            machine.obs.trace.clear()
            _overwrite_metrics(machine.obs.metrics, state["metrics"])


def capture(machine, executor, label: str = "run",
            signature: dict[str, Any] | None = None) -> Snapshot:
    """Snapshot the machine at the current (safe-point) state.

    ``signature`` is the incarnation's :func:`machine_signature`, when
    the caller already holds it.
    """
    meta = {
        "snapshot_version": SNAPSHOT_VERSION,
        "label": label,
        "cycle_us": machine.clock.now,
        "cursor": executor.units,
        "signature": signature or machine_signature(machine, executor),
    }
    state = {
        "version": SNAPSHOT_VERSION,
        "machine": _graph(machine),
        "executor": (executor.units, executor.out_of_range_hints),
        # Metrics only: the trace is per-incarnation, so the payload does
        # not grow with trace occupancy.
        "metrics": None if machine.obs is None else machine.obs.metrics.as_dict(),
    }
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.dispatch_table = _DISPATCH
    pickler.dump(state)
    return Snapshot(meta, buffer.getvalue())


def _check_signature(meta, have: dict[str, Any]) -> None:
    if meta.get("snapshot_version") != SNAPSHOT_VERSION:
        raise CheckpointError(
            f"snapshot version {meta.get('snapshot_version')!r} is not "
            f"supported (this build reads version {SNAPSHOT_VERSION})"
        )
    want = meta.get("signature")
    if want != have:
        diffs = sorted(
            k for k in set(want or {}) | set(have)
            if (want or {}).get(k) != have.get(k)
        )
        raise CheckpointError(
            "snapshot does not match this machine; differing signature "
            f"keys: {', '.join(diffs) or '<shape>'}"
        )


def _overwrite_metrics(registry, captured: dict[str, dict]) -> None:
    """Load ``captured`` (a ``MetricsRegistry.as_dict()``) into the live
    instruments, so references to them -- the observer's pre-bound
    histograms -- stay valid."""
    for name, payload in captured.items():
        kind = payload["kind"]
        if kind == "histogram":
            live = registry.histogram(name, tuple(payload["bounds"]))
            if list(live.bounds) != payload["bounds"]:
                raise CheckpointError(
                    f"histogram {name!r} bounds changed since the snapshot"
                )
        else:
            live = getattr(registry, kind)(name)
        saved = type(live).from_dict(name, payload)
        for slot in type(live).__slots__:
            setattr(live, slot, getattr(saved, slot))


# ----------------------------------------------------------------------
# Canonical state description (tests)
# ----------------------------------------------------------------------


_ATOMS = (type(None), bool, int, float, str, bytes)
#: Pickled by name: the classes and constructors a reduction names.
_NAMED = (type, types.FunctionType, types.BuiltinFunctionType)


def describe_state(machine, units: int = 0) -> list:
    """A canonical, comparison-friendly rendering of what a snapshot carries.

    One walk of the graph :func:`capture` pickles, through the same
    reductions, so every field of every component is compared without
    being listed.  An object met again renders as a back-reference to
    its first occurrence, which also pins the sharing a restore must
    keep.
    """
    metrics = None if machine.obs is None else machine.obs.metrics.as_dict()
    return _describe((_graph(machine), units, metrics), {})


def _describe(obj, seen: dict[int, tuple[int, Any]]) -> Any:
    if isinstance(obj, _ATOMS):
        return obj
    if isinstance(obj, _NAMED):
        return f"{obj.__module__}.{obj.__qualname__}"
    if id(obj) in seen:
        return ("same-as", seen[id(obj)][0])
    seen[id(obj)] = (len(seen), obj)  # keeps temporaries alive: ids stay unique
    if isinstance(obj, (list, tuple)):
        return [_describe(item, seen) for item in obj]
    if isinstance(obj, dict):
        return [(_describe(key, seen), _describe(value, seen))
                for key, value in obj.items()]
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    reducer = _DISPATCH.get(type(obj))
    reduced = reducer(obj) if reducer is not None else obj.__reduce_ex__(4)
    return [_describe(list(part) if index >= 3 and part is not None else part,
                      seen)
            for index, part in enumerate(reduced)]
