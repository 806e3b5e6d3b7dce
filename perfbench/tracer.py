"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public entry points of the simulator from the outside
(module or class attributes are swapped for timing wrappers and put
back afterwards), so the program under test carries no tracing code.
Each wrapped call becomes a span with a name (its layer), a start, a
duration, the span that called it and the id of the study run or farm
job it belongs to.  Self time is a span's duration minus the part its
child spans cover.

Totals (calls, inclusive and self nanoseconds) are kept for every call.
Individual spans are kept only up to ``span_cap`` -- the farm pass makes
millions of ``Observer.emit`` calls -- and the rest are counted as
dropped.  :meth:`Tracer.chrome` renders the kept spans in the Chrome
trace format that ``repro.obs.validate_chrome_trace`` accepts.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

#: Every traced layer, as (span name, target, attribute) triples.  The
#: target is a dotted module path, optionally followed by ``:Class``.
#: A module attribute is patched where the caller looks it up: the
#: executor and the checkpoint runner import ``lower_leaf`` and
#: ``capture`` by name, and the harness imports ``insert_prefetches``.
WORKER_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("apps.make", "repro.apps.base:AppSpec", "make"),
    ("core.pass", "repro.core.prefetch_pass", "insert_prefetches"),
    ("core.pass", "repro.harness.experiment", "insert_prefetches"),
    ("interp.lower", "repro.interp.executor", "lower_leaf"),
    ("interp.executor", "repro.interp.executor:Executor", "run"),
    ("machine.run_chunk", "repro.machine.machine:Machine", "run_chunk"),
    ("runtime.hint", "repro.runtime.layer:RuntimeLayer", "prefetch"),
    ("runtime.hint", "repro.runtime.layer:RuntimeLayer", "prefetch_release"),
    ("runtime.hint", "repro.runtime.layer:RuntimeLayer", "release"),
    ("vm.access", "repro.vm.manager:MemoryManager", "access"),
    ("vm.access", "repro.vm.manager:MemoryManager", "access_async"),
    ("storage.io", "repro.storage.array_ctl:DiskArray", "read_page"),
    ("storage.io", "repro.storage.array_ctl:DiskArray", "read_run"),
    ("storage.io", "repro.storage.array_ctl:DiskArray", "write_page"),
    ("checkpoint.capture", "repro.checkpoint.runner", "capture"),
    ("checkpoint.store", "repro.checkpoint.store:CheckpointStore", "save"),
    ("checkpoint.restore", "repro.checkpoint.snapshot:Snapshot",
     "restore_into"),
    ("obs.emit", "repro.obs.observer:Observer", "emit"),
)

#: Controller-side layers of the farm.  These are the only wrappers
#: installed while ``run_farm`` forks workers: none of them runs in a
#: worker, so nothing leaks into (or is lost in) a child process.
CONTROLLER_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("serve.ledger", "repro.serve.ledger:JobLedger", "append"),
    ("obs.telemetry_fold", "repro.obs.telemetry:FarmTelemetry", "on_result"),
    ("obs.telemetry_fold", "repro.obs.telemetry:FarmTelemetry", "poll"),
    ("obs.telemetry_fold", "repro.obs.telemetry:TelemetryAggregator",
     "ingest"),
    ("serve.pool_start", "repro.serve.supervisor:WorkerPool", "start"),
)


def _owner(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@functools.lru_cache(maxsize=1)
def wrapper_cost_ns(calls: int = 20_000) -> int:
    """Nanoseconds one wrapped call adds over a bare call (median of 5;
    measured once per process)."""
    def noop():
        return None

    probe = Tracer.__new__(Tracer)
    probe.__dict__.update(span_cap=0, _stack=[[0, 0, 0]], totals={},
                          spans=[], dropped=0, roots=[], run=0, _next_id=1)
    wrapped = probe.wrap("probe", noop)  # nested, like real layer calls
    samples = []
    for _ in range(5):
        start = perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = perf_counter_ns() - start
        start = perf_counter_ns()
        for _ in range(calls):
            wrapped()
        samples.append(max(0, perf_counter_ns() - start - bare) // calls)
    return sorted(samples)[2]


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        #: Open frames, innermost last: [child_ns, span_id, descendants].
        self._stack: list[list[int]] = []
        #: Layer name -> [calls, inclusive ns, self ns].
        self.totals: dict[str, list[int]] = {}
        #: Kept spans: (name, start_ns, dur_ns, span_id, parent_id, run).
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.dropped = 0
        #: Free-form event counters (chunk events, storage pages, bytes).
        self.counts: dict[str, int] = {}
        #: Finished top-level spans: (name, run, dur_ns, descendants).
        self.roots: list[tuple[str, int, int, int]] = []
        #: Id of the study run or farm job being traced, and its labels.
        self.run = 0
        self.run_labels: dict[int, str] = {}
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self.call_overhead_ns = wrapper_cost_ns()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin_run(self, label: str) -> None:
        """Start attributing spans to a new study run or farm job."""
        self.run += 1
        self.run_labels[self.run] = label

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """``fn`` wrapped so every call records one ``name`` span.

        ``on_call(args)`` runs before the call and ``on_return(result)``
        after it, for counters that read the arguments (events per
        chunk, pages per storage request) or the result (events
        lowered).
        """
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0, 0])
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else 0
            frame = [0, sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[0]
                if stack:
                    outer = stack[-1]
                    outer[0] += dur
                    outer[2] += 1 + frame[2]
                else:
                    tracer.roots.append((name, tracer.run, dur, frame[2]))
                if len(spans) < tracer.span_cap:
                    spans.append((name, start, dur, sid, parent, tracer.run))
                else:
                    tracer.dropped += 1

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside one ``name`` span (for the bench's own steps)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def install(self, layers) -> None:
        """Swap each (name, target, attribute) for its traced wrapper."""
        for name, target, attr in layers:
            on_call = on_return = None
            if name == "interp.lower":
                on_return = self._count_lowered
            elif name == "machine.run_chunk":
                on_call = self._count_chunk
            elif name == "storage.io":
                on_call = functools.partial(self._count_io, attr)
            elif name == "checkpoint.store":
                on_call = self._count_store
            self._patch(target, attr,
                        lambda fn, n=name, c=on_call, r=on_return:
                        self.wrap(n, fn, c, r))
        if any(name == "machine.run_chunk" for name, _, _ in layers):
            # Counters, not layers: events that reach the scalar loop, and
            # the RunStats of every finished machine (filter and fault
            # counts are exact there, whichever entry point ran it).
            self._patch("repro.machine.machine:Machine", "_run_chunk_scalar",
                        self._counting_scalar)
            self._patch("repro.machine.machine:Machine", "finish",
                        self._counting_finish)

    def _patch(self, target: str, attr: str, make_wrapper) -> None:
        owner = _owner(target)
        # Patch only attributes the owner defines itself, so restoring
        # never leaves a shadowing copy on a subclass.
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, make_wrapper(original))
        self._patches.append((owner, attr, original))

    def _counting_scalar(self, original):
        @functools.wraps(original)
        def scalar(machine, kinds, pages, costs):
            self.count("machine.scalar_events", len(kinds))
            return original(machine, kinds, pages, costs)
        return scalar

    def _counting_finish(self, original):
        @functools.wraps(original)
        def finish(machine):
            stats = original(machine)
            self.count("runtime.filtered", stats.prefetch.filtered)
            self.count("runtime.inserted", stats.prefetch.compiler_inserted)
            self.count("faults.disk_retries", stats.disk.retries)
            self.count("faults.degraded_reads", stats.disk.degraded_reads)
            self.count("faults.hint_failures", stats.robust.hint_failures)
            return stats
        return finish

    def uninstall(self) -> None:
        """Put every original back (newest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_lowered(self, lowered: tuple) -> None:
        self.count("interp.lower_events", len(lowered[0]))

    def _count_chunk(self, args: tuple) -> None:
        self.count("machine.chunks")
        self.count("machine.events", len(args[1]))

    def _count_io(self, attr: str, args: tuple) -> None:
        # ``read_run(start, npages, ...)`` moves a run; the rest one page.
        self.count("storage.pages", args[2] if attr == "read_run" else 1)

    def _count_store(self, args: tuple) -> None:
        self.count("checkpoint.bytes", len(args[3]))

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e9

    def self_total_s(self) -> float:
        """Self time summed over every layer (== top-level span time)."""
        return sum(total[2] for total in self.totals.values()) / 1e9

    def state(self) -> dict:
        """What :meth:`merge` needs, as plain picklable data."""
        return {"totals": self.totals, "counts": self.counts,
                "spans": self.spans, "dropped": self.dropped,
                "roots": self.roots, "run_labels": self.run_labels,
                "next_id": self._next_id}

    def merge(self, state: dict) -> None:
        """Fold in another process's tracer state, renumbering its runs
        and span ids after this tracer's own."""
        runs, ids = self.run, self._next_id
        for name, (calls, incl, own) in state["totals"].items():
            total = self.totals.setdefault(name, [0, 0, 0])
            total[0] += calls
            total[1] += incl
            total[2] += own
        for name, n in state["counts"].items():
            self.count(name, n)
        room = max(0, self.span_cap - len(self.spans))
        self.spans += [(name, start, dur, sid + ids, parent and parent + ids,
                        run + runs) for name, start, dur, sid, parent, run
                       in state["spans"][:room]]
        self.dropped += state["dropped"] + max(0, len(state["spans"]) - room)
        self.roots += [(name, run + runs, dur, descendants)
                       for name, run, dur, descendants in state["roots"]]
        for run, label in state["run_labels"].items():
            self.run_labels[run + runs] = label
        self.run += max(state["run_labels"], default=0)
        self._next_id += state["next_id"]

    def compensated_s(self, dur_ns: int, descendants: int) -> float:
        """A span's duration less the wrapper cost of its descendants."""
        return max(0, dur_ns - descendants * self.call_overhead_ns) / 1e9

    def chrome(self, process_name: str) -> dict:
        """Kept spans as a Chrome trace (one pid per run, one tid per layer).

        The repo's trace schema admits duration spans only under the
        farm-timeline names, so each layer call is a ``running`` span on
        the lane (thread) named after its layer; the layer, span id,
        parent id and run id ride in ``args``.
        """
        base = min((s[1] for s in self.spans), default=0)
        lanes: dict[str, int] = {}
        runs: set[int] = set()
        body = []
        for name, start, dur, sid, parent, run in sorted(self.spans,
                                                         key=lambda s: s[1]):
            tid = lanes.setdefault(name, len(lanes) + 1)
            runs.add(run)
            body.append({"name": "running", "ph": "X", "pid": run, "tid": tid,
                         "ts": (start - base) / 1e3, "dur": dur / 1e3,
                         "args": {"layer": name, "id": sid, "parent": parent,
                                  "run": run}})
        meta = []
        for run in sorted(runs):
            label = self.run_labels.get(run, process_name)
            meta.append({"name": "process_name", "ph": "M", "pid": run,
                         "args": {"name": label}})
            for name, tid in lanes.items():
                meta.append({"name": "thread_name", "ph": "M", "pid": run,
                             "tid": tid, "args": {"name": name}})
        return {"traceEvents": meta + body, "displayTimeUnit": "ms",
                "otherData": {"spans_dropped": self.dropped,
                              "process": process_name}}
