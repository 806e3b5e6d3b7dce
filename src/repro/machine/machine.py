"""The simulated machine.

A :class:`Machine` owns one application run: the simulated clock, the
address space, the memory manager, the run-time layer (if prefetching), and
the disk array.  The interpreter drives it through a small API --
``compute``, ``access``, ``prefetch``/``release`` hints, and the bulk
``run_chunk`` path, which replays a tape of interpreter steps on the
vector kernel and a lowered event chunk replayed on its own on the
scalar loop, the kernel's executable specification.

``run_chunk`` is the hot loop of the whole simulator, so it inlines the
resident-page fast path and the bit-vector filter check, accumulating
compute time and statistics locally and only falling back to the full
memory-manager / run-time-layer paths when something slow actually happens
(a fault, an issued prefetch, a release).

The inline filter charges a prefetch's overhead at the next slow event.
Under a fault plan or an observer the scalar loop sends every prefetch
through ``RuntimeLayer.prefetch`` instead, which charges the same costs
one advance at a time, so such runs may differ from clean, unobserved
ones in the last bits.  The vector kernel reproduces either order bit
for bit: under a fault plan or a metrics-only observer it folds the
layer's charges with ``Clock.charge``, and only a recording observer or
a sink still needs the scalar loop.
"""

from __future__ import annotations

import bisect
import math
import os

import numpy as np

from repro.config import PlatformConfig
from repro.errors import MachineError
from repro.faults.inject import HintFaultState, LaggedBitVector, StorageFaults
from repro.machine.events import PREFETCH, PREFETCH_HINT, RELEASE, WRITE
from repro.obs.trace import TraceKind
from repro.runtime.layer import RuntimeLayer
from repro.sim.clock import Clock, TimeCategory
from repro.sim.stats import RunStats, TimeBreakdown
from repro.storage.array_ctl import DiskArray
from repro.vm.manager import MemoryManager
from repro.vm.page_table import AddressSpace, Segment

_COMPUTE = TimeCategory.USER_COMPUTE.slot
_OVERHEAD = TimeCategory.USER_OVERHEAD.slot
#: Categories of the inline filter's flush: compute, then filter overhead.
_INLINE_SLOTS = (_COMPUTE, _OVERHEAD)
_NO_EVENTS = np.empty(0, dtype=np.int64)
#: Cells the padded matrix of :func:`fold_segments` may hold per folded
#: value; longer segments are folded on their own.
_PAD_CELLS = 4
#: Slow calls after which a tape whose slow events are denser than one
#: in :data:`_DENSE_EVENTS` hands the rest of its step to the scalar loop.
_DENSE_AFTER = 256
_DENSE_EVENTS = 16
#: What ``close`` returns when the batch stopped at a safe point.
_STOPPED = -2
#: Tapes and batches with at most this many static flushes lay their
#: charges out in Python.
_FEW_FLUSHES = 8
#: Slots of an edge's flush: compute, overhead, compute; and of a
#: prefetch's: compute, overhead, overhead.
_FLUSH_SLOTS = (_COMPUTE, _OVERHEAD, _COMPUTE)
_PF_SLOTS = (_COMPUTE, _OVERHEAD, _OVERHEAD)


def fold_segments(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[bounds[i]:bounds[i + 1]]`` folded left from 0.0, for each
    ``i``, bit for bit.

    That is ``pending += value`` over each segment, which neither
    ``np.add.reduce`` nor ``np.add.reduceat`` reproduces in general: on
    numpy 2.4.6, ``np.add.reduce`` is a left fold below 8 values (and
    adds pairwise from there), and ``reduceat`` stops being one from 3
    values.  A row-wise ``np.cumsum`` over the segments laid out as
    the rows of a zero-padded matrix does: each fold is its row's
    running sum at the row's last value (an empty row sums to 0.0 in
    every cell).  ``values`` are non-negative costs, so the first term
    needs no ``0.0 +`` (it would only turn a -0.0 into 0.0).  The matrix
    holds at most :data:`_PAD_CELLS` cells per value: the longest
    segments that would make it wider each get their own ``cumsum``.
    """
    lengths = np.diff(bounds)
    nseg = len(lengths)
    total = int(bounds[-1] - bounds[0])
    folds = np.zeros(nseg)
    if not total:
        return folds
    width = int(lengths.max())
    if nseg * width <= _PAD_CELLS * total:
        rows = None
    else:
        # The widest matrix within budget: the k shortest segments, with
        # k at the end of a run of equal lengths.
        ordered = np.sort(lengths)
        fits = np.arange(1, nseg + 1) * ordered <= _PAD_CELLS * total
        fits[:-1] &= ordered[:-1] != ordered[1:]
        fitting = np.flatnonzero(fits)
        width = int(ordered[fitting[-1]]) if len(fitting) else 0
        rows = np.flatnonzero(lengths <= width)
        for i in np.flatnonzero(lengths > width).tolist():
            folds[i] = values[bounds[i]:bounds[i + 1]].cumsum()[-1]
        if not width:
            return folds
    if rows is None:
        cells = values[bounds[0]:bounds[-1]]
        row_lengths = lengths
    else:
        row_lengths = lengths[rows]
        starts = bounds[rows]
        offsets = np.cumsum(row_lengths) - row_lengths
        cells = values[np.arange(int(row_lengths.sum()))
                       + np.repeat(starts - offsets, row_lengths)]
    matrix = np.zeros((len(row_lengths), width))
    matrix[np.arange(width) < row_lengths[:, None]] = cells
    sums = matrix.cumsum(axis=1)[np.arange(len(row_lengths)),
                                 row_lengths - 1]
    if rows is None:
        return sums
    folds[rows] = sums
    return folds


class Tape:
    """The step edges of a run of interpreter steps that
    :meth:`Machine.run_chunk` replays as one event stream.

    Step ``j`` owns events ``[ends[j - 1], ends[j])`` (from 0 for the
    first), so ``ends`` never decreases and ends at the event count.  At
    the step's *edge* the kernel flushes the pending time as the end of
    a chunk does, then charges ``edge_us[j]`` of compute (a chunk's
    tail, a compute step).  The steps listed in ``calls`` (ascending)
    are hints the kernel does not charge: a call ends before each of
    them, and the caller replays it with its own per-step call.
    """

    __slots__ = ("ends", "edge_us", "calls", "done", "slow", "masks",
                 "layout")

    def __init__(self, ends: np.ndarray, edge_us: np.ndarray,
                 calls: list[int] = ()) -> None:
        self.ends = ends
        self.edge_us = edge_us
        self.calls = calls
        #: Steps replayed so far: a kernel call starts at step ``done``
        #: and advances it; so does a caller that replays a step itself.
        self.done = 0
        #: Slow calls the kernel made on this tape: its slow-dense test
        #: spans the calls a tape's safe points cut it into.
        self.slow = 0
        #: The kernel's per-event masks (:meth:`Machine._event_masks`)
        #: and layout of the static flushes
        #: (:meth:`Machine._static_flushes`), made by its first call.
        self.masks = self.layout = None


class Machine:
    """One simulated run of one program on the configured platform."""

    def __init__(
        self,
        config: PlatformConfig | None = None,
        prefetching: bool = True,
        runtime_filter: bool = True,
        adaptive_prefetch: bool = False,
        os_readahead: bool = False,
        binding_prefetch: bool = False,
        observer=None,
        fault_plan=None,
        scalar_chunks: bool | None = None,
    ) -> None:
        self.config = config or PlatformConfig()
        #: Force the scalar chunk loop (differential testing; also the
        #: ``REPRO_SCALAR=1`` environment escape hatch).  The vectorized
        #: kernel is bit-identical, so this only changes wall-clock.
        if scalar_chunks is None:
            scalar_chunks = os.environ.get("REPRO_SCALAR", "") not in ("", "0")
        self.scalar_chunks = scalar_chunks
        #: Fold-left partial sums of the per-prefetch filter overhead:
        #: ``_ovh_seq[k]`` is exactly what ``k`` repetitions of
        #: ``pending += filter_cost`` accumulate, so the vector kernel
        #: charges bit-identical overhead without a Python loop.
        self._ovh_seq: list[float] = [0.0]
        self.clock = Clock()
        self.stats = RunStats()
        #: Attached :class:`repro.obs.Observer`, or None.  Every layer
        #: below shares this one reference; tracing is off when unset.
        self.obs = observer
        #: The run's :class:`repro.faults.FaultPlan`, or None.  Like
        #: ``config`` it belongs to the incarnation: each layer's fault
        #: state is built from it below, and a layer without faults runs
        #: its unfaulted code path.
        self.fault_plan = fault_plan
        self.address_space = AddressSpace(self.config.page_size)
        self.disks = DiskArray(
            self.config, observer=observer,
            faults=(StorageFaults(fault_plan, self.config.num_disks)
                    if fault_plan is not None and fault_plan.disks else None),
        )
        self.manager = MemoryManager(
            self.config, self.clock, self.disks, self.stats,
            readahead=os_readahead,
            binding=binding_prefetch,
            observer=observer,
        )
        if fault_plan is not None:
            for storm in fault_plan.storms:
                for at_us, frames, hold_us in storm.schedule():
                    self.manager.schedule_pressure(at_us, frames, hold_us)
                    self.stats.robust.storm_bursts += 1
        self.prefetching = prefetching
        self.runtime: RuntimeLayer | None = None
        if prefetching:
            self.runtime = RuntimeLayer(
                self.config, self.clock, self.manager, self.stats,
                filter_enabled=runtime_filter,
                adaptive=adaptive_prefetch,
                observer=observer,
            )
            if fault_plan is not None and fault_plan.hint_failure_rate > 0:
                self.runtime.hint_faults = HintFaultState(fault_plan)
            if fault_plan is not None and fault_plan.bitvector_lag_us > 0:
                lagged = LaggedBitVector(
                    self.runtime.bitvector, self.clock,
                    fault_plan.bitvector_lag_us,
                )
                self.runtime.bitvector = lagged
                self.manager.bitvector = lagged
        # Whether both chunk paths filter single-page prefetches inline
        # and charge their overhead at the next slow event.  Only the
        # plain filter allows it: the adaptive state machine must see
        # every request, an observer every filter event, and a fault
        # plan's hint gate every request (a lagged bit vector applies its
        # queue in the layer's bit test).  Otherwise each prefetch is
        # charged in ``RuntimeLayer.prefetch``'s order: the same costs,
        # summed in another order, so the last bits may differ.
        self._inline_filter = (
            self.runtime is not None and self.runtime.filter_enabled
            and not self.runtime.adaptive and observer is None
            and fault_plan is None
        )
        self._finished = False

    # ------------------------------------------------------------------
    # Address space setup
    # ------------------------------------------------------------------

    def map_segment(self, name: str, nbytes: int) -> Segment:
        """Map one out-of-core array and register its backing extent."""
        seg = self.address_space.map_segment(name, nbytes)
        base_vpage = seg.base // self.config.page_size
        self.disks.register_segment(name, base_vpage, seg.npages)
        if self.obs is not None:
            self.obs.register_segment(name, base_vpage, seg.npages)
        return seg

    def warm_load_segment(self, seg: Segment) -> None:
        """Preload a whole segment (warm-started runs, Figure 6)."""
        base_vpage = seg.base // self.config.page_size
        self.manager.warm_load(list(range(base_vpage, base_vpage + seg.npages)))

    # ------------------------------------------------------------------
    # Scalar execution API (used by the interpreter's slow path)
    # ------------------------------------------------------------------

    def compute(self, duration_us: float) -> None:
        """Spend CPU time on useful application work."""
        self.clock.advance(duration_us, TimeCategory.USER_COMPUTE)

    def access(self, vpage: int, is_write: bool) -> None:
        """Perform one demand memory access."""
        self.manager.access(vpage, is_write)

    def prefetch(self, start_vpage: int, npages: int = 1) -> None:
        """Compiler-inserted prefetch hint (ignored if not prefetching)."""
        if self.runtime is not None:
            self.runtime.prefetch(start_vpage, npages)

    def release(self, vpages: list[int]) -> None:
        """Compiler-inserted release hint (ignored if not prefetching)."""
        if self.runtime is not None:
            self.runtime.release(vpages)

    def prefetch_release(
        self, start_vpage: int, npages: int, release_vpages: list[int]
    ) -> None:
        """Bundled prefetch+release hint (ignored if not prefetching)."""
        if self.runtime is not None:
            self.runtime.prefetch_release(start_vpage, npages, release_vpages)

    # ------------------------------------------------------------------
    # Bulk execution (the hot loop)
    # ------------------------------------------------------------------

    #: Classification window of the vectorized kernel: event suffixes are
    #: classified (fast vs slow) this many events at a time, so a slow
    #: event invalidating the classification never wastes more than one
    #: window of numpy work.
    _WINDOW = 2048

    def serves_tapes(self) -> bool:
        """Whether the vector kernel replays this run's events now.

        It does unless something needs per-event or per-request
        visibility: a recording observer or a sink (``explain`` and the
        fuzz oracles attach theirs after the machine is built) must see
        every filter event, binding instrumentation every access, and
        the adaptive state machine and a hint gate in demand-paging
        fallback every request.  ``scalar_chunks`` forces the scalar
        loop.  The gate enters and leaves fallback mid-run, so callers
        ask before each chunk or tape.
        """
        obs = self.obs
        runtime = self.runtime
        return not (
            self.scalar_chunks
            or (obs is not None
                and (obs.trace.enabled or obs.sink is not None))
            or self.manager.binding
            or (runtime is not None
                and (not runtime.filter_enabled or runtime.adaptive
                     or (runtime.hint_faults is not None
                         and runtime.hint_faults.in_fallback)))
        )

    def run_chunk(self, kinds, pages, costs, tape: Tape | None = None,
                  stop_us: float = math.inf) -> int:
        """Replay one lowered event chunk, or a tape of interpreter steps.

        ``kinds``/``pages``/``costs`` are parallel sequences; ``costs[i]``
        is the user compute time to charge *before* event ``i``.
        READ/WRITE events with a resident page and PREFETCH events
        dropped by the filter are handled inline; everything else
        flushes the locally accumulated time and goes through the full
        path.  Two implementations replay events, bit-identically (see
        docs/performance.md for the equivalence argument), and the
        ``tape`` argument alone picks one:

        * without a tape, the **scalar loop** walks the chunk's events
          (lists or numpy arrays) one by one, after the chunk's trace
          event.  It is the executable specification, and every chunk
          replayed on its own takes it: the per-step replay of a run the
          kernel does not serve (a recording observer or a sink,
          adaptive/unfiltered prefetch, binding mode, a hint gate in
          fallback, ``REPRO_SCALAR=1``) and the rest of a slow-dense tape;
        * with ``tape``, the **vectorized kernel** replays a run of
          interpreter steps whose events are int64/int64/float64 arrays,
          classifying them in bulk against the manager's fast-page mask
          and the residency bit vector and charging whole fast segments
          at once.  Under a fault plan or a metrics-only observer it
          charges each filtered prefetch as the run-time layer does.
          Only a run :meth:`serves_tapes` accepts has tapes; any other
          raises.  The kernel starts at step ``tape.done``: at each step
          edge it flushes the pending time as the end of a chunk does,
          then charges the step's edge compute.  It stops after the
          first edge whose clock reaches ``stop_us`` (a checkpointer's
          next crash or checkpoint) and before the next step in
          ``tape.calls``, a hint the caller replays.

        Returns how many steps were replayed (1 for a chunk), advancing
        ``tape.done`` past them.
        """
        if not (len(kinds) == len(pages) == len(costs)):
            raise MachineError("run_chunk requires parallel lists of equal length")
        if tape is not None:
            if not self.serves_tapes():
                raise MachineError("this run replays its steps one at a time")
            return self._run_chunk_vector(kinds, pages, costs, tape, stop_us)
        if self.obs is not None:
            self.obs.emit(self.clock.now, TraceKind.CHUNK, npages=len(kinds))
        if isinstance(kinds, np.ndarray):
            kinds = kinds.tolist()
            pages = pages.tolist()
            costs = costs.tolist()
        self._run_chunk_scalar(kinds, pages, costs)
        return 1

    def _run_chunk_scalar(self, kinds: list, pages: list, costs: list) -> None:
        """The reference event loop (one Python iteration per event).

        An access is a hit when its page's byte in the manager's
        fast-access mask is set (the mask is the fast-access predicate,
        docs/performance.md); the hit then writes the page's ref and
        dirty columns directly.  Every buffer is a local, re-read after
        each slow call: readahead or a prefetch can grow the store.
        """
        if not kinds:
            return
        if min(kinds) < 0:
            raise MachineError(f"unknown event kind {min(kinds)}")
        clock = self.clock
        manager = self.manager
        mask = manager.fast
        cols = manager.cols
        runtime = self.runtime
        filter_on = self._inline_filter
        bitvec = runtime.bitvector if filter_on else None
        granularity = bitvec.granularity if filter_on else 1
        # With capacity for the chunk's largest page, no event needs a
        # bounds check; growth during a slow call only adds capacity.
        maxp = max(pages)
        mask.reserve(maxp)
        if filter_on:
            bitvec.reserve(maxp)
        fast = mask.bits
        bits = bitvec.bits if filter_on else None
        ref, dirty = cols.ref, cols.dirty
        addr_gen_cost = self.config.cost.addr_gen_us
        filter_cost = self.config.cost.filter_check_us + addr_gen_cost

        pending_compute = 0.0
        pending_overhead = 0.0
        hits = 0
        filtered = 0
        inserted = 0
        # Binding instrumentation must observe every access.
        fast_access_ok = not manager.binding

        def flush_time() -> None:
            nonlocal pending_compute, pending_overhead
            if pending_compute:
                clock.advance(pending_compute, TimeCategory.USER_COMPUTE)
                pending_compute = 0.0
            if pending_overhead:
                clock.advance(pending_overhead, TimeCategory.USER_OVERHEAD)
                pending_overhead = 0.0

        for kind, vpage, cost in zip(kinds, pages, costs):
            pending_compute += cost
            if kind <= 1:  # READ or WRITE
                if fast_access_ok and fast[vpage]:
                    ref[vpage] = 1
                    if kind == 1:
                        dirty[vpage] = 1
                    hits += 1
                    continue
                flush_time()
                manager.access(vpage, kind == 1)
            elif kind == 2:  # single-page PREFETCH
                if runtime is None:
                    continue
                if bits is not None:
                    inserted += 1
                    pending_overhead += filter_cost
                    if bits[vpage // granularity]:
                        filtered += 1
                        continue
                    flush_time()
                    # Already counted and charged locally: issue directly.
                    manager.prefetch_call(vpage, 1)
                else:
                    # Filter disabled or adaptive: the layer handles
                    # counting, charging, and the suppression state.
                    flush_time()
                    runtime.prefetch(vpage, 1)
            elif kind == 3:  # single-page RELEASE
                if runtime is None:
                    continue
                flush_time()
                runtime.release([vpage])
            else:
                raise MachineError(f"unknown event kind {kind}")
            # Back from a slow call: re-read every buffer it may have grown.
            fast = mask.bits
            if bits is not None:
                bits = bitvec.bits
            ref, dirty = cols.ref, cols.dirty

        flush_time()
        self.stats.faults.hits += hits
        self.stats.prefetch.filtered += filtered
        self.stats.prefetch.compiler_inserted += inserted

    def _overhead_sum(self, k: int) -> float:
        """Fold-left sum of ``k`` filter-overhead charges (bit-exact)."""
        seq = self._ovh_seq
        if len(seq) <= k:
            step = self.config.cost.filter_check_us + self.config.cost.addr_gen_us
            while len(seq) <= k:
                seq.append(seq[-1] + step)
        return seq[k]

    def _run_chunk_vector(self, kinds: np.ndarray, pages: np.ndarray,
                          costs: np.ndarray, tape: Tape,
                          stop_us: float = math.inf) -> int:
        """The numpy kernel, over a tape of steps whose events are the
        int64/int64/float64 columns ``Executor._fill`` builds.

        Classifies events in windows against the manager's fast-page mask
        (accesses) and the residency bit vector (prefetches).  Fast events
        never change classification state, so between two slow events a
        whole batch can be charged at once: ``np.cumsum`` reproduces the
        scalar loop's fold-left time accumulation bitwise, page effects
        (ref and dirty bits) are bulk scatters into the columnar page
        store, and the hit/filter counters come from mask counts.
        Surviving candidates are re-checked lazily (an O(1) flag test at
        dispatch time); if a slow call dropped any fast flag or filter
        bit (``drops`` counters), the rest of the window is reclassified.

        A tape's step edges are flushes inside a batch, charged with it
        from a layout of the tape's *static* flushes (edges and
        prefetches charged in the layer's order) made by its first call;
        a slow event splits the one interval it falls in.  The call ends
        at the first edge whose clock reaches ``stop_us``, and before
        the first hint step its caller replays (``tape.calls``).  Where
        the scalar loop's inline filter is off (an observer or a fault plan
        is attached), every filtered prefetch is charged in the run-time
        layer's order, as a tape's single-page prefetch hint
        (``PREFETCH_HINT``) always is; and a filtered prefetch whose bit
        test would apply a queued bit-vector update goes through the
        layer (the lag cut).  A slow-dense tape (:data:`_DENSE_AFTER`
        slow calls, fewer than :data:`_DENSE_EVENTS` events each) and a
        slow event that puts the hint gate into fallback hand the rest
        of their step to the scalar loop and end the call.
        """
        ends, edge_us, calls = tape.ends, tape.edge_us, tape.calls
        nsteps = len(ends)
        clock = self.clock
        manager = self.manager
        fast_mask = manager.fast
        runtime = self.runtime
        stats = self.stats
        bitvec = lagged = hints = None
        layer_order = False
        if runtime is not None:
            bitvec = runtime.bitvector
            hints = runtime.hint_faults
            if isinstance(bitvec, LaggedBitVector):
                # Classify against the bits as they stand; the queue is
                # applied only by the layer's tests (see the lag cut).
                lagged, bitvec = bitvec, bitvec.inner
            layer_order = not self._inline_filter

        # Reserving capacity for the largest page up front lets every
        # window gather directly off the raw arrays with no bounds
        # handling.  The raw references are re-read inside fast_events
        # because growth reallocates the arrays.
        granularity = 1
        if bitvec is not None:
            granularity = bitvec.granularity
        cols = manager.cols
        if tape.masks is None:
            tape.masks = self._event_masks(kinds, pages, layer_order)
        (maxp, all_access, has_write, is_access, is_write, is_pf, inline_pf,
         layer_pf) = tape.masks
        if len(kinds):
            fast_mask.reserve(maxp)
            if bitvec is not None:
                bitvec.reserve(maxp)
            cols.ensure(maxp)

        def fast_events(pg: np.ndarray, acc, pf) -> np.ndarray:
            """Which events on pages ``pg`` are fast under current state:
            accesses (``acc``) to a fast page, and prefetches (``pf``)
            whose filter bit is set -- or, with no run-time layer, every
            hint.  ``acc`` and ``pf`` are None when every event is an
            access."""
            f = fast_mask.raw[pg] != 0
            if acc is not None:
                f &= acc
                if runtime is None:
                    f |= ~acc
                else:
                    idx = pg if granularity == 1 else pg // granularity
                    f |= pf & (bitvec.raw[idx] != 0)
            return f

        def classify(a: int, b: int) -> np.ndarray:
            """Absolute indices in [a, b) that are slow under current state."""
            if a >= b:
                return _NO_EVENTS
            acc = pf = None
            if not all_access:
                acc, pf = is_access[a:b], is_pf[a:b]
            return (~fast_events(pages[a:b], acc, pf)).nonzero()[0] + a

        def refilter(cand: np.ndarray, pg: np.ndarray,
                     ka: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Drop candidates that turned fast (state only improved).

            ``pg``/``ka`` are the already-gathered page numbers and kinds
            parallel to ``cand`` so re-checks cost no fresh gathers.
            One slow call can turn *many* candidates fast at once (a
            settled prefetch makes every later access to its page a
            hit), so the bulk drop is what keeps the candidate walk
            linear instead of per-stale-event.
            """
            acc = pf = None
            if not all_access:
                acc = ka <= WRITE
                pf = (ka == PREFETCH) | (ka == PREFETCH_HINT)
            keep = ~fast_events(pg, acc, pf)
            return cand[keep], pg[keep], ka[keep]

        def apply_effects(a: int, b: int) -> None:
            """Page effects of the fast accesses in [a, b).

            Two array scatters into the columnar page store: ref bits and
            dirty bits are sticky (duplicate scatter == repeated item
            write), so they go in per batch -- the very next slow call
            may read them (victim selection, write-back).  The column
            references are re-read every call because slow calls can grow
            the store.
            """
            if a >= b:
                return
            pg = pages[a:b]
            if all_access:
                cols.ref_view[pg] = 1
            else:
                cols.ref_view[pg[is_access[a:b]]] = 1
            if has_write:
                w = pg[is_write[a:b]]
                if w.size:
                    cols.dirty_view[w] = 1

        if tape.layout is None:
            tape.layout = self._static_flushes(costs, ends, edge_us,
                                               layer_pf, inline_pf)
        at, edge_flush, is_pf_flush, static, static_slots = tape.layout
        nflush = len(at)

        def fold(a: int, b: int) -> float:
            """The compute of events [a, b), folded from 0.0."""
            return float(costs[a:b].cumsum()[-1]) if b > a else 0.0

        def overhead(a: int, b: int) -> float:
            """The inline filter's overhead for the prefetches in [a, b)."""
            if inline_pf is None or b <= a:
                return 0.0
            return self._overhead_sum(int(np.count_nonzero(inline_pf[a:b])))

        def flush_charges(f: int, lo: int, edge: int) -> tuple:
            """The charges of static flush ``f`` over ``[lo, at[f])``, and
            their slots; ``edge`` is its step if it is an edge."""
            hi = int(at[f])
            if is_pf_flush is not None and is_pf_flush[f]:
                return ((fold(lo, hi), self.config.cost.addr_gen_us,
                         self.config.cost.filter_check_us), _PF_SLOTS)
            return ((fold(lo, hi), overhead(lo, hi), float(edge_us[edge])),
                    _FLUSH_SLOTS)

        def counts(a: int, b: int) -> tuple[int, int]:
            """The accesses and the prefetches among the fast events
            [a, b): the hits, and the prefetches the filter drops."""
            if all_access or a >= b:
                return max(b - a, 0), 0
            if runtime is None:
                return int(np.count_nonzero(is_access[a:b])), 0
            return (int(np.count_nonzero(is_access[a:b])),
                    int(np.count_nonzero(is_pf[a:b])))

        hits = 0
        filtered = 0
        inserted = 0
        first_step = step = tape.done  # the next step edge
        # The call ends before the next hint its caller replays: its
        # events end at ``end``, its flushes at ``end_flush``.
        until = bisect.bisect_left(calls, step)
        until = calls[until] if until < len(calls) else nsteps
        end = int(ends[until - 1])
        end_flush = int(edge_flush[until - 1]) + 1
        # The next unclassified-or-pending event, the first event since
        # the last time flush, and the next static flush.
        pos = seg_start = int(ends[step - 1]) if step else 0
        flush = int(edge_flush[step - 1]) + 1 if step else 0

        def close(last: int, slow_end, check: int) -> int:
            """Charge the fast events from ``seg_start`` through static
            flushes ``flush``..``last - 1`` and, unless ``slow_end`` is
            None, the flush at ``slow_end`` after the slow event at
            ``slow_end - 1``.

            Ends the batch early at the first of: the edge of a step
            before ``check`` whose clock reaches ``stop_us`` (returns
            :data:`_STOPPED`), and the first layer-charged prefetch whose
            bit test reaches a queued bit-vector update, which must reach
            the layer (returns its event index).  Returns -1 otherwise.
            """
            nonlocal hits, filtered, inserted, step, seg_start, flush
            a = seg_start
            first = flush
            b = int(at[last - 1]) if slow_end is None else slow_end - 1
            if first < last:
                # Every flush of the batch, the first one's interval cut
                # at ``a`` when a slow event split it: a few laid out
                # here, a long run sliced from the static layout, with
                # the compute of its intervals folded in one call.
                lo = int(at[first - 1]) if first else 0
                if static is None or last - first <= _FEW_FLUSHES:
                    charges, slots = [], []
                    lo, edge = a, step
                    for f in range(first, last):
                        triple, triple_slots = flush_charges(f, lo, edge)
                        charges += triple
                        slots += triple_slots
                        lo = int(at[f])
                        edge += triple_slots is _FLUSH_SLOTS
                    edges = edge - step
                    if slow_end is not None:
                        charges += (fold(lo, slow_end), overhead(lo, slow_end))
                        slots += _INLINE_SLOTS
                else:
                    charges = static[3 * first:3 * last].copy()
                    charges[0::3] = fold_segments(
                        costs, np.concatenate(((a,), at[first:last])))
                    slots = static_slots[3 * first:3 * last]
                    if lo != a and (is_pf_flush is None
                                    or not is_pf_flush[first]):
                        charges[1] = overhead(a, int(at[first]))
                    if slow_end is not None:
                        lo = int(at[last - 1])
                        charges = np.concatenate(
                            (charges, (fold(lo, slow_end),
                                       overhead(lo, slow_end))))
                        slots = np.concatenate((slots, _INLINE_SLOTS))
                    edges = int(np.searchsorted(edge_flush, last)) - step
                pfs = (np.flatnonzero(is_pf_flush[first:last])
                       if lagged is not None and is_pf_flush is not None
                       else _NO_EVENTS)
                checked = min(check, step + edges) - step
                stop = cut = -1
                if ((lagged is not None and len(pfs))
                        or (checked > 0 and stop_us != math.inf)):
                    # The clock after each charge, for the edges' safe
                    # points and the prefetches' bit tests (after their
                    # compute and address generation).
                    running = np.cumsum(np.concatenate(((clock.now,),
                                                        charges)))
                    due = lagged.due_us() if lagged is not None else math.inf
                    if len(pfs) and due != math.inf:
                        reached = running[3 * pfs + 2] >= due
                        cut = int(reached.argmax())
                        if not reached[cut]:
                            cut = -1
                    if checked > 0 and stop_us != math.inf:
                        local = edge_flush[step:step + checked] - first
                        reached = running[3 * local + 3] >= stop_us
                        stop = int(reached.argmax())
                        if not reached[stop]:
                            stop = -1
                        elif cut >= 0 and pfs[cut] < local[stop]:
                            stop = -1
                        else:
                            cut = -1
                if stop >= 0:
                    done = int(edge_flush[step + stop]) - first + 1
                    clock.charge(charges[:3 * done], slots[:3 * done])
                    b = int(at[first + done - 1])
                    flush = first + done
                    step += stop + 1
                elif cut >= 0:
                    done = int(pfs[cut])
                    clock.charge(charges[:3 * done + 1],
                                 slots[:3 * done + 1])
                    b = int(at[first + done]) - 1
                    flush = first + done + 1
                    step = int(np.searchsorted(edge_flush, first + done))
                else:
                    clock.charge(charges, slots)
                    flush = last
                    step += edges
            elif slow_end is not None:
                # A plain segment: its compute, then the inline filter's
                # overhead, the slow event's own included.
                clock.charge((fold(a, slow_end), overhead(a, slow_end)),
                             _INLINE_SLOTS)
                stop = cut = -1
            else:
                return -1
            seg_hits, seg_pf = counts(a, b)
            apply_effects(a, b)
            hits += seg_hits
            filtered += seg_pf
            inserted += seg_pf
            seg_start = b
            if stop >= 0:
                return _STOPPED
            return b if cut >= 0 else -1

        def finish(done: int) -> int:
            """Book the call's counters; step ``done`` is the next one."""
            stats.faults.hits += hits
            stats.prefetch.filtered += filtered
            stats.prefetch.compiler_inserted += inserted
            tape.slow = slow_done
            tape.done = done
            return done - first_step

        def drops_now() -> int:
            if bitvec is None:
                return fast_mask.drops
            return fast_mask.drops + bitvec.drops

        window = self._WINDOW
        # A tape cut short by safe points is judged slow-dense whole.
        slow_done = tape.slow
        while True:
            wend = min(end, pos + window)
            # The window's slow candidates.
            cand = classify(pos, wend)
            pg_c = pages[cand]
            ka_c = kinds[cand]
            while True:
                if len(cand):
                    limit = int(cand[0])
                    last = flush
                    if flush < nflush and at[flush] <= limit:
                        last = int(np.searchsorted(at, limit, "right"))
                    cut = close(last, limit + 1, until)
                elif wend == end:
                    cut = close(end_flush, None, until)
                    if cut == -1:
                        return finish(until)
                else:
                    break
                if cut == _STOPPED:
                    return finish(step)
                drops_before = drops_now()
                ahead = True  # the first candidate is still ahead
                if cut >= 0:
                    # The lag cut: this prefetch's bit test goes through
                    # the layer, which applies the due update first.
                    runtime.prefetch(int(pages[cut]), 1)
                    seg_start = pos = cut + 1
                else:
                    kind = int(ka_c[0])
                    if kind == PREFETCH and not layer_order:
                        inserted += 1  # counted and charged in the flush
                    elif kind == PREFETCH_HINT or (kind == PREFETCH
                                                   and layer_order):
                        flush += 1  # its flush is the layer's call
                    self._slow_event(kind, int(pg_c[0]), layer_order)
                    seg_start = pos = limit + 1
                    ahead = False
                slow_done += 1
                if ((hints is not None and hints.in_fallback)
                        or (slow_done >= _DENSE_AFTER
                            and pos < slow_done * _DENSE_EVENTS)):
                    # In hint fallback the gate must see every request,
                    # and a slow-dense run costs less per event in the
                    # scalar loop: it finishes the slow event's step, and
                    # the call ends there.
                    done = finish(step + 1)
                    last = int(ends[step])
                    if pos < last:
                        self._run_chunk_scalar(
                            kinds[pos:last].tolist(),
                            pages[pos:last].tolist(),
                            costs[pos:last].tolist())
                    edge = float(edge_us[step])
                    if edge:
                        clock.advance(edge, TimeCategory.USER_COMPUTE)
                    return done
                if drops_now() != drops_before:
                    # Something lost fast status: previously-fast events
                    # in the rest of the window may now be slow, so the
                    # cached classification is unsound -- redo it.
                    cand = classify(pos, wend)
                    pg_c = pages[cand]
                    ka_c = kinds[cand]
                elif not len(cand):
                    pass
                elif ahead:
                    cand, pg_c, ka_c = refilter(cand, pg_c, ka_c)
                elif len(cand) > 1:
                    cand, pg_c, ka_c = refilter(cand[1:], pg_c[1:], ka_c[1:])
                else:
                    cand = cand[1:]
            pos = wend

    def _event_masks(self, kinds: np.ndarray, pages: np.ndarray,
                     layer_order: bool) -> tuple:
        """A tape's largest page and per-event masks: ``(maxp,
        all_access, has_write, is_access, is_write, is_pf, inline_pf,
        layer_pf)``, where ``is_pf`` marks every prefetch, ``inline_pf``
        those the inline filter charges and ``layer_pf`` those charged
        in the run-time layer's order (None where no such event can
        occur, and every mask when every event is an access)."""
        if not len(kinds):
            return (0, True, False, None, None, None, None, None)
        maxp = int(pages.max())
        kmax = int(kinds.max())
        if kmax <= WRITE:
            has_write = bool(kinds.any())
            return (maxp, True, has_write, None,
                    (kinds == WRITE) if has_write else None, None, None, None)
        is_write = kinds == WRITE
        is_pf = kinds == PREFETCH
        layer_pf = inline_pf = None
        if self.runtime is not None:
            if kmax == PREFETCH_HINT:
                is_hint = kinds == PREFETCH_HINT
                if not layer_order:
                    inline_pf, layer_pf = is_pf, is_hint
                is_pf = is_pf | is_hint
            elif not layer_order:
                inline_pf = is_pf
            if layer_order:
                layer_pf = is_pf
        return (maxp, False, bool(is_write.any()), kinds <= WRITE, is_write,
                is_pf, inline_pf, layer_pf)

    def _static_flushes(self, costs: np.ndarray, ends: np.ndarray,
                        edge_us: np.ndarray, layer_pf, inline_pf) -> tuple:
        """The layout of a tape's *static* flushes, the flushes its events
        alone place: each step edge, and after each prefetch charged in
        the layer's order (``layer_pf``), in event order, a prefetch's
        before an edge at the same position.

        Flush ``f`` closes the interval ``[at[f - 1], at[f])`` (from 0
        for the first) with three charges: the compute folded from 0.0
        over it, then for a prefetch ``addr_gen_us`` and
        ``filter_check_us`` as ``RuntimeLayer.prefetch`` charges them,
        and for an edge the inline filter's overhead for the interval's
        prefetches (``inline_pf``) and the edge's own compute.  Returns
        ``(at, edge_flush, is_pf_flush, static, static_slots)``: the
        flush positions, each step's flush, which flushes are
        prefetches' (None: none is), and with more than
        :data:`_FEW_FLUSHES` flushes their charges and slots, three per
        flush, the compute left 0.0: a batch folds it for the intervals
        it charges, since a slow event splits most long ones.
        """
        pf_events = (np.flatnonzero(layer_pf) if layer_pf is not None
                     else _NO_EVENTS)
        if len(pf_events):
            at = np.concatenate((pf_events + 1, ends))
            order = np.argsort(at, kind="stable")
            at = at[order]
            edge_flush = np.flatnonzero(order >= len(pf_events))
            is_pf_flush = order < len(pf_events)
        else:
            at = ends
            edge_flush = np.arange(len(ends))
            is_pf_flush = None
        nflush = len(at)
        if nflush <= _FEW_FLUSHES:
            return at, edge_flush, is_pf_flush, None, None
        static = np.zeros(3 * nflush)
        static[3 * edge_flush + 2] = edge_us
        static_slots = np.full(3 * nflush, _OVERHEAD)
        static_slots[0::3] = _COMPUTE
        static_slots[3 * edge_flush + 2] = _COMPUTE
        if is_pf_flush is not None:
            pf_flush = np.flatnonzero(is_pf_flush)
            static[3 * pf_flush + 1] = self.config.cost.addr_gen_us
            static[3 * pf_flush + 2] = self.config.cost.filter_check_us
        if inline_pf is not None:
            bounds = np.concatenate(((0,), at))
            pending = np.diff(np.concatenate(
                ((0,), np.cumsum(inline_pf))).take(bounds))
            for f in np.flatnonzero(pending).tolist():
                static[3 * f + 1] = self._overhead_sum(int(pending[f]))
        return at, edge_flush, is_pf_flush, static, static_slots

    def _slow_event(self, kind: int, vpage: int, layer_order: bool) -> None:
        """Dispatch one slow event through the call the scalar loop makes."""
        if kind <= WRITE:
            self.manager.access(vpage, kind == WRITE)
        elif kind == RELEASE:
            self.runtime.release([vpage])
        elif layer_order or kind == PREFETCH_HINT:
            self.runtime.prefetch(vpage, 1)
        else:
            # Filter bit known clear; counted and charged in the flush.
            self.manager.prefetch_call(vpage, 1)

    # ------------------------------------------------------------------
    # Run boundary
    # ------------------------------------------------------------------

    def finish(self) -> RunStats:
        """Flush dirty pages, close accounting, and return the run's stats."""
        if self._finished:
            raise MachineError("Machine.finish() called twice")
        self._finished = True
        self.manager.flush_dirty()
        self.stats.times = TimeBreakdown.from_clock(self.clock)
        self.stats.elapsed_us = self.clock.now
        self.stats.disk = self.disks.snapshot_stats()
        if self.obs is not None and self.stats.elapsed_us > 0:
            # One gauge, set per disk in index order: value = the last
            # disk, min/max = the array's extremes.  Complements the
            # per-request disk.utilization mean with per-disk bounds.
            for busy in self.stats.disk.busy_us:
                self.obs.disk_idle_fraction.set(
                    max(0.0, 1.0 - busy / self.stats.elapsed_us)
                )
        return self.stats
