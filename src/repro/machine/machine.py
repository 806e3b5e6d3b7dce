"""The simulated machine.

A :class:`Machine` owns one application run: the simulated clock, the
address space, the memory manager, the run-time layer (if prefetching), and
the disk array.  The interpreter drives it through a small API --
``compute``, ``access``, ``prefetch``/``release`` hints, and the bulk
``run_chunk`` path that replays vectorized event chunks.

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

import math
import os

import numpy as np

from repro.config import PlatformConfig
from repro.errors import MachineError
from repro.faults.inject import HintFaultState, LaggedBitVector, StorageFaults
from repro.obs.trace import TraceKind
from repro.runtime.layer import RuntimeLayer
from repro.sim.clock import Clock, TimeCategory
from repro.sim.stats import RunStats, TimeBreakdown
from repro.storage.array_ctl import DiskArray
from repro.vm.manager import MemoryManager
from repro.vm.page_table import AddressSpace, Segment

#: Categories of the inline filter's flush: compute, then filter overhead.
_INLINE_SLOTS = (TimeCategory.USER_COMPUTE.slot, TimeCategory.USER_OVERHEAD.slot)
_COMPUTE_SLOT = _INLINE_SLOTS[:1]
_NO_EVENTS = np.empty(0, dtype=np.int64)
#: Cells the padded matrix of :func:`fold_segments` may hold per folded
#: value; beyond that the lengths are skewed and each segment is folded
#: on its own.
_PAD_CELLS = 4


def fold_segments(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[bounds[i]:bounds[i + 1]]`` folded left from 0.0, for each
    ``i``, bit for bit.

    That is ``pending += value`` over each segment, which
    ``np.add.reduce`` and ``np.add.reduceat`` do not reproduce: they add
    pairwise.  A row-wise ``np.cumsum`` over the segments laid out as
    the rows of a zero-padded matrix does: each fold is its row's
    running sum at the row's last value (an empty row sums to 0.0 in
    every cell).  ``values`` are non-negative costs, so the first term
    needs no ``0.0 +`` (it would only turn a -0.0 into 0.0).  When one
    long segment would make the matrix mostly padding, each segment
    gets its own ``cumsum`` instead.
    """
    lengths = np.diff(bounds)
    nseg = len(lengths)
    total = int(bounds[-1] - bounds[0])
    if not total:
        return np.zeros(nseg)
    width = int(lengths.max())
    if nseg * width > _PAD_CELLS * total:
        folds = np.zeros(nseg)
        for i in np.flatnonzero(lengths).tolist():
            folds[i] = values[bounds[i]:bounds[i + 1]].cumsum()[-1]
        return folds
    matrix = np.zeros((nseg, width))
    matrix[np.arange(width) < lengths[:, None]] = values[bounds[0]:bounds[-1]]
    return matrix.cumsum(axis=1)[np.arange(nseg), lengths - 1]


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

    #: Classification window of the vectorized kernel: chunk suffixes are
    #: classified (fast vs slow) this many events at a time, so a slow
    #: event invalidating the classification never wastes more than one
    #: window of numpy work.
    _WINDOW = 2048
    #: Below this many events the scalar loop beats the kernel's fixed
    #: numpy setup cost, so tiny chunks stay on the reference path.
    _SCALAR_CUTOFF = 128

    def run_chunk(self, kinds, pages, costs) -> None:
        """Replay one lowered event chunk.

        ``kinds``/``pages``/``costs`` are parallel sequences (lists or
        numpy arrays); ``costs[i]`` is the user compute time to charge
        *before* event ``i``.  READ/WRITE events with a resident page and
        PREFETCH events dropped by the filter are handled inline;
        everything else flushes the locally accumulated time and goes
        through the full path.

        Two implementations replay a chunk, bit-identically (see
        docs/performance.md for the equivalence argument):

        * the **vectorized kernel** (default) classifies events in bulk
          against the manager's fast-page mask and the residency bit
          vector, charging whole fast segments with one ``np.cumsum``.
          Under a fault plan or a metrics-only observer it charges
          each filtered prefetch as the run-time layer does;
        * the **scalar loop** walks events one by one.  It is kept for
          runs the kernel cannot serve -- a recording observer or a
          sink, adaptive/unfiltered prefetch, binding mode, a hint gate
          in fallback -- for slow-dense chunks where per-event work is
          cheaper, and as the ``REPRO_SCALAR=1`` escape hatch for
          differential testing.

        The route is decided per call: ``explain`` and the fuzz oracles
        attach their sinks after the machine is built.
        """
        if not (len(kinds) == len(pages) == len(costs)):
            raise MachineError("run_chunk requires parallel lists of equal length")
        runtime = self.runtime
        obs = self.obs
        # Every filter event reaches a recorded trace or a sink.
        per_event = False
        if obs is not None:
            obs.emit(self.clock.now, TraceKind.CHUNK, npages=len(kinds))
            per_event = obs.trace.enabled or obs.sink is not None
        # The kernel serves the plain filter and no-runtime runs: the
        # adaptive state machine must see every request, binding
        # instrumentation every access, and the hint gate every request
        # while its fallback cooldown runs.
        if (
            self.scalar_chunks
            or len(kinds) < self._SCALAR_CUTOFF
            or per_event
            or self.manager.binding
            or (runtime is not None
                and (not runtime.filter_enabled or runtime.adaptive
                     or (runtime.hint_faults is not None
                         and runtime.hint_faults.in_fallback)))
        ):
            if isinstance(kinds, np.ndarray):
                kinds = kinds.tolist()
                pages = pages.tolist()
                costs = costs.tolist()
            self._run_chunk_scalar(kinds, pages, costs)
        else:
            self._run_chunk_vector(kinds, pages, costs)

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

    def _run_chunk_vector(self, kinds, pages, costs) -> None:
        """The numpy chunk kernel.

        Classifies events in windows against the manager's fast-page mask
        (accesses) and the residency bit vector (prefetches).  Fast events
        never change classification state, so between two slow events a
        whole segment can be charged at once: ``np.cumsum`` reproduces the
        scalar loop's fold-left time accumulation bitwise, page effects
        (ref and dirty bits) are bulk scatters into the columnar page
        store, and the hit/filter counters come from mask counts.
        Surviving candidates are re-checked lazily (an O(1) flag test at
        dispatch time); if a slow call dropped any fast flag or filter
        bit (``drops`` counters), the rest of the window is reclassified.

        Where the scalar loop's inline filter is off (an observer or a
        fault plan is attached), the segment is charged in the
        run-time layer's order instead (:meth:`_layer_charges`), a
        filtered prefetch whose bit test would apply a queued
        bit-vector update goes through the layer (the lag cut), and a
        slow call that puts the hint gate into fallback hands the rest
        of the chunk to the scalar loop.  A chunk holding a kind outside
        0..3 goes to the scalar loop whole, which raises.
        """
        kinds_a = np.asarray(kinds, dtype=np.int64)
        pages_a = np.asarray(pages, dtype=np.int64)
        costs_a = np.asarray(costs, dtype=np.float64)
        n = len(kinds_a)
        if n == 0:
            return
        kmax = int(kinds_a.view(np.uint64).max())  # negative kinds wrap high
        if kmax > 3:
            self._run_chunk_scalar(kinds_a.tolist(), pages_a.tolist(),
                                   costs_a.tolist())
            return
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
                # applied only by the layer's tests (see lag_cut).
                lagged, bitvec = bitvec, bitvec.inner
            layer_order = not self._inline_filter

        # Reserving capacity for the chunk's maximum page number up front
        # lets every window gather directly off the raw arrays with no
        # bounds handling.  The raw references are re-read inside
        # fast_events because growth reallocates the arrays.
        maxp = int(pages_a.max())
        fast_mask.reserve(maxp)
        granularity = 1
        if bitvec is not None:
            bitvec.reserve(maxp)
            granularity = bitvec.granularity
        all_access = kmax <= 1
        if all_access:
            is_access = is_pf = None
            has_write = bool(kinds_a.any())
            is_write = (kinds_a == 1) if has_write else None
        else:
            is_access = kinds_a <= 1
            is_pf = kinds_a == 2
            is_write = kinds_a == 1
            has_write = bool(is_write.any())
        cols = manager.cols
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
            acc = pf = None
            if not all_access:
                acc, pf = is_access[a:b], is_pf[a:b]
            return (~fast_events(pages_a[a:b], acc, pf)).nonzero()[0] + a

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
                acc, pf = ka <= 1, ka == 2
            keep = ~fast_events(pg, acc, pf)
            return cand[keep], pg[keep], ka[keep]

        def apply_effects(a: int, b: int) -> None:
            """Page effects of the fast accesses in [a, b).

            Two array scatters into the columnar page store: ref bits and
            dirty bits are sticky (duplicate scatter == repeated item
            write), so they go in per segment -- the very next
            slow call may read them (victim selection, write-back).  The
            column references are re-read every call because slow calls
            can grow the store.
            """
            if a >= b:
                return
            pg = pages_a[a:b]
            if all_access:
                cols.ref_view[pg] = 1
            else:
                cols.ref_view[pg[is_access[a:b]]] = 1
            if has_write:
                w = pg[is_write[a:b]]
                if w.size:
                    cols.dirty_view[w] = 1

        def lag_cut(charges: np.ndarray, pf: np.ndarray) -> int:
            """The first of the filtered prefetches ``pf`` whose bit test
            reaches the oldest queued update, or -1.

            The layer tests a prefetch's bit after charging its compute
            and address generation, so with the segment's ``charges``
            folded from ``clock.now`` the test times are every third
            running sum.  A test at or after the update's visible time
            would apply it first, so that prefetch must reach the layer.
            """
            if lagged is None or not len(pf):
                return -1
            due = lagged.due_us()
            if due == math.inf:
                return -1
            tests = np.cumsum(np.concatenate(((clock.now,), charges)))[2::3]
            reached = tests >= due
            first = int(reached.argmax())
            return first if reached[first] else -1

        hits = 0
        filtered = 0
        inserted = 0
        window = self._WINDOW
        pos = 0        # next unprocessed event
        seg_start = 0  # first event since the last time flush
        slow_done = 0

        def drops_now() -> int:
            if bitvec is None:
                return fast_mask.drops
            return fast_mask.drops + bitvec.drops

        while pos < n:
            wend = min(n, pos + window)
            cand = classify(pos, wend)
            pg_c = pages_a[cand]
            ka_c = kinds_a[cand]
            bail = False
            # The last window ends with the chunk's trailing segment,
            # closed at ``n`` with no event.
            while len(cand) or wend == n:
                if len(cand):
                    sp = int(cand[0])
                    kind = int(ka_c[0])
                    vpage = int(pg_c[0])
                    end = sp + 1
                else:
                    sp = end = n
                    kind = None
                # Close the fast segment [seg_start, sp): effects and
                # counters, then the time up to the event that ends it.
                cut = -1
                if layer_order:
                    charges, slots, pf = self._layer_charges(
                        costs_a, is_pf, seg_start, sp, end)
                    cut = lag_cut(charges, pf)
                    if cut >= 0:
                        sp = int(pf[cut])
                        kind = 2
                        vpage = int(pages_a[sp])
                        charges = charges[:3 * cut + 1]
                        slots = slots[:3 * cut + 1]
                        pf = pf[:cut]
                    seg_pf = len(pf)
                apply_effects(seg_start, sp)
                if all_access:
                    seg_hits = sp - seg_start
                    seg_pf = 0
                else:
                    seg_hits = int(np.count_nonzero(is_access[seg_start:sp]))
                    if not layer_order:
                        seg_pf = (int(np.count_nonzero(is_pf[seg_start:sp]))
                                  if runtime is not None else 0)
                hits += seg_hits
                filtered += seg_pf
                inserted += seg_pf
                if layer_order:
                    clock.charge(charges, slots)
                else:
                    compute = (float(costs_a[seg_start:end].cumsum()[-1])
                               if end > seg_start else 0.0)
                    if kind == 2:
                        inserted += 1
                        seg_pf += 1
                    overhead = (self._overhead_sum(seg_pf)
                                if runtime is not None else 0.0)
                    clock.charge((compute, overhead), _INLINE_SLOTS)
                if sp == n:
                    break
                drops_before = drops_now()
                if kind <= 1:
                    manager.access(vpage, kind == 1)
                elif kind == 2:
                    if layer_order:
                        runtime.prefetch(vpage, 1)
                    else:
                        # Filter bit known clear; counted and charged above.
                        manager.prefetch_call(vpage, 1)
                else:
                    runtime.release([vpage])
                pos = sp + 1
                seg_start = pos
                slow_done += 1
                if ((slow_done >= 256 and pos < slow_done * 16)
                        or (hints is not None and hints.in_fallback)):
                    # Slow-dense chunk: per-event Python dispatch is
                    # cheaper than per-segment numpy setup.  In hint
                    # fallback the gate must see every request.
                    bail = True
                    break
                if drops_now() != drops_before:
                    # Something lost fast status: previously-fast events
                    # in the rest of the window may now be slow, so the
                    # cached classification is unsound -- redo it.
                    cand = classify(pos, wend)
                    pg_c = pages_a[cand]
                    ka_c = kinds_a[cand]
                elif cut >= 0:
                    # The candidate that ended the segment is still ahead.
                    cand, pg_c, ka_c = refilter(cand, pg_c, ka_c)
                elif len(cand) > 1:
                    cand, pg_c, ka_c = refilter(cand[1:], pg_c[1:], ka_c[1:])
                else:
                    cand = cand[1:]
            if bail:
                stats.faults.hits += hits
                stats.prefetch.filtered += filtered
                stats.prefetch.compiler_inserted += inserted
                self._run_chunk_scalar(
                    kinds_a[pos:].tolist(),
                    pages_a[pos:].tolist(),
                    costs_a[pos:].tolist(),
                )
                return
            pos = wend

        stats.faults.hits += hits
        stats.prefetch.filtered += filtered
        stats.prefetch.compiler_inserted += inserted

    def _layer_charges(self, costs: np.ndarray, is_pf, a: int, b: int,
                       end: int) -> tuple:
        """The clock charges ``RuntimeLayer.prefetch`` makes for the
        filtered prefetches among the fast events [a, b), and the
        compute flushed at ``end``; with their category slots and the
        prefetches' indices.

        Per filtered prefetch: the compute folded from 0.0 since the
        last flush, its own cost included; then ``addr_gen_us``; then
        ``filter_check_us``.  Last comes the compute of the rest of
        ``costs[:end]``.  These are the advances the scalar loop makes
        with its inline filter off, in its order.
        """
        pf = (np.flatnonzero(is_pf[a:b]) + a if is_pf is not None
              else _NO_EVENTS)
        if not len(pf):
            compute = float(costs[a:end].cumsum()[-1]) if end > a else 0.0
            return (compute,), _COMPUTE_SLOT, pf
        bounds = np.concatenate(((a,), pf + 1, (end,)))
        charges = np.empty(3 * len(pf) + 1)
        charges[0::3] = fold_segments(costs, bounds)
        charges[1::3] = self.config.cost.addr_gen_us
        charges[2::3] = self.config.cost.filter_check_us
        slots = np.full(len(charges), TimeCategory.USER_OVERHEAD.slot)
        slots[0::3] = TimeCategory.USER_COMPUTE.slot
        return charges, slots, pf

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
