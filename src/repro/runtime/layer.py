"""The run-time layer proper: filtering compiler-inserted prefetches.

Every prefetch the compiler inserted reaches this layer first.  The layer
checks the shared bit vector and drops requests whose pages are already
believed resident -- at roughly 1% of the cost of a system call.  For block
requests it checks each page "until one is found that is not in memory,
then pass[es] all remaining pages to the OS.  In this way, at most one
system call is required for a block prefetch." (paper, Section 2.4)

The layer can be constructed disabled (``filter_enabled=False``) to
reproduce Figure 4(c), where every compiler-inserted prefetch goes straight
to the OS and half the applications become slower than not prefetching at
all.

**Adaptive suppression** (``adaptive=True``) implements the paper's
Section 4.3.1 future-work proposal: "we can generate code that dynamically
adapts its behavior ... suppressing prefetches (after the cold faults have
been prefetched in) if the data fits within memory".  When a long run of
consecutive prefetch requests is entirely filtered (the data evidently
fits), the layer stops even checking the bit vector for a span of
requests, sampling occasionally so it re-engages the moment residency
changes.  Suppression only skips *hint* work; hints are non-binding, so
at worst a suppressed prefetch becomes an ordinary fault.
"""

from __future__ import annotations

from repro.config import PlatformConfig
from repro.obs.trace import TraceKind
from repro.sim.clock import Clock, TimeCategory
from repro.sim.stats import RunStats
from repro.vm.manager import MemoryManager
from repro.vm.residency import ResidencyBitVector

#: Consecutive fully-filtered requests before suppression engages.
SUPPRESS_AFTER = 1024
#: Requests skipped per suppression span (before fully re-evaluating).
SUPPRESS_SPAN = 8192
#: Within a span, every Nth request is still checked as a sample.
SAMPLE_EVERY = 64


class RuntimeLayer:
    """User-level prefetch filter in front of the OS hint interface."""

    def __init__(
        self,
        config: PlatformConfig,
        clock: Clock,
        manager: MemoryManager,
        stats: RunStats,
        filter_enabled: bool = True,
        adaptive: bool = False,
        observer=None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.manager = manager
        self.stats = stats
        #: Attached :class:`repro.obs.Observer`, or None (tracing off).
        self.obs = observer
        self.filter_enabled = filter_enabled
        #: Section 4.3.1 extension: suppress prefetching while everything
        #: is resident.
        self.adaptive = adaptive
        self._filtered_streak = 0
        self._suppressed_remaining = 0
        #: Attached :class:`repro.faults.inject.HintFaultState`, or None
        #: (the default: hint calls never fail).  Set by the machine when
        #: a fault plan with ``hint_failure_rate > 0`` is active.
        self.hint_faults = None
        self.bitvector = ResidencyBitVector(config.bitvector_granularity)
        # Register with the OS: wire the shared page into the memory
        # manager so the OS side sets bits on faults and clears them on
        # release / reclaim (paper: "Applications that prefetch are
        # required to register with the OS to initiate sharing").
        manager.bitvector = self.bitvector

    # ------------------------------------------------------------------
    # Adaptive suppression (Section 4.3.1 extension)
    # ------------------------------------------------------------------

    def _suppression_active(self, npages: int) -> bool:
        """Consume one request from the suppression state machine
        (adaptive layers only)."""
        if self._suppressed_remaining > 0:
            self._suppressed_remaining -= 1
            if self._suppressed_remaining % SAMPLE_EVERY == 0:
                return False  # sampled request: go through the filter
            self.stats.prefetch.suppressed += npages
            return True
        return False

    def _note_outcome(self, fully_filtered: bool) -> None:
        if fully_filtered:
            self._filtered_streak += 1
            if self._filtered_streak >= SUPPRESS_AFTER:
                self._suppressed_remaining = SUPPRESS_SPAN
                self._filtered_streak = 0
        else:
            # Residency changed: re-engage full filtering immediately.
            self._filtered_streak = 0
            self._suppressed_remaining = 0

    # ------------------------------------------------------------------
    # Hint-call fault injection (active only under a FaultPlan)
    # ------------------------------------------------------------------

    def _hint_gate(self, npages: int) -> bool:
        """Consume one request from the fallback state machine.

        False means the layer is degraded to plain demand paging for
        this request: no bit-vector check, no OS call.  Hints are
        non-binding, so skipping them is always safe -- the pages fault
        in on demand instead.
        """
        faults = self.hint_faults
        was_fallback = faults.in_fallback
        if not faults.gate():
            self.stats.robust.hints_skipped += npages
            return False
        if was_fallback and self.obs is not None:
            self.obs.emit(self.clock.now, TraceKind.HINT_FALLBACK,
                          -1, npages, 0.0, "reprobe")
        return True

    def _hint_call_fails(self, start_vpage: int, npages: int) -> bool:
        """Draw one failure at the OS boundary; charge the timeout if so."""
        faults = self.hint_faults
        if faults is None:
            return False
        if not faults.draw_failure():
            faults.note_success()
            return False
        # The failed call still costs a (timed-out) kernel crossing.
        self.clock.advance(faults.plan.hint_timeout_us, TimeCategory.SYS_PREFETCH)
        self.stats.robust.hint_failures += 1
        if self.obs is not None:
            self.obs.emit(self.clock.now, TraceKind.HINT_FAILED,
                          start_vpage, npages)
        if faults.note_failure():
            self.stats.robust.fallback_episodes += 1
            if self.obs is not None:
                self.obs.emit(self.clock.now, TraceKind.HINT_FALLBACK,
                              start_vpage, npages, 0.0, "enter")
        return True

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------

    def _filter(self, start_vpage: int, npages: int) -> int:
        """Test bits "until one is found that is not in memory".

        Charges one filter check per bit tested, counts and reports the
        leading believed-resident pages as filtered, and returns how
        many there are: ``npages`` means the whole request is dropped.
        """
        test = self.bitvector.test
        leading = 0
        while leading < npages and test(start_vpage + leading):
            leading += 1
        # One check per bit tested: the leading set bits and the clear one.
        self.clock.advance(
            self.config.cost.filter_check_us * min(leading + 1, npages),
            TimeCategory.USER_OVERHEAD,
        )
        self.stats.prefetch.filtered += leading
        if leading and self.obs is not None:
            self.obs.emit(self.clock.now, TraceKind.PREFETCH_FILTERED,
                          start_vpage, leading)
        return leading

    def prefetch(self, start_vpage: int, npages: int = 1) -> None:
        """Handle one compiler-inserted prefetch request."""
        self.stats.prefetch.compiler_inserted += npages
        self.clock.advance(self.config.cost.addr_gen_us, TimeCategory.USER_OVERHEAD)
        if self.hint_faults is not None and not self._hint_gate(npages):
            return
        if self.filter_enabled:
            if self.adaptive and self._suppression_active(npages):
                if self.obs is not None:
                    self.obs.emit(self.clock.now, TraceKind.PREFETCH_SUPPRESSED,
                                  start_vpage, npages)
                return
            leading = self._filter(start_vpage, npages)
            if self.adaptive:
                self._note_outcome(fully_filtered=leading == npages)
            if leading == npages:
                return
            start_vpage += leading
            npages -= leading
        if self._hint_call_fails(start_vpage, npages):
            return
        self.manager.prefetch_call(start_vpage, npages)

    def prefetch_release(
        self, start_vpage: int, npages: int, release_vpages: list[int]
    ) -> None:
        """Handle a bundled prefetch+release request (Figure 2(b)).

        The release part must always reach the OS (only the OS can move
        pages to the free list), but if the prefetch part is entirely
        filtered the call degenerates to a plain release.
        """
        self.stats.prefetch.compiler_inserted += npages
        self.clock.advance(self.config.cost.addr_gen_us, TimeCategory.USER_OVERHEAD)
        if self.hint_faults is not None and not self._hint_gate(npages):
            # Only the prefetch half degrades; the release must still
            # reach the OS (only the OS can free the frames).
            self.manager.release_call(release_vpages)
            return
        if self.filter_enabled:
            leading = self._filter(start_vpage, npages)
            if leading == npages:
                self.manager.release_call(release_vpages)
                return
            start_vpage += leading
            npages -= leading
        if self._hint_call_fails(start_vpage, npages):
            self.manager.release_call(release_vpages)
            return
        self.manager.prefetch_release_call(start_vpage, npages, release_vpages)

    # ------------------------------------------------------------------
    # Release path
    # ------------------------------------------------------------------

    def release(self, vpages: list[int]) -> None:
        """Handle one compiler-inserted release request."""
        self.clock.advance(self.config.cost.addr_gen_us, TimeCategory.USER_OVERHEAD)
        self.manager.release_call(vpages)
