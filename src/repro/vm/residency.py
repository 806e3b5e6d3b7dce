"""The per-page flag array: the shared bit vector and the fast-access mask.

"The shared page is used as a bit vector with each bit representing one or
more contiguous pages of the application's virtual memory space (a set bit
indicates that the corresponding page is in memory).  The granularity of
the bit vector is determined by the run-time layer at program start-up.
Bits are set by the run-time layer when a prefetch request is issued, and
by the OS when non-prefetched page faults occur.  The OS also clears bits
when release requests are issued and when the memory manager reclaims
pages." (paper, Section 2.4)

At granularity > 1 the vector is deliberately *approximate*, exactly as a
real shared page would be: evicting one page of a group clears the whole
group's bit, so the filter errs toward issuing (correct but slower), while
a resident sibling can mask a non-resident page, in which case the dropped
prefetch simply shows up later as an ordinary fault.  Hints are
non-binding, so neither error affects correctness.

The memory manager keeps a second instance at granularity 1 as the chunk
kernel's *fast-access mask*: a flag is set exactly when::

    page.state == RESIDENT and (page.used_since_arrival or not page.via_prefetch)

Such a page can be read or written without entering the memory manager
at all.  The manager updates the mask at every state transition that
changes the predicate (enumerated in docs/performance.md).

Both are one byte per bit in a growable numpy ``uint8`` array, so the
vectorized hot path of :meth:`repro.machine.machine.Machine.run_chunk`
classifies a whole window of events by gathering from :attr:`raw` after
:meth:`reserve` has grown the array past the window's largest page.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


class ResidencyBitVector:
    """Auto-growing bit vector over virtual pages, ``granularity`` pages/bit."""

    __slots__ = ("granularity", "_bits", "drops")

    def __init__(self, granularity: int = 1) -> None:
        if granularity <= 0:
            raise ConfigError(f"bit-vector granularity must be positive, got {granularity}")
        self.granularity = granularity
        self._bits = np.zeros(1024, dtype=np.uint8)
        #: Count of 1 -> 0 bit transitions.  The chunk kernel snapshots
        #: this around each slow call: while it is unchanged, previously
        #: computed classifications can only have become *pessimistic*
        #: (bits turning on), never wrong.
        self.drops = 0

    def _ensure(self, index: int) -> None:
        if index >= len(self._bits):
            grown = np.zeros(max(index + 1, 2 * len(self._bits)), dtype=np.uint8)
            grown[: len(self._bits)] = self._bits
            self._bits = grown

    def set(self, vpage: int) -> None:
        """``vpage`` is (becoming) resident, or turned fast."""
        index = vpage // self.granularity
        self._ensure(index)
        self._bits[index] = 1

    def clear(self, vpage: int) -> None:
        """``vpage`` left memory, or lost fast status."""
        index = vpage // self.granularity
        if index < len(self._bits):
            if self._bits[index]:
                self.drops += 1
            self._bits[index] = 0

    def test(self, vpage: int) -> bool:
        """Is ``vpage``'s bit set?"""
        index = vpage // self.granularity
        if index < len(self._bits):
            return bool(self._bits[index])
        return False

    def reserve(self, vpage: int) -> np.ndarray:
        """Grow to cover ``vpage``'s bit and return the raw bit array.

        Lets the chunk kernel test a whole window with a direct gather
        (``bits[index] != 0``) instead of per-call bounds handling.
        """
        self._ensure(vpage // self.granularity)
        return self._bits

    @property
    def raw(self) -> np.ndarray:
        """The raw bit array (re-read after any call that may grow it)."""
        return self._bits
