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

    state[v] == RESIDENT and (used_since_arrival[v] or not via_prefetch[v])

over the columns of :class:`~repro.vm.page.PageColumns`.  Such a page
can be read or written without entering the memory manager at all.  The
manager updates the mask at every state transition that changes the
predicate (enumerated in docs/performance.md).

Both are one byte per bit in a growable ``bytearray``.  ``test`` and
the scalar event loop index the bytes directly; the vectorized hot path
of :meth:`repro.machine.machine.Machine.run_chunk` classifies a whole
window of events by gathering from :attr:`raw`, a numpy view of the same
memory, after :meth:`reserve` has grown the array past the window's
largest page.  Growth allocates a new buffer and view, so holders of
either re-read them after any call that may grow the array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

_INITIAL_BITS = 1024


class ResidencyBitVector:
    """Auto-growing bit vector over virtual pages, ``granularity`` pages/bit."""

    __slots__ = ("granularity", "bits", "raw", "drops")

    def __init__(self, granularity: int = 1) -> None:
        if granularity <= 0:
            raise ConfigError(f"bit-vector granularity must be positive, got {granularity}")
        self.granularity = granularity
        self._adopt(bytearray(_INITIAL_BITS))
        #: Count of 1 -> 0 bit transitions.  The chunk kernel snapshots
        #: this around each slow call: while it is unchanged, previously
        #: computed classifications can only have become *pessimistic*
        #: (bits turning on), never wrong.
        self.drops = 0

    def _adopt(self, bits: bytearray) -> None:
        #: One byte per bit.
        self.bits = bits
        #: The same bytes as a numpy ``uint8`` array, for bulk gathers.
        self.raw = np.frombuffer(bits, dtype=np.uint8)

    def _ensure(self, index: int) -> None:
        if index >= len(self.bits):
            grown = bytearray(max(index + 1, 2 * len(self.bits)))
            grown[: len(self.bits)] = self.bits
            self._adopt(grown)

    def set(self, vpage: int) -> None:
        """``vpage`` is (becoming) resident, or turned fast."""
        index = vpage // self.granularity
        self._ensure(index)
        self.bits[index] = 1

    def clear(self, vpage: int) -> None:
        """``vpage`` left memory, or lost fast status."""
        index = vpage // self.granularity
        bits = self.bits
        if index < len(bits) and bits[index]:
            self.drops += 1
            bits[index] = 0

    def test(self, vpage: int) -> bool:
        """Is ``vpage``'s bit set?"""
        index = vpage // self.granularity
        bits = self.bits
        return index < len(bits) and bits[index] != 0

    def reserve(self, vpage: int) -> None:
        """Grow to cover ``vpage``'s bit.

        Lets the chunk kernel test a whole window with a direct gather
        (``raw[index] != 0``), and the scalar loop index :attr:`bits`,
        with no per-event bounds handling.
        """
        self._ensure(vpage // self.granularity)

    # A snapshot carries the bytes up to the last set bit: the rest are
    # zeros, which a shorter array reads the same way.

    def __getstate__(self) -> tuple:
        return self.granularity, bytes(self.bits).rstrip(b"\0"), self.drops

    def __setstate__(self, state: tuple) -> None:
        self.granularity, data, self.drops = state
        bits = bytearray(max(len(data), _INITIAL_BITS))
        bits[: len(data)] = data
        self._adopt(bits)
