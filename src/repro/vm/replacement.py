"""Clock (second-chance) LRU approximation.

Most commercial operating systems of the paper's era -- and Hurricane --
approximate LRU with a clock algorithm; the paper leans on this ("most
commercial operating systems use an approximation of LRU replacement",
Section 2.1).  Resident pages sit on a circular list; the hand clears
reference bits until it finds an unreferenced page, which becomes the
victim.

The implementation uses lazy deletion: pages that leave residency (release,
eviction, reclaim-then-re-release) simply leave stale entries behind, which
the hand discards when it reaches them.  Each insertion stamps the page
with a fresh token so stale entries are recognizable.  The ring holds
``(vpage, token)`` pairs; the reference bit, state and current token are
read from the manager's :class:`~repro.vm.page.PageColumns`.
"""

from __future__ import annotations

from collections import deque

from repro.errors import MachineError
from repro.vm.page import RESIDENT, PageColumns


class ClockRing:
    """Circular list of resident pages with second-chance eviction."""

    __slots__ = ("cols", "_ring", "_live")

    def __init__(self, cols: PageColumns) -> None:
        #: The page store the ring's entries index (its buffers are read
        #: afresh on every call: growth replaces them).
        self.cols = cols
        self._ring: deque[tuple[int, int]] = deque()
        #: Number of non-stale entries (for diagnostics / invariants).
        self._live = 0

    def insert(self, vpage: int) -> None:
        """Add a newly resident page behind the hand (with a new token)."""
        cols = self.cols
        token = cols.ring_token[vpage] + 1
        cols.ring_token[vpage] = token
        cols.ref[vpage] = 1
        self._ring.append((vpage, token))
        self._live += 1

    def forget(self, vpage: int) -> None:
        """Mark a page's ring entry stale (it left residency)."""
        self.cols.ring_token[vpage] += 1
        self._live -= 1

    def select_victim(self) -> int | None:
        """Run the clock hand; returns the victim or None if ring empty.

        The victim is removed from the ring; the caller completes the
        eviction (write-back, state change).
        """
        ring = self._ring
        cols = self.cols
        tokens, state, ref = cols.ring_token, cols.state, cols.ref
        # Each live entry is touched at most twice (ref bit cleared once),
        # so 2 * len(ring) + stale entries bounds the scan.
        scans = 2 * len(ring) + 1
        while ring and scans > 0:
            scans -= 1
            vpage, token = ring.popleft()
            if tokens[vpage] != token or state[vpage] != RESIDENT:
                continue  # stale entry: drop it
            if ref[vpage]:
                ref[vpage] = 0
                ring.append((vpage, token))
                continue
            # Unreferenced resident page: the victim.
            self._live -= 1
            tokens[vpage] = token + 1
            return vpage
        if self._live > 0 and ring:
            raise MachineError("clock hand failed to find a victim among live pages")
        return None

    @property
    def live_count(self) -> int:
        return self._live

    def __len__(self) -> int:
        return len(self._ring)
