"""Per-page metadata.

Each virtual page the application ever touches gets one :class:`Page`
record.  The states form the life cycle::

    ON_DISK --fault--> RESIDENT
    ON_DISK --prefetch--> IN_TRANSIT --first touch / settle--> RESIDENT
    RESIDENT --release--> FREELIST --reclaim--> RESIDENT
    RESIDENT --eviction--> ON_DISK
    FREELIST --frame stolen--> ON_DISK

``prefetched_pending`` records that a prefetch was issued for the page
since it was last resident; if the page nevertheless faults, the fault is
classified *prefetched fault* (paper Figure 4(a)).

The three fields the chunk kernel updates in bulk -- the reference bit,
the dirty bit, and the write-version counter -- live in a columnar
:class:`PageColumns` store (one numpy array per field, indexed by virtual
page number) rather than on the :class:`Page` objects themselves.  The
vectorized hot path of :meth:`repro.machine.machine.Machine.run_chunk`
applies a whole fast segment's page effects with three array scatters
instead of one Python attribute write per event; the scalar paths are
unchanged because ``Page`` exposes the same fields as properties over
the shared columns.
"""

from __future__ import annotations

import enum

import numpy as np


class PageState(enum.IntEnum):
    """Residency state of one virtual page."""

    ON_DISK = 0
    IN_TRANSIT = 1
    RESIDENT = 2
    FREELIST = 3


class PageColumns:
    """Columnar store for the bulk-updated page fields.

    One auto-growing array per field, indexed by virtual page number.
    The memory manager owns one instance shared by all of its pages;
    ``ensure`` must cover a page number before any property touches it
    (the manager guarantees this on page creation, the chunk kernel per
    chunk).  References to the arrays go stale across ``ensure`` growth,
    so bulk users re-read them after any call that can create pages.
    """

    __slots__ = ("ref", "dirty", "version")

    def __init__(self, capacity: int = 1024) -> None:
        self.ref = np.zeros(max(1, capacity), dtype=np.uint8)
        self.dirty = np.zeros(max(1, capacity), dtype=np.uint8)
        self.version = np.zeros(max(1, capacity), dtype=np.int64)

    def ensure(self, vpage: int) -> None:
        """Grow every column to cover ``vpage``."""
        if vpage >= len(self.ref):
            cap = max(vpage + 1, 2 * len(self.ref))
            for name in self.__slots__:
                old = getattr(self, name)
                grown = np.zeros(cap, dtype=old.dtype)
                grown[: len(old)] = old
                setattr(self, name, grown)


class Page:
    """Mutable per-page record (kept intentionally small: hot path)."""

    __slots__ = (
        "vpage",
        "state",
        "arrival_us",
        "via_prefetch",
        "used_since_arrival",
        "prefetched_pending",
        "ring_token",
        "cols",
    )

    def __init__(self, vpage: int, cols: PageColumns | None = None) -> None:
        if cols is None:
            # Standalone page (unit tests): private one-page store.
            cols = PageColumns(vpage + 1)
        self.vpage = vpage
        self.cols = cols
        self.state = PageState.ON_DISK
        #: Completion time of the in-flight read while IN_TRANSIT.
        self.arrival_us = 0.0
        #: True if the current/last arrival was caused by a prefetch.
        self.via_prefetch = False
        #: True once the application has touched the page after arrival.
        self.used_since_arrival = False
        #: A prefetch was issued since the page last left memory.
        self.prefetched_pending = False
        #: Insertion token for lazy deletion in the clock ring.
        self.ring_token = 0

    # A snapshot pickles every page: a tuple state spares each slot name
    # a memo fetch in the payload.
    def __getstate__(self) -> tuple:
        return (self.vpage, self.state, self.arrival_us, self.via_prefetch,
                self.used_since_arrival, self.prefetched_pending,
                self.ring_token, self.cols)

    def __setstate__(self, state: tuple) -> None:
        (self.vpage, self.state, self.arrival_us, self.via_prefetch,
         self.used_since_arrival, self.prefetched_pending, self.ring_token,
         self.cols) = state

    # Columnar fields: same read/write semantics as plain attributes,
    # backed by the shared arrays so the chunk kernel can update whole
    # segments at once.

    @property
    def dirty(self) -> bool:
        return bool(self.cols.dirty[self.vpage])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self.cols.dirty[self.vpage] = value

    @property
    def ref_bit(self) -> bool:
        return bool(self.cols.ref[self.vpage])

    @ref_bit.setter
    def ref_bit(self, value: bool) -> None:
        self.cols.ref[self.vpage] = value

    @property
    def version(self) -> int:
        """Write-version counter, used to detect the stale reads that
        *binding* prefetches would produce (the paper's Figure 1)."""
        return int(self.cols.version[self.vpage])

    @version.setter
    def version(self, value: int) -> None:
        self.cols.version[self.vpage] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Page({self.vpage}, {self.state.name}, dirty={self.dirty})"
