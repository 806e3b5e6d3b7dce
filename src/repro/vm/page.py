"""Per-page state, one column per field.

The states form the life cycle::

    ON_DISK --fault--> RESIDENT
    ON_DISK --prefetch--> IN_TRANSIT --first touch / settle--> RESIDENT
    RESIDENT --release--> FREELIST --reclaim--> RESIDENT
    RESIDENT --eviction--> ON_DISK
    FREELIST --frame stolen--> ON_DISK

``prefetched_pending`` records that a prefetch was issued for the page
since it was last resident; if the page nevertheless faults, the fault is
classified *prefetched fault* (paper Figure 4(a)).

There is no per-page object.  Every field of every page lives in one
:class:`PageColumns` store indexed by virtual page number -- the paper's
own layout for residency, "a bit vector with each bit representing one
or more contiguous pages" (Section 2.4), extended to every field.  The
flags are ``bytearray`` columns and the numbers ``array.array`` columns,
so the memory manager and the scalar event loop read and write single
items at plain-buffer cost, while the chunk kernel gathers and scatters
whole segments through a numpy view of the same memory.  A page never
touched reads as a fresh ON_DISK page (every column zero).
"""

from __future__ import annotations

import enum
from array import array

import numpy as np


class PageState(enum.IntEnum):
    """Residency state of one virtual page."""

    ON_DISK = 0
    IN_TRANSIT = 1
    RESIDENT = 2
    FREELIST = 3


#: The states as plain ints, for column reads and writes (an ``int``
#: compares several times faster than an enum member lookup).
ON_DISK, IN_TRANSIT, RESIDENT, FREELIST = (int(state) for state in PageState)

#: Column name -> ``array`` typecode; ``"B"`` columns are ``bytearray``s.
COLUMNS = {
    "state": "B",
    #: The current/last arrival was caused by a prefetch.
    "via_prefetch": "B",
    #: The application has touched the page since its arrival.
    "used_since_arrival": "B",
    #: A prefetch was issued since the page last left memory.
    "prefetched_pending": "B",
    #: Clock reference bit.
    "ref": "B",
    "dirty": "B",
    #: The manager has created the page (it is on the first-touch list).
    "known": "B",
    #: Completion time of the in-flight read while IN_TRANSIT.
    "arrival_us": "d",
    #: Insertion token for lazy deletion in the clock ring.
    "ring_token": "q",
}
_DTYPES = {"B": np.uint8, "d": np.float64, "q": np.int64}
_INITIAL_CAPACITY = 1024


class PageColumns:
    """Columnar store for every per-page field.

    Each column named in :data:`COLUMNS` is an attribute holding its
    buffer, with a numpy view of the same memory under ``<name>_view``.
    Growth (:meth:`ensure`) allocates new buffers and rebuilds every
    view, so a caller that holds a buffer or view across a call that can
    create pages must re-read it afterwards.  ``order`` is the
    first-touch list: every page the manager has created, in creation
    order; ``top`` is one past the highest of them.  Each column is read
    by the store, the manager, the clock ring or a chunk path;
    docs/performance.md lists every column with its readers.
    """

    __slots__ = (*COLUMNS, *(f"{name}_view" for name in COLUMNS),
                 "capacity", "order", "top")

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        self._allocate(max(1, capacity))
        self.order = array("q")
        self.top = 0

    def _allocate(self, capacity: int) -> None:
        """Fresh all-zero columns of ``capacity`` pages, with their views."""
        for name, code in COLUMNS.items():
            column = (bytearray(capacity) if code == "B"
                      else array(code, bytes(8 * capacity)))
            setattr(self, name, column)
            setattr(self, f"{name}_view", np.frombuffer(column, _DTYPES[code]))
        self.capacity = capacity

    def ensure(self, vpage: int) -> None:
        """Grow every column to cover ``vpage``."""
        if vpage >= self.capacity:
            old = [getattr(self, f"{name}_view") for name in COLUMNS]
            self._allocate(max(vpage + 1, 2 * self.capacity))
            for name, view in zip(COLUMNS, old):
                getattr(self, f"{name}_view")[: len(view)] = view

    def create(self, vpage: int) -> None:
        """Record the manager's first touch of ``vpage`` (idempotent)."""
        if vpage >= self.capacity:
            self.ensure(vpage)
        if not self.known[vpage]:
            self.known[vpage] = 1
            self.order.append(vpage)
            if vpage >= self.top:
                self.top = vpage + 1

    # A snapshot carries each column's raw bytes up to the highest page
    # created -- every page above it is all zeros -- and no views.

    def __getstate__(self) -> tuple:
        top = self.top
        return (top, self.order.tobytes(),
                b"".join(memoryview(getattr(self, name))[:top]
                         for name in COLUMNS))

    def __setstate__(self, state: tuple) -> None:
        top, order, blob = state
        self._allocate(max(top, _INITIAL_CAPACITY))
        offset = 0
        for name, code in COLUMNS.items():
            column = np.frombuffer(blob, _DTYPES[code], top, offset)
            getattr(self, f"{name}_view")[:top] = column
            offset += column.nbytes
        self.order = array("q", order)
        self.top = top
