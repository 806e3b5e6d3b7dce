"""Paged virtual memory substrate.

Models the paper's (Hurricane's) memory management as extended in Section
2.4: demand paging with clock-LRU replacement, a free list, dirty-page
write-back, and the two new non-binding hint operations -- ``prefetch``
(dropped when all memory is in use) and ``release`` (moves a page to the
free list, scheduling its write-back if dirty).  Per-page state is
columnar (:class:`PageColumns`): pages are virtual page numbers, not
objects.
"""

from repro.vm.manager import AccessOutcome, MemoryManager
from repro.vm.page import PageColumns, PageState
from repro.vm.page_table import AddressSpace, Segment
from repro.vm.frames import FramePool
from repro.vm.replacement import ClockRing

__all__ = [
    "PageColumns",
    "PageState",
    "AddressSpace",
    "Segment",
    "FramePool",
    "ClockRing",
    "MemoryManager",
    "AccessOutcome",
]
