"""Virtual address space layout and the page table.

The programmer's abstraction in the paper is unlimited virtual memory: each
out-of-core array is simply a mapped segment whose pages come from disk.
:class:`AddressSpace` hands out page-aligned segments (one per array); the
page-table proper is the memory manager's columnar page store
(:class:`~repro.vm.page.PageColumns`), indexed by virtual page number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError


@dataclass(frozen=True)
class Segment:
    """One mapped array: ``nbytes`` bytes starting at ``base`` (page aligned)."""

    name: str
    base: int
    nbytes: int
    npages: int


class AddressSpace:
    """Allocates page-aligned segments, one per array."""

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._segments: dict[str, Segment] = {}
        # Leave page 0 unmapped so that address 0 is never valid.
        self._next_page = 1

    def map_segment(self, name: str, nbytes: int) -> Segment:
        """Map a new segment of ``nbytes`` bytes; returns its descriptor.

        Segments are padded to whole pages and separated by one guard page
        so that a block prefetch running off an array end is detectable.
        """
        if name in self._segments:
            raise MachineError(f"segment {name!r} already mapped")
        if nbytes <= 0:
            raise MachineError(f"segment {name!r} must have positive size, got {nbytes}")
        npages = -(-nbytes // self.page_size)
        seg = Segment(name, self._next_page * self.page_size, nbytes, npages)
        self._next_page += npages + 1  # +1 guard page
        self._segments[name] = seg
        return seg

    def segment(self, name: str) -> Segment:
        try:
            return self._segments[name]
        except KeyError:
            raise MachineError(f"no segment named {name!r}") from None
