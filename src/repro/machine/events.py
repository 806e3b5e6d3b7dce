"""Event-kind encoding for the machine's chunk protocol.

The interpreter lowers innermost loops into *chunks*: parallel lists of
(kind, page, compute-cost) triples that the machine replays in one tight
loop.  Kinds are plain ints (not enum members) in the hot path; the
:class:`EventKind` enum is the readable face of the same values.  A
chunk holds kinds 0..3; a *tape* (a run of interpreter steps replayed in
one call) may also hold :data:`PREFETCH_HINT`.
"""

from __future__ import annotations

import enum


class EventKind(enum.IntEnum):
    """What one chunk event does."""

    #: Demand read of a page.
    READ = 0
    #: Demand write of a page (read-modify-write collapses to this).
    WRITE = 1
    #: Single-page compiler-inserted prefetch (indirect references).
    PREFETCH = 2
    #: Single-page release.
    RELEASE = 3
    #: A single-page prefetch hint step on a tape: charged as
    #: ``RuntimeLayer.prefetch`` charges it, whatever the run's filter.
    PREFETCH_HINT = 4


READ = int(EventKind.READ)
WRITE = int(EventKind.WRITE)
PREFETCH = int(EventKind.PREFETCH)
RELEASE = int(EventKind.RELEASE)
PREFETCH_HINT = int(EventKind.PREFETCH_HINT)
