"""Vectorized lowering of leaf loops into event chunks.

A *leaf* loop is one whose body is a flat sequence of work statements and
single-page hints -- exactly what the innermost loops of both the original
and the strip-mined transformed programs look like.  For such loops the
interpreter does not iterate in Python: numpy evaluates every reference's
page number across the whole iteration range at once, interleaves the
columns in program order, collapses consecutive same-page accesses (a run
of accesses to one page is one access plus bulk compute time -- the page
cannot leave memory while nothing else is touched), and hands the machine
one compact chunk.

This is what makes simulating hundreds of thousands of iterations per
second feasible while keeping *every* fault, prefetch, and filter decision
exact: only provably-hit events are batched.

Numpy's per-call setup, not the events, dominates short leaves, so
:func:`lower_leaf` also lowers several executions of one leaf in one
pass (the executor batches a loop's leaf children this way).  A run
boundary is forced at each execution's first event and no remainder
carries across it, so every execution's slice of the result is bitwise
what lowering it alone returns: one execution with a merge is lowered
as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ir.arrays import ArrayDecl
from repro.core.ir.expr import Const
from repro.core.ir.nodes import Hint, HintKind, Loop, Work
from repro.errors import AddressError, ExecutionError
from repro.machine.events import PREFETCH, READ, RELEASE, WRITE


@dataclass(slots=True)
class EventTemplate:
    """One column of the chunk matrix: a ref or hint inside the leaf body."""

    kind: int
    array: ArrayDecl
    indices: tuple
    #: Compute time charged before this event (first event of the
    #: iteration carries the whole iteration's cost).
    pre_cost: float


@dataclass(slots=True)
class LeafRecipe:
    """Pre-analyzed lowering of one leaf loop body."""

    templates: list[EventTemplate]
    iter_cost: float
    #: Per-iteration-count cache of the data-independent chunk columns
    #: (kinds, cost template, merge masks); see :func:`lower_leaf`.
    cache: dict = field(default_factory=dict)


def analyze_leaf(loop: Loop) -> LeafRecipe | None:
    """Classify a loop as leaf-vectorizable; None if it is not.

    Leaf bodies contain only :class:`Work` statements and single-page
    prefetch/release hints (the per-iteration indirect hints and the
    indirect prolog loops).  Block hints and nested loops disqualify.
    """
    templates: list[EventTemplate] = []
    iter_cost = 0.0
    pending_cost = 0.0
    for stmt in loop.body:
        if isinstance(stmt, Work):
            pending_cost += stmt.cost_us
            iter_cost += stmt.cost_us
            for ref in stmt.refs:
                templates.append(
                    EventTemplate(
                        kind=WRITE if ref.is_write else READ,
                        array=ref.array,
                        indices=ref.indices,
                        pre_cost=pending_cost,
                    )
                )
                pending_cost = 0.0
        elif isinstance(stmt, Hint):
            if stmt.kind is HintKind.PREFETCH:
                if not (isinstance(stmt.npages, Const) and stmt.npages.value == 1):
                    return None
                templates.append(
                    EventTemplate(
                        kind=PREFETCH,
                        array=stmt.target.array,
                        indices=stmt.target.indices,
                        pre_cost=pending_cost,
                    )
                )
                pending_cost = 0.0
            elif stmt.kind is HintKind.RELEASE:
                if not (
                    isinstance(stmt.release_npages, Const)
                    and stmt.release_npages.value == 1
                ):
                    return None
                templates.append(
                    EventTemplate(
                        kind=RELEASE,
                        array=stmt.release_target.array,
                        indices=stmt.release_target.indices,
                        pre_cost=pending_cost,
                    )
                )
                pending_cost = 0.0
            else:
                return None  # bundled hints take the scalar path
        else:
            return None  # nested loop or If: not a leaf
    if pending_cost and templates:
        # Trailing cost with no event to carry it: fold into the first
        # event so totals stay exact (order within an iteration does not
        # affect simulated interleaving at this granularity).
        templates[0].pre_cost += pending_cost
    return LeafRecipe(templates=templates, iter_cost=iter_cost)


#: An execution with at most this many merged-away events and no run
#: longer than this sums its runs as :func:`_near_singleton_sums` does.
_NEAR_SINGLETON = 64


def _columns(recipe: LeafRecipe, n: int) -> tuple:
    """The chunk columns that do not depend on page numbers, for ``n``
    iterations: the interleaved kinds, the per-event cost template, the
    access-after-access merge mask, and the write flags with their
    running count (a run collapses to WRITE exactly when it contains a
    write, so the merged-run kind takes two gathers instead of a
    reduceat over the flat array)."""
    ncols = len(recipe.templates)
    kinds_row = np.array([t.kind for t in recipe.templates], dtype=np.int64)
    flat_kinds = np.tile(kinds_row, n)
    flat_costs = np.zeros(n * ncols, dtype=np.float64)
    col_costs = np.array([t.pre_cost for t in recipe.templates],
                         dtype=np.float64)
    flat_costs.reshape(n, ncols)[:, :] = col_costs
    is_access = flat_kinds <= WRITE
    acc_and_prev = np.empty(n * ncols, dtype=bool)
    acc_and_prev[0] = False
    acc_and_prev[1:] = is_access[:-1] & is_access[1:]
    is_write = flat_kinds == WRITE
    write_csum = np.cumsum(is_write)
    return flat_kinds, flat_costs, acc_and_prev, is_write, write_csum


def _page_columns(
    recipe: LeafRecipe,
    loop_var: str,
    values: np.ndarray,
    env: dict,
    page_size: int,
    segments: dict[str, tuple[int, int]],
    strides_map: dict[str, tuple[int, ...]],
) -> np.ndarray:
    """Every event's page, iteration-major; raises :class:`AddressError`
    when a work access leaves its segment."""
    pages = np.empty((len(values), len(recipe.templates)), dtype=np.int64)
    for col, tmpl in enumerate(recipe.templates):
        array = tmpl.array
        base, nbytes = segments[array.name]
        strides = strides_map[array.name]
        linear: np.ndarray | int = 0
        for ix, stride in zip(tmpl.indices, strides):
            linear = linear + ix.eval_vec(env, loop_var, values) * stride
        addr = base + linear * array.elem_size
        if tmpl.kind <= WRITE:
            low = addr.min() if isinstance(addr, np.ndarray) else addr
            high = addr.max() if isinstance(addr, np.ndarray) else addr
            if low < base or high >= base + nbytes:
                raise AddressError(
                    f"reference to {array.name!r} runs outside its segment "
                    f"(addresses [{low}, {high}], segment [{base}, {base + nbytes}))"
                )
        pages[:, col] = addr // page_size
    return pages.reshape(-1)


def lower_leaf(
    recipe: LeafRecipe,
    loop_var: str,
    values: np.ndarray,
    env: dict,
    page_size: int,
    segments: dict[str, tuple[int, int]],
    strides_map: dict[str, tuple[int, ...]],
    sizes: list[int] | None = None,
) -> tuple:
    """Materialize the chunk of one or more executions of a leaf loop.

    ``segments`` maps array names to their (base, nbytes); every work
    access is bounds-checked against its segment, and hint events whose
    clamped addresses stay in range by construction are passed through.
    ``strides_map`` holds each array's resolved row-major element strides.

    With ``sizes`` None, ``values`` is one execution's iteration range
    and the result is parallel ``(kinds, pages, costs)`` numpy arrays
    plus the tail compute time left over after the final event; the
    arrays join a tape's columns without conversion.

    Otherwise ``values`` concatenates several executions' ranges,
    ``sizes`` holds each one's (positive) iteration count, and ``env``
    may bind enclosing loop variables to arrays parallel to ``values``.
    The result is ``(kinds, pages, costs, tails, ends)``: execution
    ``i``'s chunk is ``[ends[i - 1], ends[i])`` of the three arrays and
    its tail is ``tails[i]``.  Every execution's first event starts a
    run and no remainder carries into it, so each execution's slice is
    bitwise what lowering it alone returns: one execution with a merge
    is lowered as a batch of one, and its runs sum as a batch's do
    (see :func:`_near_singleton_sums`).
    """
    n = len(values)
    ncols = len(recipe.templates)
    if n == 0 or ncols == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i, np.empty(0, dtype=np.float64), 0.0

    flat_pages = _page_columns(recipe, loop_var, values, env, page_size,
                               segments, strides_map)
    alone = sizes is None
    if alone:
        # The page-independent columns are identical for every strip of
        # the same length, so they are computed once per (recipe, n) and
        # reused across the loop's whole execution.  A batch of one
        # leaves them as they are: its first event starts no merge.
        cached = recipe.cache.get(n)
        if cached is None:
            cached = _columns(recipe, n)
            if len(recipe.cache) >= 4:  # strips come in at most a couple lengths
                recipe.cache.clear()
            recipe.cache[n] = cached
        sizes = (n,)
    else:
        cached = _columns(recipe, n)
    flat_kinds, flat_costs, acc_and_prev, is_write, write_csum = cached
    counts = np.asarray(sizes, dtype=np.int64)
    first_events = (np.cumsum(counts) - counts) * ncols
    if not alone:
        # Each execution's first event starts a run: no run crosses two.
        acc_and_prev[first_events] = False

    # Collapse consecutive same-page access runs.  Hints never collapse
    # (each must reach the filter), and an access never merges across a
    # hint boundary.
    mergeable = np.empty(n * ncols, dtype=bool)
    mergeable[0] = False
    np.equal(flat_pages[1:], flat_pages[:-1], out=mergeable[1:])
    mergeable &= acc_and_prev
    starts = (~mergeable).nonzero()[0]
    total = n * ncols
    ngroups = len(starts)

    if alone and ngroups == total:
        # No merges at all: the flat columns *are* the chunk.  The cached
        # kinds/costs arrays are returned directly -- every consumer
        # treats them as read-only -- and every run's remainder is zero,
        # so there is no tail.
        return flat_kinds, flat_pages, flat_costs, 0.0

    group_pages = flat_pages[starts]
    # A merged run's kind: WRITE if the run contains any write, else the
    # run's first kind (hints never merge, so a hint run is a singleton
    # and keeps its own kind).  Counting writes per run from the cached
    # running sum is exact integer math.
    ends1 = np.empty(ngroups, dtype=np.int64)
    np.subtract(starts[1:], 1, out=ends1[:-1])
    ends1[-1] = total - 1
    run_writes = write_csum[ends1] - write_csum[starts] + is_write[starts]
    group_kinds = np.where(run_writes > 0, WRITE, flat_kinds[starts])
    # Cost attribution must preserve event timing: only the compute that
    # precedes a run's *first* access happens before the merged event; the
    # rest of the run's compute happens after it (before the next event),
    # and the final run's tail is charged after the chunk.
    group_sums = np.add.reduceat(flat_costs, starts)
    firsts = np.searchsorted(starts, first_events)  # first run of each
    ends = np.append(firsts[1:], ngroups)
    _near_singleton_sums(group_sums, flat_costs, starts, firsts, ends,
                         counts * ncols, total)
    costs = flat_costs[starts]
    remainders = group_sums - costs
    # Each execution's tail is its last run's remainder, and its first
    # run carries nothing in from the execution before.
    tails = remainders[ends - 1].tolist()
    remainders[ends[:-1] - 1] = 0.0
    costs[1:] += remainders[:-1]
    if alone:
        return group_kinds, group_pages, costs, tails[0]
    return group_kinds, group_pages, costs, tails, ends.tolist()


def _near_singleton_sums(group_sums: np.ndarray, flat_costs: np.ndarray,
                         starts: np.ndarray, firsts: np.ndarray,
                         ends: np.ndarray, events: np.ndarray,
                         total: int) -> None:
    """Re-sum, in place, the runs of every *near-singleton* execution
    with ``np.add.reduce``, where ``group_sums`` holds each run's
    ``np.add.reduceat`` sum.

    An execution is near-singleton (say a data-dependent access stream
    that rarely repeats a page) when at most :data:`_NEAR_SINGLETON` of
    its events merge away and no run is longer than that.  Its runs of
    three or more events are summed here, one 2-D reduce per run length
    (row by row, the same reduction as ``np.add.reduce`` over each
    run's slice); the two sums can differ in the last bits, so this
    choice is part of every lowered chunk's result.  Runs of two sum
    identically either way (one addition) and are skipped.  Execution
    ``i`` holds runs ``[firsts[i], ends[i])`` and ``events[i]`` raw
    events."""
    groups = ends - firsts
    merged = events - groups
    near = (merged > 0) & (merged <= _NEAR_SINGLETON)
    if not near.any():
        return
    run_sizes = np.empty(len(starts), dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=run_sizes[:-1])
    run_sizes[-1] = total - starts[-1]
    near &= np.maximum.reduceat(run_sizes, firsts) <= _NEAR_SINGLETON
    patch = ((run_sizes > 2) & np.repeat(near, groups)).nonzero()[0]
    lengths = run_sizes[patch]
    for length in np.bincount(lengths).nonzero()[0].tolist():
        runs = patch[lengths == length]
        rows = flat_costs[starts[runs, None] + np.arange(length)]
        group_sums[runs] = np.add.reduce(rows, axis=1)
