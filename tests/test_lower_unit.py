"""Direct unit tests for the vectorized leaf lowering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ir.arrays import ArrayDecl
from repro.core.ir.builder import loop, read, work, write
from repro.core.ir.expr import Var
from repro.errors import AddressError
from repro.interp.lower import analyze_leaf, lower_leaf
from repro.machine.events import PREFETCH, READ, WRITE

PAGE = 4096


def lower(loop_node, env=None, segments=None, strides=None, lo=0, hi=None):
    recipe = analyze_leaf(loop_node)
    assert recipe is not None
    hi = hi if hi is not None else loop_node.upper.eval(env or {})
    values = np.arange(lo, hi, loop_node.step, dtype=np.int64)
    kinds, pages, costs, tail = lower_leaf(
        recipe, loop_node.var, values, env or {}, PAGE, segments, strides
    )
    return kinds.tolist(), pages.tolist(), costs.tolist(), tail


class TestLowering:
    def _setup(self, nelems=4 * 512):
        arr = ArrayDecl("x", (nelems,), elem_size=8)
        segments = {"x": (PAGE, nelems * 8)}  # page 1
        strides = {"x": (1,)}
        return arr, segments, strides

    def test_sequential_read_collapses_per_page(self):
        arr, segments, strides = self._setup()
        lp = loop("i", 0, 4 * 512, [work([read(arr, Var("i"))], 1.0)])
        kinds, pages, costs, tail = lower(lp, {}, segments, strides)
        assert len(pages) == 4
        assert pages == [1, 2, 3, 4]
        assert all(k == READ for k in kinds)

    def test_costs_conserved(self):
        arr, segments, strides = self._setup()
        lp = loop("i", 0, 4 * 512, [work([read(arr, Var("i"))], 1.5)])
        kinds, pages, costs, tail = lower(lp, {}, segments, strides)
        assert sum(costs) + tail == pytest.approx(4 * 512 * 1.5)

    def test_first_cost_only_before_first_event(self):
        """Timing fidelity: a merged run charges only its first pre-cost
        before the access; the rest moves to the next event."""
        arr, segments, strides = self._setup()
        lp = loop("i", 0, 2 * 512, [work([read(arr, Var("i"))], 2.0)])
        kinds, pages, costs, tail = lower(lp, {}, segments, strides)
        assert costs[0] == pytest.approx(2.0)
        # Remainder of page 1's run plus page 2's own first cost.
        assert costs[1] == pytest.approx(511 * 2.0 + 2.0)
        # The final run's remainder is charged after the chunk.
        assert tail == pytest.approx(511 * 2.0)

    def test_read_write_same_page_merges_to_write(self):
        arr, segments, strides = self._setup()
        lp = loop("i", 0, 512, [
            work([read(arr, Var("i")), write(arr, Var("i"))], 1.0)
        ])
        kinds, pages, costs, tail = lower(lp, {}, segments, strides)
        assert kinds == [WRITE]
        assert pages == [1]

    def test_hints_never_merge(self):
        from repro.core.ir.nodes import AddrOf, Hint, HintKind

        arr, segments, strides = self._setup()
        lp = loop("i", 0, 8, [
            Hint(HintKind.PREFETCH, AddrOf(arr, (Var("i"),)), npages=1),
            work([read(arr, Var("i"))], 1.0),
        ])
        kinds, pages, costs, tail = lower(lp, {}, segments, strides)
        assert kinds.count(PREFETCH) == 8  # one per iteration

    def test_out_of_segment_raises(self):
        arr, segments, strides = self._setup(nelems=100)
        lp = loop("i", 0, 200, [work([read(arr, Var("i"))], 1.0)])
        with pytest.raises(AddressError):
            lower(lp, {}, segments, strides)

    def test_empty_range(self):
        arr, segments, strides = self._setup()
        lp = loop("i", 5, 5, [work([read(arr, Var("i"))], 1.0)])
        recipe = analyze_leaf(lp)
        kinds, pages, costs, tail = lower_leaf(
            recipe, "i", np.arange(0), {}, PAGE, segments, strides
        )
        assert len(kinds) == len(pages) == len(costs) == 0
        assert tail == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 3000),
        cost=st.floats(0.1, 20.0),
        stride=st.integers(1, 5),
    )
    def test_cost_conservation_property(self, n, cost, stride):
        arr = ArrayDecl("x", (16_000,), elem_size=8)
        segments = {"x": (PAGE, 16_000 * 8)}
        strides = {"x": (1,)}
        lp = loop("i", 0, n, [work([read(arr, Var("i"))], cost)], step=stride)
        recipe = analyze_leaf(lp)
        values = np.arange(0, n, stride, dtype=np.int64)
        kinds, pages, costs, tail = lower_leaf(
            recipe, "i", values, {}, PAGE, segments, strides
        )
        assert sum(costs) + tail == pytest.approx(len(values) * cost)
        # Page sequence is non-decreasing for a forward stream.
        pages = pages.tolist()
        assert pages == sorted(pages)
