"""Direct unit tests for the vectorized leaf lowering."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.ir.arrays import ArrayDecl
from repro.core.ir.builder import loop, read, work, write
from repro.core.ir.expr import ElemOf, Var
from repro.core.ir.nodes import AddrOf, Hint, HintKind
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


# ----------------------------------------------------------------------
# Batched lowering: several executions of one leaf in one call
# ----------------------------------------------------------------------

#: Leaf ``j`` runs inside an outer loop ``o``; every index below stays
#: inside ``x`` for j < 64 and o < 8.
_X_ELEMS = 64 * 600 + 8 * 1000 + 101
_X = ArrayDecl("x", (_X_ELEMS,), elem_size=8)
_IDX = ArrayDecl("idx", (72,), elem_size=8,
                 data=np.random.default_rng(7).integers(0, _X_ELEMS, 72))
_SEGMENTS = {"x": (PAGE, _X_ELEMS * 8)}
_STRIDES = {"x": (1,)}


@st.composite
def _index(draw):
    if draw(st.booleans()):
        # Small multipliers keep consecutive iterations on one page, so
        # runs merge, also across an execution's end.
        return (Var("j") * draw(st.sampled_from([0, 1, 16, 600]))
                + Var("o") * draw(st.sampled_from([0, 1, 512, 1000]))
                + draw(st.integers(0, 100)))
    return ElemOf(_IDX, Var("j") + Var("o"))


@st.composite
def _leaf_body(draw):
    body = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["work", "prefetch", "release"]))
        if shape == "work":
            refs = [write(_X, draw(_index())) if draw(st.booleans())
                    else read(_X, draw(_index()))
                    for _ in range(draw(st.integers(0, 3)))]
            body.append(work(refs, draw(st.floats(0.0, 20.0))))
        else:
            kind = HintKind.PREFETCH if shape == "prefetch" else HintKind.RELEASE
            body.append(Hint(kind, AddrOf(_X, (draw(_index()),)), npages=1))
    return body


@settings(max_examples=60, deadline=None)
@given(
    body=_leaf_body(),
    step=st.integers(1, 3),
    executions=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 40), st.integers(1, 24)),
        min_size=2, max_size=6),
)
def test_batched_lowering_splits_into_single_executions(body, step, executions):
    """Split at its execution ends, a batched result is bitwise the
    single-execution results: kinds, pages, costs and tails."""
    recipe = analyze_leaf(loop("j", 0, 64, body, step=step))
    assume(recipe is not None and recipe.templates)
    ranges = [np.arange(lo, lo + size, step, dtype=np.int64)
              for _, lo, size in executions]
    ranges = [(o, r) for (o, _, _), r in zip(executions, ranges) if len(r)]
    assume(len(ranges) >= 2)
    sizes = [len(r) for _, r in ranges]
    env = {"o": np.repeat(np.array([o for o, _ in ranges]), sizes)}
    kinds, pages, costs, tails, ends = lower_leaf(
        recipe, "j", np.concatenate([r for _, r in ranges]), env, PAGE,
        _SEGMENTS, _STRIDES, sizes)
    assert len(tails) == len(ends) == len(ranges)
    first = 0
    for (o, values), end, tail in zip(ranges, ends, tails):
        one = lower_leaf(recipe, "j", values, {"o": o}, PAGE, _SEGMENTS,
                         _STRIDES)
        for batched, alone in zip((kinds, pages, costs), one):
            assert batched.dtype == alone.dtype
            assert batched[first:end].tobytes() == alone.tobytes()
        assert float(tail).hex() == float(one[3]).hex()
        first = end
    assert first == len(kinds)


# ----------------------------------------------------------------------
# Near-singleton executions: each run summed with np.add.reduce
# ----------------------------------------------------------------------

_TAB = ArrayDecl("tab", (64 * 512,), elem_size=8)  # 64 pages
#: Execution o = 0 reads keys 0..11: the first two on page 0, then one
#: page each; execution o = 1 reads keys 12..15.
_KEY = ArrayDecl("key", (16,), elem_size=8, data=np.array(
    [5, 100] + [512 * p + 7 for p in range(1, 11)]
    + [512 * p + 9 for p in range(20, 24)]))


def test_near_singleton_runs_sum_with_add_reduce():
    """Three accesses per iteration to ``tab[key[j + 12 o]]`` costing
    0.1, 0.7 and 1.3 us: 25 events merge away, into a run of six and
    ten runs of three.  Alone and as the first execution of a batch,
    each run's first event carries its own cost and the next event
    (or the tail) the rest, ``np.add.reduce(run) - run[0]``; for the
    run of six, ``np.add.reduceat`` gives another last bit."""
    slot = ElemOf(_KEY, Var("j") + Var("o") * 12)
    leaf = loop("j", 0, 12, [work([read(_TAB, slot)], 0.1),
                             work([read(_TAB, slot)], 0.7),
                             work([write(_TAB, slot)], 1.3)])
    segments, strides = {"tab": (PAGE, 64 * 512 * 8)}, {"tab": (1,)}
    flat = np.tile([0.1, 0.7, 1.3], 12)
    starts = [0] + list(range(6, 36, 3))
    runs = [flat[a:b] for a, b in zip(starts, starts[1:] + [36])]
    assert np.add.reduceat(runs[0], [0])[0] != np.add.reduce(runs[0])
    rests = [np.add.reduce(run) - run[0] for run in runs]
    expected = [runs[0][0]] + [run[0] + rest
                               for run, rest in zip(runs[1:], rests)]

    recipe = analyze_leaf(leaf)
    alone = lower_leaf(recipe, "j", np.arange(12), {"o": 0}, PAGE,
                       segments, strides)
    values = np.concatenate((np.arange(12), np.arange(4)))
    kinds, pages, costs, tails, ends = lower_leaf(
        recipe, "j", values, {"o": np.repeat([0, 1], [12, 4])}, PAGE,
        segments, strides, [12, 4])
    for got, tail in ((alone[2], alone[3]), (costs[:ends[0]], tails[0])):
        assert [c.hex() for c in got.tolist()] == [c.hex() for c in expected]
        assert float(tail).hex() == float(rests[-1]).hex()
    assert alone[0].tolist() == kinds[:ends[0]].tolist() == [WRITE] * 11
    assert alone[1].tolist() == pages[:ends[0]].tolist() == list(range(1, 12))
