"""Differential gate: the vectorized chunk kernel vs the scalar loop.

The vectorized hot path (:meth:`repro.machine.machine.Machine.run_chunk`)
claims *bit identity* with the scalar event loop -- not "close", not
"statistically equal": the same RunStats, the same page-table end state,
the same published metrics, for every application.  This module is the
enforcement: each NAS app runs O and P twice, once through the numpy
kernel (the default) and once through the scalar loop
(``scalar_chunks=True``, the same code path the ``REPRO_SCALAR=1``
environment hatch selects), and everything observable must match
exactly -- clean and unobserved, and under fault plans and a
metrics-only observer, where the kernel charges each filtered prefetch
in the run-time layer's order.
"""

from __future__ import annotations

import collections
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import ALL_APPS, get_app
from repro.checkpoint import CheckpointConfig
from repro.checkpoint.runner import Checkpointer
from repro.config import PlatformConfig
from repro.core.ir.builder import ProgramBuilder, loop, read, work, write
from repro.core.ir.expr import ElemOf, Var
from repro.core.ir.nodes import AddrOf, Hint, HintKind
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import MachineError, ProcessCrash
from repro.faults.inject import LaggedBitVector
from repro.faults.plan import FaultPlan, default_plan
from repro.harness.experiment import build_variant, default_data_pages
from repro.interp.executor import Executor
from repro.machine.events import PREFETCH, RELEASE
from repro.machine.machine import Machine, Tape, fold_segments
from repro.obs.observer import Observer
from repro.obs.spans import SpanBuilder

# The golden-trace footprint: small enough that all sixteen configs run
# in test time, out-of-core enough (data > memory) that every machinery
# layer -- faults, evictions, prefetches, releases, the filter -- fires.
MEMORY_PAGES = 96
DATA_PAGES = 120

APP_NAMES = tuple(spec.name for spec in ALL_APPS)

#: Fault plans that reach the kernel's layer-order paths: the full
#: default taxonomy, the bit-vector lag alone (long and very short), and
#: hint failures dense enough to enter demand-paging fallback.
PLANS = {
    "default": lambda: default_plan(PlatformConfig().num_disks, seed=1),
    "lag": lambda: FaultPlan(seed=1, bitvector_lag_us=500.0),
    "lag-0.5us": lambda: FaultPlan(seed=1, bitvector_lag_us=0.5),
    "fallback": lambda: FaultPlan(seed=1, hint_failure_rate=0.6,
                                  fallback_after=2, fallback_cooldown=50),
}


@functools.lru_cache(maxsize=None)
def _program(app_name: str, prefetching: bool):
    program = get_app(app_name).make(DATA_PAGES, seed=1)
    if prefetching:
        program = insert_prefetches(
            program,
            CompilerOptions.from_platform(PlatformConfig(memory_pages=MEMORY_PAGES)),
        ).program
    return program


def _machine(prefetching: bool, scalar: bool, plan=None,
             observer=None) -> Machine:
    return Machine(PlatformConfig(memory_pages=MEMORY_PAGES),
                   prefetching=prefetching, scalar_chunks=scalar,
                   fault_plan=plan, observer=observer)


def _run(app_name: str, prefetching: bool, scalar: bool, plan=None,
         observed: bool = False):
    """One fresh O or P run; returns (stats, machine) for inspection."""
    machine = _machine(prefetching, scalar, plan,
                       Observer(record_trace=False) if observed else None)
    stats = Executor(machine).run(_program(app_name, prefetching))
    return stats, machine


def _page_table(machine: Machine) -> dict:
    """Everything the page table knows, per page."""
    cols = machine.manager.cols
    return {
        vpage: (
            cols.state[vpage],
            cols.dirty[vpage],
            cols.ref[vpage],
            cols.via_prefetch[vpage],
            cols.used_since_arrival[vpage],
            cols.arrival_us[vpage],
        )
        for vpage in cols.order
    }


def _flags(vector) -> tuple:
    """A flag array's set bits and drop count (capacity is not state)."""
    return bytes(vector.bits).rstrip(b"\0"), vector.drops


def _assert_identical(vec, sca) -> None:
    """Everything observable of two finished runs, ``(stats, machine)``."""
    (vec_stats, vec_machine), (sca_stats, sca_machine) = vec, sca
    # RunStats is a dataclass tree of plain counters/floats: == is exact.
    assert vec_stats == sca_stats
    # Full page-table end state, including the columnar fields the
    # kernel scatters in bulk and the scalar loop writes one at a time.
    assert _page_table(vec_machine) == _page_table(sca_machine)
    # The residency indexes the kernel classifies from must agree too:
    # the fast mask, and the filter's bits -- for a lagged vector its
    # inner bits and the queue of updates not yet applied.
    assert _flags(vec_machine.manager.fast) == _flags(sca_machine.manager.fast)
    if vec_machine.runtime is not None:
        vec_bits = vec_machine.runtime.bitvector
        sca_bits = sca_machine.runtime.bitvector
        if isinstance(vec_bits, LaggedBitVector):
            assert list(vec_bits._pending) == list(sca_bits._pending)
            vec_bits, sca_bits = vec_bits.inner, sca_bits.inner
        assert _flags(vec_bits) == _flags(sca_bits)
    # Published metrics (the CLI/JSON export surface) must be identical,
    # and so must an attached observer's.
    assert vec_stats.publish().as_dict() == sca_stats.publish().as_dict()
    if vec_machine.obs is not None:
        assert (vec_machine.obs.metrics.as_dict()
                == sca_machine.obs.metrics.as_dict())


@pytest.mark.parametrize("variant", ["O", "P"])
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_vector_kernel_is_bit_identical(app_name, variant):
    prefetching = variant == "P"
    _assert_identical(_run(app_name, prefetching, scalar=False),
                      _run(app_name, prefetching, scalar=True))


@pytest.mark.parametrize("observed", [False, True],
                         ids=["unobserved", "metrics-only"])
@pytest.mark.parametrize("plan", list(PLANS))
@pytest.mark.parametrize("variant", ["O", "P"])
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_layer_order_kernel_is_bit_identical(app_name, variant, plan,
                                             observed):
    """Faulted or metrics-only observed runs on the kernel charge each
    filtered prefetch as the run-time layer does, cut a segment where a
    lagged bit vector would apply an update, and leave hint fallback to
    the scalar loop -- all of it bit for bit."""
    prefetching = variant == "P"
    vec = _run(app_name, prefetching, False, PLANS[plan](), observed)
    sca = _run(app_name, prefetching, True, PLANS[plan](), observed)
    _assert_identical(vec, sca)
    if prefetching and plan == "fallback":
        assert vec[0].robust.fallback_episodes > 0


def _spy_chunk_paths(monkeypatch) -> list[tuple[str, int]]:
    """From now on, record each chunk path taken and its chunk length."""
    taken = []
    for name in ("_run_chunk_scalar", "_run_chunk_vector"):
        original = getattr(Machine, name)

        def spy(self, kinds, *args, _original=original, _name=name):
            taken.append((_name, len(kinds)))
            return _original(self, kinds, *args)

        monkeypatch.setattr(Machine, name, spy)
    return taken


def _routes(machine: Machine, monkeypatch) -> list[str]:
    """Replay one 200-event chunk; the chunk paths it took, in order."""
    taken = _spy_chunk_paths(monkeypatch)
    seg = machine.map_segment("a", 64 * machine.config.page_size)
    base = seg.base // machine.config.page_size
    kinds = [0, 0, 0, 2] * 50
    pages = [base + i % 64 for i in range(200)]
    machine.run_chunk(kinds, pages, [1.0] * 200)
    return [name for name, _ in taken]


def _calls_and_chunk_steps(machine: Machine, monkeypatch) -> tuple[int, int]:
    """Run MGRID P on ``machine``: its ``run_chunk`` calls, and the chunk
    steps its walk yields."""
    program = _program("MGRID", True)
    walk = Executor(_machine(True, False))
    walk.bind(program)
    chunk_steps = sum(step[0] == "chunk" for step in walk.steps(program))
    calls = []
    run_chunk = Machine.run_chunk

    def spy(self, *args):
        calls.append(len(args[0]))
        return run_chunk(self, *args)

    monkeypatch.setattr(Machine, "run_chunk", spy)
    Executor(machine).run(program)
    monkeypatch.setattr(Machine, "run_chunk", run_chunk)
    return len(calls), chunk_steps


@pytest.mark.parametrize("setup, tapes", [
    (lambda: _machine(True, False), True),
    (lambda: _machine(True, False, observer=Observer(record_trace=False)),
     True),
    (lambda: _machine(True, False, plan=PLANS["default"]()), True),
    (lambda: _machine(True, False, observer=Observer()), False),
], ids=["clean", "metrics-only", "faulted", "recording"])
def test_routing(setup, tapes, monkeypatch):
    """A run the kernel serves replays its steps as tapes, several chunk
    steps per ``run_chunk`` call, and any other run calls it once per
    chunk step; a chunk replayed alone takes the scalar loop on every
    machine."""
    calls, chunk_steps = _calls_and_chunk_steps(setup(), monkeypatch)
    if tapes:
        assert calls * 4 < chunk_steps
    else:
        assert calls == chunk_steps
    assert _routes(setup(), monkeypatch) == ["_run_chunk_scalar"]


def test_tape_hints_replay_between_kernel_calls(monkeypatch):
    """On a run the kernel serves, a block prefetch or a bundled hint
    ends the tape's kernel call, and the executor replays it through
    ``Executor._replay`` before the next call, never from inside one."""
    inside = []
    replayed = []
    run_chunk = Machine.run_chunk
    replay = Executor._replay

    def spy_chunk(self, *args):
        inside.append(True)
        try:
            return run_chunk(self, *args)
        finally:
            inside.pop()

    def spy_replay(self, step):
        replayed.append((step[0], bool(inside)))
        return replay(self, step)

    monkeypatch.setattr(Machine, "run_chunk", spy_chunk)
    monkeypatch.setattr(Executor, "_replay", spy_replay)
    vec = _run("EMBAR", True, scalar=False)
    monkeypatch.setattr(Executor, "_replay", replay)
    assert {kind for kind, _ in replayed} == {"prefetch", "prefetch_release"}
    assert not any(nested for _, nested in replayed)
    _assert_identical(vec, _run("EMBAR", True, scalar=True))


def test_sink_attached_after_build_routes_to_scalar(monkeypatch):
    """``explain`` and the fuzz oracles attach sinks after the build."""
    machine = _machine(True, False, observer=Observer(record_trace=False))
    machine.obs.sink = SpanBuilder()
    calls, chunk_steps = _calls_and_chunk_steps(machine, monkeypatch)
    assert calls == chunk_steps
    machine = _machine(True, False, observer=Observer(record_trace=False))
    machine.obs.sink = SpanBuilder()
    assert _routes(machine, monkeypatch) == ["_run_chunk_scalar"]


def test_hint_fallback_routes_to_scalar(monkeypatch):
    machine = _machine(True, False, plan=PLANS["fallback"]())
    machine.runtime.hint_faults.in_fallback = True
    assert not machine.serves_tapes()
    assert _routes(machine, monkeypatch) == ["_run_chunk_scalar"]


def _after_warm_chunk(machine: Machine, kinds, offsets,
                     tape: bool = False) -> tuple:
    """Fault in a 64-page segment's first 32 pages (a chunk replayed
    alone, so on the scalar loop), replay ``kinds`` over ``offsets``
    into the segment with cost 0.5 each -- with ``tape``, as a one-step
    tape on the kernel -- and return the error the replay raised, if
    any, and what it left behind."""
    seg = machine.map_segment("a", 64 * machine.config.page_size)
    base = seg.base // machine.config.page_size
    machine.run_chunk([0] * 32, list(range(base, base + 32)), [1.0] * 32)
    pages = [base + o for o in offsets]
    costs = [0.5] * len(kinds)
    error = None
    try:
        if tape:
            machine.run_chunk(
                np.array(kinds, dtype=np.int64),
                np.array(pages, dtype=np.int64),
                np.array(costs), Tape(np.array((len(kinds),)), np.zeros(1)))
        else:
            machine.run_chunk(kinds, pages, costs)
    except MachineError as exc:
        error = str(exc)
    return (error, machine.clock.now, machine.clock.breakdown(),
            machine.stats, _page_table(machine))


@pytest.mark.parametrize("bad", [17, -1], ids=lambda kind: f"kind{kind}")
@pytest.mark.parametrize("plan", [None, "lag"], ids=["clean", "faulted"])
def test_unknown_kind_leaves_the_scalar_loops_state(plan, bad):
    """A chunk holding an event kind outside 0..3 raises on the scalar
    loop: a kind above 3 at its event, with the page effects of the
    events before it made, and a negative kind before any event, so the
    chunk leaves the clock, the counters and the page table as the
    warm-up left them."""
    # The bad event is slow: its page is one the warm-up left on disk.
    kinds = [0, 1, 0, 2] * 50 + [bad, 0, 1, 2]
    offsets = [i % 32 for i in range(200)] + [40, 1, 2, 3]
    ran = 200 if bad > 0 else 0

    def machine():
        return _machine(True, False, PLANS[plan]() if plan else None)

    error, *after = _after_warm_chunk(machine(), kinds, offsets)
    _, *prefix = _after_warm_chunk(machine(), kinds[:ran], offsets[:ran])
    assert error == f"unknown event kind {bad}"
    assert after[-1] == prefix[-1]
    if bad < 0:
        assert after == prefix


def test_unknown_kind_hands_the_whole_chunk_to_the_scalar_loop(monkeypatch):
    """A long clean chunk replayed alone that ends in an unknown kind
    raises on the scalar loop, at that event, without entering the
    kernel."""
    machine = _machine(True, False)
    seg = machine.map_segment("a", 64 * machine.config.page_size)
    base = seg.base // machine.config.page_size
    kinds = [0, 1, 0, 2] * 50 + [7]
    taken = _spy_chunk_paths(monkeypatch)
    with pytest.raises(MachineError, match="unknown event kind 7"):
        machine.run_chunk(kinds, [base + i % 64 for i in range(201)],
                          [1.0] * 201)
    assert taken == [("_run_chunk_scalar", 201)]


def test_hint_fallback_mid_chunk_hands_the_rest_to_the_scalar_loop(
        monkeypatch):
    """A slow prefetch whose hint call tips the layer into fallback ends
    the kernel's part of a one-step tape: the gate must see every
    request of the cooldown, filtered ones included."""
    plan = FaultPlan(seed=1, hint_failure_rate=1.0, fallback_after=1,
                     fallback_cooldown=50)
    # Prefetch an absent page first, then resident ones (filtered).
    kinds = [2] + [0, 2] * 100
    offsets = [40] + [i % 32 for i in range(200)]
    sca = _after_warm_chunk(_machine(True, True, plan), kinds, offsets)
    machine = _machine(True, False, plan)
    taken = _spy_chunk_paths(monkeypatch)
    assert _after_warm_chunk(machine, kinds, offsets, tape=True) == sca
    assert taken == [("_run_chunk_scalar", 32), ("_run_chunk_vector", 201),
                     ("_run_chunk_scalar", 200)]
    assert machine.stats.robust.fallback_episodes == 1
    assert machine.stats.robust.hints_skipped == 50


@pytest.mark.parametrize("setup", [
    lambda: _machine(True, True),
    lambda: _machine(True, False, observer=Observer()),
    lambda: _machine(True, False, plan=PLANS["fallback"]()),
], ids=["scalar", "recording", "fallback"])
def test_a_tape_on_a_run_the_kernel_does_not_serve_raises(setup):
    """Such a run replays its steps one at a time: a tape raises before
    it replays any event."""
    machine, warm = setup(), setup()
    for each in (machine, warm):
        if each.runtime.hint_faults is not None:
            each.runtime.hint_faults.in_fallback = True
    assert not machine.serves_tapes()
    error, *after = _after_warm_chunk(machine, [0, 2], [1, 40], tape=True)
    assert error == "this run replays its steps one at a time"
    _, *untouched = _after_warm_chunk(warm, [], [])
    assert after == untouched


def test_per_step_replay_never_reaches_the_kernel(monkeypatch):
    """EMBAR O at the table3 footprint is served, and its tape turns
    slow-dense, so the rest of the tape replays one step at a time
    through ``Executor._replay``: every chunk it replays, long ones
    included, takes the scalar loop, bit-identical to the per-step
    run."""
    platform = PlatformConfig()
    program = build_variant(get_app("EMBAR"), platform, "o",
                            default_data_pages(platform))
    taken = _spy_chunk_paths(monkeypatch)
    replayed = []  # the chunk paths taken inside Executor._replay
    replay = Executor._replay

    def spy_replay(self, step):
        first = len(taken)
        try:
            return replay(self, step)
        finally:
            replayed.extend(taken[first:])

    monkeypatch.setattr(Executor, "_replay", spy_replay)
    machine = Machine(platform, prefetching=False)
    served = (Executor(machine).run(program), machine)
    assert ("_run_chunk_vector" in {name for name, _ in taken}
            and max(size for _, size in replayed) >= 128)
    assert {name for name, _ in replayed} == {"_run_chunk_scalar"}
    machine = Machine(platform, prefetching=False, scalar_chunks=True)
    _assert_identical(served, (Executor(machine).run(program), machine))


def _hinted_walk(release: bool):
    """A 256 x 16 loop over ``tab[key[16j + i]]`` whose every access
    follows a one-page prefetch of its page (and with ``release`` a
    one-page release of it), and one work step per outer iteration: the
    leaf's hints are PREFETCH and RELEASE events of long tapes."""
    b = ProgramBuilder("hinted_walk")
    tab = b.array("tab", (128 * 512,), elem_size=8)  # 128 pages
    key = b.array("key", (4096,), elem_size=8,
                  data=np.random.default_rng(3).integers(0, 128 * 512, 4096))
    out = b.array("out", (256,), elem_size=8)
    j, i = Var("j"), Var("i")
    page = AddrOf(tab, (ElemOf(key, j * 16 + i),))
    body = [Hint(HintKind.PREFETCH, page, npages=1)]
    if release:
        body.append(Hint(HintKind.RELEASE, page, npages=1))
    body.append(work([read(tab, ElemOf(key, j * 16 + i))], 0.3))
    b.append(loop("j", 0, 256, [loop("i", 0, 16, body),
                                work([write(out, j)], 1.7)]))
    return b.build()


@pytest.mark.parametrize("release", [False, True],
                         ids=["prefetch", "prefetch-release"])
@pytest.mark.parametrize("prefetching", [True, False],
                         ids=["runtime", "no-runtime"])
def test_leaf_hints_on_long_tapes_are_bit_identical(prefetching, release,
                                                    monkeypatch):
    """Leaf hints on long tapes take kernel paths no app takes: with a
    run-time layer, the inline filter's overhead laid out with a tape's
    static flushes and each release dispatched as a slow event; without
    one, hints the kernel counts as fast and the scalar loop skips.  The
    run matches the scalar loop's."""
    reached = collections.Counter()
    run_chunk_scalar = Machine._run_chunk_scalar
    run_chunk_vector = Machine._run_chunk_vector
    static_flushes = Machine._static_flushes
    slow_event = Machine._slow_event

    def spy_scalar(self, kinds, pages, costs):
        reached["scalar hints"] += PREFETCH in kinds
        return run_chunk_scalar(self, kinds, pages, costs)

    def spy_vector(self, kinds, *args):
        reached["kernel hints"] += bool((kinds == PREFETCH).any())
        return run_chunk_vector(self, kinds, *args)

    def spy_static(self, *args):
        layout = static_flushes(self, *args)
        _, edge_flush, _, static, _ = layout
        reached["inline overhead"] += (static is not None
                                       and static[3 * edge_flush + 1].any())
        return layout

    def spy_slow(self, kind, *args):
        reached["releases"] += kind == RELEASE
        return slow_event(self, kind, *args)

    monkeypatch.setattr(Machine, "_run_chunk_scalar", spy_scalar)
    monkeypatch.setattr(Machine, "_run_chunk_vector", spy_vector)
    monkeypatch.setattr(Machine, "_static_flushes", spy_static)
    monkeypatch.setattr(Machine, "_slow_event", spy_slow)
    runs = []
    for scalar in (False, True):
        machine = Machine(PlatformConfig(memory_pages=64),
                          prefetching=prefetching, scalar_chunks=scalar)
        runs.append((Executor(machine).run(_hinted_walk(release)), machine))
    _assert_identical(*runs)
    assert runs[0][1].clock.breakdown() == runs[1][1].clock.breakdown()
    assert reached["kernel hints"] and reached["scalar hints"]
    if prefetching:
        assert reached["inline overhead"]
        assert bool(reached["releases"]) == release


def _snapshots(app_name: str, scalar: bool, every_us: float, plan=None,
               crash_at_us: tuple = ()) -> tuple[list, tuple | None]:
    """Every snapshot a P run writes every ``every_us``, and the unit and
    cycle a crash at ``crash_at_us`` killed it at (None: no crash)."""
    machine = _machine(True, scalar, plan)
    executor = Executor(machine)
    checkpointer = Checkpointer(machine, executor, CheckpointConfig(
        every_us=every_us, crash_at_us=crash_at_us))
    snaps = []
    checkpointer.on_write = snaps.append
    executor.checkpointer = checkpointer
    crashed = None
    try:
        executor.run(_program(app_name, True))
    except ProcessCrash as crash:
        crashed = (crash.cursor, crash.at_us)
    return [(snap.meta, snap.payload) for snap in snaps], crashed


#: (app, case) pairs: default-plan runs checkpointed every 20 ms (the
#: app's name alone is the id), every 1 ms and every 100 ms, and a clean
#: run checkpointed every 20 ms and crashed halfway.
_SNAPSHOT_CASES = [(app, case) for app in APP_NAMES
                   for case in ("20ms", "1ms", "100ms", "crash")]


@pytest.mark.parametrize(
    "app_name, case", _SNAPSHOT_CASES,
    ids=[app if case == "20ms" else f"{app}-{case}"
         for app, case in _SNAPSHOT_CASES])
def test_snapshots_are_byte_identical(app_name, case):
    """A tape stops at the first step edge where a checkpoint or a crash
    is due, so every safe point the per-step loop acts at lands where it
    does there: the same snapshots at every cadence (cycle, unit cursor
    and payload bytes) and the same crash unit."""
    if case == "crash":
        every_us, plan = 20_000.0, None
        crash_at = (_run(app_name, True, False)[0].elapsed_us / 2,)
    else:
        every_us, plan, crash_at = float(case[:-2]) * 1000, "default", ()
    vec, sca = (_snapshots(app_name, scalar, every_us,
                           PLANS[plan]() if plan else None, crash_at)
                for scalar in (False, True))
    assert vec == sca
    assert len(vec[0]) > 1
    assert (vec[1] is not None) == bool(crash_at)


def _fold_left(values, bounds) -> list[float]:
    folds = []
    for a, b in zip(bounds, bounds[1:]):
        pending = 0.0
        for value in values[a:b]:
            pending += value
        folds.append(pending)
    return folds


@st.composite
def _segments(draw, skewed: bool):
    """Values and segment bounds that take one branch of
    :func:`fold_segments` each: uniform lengths (2-4 values, empty
    segments at most a third) always fit the padded matrix, while eight
    or more segments of 0-2 values beside one of 40-80 always overflow
    it and fold one segment at a time."""
    if skewed:
        lengths = draw(st.lists(st.integers(0, 2), min_size=8, max_size=30))
        lengths.insert(draw(st.integers(0, len(lengths))),
                       draw(st.integers(40, 80)))
    else:
        lengths = draw(st.lists(st.integers(2, 4), min_size=1, max_size=30))
        for _ in range(draw(st.integers(0, len(lengths) // 2))):
            lengths.insert(draw(st.integers(0, len(lengths))), 0)
    values = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 100.0, allow_nan=False)),
        min_size=sum(lengths), max_size=sum(lengths)))
    bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    return np.array(values, dtype=np.float64), bounds


@pytest.mark.parametrize("skewed", [False, True], ids=["matrix", "per-segment"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fold_segments_is_a_fold_left(skewed, data):
    values, bounds = data.draw(_segments(skewed))
    folds = fold_segments(values, bounds)
    assert [f.hex() for f in folds.tolist()] == [
        f.hex() for f in _fold_left(values.tolist(), bounds.tolist())]


def test_scalar_env_hatch_forces_scalar_loop(monkeypatch):
    monkeypatch.setenv("REPRO_SCALAR", "1")
    assert Machine(PlatformConfig()).scalar_chunks
    # One run_chunk call per chunk step: no tape.
    calls, chunk_steps = _calls_and_chunk_steps(
        Machine(PlatformConfig(memory_pages=MEMORY_PAGES)), monkeypatch)
    assert calls == chunk_steps
    monkeypatch.setenv("REPRO_SCALAR", "0")
    assert not Machine(PlatformConfig()).scalar_chunks
    monkeypatch.delenv("REPRO_SCALAR")
    assert not Machine(PlatformConfig()).scalar_chunks
