"""Crash-consistent checkpoint/restart (repro/checkpoint/).

The headline invariant: a run killed at an arbitrary simulated cycle
and resumed from its newest checkpoint finishes with **bit-identical**
``RunStats`` -- across every application, both variants, clean and
faulted.  Around it: checkpointing is pure observation (attached but
idle, or actively writing, the simulated run does not change), corrupt
checkpoints are detected and skipped in favour of the previous retained
one, the container format round-trips, the fault plan's ``crashes`` /
``version`` fields behave, and a Hypothesis round-trip pins full state
equality (pages, frames, disk queues, RNG streams) after a restore
into a fresh machine.
"""

import dataclasses
import io
import json
import math
import os
import pickle
import re
import struct
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import ALL_APPS, get_app
from repro.apps.synthetic import stream
from repro.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    CheckpointStore,
    Snapshot,
    capture,
    describe_state,
    read_checkpoint_file,
    run_with_recovery,
)
from repro.checkpoint import store as store_module
from repro.checkpoint.runner import setup_checkpointing
from repro.checkpoint.snapshot import STATE
from repro.checkpoint.store import (
    CONTAINER_VERSION,
    MAGIC,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import CheckpointError, ConfigError, ProcessCrash
from repro.faults import FaultPlan, default_plan, load_plan, save_plan
from repro.harness.experiment import build_variant, run_variant
from repro.interp import executor as executor_module
from repro.interp.executor import Executor
from repro.interp.lower import lower_leaf
from repro.machine.machine import Machine
from repro.obs import Observer, TraceKind
from repro.serve.worker import DEFAULT_CHECKPOINT_EVERY_US

#: Small out-of-core platform: 64 frames of memory, 80 pages of data.
CFG = PlatformConfig(memory_pages=64)
DATA_PAGES = 80
ELEMS_PER_PAGE = CFG.page_size // 8

APP_NAMES = sorted(spec.name for spec in ALL_APPS)

_CKPT_KINDS = (TraceKind.CHECKPOINT_WRITE, TraceKind.CHECKPOINT_RESTORE)


@pytest.fixture(scope="module")
def programs():
    """{(app, prefetching): program} -- built and compiled once."""
    cache = {}
    options = CompilerOptions.from_platform(CFG)
    for app in APP_NAMES:
        program = get_app(app).make(DATA_PAGES, seed=1)
        cache[(app, False)] = program
        cache[(app, True)] = insert_prefetches(program, options).program
    return cache


@pytest.fixture(scope="module")
def stream_program():
    program = stream(DATA_PAGES * ELEMS_PER_PAGE, cost_us=0.2)
    return insert_prefetches(program, CompilerOptions.from_platform(CFG)).program


def _factory(prefetching, plan=None, observer=None):
    def make():
        machine = Machine(CFG, prefetching=prefetching, observer=observer,
                          fault_plan=plan)
        return machine, Executor(machine)
    return make


def _uninterrupted(program, prefetching, plan=None):
    machine, executor = _factory(prefetching, plan)()
    return executor.run(program)


class _SafePointProbe:
    """Duck-typed checkpointer that only records safe-point cycles."""

    def __init__(self, machine):
        self.machine = machine
        self.cycles = []

    def next_stop_us(self):
        # Every step edge is a stop, so every safe point is seen.
        return -math.inf

    def at_safe_point(self, executor):
        self.cycles.append(self.machine.clock.now)


def _snapshots(program, make, every_us):
    """Every snapshot an uninterrupted run writes at ``every_us``."""
    machine, executor = make()
    ckpt = Checkpointer(machine, executor, CheckpointConfig(every_us=every_us))
    snaps = []
    ckpt.on_write = snaps.append
    executor.checkpointer = ckpt
    executor.run(program)
    return snaps


def _probe_run(program, prefetching, plan=None):
    """(uninterrupted stats, sorted positive safe-point cycles)."""
    machine, executor = _factory(prefetching, plan)()
    probe = _SafePointProbe(machine)
    executor.checkpointer = probe
    stats = executor.run(program)
    return stats, sorted({c for c in probe.cycles if c > 0})


# ----------------------------------------------------------------------
# The headline invariant: crash + resume == uninterrupted, bitwise
# ----------------------------------------------------------------------


class TestCrashResumeInvariant:
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("variant", ["O", "P"])
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_resume_is_bit_identical(self, programs, app, variant, faulted):
        prefetching = variant == "P"
        program = programs[(app, prefetching)]
        plan = default_plan(CFG.num_disks, seed=1) if faulted else None
        base, cycles = _probe_run(program, prefetching, plan)
        assert len(cycles) >= 3, "workload too small to crash mid-run"
        # Checkpoint cadence and crash cycle are picked from observed
        # safe points, so a checkpoint is guaranteed to strictly precede
        # the kill.  The crash is config-level, so the fault plan -- and
        # with it the machine's code path -- is identical to the
        # control run's.
        config = CheckpointConfig(
            every_us=cycles[0],
            crash_at_us=(cycles[max(1, len(cycles) // 2)],),
        )
        rec = run_with_recovery(_factory(prefetching, plan), program, config)
        assert rec.crashes == 1
        assert rec.resumes == 1
        assert rec.checkpoints >= 1
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(base)

    def test_double_crash_double_resume(self, programs):
        program = programs[("EMBAR", True)]
        base, cycles = _probe_run(program, True)
        config = CheckpointConfig(
            every_us=cycles[0],
            crash_at_us=(cycles[len(cycles) // 3],
                         cycles[2 * len(cycles) // 3]),
        )
        rec = run_with_recovery(_factory(True), program, config)
        assert rec.crashes == 2
        assert rec.resumes == 2
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(base)

    def test_skip_replay_never_lowers(self, programs, monkeypatch):
        """A resumed incarnation re-walks the skipped prefix without
        lowering any of its leaves.  A batched lowering starts at the
        first live leaf execution, so the resumed run's calls need not
        line up with the uninterrupted run's; what it lowers must: its
        first call comes at or after the snapshot's cursor, and the leaf
        executions it lowers are exactly the uninterrupted run's chunks
        from the cursor on."""
        program = programs[("MGRID", True)]
        base, cycles = _probe_run(program, True)
        executors = []
        chunks = []   # the unit of each chunk step the walk yields
        lowered = []  # (unit, executions served) of each lower_leaf call

        def spy(*args):
            sizes = args[7] if len(args) > 7 else None
            lowered.append((executors[-1].units,
                            1 if sizes is None else len(sizes)))
            return lower_leaf(*args)

        steps = Executor.steps

        def steps_spy(executor, *args):
            # A tape pulls steps ahead of ``units``: the first live step
            # is unit ``units`` (the walk skipped to it), each next one
            # the unit after.
            unit = None
            for step in steps(executor, *args):
                if unit is None:
                    unit = executor.units
                if step[0] == "chunk":
                    chunks.append(unit)
                unit += 1
                yield step

        monkeypatch.setattr(executor_module, "lower_leaf", spy)
        monkeypatch.setattr(Executor, "steps", steps_spy)
        machine, executor = _factory(True)()
        executors.append(executor)
        ckpt = Checkpointer(machine, executor, CheckpointConfig(
            every_us=cycles[len(cycles) // 2]))
        snaps = []
        ckpt.on_write = snaps.append
        executor.checkpointer = ckpt
        executor.run(program)
        uninterrupted = list(chunks)
        snap = snaps[0]
        assert uninterrupted[0] < snap.cursor <= uninterrupted[-1]
        live = [u for u in uninterrupted if u >= snap.cursor]

        lowered.clear()
        chunks.clear()
        machine, executor = _factory(True)()
        executors.append(executor)
        resumed = Checkpointer(machine, executor, CheckpointConfig())
        resumed.arm_resume(snap)
        executor.checkpointer = resumed
        stats = executor.run(program)
        assert lowered[0][0] >= snap.cursor
        assert sum(executions for _, executions in lowered) == len(live)
        assert chunks == live
        assert dataclasses.asdict(stats) == dataclasses.asdict(base)

    def test_crash_with_no_checkpoint_restarts_from_scratch(self, programs):
        program = programs[("EMBAR", True)]
        base = _uninterrupted(program, True)
        # No cadence: the crash kills a checkpoint-less incarnation and
        # the next one replays the whole run.
        config = CheckpointConfig(crash_at_us=(base.elapsed_us * 0.5,))
        rec = run_with_recovery(_factory(True), program, config)
        assert rec.crashes == 1
        assert rec.resumes == 0
        assert rec.checkpoints == 0
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(base)


# ----------------------------------------------------------------------
# Checkpointing is pure observation
# ----------------------------------------------------------------------


class TestPureObservation:
    def test_active_checkpointing_does_not_change_stats(self, programs):
        program = programs[("EMBAR", True)]
        base = _uninterrupted(program, True)
        machine, executor = _factory(True)()
        setup_checkpointing(machine, executor,
                            CheckpointConfig(every_us=base.elapsed_us * 0.15))
        stats = executor.run(program)
        assert executor.checkpointer.writes >= 1
        assert dataclasses.asdict(stats) == dataclasses.asdict(base)

    def test_observed_trace_unchanged_modulo_checkpoint_events(self, programs):
        program = programs[("EMBAR", True)]

        def observed_run(config):
            obs = Observer()
            machine, executor = _factory(True, observer=obs)()
            if config is not None:
                setup_checkpointing(machine, executor, config)
            executor.run(program)
            return obs.trace.events()

        plain = observed_run(None)
        elapsed = plain[-1].ts_us
        ckpted = observed_run(CheckpointConfig(every_us=elapsed * 0.2))
        writes = [e for e in ckpted if e.kind in _CKPT_KINDS]
        assert writes and all(e.kind is TraceKind.CHECKPOINT_WRITE
                              for e in writes)
        assert [e for e in ckpted if e.kind not in _CKPT_KINDS] == plain


# ----------------------------------------------------------------------
# Snapshots carry state and metrics, never trace events
# ----------------------------------------------------------------------

def _observed_metrics(obs) -> dict:
    return {name: obs.metrics.get(name).as_dict()
            for name in obs.metrics.names()
            if name.startswith(("obs.", "ckpt."))}


def _observed_recovery(program, prefetching, record_trace, config):
    """run_with_recovery with a fresh observer per incarnation, as a
    process that dies and restarts would have."""
    observers = []

    def make():
        obs = Observer(record_trace=record_trace)
        observers.append(obs)
        machine = Machine(CFG, prefetching=prefetching, observer=obs)
        return machine, Executor(machine)

    return run_with_recovery(make, program, config), observers


class TestRingFreeSnapshots:
    def test_payload_does_not_grow_with_trace_occupancy(self, programs):
        obs = Observer()
        machine, executor = _factory(True, observer=obs)()
        executor.run(programs[("EMBAR", True)])
        before = capture(machine, executor)
        for k in range(50_000):
            obs.emit(float(k), TraceKind.FAULT, k, 1, 0.0, "pad")
        assert obs.trace.total_emitted >= 50_000
        after = capture(machine, executor)
        assert len(after.payload) == len(before.payload)
        # The observer is pickled as a reference: no repro.obs object,
        # the trace ring least of all, is in the payload.
        assert b"repro.obs" not in after.payload
        assert b"TraceBuffer" not in after.payload

    def test_v2_checkpoint_rejected(self, programs, tmp_path):
        """v2 through v6 payloads are all refused."""
        program = programs[("EMBAR", True)]
        machine, executor = _factory(True)()
        executor.run(program)
        snap = capture(machine, executor, label="old")
        store = CheckpointStore(tmp_path)
        for version in (2, 3, 4, 5, 6):
            state = snap.state()
            state["version"] = version
            path, _seq = store.save(
                f"old{version}", dict(snap.meta, snapshot_version=version),
                pickle.dumps(state, protocol=4))
            fresh, fresh_ex = _factory(True)()
            setup_checkpointing(fresh, fresh_ex,
                                CheckpointConfig(label=f"old{version}",
                                                 resume_from=path))
            with pytest.raises(CheckpointError,
                               match=f"version {version} is not supported"
                                     ".*reads version 7"):
                fresh_ex.run(program)

    @pytest.mark.parametrize("variant", ["O", "P"])
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_observer_mode_never_changes_results(self, programs, app, variant):
        """Metrics-only and recording observers give bitwise-identical
        RunStats and obs.*/ckpt.* metrics, uninterrupted and across a
        10 ms cadence with one crash and resume."""
        prefetching = variant == "P"
        program = programs[(app, prefetching)]
        plain = {}
        for record_trace in (True, False):
            obs = Observer(record_trace=record_trace)
            machine, executor = _factory(prefetching, observer=obs)()
            stats = executor.run(program)
            plain[record_trace] = (dataclasses.asdict(stats),
                                   _observed_metrics(obs))
        assert plain[True] == plain[False]
        base_stats, base_metrics = plain[True]

        config = CheckpointConfig(every_us=DEFAULT_CHECKPOINT_EVERY_US,
                                  crash_at_us=(stats.elapsed_us / 2,))
        resumed = {}
        for record_trace in (True, False):
            rec, observers = _observed_recovery(program, prefetching,
                                                record_trace, config)
            assert (rec.crashes, rec.resumes) == (1, 1)
            final = observers[-1]
            resumed[record_trace] = (dataclasses.asdict(rec.stats),
                                     _observed_metrics(final))
            # The resumed incarnation's trace starts at the restore and
            # holds nothing from before the snapshot.
            events = final.trace.events()
            if record_trace:
                restore = events[0]
                assert restore.kind is TraceKind.CHECKPOINT_RESTORE
                assert all(e.ts_us >= restore.value for e in events)
            else:
                assert events == []
        assert resumed[True] == resumed[False]
        stats, metrics = resumed[True]
        assert stats == base_stats
        assert {k: v for k, v in metrics.items() if k.startswith("obs.")} \
            == base_metrics

    def test_writes_count_the_snapshot_a_run_resumed_from(self, programs):
        """``ckpt.writes`` counts every checkpoint of the run, so a
        resumed run reads the same count as an uninterrupted one."""
        program = programs[("EMBAR", True)]
        uninterrupted = run_with_recovery(
            _factory(True), program,
            CheckpointConfig(every_us=DEFAULT_CHECKPOINT_EVERY_US))
        half = uninterrupted.stats.elapsed_us / 2
        finals = {}
        for crashes in ((), (half,)):
            config = CheckpointConfig(every_us=DEFAULT_CHECKPOINT_EVERY_US,
                                      crash_at_us=crashes)
            rec, observers = _observed_recovery(program, True, False, config)
            assert rec.crashes == len(crashes)
            metrics = observers[-1].metrics
            assert metrics.get("ckpt.writes").value == 40 == rec.checkpoints
            finals[crashes] = metrics.get("ckpt.last_cycle_us").value
        assert finals[()] == finals[(half,)]


# ----------------------------------------------------------------------
# The store: slot file, retention, corruption fallback, durable saves
# ----------------------------------------------------------------------

#: Header size and slot alignment of a slot file (docs/robustness.md).
BLOCK = 4096


def _slot_span(path, slot):
    """(offset, length) of the record in ``slot``, from the file's header."""
    blob = path.read_bytes()
    _version, slot_size, _count, _crashes = struct.unpack_from(
        "<IQII", blob, len(MAGIC))
    offset = BLOCK + slot * slot_size
    (length,) = struct.unpack_from("<Q", blob, offset)
    return offset + 8, length


def _slot_seqs(path):
    """The seq held by each slot, None where it is empty or corrupt."""
    blob = path.read_bytes()
    _version, slot_size, count, _crashes = struct.unpack_from(
        "<IQII", blob, len(MAGIC))
    seqs = []
    for slot in range(count):
        offset, length = _slot_span(path, slot)
        try:
            meta, _payload = decode_checkpoint(blob[offset:offset + length])
        except CheckpointError:
            seqs.append(None)
        else:
            seqs.append(meta["seq"])
    return seqs


def _overwrite(path, offset, data):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)


def _flip(path, offset):
    byte = path.read_bytes()[offset]
    _overwrite(path, offset, bytes([byte ^ 0xFF]))


class _Torn(Exception):
    """The simulated crash that cuts a checkpoint write short."""


def _tearing_pwrite(cut, torn):
    """An ``os.pwrite`` that writes ``cut`` bytes, then crashes; appends
    to ``torn`` whether the record was really cut short."""
    real = os.pwrite

    def pwrite(fd, data, offset):
        real(fd, data[:cut], offset)
        torn.append(cut < len(data))
        raise _Torn(cut)
    return pwrite


class TestStore:
    def _completed_run_with_store(self, program, tmp_path, every_frac=0.2,
                                  keep=3):
        base = _uninterrupted(program, True)
        config = CheckpointConfig(every_us=base.elapsed_us * every_frac,
                                  directory=tmp_path, label="t", keep=keep)
        machine, executor = _factory(True)()
        setup_checkpointing(machine, executor, config)
        executor.run(program)
        return base, executor.checkpointer

    def _resume(self, program, tmp_path, keep=3):
        machine, executor = _factory(True)()
        setup_checkpointing(
            machine, executor,
            CheckpointConfig(directory=tmp_path, label="t", keep=keep,
                             resume_from=tmp_path),
        )
        stats = executor.run(program)
        assert executor.checkpointer.restores == 1
        return stats

    def test_directory_resume_scans_the_slot_file_once(self, programs,
                                                       tmp_path):
        """A resume from the checkpoint directory reads and verifies the
        label's slot file once: the crash ledger, the slots in use and
        the newest good record all come from that one scan."""
        program = programs[("EMBAR", True)]
        self._completed_run_with_store(program, tmp_path)
        with mock.patch.object(store_module, "_scan",
                               wraps=store_module._scan) as scan:
            self._resume(program, tmp_path)
        assert scan.call_count == 1

    def test_retention_ring_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for k in range(1, 5):
            store.save("x", {"cycle_us": 0.0}, b"payload%d" % k)
        path = store.path_for("x")
        # The newest two, plus the spare slot the next save overwrites.
        assert sorted(_slot_seqs(path)) == [2, 3, 4]
        meta, payload, loaded, skipped = store.load_latest_good("x")
        assert (meta["seq"], payload, skipped) == (4, b"payload4", 0)
        assert loaded == path == tmp_path / "x.ckpt"
        store.save("x", {"cycle_us": 0.0}, b"payload5")
        assert sorted(_slot_seqs(path)) == [3, 4, 5]

    def test_flipped_byte_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path, _seq = store.save("x", {"cycle_us": 1.0}, b"some payload bytes")
        offset, length = _slot_span(path, 0)
        _flip(path, offset + length // 2)
        with pytest.raises(CheckpointError, match="checksum|truncated|magic"):
            read_checkpoint_file(path)

    def test_unknown_container_version_rejected(self, tmp_path):
        path, _seq = CheckpointStore(tmp_path).save("x", {"cycle_us": 0.0}, b"p")
        # The version field sits right after the magic, little-endian,
        # and is checked before the header's checksum.
        _overwrite(path, len(MAGIC), bytes([CONTAINER_VERSION + 1]))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint_file(path)
        # A version-1 checkpoint (one bare record per file) is refused.
        old = bytearray(encode_checkpoint({"cycle_us": 0.0, "seq": 1}, b"p"))
        old[len(MAGIC)] = 1
        path.write_bytes(bytes(old))
        with pytest.raises(CheckpointError, match="version 1 is not supported"):
            read_checkpoint_file(path)

    def test_corrupt_newest_falls_back_to_previous(self, stream_program, tmp_path):
        base, ckpt = self._completed_run_with_store(stream_program, tmp_path)
        store = ckpt.store
        newest = ckpt.writes
        assert newest >= 2
        path = store.path_for("t")
        offset, length = _slot_span(path, (newest - 1) % (store.keep + 1))
        _flip(path, offset + length - 1)
        meta, _payload, loaded, skipped = store.load_latest_good("t")
        assert skipped == 1
        assert meta["seq"] == newest - 1
        assert loaded == path

    def test_resume_from_corrupt_newest_still_bit_identical(
            self, stream_program, tmp_path):
        base, ckpt = self._completed_run_with_store(stream_program, tmp_path)
        path = ckpt.store.path_for("t")
        offset, _length = _slot_span(path, (ckpt.writes - 1) % 4)
        _overwrite(path, offset, b"REPRO-CKPT" + b"\x00" * 8)  # garbage
        stats = self._resume(stream_program, tmp_path)
        assert dataclasses.asdict(stats) == dataclasses.asdict(base)

    @pytest.mark.parametrize("keep", [1, 3])
    def test_torn_save_resumes_from_previous_record(
            self, stream_program, tmp_path, monkeypatch, keep):
        """A crash mid-``pwrite`` at any byte offset leaves the record
        before it intact; a design with only ``keep`` slots would tear
        the oldest retained one (with keep = 1, the only one)."""
        base, ckpt = self._completed_run_with_store(stream_program, tmp_path,
                                                    keep=keep)
        newest = ckpt.writes
        meta, payload, _path, _skipped = ckpt.store.load_latest_good("t")
        record = encode_checkpoint(dict(meta, seq=newest + 1), payload)
        for cut in (0, 1, 8, 9, 60, len(record) // 2, len(record) + 7):
            torn = []
            with monkeypatch.context() as patch:
                patch.setattr(os, "pwrite", _tearing_pwrite(cut, torn))
                with pytest.raises(_Torn):
                    CheckpointStore(tmp_path, keep=keep).save("t", meta, payload)
            assert torn == [True]
            loaded, _payload, _path, _skipped = \
                CheckpointStore(tmp_path, keep=keep).load_latest_good("t")
            assert loaded["seq"] == newest, cut
            stats = self._resume(stream_program, tmp_path, keep=keep)
            assert dataclasses.asdict(stats) == dataclasses.asdict(base), cut

    @pytest.mark.skipif(not hasattr(os, "fdatasync"),
                        reason="the platform saves with fsync")
    def test_steady_state_save_is_one_pwrite_and_one_fdatasync(
            self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        path, _seq = store.save("x", {"cycle_us": 0.0}, b"a" * 3000)
        inode = path.stat().st_ino
        calls = {}
        for name in ("pwrite", "fdatasync", "fsync", "rename", "replace",
                     "unlink", "listdir", "scandir"):
            real = getattr(os, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(os, name, counted)
        for k in range(5):
            store.save("x", {"cycle_us": float(k)}, b"b" * (1000 + k))
        monkeypatch.undo()
        assert calls == {"pwrite": 5, "fdatasync": 5}
        assert path.stat().st_ino == inode
        assert store.load_latest_good("x")[0]["seq"] == 6

    @settings(max_examples=40, deadline=None)
    @given(keep=st.integers(1, 4),
           sizes=st.lists(st.integers(0, 20_000), min_size=1, max_size=10),
           torn=st.booleans(), next_size=st.integers(0, 20_000),
           pick=st.integers(0, 4), position=st.integers(0, 1 << 20))
    def test_newest_intact_record_survives_one_damaged_slot(
            self, keep, sizes, torn, next_size, pick, position):
        """Saves of random sizes (slots grow 4 KB -> 32 KB), then one
        torn save or one flipped slot: the store returns the newest
        intact record, and nothing older than the keep-th newest save
        unless the newest itself was damaged (then the spare slot's)."""
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root, keep=keep)
            payloads = {}
            for seq, size in enumerate(sizes, 1):
                payloads[seq] = bytes([seq]) * size
                assert store.save("x", {"cycle_us": 0.0}, payloads[seq]) \
                    == (store.path_for("x"), seq)
            newest = len(sizes)
            path = store.path_for("x")
            held = list(range(max(1, newest - keep), newest + 1))
            assert sorted(s for s in _slot_seqs(path) if s) == held
            damaged = None
            if torn:
                cuts = []
                payloads[newest + 1] = b"\xee" * next_size
                with mock.patch.object(
                        os, "pwrite", _tearing_pwrite(position % 30_000, cuts)):
                    try:
                        store.save("x", {"cycle_us": 0.0}, payloads[newest + 1])
                    except _Torn:
                        pass
                # An atomic rewrite (the record outgrew its slot) is not
                # torn, nor is a crash after the whole record was written.
                if cuts != [True]:
                    newest += 1
            else:
                damaged = held[pick % len(held)]
                offset, length = _slot_span(path, (damaged - 1) % (keep + 1))
                _flip(path, offset - 8 + position % (length + 8))
            intact = [s for s in range(max(1, newest - keep), newest + 1)
                      if s != damaged]
            fresh = CheckpointStore(root, keep=keep)
            if not intact:
                with pytest.raises(CheckpointError, match="corrupt|no checkpoints"):
                    fresh.load_latest_good("x")
                return
            meta, payload, _path, _skipped = fresh.load_latest_good("x")
            assert meta["seq"] == max(intact)
            assert payload == payloads[meta["seq"]]
            assert meta["seq"] > newest - keep or damaged == newest

    def test_all_corrupt_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for _ in range(2):
            path, seq = store.save("x", {"cycle_us": 0.0}, b"p")
            offset, length = _slot_span(path, seq - 1)
            _flip(path, offset + length - 1)
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load_latest_good("x")

    def test_missing_label_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            CheckpointStore(tmp_path).load_latest_good("nope")

    def test_crash_ledger_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.crashes_delivered("x") == 0
        assert store.record_crash("x") == 1
        assert store.record_crash("x") == 2
        assert store.crashes_delivered("x") == 2
        assert store.crashes_delivered("other") == 0
        # A slot file holding only the ledger is no checkpoint to resume.
        assert store.load_resumable("x") is None
        # The ledger lives in the slot file's header: saves keep it, and
        # bumping it keeps the records.
        store.save("x", {"cycle_us": 0.0}, b"p")
        assert store.load_resumable("x")[0]["seq"] == 1
        assert store.record_crash("x") == 3
        fresh = CheckpointStore(tmp_path)
        assert fresh.crashes_delivered("x") == 3
        assert fresh.load_latest_good("x")[0]["seq"] == 1

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("x", {"cycle_us": 0.0}, b"p")
        store.record_crash("x")
        store.save("x", {"cycle_us": 0.0}, b"p" * 9000)  # outgrows its slot
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["x.ckpt"]


# ----------------------------------------------------------------------
# process_crash faults in the plan
# ----------------------------------------------------------------------


class TestPlanCrashes:
    def test_plan_crash_raises_through_run_variant(self, stream_program):
        _base, cycles = _probe_run(stream_program, True)
        crash_at = cycles[len(cycles) // 2]
        plan = FaultPlan(seed=1, crashes=(crash_at,))
        with pytest.raises(ProcessCrash) as exc:
            run_variant(stream_program, CFG, prefetching=True, fault_plan=plan)
        assert exc.value.scheduled_us == crash_at
        assert exc.value.at_us >= crash_at

    def test_suppressed_equals_recovered(self, stream_program):
        _base, cycles = _probe_run(stream_program, True)
        plan = FaultPlan(seed=1, crashes=(cycles[len(cycles) // 2],))
        suppressed = run_variant(
            stream_program, CFG, prefetching=True, fault_plan=plan,
            checkpoint=CheckpointConfig(suppress_plan_crashes=True),
        )
        rec = run_with_recovery(
            _factory(True, plan), stream_program,
            CheckpointConfig(every_us=cycles[0]),
        )
        assert rec.crashes == 1
        assert rec.resumes == 1
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(suppressed)

    def test_chaos_sweep_survives_crashes(self):
        from repro.apps.base import AppSpec
        from repro.apps.synthetic import repeated_sweep
        from repro.faults.chaos import CHAOS_CHECKPOINT_EVERY_US, chaos_sweep

        # Several sweeps over an out-of-core array run far past the
        # chaos harness's fixed checkpoint cadence, so the killed row
        # resumes from a checkpoint rather than restarting.
        spec = AppSpec(
            name="SWEEP", nas_name="-", full_name="synthetic sweeps",
            description="repeated sequential passes",
            build=lambda pages, seed: repeated_sweep(
                pages * ELEMS_PER_PAGE, sweeps=3, cost_us=0.2),
        )
        crash_at = CHAOS_CHECKPOINT_EVERY_US * 4
        plan = FaultPlan(seed=1, crashes=(crash_at,))
        report = chaos_sweep(spec, CFG, base_plan=plan,
                             intensities=(0.5, 1.0), data_pages=DATA_PAGES)
        half, full = report.rows
        # Below intensity 1 the crash is dropped (all-or-nothing).
        assert (half.crashes, half.resumes) == (0, 0)
        assert report.clean.elapsed_us > crash_at
        assert full.crashes == 1
        assert full.resumes == 1
        assert dataclasses.asdict(full.stats) == dataclasses.asdict(report.clean)


#: The CLI smoke footprint: EMBAR P at 96 memory pages, 120 data pages.
CFG96 = PlatformConfig(memory_pages=96)


@pytest.fixture(scope="module")
def embar96():
    return build_variant(get_app("EMBAR"), CFG96, "p", 120)


def _make96(plan):
    def make():
        machine = Machine(CFG96, prefetching=True, fault_plan=plan)
        return machine, Executor(machine)
    return make


class TestOneCrashSchedule:
    """Plan crashes and harness crashes (``crash_at_us``) are one
    schedule, and the crash ledger counts every delivered crash."""

    def test_plan_and_harness_crashes_recover_in_process(self, embar96,
                                                          tmp_path):
        plan = dataclasses.replace(default_plan(CFG96.num_disks, seed=1),
                                   crashes=(500_000.0,))
        control = run_variant(
            embar96, CFG96, prefetching=True, fault_plan=plan,
            checkpoint=CheckpointConfig(suppress_plan_crashes=True))
        rec = run_with_recovery(_make96(plan), embar96, CheckpointConfig(
            every_us=50_000.0, directory=tmp_path, label="x",
            crash_at_us=(250_000.0,)))
        assert (rec.crashes, rec.resumes) == (2, 2)
        assert control.elapsed_us > 500_000.0
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(control)
        assert CheckpointStore(tmp_path).crashes_delivered("x") == 2

    def test_harness_crash_is_not_redelivered_after_resume(self, embar96,
                                                           tmp_path):
        """A resumed process starts the schedule at the ledger's count,
        so it runs past the harness crash its predecessor died at."""
        clean = run_variant(embar96, CFG96, prefetching=True)
        config = CheckpointConfig(every_us=100_000.0, directory=tmp_path,
                                  label="x", crash_at_us=(300_000.0,))
        with pytest.raises(ProcessCrash) as exc:
            run_variant(embar96, CFG96, prefetching=True, checkpoint=config)
        assert exc.value.scheduled_us == 300_000.0
        resumed = run_variant(
            embar96, CFG96, prefetching=True,
            checkpoint=dataclasses.replace(config, resume_from=tmp_path))
        assert dataclasses.asdict(resumed) == dataclasses.asdict(clean)
        assert CheckpointStore(tmp_path).crashes_delivered("x") == 1


# ----------------------------------------------------------------------
# FaultPlan: crashes field, version field
# ----------------------------------------------------------------------


class TestPlanSchema:
    def test_crashes_round_trip(self, tmp_path):
        plan = FaultPlan(seed=3, crashes=(200.0, 100.0))
        assert plan.crashes == (100.0, 200.0)  # normalized sorted
        assert not plan.is_noop()
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        assert load_plan(path) == plan
        assert json.loads(path.read_text())["version"] == 1

    def test_negative_crash_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(crashes=(-1.0,))

    def test_unknown_version_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            FaultPlan(version=2)

    def test_unknown_version_rejected_before_field_parsing(self):
        # A future plan with renamed fields must fail on the version,
        # not on "unknown field".
        with pytest.raises(ConfigError, match="version"):
            FaultPlan.from_dict({"version": 99, "renamed_field": 1})

    def test_scaled_drops_crashes_below_one(self):
        plan = FaultPlan(crashes=(10.0,), hint_failure_rate=0.5)
        assert plan.scaled(0.5).crashes == ()
        assert plan.scaled(1.0).crashes == (10.0,)
        assert plan.scaled(2.0).crashes == (10.0,)


# ----------------------------------------------------------------------
# Config validation and signature guard
# ----------------------------------------------------------------------


class TestGuards:
    def test_bad_cadence_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointConfig(every_us=0)
        with pytest.raises(CheckpointError):
            CheckpointConfig(keep=0)

    def test_snapshot_rejects_mismatched_machine(self, programs):
        program = programs[("EMBAR", True)]
        machine, executor = _factory(True)()
        ckpt = Checkpointer(machine, executor,
                            CheckpointConfig(every_us=1.0))
        captured = []
        ckpt.on_write = captured.append
        executor.checkpointer = ckpt
        executor.run(program)
        snap = captured[0]
        other = Machine(CFG, prefetching=False)  # O, not P
        other_ex = Executor(other)
        other_ex.bind(programs[("EMBAR", False)])
        with pytest.raises(CheckpointError, match="signature"):
            snap.restore_into(other, other_ex)

    @pytest.mark.parametrize("change", [
        {"bitvector_granularity": 4},
        {"free_target_fraction": 2 * CFG.free_target_fraction},
        {"cost": dataclasses.replace(
            CFG.cost, filter_check_us=3 * CFG.cost.filter_check_us)},
    ], ids=["bitvector_granularity", "free_target_fraction", "filter_check_us"])
    def test_snapshot_pins_the_whole_platform(self, programs, change):
        """A platform that differs in any field refuses the snapshot, even
        where memory, disks and page size agree."""
        program = programs[("BUK", True)]
        snaps = _snapshots(program, _factory(True), every_us=50_000.0)
        snap = snaps[len(snaps) // 2]
        other = Machine(CFG.scaled(**change), prefetching=True)
        other_ex = Executor(other)
        other_ex.bind(program)
        with pytest.raises(CheckpointError, match="signature keys: config$"):
            snap.restore_into(other, other_ex)


# ----------------------------------------------------------------------
# The snapshot is the machine's state objects, swapped in whole
# ----------------------------------------------------------------------

#: Machine attributes that belong to the incarnation: a restore keeps
#: the restoring machine's own.
KEPT = {"config", "fault_plan", "prefetching", "scalar_chunks", "obs",
        "_ovh_seq", "_inline_filter"}


class TestStateGraph:
    def test_payload_carries_page_state_as_columns(self, programs):
        """No per-page object: page state is one PageColumns store, and
        each fault RNG stream travels as its key and draw count."""
        machine, executor = _factory(
            True, default_plan(CFG.num_disks, seed=1), observer=Observer())()
        executor.run(programs[("EMBAR", True)])
        classes = set()

        class Recorder(pickle.Unpickler):
            def find_class(self, module, name):
                classes.add((module, name))
                if name == "_observer_reference":
                    return lambda: None
                return super().find_class(module, name)

        Recorder(io.BytesIO(capture(machine, executor).payload)).load()
        assert {name for module, name in classes
                if module == "repro.vm.page"} == {"PageColumns"}
        assert ("repro.seeding", "KeyedRng") in classes
        assert ("random", "Random") not in classes

    def test_every_machine_attribute_is_classified(self):
        """A new Machine attribute must join the snapshot's STATE or the
        kept side."""
        machines = [
            Machine(CFG, prefetching=False),
            Machine(CFG, prefetching=True),
            Machine(CFG, prefetching=True,
                    fault_plan=default_plan(CFG.num_disks, seed=1)),
            Machine(CFG, prefetching=True, observer=Observer()),
        ]
        for machine in machines:
            assert set(vars(machine)) == set(STATE) | KEPT

    def test_restore_leaves_no_stale_reference(self, programs):
        program = programs[("EMBAR", True)]
        plan = dataclasses.replace(default_plan(CFG.num_disks, seed=1),
                                   crashes=(1e12,))
        snaps = _snapshots(program, _factory(True, plan, observer=Observer()),
                           every_us=50_000.0)
        snap = snaps[len(snaps) // 2]
        obs = Observer()
        machine, executor = _factory(True, plan, observer=obs)()
        executor.bind(program)
        snap.restore_into(machine, executor)

        manager, runtime = machine.manager, machine.runtime
        storage = machine.disks.faults
        assert manager.clock is machine.clock
        assert runtime.clock is machine.clock
        assert runtime.bitvector is manager.bitvector
        assert manager.bitvector.clock is machine.clock  # lagged
        assert manager.stats is machine.stats and runtime.stats is machine.stats
        assert runtime.manager is manager and manager.disks is machine.disks
        assert runtime.hint_faults.plan is storage.plan
        assert storage.states
        for index, state in storage.states.items():
            assert machine.disks.disks[index].faults is state
        assert machine.obs is obs
        for component in (manager, runtime, machine.disks):
            assert component.obs is obs
        assert obs.stall_latency is obs.metrics.get("obs.stall_latency_us")
        assert manager.ring.cols is manager.cols
        assert all(manager.cols.known[v] for v, _token in manager.ring._ring)


# ----------------------------------------------------------------------
# Hypothesis: snapshot -> restore -> full state equality
# ----------------------------------------------------------------------


class TestRoundTripProperty:
    @settings(max_examples=8, deadline=None)
    @given(fraction=st.floats(min_value=0.05, max_value=0.95))
    def test_restore_reproduces_full_state(self, stream_program, fraction):
        plan = default_plan(CFG.num_disks, seed=2)
        machine, executor = _factory(True, plan)()
        base = executor.run(stream_program)
        machine, executor = _factory(True, plan)()
        captured = []
        ckpt = Checkpointer(
            machine, executor,
            CheckpointConfig(every_us=max(1.0, base.elapsed_us * fraction)),
        )
        ckpt.on_write = lambda snap: captured.append(
            (snap, describe_state(machine, executor.units))
        )
        executor.checkpointer = ckpt
        executor.run(stream_program)
        assert captured
        snap, expected = captured[0]
        fresh_machine, fresh_executor = _factory(True, plan)()
        fresh_executor.bind(stream_program)
        snap.restore_into(fresh_machine, fresh_executor)
        restored = describe_state(fresh_machine, fresh_executor._skip_until)
        assert restored == expected


# ----------------------------------------------------------------------
# End-to-end through the CLI (the CI smoke job in miniature)
# ----------------------------------------------------------------------


class TestCli:
    def test_kill_resume_loop_matches_control(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.metrics import RUN_METRIC_NAMES

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"version": 1, "seed": 1, "crashes": [300000.0]}\n')
        ckpt_dir = tmp_path / "ckpts"
        common = [
            "--memory-pages", "96", "run", "EMBAR", "--pages", "120",
            "--faults", str(plan_path),
            "--checkpoint-dir", str(ckpt_dir),
        ]
        control = tmp_path / "control.json"
        assert main(common + ["--ignore-crash-faults",
                              "--metrics-out", str(control)]) == 0
        crash_metrics = tmp_path / "crash.json"
        code = main(common + ["--checkpoint-every", "100000",
                              "--metrics-out", str(crash_metrics)])
        assert code == 3
        err = capsys.readouterr().err
        assert "process crashed" in err and "--resume-from" in err
        assert f"--resume-from {ckpt_dir / 'EMBAR-P.ckpt'}" in err
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["EMBAR-P.ckpt"]
        assert CheckpointStore(ckpt_dir).load_latest_good("EMBAR-P")[0]["seq"]
        resumed = tmp_path / "resumed.json"
        assert main(common + ["--resume-from", str(ckpt_dir),
                              "--metrics-out", str(resumed)]) == 0
        a = json.loads(control.read_text())["metrics"]
        b = json.loads(resumed.read_text())["metrics"]
        for name in RUN_METRIC_NAMES:
            assert a.get(name) == b.get(name), name
        assert b["ckpt.restores"]["value"] == 1.0

    def test_crashing_run_keeps_its_observations(self, tmp_path, capsys):
        """A planned crash still writes the dying incarnation's trace
        and metrics; the resumed run's trace starts at the restore."""
        from repro.cli import main
        from repro.obs import validate_chrome_trace

        def instants(path):
            trace = json.loads(path.read_text())
            assert validate_chrome_trace(trace) == []
            return [e for e in trace["traceEvents"] if e["ph"] == "i"]

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"version": 1, "seed": 1, "crashes": [300000.0]}\n')
        ckpt_dir = tmp_path / "ckpts"
        common = [
            "--memory-pages", "96", "run", "EMBAR", "--pages", "120",
            "--faults", str(plan_path), "--checkpoint-dir", str(ckpt_dir),
        ]
        crash_trace = tmp_path / "crash_trace.json"
        crash_metrics = tmp_path / "crash_metrics.json"
        assert main(common + ["--checkpoint-every", "100000",
                              "--trace", str(crash_trace),
                              "--metrics-out", str(crash_metrics)]) == 3
        err = capsys.readouterr().err
        died_at = float(re.search(r"crashed at simulated cycle (\d+) us",
                                  err).group(1))
        events = instants(crash_trace)
        assert events
        assert max(e["ts"] for e in events) <= died_at + 0.5
        assert any(e["name"] == "checkpoint_write" for e in events)
        crashed = json.loads(crash_metrics.read_text())["metrics"]
        assert crashed["ckpt.crashes_delivered"]["value"] == 1.0

        resumed_trace = tmp_path / "resumed_trace.json"
        assert main(common + ["--resume-from", str(ckpt_dir),
                              "--trace", str(resumed_trace)]) == 0
        events = instants(resumed_trace)
        restore = events[0]
        assert restore["name"] == "checkpoint_restore"
        assert all(e["ts"] >= restore["args"]["value"] for e in events)
