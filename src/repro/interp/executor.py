"""The IR interpreter.

:class:`Executor` holds the one walk of a program's statement tree (the
access-trace oracle in :mod:`repro.interp.tracing` is kept independent
on purpose).  The walk, :meth:`Executor.steps`, is a generator that
yields one *step* per unit:

* ``("work", cost_us, [(vpage, is_write), ...])`` -- a work statement:
  compute time, then its demand accesses;
* ``("chunk", kinds, pages, costs, tail_us)`` -- a leaf loop (a flat body
  of work + single-page hints) lowered by :mod:`repro.interp.lower`;
* ``("compute", us)`` -- a pure-compute leaf loop;
* ``("prefetch", start, n)`` / ``("release", vpages)`` /
  ``("prefetch_release", start, n, vpages)`` -- a hint, clamped to its
  array's segment;
* ``("dropped",)`` -- a hint clamped to nothing: an address outside the
  array is a silent no-op, preserving the non-binding semantics;
* ``("nop",)`` -- a hint on a machine with no run-time layer, where
  hints are dead code.

:meth:`Executor.run` replays the steps on its :class:`Machine`; the
co-scheduler (:mod:`repro.multiprog.scheduler`) interleaves the steps of
several executors bound to one shared machine.  The same interpreter
runs both the original and the transformed program: the original simply
contains no hints.

**Step replay.**  The walk's steps depend only on ``env`` and params,
never on machine state, so ``run`` pulls them ahead into a *tape* of at
most :data:`BATCH_EVENTS` events and steps (:meth:`Executor._fill`) and
replays the tape with one :meth:`Machine.run_chunk` call: the chunks'
events concatenated, each work step's accesses with the step's compute
on its first access, a single-page prefetch as one event, and at every
step edge a flush of the pending time and the step's tail or compute.
Any other hint ends the call, and ``run`` replays it through
:meth:`Executor._replay` before the next one.  The clock sees the
advances the per-step calls of ``_replay`` make, in their order.  Runs
the kernel does not serve (:meth:`Machine.serves_tapes`: a recording
observer or a sink, binding, adaptive or unfiltered prefetch, a hint
gate in fallback, ``scalar_chunks``) replay one step at a time through
``_replay``, the executable specification; so does the rest of a tape
after a slow-dense step.  ``_replay`` never reaches the kernel: it
replays a chunk on its own, on the scalar loop.  A walk error met while
filling a tape is raised after the steps before it replay.

**Safe points and the unit cursor.**  Execution is counted in *units*:
one work statement, one hint, one vectorized leaf chunk, or one
pure-compute leaf loop.  Every step edge is a safe point, where ``run``
calls the attached checkpointer's ``at_safe_point`` hook (crash delivery
and checkpoint cadence live there, see :mod:`repro.checkpoint.runner`)
-- between steps no chunk is half-replayed, which is what makes a
snapshot crash-consistent.  A tape stops at the first edge whose clock
reaches the checkpointer's next crash or checkpoint
(``Checkpointer.next_stop_us``): the first safe point where the hook
acts, so the hook runs after each tape call and the safe points before
it, where it would do nothing, are passed over.  Resume is
*skip-replay*: the walk re-walks the control
flow (loop bounds, ``If`` conditions, environment bindings), counting
units without yielding them, resolving their addresses or lowering their
leaves, until the unit cursor reaches the snapshot's cursor; then it
goes live.  This is sound because control flow depends only on
``env``/params, never on machine state.  When no checkpointer is
attached the instrumentation is two integer compares per unit, and the
simulated run is bit-identical either way.

**Batched lowering.**  A leaf loop that is a direct child of a loop body
runs once per iteration of that loop, with the outer bindings plus the
loop variable as its ``env``.  When the walk reaches a live execution of
one, it lowers that execution and the loop's next ones in one
:func:`~repro.interp.lower.lower_leaf` call of at most
:data:`BATCH_EVENTS` raw events, with the loop variable bound to an
array parallel to the concatenated leaf values.  The batch lives in the
enclosing loop's walk frame, and each execution still yields its own
``chunk`` step, bitwise what lowering it alone gives, so steps, units
and safe points are those of one call per execution.  Leaves under an
``If``, top-level leaves and executions over the budget are lowered
alone.  A batch starts at a live execution, so skip-replay never lowers
a skipped unit; a batch that raises is dropped, and each execution is
lowered alone, raising its own error when the walk reaches it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterator

import numpy as np

from repro.core.ir.nodes import Hint, HintKind, If, Loop, Program, Stmt, Work
from repro.errors import AddressError, ExecutionError, ReproError
from repro.interp.lower import LeafRecipe, analyze_leaf, lower_leaf
from repro.machine.events import PREFETCH_HINT, READ, WRITE
from repro.machine.machine import Machine, Tape
from repro.sim.stats import RunStats

#: Most raw events (iterations x columns) one lowering call covers when
#: it serves several leaf executions; an execution larger than this is
#: lowered alone.  Bounds the memory a batch holds.
BATCH_EVENTS = 8192

#: Chunks up to this many events join a tape's run of small events as
#: Python lists; longer ones join it as their own arrays.
_SMALL_CHUNK = 32
#: The dtypes of a tape's kinds, pages and costs.
_COLUMN_DTYPES = (np.int64, np.int64, np.float64)


class _Batches:
    """The lowered-ahead chunks of one running loop's leaf children.

    Lives in the loop's walk frame, so no batch outlives the loop."""

    __slots__ = ("loop", "upper", "pending")

    def __init__(self, loop: Loop, upper: int) -> None:
        self.loop = loop
        #: The loop's evaluated upper bound.
        self.upper = upper
        #: leaf loop_id -> its next executions' chunk steps, last first.
        self.pending: dict[int, list[tuple]] = {}


class Executor:
    """Runs one program on one machine."""

    def __init__(
        self,
        machine: Machine,
        warm_start: bool = False,
        vectorize: bool = True,
    ) -> None:
        self.machine = machine
        self.warm_start = warm_start
        #: Disable the numpy fast path (differential testing: the scalar
        #: and vectorized executions must produce identical statistics).
        self.vectorize = vectorize
        self._segments: dict[str, tuple[int, int]] = {}
        self._strides: dict[str, tuple[int, ...]] = {}
        self._leaf_cache: dict[int, LeafRecipe | None] = {}
        #: Hints whose addresses fell outside their array (dropped no-ops).
        self.out_of_range_hints = 0
        #: Executed-unit cursor (work stmts, hints, leaf chunks).
        self.units = 0
        #: Units to skip-replay before going live (armed on resume).
        self._skip_until = 0
        #: Safe-point hook (a repro.checkpoint.runner.Checkpointer) or None.
        self.checkpointer = None
        #: One-shot callable run after array binding (snapshot restore).
        self._resume_hook = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def bind(self, program: Program, prefix: str = "") -> None:
        """Map each array of ``program`` to its own segment.

        Segments are named ``prefix + array name``: co-scheduled
        processes share one address space, so each binds under its own
        prefix.  A warm start preloads every segment.
        """
        machine = self.machine
        params = program.params
        for arr in program.arrays:
            nbytes = arr.nbytes(params)
            seg = machine.map_segment(prefix + arr.name, nbytes)
            self._segments[arr.name] = (seg.base, nbytes)
            self._strides[arr.name] = arr.strides_elems(params)
            if self.warm_start:
                machine.warm_load_segment(seg)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, program: Program) -> RunStats:
        """Execute ``program`` and finish the machine; returns its stats."""
        self.bind(program)
        if self._resume_hook is not None:
            # Restore the snapshot over the (deterministic) bound setup,
            # then skip-replay to its cursor inside the walk below.
            hook, self._resume_hook = self._resume_hook, None
            hook(self)
        machine = self.machine
        steps = self.steps(program, machine.obs)
        held = None  # a step pulled from the walk that starts the next tape
        try:
            while True:
                if not machine.serves_tapes():
                    step, held = held, None
                    if step is None:
                        step = next(steps, None)
                        if step is None:
                            break
                    self._replay(step)
                    self.units += 1
                    if self.checkpointer is not None:
                        self.checkpointer.at_safe_point(self)
                    continue
                tape, held, error = self._fill(steps, held)
                if tape is not None:
                    self._replay_tape(*tape)
                if error is not None:
                    # The walk failed after the tape's last step: its
                    # steps (and their safe points) came first.
                    raise error
                if tape is None:
                    break
        finally:
            # A crash raised at a safe point unwinds the suspended walk
            # here, popping its loop contexts before the crash propagates.
            steps.close()
        return machine.finish()

    def _replay(self, step: tuple) -> None:
        """Replay one step through the machine's per-step calls, a chunk
        on the scalar loop: the executable specification of what a tape
        replays."""
        machine = self.machine
        kind = step[0]
        if kind == "chunk":
            machine.run_chunk(step[1], step[2], step[3])
            if step[4]:
                machine.compute(step[4])
        elif kind == "work":
            if step[1]:
                machine.compute(step[1])
            for vpage, is_write in step[2]:
                machine.access(vpage, is_write)
        elif kind == "prefetch":
            machine.prefetch(step[1], step[2])
        elif kind == "release":
            machine.release(step[1])
        elif kind == "prefetch_release":
            machine.prefetch_release(step[1], step[2], step[3])
        elif kind == "compute":
            machine.compute(step[1])
        elif kind == "dropped":
            self.out_of_range_hints += 1

    def _fill(self, steps: Iterator[tuple], held: tuple | None) -> tuple:
        """Pull ``held`` and the walk's next steps into one tape of at
        most :data:`BATCH_EVENTS` events and steps (one step at least).

        Returns ``(tape, held, error)``: the arguments of
        :meth:`_replay_tape` (None when the walk had no step left); a
        chunk that would overflow a tape already holding events, held
        over to start the next tape, so that no long chunk is copied
        into a tape; and the exception the
        walk raised while filling, which must wait until the steps
        before it have replayed (None when it raised nothing).

        A chunk step's events are its chunk's, its tail the edge's
        compute.  A work step's accesses are READ/WRITE events with the
        step's compute on the first (a work step with no reference
        charges it at its edge): the kernel then charges it before the
        first slow access, as ``compute`` before ``access`` does, and a
        hit reads no clock.  A single-page prefetch is one
        ``PREFETCH_HINT`` event, charged as the run-time layer charges
        it; any other hint is a step of ``tape.calls``, which
        :meth:`_replay_tape` replays through :meth:`_replay`.  The
        columns are arrays, so no kernel call on the tape converts them.
        """
        taken: list[tuple] = []
        pieces: list[tuple] = []       # event runs, in order
        kinds: list[int] = []          # the current run of small events
        pages: list[int] = []
        costs: list[float] = []
        ends: list[int] = []
        edge_us: list[float] = []
        calls: list[int] = []
        dropped: list[int] = []
        take, end, charge = taken.append, ends.append, edge_us.append
        events = 0
        room = BATCH_EVENTS
        error = None
        source = steps if held is None else itertools.chain((held,), steps)
        held = None
        try:
            for step in source:
                kind = step[0]
                if kind == "chunk":
                    size = len(step[1])
                    if size > room and events:
                        held = step
                        break
                    take(step)
                    if size > _SMALL_CHUNK:
                        if kinds:
                            pieces.append((kinds, pages, costs))
                            kinds, pages, costs = [], [], []
                        pieces.append(step[1:4])
                    else:
                        kinds += step[1].tolist()
                        pages += step[2].tolist()
                        costs += step[3].tolist()
                    events += size
                    room -= size + 1
                    end(events)
                    charge(step[4])
                elif kind == "work":
                    take(step)
                    refs = step[2]
                    if refs:
                        costs.append(step[1])
                        costs += [0.0] * (len(refs) - 1)
                        for vpage, is_write in refs:
                            kinds.append(WRITE if is_write else READ)
                            pages.append(vpage)
                        events += len(refs)
                        room -= len(refs) + 1
                        end(events)
                        charge(0.0)
                    else:
                        room -= 1
                        end(events)
                        charge(step[1])
                else:
                    take(step)
                    room -= 1
                    if kind == "prefetch" and step[2] == 1:
                        kinds.append(PREFETCH_HINT)
                        pages.append(step[1])
                        costs.append(0.0)
                        events += 1
                        room -= 1
                    elif kind == "dropped":
                        dropped.append(len(taken) - 1)
                    elif kind != "nop" and kind != "compute":
                        calls.append(len(taken) - 1)
                    end(events)
                    charge(step[1] if kind == "compute" else 0.0)
                if room <= 0:
                    break
        except Exception as exc:  # noqa: BLE001 -- re-raised by run()
            error = exc
        if not taken:
            return None, None, error
        if kinds or not pieces:
            pieces.append((kinds, pages, costs))
        columns = [np.asarray(column[0], dtype=dtype) if len(column) == 1
                   else np.concatenate(column, dtype=dtype)
                   for column, dtype in zip(zip(*pieces), _COLUMN_DTYPES)]
        tape = Tape(np.array(ends, dtype=np.int64),
                    np.array(edge_us, dtype=np.float64), calls)
        return (taken, *columns, tape, dropped), held, error

    def _replay_tape(self, taken: list[tuple], kinds, pages, costs,
                     tape: Tape, dropped: list[int]) -> None:
        """Replay a filled tape on the machine's kernel, in as few calls
        as its hints and its checkpointer's safe points allow.

        A hint of ``tape.calls`` goes through :meth:`_replay` between
        two kernel calls.  The rest goes one step at a time while the
        kernel does not serve the run (a hint gate in fallback), and
        after a call that ended short of its safe point and of the next
        hint: a slow-dense step, on which the per-step calls cost less.
        """
        machine = self.machine
        checkpointer = self.checkpointer
        calls = tape.calls
        per_step = False
        while tape.done < len(taken):
            first = tape.done
            hint = bisect.bisect_left(calls, first)
            hint = calls[hint] if hint < len(calls) else len(taken)
            if first < hint and not per_step and machine.serves_tapes():
                stop_us = (checkpointer.next_stop_us()
                           if checkpointer is not None else math.inf)
                done = machine.run_chunk(kinds, pages, costs, tape, stop_us)
                if dropped:
                    self.out_of_range_hints += (
                        bisect.bisect_left(dropped, first + done)
                        - bisect.bisect_left(dropped, first))
                per_step = (first + done < hint
                            and machine.clock.now < stop_us)
            else:
                self._replay(taken[first])
                done = 1
                tape.done += 1
            self.units += done
            if checkpointer is not None:
                checkpointer.at_safe_point(self)

    def steps(self, program: Program, obs=None) -> Iterator[tuple]:
        """Walk a bound ``program``, yielding one step per live unit.

        ``obs`` gets the program and loop-nest context pushed around the
        walk and each loop.  The co-scheduler passes none: interleaved
        processes must not push onto one shared context stack.
        """
        if obs is not None:
            obs.push_context(program.name)
        try:
            yield from self._walk(program.body, dict(program.params), obs)
        finally:
            if obs is not None:
                obs.pop_context()

    def _walk(self, body: list[Stmt], env: dict, obs,
              outer: _Batches | None = None) -> Iterator[tuple]:
        """Yield ``body``'s steps; ``outer`` is set when ``body`` is a
        loop's body, whose leaf children it lowers in batches."""
        for stmt in body:
            if isinstance(stmt, Work):
                if self.units < self._skip_until:
                    self.units += 1
                    continue
                yield ("work", stmt.cost_us,
                       [(self._ref_page(ref, env), ref.is_write)
                        for ref in stmt.refs])
            elif isinstance(stmt, Loop):
                # Label by loop variable: stable across runs (loop_id is a
                # process-global counter) and what the collapsed stacks show.
                if obs is not None:
                    obs.push_context(stmt.var)
                try:
                    lower = stmt.lower.eval(env)
                    upper = stmt.upper.eval(env)
                    if upper <= lower:
                        continue
                    recipe = None
                    if self.vectorize:
                        recipe = self._leaf_cache.get(stmt.loop_id, False)
                        if recipe is False:  # not analyzed yet
                            recipe = analyze_leaf(stmt)
                            self._leaf_cache[stmt.loop_id] = recipe
                    if recipe is None:
                        batches = _Batches(stmt, upper)
                        for value in range(lower, upper, stmt.step):
                            env[stmt.var] = value
                            yield from self._walk(stmt.body, env, obs,
                                                  batches)
                        del env[stmt.var]
                    elif self.units < self._skip_until:
                        # Either leaf form is one unit; skip mode never
                        # lowers it.
                        self.units += 1
                    elif not recipe.templates:
                        # Pure compute: charge the whole loop in one step.
                        iters = -(-(upper - lower) // stmt.step)
                        yield ("compute", iters * recipe.iter_cost)
                    else:
                        yield self._leaf_chunk(stmt, recipe, lower, upper,
                                               env, outer)
                finally:
                    if obs is not None:
                        obs.pop_context()
            elif isinstance(stmt, Hint):
                if self.units < self._skip_until:
                    self.units += 1
                    continue
                yield self._hint_step(stmt, env)
            elif isinstance(stmt, If):
                branch = stmt.then_body if stmt.cond.eval(env) else stmt.else_body
                yield from self._walk(branch, env, obs)
            else:
                raise ExecutionError(f"cannot execute statement {stmt!r}")

    # ------------------------------------------------------------------
    # Leaf lowering
    # ------------------------------------------------------------------

    def _leaf_chunk(self, loop: Loop, recipe: LeafRecipe, lower: int,
                    upper: int, env: dict, outer: _Batches | None) -> tuple:
        """The chunk step of one live execution of a leaf loop."""
        if outer is not None:
            pending = outer.pending.get(loop.loop_id)
            if not pending:
                pending = self._lower_ahead(loop, recipe, lower, upper, env,
                                            outer)
                outer.pending[loop.loop_id] = pending
            if pending:
                return pending.pop()
        values = np.arange(lower, upper, loop.step, dtype=np.int64)
        return ("chunk", *lower_leaf(
            recipe, loop.var, values, env, self.machine.config.page_size,
            self._segments, self._strides))

    def _lower_ahead(self, loop: Loop, recipe: LeafRecipe, lower: int,
                     upper: int, env: dict, outer: _Batches) -> list[tuple]:
        """Lower this execution of a leaf child of ``outer``'s loop and
        the loop's next ones in one call, up to :data:`BATCH_EVENTS` raw
        events; returns their chunk steps, last first.

        Empty when the batch would serve this execution alone: it is too
        large, nothing fits beside it, or the batched call raised.  An
        error belongs to one execution, and lowering each alone raises
        it when the walk reaches that execution, with its own message.
        The walk is live here and stays live, so no skipped unit is ever
        lowered.
        """
        ncols = len(recipe.templates)
        var, step = outer.loop.var, loop.step
        current = env.get(var)
        count = -(-(upper - lower) // step)
        events = count * ncols
        if (current is None or events > BATCH_EVENTS
                or sum(stmt is loop for stmt in outer.loop.body) != 1):
            # Shadowed enclosing variable, an oversized execution, or a
            # leaf that runs more than once per iteration.
            return []
        starts, counts, outers = [lower], [count], [current]
        try:
            for value in range(current + outer.loop.step, outer.upper,
                               outer.loop.step):
                env[var] = value
                lo = loop.lower.eval(env)
                hi = loop.upper.eval(env)
                count = -(-(hi - lo) // step) if hi > lo else 0
                # An empty execution has no entry; it counts as one event
                # so that a run of them still ends the look-ahead.
                events += count * ncols or 1
                if events > BATCH_EVENTS:
                    break
                if count:
                    starts.append(lo)
                    counts.append(count)
                    outers.append(value)
        except ReproError:
            pass  # the batch stops short; the walk raises on reaching it
        finally:
            env[var] = current
        if len(counts) < 2:
            return []
        # The executions' ranges, concatenated: iteration j of execution
        # i is starts[i] + j * step.
        sizes = np.array(counts, dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        values = (np.arange(int(offsets[-1] + sizes[-1]), dtype=np.int64)
                  * step
                  + np.repeat(np.array(starts, dtype=np.int64)
                              - offsets * step, sizes))
        batch_env = dict(env)
        batch_env[var] = np.repeat(np.array(outers, dtype=np.int64), sizes)
        try:
            kinds, pages, costs, tails, ends = lower_leaf(
                recipe, loop.var, values, batch_env,
                self.machine.config.page_size, self._segments,
                self._strides, counts)
        except (ReproError, IndexError):
            return []
        steps = []
        first = 0
        for end, tail in zip(ends, tails):
            steps.append(("chunk", kinds[first:end], pages[first:end],
                          costs[first:end], tail))
            first = end
        steps.reverse()
        return steps

    # ------------------------------------------------------------------
    # Addresses and hints
    # ------------------------------------------------------------------

    def _addr(self, array, indices, env: dict) -> int:
        linear = 0
        for ix, stride in zip(indices, self._strides[array.name]):
            linear += ix.eval(env) * stride
        return self._segments[array.name][0] + linear * array.elem_size

    def _ref_page(self, ref, env: dict) -> int:
        addr = self._addr(ref.array, ref.indices, env)
        base, nbytes = self._segments[ref.array.name]
        if not base <= addr < base + nbytes:
            raise AddressError(
                f"reference {ref!r} evaluates to address {addr} outside "
                f"segment [{base}, {base + nbytes})"
            )
        return addr // self.machine.config.page_size

    def _hint_pages(self, array, indices, npages: int, env: dict) -> tuple[int, int]:
        """(start_vpage, npages) clamped to the array's segment; (0,0) if none."""
        addr = self._addr(array, indices, env)
        base, nbytes = self._segments[array.name]
        page_size = self.machine.config.page_size
        first_page = base // page_size
        last_page = (base + nbytes - 1) // page_size
        start = addr // page_size
        end = start + npages - 1
        if start < first_page:
            start = first_page
        if end > last_page:
            end = last_page
        if end < start:
            return 0, 0
        return start, end - start + 1

    def _hint_step(self, hint: Hint, env: dict) -> tuple:
        if self.machine.runtime is None:
            return ("nop",)
        pf_start = pf_n = 0
        if hint.target is not None:
            npages = max(0, hint.npages.eval(env))
            pf_start, pf_n = self._hint_pages(
                hint.target.array, hint.target.indices, npages, env
            )
        rel_pages: list[int] = []
        if hint.release_target is not None:
            rn = max(0, hint.release_npages.eval(env))
            r_start, r_n = self._hint_pages(
                hint.release_target.array, hint.release_target.indices, rn, env
            )
            rel_pages = list(range(r_start, r_start + r_n))

        if hint.kind is HintKind.PREFETCH:
            return ("prefetch", pf_start, pf_n) if pf_n else ("dropped",)
        if hint.kind is HintKind.RELEASE:
            return ("release", rel_pages) if rel_pages else ("dropped",)
        # PREFETCH_RELEASE: whichever half survived the clamp.
        if pf_n and rel_pages:
            return ("prefetch_release", pf_start, pf_n, rel_pages)
        if pf_n:
            return ("prefetch", pf_start, pf_n)
        if rel_pages:
            return ("release", rel_pages)
        return ("dropped",)


def run_program(
    program: Program,
    machine: Machine | None = None,
    warm_start: bool = False,
) -> RunStats:
    """Convenience: execute ``program`` on a fresh (or given) machine."""
    if machine is None:
        machine = Machine()
    return Executor(machine, warm_start=warm_start).run(program)
