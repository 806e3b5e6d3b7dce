"""The interpreter's step stream: pinned, and unchanged by batched lowering.

A leaf loop that is a direct child of a loop body is lowered for several
iterations of that loop in one ``lower_leaf`` call.  These tests pin the
steps the walk yields (``scripts/regen_step_golden.py``), check that a
batched call and one call per execution give the same steps, bound the
raw events one call may cover, and check that an error found by a batch
is raised when the walk reaches the execution that causes it.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.interp.executor as executor_module
from repro.apps.registry import get_app
from repro.config import PlatformConfig
from repro.core.ir.builder import ProgramBuilder, loop, read, work, write
from repro.core.ir.expr import Var
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.checkpoint import CheckpointConfig
from repro.checkpoint.runner import Checkpointer
from repro.errors import AddressError, ProcessCrash
from repro.fuzz.strategies import programs
from repro.harness.experiment import build_variant
from repro.interp.executor import BATCH_EVENTS, Executor
from repro.interp.lower import lower_leaf
from repro.machine.machine import Machine

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_regen_script():
    """The regen script is the single source of truth for the walks."""
    path = REPO_ROOT / "scripts" / "regen_step_golden.py"
    spec = importlib.util.spec_from_file_location("regen_step_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGEN = _load_regen_script()


def test_step_stream_matches_golden():
    """Every app x variant x footprint walk yields exactly the pinned
    steps.  If this fails after an intentional change to the apps, the
    pass or the step format, regenerate with
    ``PYTHONPATH=src python scripts/regen_step_golden.py``."""
    with open(REGEN.GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert REGEN.step_digests() == golden


def one_at_a_time(recipe, loop_var, values, env, page_size, segments,
                  strides, sizes=None):
    """``lower_leaf`` serving a batched call with one call per execution.

    Each execution's enclosing-loop binding is the (constant) element of
    the array ``env`` binds it to, as the walk itself would bind it.
    """
    if sizes is None:
        return lower_leaf(recipe, loop_var, values, env, page_size,
                          segments, strides)
    parts, tails, ends = [], [], []
    first = 0
    for size in sizes:
        part_env = {name: int(value[first]) if isinstance(value, np.ndarray)
                    else value for name, value in env.items()}
        kinds, pages, costs, tail = lower_leaf(
            recipe, loop_var, values[first:first + size], part_env,
            page_size, segments, strides)
        parts.append((kinds, pages, costs))
        tails.append(tail)
        ends.append((ends[-1] if ends else 0) + len(kinds))
        first += size
    kinds, pages, costs = (np.concatenate(col) for col in zip(*parts))
    return kinds, pages, costs, tails, ends


def _walk_digest(program, platform):
    executor = Executor(Machine(platform, prefetching=True))
    executor.bind(program)
    return REGEN.digest_steps(executor.steps(program))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=programs())
def test_batched_lowering_matches_one_call_per_execution(spec):
    platform = PlatformConfig(memory_pages=32)
    program = spec.build()
    compiled = insert_prefetches(
        program, CompilerOptions.from_platform(platform)).program
    for prog in (program, compiled):
        batched = _walk_digest(prog, platform)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor_module, "lower_leaf", one_at_a_time)
            single = _walk_digest(prog, platform)
        assert batched == single


def _steps(program):
    executor = Executor(Machine(PlatformConfig(memory_pages=32),
                                prefetching=True))
    executor.bind(program)
    return executor.steps(program)


def test_a_leaf_twice_in_one_body_runs_twice_per_iteration():
    """The same leaf object twice in a loop body runs twice per
    iteration; a batch would hand the second run the next iteration's
    chunk, so such a leaf is lowered alone."""
    b = ProgramBuilder("repeated_leaf")
    x = b.array("x", (64 * 512,), elem_size=8)  # one page per i
    leaf = loop("j", 0, 8, [work([read(x, Var("i") * 512 + Var("j"))], 1.0)])
    b.append(loop("i", 0, 64, [leaf, leaf]))
    pages = [int(step[2][0]) for step in _steps(b.build())]
    assert pages == [pages[0] + i for i in range(64) for _ in range(2)]


def test_a_leaf_after_a_shadowing_loop_is_lowered_alone():
    """An inner loop reusing the enclosing variable unbinds it on exit,
    so the leaf after it runs with the variable unbound: it is lowered
    alone, and the walk ends as it always has, with the outer loop's own
    unbinding failing after every step is yielded."""
    b = ProgramBuilder("shadowed_variable")
    x = b.array("x", (64,), elem_size=8)
    b.append(loop("i", 0, 16, [
        loop("i", 0, 2, [loop("j", 0, 4, [work([read(x, Var("j"))], 1.0)])]),
        loop("j", 0, 8, [work([write(x, Var("j") + 8)], 2.0)]),
    ]))
    steps = []
    with pytest.raises(KeyError, match="'i'"):
        steps.extend(_steps(b.build()))
    assert [step[0] for step in steps] == ["chunk"] * 16 * 3


@pytest.mark.parametrize("app", ["APPSP", "MGRID", "APPBT"])
def test_no_lowering_call_passes_the_budget(app, monkeypatch):
    """A lowering call covers at most BATCH_EVENTS raw events (iterations
    x columns) unless it serves a single execution."""
    calls = []

    def spy(recipe, loop_var, values, *args):
        sizes = args[4] if len(args) > 4 else None
        calls.append((len(values) * len(recipe.templates),
                      1 if sizes is None else len(sizes)))
        return lower_leaf(recipe, loop_var, values, *args)

    monkeypatch.setattr(executor_module, "lower_leaf", spy)
    platform = PlatformConfig(memory_pages=96)
    program = build_variant(get_app(app), platform, "p", 120)
    Executor(Machine(platform, prefetching=True)).run(program)
    assert any(executions > 1 for _, executions in calls)
    assert all(events <= BATCH_EVENTS
               for events, executions in calls if executions > 1)


def _late_oob():
    """The leaf reads ``x[i][j]`` for i up to 11, but ``x`` has 10 rows."""
    b = ProgramBuilder("late_oob")
    x = b.array("x", (10, 600), elem_size=8)
    y = b.array("y", (12, 600), elem_size=8)
    i, j = Var("i"), Var("j")
    b.append(loop("i", 0, 12, [
        work([write(y, i, 0)], 3.0),
        loop("j", 0, 600, [work([read(x, i, j), write(y, i, j)], 1.0)]),
    ]))
    return b.build()


def test_address_error_surfaces_at_its_execution():
    """A batch lowered ahead sees row 10 early, and a tape pulls the
    steps before it ahead of their replay; the error must still come
    when the walk reaches i = 10 (unit 21), with that execution's own
    addresses in the message, on the tape and on the per-step path."""
    for scalar in (False, True):
        machine = Machine(PlatformConfig(memory_pages=64), prefetching=False,
                          scalar_chunks=scalar)
        executor = Executor(machine)
        with pytest.raises(AddressError) as err:
            executor.run(_late_oob())
        assert executor.units == 21
        assert machine.clock.now == 236_033.0
        assert str(err.value) == (
            "reference to 'x' runs outside its segment "
            "(addresses [52096, 56888], segment [4096, 52096))")


@pytest.mark.parametrize("scalar", [False, True], ids=["tape", "per-step"])
def test_a_crash_before_a_walk_error_lands_first(scalar):
    """The tape holding unit 20 was filled up to unit 21's address error,
    but a crash due at unit 20's safe point (236,030 us) is delivered
    there, on both paths: no later walk error overtakes an earlier safe
    point."""
    machine = Machine(PlatformConfig(memory_pages=64), prefetching=False,
                      scalar_chunks=scalar)
    executor = Executor(machine)
    executor.checkpointer = Checkpointer(
        machine, executor, CheckpointConfig(crash_at_us=(230_000.0,)))
    with pytest.raises(ProcessCrash) as crash:
        executor.run(_late_oob())
    assert (crash.value.cursor, crash.value.at_us) == (20, 236_030.0)
    assert executor.units == 20
