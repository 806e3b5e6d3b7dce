"""Edge-case tests across the compiler and interpreter.

Covers the corners the mainline tests do not reach: stepped loops through
the whole pass, triangular nests, bundled hints in leaf bodies, negative
travel directions, hint clamping at segment ends, and printer fallbacks.
"""

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.core.analysis.locality import group_references
from repro.core.analysis.planner import PlanKind, plan_program
from repro.core.ir.arrays import ArrayDecl
from repro.core.ir.builder import ProgramBuilder, loop, read, work, write
from repro.core.ir.expr import MaxExpr, MinExpr, Var
from repro.core.ir.nodes import AddrOf, Cmp, Hint, HintKind, If, Program, Work
from repro.core.ir.printer import format_program
from repro.core.ir.visit import count_stmts, walk_hints, walk_loops, walk_refs
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.interp.executor import Executor, run_program
from repro.interp.lower import analyze_leaf
from repro.interp.tracing import access_trace
from repro.machine.machine import Machine

CFG = PlatformConfig(memory_pages=128)
OPTS = CompilerOptions.from_platform(CFG)


class TestSteppedLoops:
    def _stepped(self, n=120_000, step=4):
        b = ProgramBuilder("stepped")
        x = b.array("x", (n,), elem_size=8)
        b.append(loop("i", 0, n, [work([read(x, Var("i"))], 10.0)], step=step))
        return b.build()

    def test_pass_handles_step(self):
        prog = self._stepped()
        result = insert_prefetches(prog, OPTS)
        assert access_trace(prog) == access_trace(result.program)

    def test_strips_are_step_multiples(self):
        result = insert_prefetches(self._stepped(), OPTS)
        for lp in walk_loops(result.program.body):
            if "__s" in lp.var:
                assert lp.step % 4 == 0

    def test_stepped_execution_matches_scalar(self):
        prog = self._stepped(n=40_000)
        result = insert_prefetches(prog, OPTS)
        m1 = Machine(CFG, prefetching=True)
        s1 = Executor(m1, vectorize=True).run(result.program)
        m2 = Machine(CFG, prefetching=True)
        s2 = Executor(m2, vectorize=False).run(result.program)
        assert s1.elapsed_us == pytest.approx(s2.elapsed_us)
        assert s1.faults.total_faults == s2.faults.total_faults


class TestTriangularNest:
    def _triangular(self, n=600):
        b = ProgramBuilder("tri")
        c = b.array("c", (n, n), elem_size=8)
        i, j = Var("i"), Var("j")
        b.append(loop("i", 0, n, [
            loop("j", Var("i"), n, [work([read(c, i, j)], 4.0)]),
        ]))
        return b.build()

    def test_pass_preserves_triangular_trace(self):
        prog = self._triangular()
        result = insert_prefetches(prog, OPTS)
        limit = 600 * 600 + 16
        assert access_trace(prog, limit=limit) == access_trace(
            result.program, limit=limit
        )

    def test_triangular_runs(self):
        prog = self._triangular(400)
        result = insert_prefetches(prog, OPTS)
        stats = run_program(result.program, Machine(CFG, prefetching=True))
        assert stats.faults.total_faults > 0


class TestLeafClassification:
    def _arr(self):
        return ArrayDecl("x", (10_000,), elem_size=8)

    def test_bundled_hint_disqualifies_leaf(self):
        x = self._arr()
        body = [
            Hint(
                HintKind.PREFETCH_RELEASE,
                AddrOf(x, (Var("i"),)),
                npages=4,
                release_target=AddrOf(x, (Var("i") - 2048,)),
                release_npages=4,
            ),
            work([read(x, Var("i"))], 1.0),
        ]
        assert analyze_leaf(loop("i", 0, 100, body)) is None

    def test_block_prefetch_disqualifies_leaf(self):
        x = self._arr()
        body = [
            Hint(HintKind.PREFETCH, AddrOf(x, (Var("i"),)), npages=4),
            work([read(x, Var("i"))], 1.0),
        ]
        assert analyze_leaf(loop("i", 0, 100, body)) is None

    def test_nested_loop_disqualifies_leaf(self):
        x = self._arr()
        inner = loop("j", 0, 4, [work([read(x, Var("j"))], 1.0)])
        assert analyze_leaf(loop("i", 0, 100, [inner])) is None

    def test_single_page_release_is_leaf(self):
        x = self._arr()
        body = [
            Hint(HintKind.RELEASE, AddrOf(x, (Var("i"),)), release_npages=1),
            work([read(x, Var("i"))], 1.0),
        ]
        recipe = analyze_leaf(loop("i", 0, 100, body))
        assert recipe is not None and len(recipe.templates) == 2

    def test_if_disqualifies_leaf(self):
        x = self._arr()
        body = [If(Cmp(Var("i"), "<", 5), [work([read(x, Var("i"))], 1.0)])]
        assert analyze_leaf(loop("i", 0, 100, body)) is None


class TestHintClamping:
    def test_out_of_range_hint_counted(self):
        b = ProgramBuilder("clamp")
        x = b.array("x", (1024,), elem_size=8)  # 2 pages only
        b.append(Hint(HintKind.PREFETCH, AddrOf(x, (5_000_000,)), npages=4))
        b.append(work([read(x, 0)], 1.0))
        prog = b.build()
        machine = Machine(CFG, prefetching=True)
        executor = Executor(machine)
        executor.run(prog)
        assert executor.out_of_range_hints == 1

    def test_partial_clamp_issues_remainder(self):
        b = ProgramBuilder("clamp2")
        x = b.array("x", (4 * 512,), elem_size=8)  # 4 pages
        b.append(Hint(HintKind.PREFETCH, AddrOf(x, (3 * 512,)), npages=16))
        b.append(work([read(x, 0)], 1.0))
        prog = b.build()
        machine = Machine(CFG, prefetching=True)
        Executor(machine).run(prog)
        # Only the single in-range page was issued.
        assert machine.stats.prefetch.issued_pages == 1

    def test_release_before_segment_start_is_noop(self):
        b = ProgramBuilder("clamp3")
        x = b.array("x", (4 * 512,), elem_size=8)
        b.append(work([read(x, 0)], 1.0))
        b.append(Hint(HintKind.RELEASE, AddrOf(x, (-9999,)), release_npages=2))
        prog = b.build()
        machine = Machine(CFG, prefetching=True)
        executor = Executor(machine)
        executor.run(prog)
        assert executor.out_of_range_hints == 1
        assert machine.stats.release.pages_released == 0


class TestNegativeTravel:
    def test_backward_group_leader_is_low_offset(self):
        x = ArrayDecl("x", (100_000,), elem_size=8)
        i = Var("i")
        n = 50_000
        refs = [read(x, (n - 1) - i), read(x, (n - 1) - i + 1)]
        groups, _ = group_references(refs, ["i"], {}, OPTS)
        assert len(groups) == 1
        # Travel is backward (negative stride): the lower offset leads.
        assert groups[0].leader is refs[0]

    def test_backward_stream_plans_dense(self):
        b = ProgramBuilder("back")
        x = b.array("x", (120_000,), elem_size=8)
        i = Var("i")
        n = 120_000
        b.append(loop("i", 0, n, [work([read(x, (n - 1) - i)], 10.0)]))
        plan = plan_program(b.build(), OPTS)
        dense = [p for p in plan.plans if p.kind is PlanKind.DENSE]
        assert len(dense) == 1

    def test_backward_stream_trace_preserved(self):
        b = ProgramBuilder("back2")
        x = b.array("x", (60_000,), elem_size=8)
        i = Var("i")
        b.append(loop("i", 0, 60_000, [work([read(x, 59_999 - i)], 10.0)]))
        prog = b.build()
        result = insert_prefetches(prog, OPTS)
        assert access_trace(prog) == access_trace(result.program)


class TestAggressiveReleasePolicy:
    def test_aggressive_releases_nested_sweeps(self):
        b = ProgramBuilder("nested")
        c = b.array("c", (600, 600), elem_size=8)
        i, j = Var("i"), Var("j")
        b.append(loop("t", 0, 2, [
            loop("i", 0, 600, [
                loop("j", 0, 600, [work([read(c, i, j)], 4.0)]),
            ]),
        ]))
        prog = b.build()
        aggressive = plan_program(prog, OPTS.scaled(release_policy="aggressive"))
        streaming = plan_program(prog, OPTS)
        agg_rel = [p for p in aggressive.plans if p.kind is PlanKind.DENSE and p.release]
        str_rel = [p for p in streaming.plans if p.kind is PlanKind.DENSE and p.release]
        assert agg_rel and not str_rel


class TestMinMaxBounds:
    def test_max_lower_bound_loop(self):
        b = ProgramBuilder("maxb")
        x = b.array("x", (4096,), elem_size=8)
        b.append(loop("i", MaxExpr(Var("lo"), 100), MinExpr(Var("hi"), 2000),
                      [work([read(x, Var("i"))], 1.0)]))
        b.params.update({"lo": 50, "hi": 99_999})
        stats = run_program(b.build(), Machine(CFG, prefetching=False))
        assert stats.times.user_compute == pytest.approx(1900.0)


class TestPrinterFallbacks:
    def test_unusual_elem_size(self):
        arr = ArrayDecl("w", (10,), elem_size=16)
        prog = Program("p", [arr], [work([read(arr, 0)], 1.0)])
        assert "elem16 w[10];" in format_program(prog)

    def test_work_without_text_or_reads(self):
        arr = ArrayDecl("w", (10,), elem_size=8)
        prog = Program("p", [arr], [Work([write(arr, 0)], 1.0)])
        out = format_program(prog, include_decls=False)
        assert "w[0] = f(0);" in out

    def test_release_block_rendering(self):
        arr = ArrayDecl("w", (10_000,), elem_size=8)
        prog = Program("p", [arr], [
            Hint(HintKind.RELEASE, AddrOf(arr, (Var("i"),)), release_npages=4)
        ], params={"i": 0})
        assert "release_block(&w[i], 4);" in format_program(prog, include_decls=False)

    def test_count_stmts_with_if(self):
        arr = ArrayDecl("w", (10,), elem_size=8)
        stmt = If(Cmp(1, "<", 2), [Work([read(arr, 0)], 1.0)],
                  [Work([read(arr, 1)], 1.0)])
        assert count_stmts([stmt]) == 3

    def test_walk_refs_through_if(self):
        arr = ArrayDecl("w", (10,), elem_size=8)
        stmt = If(Cmp(1, "<", 2), [Work([read(arr, 0)], 1.0)],
                  [Work([read(arr, 1)], 1.0)])
        assert len(list(walk_refs([stmt]))) == 2


class TestMultiNestPrograms:
    def test_independent_nests_transform_independently(self):
        b = ProgramBuilder("multi")
        x = b.array("x", (150_000,), elem_size=8)
        y = b.array("y", (150_000,), elem_size=8)
        i = Var("i")
        b.append(loop("i", 0, 150_000, [work([read(x, i)], 8.0)]))
        b.append(work([read(y, 42)], 1.0))
        b.append(loop("i", 0, 150_000, [work([write(y, i)], 8.0)]))
        prog = b.build()
        result = insert_prefetches(prog, OPTS)
        assert access_trace(prog) == access_trace(result.program)
        hints = list(walk_hints(result.program.body))
        assert len(hints) >= 4  # prologs + steady hints for both nests


class TestPackageHygiene:
    def test_every_module_imports(self):
        """No module has import-time side effects or missing deps."""
        import importlib
        import pkgutil

        import repro

        for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if mod.name.endswith("__main__"):
                continue  # runs the CLI on import, by design
            importlib.import_module(mod.name)

    def test_public_api_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
