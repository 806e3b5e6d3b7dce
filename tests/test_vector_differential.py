"""Differential gate: the vectorized chunk kernel vs the scalar loop.

The vectorized hot path (:meth:`repro.machine.machine.Machine.run_chunk`)
claims *bit identity* with the scalar event loop -- not "close", not
"statistically equal": the same RunStats, the same page-table end state,
the same published metrics, for every application.  This module is the
enforcement: each NAS app runs O and P twice, once through the numpy
kernel (the default) and once through the scalar loop
(``scalar_chunks=True``, the same code path the ``REPRO_SCALAR=1``
environment hatch selects), and everything observable must match
exactly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.apps.registry import ALL_APPS, get_app
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.interp.executor import Executor
from repro.machine.machine import Machine

# The golden-trace footprint: small enough that all sixteen configs run
# in test time, out-of-core enough (data > memory) that every machinery
# layer -- faults, evictions, prefetches, releases, the filter -- fires.
MEMORY_PAGES = 96
DATA_PAGES = 120

APP_NAMES = tuple(spec.name for spec in ALL_APPS)


def _run(app_name: str, prefetching: bool, scalar: bool):
    """One fresh O or P run; returns (stats, machine) for inspection."""
    platform = PlatformConfig(memory_pages=MEMORY_PAGES)
    program = get_app(app_name).make(DATA_PAGES, seed=1)
    if prefetching:
        program = insert_prefetches(
            program, CompilerOptions.from_platform(platform)
        ).program
    machine = Machine(platform, prefetching=prefetching,
                      scalar_chunks=scalar)
    stats = Executor(machine).run(program)
    return stats, machine


def _page_table(machine: Machine) -> dict:
    """Everything the page table knows, per page."""
    cols = machine.manager.cols
    return {
        vpage: (
            cols.state[vpage],
            cols.dirty[vpage],
            cols.ref[vpage],
            cols.version[vpage],
            cols.via_prefetch[vpage],
            cols.used_since_arrival[vpage],
            cols.arrival_us[vpage],
        )
        for vpage in cols.order
    }


@pytest.mark.parametrize("variant", ["O", "P"])
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_vector_kernel_is_bit_identical(app_name, variant):
    prefetching = variant == "P"
    vec_stats, vec_machine = _run(app_name, prefetching, scalar=False)
    sca_stats, sca_machine = _run(app_name, prefetching, scalar=True)

    # RunStats is a dataclass tree of plain counters/floats: == is exact.
    assert vec_stats == sca_stats

    # Full page-table end state, including the columnar fields the
    # kernel scatters in bulk and the scalar loop writes one at a time.
    assert _page_table(vec_machine) == _page_table(sca_machine)

    # The residency indexes the kernel classifies from must agree too.
    fast_vec = vec_machine.manager.fast.raw
    fast_sca = sca_machine.manager.fast.raw
    n = max(len(fast_vec), len(fast_sca))
    assert np.array_equal(
        np.pad(fast_vec, (0, n - len(fast_vec))),
        np.pad(fast_sca, (0, n - len(fast_sca))),
    )

    # Published metrics (the CLI/JSON export surface) must be identical.
    vec_metrics = vec_stats.publish().as_dict()
    sca_metrics = sca_stats.publish().as_dict()
    assert vec_metrics == sca_metrics


def test_scalar_env_hatch_forces_scalar_loop(monkeypatch):
    monkeypatch.setenv("REPRO_SCALAR", "1")
    assert Machine(PlatformConfig()).scalar_chunks
    monkeypatch.setenv("REPRO_SCALAR", "0")
    assert not Machine(PlatformConfig()).scalar_chunks
    monkeypatch.delenv("REPRO_SCALAR")
    assert not Machine(PlatformConfig()).scalar_chunks
