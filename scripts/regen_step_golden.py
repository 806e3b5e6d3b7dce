#!/usr/bin/env python
"""Regenerate the step-stream golden digests.

The golden file (``tests/data/step_stream_golden.json``) pins, for every
app x ``VARIANTS`` entry x footprint, one sha256 over every step
:meth:`repro.interp.executor.Executor.steps` yields: the interpreter's
whole output before any machine replays it.  A change to how the walk
lowers leaves (batching, caching, fast paths) must leave every digest
as it is; ``tests/test_step_stream.py::test_step_stream_matches_golden``
fails when one drifts.  After an *intentional* change to the apps, the
compiler pass or the step format, re-run::

    PYTHONPATH=src python scripts/regen_step_golden.py

and commit the updated file together with the change that caused it.
The test imports :func:`step_digests` from this script, so the walks
hashed here and the walks the test performs are the same by
construction.  The 64 walks take a few seconds: nothing is replayed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

GOLDEN_PATH = (Path(__file__).resolve().parent.parent / "tests" / "data"
               / "step_stream_golden.json")

#: (memory pages, data pages) of each footprint; both out of core.
FOOTPRINTS = ((48, 60), (96, 120))
SEED = 1


def digest_steps(steps) -> str:
    """sha256 over a step stream: chunk columns as int64/int64/float64
    bytes plus the tail's ``repr``, every other step by ``repr``."""
    import numpy as np

    h = hashlib.sha256()
    for step in steps:
        if step[0] == "chunk":
            kinds, pages, costs, tail = step[1:]
            h.update(f"chunk {len(kinds)} ".encode())
            h.update(np.asarray(kinds, dtype=np.int64).tobytes())
            h.update(np.asarray(pages, dtype=np.int64).tobytes())
            h.update(np.asarray(costs, dtype=np.float64).tobytes())
            h.update(repr(float(tail)).encode())
        else:
            h.update(repr(step).encode())
        h.update(b"\n")
    return h.hexdigest()


def step_digests() -> dict[str, str]:
    """``"APP/variant/memory x data"`` -> digest of that walk's steps."""
    from repro.apps.registry import ALL_APPS
    from repro.config import VARIANTS, PlatformConfig
    from repro.harness.experiment import build_variant
    from repro.interp.executor import Executor
    from repro.machine.machine import Machine

    digests = {}
    for memory_pages, data_pages in FOOTPRINTS:
        platform = PlatformConfig(memory_pages=memory_pages)
        for spec in ALL_APPS:
            for variant, flags in VARIANTS.items():
                program = build_variant(spec, platform, variant, data_pages,
                                        SEED)
                executor = Executor(Machine(platform, **flags))
                executor.bind(program)
                key = f"{spec.name}/{variant}/{memory_pages}x{data_pages}"
                digests[key] = digest_steps(executor.steps(program))
    return digests


def main() -> int:
    from repro.ioutil import atomic_write_json

    digests = step_digests()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(GOLDEN_PATH, digests, indent=1, sort_keys=True)
    print(f"wrote {GOLDEN_PATH} ({len(digests)} digests)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
