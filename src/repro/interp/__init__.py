"""Execution of IR programs on the simulated machine.

* :mod:`repro.interp.executor` -- the interpreter and the one walk of a
  program: ``Executor.steps`` yields one step per unit (work statement,
  hint, leaf chunk, pure-compute leaf); ``Executor.run`` replays them
  against a :class:`Machine`, and the co-scheduler interleaves them.
* :mod:`repro.interp.lower` -- vectorized lowering of innermost loops into
  event chunks (the performance path; numpy computes per-iteration page
  streams and collapses same-page runs).
* :mod:`repro.interp.tracing` -- an independent, purely scalar access
  tracer used as the oracle for the non-binding-hints equivalence tests.
"""

from repro.interp.executor import Executor, run_program
from repro.interp.tracing import access_trace

__all__ = ["Executor", "run_program", "access_trace"]
