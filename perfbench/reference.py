"""Expected results, and where they come from.

A reference is keyed by the *content* of one run's inputs -- the app,
its footprint, the variant, the lowered program text, the values of its
index arrays and, where present, the fault plan or the job spec -- not
by the workload seed.  Dense apps ignore the seed, so their committed
entries serve every seed; only inputs no committed entry covers are
computed, on the scalar event loop (the simulator's executable
specification), by two spawned worker processes, outside ``setup_s``
and the timed region.

Committed entries live in ``perfbench/reference/<workload>.json`` and
pin the simulation across commits.  Computed entries are cached under
``.perfbench/refcache/``, keyed by a digest of ``src/repro``, so a cache
never outlives the code that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

#: Canonical JSON for digests (matches repro.serve.ledger's form).
_CANON = dict(sort_keys=True, separators=(",", ":"))


def digest(*parts) -> str:
    """Short content digest of JSON-able parts (bytes are hashed raw)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else json.dumps(part, **_CANON, default=repr).encode())
        h.update(b"\0")
    return h.hexdigest()[:20]


def stats_digest(stats) -> str:
    """Digest of every field of a ``RunStats`` (floats bit-exact)."""
    return digest(dataclasses.asdict(stats))


#: Prolog loop variables carry a process-wide counter (``i__p7``).
_PROLOG_VAR = re.compile(r"__p\d+\b")


def program_key(program, *context) -> str:
    """Content key of a program plus the run context around it.

    Prolog variables are renumbered in order of appearance, so the key
    does not depend on how many programs the process compiled before.
    """
    from repro.core.ir.printer import format_program

    names: dict[str, str] = {}
    text = _PROLOG_VAR.sub(
        lambda m: names.setdefault(m.group(0), f"__p{len(names)}"),
        format_program(program))
    arrays = [arr.name.encode() + np.ascontiguousarray(arr.data).tobytes()
              for arr in program.arrays if arr.data is not None]
    return digest(list(context), text, *arrays)


def use_scalar_loop() -> None:
    """Make every machine this (reference worker) process builds replay
    chunks on the scalar loop."""
    os.environ["REPRO_SCALAR"] = "1"


#: A worker interpreter: unpickles a list of (fn, args) from stdin, runs
#: the calls in order and pickles their results to stdout, which the
#: calls' own prints must not reach.  argv holds the import paths.
_WORKER = (
    "import pickle, sys\n"
    "out = sys.stdout.buffer\n"
    "sys.stdout = sys.stderr\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "calls = pickle.load(sys.stdin.buffer)\n"
    "pickle.dump([fn(*args) for fn, args in calls], out)\n"
)

#: Where a worker imports ``fn`` from: this directory and the program.
_PATHS = (str(Path(__file__).resolve().parent),
          str(Path(__file__).resolve().parent.parent / "src"))


def in_workers(calls: list, workers: int = 2) -> list:
    """``fn(*args)`` for every (fn, args) of ``calls``, in order, run by
    ``workers`` fresh interpreters, worker ``i`` taking every
    ``workers``-th call from the ``i``-th.

    Plain subprocesses rather than a multiprocessing pool: a spawn pool
    starts a resource-tracker process that can outlive the benchmark.
    Every worker has ended (killed first on any error) when this returns.
    """
    shares = [calls[i::workers] for i in range(min(workers, len(calls)))]
    procs: list[subprocess.Popen] = []
    try:
        for share in shares:
            proc = subprocess.Popen([sys.executable, "-c", _WORKER, *_PATHS],
                                    stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE)
            procs.append(proc)
            proc.stdin.write(pickle.dumps(share))
            proc.stdin.close()
        results = [None] * len(calls)
        for i, proc in enumerate(procs):
            data = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"worker {i} exited with {proc.returncode}")
            results[i::len(procs)] = pickle.loads(data)
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def source_digest(src: Path) -> str:
    """Digest of every ``.py`` file of the program under test."""
    h = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class ReferenceStore:
    """Committed references for one workload, plus a computed cache."""

    def __init__(self, committed: Path, cache: Path | None) -> None:
        self.committed_path = committed
        self.cache_path = cache
        self.committed = self._load(committed)
        self.cached = self._load(cache) if cache is not None else {}
        self.computed = 0

    @staticmethod
    def _load(path: Path | None) -> dict:
        if path is None or not path.is_file():
            return {}
        with open(path) as fh:
            return json.load(fh)["entries"]

    def lookup(self, key: str) -> dict | None:
        return self.committed.get(key) or self.cached.get(key)

    def resolve(self, jobs: dict) -> dict[str, dict]:
        """The entry for every key of ``jobs`` (key -> (fn, args)); keys
        with no committed or cached entry are computed in workers."""
        missing = {key: job for key, job in jobs.items()
                   if self.lookup(key) is None}
        if missing:
            results = in_workers(list(missing.values()))
            self.cached.update(zip(missing, results))
            self.computed += len(missing)
        return {key: self.lookup(key) for key in jobs}

    def save(self) -> None:
        """Persist newly computed entries to the cache (atomically)."""
        if self.cache_path is None or not self.computed:
            return
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.cache_path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump({"entries": self.cached}, fh, sort_keys=True)
        tmp.replace(self.cache_path)

    def export(self, keys) -> None:
        """Add the entries for ``keys`` to the committed reference file.

        Add-only: an entry already committed is never rewritten, and a
        computed entry that disagrees with a committed one is an error.
        """
        entries = dict(self.committed)
        for key in keys:
            entry = self.lookup(key)
            if entries.setdefault(key, entry) != entry:
                raise ValueError(f"reference {key} disagrees with "
                                 f"{self.committed_path}")
        self.committed_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.committed_path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump({"entries": entries}, fh, indent=0, sort_keys=True)
            fh.write("\n")
        tmp.replace(self.committed_path)
        self.committed = entries
