"""Write-ahead job ledger: durable control-plane state for the farm.

The controller journals every job state transition into an append-only,
checksummed JSONL file *before* applying it in memory (write-ahead
logging).  A controller that dies -- SIGKILL, OOM, a pulled plug on the
process -- leaves a prefix-valid ledger behind; a new controller folds
it back into job records (:func:`fold_ledger`), re-admits unfinished
work deterministically (:func:`recovery_plan` + ``repro.seeding`` retry
jitter), and dedupes completed work by result digest so every job's
effects land exactly once.  See docs/serving.md, *Controller failure &
recovery*.

Durability model: each record is one line, flushed on append.  A flush
without fsync survives any *process* death -- the page cache stays
coherent across SIGKILL -- which is the failure domain the farm defends
against; ``fsync=True`` extends that to kernel crashes at a heavy
latency cost.  A torn or corrupt tail line (crash mid-append) is
detected by the per-record checksum and dropped: the journal is its
longest valid prefix, exactly the write-ahead contract.

Rotation doubles as compaction: :meth:`JobLedger.rotate` atomically
replaces the file (temp + ``os.replace``, the PR-5 atomic-writer idiom)
with a re-checksummed, renumbered record list, so a recovered controller
starts from a compact generation instead of replaying history forever.
A crash mid-rotation leaves either the old or the new file, never a mix.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.ioutil import atomic_write_json, atomic_write_text

LEDGER_VERSION = 1
LEDGER_NAME = "ledger.jsonl"
LIVENESS_NAME = "controller.json"

#: Every journaled transition kind, in lifecycle order.  The *Ledger
#: record reference* table in docs/serving.md is cross-checked against
#: this tuple by ``scripts/check_docs.py``, both ways.
#: ``heartbeat_epoch`` is legacy: no controller writes it any more, but
#: ledgers written before that still read, append and replay.
LEDGER_RECORD_KINDS = (
    "admitted",
    "dispatched",
    "heartbeat_epoch",
    "retry_scheduled",
    "preempted",
    "quarantined",
    "shed",
    "done",
    "recovered",
)

#: Crash-recovery outcome per record kind: what replay does when the
#: controller died *before* the journal write landed (the transition
#: never happened) versus *after* (the transition is durable but its
#: in-memory effects are lost).  The *Recovery semantics* table in
#: docs/serving.md is cross-checked against these keys by
#: ``scripts/check_docs.py``, both ways.
RECOVERY_SEMANTICS: dict[str, tuple[str, str]] = {
    "admitted": ("job unknown; resubmit", "re-admitted with original spec/seq"),
    "dispatched": ("re-dispatched from queue", "orphan adopted or attempt voided"),
    "heartbeat_epoch": ("legacy: no longer written", "legacy: skipped on replay"),
    "retry_scheduled": ("attempt voided, no backoff", "backoff recomputed from seed"),
    "preempted": ("orphan adopted or voided", "re-admitted, resumes from checkpoint"),
    "quarantined": ("one more attempt granted", "terminal state rebuilt"),
    "shed": ("re-admitted (queue is empty)", "terminal state rebuilt"),
    "done": ("result file re-folded by digest", "result deduped, folded once"),
    "recovered": ("previous generation replayed", "compacted generation replayed"),
}

_TERMINAL_KINDS = {"done", "quarantined", "shed"}
_CANON = {"sort_keys": True, "separators": (",", ":")}


def ledger_path(workdir) -> Path:
    return Path(workdir) / LEDGER_NAME


def liveness_path(workdir) -> Path:
    return Path(workdir) / LIVENESS_NAME


def result_digest(result) -> str:
    """Content digest of a job's result payload (dedup identity)."""
    return hashlib.sha256(
        json.dumps(result, **_CANON).encode()).hexdigest()[:16]


def _checksum(record: dict) -> str:
    body = {k: v for k, v in record.items() if k != "sha"}
    return hashlib.sha256(
        json.dumps(body, **_CANON).encode()).hexdigest()[:16]


class JobLedger:
    """Single-writer append-only journal of job state transitions."""

    def __init__(self, workdir, fsync: bool = False):
        self.path = ledger_path(workdir)
        self.fsync = fsync
        self._fh = None
        self._seq = 0

    def __len__(self) -> int:
        return self._seq

    def append(self, kind: str, **fields) -> dict:
        """Journal one transition; durable before the caller applies it."""
        if kind not in LEDGER_RECORD_KINDS:
            raise ConfigError(f"unknown ledger record kind {kind!r}")
        self._seq += 1
        record = {"v": LEDGER_VERSION, "n": self._seq, "t": time.time(),
                  "kind": kind, **fields}
        record["sha"] = _checksum(record)
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        return record

    def rotate(self, records: list[dict]) -> None:
        """Atomically replace the file with a compacted generation.

        ``records`` are re-stamped (renumbered, re-checksummed) so the
        new generation is self-consistent; appends continue after it.
        """
        self.close()
        lines = []
        for seq, record in enumerate(records, start=1):
            body = {k: v for k, v in record.items() if k not in ("n", "sha")}
            body["n"] = seq
            body["sha"] = _checksum(body)
            lines.append(json.dumps(body, sort_keys=True))
        atomic_write_text(self.path, "\n".join(lines) + ("\n" if lines else ""),
                          fsync=self.fsync)
        self._seq = len(lines)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_ledger(path) -> list[dict]:
    """The ledger's longest valid prefix of checksummed records.

    Parsing stops at the first torn, corrupt, or mis-checksummed line:
    everything before it is durable history, everything after it never
    took effect (journal-before-apply), so dropping it is the correct
    -- not merely the forgiving -- interpretation.
    """
    path = Path(path)
    records: list[dict] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read ledger {path}: {exc}") from None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break
        if (not isinstance(record, dict)
                or record.get("v") != LEDGER_VERSION
                or record.get("kind") not in LEDGER_RECORD_KINDS
                or record.get("sha") != _checksum(record)):
            break
        records.append(record)
    return records


@dataclass
class LedgerEntry:
    """One job's folded state after replaying the ledger."""

    job_id: str
    spec: dict
    seq: int
    attempts: int = 0
    retries: int = 0
    preemptions: int = 0
    phase: str = "pending"  # pending | running | done | quarantined | shed
    worker: int | None = None
    dispatched_t: float = 0.0
    resume: bool = False
    digest: str | None = None
    reason: str | None = None
    failures: list = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.phase in _TERMINAL_KINDS


def fold_ledger(records: list[dict]) -> dict[str, LedgerEntry]:
    """Replay records into per-job entries, in admission order."""
    entries: dict[str, LedgerEntry] = {}
    for record in records:
        kind = record["kind"]
        if kind in ("heartbeat_epoch", "recovered"):
            continue
        job_id = record.get("job")
        if kind == "admitted":
            if job_id not in entries:  # idempotent across generations
                entries[job_id] = LedgerEntry(
                    job_id=job_id, spec=record["spec"], seq=record["seq"],
                    # Compacted generations carry the counters forward;
                    # fresh admissions simply omit them (all zero).
                    attempts=record.get("attempts", 0),
                    retries=record.get("retries", 0),
                    preemptions=record.get("preemptions", 0))
            continue
        entry = entries.get(job_id)
        if entry is None:  # transition without admission: corrupt, skip
            continue
        if kind == "dispatched":
            entry.attempts = record["attempt"]
            entry.worker = record.get("worker")
            entry.dispatched_t = record["t"]
            entry.resume = bool(record.get("resume"))
            entry.phase = "running"
        elif kind == "retry_scheduled":
            entry.retries += 1
            entry.worker = None
            entry.phase = "pending"
            if record.get("reason"):
                entry.failures.append(record["reason"])
        elif kind == "preempted":
            entry.preemptions += 1
            entry.worker = None
            entry.resume = True
            entry.phase = "pending"
        elif kind == "done":
            entry.digest = record.get("digest")
            entry.phase = "done"
        elif kind == "quarantined":
            entry.reason = record.get("reason")
            entry.phase = "quarantined"
        elif kind == "shed":
            entry.reason = record.get("reason")
            entry.phase = "shed"
    return entries


def recovery_plan(entries: dict[str, LedgerEntry], policy) -> list[dict]:
    """The deterministic recovery schedule for folded ledger entries.

    A pure function of its inputs: the same ledger prefix and the same
    ``RetryPolicy`` always yield byte-identical plans (retry delays come
    from ``repro.seeding`` jitter keyed on ``(seed, job, attempt)``), so
    a recovered farm's admission order and backoff timetable are
    reproducible -- pinned by a hypothesis property over random kill
    points in ``tests/test_serve_recovery.py``.
    """
    plan = []
    for entry in sorted(entries.values(), key=lambda e: e.seq):
        item = {"job": entry.job_id, "seq": entry.seq,
                "attempts": entry.attempts, "retries": entry.retries,
                "preemptions": entry.preemptions}
        if entry.phase == "done":
            item.update(action="fold_done", digest=entry.digest)
        elif entry.phase == "quarantined":
            item.update(action="fold_quarantined", reason=entry.reason)
        elif entry.phase == "shed":
            item.update(action="fold_shed", reason=entry.reason)
        elif entry.phase == "running":
            # In flight when the controller died: adopt the orphan's
            # result if it lands, else void the attempt and re-dispatch
            # immediately (it was already eligible).
            item.update(action="adopt", worker=entry.worker,
                        attempt=entry.attempts,
                        dispatched_t=entry.dispatched_t, delay_s=0.0)
        else:
            delay = (policy.delay_s(entry.job_id, entry.attempts)
                     if entry.attempts else 0.0)
            item.update(action="readmit", resume=entry.resume,
                        delay_s=delay)
        plan.append(item)
    return plan


def write_liveness(workdir) -> None:
    """Stamp this controller's pid next to the ledger (atomic)."""
    atomic_write_json(liveness_path(workdir),
                      {"version": 1, "pid": os.getpid(),
                       "started_t": time.time()})


def clear_liveness(workdir) -> None:
    try:
        liveness_path(workdir).unlink()
    except OSError:
        pass


def controller_alive(workdir) -> bool:
    """Is the controller named by the liveness file still running?"""
    try:
        payload = json.loads(liveness_path(workdir).read_text())
        pid = int(payload["pid"])
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        return False
    if pid == os.getpid():
        return False  # our own stamp (recovery in the same process)
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def ledger_is_stale(workdir) -> bool:
    """A ledger with unfinished jobs whose controller is gone.

    This is the ``submit`` auto-recovery trigger: stale means some job
    was journaled but never reached a terminal record, and no live
    controller owns the workdir anymore.
    """
    path = ledger_path(workdir)
    if not path.is_file():
        return False
    try:
        entries = fold_ledger(read_ledger(path))
    except ConfigError:
        return False
    if not entries or all(e.terminal for e in entries.values()):
        return False
    return not controller_alive(workdir)
