"""The on-disk checkpoint format: one slot file per label.

A label's checkpoints live in one file, ``<label>.ckpt``::

    header, padded to 4096 bytes:
        magic              (10 bytes, b"REPRO-CKPT")
        container version  (u32 LE)
        slot size          (u64 LE, a power of two, at least 4096)
        slot count         (u32 LE, keep + 1)
        crashes delivered  (u32 LE)
        sha256             (32 bytes, over everything above)
    slot count slots of slot size bytes, each:
        record length      (u64 LE, 0 for an empty slot)
        record

and one record is::

    magic (10 bytes, b"REPRO-CKPT")
    container version  (u32 LE)
    header length      (u32 LE)
    payload length     (u64 LE)
    sha256             (32 bytes, over header JSON + payload)
    header JSON        (the snapshot's meta dict with its ``seq``, UTF-8)
    payload            (the pickled state)

Checkpoint ``seq`` goes to slot ``(seq - 1) % slot count``, over the
oldest record, so a save is one ``pwrite`` and one ``fdatasync``.  The
spare slot is what keeps that crash-safe: while ``seq`` is written, the
other ``keep`` slots hold the ``keep`` records before it, and a save
torn by a crash leaves them intact.  Slots start on 4096-byte
boundaries, so a torn write cannot reach the header or another slot.

The whole file is rewritten through
:func:`repro.ioutil.atomic_write_bytes` with ``fsync``, carrying the
newest good records, only when it is missing, when its slot count is
not ``keep + 1``, when a record outgrows its slot (the slot size becomes
the next power of two), or when :meth:`CheckpointStore.record_crash`
bumps the crash count.  That count is the *crash ledger*: how many
scheduled crashes (a plan's ``process_crash`` faults and a
``CheckpointConfig.crash_at_us`` kill alike) were already delivered, so
a resumed process does not re-die at the crash it is recovering from.

Loading verifies every slot, and the newest valid ``seq`` wins.  A
flipped byte in the magic or version fails their equality checks, a
flipped length truncates or overruns the read, and any other damage
fails a checksum.  A damaged record is skipped (``load_resumable``
counts it), falling back to the previous one; a damaged header makes
the whole file unreadable, as it does not say where the slots are.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError
from repro.ioutil import atomic_write_bytes

#: Magic of the file and of each record; a layout change bumps
#: CONTAINER_VERSION, which both carry right after it.
MAGIC = b"REPRO-CKPT"
CONTAINER_VERSION = 2

_VERSION = struct.Struct("<I")
#: A record's preamble after the magic.
_PREAMBLE = struct.Struct("<II Q 32s")
#: The file header's fields after the magic (its sha256 follows).
_FIELDS = struct.Struct("<I Q I I")
_HEADER_END = len(MAGIC) + _FIELDS.size
_DIGEST = 32
_LENGTH = struct.Struct("<Q")
#: Header size, slot alignment and the smallest slot.
_BLOCK = 4096


def _check_container(blob: bytes, where: str, size: int) -> None:
    """Magic, ``size`` bytes after it, and this build's version."""
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{where}: not a checkpoint file (bad magic)")
    if len(blob) < len(MAGIC) + size:
        raise CheckpointError(f"{where}: truncated checkpoint preamble")
    (version,) = _VERSION.unpack_from(blob, len(MAGIC))
    if version != CONTAINER_VERSION:
        raise CheckpointError(
            f"{where}: checkpoint container version {version} is not "
            f"supported (this build reads version {CONTAINER_VERSION})"
        )


def encode_checkpoint(meta: dict, payload: bytes) -> bytes:
    """Render one checkpoint record's bytes."""
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(header + payload).digest()
    return b"".join([
        MAGIC,
        _PREAMBLE.pack(CONTAINER_VERSION, len(header), len(payload), digest),
        header,
        payload,
    ])


def decode_checkpoint(blob: bytes, where: str = "<bytes>") -> tuple[dict, bytes]:
    """Parse and verify one checkpoint record's bytes.

    Raises :class:`CheckpointError` on any corruption: bad magic,
    unknown container version, truncation, or checksum mismatch.
    """
    _check_container(blob, where, _PREAMBLE.size)
    _version, header_len, payload_len, digest = _PREAMBLE.unpack_from(
        blob, len(MAGIC))
    body = blob[len(MAGIC) + _PREAMBLE.size:]
    if len(body) != header_len + payload_len:
        raise CheckpointError(
            f"{where}: truncated checkpoint "
            f"(expected {header_len + payload_len} body bytes, got {len(body)})"
        )
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{where}: checkpoint checksum mismatch")
    try:
        meta = json.loads(body[:header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{where}: unreadable checkpoint header: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{where}: checkpoint header is not an object")
    return meta, body[header_len:]


def _header(slot_size: int, slot_count: int, crashes: int) -> bytes:
    head = MAGIC + _FIELDS.pack(CONTAINER_VERSION, slot_size, slot_count, crashes)
    return head + hashlib.sha256(head).digest()


@dataclass
class _Layout:
    """What a save needs to know of a slot file (zeros: no file)."""

    slot_size: int = 0
    slot_count: int = 0
    crashes: int = 0
    #: Newest verified sequence number in the file.
    seq: int = 0


@dataclass
class _Scan:
    """A slot file read and verified: its layout and its records."""

    layout: _Layout
    #: ``(seq, record bytes)`` of every slot that verified.
    records: list[tuple[int, bytes]]
    #: One message per non-empty slot that failed verification.
    errors: list[str]

    def newest(self, where: str) -> tuple[dict, bytes]:
        if not self.records:
            if not self.errors:
                raise CheckpointError(f"no checkpoints in {where}")
            raise CheckpointError(
                f"every retained checkpoint in {where} is corrupt "
                f"(last error: {self.errors[-1]})"
            )
        return decode_checkpoint(max(self.records)[1], where)


def _scan(path: Path) -> _Scan | None:
    """Read and verify every slot of ``path``; None if it does not exist."""
    where = str(path)
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    try:
        head = os.pread(fd, _BLOCK, 0)
        _check_container(head, where, _FIELDS.size + _DIGEST)
        digest = head[_HEADER_END:_HEADER_END + _DIGEST]
        if hashlib.sha256(head[:_HEADER_END]).digest() != digest:
            raise CheckpointError(f"{where}: checkpoint header checksum mismatch")
        _version, slot_size, slot_count, crashes = _FIELDS.unpack_from(
            head, len(MAGIC))
        if slot_count < 1 or slot_size < _BLOCK:
            raise CheckpointError(f"{where}: malformed checkpoint header")
        scan = _Scan(_Layout(slot_size, slot_count, crashes), [], [])
        for slot in range(slot_count):
            offset = _BLOCK + slot * slot_size
            slot_where = f"{where} slot {slot}"
            try:
                prefix = os.pread(fd, _LENGTH.size, offset)
                if len(prefix) < _LENGTH.size:
                    raise CheckpointError(f"{slot_where}: truncated checkpoint file")
                (length,) = _LENGTH.unpack(prefix)
                if not length:
                    continue
                if length > slot_size - _LENGTH.size:
                    raise CheckpointError(f"{slot_where}: record overruns its slot")
                record = os.pread(fd, length, offset + _LENGTH.size)
                meta, _payload = decode_checkpoint(record, slot_where)
                seq = meta.get("seq")
                if not isinstance(seq, int) or seq < 1:
                    raise CheckpointError(f"{slot_where}: record has no sequence number")
            except CheckpointError as exc:
                scan.errors.append(str(exc))
                continue
            scan.records.append((seq, record))
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    finally:
        os.close(fd)
    if scan.records:
        scan.layout.seq = max(scan.records)[0]
    return scan


def read_checkpoint_file(path: str | Path) -> tuple[dict, bytes]:
    """Newest verifiable checkpoint in one slot file -> ``(meta, payload)``."""
    path = Path(path)
    scan = _scan(path)
    if scan is None:
        raise CheckpointError(f"cannot read checkpoint {path}: no such file")
    return scan.newest(str(path))


def has_resumable_checkpoint(directory: str | Path) -> bool:
    """Does ``directory`` hold at least one verifiable checkpoint?

    Label-agnostic and corruption-tolerant: any ``*.ckpt`` file with a
    record that verifies counts.  Controller crash recovery uses this to
    decide whether a re-admitted job can resume or must restart from
    scratch -- claiming resume without a good checkpoint would make the
    worker silently start over mid-accounting.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return False
    for path in directory.glob("*.ckpt"):
        try:
            read_checkpoint_file(path)
        except CheckpointError:
            continue
        return True
    return False


class CheckpointStore:
    """A directory of slot files, one per label, each retaining the
    ``keep`` newest checkpoints."""

    def __init__(self, root: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise CheckpointError(f"must retain >= 1 checkpoint, got keep={keep}")
        self.root = Path(root)
        self.keep = keep
        #: Each label's layout, read on first use and kept current by
        #: this store's own writes.
        self._layouts: dict[str, _Layout] = {}

    def path_for(self, label: str) -> Path:
        return self.root / f"{label}.ckpt"

    def _layout(self, label: str) -> _Layout:
        layout = self._layouts.get(label)
        if layout is None:
            scan = _scan(self.path_for(label))
            layout = self._layouts[label] = scan.layout if scan else _Layout()
        return layout

    def load_resumable(self, label: str) -> tuple[dict, bytes, int] | None:
        """Newest verifiable checkpoint -> ``(meta, payload, skipped)``,
        or None when ``label`` has no file or no slot in use.

        Slots that fail verification (flipped bytes, torn writes,
        unknown versions) are skipped; ``skipped`` counts them.  Raises
        :class:`CheckpointError` when every retained record is corrupt.
        One scan serves a whole resume: the layout it reads is kept for
        this store's crash ledger and later saves.
        """
        path = self.path_for(label)
        scan = _scan(path)
        self._layouts[label] = scan.layout if scan else _Layout()
        if scan is None or not (scan.records or scan.errors):
            return None
        meta, payload = scan.newest(str(path))
        return meta, payload, len(scan.errors)

    def save(self, label: str, meta: dict, payload: bytes) -> tuple[Path, int]:
        """Write the next checkpoint for ``label`` durably -> ``(path, seq)``."""
        path = self.path_for(label)
        layout = self._layout(label)
        seq = layout.seq + 1
        record = encode_checkpoint(dict(meta, seq=seq), payload)
        data = _LENGTH.pack(len(record)) + record
        if layout.slot_count == self.keep + 1 and len(data) <= layout.slot_size:
            try:
                fd = os.open(path, os.O_WRONLY)
            except FileNotFoundError:
                pass
            else:
                try:
                    offset = _BLOCK + (seq - 1) % layout.slot_count * layout.slot_size
                    if os.pwrite(fd, data, offset) != len(data):
                        raise CheckpointError(f"short write to checkpoint {path}")
                    # fsync where the platform has no fdatasync (macOS).
                    getattr(os, "fdatasync", os.fsync)(fd)
                finally:
                    os.close(fd)
                layout.seq = seq
                return path, seq
        self._rewrite(label, layout.crashes, (seq, record))
        return path, seq

    def _rewrite(self, label: str, crashes: int,
                 new: tuple[int, bytes] | None = None) -> None:
        """Write ``label``'s whole file atomically, carrying the newest
        good records into their slots for ``keep``."""
        path = self.path_for(label)
        count = self.keep + 1
        scan = _scan(path)
        records = ([new] if new else []) + (scan.records if scan else [])
        newest = max((seq for seq, _ in records), default=0)
        slots: list[bytes] = [b""] * count
        # Newest first, so the new record wins its slot; anything older
        # than the count newest sequence numbers would share a slot with
        # a newer one and is dropped.
        for seq, record in sorted(records, key=lambda r: r[0], reverse=True):
            index = (seq - 1) % count
            if seq > newest - count and not slots[index]:
                slots[index] = record
        need = _LENGTH.size + max(len(record) for record in slots)
        slot_size = max(scan.layout.slot_size if scan else 0, _BLOCK,
                        1 << (need - 1).bit_length())
        image = bytearray(_BLOCK + count * slot_size)
        header = _header(slot_size, count, crashes)
        image[: len(header)] = header
        for index, record in enumerate(slots):
            if record:
                offset = _BLOCK + index * slot_size
                image[offset: offset + _LENGTH.size + len(record)] = (
                    _LENGTH.pack(len(record)) + record)
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, image, fsync=True)
        self._layouts[label] = _Layout(slot_size, count, crashes, newest)

    def load_latest_good(self, label: str) -> tuple[dict, bytes, Path, int]:
        """Newest verifiable checkpoint -> ``(meta, payload, path, skipped)``.

        :meth:`load_resumable`, except that a ``label`` with no file or
        no slot in use raises :class:`CheckpointError` too.
        """
        loaded = self.load_resumable(label)
        if loaded is None:
            raise CheckpointError(
                f"no checkpoints for label {label!r} under {self.root}"
            )
        meta, payload, skipped = loaded
        return meta, payload, self.path_for(label), skipped

    # ------------------------------------------------------------------
    # Crash ledger
    # ------------------------------------------------------------------

    def crashes_delivered(self, label: str) -> int:
        """Scheduled crashes already delivered to this label's run."""
        return self._layout(label).crashes

    def record_crash(self, label: str) -> int:
        """Bump the ledger; returns the new delivered count."""
        delivered = self._layout(label).crashes + 1
        self._rewrite(label, delivered)
        return delivered
