"""Durability: write-ahead log, snapshot checkpoints, and crash recovery.

The engine keeps all state in process memory; this module makes a
database survive its process.  Three pieces, all owned by one
:class:`DurabilityManager` rooted at a ``data_dir``:

**Write-ahead log.**  Every committed transaction appends one binary
record describing its *logical* changes — insert/delete/update row
images keyed by the storage layer's row ids, plus rendered DDL
statements — to the current WAL segment.  Records are length-prefixed
and CRC32-checksummed, so recovery can tell a complete record from the
torn tail a crash mid-``write`` leaves behind.  The append happens
inside the engine's writer lock (record order == commit order), but the
durability *wait* happens after the lock is released: committers gang up
on one ``fsync`` (group commit), so N concurrent committers pay ~1
device flush instead of N.

**Checkpoints.**  A checkpoint serializes a published
:class:`~repro.rdb.engine.DatabaseSnapshot` — the DDL history that
rebuilds the schema catalog and index definitions, plus each table's row
images and counters — to ``checkpoint-<gen>.db.tmp``, fsyncs it, and
atomically renames it into place.  The payload is encoded straight into
the temp file, rows pulled one at a time (:class:`LazyList`), and the
frame header written last, so checkpoint memory does not follow the row
count.  Index *structures* are not stored; they rebuild from the rows on
load.  The WAL rotates to a new segment at
the moment the snapshot is captured (under the writer lock), so the old
segment plus the checkpoint cover exactly the same prefix and the old
segment can be deleted once the rename lands.

**Recovery.**  Opening a ``data_dir`` loads the newest checkpoint,
replays every WAL segment of the same or newer generation in order, and
stops cleanly at the first torn or partial record of the *final*
segment (truncating it, so the next append starts at a clean boundary).
Only the final segment may be torn — it is the one a crash interrupts;
a damaged checkpoint or a corrupt record anywhere else means real
corruption (checkpoints exist only post-rename with their body fsynced,
and segments rotate at quiescent points), and recovery raises
:class:`~repro.errors.DurabilityError` instead of silently dropping
committed data.

``sync_mode`` picks the durability/latency trade-off per database:

* ``"fsync"`` — flush to the device at every commit (group-batched);
  survives OS/power failure.
* ``"os"``    — push the record into the OS page cache at every commit;
  survives process kill, not power loss.
* ``"none"``  — leave records in the process's user-space buffer; they
  reach the OS on checkpoint/rotate/close only.  Fastest; survives a
  clean close.

Record wire format (all integers little-endian)::

    frame    := u32 payload_length | u32 crc32(payload) | payload
    payload  := value-encoded commit batch: a list of changes
    change   := ("i", table, rowid, row) | ("u", table, rowid, changes)
              | ("d", table, rowid)      | ("x", rendered_ddl_sql)

Values use a small tagged binary encoding (NULL, bool, int, float, str,
lists, dicts) — exactly the value domain the type system stores.
"""

from __future__ import annotations

import errno
import os
import re
import struct
import threading
import time
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import DurabilityError
from ..faults import INJECTOR

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "DurabilityManager",
    "SYNC_FSYNC",
    "SYNC_OS",
    "SYNC_NONE",
    "WAL_HEADER_SIZE",
    "LazyList",
    "RowImage",
    "encode_payload",
    "decode_payload",
    "iter_wal_frames",
]

SYNC_FSYNC = "fsync"
SYNC_OS = "os"
SYNC_NONE = "none"
SYNC_MODES = (SYNC_FSYNC, SYNC_OS, SYNC_NONE)

#: Segment headers: 8 magic bytes + 1 format-version byte.
_WAL_MAGIC = b"REPROWAL\x01"
_CKPT_MAGIC = b"REPROCKP\x01"

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

_CKPT_RE = re.compile(r"^checkpoint-(\d{8})\.db$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")

#: Offset of the first frame in every WAL segment (replication resumes
#: from here on a fresh segment).
WAL_HEADER_SIZE = len(_WAL_MAGIC)


# ---------------------------------------------------------------------------
# value encoding
# ---------------------------------------------------------------------------
#
# One-byte tag, then a fixed or length-prefixed body.  Covers exactly the
# value domain of the storage layer (the SQL type system coerces every
# stored value to None/bool/int/float/str) plus the containers the change
# records are built from.  Deliberately not pickle: the format is stable,
# inspectable, and cannot execute anything on load.

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")


def _encode_value(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        body = value.to_bytes((value.bit_length() + 8) // 8 or 1, "little", signed=True)
        out.append(b"i" + _U32.pack(len(body)) + body)
    elif isinstance(value, float):
        out.append(b"f" + _F64.pack(value))
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(b"s" + _U32.pack(len(body)) + body)
    elif isinstance(value, (list, tuple)):
        out.append(b"l" + _U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(b"d" + _U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    elif isinstance(value, RowImage):
        out.append(b"d" + _U32.pack(len(value.row)))
        for key, item in zip(value.names, value.row):
            _encode_value(key, out)
            _encode_value(item, out)
    elif isinstance(value, LazyList):
        out.append(b"l" + _U32.pack(value.count))
        spill = out.spill if isinstance(out, _SpillingPieces) else None
        produced = 0
        for item in value.items:
            _encode_value(item, out)
            produced += 1
            if spill is not None and len(out) >= _SPILL_PIECES:
                spill()
        if produced != value.count:
            raise DurabilityError(
                f"lazy list announced {value.count} items but produced "
                f"{produced}"
            )
    else:
        raise DurabilityError(
            f"cannot serialize value of type {type(value).__name__} "
            "to the write-ahead log"
        )


def encode_payload(value: Any) -> bytes:
    """Serialize one payload (a commit batch or checkpoint body)."""
    out: List[bytes] = []
    _encode_value(value, out)
    return b"".join(out)


class LazyList:
    """A list inside a payload whose items are produced on demand.

    Encodes exactly like ``list(items)`` — the length prefix comes from
    ``count``, so the list itself never has to exist.  A checkpoint body
    holds each table's rows this way: the encoder pulls them one at a
    time and spills what it has encoded to the file as it goes, instead
    of building every row's pieces in memory first.
    """

    __slots__ = ("count", "items")

    def __init__(self, count: int, items: Iterable[Any]) -> None:
        self.count = count
        self.items = items


class RowImage:
    """A stored row inside a payload: encodes exactly like the dict
    ``{name: value}`` over its table's column ``names`` and the row
    tuple, in column order — the row image WAL records and checkpoints
    carry, which every version of this program reads — without that
    dict being built.  Decoding yields the dict;
    :meth:`repro.rdb.catalog.Table.row_from` turns it back into a row."""

    __slots__ = ("names", "row")

    def __init__(self, names: Iterable[str], row: Tuple[Any, ...]) -> None:
        self.names = names
        self.row = row


#: Encoded pieces (one per scalar, roughly) the checkpoint encoder lets
#: pile up before writing them out: a few hundred KB per spill.
_SPILL_PIECES = 16384


class _SpillingPieces(list):
    """Encoder output that empties itself into a file, keeping the
    running length and CRC32 of everything that passed through.  Still a
    ``list``: the encoder's per-value ``append`` stays the builtin."""

    def __init__(self, handle) -> None:
        super().__init__()
        self._handle = handle
        self.length = 0
        self.crc = 0

    def spill(self) -> None:
        data = b"".join(self)
        self.clear()
        self.length += len(data)
        self.crc = zlib.crc32(data, self.crc)
        self._handle.write(data)


def _decode_value(buf: bytes, pos: int) -> Tuple[Any, int]:
    tag = buf[pos:pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"i":
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return int.from_bytes(buf[pos:pos + length], "little", signed=True), pos + length
    if tag == b"f":
        (value,) = _F64.unpack_from(buf, pos)
        return value, pos + 8
    if tag == b"s":
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return buf[pos:pos + length].decode("utf-8"), pos + length
    if tag == b"l":
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(buf, pos)
            items.append(item)
        return items, pos
    if tag == b"d":
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        mapping = {}
        for _ in range(count):
            key, pos = _decode_value(buf, pos)
            value, pos = _decode_value(buf, pos)
            mapping[key] = value
        return mapping, pos
    raise DurabilityError(f"corrupt payload: unknown value tag {tag!r}")


def decode_payload(buf: bytes) -> Any:
    value, pos = _decode_value(buf, 0)
    if pos != len(buf):
        raise DurabilityError(
            f"corrupt payload: {len(buf) - pos} trailing byte(s)"
        )
    return value


# ---------------------------------------------------------------------------
# the WAL segment writer (with group commit)
# ---------------------------------------------------------------------------

class _WalWriter:
    """Appends framed records to one WAL segment.

    Appends are serialized by the engine's writer lock; the *durability
    wait* (:meth:`sync_to`) runs outside it and implements group commit:
    the first waiter becomes the flusher for everything appended so far,
    later waiters whose offset that flush covers return without touching
    the device.  ``fsync`` releases the GIL, so concurrent committers
    genuinely overlap their appends with the in-flight flush.
    """

    def __init__(self, path: str, sync_mode: str) -> None:
        self.path = path
        self.sync_mode = sync_mode
        # Size 0 counts as fresh: recovery truncates a segment whose
        # header never made it to disk back to empty, and the magic must
        # be rewritten or every later recovery would reject the file.
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._file = open(path, "ab")
        if fresh:
            self._file.write(_WAL_MAGIC)
            self._file.flush()
            _fsync_file(self._file)
        #: bytes appended (buffered or not) / known flushed to the device
        self._appended = self._file.tell()
        self._synced = self._appended
        self._cond = threading.Condition()
        self._flusher_active = False
        self._closed = False
        #: True after an append or flush hit an I/O error.  A torn frame
        #: may now sit mid-stream while the in-memory commit stands, so
        #: the log refuses every further commit: anything appended after
        #: the tear would be acknowledged and then silently truncated
        #: away by the next recovery.
        self._failed = False
        #: diagnostics: device flushes performed / commits that waited /
        #: records appended.  commit_count - sync_count is how many
        #: commits rode a group flush instead of paying their own.
        self.sync_count = 0
        self.commit_count = 0
        self.append_count = 0

    def _fail(self, action: str, exc: OSError) -> DurabilityError:
        self._failed = True
        return DurabilityError(
            f"write-ahead log {action} failed ({exc}); refusing further "
            "commits — restart to recover the intact prefix"
        )

    def append(self, payload: bytes) -> int:
        """Append one framed record; returns the segment end offset the
        caller must pass to :meth:`sync_to`.  Caller holds the engine's
        writer lock, so frames never interleave."""
        if self._failed:
            raise DurabilityError(
                "write-ahead log is in a failed state; refusing commits"
            )
        frame = _FRAME.pack(len(payload), zlib.crc32(payload))
        try:
            if INJECTOR.armed:
                INJECTOR.fire("wal:pre-append")
                # Split the write so the mid-append kill point really
                # leaves a torn frame behind (header without payload).
                self._file.write(frame)
                self._file.flush()
                INJECTOR.fire("wal:mid-append")
                self._file.write(payload)
            else:
                self._file.write(frame + payload)
        except OSError as exc:  # e.g. ENOSPC with a partial frame out
            raise self._fail("append", exc) from exc
        self.append_count += 1
        with self._cond:
            self._appended += len(frame) + len(payload)
            return self._appended

    def sync_to(self, offset: int) -> None:
        """Block until everything up to ``offset`` is as durable as the
        sync mode promises.  Called WITHOUT the engine writer lock."""
        self.commit_count += 1
        if self.sync_mode == SYNC_NONE:
            return
        with self._cond:
            while True:
                if self._failed:
                    raise DurabilityError(
                        "write-ahead log is in a failed state; the "
                        "commit's durability cannot be guaranteed"
                    )
                if self._synced >= offset:
                    return
                if self._closed:
                    # A rotation closed this segment after our append:
                    # close() flushed and fsynced everything, so the
                    # record is already as durable as the mode promises.
                    return
                if not self._flusher_active:
                    break
                self._cond.wait()
            self._flusher_active = True
        try:
            if INJECTOR.armed:
                INJECTOR.fire("wal:pre-sync")
            # Read the target as late as possible: the flush covers
            # every record appended before it starts, so each one that
            # arrived while this flusher was getting here rides along.
            with self._cond:
                target = self._appended
            try:
                self._file.flush()
                if self.sync_mode == SYNC_FSYNC:
                    _fsync_file(self._file)
            except OSError as exc:
                raise self._fail("flush", exc) from exc
            except DurabilityError:
                self._failed = True  # _fsync_file: a real device error
                raise
            self.sync_count += 1
            with self._cond:
                self._synced = max(self._synced, target)
        finally:
            with self._cond:
                self._flusher_active = False
                self._cond.notify_all()

    def flush(self) -> None:
        """Push buffered records to the OS (checkpoint/rotate/close)."""
        self._file.flush()

    def close(self) -> None:
        """Flush, fsync (in fsync mode), and close the segment.  Waits
        for an in-flight group flush first — a racing committer's
        :meth:`sync_to` must never touch a closed file — and marks
        everything synced so late waiters return immediately."""
        with self._cond:
            while self._flusher_active:
                self._cond.wait()
            if self._closed:
                return
            self._file.flush()
            if self.sync_mode == SYNC_FSYNC:
                _fsync_file(self._file)
            self._file.close()
            self._closed = True
            self._synced = self._appended
            self._cond.notify_all()


def _fsync_file(handle) -> None:
    """fsync, raising DurabilityError on real device errors.

    Only "this file cannot be fsynced at all" (pipes, fsync-less
    filesystems: EINVAL/ENOTSUP) is ignored.  A genuine I/O failure
    (EIO, ENOSPC) must surface: after a failed fsync the kernel may drop
    the dirty pages, so treating it as durable would acknowledge a
    commit the device never saw (and a checkpoint's supersede-deletes
    would remove the only good copy).
    """
    try:
        os.fsync(handle.fileno())
    except OSError as exc:  # pragma: no cover - device-dependent
        if exc.errno in (errno.EINVAL, getattr(errno, "ENOTSUP", None)):
            return
        raise DurabilityError(f"fsync of {handle.name!r} failed: {exc}") from exc


def _read_wal(path: str) -> Tuple[List[Any], int, bool]:
    """Read a WAL segment.

    Returns ``(batches, valid_end, clean)``: the decoded commit batches,
    the byte offset after the last complete valid record, and whether the
    segment ended exactly there (False means a torn/corrupt tail
    follows).  The frames are :func:`iter_wal_frames`'; a payload that
    does not decode ends the valid prefix like a torn one.
    """
    with open(path, "rb") as handle:
        magic = handle.read(WAL_HEADER_SIZE)
        size = handle.seek(0, os.SEEK_END)
    if magic != _WAL_MAGIC:
        # Torn header (crash before the magic reached disk): the segment
        # holds no records; truncating to 0 lets the next writer rewrite
        # the magic.  Anything else in it was never a valid record.
        return [], 0, size == 0
    batches: List[Any] = []
    valid_end = WAL_HEADER_SIZE
    for payload, end in iter_wal_frames(path):
        try:
            batches.append(decode_payload(payload))
        except DurabilityError:
            break
        valid_end = end
    return batches, valid_end, valid_end == size


def iter_wal_frames(path: str, start: int = WAL_HEADER_SIZE):
    """Yield ``(payload, end_offset)`` for each complete frame at or
    after byte offset ``start`` of a WAL segment.

    The log shipper's read path: ``end_offset`` is the absolute offset
    just past the frame (including the segment header), i.e. the replica's
    resume position after applying the payload.  Iteration stops silently
    at the first short or CRC-failing record — on the live segment that is
    simply the not-yet-flushed tail, and the shipper will pick the frames
    up on its next pass.  Payloads are NOT decoded; they ship verbatim so
    the replica's CRC check covers the wire too.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(_WAL_MAGIC):
        return
    pos = max(start, WAL_HEADER_SIZE)
    while True:
        header = data[pos:pos + _FRAME.size]
        if len(header) < _FRAME.size:
            return
        length, crc = _FRAME.unpack(header)
        payload = data[pos + _FRAME.size:pos + _FRAME.size + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            return
        pos += _FRAME.size + length
        yield payload, pos


# ---------------------------------------------------------------------------
# the manager
# ---------------------------------------------------------------------------

class DurabilityManager:
    """Owns one ``data_dir``: WAL segments, checkpoints, recovery.

    The engine drives it (all policy — what is a commit, what goes into a
    checkpoint — lives in :mod:`repro.rdb.engine`); this class owns the
    files and their crash-safety discipline.

    Named kill points right before/after the critical file operations
    fire through :data:`repro.faults.INJECTOR` (``wal:pre-append``,
    ``wal:mid-append``, ``wal:pre-sync``, ``checkpoint:pre-rename``,
    ``checkpoint:post-rename``); the crash-injection tests arm a rule
    that raises there to simulate a process dying, then reopen the
    directory and assert the committed prefix survived.
    """

    def __init__(self, data_dir: str, sync_mode: str = SYNC_FSYNC) -> None:
        if sync_mode not in SYNC_MODES:
            raise DurabilityError(
                f"unknown sync mode {sync_mode!r}; expected one of "
                f"{', '.join(SYNC_MODES)}"
            )
        self.data_dir = data_dir
        self.sync_mode = sync_mode
        os.makedirs(data_dir, exist_ok=True)
        self._lock_file = None
        self._acquire_lock()
        #: replication epoch this data_dir lives in (monotone, persisted
        #: in ``data_dir/EPOCH``); a fresh directory starts at epoch 1
        self.epoch = self._read_epoch()
        self.generation = 0
        self._wal: Optional[_WalWriter] = None
        #: recovery report, for diagnostics and tests
        self.recovered_batches = 0
        self.truncated_bytes = 0
        #: wall-clock time of the newest checkpoint (None before the
        #: first one); /health reports its age
        self.last_checkpoint_time: Optional[float] = None
        #: cumulative WAL counters from segments already closed by a
        #: rotation, so /metrics sees process totals, not per-segment
        #: ones: (appends, commits, syncs)
        self._wal_counter_base = [0, 0, 0]
        #: replication: shipper threads block on this condition until the
        #: log grows; the sequence number only ever increases.  It also
        #: guards the (generation, writer) pair so :meth:`position` never
        #: observes a new generation with the old segment's offset.
        self._ship_cond = threading.Condition()
        self._ship_seq = 0

    # -- single-owner lock ----------------------------------------------

    def _acquire_lock(self) -> None:
        """Exclusive ``flock`` on ``data_dir/LOCK`` for the manager's
        lifetime.  Two processes appending to one WAL interleave frames
        and delete each other's segments, so a second opener gets a
        clean error instead.  The kernel drops the lock when the holder
        dies — even by SIGKILL — so crash recovery is never blocked."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return
        handle = open(os.path.join(self.data_dir, "LOCK"), "a")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise DurabilityError(
                f"data_dir {self.data_dir!r} is locked by another "
                "database instance; close it first"
            ) from None
        self._lock_file = handle

    def _release_lock(self) -> None:
        if self._lock_file is not None:
            self._lock_file.close()  # closing the fd releases the flock
            self._lock_file = None

    # -- replication epoch ----------------------------------------------

    def _epoch_path(self) -> str:
        return os.path.join(self.data_dir, "EPOCH")

    def _read_epoch(self) -> int:
        try:
            with open(self._epoch_path(), "r", encoding="ascii") as handle:
                return max(1, int(handle.read().strip() or 1))
        except FileNotFoundError:
            return 1
        except (OSError, ValueError) as exc:
            raise DurabilityError(
                f"unreadable epoch file {self._epoch_path()!r}: {exc}"
            ) from exc

    def set_epoch(self, epoch: int) -> int:
        """Persist a new replication epoch (forward-only).  Durable via
        temp file + fsync + atomic rename *before* the in-memory epoch
        moves, so a node can never stamp messages with an epoch a crash
        would roll back."""
        epoch = int(epoch)
        if epoch < self.epoch:
            raise DurabilityError(
                f"epoch may only advance: {epoch} < current {self.epoch}"
            )
        if epoch == self.epoch:
            return self.epoch
        final = self._epoch_path()
        tmp = final + ".new"
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write(f"{epoch}\n")
            handle.flush()
            _fsync_file(handle)
        os.replace(tmp, final)
        _fsync_dir(self.data_dir)
        self.epoch = epoch
        return self.epoch

    def advance_epoch(self, minimum: int = 0) -> int:
        """Bump to at least ``minimum`` and strictly past the current
        epoch — the promotion primitive."""
        return self.set_epoch(max(self.epoch + 1, int(minimum)))

    def reset_storage(self, epoch: int) -> None:
        """Discard the entire local lineage — every WAL segment and
        checkpoint — and restart at generation 0 under ``epoch``.

        This is the demotion/rejoin primitive: a fenced old primary's
        un-shipped WAL tail diverged from the new primary's history, so
        nothing of it may survive; the caller re-bases the in-memory
        state from the new primary's snapshot and re-journals from
        there.  The epoch is persisted first so a crash mid-reset leaves
        a directory that still refuses the old lineage."""
        self.set_epoch(max(epoch, self.epoch))
        old = self._wal
        with self._ship_cond:
            self.generation = 0
            self._wal = None
        if old is not None:
            old.close()
        checkpoints, wals = self._scan_dir()
        for generation in checkpoints:
            os.unlink(self._checkpoint_path(generation))
        for generation in wals:
            os.unlink(self._wal_path(generation))
        _fsync_dir(self.data_dir)
        with self._ship_cond:
            self._wal = _WalWriter(self._wal_path(0), self.sync_mode)
        self.last_checkpoint_time = None
        self.recovered_batches = 0
        self.truncated_bytes = 0
        self._ship_notify()

    # -- paths ----------------------------------------------------------

    def _checkpoint_path(self, generation: int) -> str:
        return os.path.join(self.data_dir, f"checkpoint-{generation:08d}.db")

    def _wal_path(self, generation: int) -> str:
        return os.path.join(self.data_dir, f"wal-{generation:08d}.log")

    def _scan_dir(self) -> Tuple[List[int], List[int]]:
        checkpoints: List[int] = []
        wals: List[int] = []
        for name in os.listdir(self.data_dir):
            if name.endswith(".tmp"):
                # a checkpoint that never reached its atomic rename
                os.unlink(os.path.join(self.data_dir, name))
                continue
            match = _CKPT_RE.match(name)
            if match:
                checkpoints.append(int(match.group(1)))
                continue
            match = _WAL_RE.match(name)
            if match:
                wals.append(int(match.group(1)))
        return sorted(checkpoints), sorted(wals)

    # -- recovery -------------------------------------------------------

    def recover(self) -> Tuple[Optional[Any], List[Any]]:
        """Load the directory.

        Returns ``(checkpoint_body, wal_batches)``: the newest
        checkpoint payload (None for a fresh directory; DurabilityError
        for a damaged one) and every commit batch committed after it, in
        commit order.  Leaves the final WAL segment truncated to its
        last valid record and open for appends.
        """
        checkpoints, wals = self._scan_dir()
        body = None
        base = 0
        if checkpoints:
            # Only the newest checkpoint is a candidate: its rename was
            # atomic and its body fsynced first, so an invalid file is
            # disk corruption — raised, never papered over by silently
            # falling back to a lineage whose WAL segments are gone.
            base = checkpoints[-1]
            body = self._load_checkpoint(base)
            try:
                self.last_checkpoint_time = os.path.getmtime(
                    self._checkpoint_path(base)
                )
            except OSError:  # pragma: no cover - raced deletion
                self.last_checkpoint_time = None
        batches: List[Any] = []
        replay = [g for g in wals if g >= base]
        for position, generation in enumerate(replay):
            path = self._wal_path(generation)
            segment, valid_end, clean = _read_wal(path)
            if not clean:
                if position != len(replay) - 1:
                    raise DurabilityError(
                        f"corrupt record mid-log in {path!r}: only the "
                        "final segment may have a torn tail"
                    )
                size = os.path.getsize(path)
                self.truncated_bytes = size - valid_end
                with open(path, "r+b") as handle:
                    handle.truncate(valid_end)
            batches.extend(segment)
        self.generation = replay[-1] if replay else base
        # Stale files from before the checkpoint can go now.
        for generation in checkpoints:
            if generation != base:
                os.unlink(self._checkpoint_path(generation))
        for generation in wals:
            if generation < base:
                os.unlink(self._wal_path(generation))
        self._wal = _WalWriter(
            self._wal_path(self.generation), self.sync_mode
        )
        self.recovered_batches = len(batches)
        return body, batches

    def _load_checkpoint(self, generation: int) -> Any:
        """Load and validate one checkpoint; raises DurabilityError on
        any damage (a checkpoint only exists post-rename, fsynced)."""
        return decode_payload(self.checkpoint_payload(generation))

    def checkpoint_payload(self, generation: int) -> bytes:
        """The payload bytes of checkpoint ``generation`` as stored, its
        CRC checked (what a shipper sends a replica); DurabilityError if
        the file is damaged or gone."""
        path = self._checkpoint_path(generation)
        def corrupt(reason: str) -> DurabilityError:
            return DurabilityError(f"corrupt checkpoint {path!r}: {reason}")

        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise corrupt(f"unreadable ({exc})") from exc
        if not data.startswith(_CKPT_MAGIC):
            raise corrupt("bad magic")
        frame = data[len(_CKPT_MAGIC):]
        if len(frame) < _FRAME.size:
            raise corrupt("truncated header")
        length, crc = _FRAME.unpack_from(frame)
        payload = frame[_FRAME.size:_FRAME.size + length]
        if len(payload) != length:
            raise corrupt("truncated body")
        if zlib.crc32(payload) != crc:
            raise corrupt("checksum mismatch")
        return payload

    # -- commit path ----------------------------------------------------

    def log_commit(self, changes: List[Any]) -> Tuple[_WalWriter, int, int]:
        """Append one commit batch; engine writer lock held.  Returns an
        opaque token for :meth:`wait_durable` — it pins the *segment*
        the record landed in, so a concurrent checkpoint rotation can
        never strand the waiter against the wrong file's offsets.  The
        token also carries the generation, giving the engine's commit
        barrier (semi-sync replication) the commit's log
        position without re-deriving it under the lock."""
        assert self._wal is not None
        token = (
            self._wal,
            self._wal.append(encode_payload(changes)),
            self.generation,
        )
        self._ship_notify()
        return token

    def wait_durable(self, token: Tuple[_WalWriter, int, int]) -> None:
        """Group-commit durability wait; called outside the writer lock."""
        writer, offset = token[0], token[1]
        writer.sync_to(offset)

    # -- checkpoints ----------------------------------------------------

    def rotate_wal(self) -> int:
        """Switch appends to a fresh segment (engine writer lock held, so
        no commit can interleave with the cut).  Returns the new
        generation; the caller's snapshot corresponds exactly to the end
        of the old segment."""
        assert self._wal is not None
        old = self._wal
        with self._ship_cond:
            # Swap generation and writer atomically w.r.t. position():
            # a shipper must never pair the new generation with the old
            # segment's (large) offset, or its watermark runs ahead of
            # reality and replicas report phantom lag.
            self.generation += 1
            self._wal = _WalWriter(
                self._wal_path(self.generation), self.sync_mode
            )
        base = self._wal_counter_base
        base[0] += old.append_count
        base[1] += old.commit_count
        base[2] += old.sync_count
        old.close()
        self._ship_notify()
        return self.generation

    def write_checkpoint(self, generation: int, body: Any) -> str:
        """Serialize ``body`` as checkpoint ``generation``: temp file,
        fsync, atomic rename, then delete the files it supersedes.  May
        run outside the writer lock — the body is built from frozen
        snapshot state.

        The payload is encoded straight into the temp file (any
        :class:`LazyList` in ``body`` is pulled and spilled piecewise),
        and the ``length | crc32`` frame header is written last, over
        its placeholder: the file is byte-for-byte ``magic +
        frame(encode_payload(body))`` without the payload ever being
        one object in memory."""
        final = self._checkpoint_path(generation)
        tmp = final + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(_CKPT_MAGIC)
            handle.write(_FRAME.pack(0, 0))
            pieces = _SpillingPieces(handle)
            _encode_value(body, pieces)
            pieces.spill()
            handle.seek(len(_CKPT_MAGIC))
            handle.write(_FRAME.pack(pieces.length, pieces.crc))
            handle.flush()
            _fsync_file(handle)
        if INJECTOR.armed:
            INJECTOR.fire("checkpoint:pre-rename")
        os.replace(tmp, final)
        _fsync_dir(self.data_dir)
        self.last_checkpoint_time = time.time()
        if INJECTOR.armed:
            INJECTOR.fire("checkpoint:post-rename")
        # The old checkpoint and every segment before this generation are
        # fully covered by the new checkpoint: truncate the log's history.
        checkpoints, wals = self._scan_dir()
        for old_generation in checkpoints:
            if old_generation < generation:
                os.unlink(self._checkpoint_path(old_generation))
        for old_generation in wals:
            if old_generation < generation:
                os.unlink(self._wal_path(old_generation))
        self._ship_notify()
        return final

    # -- replication (log shipping) -------------------------------------
    #
    # The shipper reads WAL segments *from disk* (via iter_wal_frames)
    # rather than tapping the commit path: the files are the source of
    # truth, so a replica can never apply a change the primary would lose
    # in a crash.  These methods give it a consistent position watermark,
    # a wakeup signal, and checkpoint access for bootstrap/resync.

    def _ship_notify(self) -> None:
        with self._ship_cond:
            self._ship_seq += 1
            self._ship_cond.notify_all()

    def ship_seq(self) -> int:
        """Monotone counter bumped on every append/rotate/checkpoint."""
        with self._ship_cond:
            return self._ship_seq

    def ship_wait(self, seq: int, timeout: float) -> int:
        """Block until the log moves past ``seq`` (or timeout); returns
        the current sequence number."""
        with self._ship_cond:
            if self._ship_seq == seq:
                self._ship_cond.wait(timeout)
            return self._ship_seq

    def ship_flush(self) -> None:
        """Push buffered frames to the OS so the shipper's file reads see
        them.  ``io.BufferedWriter`` serializes flush against in-flight
        writes internally, so the on-disk view stays frame-aligned.  The
        writer may be closed by a concurrent rotation — harmless, the
        rotation itself flushed it."""
        wal = self._wal
        if wal is None:
            return
        try:
            wal.flush()
        except (OSError, ValueError):  # pragma: no cover - racing close
            pass

    def position(self) -> Tuple[int, int]:
        """Current end of log as ``(generation, byte_offset)`` — the
        watermark a fully caught-up replica has applied up to."""
        with self._ship_cond:
            generation = self.generation
            wal = self._wal
            if wal is None:
                return generation, WAL_HEADER_SIZE
            with wal._cond:
                return generation, wal._appended

    def wal_generations(self) -> List[int]:
        """Sorted generations of the WAL segments currently on disk."""
        return self._scan_dir()[1]

    def newest_checkpoint(self) -> Optional[int]:
        """Generation of the newest checkpoint, or None before the first."""
        checkpoints, _ = self._scan_dir()
        return checkpoints[-1] if checkpoints else None

    def segment_path(self, generation: int) -> str:
        """Path of WAL segment ``generation`` (for iter_wal_frames)."""
        return self._wal_path(generation)

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        if self._wal is not None:
            self._wal.flush()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self._release_lock()

    @property
    def wal(self) -> Optional[_WalWriter]:
        return self._wal

    def wal_size(self) -> int:
        """Bytes in the current segment (diagnostics / checkpoint policy)."""
        if self._wal is None:
            return 0
        with self._wal._cond:
            return self._wal._appended

    @property
    def wal_refusing(self) -> bool:
        """True once an append/fsync I/O error poisoned the WAL: every
        later commit is refused until the process restarts and recovers
        the durable prefix."""
        wal = self._wal
        return wal is not None and wal._failed

    def last_checkpoint_age(self) -> Optional[float]:
        """Seconds since the newest checkpoint, or None before the first."""
        if self.last_checkpoint_time is None:
            return None
        return max(0.0, time.time() - self.last_checkpoint_time)

    def wal_counters(self) -> Dict[str, int]:
        """Cumulative WAL work across segment rotations (ISSUE 10):
        records appended, commits that waited for durability, and device
        flushes performed.  ``commits - syncs`` is how many commits rode
        a shared group-commit flush."""
        appends, commits, syncs = self._wal_counter_base
        wal = self._wal
        if wal is not None:
            appends += wal.append_count
            commits += wal.commit_count
            syncs += wal.sync_count
        return {
            "wal_appends": appends,
            "wal_commits": commits,
            "wal_syncs": syncs,
        }

    def status(self) -> Dict[str, Any]:
        """Machine-readable durability state for /health (ISSUE 6)."""
        age = self.last_checkpoint_age()
        return {
            "durable": True,
            "sync_mode": self.sync_mode,
            "wal_refusing": self.wal_refusing,
            "wal_bytes": self.wal_size(),
            "generation": self.generation,
            "epoch": self.epoch,
            "last_checkpoint_age_s": None if age is None else round(age, 3),
            **self.wal_counters(),
        }


def _fsync_dir(path: str) -> None:
    """Make a rename durable by fsyncing the directory entry."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError as exc:  # pragma: no cover - device-dependent
        if exc.errno not in (errno.EINVAL, getattr(errno, "ENOTSUP", None)):
            raise DurabilityError(
                f"fsync of directory {path!r} failed: {exc}"
            ) from exc
    finally:
        os.close(fd)
