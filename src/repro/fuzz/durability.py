"""Crash-safe campaign durability: one log per campaign, chaos IO.

The paper's campaigns run for hours against degrading targets (§V-§VI:
the fuzzer is left running until the cluster latches "crash"), so the
run artefacts must survive the fuzzing *host* failing too -- a SIGKILL,
an OOM kill, a full disk.  This module provides the three layers the
campaign and the sharded runner build on:

- :class:`WriteAheadJournal` -- an append-only JSONL log with a CRC32
  per record and atomic segment rotation.  On open, a torn tail (the
  classic crash-mid-write artefact) is detected and truncated so the
  log always ends on an intact record and never yields phantom
  records.
- :class:`CampaignJournal` -- the campaign-facing facade over one such
  log: findings and progress records stream into it as they happen,
  and the periodic checkpoints and the final result are records of
  the same log.  Every operation is wrapped in bounded retry with
  exponential backoff (:class:`RetryPolicy`); when the backend stays
  broken the journal *degrades* to in-memory-only operation with a
  recorded warning instead of wedging the campaign.
  :func:`read_result` reads a log's result without repairing it.
- :class:`FaultyStore` -- an IO fault-injection wrapper (EIO, ENOSPC,
  torn writes, latency) over any store, used by the chaos tests to
  prove the degradation path never hangs, raises into the campaign, or
  leaves a corrupt artefact behind.

Storage goes through the small :class:`DirectoryStore` surface (append
/ replace / read / ...) so the fault injector can sit between the
journal and the filesystem without either knowing.  Only this module
knows the on-disk format.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import random
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

# ----------------------------------------------------------------------
# Atomic file replacement
# ----------------------------------------------------------------------

def _fsync_directory(path: Path) -> None:
    """Flush a directory entry so a rename survives power loss.

    Best-effort: some filesystems (and platforms) refuse directory
    fsync; the rename itself is still atomic there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_replace_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` via write - fsync - rename.

    A reader never observes a torn file: either the old content or the
    complete new content.  On any failure the temporary file is
    removed, so no half-written sibling litters the directory.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(target.parent)


def atomic_write_json(path: str | os.PathLike, payload) -> None:
    """Serialise ``payload`` and atomically replace ``path`` with it.

    The single helper every report/JSON output routes through: a crash
    mid-dump can no longer leave a torn report on disk.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_replace_bytes(path, text.encode("utf-8"))


# ----------------------------------------------------------------------
# Storage backends
# ----------------------------------------------------------------------

class DirectoryStore:
    """Flat-file store rooted at one directory.

    The minimal surface the journal and the sharded manifest need;
    every write is flushed to the device (``fsync``) before returning,
    because a write-ahead record that only reached the page cache is
    not ahead of anything.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        return self.root / name

    def append(self, name: str, data: bytes) -> None:
        with open(self.root / name, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def replace(self, name: str, data: bytes) -> None:
        atomic_replace_bytes(self.root / name, data)

    def read(self, name: str) -> bytes:
        return (self.root / name).read_bytes()

    def exists(self, name: str) -> bool:
        return (self.root / name).exists()

    def remove(self, name: str) -> None:
        (self.root / name).unlink(missing_ok=True)

    def truncate(self, name: str, size: int) -> None:
        with open(self.root / name, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def list(self) -> list[str]:
        return sorted(p.name for p in self.root.iterdir() if p.is_file())

    def sub(self, name: str) -> "DirectoryStore":
        """A store rooted at a subdirectory (one per shard)."""
        return DirectoryStore(self.root / name)


class FaultyStore:
    """Chaos-IO wrapper: injects EIO/ENOSPC, torn writes, and latency.

    Deterministic from ``seed``, so a chaos test that fails replays the
    exact same fault schedule.  Torn appends persist a random prefix of
    the record before raising -- the crash-mid-write artefact the
    journal's recovery must absorb.  ``replace`` faults raise before
    the rename, which is exactly what the atomic helper guarantees: the
    target file is never corrupted, only not updated.

    Args:
        inner: the real store to forward to.
        seed: fault-schedule seed.
        fail_rate: probability an eligible op raises outright.
        torn_rate: probability an append persists a torn prefix first.
        error: ``"EIO"`` or ``"ENOSPC"``.
        latency: seconds of injected delay per operation.
        fail_ops: operation names eligible for faults.
        sleep: latency hook (tests pass a no-op).
    """

    def __init__(self, inner, *, seed: int = 0, fail_rate: float = 0.0,
                 torn_rate: float = 0.0, error: str = "EIO",
                 latency: float = 0.0,
                 fail_ops: Iterable[str] = ("append", "replace"),
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if error not in ("EIO", "ENOSPC"):
            raise ValueError("error must be 'EIO' or 'ENOSPC'")
        self.inner = inner
        self.fail_rate = fail_rate
        self.torn_rate = torn_rate
        self.error = error
        self.latency = latency
        self.fail_ops = frozenset(fail_ops)
        self._rng = random.Random(seed)
        self._sleep = sleep
        self.ops = 0
        self.faults_injected = 0

    def _enter(self, op: str) -> None:
        self.ops += 1
        if self.latency:
            self._sleep(self.latency)
        if op in self.fail_ops and self._rng.random() < self.fail_rate:
            self.faults_injected += 1
            raise self._make_error(op)

    def _make_error(self, op: str) -> OSError:
        code = errno.ENOSPC if self.error == "ENOSPC" else errno.EIO
        return OSError(code, f"injected {self.error} during {op}")

    def append(self, name: str, data: bytes) -> None:
        self._enter("append")
        if ("append" in self.fail_ops and data
                and self._rng.random() < self.torn_rate):
            self.faults_injected += 1
            self.inner.append(name, data[:self._rng.randrange(len(data))])
            raise self._make_error("torn append")
        self.inner.append(name, data)

    def replace(self, name: str, data: bytes) -> None:
        self._enter("replace")
        self.inner.replace(name, data)

    def read(self, name: str) -> bytes:
        self._enter("read")
        return self.inner.read(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def remove(self, name: str) -> None:
        self._enter("remove")
        self.inner.remove(name)

    def truncate(self, name: str, size: int) -> None:
        self._enter("truncate")
        self.inner.truncate(name, size)

    def list(self) -> list[str]:
        return self.inner.list()

    def path(self, name: str):
        return self.inner.path(name)

    def sub(self, name: str) -> "FaultyStore":
        """Wrap the inner sub-store with an independently seeded twin."""
        return FaultyStore(
            self.inner.sub(name),
            seed=self._rng.randrange(2 ** 32),
            fail_rate=self.fail_rate, torn_rate=self.torn_rate,
            error=self.error, latency=self.latency,
            fail_ops=self.fail_ops, sleep=self._sleep)


class DiskQuotaExceeded(RuntimeError):
    """A job wrote past its per-job disk quota.

    Deliberately *not* an :class:`OSError`: the journal's retry/degrade
    machinery treats ``OSError`` as weather (retry, then keep running
    in memory), but blowing a quota is the job's own behaviour and must
    not be absorbed silently.  Raising a ``RuntimeError`` lets it
    propagate out of the campaign, so the worker reports an error and
    the orchestrator records a fault strike -- a quota-breaching job is
    quarantined deterministically instead of quietly filling the disk
    or degrading to memory-only.
    """


class QuotaStore:
    """Byte-budget enforcement wrapper over any store.

    Tracks bytes written through ``append`` plus what is already on
    disk at attach time, and raises
    :class:`DiskQuotaExceeded` *before* a write that would cross the
    budget.  Shared mutable accounting (`_usage` is a one-element list)
    spans :meth:`sub`-derived children, so the budget covers the whole
    ``jobs/<id>/`` tree, not each subdirectory separately.
    """

    def __init__(self, inner, *, quota_bytes: int,
                 _usage: list[int] | None = None) -> None:
        if quota_bytes < 1:
            raise ValueError("quota_bytes must be >= 1")
        self.inner = inner
        self.quota_bytes = quota_bytes
        if _usage is None:
            _usage = [self._on_disk(inner)]
        self._usage = _usage

    @staticmethod
    def _on_disk(inner) -> int:
        try:
            root = Path(inner.path(""))
        except (AttributeError, OSError):
            return 0
        if not root.is_dir():
            return 0
        return sum(p.stat().st_size for p in root.rglob("*")
                   if p.is_file())

    @property
    def used_bytes(self) -> int:
        return self._usage[0]

    def append(self, name: str, data: bytes) -> None:
        usage = self._usage[0] + len(data)
        if usage > self.quota_bytes:
            raise DiskQuotaExceeded(
                f"append of {len(data)} byte(s) to {name!r} would take "
                f"usage to {usage} of a {self.quota_bytes} byte quota")
        self._usage[0] = usage
        self.inner.append(name, data)

    def read(self, name: str) -> bytes:
        return self.inner.read(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def remove(self, name: str) -> None:
        try:
            if self.inner.exists(name):
                self._usage[0] = max(
                    0, self._usage[0] - len(self.inner.read(name)))
        except OSError:
            pass
        self.inner.remove(name)

    def truncate(self, name: str, size: int) -> None:
        try:
            old = len(self.inner.read(name))
        except OSError:
            old = size
        self.inner.truncate(name, size)
        self._usage[0] = max(0, self._usage[0] - max(0, old - size))

    def list(self) -> list[str]:
        return self.inner.list()

    def path(self, name: str):
        return self.inner.path(name)

    def sub(self, name: str) -> "QuotaStore":
        """A child sharing this store's budget and usage accounting."""
        return QuotaStore(self.inner.sub(name),
                         quota_bytes=self.quota_bytes,
                         _usage=self._usage)


# ----------------------------------------------------------------------
# Retry with exponential backoff
# ----------------------------------------------------------------------

@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff for store operations.

    ``attempts`` is the total number of tries; the base wait between
    them is ``backoff * 2**i`` seconds.  With ``jitter`` set, each wait
    is stretched by up to that fraction of itself, drawn from a private
    :class:`random.Random` seeded with ``seed`` -- many shards or lease
    holders retrying against one shared store then spread out instead
    of thundering back in lockstep, while any single policy's wait
    sequence stays exactly reproducible from its seed.  Only
    :class:`OSError` is retried -- anything else is a bug, not weather.
    """

    attempts: int = 3
    backoff: float = 0.05
    sleep: Callable[[float], None] = time.sleep
    #: Fraction of the base wait added as seeded noise: attempt ``i``
    #: waits ``backoff * 2**i * (1 + jitter * u)`` with ``u`` drawn
    #: uniformly from [0, 1).  Zero keeps the historical fixed ladder.
    jitter: float = 0.0
    #: Seed of the jitter stream; two policies with equal seeds produce
    #: identical wait sequences (give concurrent holders distinct ones).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if not 0.0 <= self.jitter:
            raise ValueError("jitter must be >= 0")
        self._jitter_rng = random.Random(self.seed)

    def delay(self, attempt: int) -> float:
        """The wait before retry ``attempt`` (0-based), jitter included.

        Consumes one draw from the jitter stream when jitter is on, so
        successive calls walk the seeded sequence deterministically.
        Shared by :meth:`run` and by callers pacing their own retry
        loops (the service orchestrator's lease re-grants).
        """
        base = self.backoff * (2 ** attempt)
        if not self.jitter:
            return base
        return base * (1.0 + self.jitter * self._jitter_rng.random())

    def run(self, op: Callable[[], None]) -> None:
        for i in range(self.attempts):
            try:
                return op()
            except OSError as exc:
                last = exc
                if i + 1 < self.attempts and self.backoff:
                    self.sleep(self.delay(i))
        raise last


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------
#
# One record per line: 8 hex digits of CRC32 over the JSON body, one
# space, the compact JSON body, a newline.  The CRC detects every
# single-bit flip in a line; the newline framing localises torn writes
# to the final record.

def encode_record(payload: dict) -> bytes:
    """Frame one journal record (CRC32-prefixed JSONL line)."""
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return f"{zlib.crc32(body):08x} ".encode("ascii") + body + b"\n"


def _decode_line(line: bytes) -> dict | None:
    """Parse one framed line; ``None`` when torn or corrupt."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:]
    if zlib.crc32(body) != crc:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    return payload


def parse_records(data: bytes) -> tuple[list[dict], int, str | None]:
    """Scan framed records, stopping at the first damage.

    Returns ``(records, clean_length, reason)``: the longest prefix of
    intact records, the byte offset the log is valid up to, and a
    description of the damage (``None`` for a clean log).  Everything
    after the first bad byte is untrusted -- a flipped bit can merge or
    split lines -- so recovery keeps exactly the intact prefix.
    """
    records: list[dict] = []
    clean = 0
    position = 0
    length = len(data)
    while position < length:
        newline = data.find(b"\n", position)
        if newline == -1:
            return records, clean, f"torn tail at byte {position}"
        record = _decode_line(data[position:newline])
        if record is None:
            return records, clean, f"corrupt record at byte {position}"
        records.append(record)
        position = newline + 1
        clean = position
    return records, clean, None


# ----------------------------------------------------------------------
# Write-ahead journal
# ----------------------------------------------------------------------

_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".wal"


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"


def _segment_names(store) -> list[str]:
    return [name for name in store.list()
            if name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)]


def scan_records(store) -> tuple[list[dict], list[str]]:
    """Read-only recovery scan over every journal segment.

    Safe to run against a dead worker's journal from another process:
    nothing is repaired or truncated.  Returns the intact record prefix
    and warnings describing any damage found.
    """
    records: list[dict] = []
    warnings: list[str] = []
    for name in _segment_names(store):
        data = store.read(name)
        segment_records, _, reason = parse_records(data)
        records.extend(segment_records)
        if reason is not None:
            warnings.append(f"{name}: {reason}; "
                            f"kept {len(segment_records)} record(s)")
            break
    return records, warnings


class WriteAheadJournal:
    """Append-only CRC-framed JSONL log with segment rotation.

    Opening the journal runs truncating recovery: segments are scanned
    in order, the first damaged byte (torn tail, flipped bit) truncates
    its segment back to the last intact record, and any later segments
    are discarded -- they were written after the damage point and an
    append-only log must stay a prefix of history.  The surviving
    records are exposed as :attr:`recovered_records`; appends continue
    where the intact prefix ends.

    Rotation is atomic by construction: a new segment is only ever
    *created* by appending a complete record to a fresh name, so no
    reader can observe a half-rotated state.
    """

    def __init__(self, store, *, max_segment_bytes: int = 1 << 20) -> None:
        if max_segment_bytes < 64:
            raise ValueError("max_segment_bytes must be >= 64")
        self.store = store
        self.max_segment_bytes = max_segment_bytes
        self.recovered_records: list[dict] = []
        self.recovery_warnings: list[str] = []
        self._index = 0
        self._size = 0
        self._recover()

    def _recover(self) -> None:
        names = _segment_names(self.store)
        if not names:
            return
        damaged_at: int | None = None
        for position, name in enumerate(names):
            data = self.store.read(name)
            records, clean, reason = parse_records(data)
            self.recovered_records.extend(records)
            self._index = int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
            self._size = clean
            if reason is not None:
                self.recovery_warnings.append(
                    f"{name}: {reason}; truncated to {clean} byte(s), "
                    f"kept {len(records)} record(s)")
                if clean:
                    self.store.truncate(name, clean)
                else:
                    self.store.remove(name)
                damaged_at = position
                break
        if damaged_at is not None:
            for name in names[damaged_at + 1:]:
                self.recovery_warnings.append(
                    f"{name}: discarded (written after damage point)")
                self.store.remove(name)

    def append(self, record: dict) -> None:
        """Durably append one record (rotating segments as needed)."""
        self.write(encode_record(record))

    def write(self, data: bytes) -> None:
        """Durably append one record framed by :func:`encode_record`.

        A failed append is cut back off the segment, so that a retry
        does not leave damage that hides every later record.
        """
        if self._size and self._size + len(data) > self.max_segment_bytes:
            self._index += 1
            self._size = 0
        name = _segment_name(self._index)
        try:
            self.store.append(name, data)
        except OSError:
            with contextlib.suppress(OSError):
                self.store.truncate(name, self._size)
            raise
        self._size += len(data)


# ----------------------------------------------------------------------
# Campaign-facing facade
# ----------------------------------------------------------------------

def refuse_legacy_files(store) -> None:
    """Refuse a journal directory of the older format, which kept the
    checkpoint and the result in files beside the log: nothing reads
    them, so a resume would silently restart on top of the old log."""
    for name in ("checkpoint.json", "result.json"):
        if store.exists(name):
            raise ValueError(
                f"{store.path(name)}: {name} belongs to an older journal "
                f"format that is no longer read; use a fresh directory")


def read_result(store) -> tuple[dict | None, list[str]]:
    """``(result, warnings)`` of a campaign log, read-only (for a process
    that does not own the log): the latest intact ``result`` record's
    payload, ``None`` before the run ends or when damage hides it."""
    records, warnings = scan_records(store)
    for record in reversed(records):
        if record.get("type") == "result":
            return record.get("result"), warnings
    return None, warnings


class CampaignJournal:
    """Durable state for one campaign: one append-only log.

    Events (start, finding, progress, resume, end), checkpoints and the
    result are records of one :class:`WriteAheadJournal`, each written
    with one encoding, one append and one fsync.  On open, the events
    become :attr:`records`, and of the ``checkpoint`` and ``result``
    records only the latest of each is kept.  Recovery ends the log at
    its first damaged record, so a torn last checkpoint falls back to
    the one before it.  A directory of the older format is refused
    (:func:`refuse_legacy_files`).

    Every write goes through bounded retry (:class:`RetryPolicy`);
    when the backend stays broken, the journal flips to *degraded*
    mode -- all further IO is skipped, the full record stream is still
    available in memory (:attr:`records`, the latest checkpoint and
    result), and a warning explains what was lost.  A degraded journal
    never raises into the campaign: a fuzzing run with a dying disk
    finishes and reports, it does not wedge.
    """

    def __init__(self, store_or_path, *, retry: RetryPolicy | None = None,
                 max_segment_bytes: int = 1 << 20) -> None:
        if isinstance(store_or_path, (str, os.PathLike)):
            store_or_path = DirectoryStore(store_or_path)
        refuse_legacy_files(store_or_path)
        self.store = store_or_path
        self.retry = retry or RetryPolicy()
        self.degraded = False
        self.warnings: list[str] = []
        self.records: list[dict] = []
        #: The latest checkpoint and result: each a record found at
        #: open, or the framed bytes written since.
        self._latest: dict[str, dict | bytes] = {}
        self._wal: WriteAheadJournal | None = None
        try:
            wal: list[WriteAheadJournal] = []
            self.retry.run(lambda: wal.append(WriteAheadJournal(
                self.store, max_segment_bytes=max_segment_bytes)))
            self._wal = wal[-1]
        except OSError as exc:
            self._degrade("journal open", exc)
        else:
            for record in self._wal.recovered_records:
                if record.get("type") in ("checkpoint", "result"):
                    self._latest[record["type"]] = record
                else:
                    self.records.append(record)
            self._wal.recovered_records = []  # drop older checkpoints
            self.warnings.extend(self._wal.recovery_warnings)
        #: Checkpoints written to this log, counting from its first.
        self.generation = self._latest.get("checkpoint", {}).get(
            "generation", 0)

    # -- degradation ---------------------------------------------------
    def _degrade(self, what: str, exc: OSError) -> None:
        self.degraded = True
        self.warnings.append(
            f"durability degraded to in-memory-only: {what} still "
            f"failing after {self.retry.attempts} attempt(s) "
            f"({exc.__class__.__name__}: {exc})")

    def _guarded(self, what: str, op: Callable[[], None]) -> bool:
        """Run a store operation under retry; degrade instead of raise."""
        if self.degraded:
            return False
        try:
            self.retry.run(op)
            return True
        except OSError as exc:
            self._degrade(what, exc)
            return False

    # -- write-ahead records -------------------------------------------
    def append(self, record: dict) -> None:
        """Record an event (finding, progress, lifecycle) durably.

        The in-memory mirror is updated first, so even a fully
        degraded journal still knows the complete record stream.
        """
        self.records.append(record)
        self._guarded("journal append", lambda: self._wal.append(record))

    # -- checkpoints and the result ------------------------------------
    def _save_latest(self, record: dict) -> None:
        data = encode_record(record)
        self._latest[record["type"]] = data
        self._guarded(f"{record['type']} append",
                      lambda: self._wal.write(data))

    def _load_latest(self, kind: str, field: str) -> dict | None:
        latest = self._latest.get(kind)
        if isinstance(latest, bytes):
            latest = _decode_line(latest[:-1])
        return None if latest is None else latest.get(field)

    def save_checkpoint(self, state: dict) -> None:
        """Append one ``checkpoint`` record (bumps generation)."""
        self.generation += 1
        self._save_latest({"type": "checkpoint",
                           "generation": self.generation, "state": state})

    def load_checkpoint(self) -> dict | None:
        """The latest checkpoint's state, or ``None``."""
        return self._load_latest("checkpoint", "state")

    def save_result(self, payload: dict) -> None:
        """Append the ``result`` record of a completed run."""
        self._save_latest({"type": "result", "result": payload})

    def load_result(self) -> dict | None:
        """The completed run's result payload, or ``None``."""
        return self._load_latest("result", "result")
