"""Sharded parallel campaign execution: fan one fuzz run across processes.

The paper's §V arithmetic is the motivation: one byte of payload is
already 2^19 combinations and a second byte pushes exhaustive
transmission past 1.5 days at the 1 frame/ms ceiling.  A single
campaign cannot explore that space, but the simulator is deterministic
and every campaign is self-contained, so the workload is
embarrassingly parallel: N shards, each a fresh target built inside a
worker process from a pickleable factory, each drawing from a
deterministic per-shard RNG derived from ``(master_seed, shard_index)``
and owning its own :class:`CampaignLimits` slice.

Workers ship their :class:`FuzzResult` back as JSON -- the same
artefact a single campaign writes to disk -- and the parent merges
them into a :class:`ShardedResult` with shard provenance on every
finding.  Worker faults are handled by the parent: a per-shard
wall-clock timeout kills hung workers, crashed workers (a raised
exception or a dead process) are detected, both are retried a bounded
number of times with a fresh seed derivation, and if the OS refuses to
start processes the runner degrades to fewer workers, down to running
shards inline.

With ``journal_dir`` set the fan-out becomes crash-safe: every shard
journals into ``<journal_dir>/shard-NNNN/`` (write-ahead findings,
periodic checkpoints, final result), a ``master.json`` manifest pins
the run's ``(master_seed, shard_count)`` so a directory cannot be
resumed under a different configuration, and a restarted run skips
shards whose results survived and resumes the rest from their last
checkpoint.  Retries keep the *same* seed and attempt then -- the
replacement worker continues the journalled run instead of starting a
fresh derivation -- so the merged fingerprint matches an uninterrupted
run exactly.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Callable

from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.durability import (CampaignJournal, DirectoryStore,
                                   scan_records)
from repro.fuzz.oracle import Finding
from repro.fuzz.session import (FALLBACK_WARNING_PREFIX
                                as _FALLBACK_WARNING_PREFIX)
from repro.fuzz.session import FuzzResult


def terminate_and_reap(process, *, grace: float = 5.0) -> str | None:
    """Stop a worker process, escalating to SIGKILL when ignored.

    SIGTERM first; a worker that is still alive after ``grace`` seconds
    gets SIGKILL and is reaped.  Returns a description of the
    escalation (for fault logs) or ``None`` when plain terminate was
    enough.  Shared by :class:`ShardedCampaign` and the campaign
    service's orchestrator, so no layer silently leaks a wedged
    process.
    """
    process.terminate()
    process.join(timeout=grace)
    if not process.is_alive():
        return None
    process.kill()
    process.join()
    return (f"worker ignored SIGTERM for {grace:.1f} s; "
            f"escalated to SIGKILL and reaped "
            f"(exit code {process.exitcode})")


@dataclass(frozen=True)
class ResourceGuards:
    """OS-level resource limits applied inside a worker process.

    Crosses the process boundary by pickle and is applied via
    :meth:`apply` as the first thing a worker does.  Each guard turns
    a runaway job into a *visible, bounded* failure instead of a hang
    or a host-wide outage: blowing the CPU budget delivers SIGXCPU
    (the worker dies, the parent records a fault strike), blowing the
    address-space budget turns allocations into ``MemoryError`` (an
    error strike), and the per-job disk quota is enforced separately
    by :class:`repro.fuzz.durability.QuotaStore`.

    ``rlimit`` is POSIX-only; on platforms without the :mod:`resource`
    module ``apply`` is a silent no-op, recorded in the returned note.
    """

    cpu_seconds: int | None = None
    address_space_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.cpu_seconds is not None and self.cpu_seconds < 1:
            raise ValueError("cpu_seconds must be >= 1")
        if (self.address_space_bytes is not None
                and self.address_space_bytes < 1 << 20):
            raise ValueError("address_space_bytes must be >= 1 MiB")

    def apply(self) -> list[str]:
        """Install the limits on the calling process.

        Returns notes describing what was (or could not be) applied.
        Never raises: a guard that cannot be installed must not stop
        the job it was meant to protect.
        """
        notes: list[str] = []
        try:
            import resource
        except ImportError:
            if self.cpu_seconds or self.address_space_bytes:
                notes.append("resource module unavailable; "
                             "rlimit guards skipped")
            return notes
        if self.cpu_seconds is not None:
            try:
                soft, hard = resource.getrlimit(resource.RLIMIT_CPU)
                limit = self.cpu_seconds
                if hard != resource.RLIM_INFINITY:
                    limit = min(limit, hard)
                resource.setrlimit(resource.RLIMIT_CPU, (limit, hard))
                notes.append(f"RLIMIT_CPU={limit}s")
            except (OSError, ValueError) as exc:
                notes.append(f"RLIMIT_CPU not applied: {exc}")
        if self.address_space_bytes is not None:
            try:
                soft, hard = resource.getrlimit(resource.RLIMIT_AS)
                limit = self.address_space_bytes
                if hard != resource.RLIM_INFINITY:
                    limit = min(limit, hard)
                resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
                notes.append(f"RLIMIT_AS={limit}B")
            except (OSError, ValueError) as exc:
                notes.append(f"RLIMIT_AS not applied: {exc}")
        return notes


def derive_shard_seed(master_seed: int, shard_index: int,
                      attempt: int = 0) -> int:
    """Deterministic per-shard seed, the sharding analogue of
    :meth:`repro.sim.random.RandomStreams._derive_seed`.

    Equal ``(master_seed, shard_index)`` pairs always produce the same
    seed, so a shard re-run anywhere reproduces bit-identically.  A
    retry after a worker fault bumps ``attempt``, giving the
    replacement run a fresh -- but still reproducible -- stream.
    """
    label = f"{master_seed}:shard-{shard_index}:attempt-{attempt}"
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def slice_limits(limits: CampaignLimits, shards: int) -> list[CampaignLimits]:
    """Split one campaign budget into per-shard slices.

    ``max_frames`` is divided as evenly as possible (low-index shards
    take the remainder); ``max_duration`` and ``stop_on_finding`` pass
    through unchanged -- shards run concurrently, so a simulated-time
    budget applies to each shard independently.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    if limits.max_frames is None:
        return [limits] * shards
    base, extra = divmod(limits.max_frames, shards)
    if base == 0:
        raise ValueError(
            f"max_frames={limits.max_frames} cannot be split over "
            f"{shards} shards; every shard needs at least one frame")
    return [replace(limits, max_frames=base + (1 if i < extra else 0))
            for i in range(shards)]


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to build and run one shard.

    Crosses the process boundary by pickle, so it holds only plain
    values.  ``seed`` is always ``derive_shard_seed(master_seed,
    index, attempt)``; it is materialised here so a factory never has
    to re-derive it.
    """

    index: int
    shard_count: int
    master_seed: int
    seed: int
    limits: CampaignLimits
    attempt: int = 0


#: A pickleable callable building a ready-to-run campaign for one
#: shard.  It must construct a *fresh* target (simulator, bus, target
#: nodes, adapter, oracles) from ``spec.seed`` alone: workers are
#: separate processes and share nothing.
CampaignFactory = Callable[[ShardSpec], FuzzCampaign]


def _shard_worker(factory: CampaignFactory, spec: ShardSpec, conn,
                  journal_info: tuple | None = None) -> None:
    """Worker entry point: build the shard's target, run, ship JSON.

    With ``journal_info`` -- ``(store_factory, shard_dir,
    checkpoint_every)`` -- the worker opens the shard's durable
    journal first and resumes from whatever state survived the
    previous attempt; durability warnings ride back in the reply.
    """
    try:
        if journal_info is None:
            result = factory(spec).run()
            warnings: list[str] = []
        else:
            store_factory, shard_dir, checkpoint_every = journal_info
            journal = CampaignJournal(
                (store_factory or DirectoryStore)(shard_dir))
            result = FuzzCampaign.resume(
                journal, lambda: factory(spec),
                checkpoint_every=checkpoint_every)
            warnings = list(journal.warnings)
        conn.send(("ok", result.to_json(), warnings))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _batch_worker(factory: CampaignFactory, specs: tuple, conn,
                  journal_infos=None) -> None:
    """Worker entry point for a chunk of shards run as one batch
    (:func:`repro.fuzz.batch.run_shard_batch`).

    Replies ``("batch", [(result_json, warnings), ...])`` aligned with
    ``specs``.  Any failure -- including one ineligible world, which
    the engine itself handles by falling back to scalar execution, so
    in practice only real faults land here -- is reported for the whole
    chunk; the parent retries each shard individually.
    """
    try:
        from repro.fuzz.batch import run_shard_batch
        pairs = run_shard_batch(factory, specs, journal_infos=journal_infos)
        conn.send(("batch", [(result.to_json(), list(warnings))
                             for result, warnings in pairs]))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


@dataclass
class ShardOutcome:
    """One shard's contribution to the merged result."""

    index: int
    seed: int
    attempt: int
    result: FuzzResult
    wall_seconds: float
    #: Fault descriptions from earlier attempts of this shard (empty
    #: when the first attempt succeeded).
    faults: tuple[str, ...] = ()
    #: Durability warnings from the shard's journal (degradation to
    #: in-memory mode, recovered torn tails, ...).  Excluded from the
    #: fingerprint: IO weather must not change a run's identity.
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "attempt": self.attempt,
            "wall_seconds": self.wall_seconds,
            "faults": list(self.faults),
            "warnings": list(self.warnings),
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardOutcome":
        return cls(
            index=payload.get("index", 0),
            seed=payload.get("seed", 0),
            attempt=payload.get("attempt", 0),
            result=FuzzResult.from_dict(payload.get("result", {})),
            wall_seconds=payload.get("wall_seconds", 0.0),
            faults=tuple(payload.get("faults", [])),
            warnings=tuple(payload.get("warnings", [])),
        )


@dataclass
class ShardFailure:
    """A shard that never produced a result within its retry budget."""

    index: int
    faults: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"index": self.index, "faults": list(self.faults)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardFailure":
        return cls(index=payload.get("index", 0),
                   faults=tuple(payload.get("faults", [])))


@dataclass
class ShardedResult:
    """Aggregate of a sharded run: outcomes in shard order, plus the
    shards that permanently failed."""

    master_seed: int
    shard_count: int
    jobs: int
    wall_seconds: float
    outcomes: list[ShardOutcome] = field(default_factory=list)
    failures: list[ShardFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every shard produced a result."""
        return not self.failures and len(self.outcomes) == self.shard_count

    @property
    def frames_sent(self) -> int:
        return sum(o.result.frames_sent for o in self.outcomes)

    @property
    def findings(self) -> list[tuple[int, Finding]]:
        """``(shard_index, finding)`` pairs in shard order -- the
        provenance needed to replay a finding from the right seed."""
        return [(o.index, finding)
                for o in self.outcomes
                for finding in o.result.findings]

    @property
    def findings_with_seeds(self) -> list[tuple[int, int, Finding]]:
        """``(shard_index, shard_seed, finding)`` triples in shard order.

        The seed is the one the shard's bench was actually built from
        (attempt bumps included), which is what a replayer's target
        factory needs to reconstruct the right world for minimisation.
        """
        return [(o.index, o.seed, finding)
                for o in self.outcomes
                for finding in o.result.findings]

    @property
    def write_errors(self) -> dict[str, int]:
        """Per-status rollup of adapter write errors across shards."""
        merged: dict[str, int] = {}
        for outcome in self.outcomes:
            for status, count in outcome.result.write_errors.items():
                merged[status] = merged.get(status, 0) + count
        return merged

    @property
    def fault_count(self) -> int:
        return (sum(len(o.faults) for o in self.outcomes)
                + sum(len(f.faults) for f in self.failures))

    @property
    def shard_retries(self) -> dict[int, int]:
        """Shard index -> faulted attempts before it settled.

        Every recorded fault cost one attempt, so the count is exact
        without parsing ``fault_log`` strings.  Shards that succeeded
        first try (and ran no retries) are omitted; permanently failed
        shards report their full fault count.
        """
        counts = {o.index: len(o.faults) for o in self.outcomes
                  if o.faults}
        counts.update({f.index: len(f.faults) for f in self.failures})
        return counts

    @property
    def shard_attempts(self) -> dict[int, int]:
        """Shard index -> the attempt number its result came from.

        Journalled retries resume under attempt 0 (same seed); only the
        non-journalled fresh-seed path bumps this.
        """
        return {o.index: o.attempt for o in self.outcomes}

    @property
    def total_retries(self) -> int:
        """Faulted attempts across every shard, failures included."""
        return sum(self.shard_retries.values())

    def retry_report(self) -> dict:
        """JSON-ready retry/attempt accounting for ``--report``."""
        return {
            "total_retries": self.total_retries,
            "shard_retries": {str(index): count for index, count
                              in sorted(self.shard_retries.items())},
            "shard_attempts": {str(index): attempt for index, attempt
                               in sorted(self.shard_attempts.items())},
        }

    @property
    def warning_count(self) -> int:
        """Durability warnings across all shards."""
        return sum(len(o.warnings) for o in self.outcomes)

    @property
    def fallback_reasons(self) -> dict[int, str]:
        """Shard index -> why the batch engine ran it on the scalar
        kernel, parsed from the ``"scalar fallback: ..."`` warnings
        :func:`repro.fuzz.batch.run_shard_batch` attaches.  Empty for
        unbatched runs and for batches every world was admitted to."""
        prefix = _FALLBACK_WARNING_PREFIX
        return {outcome.index: warning[len(prefix):]
                for outcome in self.outcomes
                for warning in outcome.warnings
                if warning.startswith(prefix)}

    def fingerprint(self) -> str:
        """Deterministic digest of the merged payload.

        Excludes wall-clock fields, so two runs of the same shards --
        serial or parallel, any job count -- fingerprint identically.
        The digest is the sha256 of ``json.dumps(payload,
        sort_keys=True)`` over ``[(index, seed, attempt, result dict),
        ...]``, fed one outcome at a time so the whole document never
        sits in memory at once.
        """
        digest = hashlib.sha256(b"[")
        for position, o in enumerate(self.outcomes):
            if position:
                digest.update(b", ")
            digest.update(json.dumps(
                (o.index, o.seed, o.attempt, o.result.to_dict()),
                sort_keys=True).encode("utf-8"))
        digest.update(b"]")
        return digest.hexdigest()

    def summary(self) -> str:
        """One-paragraph human-readable outcome of the whole fan-out."""
        lines = [
            f"sharded run: {len(self.outcomes)}/{self.shard_count} shards "
            f"ok ({self.jobs} job(s)), {self.frames_sent} frames in "
            f"{self.wall_seconds:.1f} s wall, "
            f"{len(self.findings)} finding(s), "
            f"{self.fault_count} worker fault(s)",
        ]
        fallbacks = self.fallback_reasons
        if fallbacks:
            lines.append(f"  {len(fallbacks)} scalar-fallback shard(s) "
                         f"(ran outside the batch engine):")
            for index, reason in sorted(fallbacks.items()):
                lines.append(f"    [shard {index}] {reason}")
        durability = self.warning_count - len(fallbacks)
        if durability:
            lines.append(f"  {durability} durability warning(s):")
            for outcome in self.outcomes:
                for warning in outcome.warnings:
                    if not warning.startswith(_FALLBACK_WARNING_PREFIX):
                        lines.append(
                            f"    [shard {outcome.index}] {warning}")
        for index, finding in self.findings[:10]:
            lines.append(f"  [shard {index}] {finding.oracle}: "
                         f"{finding.description}")
        if len(self.findings) > 10:
            lines.append(f"  ... and {len(self.findings) - 10} more")
        for failure in self.failures:
            lines.append(f"  [shard {failure.index}] FAILED: "
                         f"{failure.faults[-1].splitlines()[-1]}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "master_seed": self.master_seed,
            "shard_count": self.shard_count,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "failures": [f.to_dict() for f in self.failures],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ShardedResult":
        payload = json.loads(text)
        return cls(
            master_seed=payload.get("master_seed", 0),
            shard_count=payload.get("shard_count", 0),
            jobs=payload.get("jobs", 0),
            wall_seconds=payload.get("wall_seconds", 0.0),
            outcomes=[ShardOutcome.from_dict(item)
                      for item in payload.get("outcomes", [])],
            failures=[ShardFailure.from_dict(item)
                      for item in payload.get("failures", [])],
        )


@dataclass
class _Worker:
    """Parent-side handle for one in-flight worker (one shard attempt,
    or a batched chunk of them)."""

    specs: tuple[ShardSpec, ...]
    process: multiprocessing.process.BaseProcess
    conn: object
    started: float
    deadline: float


class ShardedCampaign:
    """Fan one campaign budget across worker processes and merge.

    Args:
        factory: pickleable :data:`CampaignFactory` building a fresh
            target per shard.
        shards: number of independent shards.
        limits: the *total* budget; sliced with :func:`slice_limits`.
        master_seed: root of every per-shard seed derivation.
        jobs: maximum concurrent workers (default: ``min(shards,
            cpu_count)``).  ``jobs=1`` still uses a worker process --
            use :meth:`run_serial` for the in-process baseline.
        shard_timeout: wall-clock seconds a worker may run before it
            is declared hung, killed and retried.
        max_retries: extra attempts per shard after a fault; each
            retry derives a fresh seed from the bumped attempt number
            (journalled runs keep the same seed and resume instead).
        mp_context: multiprocessing start-method context (default: the
            platform default, ``fork`` on Linux).
        journal_dir: root directory for durable per-shard journals;
            enables kill-resume (completed shards are skipped on
            re-run, interrupted shards continue from checkpoint).
        checkpoint_every: frames between durable checkpoints per shard.
        store_factory: pickleable ``path -> store`` callable workers
            use to open their journal backend (default
            :class:`DirectoryStore`; chaos tests inject a
            :class:`FaultyStore` builder here).
        batch_size: shards per worker process.  ``1`` (the default)
            runs each shard through the scalar simulator as before;
            larger values hand chunks of shards to the batch engines
            (:mod:`repro.fuzz.batch`), which produce
            bit-identical results at a fraction of the interpreter
            cost.  A batched worker's hang deadline scales with its
            chunk size, and a faulted chunk is retried per shard.
    """

    def __init__(self, factory: CampaignFactory, *, shards: int,
                 limits: CampaignLimits, master_seed: int = 0,
                 jobs: int | None = None, shard_timeout: float = 600.0,
                 max_retries: int = 1, mp_context=None,
                 journal_dir: str | os.PathLike | None = None,
                 checkpoint_every: int = 5000,
                 store_factory: Callable[[str], object] | None = None,
                 batch_size: int = 1,
                 terminate_grace: float = 5.0) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        if jobs is not None and jobs <= 0:
            raise ValueError("jobs must be positive")
        if shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if terminate_grace < 0:
            raise ValueError("terminate_grace must be >= 0")
        self.batch_size = batch_size
        self.terminate_grace = terminate_grace
        self.factory = factory
        self.shards = shards
        self.master_seed = master_seed
        self.jobs = jobs or min(shards, os.cpu_count() or 1)
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self._mp_context = mp_context
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.checkpoint_every = checkpoint_every
        self.store_factory = store_factory
        self._specs = [
            ShardSpec(index=i, shard_count=shards, master_seed=master_seed,
                      seed=derive_shard_seed(master_seed, i),
                      limits=shard_limits)
            for i, shard_limits in enumerate(slice_limits(limits, shards))
        ]
        self.manifest_warnings: list[str] = []
        if self.journal_dir is not None:
            self._check_manifest()

    # ------------------------------------------------------------------
    # Durable journal plumbing
    # ------------------------------------------------------------------
    def _check_manifest(self) -> None:
        """Pin the journal directory to this run's identity.

        A journal directory written by seed A must not be silently
        continued by a run configured with seed B -- the skipped
        results would merge into a chimera no seed reproduces.  An
        identity *mismatch* is a hard error; a merely unreadable or
        unwritable manifest degrades with a warning, like every other
        durability failure.
        """
        manifest = {"format": 1, "master_seed": self.master_seed,
                    "shard_count": self.shards}
        data = json.dumps(manifest, indent=2).encode("utf-8")
        try:
            store = (self.store_factory or DirectoryStore)(
                str(self.journal_dir))
            if store.exists("master.json"):
                try:
                    existing = json.loads(store.read("master.json"))
                except ValueError:
                    self.manifest_warnings.append(
                        "master.json corrupt; rewriting it")
                    store.replace("master.json", data)
                    return
                found = {key: existing.get(key) for key in
                         ("master_seed", "shard_count")}
                expected = {key: manifest[key] for key in
                            ("master_seed", "shard_count")}
                if found != expected:
                    raise ValueError(
                        f"journal dir {self.journal_dir} belongs to a run "
                        f"with {found}, refusing to resume it as "
                        f"{expected}")
            else:
                store.replace("master.json", data)
        except OSError as exc:
            self.manifest_warnings.append(
                f"journal manifest unavailable ({exc}); continuing "
                f"without run-identity pinning")

    def _shard_dir(self, index: int) -> str:
        return str(self.journal_dir / f"shard-{index:04d}")

    def _shard_store(self, index: int):
        return (self.store_factory or DirectoryStore)(self._shard_dir(index))

    def _journal_info(self, spec: ShardSpec) -> tuple | None:
        if self.journal_dir is None:
            return None
        return (self.store_factory, self._shard_dir(spec.index),
                self.checkpoint_every)

    def _load_completed(self, spec: ShardSpec) -> ShardOutcome | None:
        """A shard's surviving result from a previous run, if any."""
        if self.journal_dir is None:
            return None
        store = self._shard_store(spec.index)
        try:
            data = store.read(CampaignJournal.RESULT)
        except OSError:
            return None
        try:
            payload = json.loads(data)
        except ValueError:
            return None
        if not isinstance(payload, dict):
            return None
        return ShardOutcome(
            index=spec.index, seed=spec.seed, attempt=spec.attempt,
            result=FuzzResult.from_dict(payload), wall_seconds=0.0,
            warnings=("result loaded from journal (shard completed in "
                      "a previous run)",))

    def _journal_progress_note(self, spec: ShardSpec) -> str:
        """What the dead worker durably got done, for its fault log."""
        if self.journal_dir is None:
            return ""
        try:
            records, _ = scan_records(self._shard_store(spec.index))
        except OSError:
            return ""
        for record in reversed(records):
            if "frames_sent" in record:
                return (f", last journaled frames_sent="
                        f"{record['frames_sent']}")
        return ", no journaled progress"

    # ------------------------------------------------------------------
    # Serial baseline
    # ------------------------------------------------------------------
    def run_serial(self) -> ShardedResult:
        """Run every shard inline, in shard order, in this process.

        The benchmark baseline, and the reference the parallel path
        must match bit for bit (:meth:`ShardedResult.fingerprint`).
        """
        started = time.perf_counter()
        outcomes = [self._load_completed(spec) or self._run_inline(spec)
                    for spec in self._specs]
        return ShardedResult(
            master_seed=self.master_seed, shard_count=self.shards,
            jobs=1, wall_seconds=time.perf_counter() - started,
            outcomes=outcomes)

    def _run_inline(self, spec: ShardSpec,
                    faults: tuple[str, ...] = ()) -> ShardOutcome:
        started = time.perf_counter()
        if self.journal_dir is None:
            result = self.factory(spec).run()
            warnings: tuple[str, ...] = ()
        else:
            journal = CampaignJournal(self._shard_store(spec.index))
            result = FuzzCampaign.resume(
                journal, lambda: self.factory(spec),
                checkpoint_every=self.checkpoint_every)
            warnings = tuple(journal.warnings)
        return ShardOutcome(
            index=spec.index, seed=spec.seed, attempt=spec.attempt,
            result=result, wall_seconds=time.perf_counter() - started,
            faults=faults, warnings=warnings)

    # ------------------------------------------------------------------
    # Parallel execution
    # ------------------------------------------------------------------
    def run(self) -> ShardedResult:
        """Execute all shards across worker processes and merge."""
        ctx = self._mp_context or multiprocessing.get_context()
        started = time.perf_counter()
        workers: list[_Worker] = []
        outcomes: dict[int, ShardOutcome] = {}
        failures: dict[int, ShardFailure] = {}
        fault_log: dict[int, list[str]] = {
            spec.index: [] for spec in self._specs}
        retries: dict[int, int] = {}
        for spec in self._specs:
            loaded = self._load_completed(spec)
            if loaded is not None:
                outcomes[spec.index] = loaded
        pending: deque[ShardSpec] = deque(
            spec for spec in self._specs if spec.index not in outcomes)
        jobs = self.jobs
        while pending or workers:
            # Launch up to the (possibly degraded) concurrency cap.
            while pending and len(workers) < jobs:
                count = min(self.batch_size, len(pending))
                chunk = tuple(pending.popleft() for _ in range(count))
                worker = self._spawn(ctx, chunk)
                if worker is not None:
                    workers.append(worker)
                    continue
                if workers:
                    # The OS refused a process while others run: put
                    # the chunk back and degrade to the level that works.
                    pending.extendleft(reversed(chunk))
                    jobs = len(workers)
                else:
                    # Cannot run even one worker: execute inline.
                    for spec in chunk:
                        outcomes[spec.index] = self._run_inline(
                            spec, faults=tuple(fault_log[spec.index]))
                break
            if not workers:
                continue
            now = time.monotonic()
            timeout = max(0.0, min(w.deadline for w in workers) - now)
            ready = set(_connection_wait([w.conn for w in workers],
                                         timeout=timeout))
            now = time.monotonic()
            still_running: list[_Worker] = []
            for worker in workers:
                if worker.conn in ready:
                    self._reap(worker, outcomes, fault_log, pending,
                               failures, retries)
                elif now >= worker.deadline:
                    escalation = self._kill(worker)
                    budget = self.shard_timeout * len(worker.specs)
                    for spec in worker.specs:
                        self._record_fault(
                            spec,
                            f"worker hung: no result within "
                            f"{budget:.0f} s, killed "
                            f"(exit code {worker.process.exitcode}, "
                            f"{now - worker.started:.1f} s wall"
                            f"{self._journal_progress_note(spec)})"
                            + (f"; {escalation}" if escalation else ""),
                            fault_log, pending, failures, retries)
                else:
                    still_running.append(worker)
            workers = still_running
        return ShardedResult(
            master_seed=self.master_seed, shard_count=self.shards,
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - started,
            outcomes=[outcomes[i] for i in sorted(outcomes)],
            failures=[failures[i] for i in sorted(failures)])

    # -- worker lifecycle ----------------------------------------------
    def _spawn(self, ctx, chunk: tuple[ShardSpec, ...]) -> _Worker | None:
        """Start one worker; None when the OS refuses resources.

        A single-spec chunk runs the scalar worker; a larger chunk runs
        the batched worker.  The hang deadline scales with the
        chunk size -- ``shard_timeout`` stays a per-shard budget.
        """
        try:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
        except OSError:
            return None
        if len(chunk) == 1:
            target = _shard_worker
            args = (self.factory, chunk[0], child_conn,
                    self._journal_info(chunk[0]))
            name = f"fuzz-shard-{chunk[0].index}"
        else:
            target = _batch_worker
            args = (self.factory, chunk, child_conn,
                    [self._journal_info(spec) for spec in chunk])
            name = f"fuzz-batch-{chunk[0].index}-{chunk[-1].index}"
        try:
            process = ctx.Process(target=target, args=args, name=name,
                                  daemon=True)
            process.start()
        except OSError:
            parent_conn.close()
            child_conn.close()
            return None
        child_conn.close()
        now = time.monotonic()
        return _Worker(specs=chunk, process=process, conn=parent_conn,
                       started=now,
                       deadline=now + self.shard_timeout * len(chunk))

    def _reap(self, worker: _Worker, outcomes: dict, fault_log: dict,
              pending: deque, failures: dict, retries: dict) -> None:
        """Collect a readable worker: results, an error, or a corpse."""
        warnings: tuple[str, ...] = ()
        try:
            message = worker.conn.recv()
            kind, payload = message[0], message[1]
            if len(message) > 2:
                warnings = tuple(message[2])
        except (EOFError, OSError):
            worker.process.join()
            kind = "error"
            # The corpse tells us nothing, but its journal does: record
            # how far each shard durably got before dying, so summary()
            # shows what the crash cost instead of silently dropping it.
            payload = (f"worker crashed without reporting "
                       f"(exit code {worker.process.exitcode}, "
                       f"{time.monotonic() - worker.started:.1f} s wall)")
        worker.conn.close()
        worker.process.join()
        wall = time.monotonic() - worker.started
        if kind == "ok":
            spec = worker.specs[0]
            outcomes[spec.index] = ShardOutcome(
                index=spec.index, seed=spec.seed, attempt=spec.attempt,
                result=FuzzResult.from_json(payload),
                wall_seconds=wall,
                faults=tuple(fault_log[spec.index]), warnings=warnings)
        elif kind == "batch":
            for spec, (result_json, shard_warnings) in zip(worker.specs,
                                                           payload):
                outcomes[spec.index] = ShardOutcome(
                    index=spec.index, seed=spec.seed, attempt=spec.attempt,
                    result=FuzzResult.from_json(result_json),
                    wall_seconds=wall,
                    faults=tuple(fault_log[spec.index]),
                    warnings=tuple(shard_warnings))
        else:
            for spec in worker.specs:
                self._record_fault(
                    spec, payload + self._journal_progress_note(spec),
                    fault_log, pending, failures, retries)

    def _kill(self, worker: _Worker) -> str | None:
        """Stop one worker; returns the escalation note when SIGTERM
        was not enough (recorded in the shard fault log -- a wedged
        process must never be leaked silently)."""
        note = terminate_and_reap(worker.process,
                                  grace=self.terminate_grace)
        worker.conn.close()
        return note

    def _record_fault(self, spec: ShardSpec, description: str,
                      fault_log: dict, pending: deque,
                      failures: dict, retries: dict) -> None:
        fault_log[spec.index].append(
            f"attempt {spec.attempt}: {description}")
        used = retries.get(spec.index, 0)
        if used < self.max_retries:
            retries[spec.index] = used + 1
            if self.journal_dir is not None:
                # The journal survived the worker: requeue the same
                # spec so the replacement resumes from checkpoint with
                # the same seed -- the fingerprint must match an
                # uninterrupted run.
                pending.append(spec)
            else:
                attempt = spec.attempt + 1
                pending.append(replace(
                    spec, attempt=attempt,
                    seed=derive_shard_seed(spec.master_seed, spec.index,
                                           attempt)))
        else:
            failures[spec.index] = ShardFailure(
                index=spec.index, faults=tuple(fault_log[spec.index]))
