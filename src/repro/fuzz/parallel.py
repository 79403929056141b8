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

The process mechanics live in :class:`WorkerPool`, which the campaign
service's orchestrator shares; :class:`ShardedCampaign` keeps only its
policy (chunk deadlines, retries, failures).

With ``journal_dir`` set the fan-out becomes crash-safe: every shard
journals into ``<journal_dir>/shard-NNNN/`` (write-ahead findings,
periodic checkpoints, final result), a ``master.json`` manifest pins
the run's master seed, shard count, total limits and factory so a
directory cannot be resumed under a different configuration, and a
restarted run skips shards whose results survived and resumes the
rest from their last checkpoint.  Retries keep the *same* seed and
attempt then -- the replacement worker continues the journalled run
instead of starting a fresh derivation -- so the merged fingerprint
matches an uninterrupted run exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Any, Callable, Sequence

# At module level, not in the worker body: a parent that forks workers
# (a sharded run, the service orchestrator) then already holds the fast
# path, and no worker imports it again per job.
from repro.fuzz.batch import run_shard_batch
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.durability import (DirectoryStore, read_result,
                                   refuse_legacy_files, scan_records)
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
    :meth:`apply` as the first thing each job does in its worker.  The
    CPU guard is a budget per job: a reused worker's limit adds the
    whole seconds of CPU it has already used.  Each guard turns
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
                # RLIMIT_CPU counts the whole process: a reused worker
                # gets the budget on top of its whole seconds so far.
                usage = resource.getrusage(resource.RUSAGE_SELF)
                limit = self.cpu_seconds + int(usage.ru_utime
                                               + usage.ru_stime)
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


# ----------------------------------------------------------------------
# Worker processes, shared with the service orchestrator
# ----------------------------------------------------------------------

def send(conn, message) -> None:
    """Best-effort send to the supervising process; does nothing when
    ``conn`` is ``None`` (an inline run).

    A dead parent (a SIGKILLed supervisor) leaves a busy worker running:
    it finishes its job as a benign orphan -- everything it does is
    journalled and deterministic, so a restarted supervisor either
    finds its saved result or re-executes to the identical fingerprint
    -- and then exits (:func:`worker_main`).  Its reply, however large,
    fails with a broken pipe instead of blocking: no process holds the
    supervisor's end any more.
    """
    if conn is not None:
        with contextlib.suppress(OSError):
            conn.send(message)


def call_body(body: Callable[..., tuple], conn, *args) -> tuple:
    """Run a worker body; its reply is ``("ok", *returned)``, or
    ``("error", traceback)`` when it raised.

    A body is a module-level function (it must pickle) taking ``conn``,
    the pipe for progress messages -- ``None`` when a supervisor runs
    it inline -- then its own arguments.  Interrupts and exits
    propagate: in a worker they end the process, seen as a crash.
    """
    try:
        return ("ok", *body(conn, *args))
    except Exception:
        return ("error", traceback.format_exc())


#: Seconds an idle worker waits for a task between two checks that its
#: supervisor is still alive.
ORPHAN_CHECK_S = 1.0


def worker_main(conn, body: Callable[..., tuple], *args,
                inherited: Sequence = ()) -> None:
    """Worker process entry point: run ``body``, send its reply and,
    after an ``ok`` reply, wait for the next ``(body, args)`` task.

    Any other reply, a stop message (``None``), a broken pipe or EOF,
    or a parent pid other than the supervisor's -- the supervisor died
    -- ends the process.  The supervisor's pid is the one recorded when
    it created this process, so a supervisor that died before this
    function ran still counts.  ``inherited`` holds the supervisor-side
    pipe ends a forked worker got copies of -- its own pipe's and every
    other live worker's -- and they are closed first: with a copy open
    here, a dead supervisor's pipes would not break, and a reply larger
    than the pipe's buffer would block for good.  SIGTERM gets its
    default action back, and the signal wakeup fd is dropped: a worker
    forked from an asyncio supervisor would otherwise ignore SIGTERM
    and hand it to the supervisor's event loop.
    """
    for end in inherited:
        end.close()
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = multiprocessing.parent_process().pid
    try:
        while True:
            reply = call_body(body, conn, *args)
            send(conn, reply)
            task = _next_task(conn, parent) if reply[0] == "ok" else None
            if task is None:
                return
            body, args = task
    finally:
        conn.close()


def _next_task(conn, parent: int):
    """The supervisor's next ``(body, args)``, or ``None`` when the
    worker should exit."""
    try:
        while not conn.poll(ORPHAN_CHECK_S):
            if os.getppid() != parent:
                return None
        return conn.recv()
    except (EOFError, OSError):
        return None


@dataclass(eq=False)
class PoolWorker:
    """One task running on a live worker process of a
    :class:`WorkerPool`."""

    key: Any  # the supervisor's name for the work running here
    process: multiprocessing.process.BaseProcess
    conn: Any
    started: float  # pool clock reading when the task was handed over
    #: The last message read was an ``ok`` reply: the process now
    #: waits for its next task.
    reusable: bool = False


class WorkerPool:
    """Spawn, reuse, read, reap and kill worker processes.

    The process layer of :class:`ShardedCampaign` and the service's
    :class:`~repro.service.orchestrator.Orchestrator`, which keep only
    their policy.  A worker whose last message was an ``ok`` reply
    outlives its task: :meth:`release` keeps it idle and :meth:`start`
    hands it the next task, forking only when no idle worker is alive.
    Every other outcome retires the worker.  Every wait on a process is
    bounded: a worker that outlives its purpose is SIGKILLed after
    ``terminate_grace``.  :meth:`close` retires them all.

    Args:
        slots: concurrency cap; :meth:`shed` lowers it when the OS
            refuses a process.
        mp_context: multiprocessing start-method context (default: the
            platform default, ``fork`` on Linux).
        terminate_grace: seconds a worker gets to exit -- after its
            stop message, or after SIGTERM -- before SIGKILL.
        clock: monotonic time source for :attr:`PoolWorker.started`.
    """

    def __init__(self, slots: int, *, mp_context=None,
                 terminate_grace: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.slots = slots
        self.terminate_grace = terminate_grace
        self.clock = clock
        self._ctx = mp_context or multiprocessing.get_context()
        #: key -> worker running that task.
        self.workers: dict[Any, PoolWorker] = {}
        #: Live workers waiting for a task.
        self.idle: list[PoolWorker] = []
        #: Processes forked so far.
        self.spawned = 0

    @property
    def free(self) -> bool:
        """True when another task fits under the slot cap."""
        return len(self.workers) < self.slots

    def start(self, key, body: Callable[..., tuple], *args) -> bool:
        """Run ``body(conn, *args)`` under ``key`` on an idle worker, or
        else in a new worker process; False when the OS refuses the
        pipe or the process.

        A task reaches an idle worker pickled.  One that does not pickle
        retires the idle worker and reaches a new one through the fork,
        as every first task does.
        """
        while self.idle:
            worker = self.idle.pop()
            try:
                if worker.process.is_alive():
                    worker.conn.send((body, args))
                    self.workers[key] = PoolWorker(
                        key=key, process=worker.process, conn=worker.conn,
                        started=self.clock())
                    return True
            except OSError:
                pass  # it died while idle
            except (pickle.PicklingError, TypeError, AttributeError):
                self._retire(worker)
                break
            self._retire(worker)
        try:
            parent_conn, child_conn = self._ctx.Pipe()
        except OSError:
            return False
        inherited = [parent_conn, *(worker.conn for worker in
                                    (*self.workers.values(), *self.idle))]
        try:
            process = self._ctx.Process(
                target=worker_main, args=(child_conn, body, *args),
                kwargs={"inherited": inherited}, daemon=True)
            process.start()
        except OSError:
            parent_conn.close()
            child_conn.close()
            return False
        child_conn.close()
        self.spawned += 1
        self.workers[key] = PoolWorker(key=key, process=process,
                                       conn=parent_conn,
                                       started=self.clock())
        return True

    def wait(self, timeout: float | None) -> list[PoolWorker]:
        """Block up to ``timeout`` seconds until some busy worker has a
        message (or a closed pipe) to read; returns those workers."""
        ready = set(_connection_wait(
            [worker.conn for worker in self.workers.values()],
            timeout=timeout))
        return [worker for worker in self.workers.values()
                if worker.conn in ready]

    def receive(self, worker: PoolWorker):
        """The worker's next message, or ``None`` when none is waiting.

        A pipe that ends without a message means the process died: the
        worker is released and ``("crashed", note)`` returned, the note
        naming the exit code.
        """
        if not worker.conn.poll():
            return None
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self.release(worker)
            return ("crashed",
                    f"worker crashed without reporting (exit code "
                    f"{worker.process.exitcode}, "
                    f"{self.clock() - worker.started:.1f} s after "
                    f"launch)")
        worker.reusable = message[0] == "ok"
        return message

    def release(self, worker: PoolWorker) -> None:
        """Forget a task that is done.  Its worker stays idle when its
        last message was an ``ok`` reply, and is retired otherwise.
        Releasing a released task does nothing."""
        if self.workers.get(worker.key) is not worker:
            return
        del self.workers[worker.key]
        if worker.reusable:
            self.idle.append(worker)
        else:
            self._retire(worker)

    def stop(self, worker: PoolWorker) -> str | None:
        """Kill a worker and release it.  Returns the escalation note
        when SIGTERM was not enough (see :func:`terminate_and_reap`)."""
        note = terminate_and_reap(worker.process,
                                  grace=self.terminate_grace)
        worker.reusable = False
        self.release(worker)
        return note

    def close(self) -> None:
        """Stop every busy worker (:meth:`stop`) and retire every idle
        one; the pool forks afresh if used again."""
        for worker in list(self.workers.values()):
            self.stop(worker)
        idle, self.idle = self.idle, []
        self._retire(*idle)

    def _retire(self, *workers: PoolWorker) -> None:
        """Send each worker the stop message, then close its pipe and
        reap it, SIGKILLing any still alive after ``terminate_grace``."""
        for worker in workers:
            send(worker.conn, None)
        for worker in workers:
            with contextlib.suppress(OSError):
                worker.conn.close()
            worker.process.join(timeout=self.terminate_grace)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()

    def shed(self) -> bool:
        """Apply the spawn-refusal rule after :meth:`start` failed.

        The cap drops to the number of workers still running (at least
        one).  Returns True when none are running: waiting would free
        nothing, so the caller must run the work inline.
        """
        self.slots = max(1, len(self.workers))
        return not self.workers

    def pids(self) -> dict:
        """key -> OS pid of each busy worker."""
        return {key: worker.process.pid
                for key, worker in self.workers.items()}


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

#: The ``master.json`` fields that pin a journal directory to its run.
_RUN_IDENTITY = ("master_seed", "shard_count", "limits", "factory")


def _factory_identity(factory: CampaignFactory) -> str:
    """A factory's configuration, as ``master.json`` pins it.

    A dataclass factory's ``repr`` is its configuration.  Any other
    factory is pinned by its qualified name only: an object's ``repr``
    carries its address, which changes from run to run.
    """
    if is_dataclass(factory):
        return repr(factory)
    named = factory if hasattr(factory, "__qualname__") else type(factory)
    return f"{named.__module__}.{named.__qualname__}"


def _run_shards(conn, factory: CampaignFactory,
                specs: tuple[ShardSpec, ...], journal_infos: list) -> tuple:
    """Worker body for one chunk of shards; returns
    ``([(result_json, warnings), ...],)`` aligned with ``specs``.

    The shards run one after another
    (:func:`repro.fuzz.batch.run_shard_batch`), each on the fast path
    when its prover admits it.  A shard with a journal info --
    ``(store_factory, shard_dir, checkpoint_every)`` -- resumes from
    whatever its journal kept of the previous attempt.
    """
    pairs = run_shard_batch(factory, specs, journal_infos=journal_infos)
    return ([(result.to_json(), warnings) for result, warnings in pairs],)


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
    def from_reply(cls, spec: ShardSpec, reply: tuple, wall: float,
                   faults: Sequence[str] = ()) -> "ShardOutcome":
        """A shard's outcome from its worker reply, ``(result_json,
        warnings)``."""
        result_json, warnings = reply
        return cls(index=spec.index, seed=spec.seed, attempt=spec.attempt,
                   result=FuzzResult.from_json(result_json),
                   wall_seconds=wall, faults=tuple(faults),
                   warnings=tuple(warnings))

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
        """Shard index -> why its prover sent it to the reference
        kernel, parsed from the ``"scalar fallback: ..."`` warnings
        :func:`repro.fuzz.batch.run_shard_batch` attaches.  Empty when
        every shard was admitted to the fast path or pins no bench."""
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
                         f"(ran on the reference kernel):")
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
            use :meth:`run_serial` for the in-process reference.
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
        batch_size: shards per worker process -- IPC chunking only.
            Every shard runs the same way whatever the chunk size
            (its own campaign's ``run``, on the fast path when the
            prover admits it); a larger chunk amortises one worker's
            spawn and reply over more shards.  A chunk's hang deadline
            scales with its size.  A fault is charged to every shard
            in the chunk (the parent cannot tell which one caused it),
            and each shard that faulted retries alone.
        terminate_grace: seconds a worker gets to exit -- after its
            stop message, or after SIGTERM -- before SIGKILL.
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
            self._check_manifest(limits)

    # ------------------------------------------------------------------
    # Durable journal plumbing
    # ------------------------------------------------------------------
    def _check_manifest(self, limits: CampaignLimits) -> None:
        """Pin the journal directory to this run's identity.

        A journal directory written by one configuration (seed, shard
        count, total limits, factory) must not be silently continued
        by a run configured differently -- the skipped results would
        merge into a chimera no configuration reproduces.  An identity
        *mismatch* is a hard error; a merely unreadable or unwritable
        manifest degrades with a warning, like every other durability
        failure, and so does a manifest that predates the pinning of
        some identity field (it is rewritten to pin them).  A shard
        directory in the older checkpoint-file format is refused too.
        """
        for index in range(self.shards):
            if os.path.isdir(self._shard_dir(index)):
                refuse_legacy_files(self._shard_store(index))
        manifest = {"format": 1, "master_seed": self.master_seed,
                    "shard_count": self.shards,
                    "limits": asdict(limits),
                    "factory": _factory_identity(self.factory)}
        data = json.dumps(manifest, indent=2).encode("utf-8")
        try:
            store = (self.store_factory or DirectoryStore)(
                str(self.journal_dir))
            if store.exists("master.json"):
                try:
                    existing = json.loads(store.read("master.json"))
                except ValueError:
                    existing = None
                if not isinstance(existing, dict):
                    self.manifest_warnings.append(
                        "master.json corrupt; rewriting it")
                    store.replace("master.json", data)
                    return
                found = {key: existing[key] for key in _RUN_IDENTITY
                         if key in existing and existing[key] != manifest[key]}
                if found:
                    expected = {key: manifest[key] for key in found}
                    raise ValueError(
                        f"journal dir {self.journal_dir} belongs to a run "
                        f"with {found}, refusing to resume it as "
                        f"{expected}")
                unpinned = [key for key in _RUN_IDENTITY
                            if key not in existing]
                if unpinned:
                    self.manifest_warnings.append(
                        f"master.json does not pin {', '.join(unpinned)}; "
                        f"resuming unchecked against them and pinning "
                        f"this run's")
                    store.replace("master.json", data)
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
        try:
            payload, _ = read_result(self._shard_store(spec.index))
        except OSError:
            return None
        if payload is None:
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
            records, _ = scan_records(self._shard_store(spec.index),
                                      ("checkpoint",))
        except OSError:
            return ""
        if not records:
            return ", no journaled progress"
        state = records[-1]["state"]
        sent = "requests_sent" if "requests_sent" in state else "frames_sent"
        return f", last journaled {sent}={state[sent]}"

    # ------------------------------------------------------------------
    # Serial reference
    # ------------------------------------------------------------------
    def run_serial(self) -> ShardedResult:
        """Run every shard inline, in shard order, in this process.

        The in-process reference the worker-pool path must match bit
        for bit (:meth:`ShardedResult.fingerprint`).  Each shard runs
        through the same body a worker runs, fast path included, so
        this checks the process layer; the kernel reference is each
        campaign's ``_execute``.
        """
        started = time.perf_counter()
        outcomes = []
        for spec in self._specs:
            outcome = self._load_completed(spec)
            if outcome is None:
                shard_started = time.perf_counter()
                (replies,) = _run_shards(None, self.factory, (spec,),
                                         [self._journal_info(spec)])
                outcome = ShardOutcome.from_reply(
                    spec, replies[0], time.perf_counter() - shard_started)
            outcomes.append(outcome)
        return ShardedResult(
            master_seed=self.master_seed, shard_count=self.shards,
            jobs=1, wall_seconds=time.perf_counter() - started,
            outcomes=outcomes)

    # ------------------------------------------------------------------
    # Parallel execution
    # ------------------------------------------------------------------
    def run(self) -> ShardedResult:
        """Execute all shards across worker processes and merge."""
        pool = WorkerPool(self.jobs, mp_context=self._mp_context,
                          terminate_grace=self.terminate_grace)
        try:
            return self._run(pool)
        finally:
            pool.close()

    def _run(self, pool: WorkerPool) -> ShardedResult:
        started = time.perf_counter()
        outcomes: dict[int, ShardOutcome] = {}
        failures: dict[int, ShardFailure] = {}
        fault_log: dict[int, list[str]] = {
            spec.index: [] for spec in self._specs}
        for spec in self._specs:
            loaded = self._load_completed(spec)
            if loaded is not None:
                outcomes[spec.index] = loaded
        pending: deque[ShardSpec] = deque(
            spec for spec in self._specs if spec.index not in outcomes)
        while pending or pool.workers:
            # Launch up to the (possibly degraded) concurrency cap.
            while pending and pool.free:
                chunk = self._take_chunk(pending, fault_log)
                args = (self.factory, chunk,
                        [self._journal_info(spec) for spec in chunk])
                if pool.start(chunk, _run_shards, *args):
                    continue
                if pool.shed():
                    # No worker left to wait for: run the chunk here.
                    inline_started = time.monotonic()
                    reply = call_body(_run_shards, None, *args)
                    self._settle(chunk, reply,
                                 time.monotonic() - inline_started,
                                 outcomes, fault_log, pending, failures)
                else:
                    # Retry the chunk once a running worker is done.
                    pending.extendleft(reversed(chunk))
                break
            if not pool.workers:
                continue
            timeout = max(0.0, min(map(self._deadline,
                                       pool.workers.values()))
                          - time.monotonic())
            for worker in pool.wait(timeout):
                reply = pool.receive(worker)
                pool.release(worker)
                self._settle(worker.key, reply,
                             time.monotonic() - worker.started,
                             outcomes, fault_log, pending, failures)
            now = time.monotonic()
            for worker in list(pool.workers.values()):
                if now < self._deadline(worker):
                    continue
                escalation = pool.stop(worker)
                budget = self.shard_timeout * len(worker.key)
                for spec in worker.key:
                    self._record_fault(
                        spec,
                        f"worker hung: no result within {budget:.0f} s, "
                        f"killed (exit code {worker.process.exitcode}, "
                        f"{now - worker.started:.1f} s wall"
                        f"{self._journal_progress_note(spec)})"
                        + (f"; {escalation}" if escalation else ""),
                        fault_log, pending, failures)
        return ShardedResult(
            master_seed=self.master_seed, shard_count=self.shards,
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - started,
            outcomes=[outcomes[i] for i in sorted(outcomes)],
            failures=[failures[i] for i in sorted(failures)])

    def _take_chunk(self, pending: deque,
                    fault_log: dict) -> tuple[ShardSpec, ...]:
        """The next chunk: up to ``batch_size`` shards that never
        faulted, or one shard that did.  A shard that faulted retries
        alone, so a bad shard cannot fail the healthy shards it was
        packed with a second time."""
        chunk = [pending.popleft()]
        while (pending and len(chunk) < self.batch_size
               and not fault_log[chunk[0].index]
               and not fault_log[pending[0].index]):
            chunk.append(pending.popleft())
        return tuple(chunk)

    def _deadline(self, worker: PoolWorker) -> float:
        """When a worker is declared hung: ``shard_timeout`` is a
        per-shard budget, so the deadline scales with the chunk."""
        return worker.started + self.shard_timeout * len(worker.key)

    def _settle(self, chunk: tuple[ShardSpec, ...], reply: tuple,
                wall: float, outcomes: dict, fault_log: dict,
                pending: deque, failures: dict) -> None:
        """Merge a chunk's results, or charge its fault to every shard
        in it with how far the shard's journal durably got."""
        kind, payload = reply
        if kind == "ok":
            for spec, shard_reply in zip(chunk, payload):
                outcomes[spec.index] = ShardOutcome.from_reply(
                    spec, shard_reply, wall, fault_log[spec.index])
            return
        for spec in chunk:
            self._record_fault(
                spec, payload + self._journal_progress_note(spec),
                fault_log, pending, failures)

    def _record_fault(self, spec: ShardSpec, description: str,
                      fault_log: dict, pending: deque,
                      failures: dict) -> None:
        faults = fault_log[spec.index]
        faults.append(f"attempt {spec.attempt}: {description}")
        if len(faults) > self.max_retries:
            failures[spec.index] = ShardFailure(index=spec.index,
                                                faults=tuple(faults))
        elif self.journal_dir is not None:
            # The journal survived the worker: requeue the same spec so
            # the replacement resumes from checkpoint with the same
            # seed -- the fingerprint must match an uninterrupted run.
            pending.append(spec)
        else:
            attempt = spec.attempt + 1
            pending.append(replace(
                spec, attempt=attempt,
                seed=derive_shard_seed(spec.master_seed, spec.index,
                                       attempt)))
