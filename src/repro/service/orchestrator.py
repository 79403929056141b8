"""The campaign orchestrator: lease jobs onto worker processes.

The service's control loop.  Each tick it (1) drains worker messages
-- heartbeats renew leases, results complete jobs, tracebacks fault
them; (2) expires leases whose workers went silent, killing wedged
survivors; (3) grants leases for pending jobs onto fresh workers,
honouring per-job jittered backoff after faults.  The worker processes
themselves -- spawning, reading, bounded reaping, SIGTERM-then-SIGKILL,
degrading to fewer slots (ultimately inline execution) when the OS
refuses processes -- are the :class:`~repro.fuzz.parallel.WorkerPool`
that :class:`~repro.fuzz.parallel.ShardedCampaign` uses too.

The crash-handoff guarantee rests on three existing pieces: every job
runs inside its own :class:`~repro.fuzz.durability.CampaignJournal`
(so a replacement worker resumes from checkpoint), the re-granted job
keeps the *same* seed and journal (so re-execution is bit-identical),
and :meth:`~repro.service.queue.JobQueue.mark_completed` deduplicates
by result fingerprint (so at-least-once execution still yields
exactly-once results).  A SIGKILLed *orchestrator* recovers the same
way: the queue replays its own journal, orphaned leases are released
on startup, and any orphan worker that survived the crash finishes
writing the same deterministic bytes -- its duplicate completion is
absorbed, not double-counted.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from repro.fuzz.campaign import CampaignLimits, resume_campaign
from repro.fuzz.durability import (CampaignJournal, DirectoryStore,
                                   QuotaStore, RetryPolicy)
from repro.fuzz.parallel import (ResourceGuards, ShardSpec, WorkerPool,
                                 call_body, send)
from repro.service.lease import LeaseError, LeaseManager
from repro.service.queue import JobQueue, JobSpec
from repro.sim.clock import SECOND

# ----------------------------------------------------------------------
# Job kinds: what a job id actually runs
# ----------------------------------------------------------------------

#: name -> builder(JobSpec) returning a pickleable
#: :data:`~repro.fuzz.parallel.CampaignFactory`.  The builder runs in
#: the orchestrator; only the factory crosses the process boundary.
JOB_KINDS: dict[str, Callable[[JobSpec], object]] = {}


def register_job_kind(name: str,
                      builder: Callable[[JobSpec], object]) -> None:
    """Register (or override) a campaign family the service can run.

    Tests register crash/hang kinds here; deployments can add bespoke
    benches without touching the orchestrator.
    """
    JOB_KINDS[name] = builder


def _build_uds(spec: JobSpec):
    from repro.testbench.factory import UdsBenchFactory
    return UdsBenchFactory(
        stop_on_finding=spec.stop_on_finding,
        key_algorithm=spec.params.get("key_algorithm"))


def _build_unlock(spec: JobSpec):
    from repro.testbench.factory import UnlockBenchFactory
    return UnlockBenchFactory(
        check_mode=spec.params.get("check_mode", "byte"))


register_job_kind("uds", _build_uds)
register_job_kind("unlock", _build_unlock)


def build_factory(spec: JobSpec):
    builder = JOB_KINDS.get(spec.kind)
    if builder is None:
        raise ValueError(
            f"unknown job kind {spec.kind!r}; "
            f"registered: {sorted(JOB_KINDS)}")
    return builder(spec)


def shard_spec_for(spec: JobSpec) -> ShardSpec:
    """The single-shard spec a job runs as.

    ``seed`` is the job's seed directly (matching the CLI's
    single-campaign runs), so a service job and a ``fuzz-uds --seed N``
    run of the same budget produce bit-identical results -- that
    equality is what the chaos gate checks against.
    """
    max_duration = (int(spec.max_seconds * SECOND)
                    if spec.max_seconds is not None else None)
    limits = CampaignLimits(max_frames=spec.max_frames,
                            max_duration=max_duration,
                            stop_on_finding=spec.stop_on_finding)
    return ShardSpec(index=0, shard_count=1, master_seed=spec.seed,
                     seed=spec.seed, limits=limits)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

class _HeartbeatJournal(CampaignJournal):
    """A campaign journal whose appends double as lease heartbeats.

    Campaigns already append progress records every
    ``checkpoint_every`` frames and write-ahead every finding; piggy-
    backing heartbeats on those appends means a worker heartbeats
    exactly as often as it proves durable progress -- a wedged
    campaign cannot fake liveness.  Must be a real
    :class:`CampaignJournal` subclass: :func:`resume_campaign` wraps
    anything else in a fresh journal and the heartbeats would vanish.
    """

    def __init__(self, store, conn, *,
                 retry: RetryPolicy | None = None) -> None:
        super().__init__(store, retry=retry)
        self._conn = conn

    def append(self, record: dict) -> None:
        super().append(record)
        if record.get("type") in ("start", "resume", "progress",
                                  "finding", "end"):
            # Frame campaigns count frames_sent, UDS campaigns
            # requests_sent; normalise for the status API.
            sent = record.get("frames_sent",
                              record.get("requests_sent", 0))
            send(self._conn, ("heartbeat", {
                "frames_sent": sent,
                "findings": record.get("findings", 0),
                "phase": record.get("type"),
            }))


def _run_job(conn, factory, spec: ShardSpec, journal_dir: str,
             checkpoint_every: int, store_factory=None,
             guards: ResourceGuards | None = None,
             quota_bytes: int | None = None) -> tuple:
    """Worker body: resume the job's journal and run it out.  Returns
    ``(result dict, durability warnings)``.

    Resource guards are installed before any campaign code runs:
    rlimits bound the worker itself (CPU blow-out dies by SIGXCPU and
    surfaces as a crash strike in the parent; address-space blow-out
    turns into ``MemoryError``, an error strike), and ``quota_bytes``
    wraps the job's journal store in a :class:`QuotaStore` so disk
    abuse raises :class:`~repro.fuzz.durability.DiskQuotaExceeded`
    through the campaign -- a journalled fault strike, never a hang.
    """
    guard_notes = guards.apply() if guards is not None else []
    store = (store_factory or DirectoryStore)(journal_dir)
    if quota_bytes is not None:
        store = QuotaStore(store, quota_bytes=quota_bytes)
    journal = _HeartbeatJournal(store, conn)
    payload = {"phase": "building"}
    if guard_notes:
        payload["guard_notes"] = guard_notes
    send(conn, ("heartbeat", payload))
    result = resume_campaign(journal, lambda: factory(spec),
                             checkpoint_every=checkpoint_every)
    return result.to_dict(), list(journal.warnings)


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------

class Orchestrator:
    """Lease pending jobs onto worker processes until told to stop.

    Args:
        queue: the durable :class:`JobQueue` (shared with the API).
        workers: concurrent worker slots (degrades under OS pressure,
            never below inline execution).
        lease_duration: seconds a worker may go without a heartbeat
            before its job is re-granted.
        checkpoint_every: frames between a job's durable checkpoints
            -- also its heartbeat cadence, so keep it well under
            ``lease_duration`` worth of campaign progress.
        quarantine_after: faults that retire a job to quarantine
            instead of retrying it (repeat-crashers must not starve
            the healthy queue).
        backoff: wait policy between a job's fault and its re-grant;
            the default adds deterministic seeded jitter so a burst of
            simultaneous faults does not thunder back as one herd.
        poll_interval: the longest wait between two ticks of the
            control loop; a tick comes sooner when a worker reports.
        terminate_grace: seconds a worker gets to exit -- after its
            result, or after SIGTERM -- before SIGKILL (see
            :class:`~repro.fuzz.parallel.WorkerPool`).
        mp_context: multiprocessing start-method context.
        clock: monotonic time source (tests inject a fake to step
            lease lifetimes deterministically).
        store_factory: journal backend for *job* journals (chaos tests
            inject :class:`~repro.fuzz.durability.FaultyStore`).
        resource_guards: OS rlimits installed in every worker process
            (see :class:`~repro.fuzz.parallel.ResourceGuards`).  Not
            applied to inline degraded execution -- rlimits there
            would bound the orchestrator itself.
        job_quota_bytes: per-job disk budget for ``jobs/<id>/``; a
            breach raises through the campaign and is recorded as a
            fault strike.
    """

    def __init__(self, queue: JobQueue, *, workers: int = 2,
                 lease_duration: float = 30.0,
                 checkpoint_every: int = 200,
                 quarantine_after: int = 3,
                 backoff: RetryPolicy | None = None,
                 poll_interval: float = 0.05,
                 terminate_grace: float = 5.0,
                 mp_context=None,
                 clock: Callable[[], float] = time.monotonic,
                 store_factory: Callable[[str], object] | None = None,
                 resource_guards: ResourceGuards | None = None,
                 job_quota_bytes: int | None = None,
                 ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if terminate_grace < 0:
            raise ValueError("terminate_grace must be >= 0")
        self.queue = queue
        self.configured_workers = workers
        self.leases = LeaseManager(duration=lease_duration, clock=clock)
        self.backoff = backoff or RetryPolicy(
            attempts=1, backoff=0.25, jitter=0.5, seed=0)
        self.checkpoint_every = checkpoint_every
        self.quarantine_after = quarantine_after
        self.poll_interval = poll_interval
        if job_quota_bytes is not None and job_quota_bytes < 1:
            raise ValueError("job_quota_bytes must be >= 1")
        self.clock = clock
        self.store_factory = store_factory
        self.resource_guards = resource_guards
        self.job_quota_bytes = job_quota_bytes
        #: Worker processes, keyed ``(job_id, worker_id)``.
        self.pool = WorkerPool(workers, mp_context=mp_context,
                               terminate_grace=terminate_grace,
                               clock=clock)
        #: Per-job earliest re-grant time (jittered backoff after a
        #: fault), in ``clock`` time.
        self._not_before: dict[str, float] = {}
        self._worker_seq = 0
        self.inline_completions = 0
        #: Operational notes (degradation, late heartbeats, orphan
        #: releases) surfaced through the status API.
        self.notes: list[str] = []
        orphans = queue.release_orphans(
            "orchestrator restart: previous lease holder did not "
            "survive the process")
        if orphans:
            self.notes.append(
                f"released {len(orphans)} orphaned lease(s) on startup: "
                f"{', '.join(orphans)}")

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One scheduling round: read worker messages, expire, launch."""
        for worker in list(self.pool.workers.values()):
            job_id, worker_id = worker.key
            while (message := self.pool.receive(worker)) is not None:
                if message[0] == "heartbeat":
                    self._on_heartbeat(job_id, worker_id, message[1])
                    continue
                self.pool.release(worker)
                self._release_lease(job_id, worker_id)
                self._settle(job_id, worker_id, message)
                break
        self._expire_leases()
        self._launch()

    async def run(self, stop: asyncio.Event | None = None) -> None:
        """Tick until ``stop`` is set (service mode) or, with no stop
        event, until every job reached a terminal state (batch mode).
        Between ticks it waits until a live worker reports or
        ``poll_interval`` passes.  Shuts down gracefully either way:
        running workers are stopped and their jobs requeued without a
        fault strike."""
        try:
            while True:
                self.tick()
                if stop is not None:
                    if stop.is_set():
                        break
                elif self.queue.idle() and not self.pool.workers:
                    break
                await self._wait_for_report()
        finally:
            self.shutdown()

    async def _wait_for_report(self) -> None:
        """Sleep until a live worker's pipe turns readable -- a message
        or a closed pipe -- or ``poll_interval`` passes.  A silent or
        stopped worker wakes nothing, so lease expiry and backoff still
        run at least once per ``poll_interval``."""
        loop = asyncio.get_running_loop()
        woken = loop.create_future()

        def wake() -> None:
            if not woken.done():
                woken.set_result(None)

        fds = [worker.conn.fileno() for worker in self.pool.workers.values()]
        timer = loop.call_later(self.poll_interval, wake)
        try:
            for fd in fds:
                loop.add_reader(fd, wake)
            await woken
        finally:
            timer.cancel()
            for fd in fds:
                loop.remove_reader(fd)

    def run_until_idle(self, timeout: float = 120.0) -> None:
        """Synchronous drive for tests: tick until the queue drains,
        waiting between ticks as :meth:`run` does."""
        deadline = time.monotonic() + timeout
        self.tick()
        while not self.queue.idle():
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"queue not idle after {timeout:.0f} s: "
                    f"{self.queue.counters()}")
            if self.pool.workers:
                self.pool.wait(self.poll_interval)
            else:
                time.sleep(self.poll_interval)
            self.tick()

    def shutdown(self, note: str = "orchestrator shutdown: "
                                   "job requeued, not faulted") -> None:
        """Stop every worker and requeue its job without a strike."""
        for worker in list(self.pool.workers.values()):
            job_id, worker_id = worker.key
            escalation = self.pool.stop(worker)
            if escalation:
                self.notes.append(f"shutdown of {worker_id}: {escalation}")
            self._release_lease(job_id, worker_id)
            job = self.queue.get(job_id)
            if job is not None and job.state == "leased":
                self.queue.requeue(job_id, note, fault=False)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def worker_pids(self) -> dict[str, int]:
        """job_id -> OS pid of its current worker (chaos tests and the
        CI smoke job SIGKILL through this)."""
        return {job_id: pid
                for (job_id, _), pid in self.pool.pids().items()}

    def status(self) -> dict:
        return {
            "workers": {
                "configured": self.configured_workers,
                "slots": self.pool.slots,
                "busy": len(self.pool.workers),
                "pids": self.worker_pids(),
            },
            "leases": self.leases.stats(),
            "queue": self.queue.counters(),
            "inline_completions": self.inline_completions,
            "notes": list(self.notes),
            "journal_warnings": self.queue.warnings,
            "artefact_warnings": list(self.queue.artefact_warnings),
        }

    # ------------------------------------------------------------------
    # Worker messages
    # ------------------------------------------------------------------
    def _on_heartbeat(self, job_id: str, worker_id: str,
                      payload: dict) -> None:
        try:
            self.leases.renew(job_id, worker_id)
        except LeaseError as exc:
            # Late heartbeat from a worker whose lease already expired:
            # the expiry path will kill it this tick; record the race.
            self.notes.append(f"late heartbeat ignored: {exc}")
            return
        self.queue.update_progress(job_id, payload)

    def _settle(self, job_id: str, worker_id: str, reply: tuple) -> None:
        """Complete a job from its worker's ``ok`` reply, or strike it
        for an ``error`` or a crash."""
        if reply[0] == "crashed":
            self._record_fault(job_id, reply[1])
            return
        if reply[0] == "error":
            self._record_fault(job_id, f"worker raised:\n{reply[1]}")
            return
        _, result, warnings = reply
        disposition = self.queue.mark_completed(job_id, result)
        if disposition == "divergent":
            self.notes.append(
                f"job {job_id}: divergent duplicate completion "
                f"from {worker_id} -- determinism violation")
        if warnings:
            self.queue.update_progress(
                job_id, {"durability_warnings": list(warnings)})
        self._not_before.pop(job_id, None)

    def _expire_leases(self) -> None:
        for lease in self.leases.expire():
            note = (f"lease expired: no heartbeat from "
                    f"{lease.worker_id} within "
                    f"{self.leases.duration:.1f} s "
                    f"(granted {lease.renewals} renewal(s))")
            worker = self.pool.workers.get((lease.job_id, lease.worker_id))
            if worker is not None:
                # The worker is alive but silent -- wedged.  Kill it
                # before re-granting, or two executions would interleave
                # writes into one journal.
                escalation = self.pool.stop(worker)
                if escalation:
                    note += f"; {escalation}"
            self._record_fault(lease.job_id, note)

    def _record_fault(self, job_id: str, note: str) -> None:
        """Strike a job: quarantine repeat-crashers, otherwise requeue
        behind a jittered backoff."""
        job = self.queue.get(job_id)
        if job is None or job.terminal:
            return
        strikes = len(job.faults) + 1
        if strikes >= self.quarantine_after:
            self.queue.quarantine(
                job_id, f"{note} (fault {strikes}/"
                        f"{self.quarantine_after}: quarantined)")
            self._not_before.pop(job_id, None)
            return
        faults = self.queue.requeue(job_id, note)
        self._not_before[job_id] = (self.clock()
                                    + self.backoff.delay(faults - 1))

    # ------------------------------------------------------------------
    # Launching
    # ------------------------------------------------------------------
    def _launch(self) -> None:
        now = self.clock()
        for job in self.queue.pending():
            if not self.pool.free:
                return
            if self._not_before.get(job.spec.job_id, 0.0) > now:
                continue
            if not self._start(job):
                return

    def _start(self, job) -> bool:
        """Lease one job onto a fresh worker; False when the OS refused
        the process (caller stops launching this tick)."""
        spec = job.spec
        try:
            factory = build_factory(spec)
        except Exception as exc:
            # Unknown kind or bad params never gets better by retrying.
            self.queue.quarantine(
                spec.job_id, f"job cannot be built: {exc}")
            return True
        self._worker_seq += 1
        worker_id = f"worker-{self._worker_seq}"
        self.queue.mark_leased(spec.job_id, worker_id)
        self.leases.grant(spec.job_id, worker_id)
        args = (factory, shard_spec_for(spec),
                str(self.queue.job_dir(spec.job_id)), self.checkpoint_every,
                self.store_factory)
        if self.pool.start((spec.job_id, worker_id), _run_job, *args,
                           self.resource_guards, self.job_quota_bytes):
            return True
        self._release_lease(spec.job_id, worker_id)
        self.queue.requeue(
            spec.job_id, "worker spawn failed before execution started",
            fault=False)
        inline = self.pool.shed()
        self.notes.append(
            f"worker spawn failed; degraded to {self.pool.slots} slot(s)"
            + (f", running {spec.job_id} inline" if inline else ""))
        if inline:
            # Nothing runs, so waiting frees nothing: run the job here,
            # so the service still makes progress on a box that cannot
            # fork at all.  No rlimits: here they would bound the
            # orchestrator itself.
            self.queue.mark_leased(spec.job_id, "inline")
            reply = call_body(_run_job, None, *args, None,
                              self.job_quota_bytes)
            if reply[0] == "ok":
                self.inline_completions += 1
            self._settle(spec.job_id, "inline", reply)
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _release_lease(self, job_id: str, worker_id: str) -> None:
        try:
            self.leases.release(job_id, worker_id)
        except LeaseError as exc:
            # The lease expired while the worker's last message was in
            # flight; the result is still deterministic and the dedup
            # path absorbs any re-execution.
            self.notes.append(f"lease already gone on release: {exc}")
