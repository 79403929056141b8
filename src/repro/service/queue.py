"""Durable job queue: the orchestrator's own write-ahead state.

Every job lifecycle event -- submitted, leased, requeued, completed,
quarantined -- is appended to a :class:`~repro.fuzz.durability.
CampaignJournal` before the in-memory view changes, so the queue
itself kill-resumes: a restarted orchestrator replays the event log
and reopens exactly the state the dead one had durably reached.  The
same machinery campaigns already trust (CRC-framed records, torn-tail
truncation, bounded-retry degradation under a dying disk) protects
the queue, and the chaos tests drive it through a
:class:`~repro.fuzz.durability.FaultyStore` to prove it.

At-least-once, exactly-once-results: a job may *execute* more than
once (lease expiry, orchestrator restart, a torn completion record),
but every execution resumes the same per-job journal with the same
seed/attempt bookkeeping, so it produces a bit-identical result.
:meth:`JobQueue.mark_completed` deduplicates by result fingerprint --
the first completion wins, repeats are counted as duplicates, and a
divergent repeat (which determinism forbids) is loudly recorded
rather than silently merged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.fuzz.durability import (CampaignJournal, DirectoryStore,
                                   RetryPolicy, read_result, scan_records)

#: States a job can rest in.  ``pending`` and ``leased`` are live;
#: ``completed`` and ``quarantined`` are terminal.
JOB_STATES = ("pending", "leased", "completed", "quarantined")
TERMINAL_STATES = frozenset(("completed", "quarantined"))


def result_fingerprint(payload: dict) -> str:
    """Deterministic digest of one job result's canonical JSON.

    The currency of exactly-once results: two executions of the same
    job must produce the same fingerprint, so a re-executed job's
    completion deduplicates instead of double-reporting.
    """
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True,
                   separators=(",", ":")).encode("utf-8")).hexdigest()


@dataclass
class JobSpec:
    """What a tenant asked the service to run: plain JSON values only.

    ``kind`` names a registered campaign family (see
    :data:`repro.service.orchestrator.JOB_KINDS`); ``seed`` plus the
    budget fields fully determine the run, which is what makes
    re-execution after a lost lease bit-identical.
    """

    job_id: str
    tenant: str = "anonymous"
    kind: str = "uds"
    seed: int = 0
    max_frames: int | None = None
    max_seconds: float | None = None
    stop_on_finding: bool = True
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_frames is None and self.max_seconds is None:
            raise ValueError(
                "set max_frames and/or max_seconds; an unbounded job "
                "never finishes and never releases its lease")
        if self.max_frames is not None and self.max_frames <= 0:
            raise ValueError("max_frames must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "seed": self.seed,
            "max_frames": self.max_frames,
            "max_seconds": self.max_seconds,
            "stop_on_finding": self.stop_on_finding,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        return cls(
            job_id=str(payload["job_id"]),
            tenant=str(payload.get("tenant", "anonymous")),
            kind=str(payload.get("kind", "uds")),
            seed=int(payload.get("seed", 0)),
            max_frames=payload.get("max_frames"),
            max_seconds=payload.get("max_seconds"),
            stop_on_finding=bool(payload.get("stop_on_finding", True)),
            params=dict(payload.get("params", {})),
        )


@dataclass
class Job:
    """The queue's live view of one job."""

    spec: JobSpec
    state: str = "pending"
    #: Lease grants so far (attempt bookkeeping; journalled resumes
    #: keep the same campaign seed across all of them).
    attempts: int = 0
    #: Fault descriptions from lost/failed executions.
    faults: list[str] = field(default_factory=list)
    #: Non-fault lifecycle notes (orchestrator restarts, shutdown
    #: requeues) -- context, not strikes toward quarantine.
    notes: list[str] = field(default_factory=list)
    fingerprint: str | None = None
    #: Compact completion facts (frames, findings, stop reason); the
    #: full result lives in the job's own journal directory.
    result_summary: dict | None = None
    duplicate_completions: int = 0
    #: Latest heartbeat payload (in-memory only; telemetry, not state).
    progress: dict = field(default_factory=dict)
    worker: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_dict(self) -> dict:
        """JSON-ready status for the HTTP API."""
        payload = self.spec.to_dict()
        payload.update({
            "state": self.state,
            "attempts": self.attempts,
            "retries": len(self.faults),
            "faults": list(self.faults),
            "notes": list(self.notes),
            "worker": self.worker,
            "progress": dict(self.progress),
            "fingerprint": self.fingerprint,
            "duplicate_completions": self.duplicate_completions,
        })
        if self.result_summary is not None:
            payload["result"] = dict(self.result_summary)
        return payload


class JobQueue:
    """Kill-resumable queue of campaign jobs rooted at one directory.

    Layout: ``<root>/queue/`` holds the queue's own event journal;
    ``<root>/jobs/<job_id>/`` is each job's campaign journal (WAL,
    checkpoint, result) written by whichever worker holds the lease.

    Args:
        root: service data directory.
        store_factory: ``path -> store`` for the queue journal backend
            (chaos tests inject :class:`FaultyStore` here).
        retry: store retry policy (seeded jitter recommended when many
            orchestrators share a backend).
    """

    QUEUE_DIR = "queue"
    JOBS_DIR = "jobs"

    def __init__(self, root, *,
                 store_factory: Callable[[str], object] | None = None,
                 retry: RetryPolicy | None = None) -> None:
        self.root = Path(root)
        self._store_factory = store_factory or DirectoryStore
        self.journal = CampaignJournal(
            self._store_factory(str(self.root / self.QUEUE_DIR)),
            retry=retry)
        #: Every job, in submission order.
        self.jobs: dict[str, Job] = {}
        #: The live (pending or leased) jobs, in submission order: what
        #: a tick and a submit look at, however many jobs have ended.
        self._live: dict[str, Job] = {}
        #: Jobs per state, duplicate completions and faults, kept as
        #: :meth:`_apply` folds each event (what :meth:`counters` reads).
        self._states = dict.fromkeys(JOB_STATES, 0)
        self._duplicates = 0
        self._retries = 0
        self.divergent_completions = 0
        self.artefact_warnings: list[str] = []
        self._artefact_warned: set[str] = set()
        for record in self.journal.records:
            self._apply(record)

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def _record(self, event: dict) -> None:
        """Durably append one event, then fold it into the live view.

        The replay path and the live path share :meth:`_apply`, so a
        reopened queue reconstructs exactly the state this one shows,
        its index of live jobs included.
        """
        self.journal.append(event)
        self._apply(event)

    def _apply(self, event: dict) -> None:
        kind = event.get("type")
        if kind == "job-submitted":
            spec = JobSpec.from_dict(event["job"])
            if spec.job_id not in self.jobs:
                job = Job(spec=spec)
                self.jobs[spec.job_id] = self._live[spec.job_id] = job
                self._states[job.state] += 1
            return
        job = self.jobs.get(event.get("job_id", ""))
        if job is None:
            return  # event for a job whose submit record was torn away
        state = job.state
        if kind == "job-leased":
            job.state = "leased"
            job.attempts += 1
            job.worker = event.get("worker")
        elif kind == "job-requeued":
            if not job.terminal:
                job.state = "pending"
            job.worker = None
            note = event.get("note", "requeued")
            if event.get("fault", True):
                job.faults.append(note)
                self._retries += 1
            else:
                job.notes.append(note)
        elif kind == "job-completed":
            job.state = "completed"
            job.worker = None
            job.fingerprint = event.get("fingerprint")
            job.result_summary = {
                key: event.get(key)
                for key in ("frames_sent", "findings", "stop_reason")}
        elif kind == "job-duplicate":
            job.duplicate_completions += 1
            self._duplicates += 1
        elif kind == "job-divergent":
            self.divergent_completions += 1
            job.notes.append(
                f"divergent duplicate completion "
                f"{event.get('fingerprint')} (kept {job.fingerprint})")
        elif kind == "job-quarantined":
            job.state = "quarantined"
            job.worker = None
            job.faults.append(event.get("note", "quarantined"))
            self._retries += 1
        self._states[state] -= 1
        self._states[job.state] += 1
        if job.terminal:
            # A terminal state is final: leasing needs a pending job,
            # and a requeue leaves a terminal job as it is.
            self._live.pop(job.spec.job_id, None)

    # ------------------------------------------------------------------
    # Mutations (each durably journalled first)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec | None = None, **fields) -> Job:
        """Accept one job; returns its live record.

        Either a ready :class:`JobSpec` or keyword fields (``job_id``
        generated when absent).  A duplicate id is refused -- ids are
        the dedup key for everything downstream.
        """
        if spec is None:
            fields.setdefault("job_id", self._next_job_id())
            spec = JobSpec(**fields)
        if spec.job_id in self.jobs:
            raise ValueError(f"job id {spec.job_id!r} already exists")
        self._record({"type": "job-submitted", "job": spec.to_dict()})
        return self.jobs[spec.job_id]

    def mark_leased(self, job_id: str, worker: str) -> None:
        job = self._require(job_id)
        if job.state != "pending":
            raise ValueError(
                f"job {job_id} is {job.state}, not pending")
        self._record({"type": "job-leased", "job_id": job_id,
                      "worker": worker})

    def requeue(self, job_id: str, note: str, *,
                fault: bool = True) -> int:
        """Return a job to the pending pool after a lost execution.

        ``fault=True`` counts toward quarantine (the execution crashed
        or went silent); ``fault=False`` records context only (the
        orchestrator itself restarted or shut down mid-lease).
        Returns the job's fault count after the event.
        """
        job = self._require(job_id)
        self._record({"type": "job-requeued", "job_id": job_id,
                      "note": note, "fault": fault})
        return len(job.faults)

    def quarantine(self, job_id: str, note: str) -> None:
        self._record({"type": "job-quarantined", "job_id": job_id,
                      "note": note})

    def mark_completed(self, job_id: str, result: dict) -> str:
        """Record one execution's result; returns how it was treated.

        ``"recorded"`` -- first completion, the job is done.
        ``"duplicate"`` -- an at-least-once repeat with the identical
        fingerprint; counted, not double-reported.
        ``"divergent"`` -- a repeat with a *different* fingerprint,
        which deterministic re-execution forbids; the first result is
        kept and the anomaly is journalled for the operator.
        """
        job = self._require(job_id)
        fingerprint = result_fingerprint(result)
        if job.state == "completed":
            if fingerprint == job.fingerprint:
                self._record({"type": "job-duplicate", "job_id": job_id,
                              "fingerprint": fingerprint})
                return "duplicate"
            self._record({"type": "job-divergent", "job_id": job_id,
                          "fingerprint": fingerprint})
            return "divergent"
        self._record({
            "type": "job-completed", "job_id": job_id,
            "fingerprint": fingerprint,
            "frames_sent": result.get("frames_sent", 0),
            "findings": len(result.get("findings", [])),
            "stop_reason": result.get("stop_reason", ""),
        })
        return "recorded"

    def update_progress(self, job_id: str, progress: dict) -> None:
        """Fold a heartbeat's telemetry into the job's status view.

        Deliberately not journalled: heartbeats are weather, and the
        durable truth about progress already lives in the job's own
        campaign journal.
        """
        job = self._require(job_id)
        job.progress.update(progress)

    def release_orphans(self, note: str) -> list[str]:
        """Requeue every job a dead orchestrator left marked leased.

        Called on startup: lease holders do not survive the process,
        so a replayed ``leased`` state is always stale.  Not a fault --
        the job did nothing wrong.
        """
        orphans = [job_id for job_id, job in self._live.items()
                   if job.state == "leased"]
        for job_id in orphans:
            self.requeue(job_id, note, fault=False)
        return orphans

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def in_order(self) -> list[Job]:
        return list(self.jobs.values())

    def pending(self) -> list[Job]:
        """Pending jobs in submission order (a requeued job keeps its
        place), the order leases are granted in."""
        return [job for job in self._live.values() if job.state == "pending"]

    def idle(self) -> bool:
        """True when every submitted job reached a terminal state."""
        return not self._live

    def active_for_tenant(self, tenant: str) -> int:
        """Live (pending or leased) jobs a tenant currently owns --
        the quantity per-tenant quotas bound."""
        return sum(1 for job in self._live.values()
                   if job.spec.tenant == tenant)

    @property
    def warnings(self) -> list[str]:
        return list(self.journal.warnings)

    def counters(self) -> dict:
        return {
            "jobs": len(self.jobs),
            "states": dict(self._states),
            "duplicate_completions": self._duplicates,
            "divergent_completions": self.divergent_completions,
            "total_retries": self._retries,
        }

    # ------------------------------------------------------------------
    # Per-job artefacts (read-only, safe while a worker is writing)
    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.root / self.JOBS_DIR / job_id

    def warnings_for_job(self, job_id: str) -> list[str]:
        """Artefact warnings recorded for one job (corrupt/truncated
        files seen while serving its findings or results)."""
        prefix = f"job {job_id}: "
        return [w for w in self.artefact_warnings
                if w.startswith(prefix)]

    def _warn_artefact(self, job_id: str, message: str) -> None:
        """Record one artefact-corruption warning, deduplicated, so a
        corrupt file degrades to telemetry instead of a raised error
        on every read."""
        text = f"job {job_id}: {message}"
        if text in self._artefact_warned:
            return
        self._artefact_warned.add(text)
        self.artefact_warnings.append(text)

    def _read_job_log(self, job_id: str, read: Callable):
        """``read(store)`` over the job's journal, which returns
        ``(value, scan warnings)``; the warnings are recorded.  ``None``
        when the job has no journal yet or it is unreadable."""
        directory = self.job_dir(job_id)
        if not directory.is_dir():
            return None
        try:
            value, scan_warnings = read(DirectoryStore(directory))
        except OSError as exc:
            self._warn_artefact(job_id, f"unreadable journal: {exc}")
            return None
        for warning in scan_warnings:
            self._warn_artefact(job_id, warning)
        return value

    def load_result(self, job_id: str) -> dict | None:
        """The job's full campaign result, from its own journal.

        Reads the job's log with the read-only recovery scan
        (:func:`~repro.fuzz.durability.read_result`).  No result yet
        is the normal not-finished-yet case and stays silent; damage
        to the log records a warning and hides what follows it -- the
        API must never 500 because a disk bit flipped.
        """
        return self._read_job_log(job_id, read_result)

    def job_findings(self, job_id: str) -> list[dict]:
        """Findings streamed so far, deduplicated by fingerprint.

        Reads the job's write-ahead journal with the read-only
        recovery scan, so it works mid-run from another process.  A
        from-zero re-execution appends the same findings again; the
        fingerprint dedup collapses them -- at-least-once execution,
        exactly-once findings.  Torn or corrupt journal records are
        surfaced as recorded warnings, never raised to the caller.
        Only the ``finding`` records are decoded.
        """
        records = self._read_job_log(
            job_id, lambda store: scan_records(store, ("finding",))) or []
        seen: set[str] = set()
        findings: list[dict] = []
        for record in records:
            finding = record.get("finding", {})
            fingerprint = result_fingerprint(finding)
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            findings.append(finding)
        return findings

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _next_job_id(self) -> str:
        index = len(self.jobs)
        while f"job-{index:06d}" in self.jobs:
            index += 1
        return f"job-{index:06d}"
