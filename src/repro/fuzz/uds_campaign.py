"""Stateful UDS fuzz campaign over ISO-TP.

The frame-level :class:`~repro.fuzz.campaign.FuzzCampaign` pushes raw
CAN frames on a timer; a diagnostic exchange is request/response, so
this campaign is a synchronous loop instead: the generator produces a
request, the client drives the simulation until the reply (or a
timeout), the generator digests the outcome into its protocol-state
coverage map, and the loop paces to the next request.

The liveness oracle is the one UDS practice uses: a silent server is
probed with TesterPresent (spaced past a possible reboot window)
before the silence is declared a crash.  Findings carry the request
window *plus a state-witness prefix* -- the minimal session/security
walk that re-establishes the belief state -- so request-level replay
and ddmin minimisation reproduce defects whose setup scrolled out of
the rolling window long before the crash.

Durability mirrors the frame campaign: findings are write-ahead
journalled the moment they fire, checkpoints are written every N
requests at quiescent points (both ISO-TP directions idle, no reset
in flight), and :meth:`UdsFuzzCampaign.resume` continues a killed run
bit-identically.  Because the diagnostic bench is quiet between
requests (no cyclic traffic), restore is a clock fast-forward on a
freshly built bench plus ``load_state`` on server, client and
generator -- every later RNG draw, arbitration slot and time-derived
security seed then matches the killed run exactly.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Callable

from repro.fuzz.campaign import (CampaignLimits, journal_of_kind,
                                 resume_campaign)
from repro.fuzz.durability import CampaignJournal
from repro.fuzz.oracle import Finding
from repro.fuzz.session import (FuzzResult, finding_from_dict,
                                finding_to_dict)
from repro.sim.clock import MS

#: TesterPresent probes before a silent server is declared dead.
PROBE_ATTEMPTS = 3


class UdsFuzzCampaign:
    """One stateful diagnostic fuzzing run against a UDS server.

    Args:
        sim: simulation executive shared with the bench.
        client: tester-side :class:`~repro.uds.client.UdsClient`.
        server: target :class:`~repro.uds.server.UdsServer` (for
            checkpointing and liveness bookkeeping).
        generator: request source with ``next_request``/``observe``
            (see :class:`~repro.uds.stategen.UdsStateGenerator`).
        limits: stop conditions; ``max_frames`` counts *requests*.
        interval: pacing gap between exchanges.
        reset_settle: ticks to ride out a commanded ECU reset (response
            delay + boot time + margin); computed from the server's ECU
            when not given.
        journal / checkpoint_every: durability, as in
            :class:`~repro.fuzz.campaign.FuzzCampaign`.
    """

    def __init__(self, sim, client, server, generator, *,
                 limits: CampaignLimits,
                 interval: int = 2 * MS,
                 recent_window: int = 32,
                 reset_settle: int | None = None,
                 name: str = "uds-fuzz",
                 journal: CampaignJournal | None = None,
                 checkpoint_every: int = 200,
                 reset_target: Callable[[], None] | None = None) -> None:
        if interval < 0:
            raise ValueError("interval must be >= 0")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.sim = sim
        self.client = client
        self.server = server
        self.generator = generator
        self.limits = limits
        self.interval = interval
        if reset_settle is None:
            # Commanded reset: ~10 ticks response lag, 10 ms reset
            # delay, the boot, and a settle margin.
            reset_settle = 20 * MS + server.ecu.boot_time + 10 * MS
        self.reset_settle = reset_settle
        self.name = name
        self.journal = journal
        self.checkpoint_every = checkpoint_every
        self._next_checkpoint = checkpoint_every
        self._reset_target = reset_target
        self._recent: deque[tuple[int, bytes]] = deque(maxlen=recent_window)
        self._findings: list[Finding] = []
        self.requests_sent = 0
        self.timeouts = 0
        self.positives = 0
        self.probes_sent = 0
        self.nrc_counts: dict[int, int] = {}
        self._started_at = 0
        self._stop_reason = ""

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> FuzzResult:
        """Execute the campaign to completion and return the record.

        As :meth:`repro.fuzz.campaign.FuzzCampaign.run`: a campaign
        that pins its bench runs on the analytic exchange when the
        prover admits it (:func:`repro.fuzz.batch.run_world`), any
        other on :meth:`_execute`, the reference kernel.
        """
        from repro.fuzz.batch import run_world
        return run_world(self)

    @classmethod
    def resume(cls, journal: "CampaignJournal | str",
               build: Callable[[], "UdsFuzzCampaign"], *,
               checkpoint_every: int | None = None) -> FuzzResult:
        """Continue a journalled UDS campaign from durable state.

        Same three-case protocol as
        :meth:`repro.fuzz.campaign.FuzzCampaign.resume`; ``build``
        must reconstruct the same bench and generator (same seed).
        """
        return resume_campaign(journal_of_kind(journal, "uds"), build,
                               checkpoint_every=checkpoint_every)

    def attach_journal(self, journal: CampaignJournal, *,
                       checkpoint_every: int | None = None) -> None:
        """Stream this campaign's findings and checkpoints into
        ``journal``."""
        self.journal = journal
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            self.checkpoint_every = checkpoint_every
        self._next_checkpoint = self.requests_sent + self.checkpoint_every

    def _execute(self, resume_state: dict | None) -> FuzzResult:
        journal = self.journal
        if resume_state is None:
            self._started_at = self.sim.now
            if journal is not None:
                journal.append({"type": "start", "name": self.name,
                                "kind": "uds",
                                "started_at": self._started_at})
        else:
            self._restore(resume_state)
            if journal is not None:
                journal.append({"type": "resume", "kind": "uds",
                                "requests_sent": self.requests_sent,
                                "generation": journal.generation})
        self._stop_reason = ""
        while True:
            reason = self._limit_reached()
            if reason is not None:
                self._stop_reason = reason
                break
            request = self.generator.next_request()
            sent_at = self.sim.now
            response = self.client.request(request)
            self.requests_sent += 1
            self._recent.append((sent_at, request))
            self.generator.observe(request, response)
            if response.timed_out:
                self.timeouts += 1
                if not self._probe_alive():
                    self._record_silence(request)
                    if self.limits.stop_on_finding:
                        self._stop_reason = "finding from oracle " \
                                            "'uds-liveness'"
                        break
                    self._recover_target()
            else:
                if response.positive:
                    self.positives += 1
                else:
                    nrc = response.nrc
                    if nrc is not None:
                        self.nrc_counts[nrc] = self.nrc_counts.get(
                            nrc, 0) + 1
                if response.positive and request[0] == 0x11:
                    # A commanded reset: ride out the reboot so the
                    # next exchange -- and any checkpoint -- sees a
                    # settled world with no pending power event.
                    self.sim.run_for(self.reset_settle)
            if self.interval:
                self.sim.run_for(self.interval)
            self._maybe_checkpoint()
        result = self._build_result()
        if journal is not None:
            journal.append({"type": "end",
                            "requests_sent": self.requests_sent,
                            "findings": len(self._findings),
                            "stop_reason": self._stop_reason})
            journal.save_result(result.to_dict())
        return result

    def _limit_reached(self) -> str | None:
        limits = self.limits
        if limits.max_frames is not None \
                and self.requests_sent >= limits.max_frames:
            return "request limit reached"
        if limits.max_duration is not None \
                and self.sim.now - self._started_at >= limits.max_duration:
            return "time limit reached"
        return None

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def _probe_alive(self) -> bool:
        """TesterPresent probes, spaced past a possible reboot.

        A timeout right after a fuzz-triggered ECU reset is not a
        crash; waiting ``reset_settle`` between probes lets a booting
        server come back before we declare it dead.
        """
        for _ in range(PROBE_ATTEMPTS):
            self.probes_sent += 1
            probe = self.client.request(b"\x3e\x00")
            if not probe.timed_out:
                return True
            self.sim.run_for(self.reset_settle)
        return False

    def _record_silence(self, request: bytes) -> None:
        witness = tuple(getattr(self.generator, "state_witness",
                                lambda: ())())
        window = tuple(entry for _, entry in self._recent)
        preview = request[:8].hex() + ("..." if len(request) > 8 else "")
        finding = Finding(
            time=self.sim.now,
            oracle="uds-liveness",
            description=(
                f"server silent after request {preview} "
                f"({len(request)} bytes); {PROBE_ATTEMPTS} "
                f"TesterPresent probes unanswered"),
            recent_requests=witness + window,
        )
        self._findings.append(finding)
        if self.journal is not None:
            # Write-ahead: findings reach the durable log immediately.
            self.journal.append({"type": "finding",
                                 "requests_sent": self.requests_sent,
                                 "finding": finding_to_dict(finding)})

    def _recover_target(self) -> None:
        """Bring the target back when the campaign continues."""
        if self._reset_target is not None:
            self._reset_target()
        else:
            self.server.ecu.power_cycle()
            self.server._pending_seed = None
            self.server.failed_key_attempts = 0
            # A power cycle also unwedges the NRC-path hang: the stall
            # is an application-task deadlock, not persistent state.
            self.server._stalled_until = 0
            self.sim.run_for(self.reset_settle)
        notify = getattr(self.generator, "notify_target_reset", None)
        if notify is not None:
            notify()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self.journal is None \
                or self.requests_sent < self._next_checkpoint:
            return
        if not self._quiescent():
            return  # defer to the next request boundary
        self._next_checkpoint = self.requests_sent + self.checkpoint_every
        self.journal.save_checkpoint(self._state_dict())

    def _quiescent(self) -> bool:
        """Safe to checkpoint: no exchange or reboot in flight."""
        return (self.client.endpoint.idle
                and self.server.endpoint.idle
                and self.server.ecu.running)

    def _state_dict(self) -> dict:
        return {
            "format": 1,
            "kind": "uds",
            "name": self.name,
            "started_at": self._started_at,
            "requests_sent": self.requests_sent,
            "sim_now": self.sim.now,
            "timeouts": self.timeouts,
            "positives": self.positives,
            "probes_sent": self.probes_sent,
            "nrc_counts": {str(nrc): count
                           for nrc, count in sorted(
                               self.nrc_counts.items())},
            "recent": [[time, request.hex()]
                       for time, request in self._recent],
            "findings": [finding_to_dict(f) for f in self._findings],
            "generator": self.generator.state_dict(),
            "server": self.server.state_dict(),
            "client": self.client.state_dict(),
        }

    def _restore(self, state: dict) -> None:
        kind = state.get("kind")
        if kind != "uds":
            raise ValueError(
                f"checkpoint was written by a {kind!r} campaign; "
                f"rebuild with the matching campaign class")
        target = int(state["sim_now"])
        if target < self.sim.now:
            raise ValueError(
                "checkpoint predates the rebuilt bench's settle point; "
                "the resume factory must match the original run")
        # The bench is quiet between requests, so advancing the clock
        # of a freshly built bench reproduces the killed run's world at
        # the checkpoint tick (same arbitration history: none pending).
        if target > self.sim.now:
            self.sim.run_for(target - self.sim.now)
        self._started_at = int(state["started_at"])
        self.requests_sent = int(state["requests_sent"])
        self.timeouts = int(state.get("timeouts", 0))
        self.positives = int(state.get("positives", 0))
        self.probes_sent = int(state.get("probes_sent", 0))
        self.nrc_counts = {int(nrc): int(count)
                           for nrc, count in
                           state.get("nrc_counts", {}).items()}
        self._recent = deque(
            ((int(time), bytes.fromhex(payload))
             for time, payload in state.get("recent", ())),
            maxlen=self._recent.maxlen)
        self._findings = [finding_from_dict(item)
                          for item in state.get("findings", ())]
        self.generator.load_state(state.get("generator", {}))
        self.server.load_state(state.get("server", {}))
        self.client.load_state(state.get("client", {}))
        self._next_checkpoint = self.requests_sent + self.checkpoint_every

    def state_digest(self) -> str:
        """Fingerprint of campaign + bench state (for resume tests)."""
        blob = json.dumps(self._state_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Result
    # ------------------------------------------------------------------
    @property
    def findings(self) -> list[Finding]:
        return list(self._findings)

    def _build_result(self) -> FuzzResult:
        generator = self.generator
        coverage = getattr(generator, "coverage", None)
        health = {
            "requests_sent": self.requests_sent,
            "timeouts": self.timeouts,
            "positives": self.positives,
            "probes_sent": self.probes_sent,
            "nrc_counts": {f"0x{nrc:02X}": count
                           for nrc, count in sorted(
                               self.nrc_counts.items())},
            "stale_responses": self.client.stale_responses,
            "aborted_requests": self.client.aborted_requests,
            "key_algorithm": getattr(generator, "key_algorithm_name",
                                     None),
            "key_algorithm_index": getattr(generator, "key_algorithm",
                                           None),
            "server_digest": self.server.state_digest(),
            "client_digest": self.client.state_digest(),
        }
        if coverage is not None:
            health["coverage"] = coverage.summary()
        return FuzzResult(
            name=self.name,
            seed_label=getattr(generator, "seed_label",
                               type(generator).__name__),
            started_at=self._started_at,
            ended_at=self.sim.now,
            frames_sent=self.requests_sent,
            findings=list(self._findings),
            stop_reason=self._stop_reason,
            health={"uds": health},
        )
