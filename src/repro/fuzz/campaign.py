"""The fuzz campaign: timing loop, monitoring, recording, stop logic.

Implements the paper's test cycle (§I.A):

- random input is sent to the system's interface (the CAN adaptor),
- the system response is monitored (oracles),
- if a failure occurs the conditions that caused it are recorded (the
  recent transmit window is attached to the finding) and the system is
  reset (the optional reset hook),
- the process repeats a large number of times (limits).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.can.adapter import AdapterStatus, PcanStyleAdapter
from repro.can.frame import CanFrame
from repro.fuzz.durability import CampaignJournal
from repro.fuzz.generator import FrameGenerator
from repro.fuzz.oracle import Finding, Oracle
from repro.fuzz.session import (FuzzResult, finding_from_dict,
                                finding_to_dict, frame_from_dict,
                                frame_to_dict)
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.random import rng_state_from_json, rng_state_to_json

# Hot-loop constants, resolved once at import.
_STATUS_OK = AdapterStatus.OK
_STATUS_BUSOFF = AdapterStatus.BUSOFF
_APP_PRIORITY = Simulator.APP_PRIORITY


@dataclass(frozen=True)
class CampaignLimits:
    """When to stop fuzzing.

    At least one bound must be set; an unbounded random campaign would
    run forever (the §V combinatorial explosion in loop form).
    """

    max_frames: int | None = None
    max_duration: int | None = None
    stop_on_finding: bool = True

    def __post_init__(self) -> None:
        if self.max_frames is None and self.max_duration is None:
            raise ValueError(
                "set max_frames and/or max_duration; an unbounded fuzz "
                "campaign never terminates")
        if self.max_frames is not None and self.max_frames <= 0:
            raise ValueError("max_frames must be positive")
        if self.max_duration is not None and self.max_duration <= 0:
            raise ValueError("max_duration must be positive")


class FuzzCampaign:
    """One configured fuzzing run against a target.

    Args:
        sim: the simulation executive (shared with the target).
        adapter: initialised CAN adaptor wired to the target bus.
        generator: frame source (random, targeted, bit-walk, ...).
        limits: stop conditions.
        oracles: detectors bound to this campaign's findings list.
        interval: ticks between transmissions (default the paper's
            1 frame/ms maximum rate).
        interval_jitter: extra uniform random delay per frame; the
            paper's Table IV timestamps show ~1.7 ms mean spacing,
            i.e. 1 ms base plus jitter.
        rng: stream for jitter (only needed when jitter > 0).
        reset_target: called after a finding when the campaign
            continues (power-cycle the SUT, §I.A's "the system is
            reset").
        recent_window: transmit frames remembered for finding context.
        journal: durable journal findings and checkpoints go into; a
            checkpoint is written every ``checkpoint_every`` frames and
            the final result is persisted for :meth:`resume`.
        checkpoint_every: frames between durable checkpoints.
        channel: optional :class:`~repro.can.channel.AdversarialChannel`
            attached to the target bus.  The campaign does not drive
            it -- the bus does -- but owning the reference stamps the
            channel's RNG position into durable checkpoints, which
            marks them as noise-era state: :meth:`resume` replays such
            campaigns from attempt zero instead of mid-run, because a
            rebuilt target world cannot recreate the pre-checkpoint
            corruption history a mid-run restore would need for a
            bit-exact continuation.
    """

    def __init__(self, sim: Simulator, adapter: PcanStyleAdapter,
                 generator: FrameGenerator, *,
                 limits: CampaignLimits,
                 oracles: list[Oracle] | None = None,
                 interval: int = 1 * MS,
                 interval_jitter: int = 0,
                 rng: random.Random | None = None,
                 reset_target: Callable[[], None] | None = None,
                 recent_window: int = 32,
                 name: str = "fuzz-campaign",
                 journal: CampaignJournal | None = None,
                 checkpoint_every: int = 5000,
                 channel=None) -> None:
        if interval < 1 * MS:
            raise ValueError(
                "the fuzzer's maximum rate is one frame per millisecond "
                "(paper §VI); interval must be >= 1 ms")
        if interval_jitter < 0:
            raise ValueError("interval_jitter must be >= 0")
        if interval_jitter > 0 and rng is None:
            raise ValueError("interval_jitter needs an rng stream")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.sim = sim
        self.adapter = adapter
        self.generator = generator
        self.limits = limits
        self.oracles = list(oracles or [])
        self.interval = interval
        self.interval_jitter = interval_jitter
        self.name = name
        self._rng = rng
        self._reset_target = reset_target
        # (transmit time, frame) pairs: the timestamps let a replay
        # reproduce the recorded inter-frame gaps, jitter included.
        self._recent: deque[tuple[int, CanFrame]] = deque(
            maxlen=recent_window)
        self._findings: list[Finding] = []
        self._write_errors: dict[str, int] = {}
        self.frames_sent = 0
        self.frames_skipped = 0
        self.channel = channel
        #: Health hooks installed by :class:`repro.fuzz.health.
        #: CampaignSupervisor`.  The gate may veto a frame before the
        #: write (quarantine); the bus-off handler decides whether an
        #: adapter bus-off ends the campaign (default) or is survived.
        self._tx_gate: Callable[[CanFrame], bool] | None = None
        self._busoff_handler: Callable[[], bool] | None = None
        self._stop_reason = ""
        self._running = False
        self._tx_event = None
        self._started_at = 0
        self.journal = journal
        self.checkpoint_every = checkpoint_every
        self._next_checkpoint = checkpoint_every
        self._label_tx = f"{name}:tx"
        # Hot-path bindings for the per-frame transmit loop: the write
        # call, the frame budget, and direct event-queue access (the
        # rescheduling delay is interval >= 1 ms, always positive, so
        # call_after's validation adds nothing).
        self._write = adapter.write
        self._max_frames = limits.max_frames
        self._push = sim._queue.push
        self._clock = sim.clock

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> FuzzResult:
        """Execute the campaign to completion and return the record.

        A campaign that pins its bench (``self.bench``) runs on the
        fast path when the prover admits it
        (:func:`repro.fuzz.batch.run_world`); any other runs on
        :meth:`_execute`, the reference kernel.
        """
        from repro.fuzz.batch import run_world
        return run_world(self)

    @classmethod
    def resume(cls, journal: "CampaignJournal | str",
               build: Callable[[], "FuzzCampaign"], *,
               checkpoint_every: int | None = None) -> FuzzResult:
        """Continue a journalled campaign from its last durable state.

        ``build`` must deterministically reconstruct the campaign the
        journal belongs to -- same seed, same target factory -- because
        the checkpoint only carries *campaign-side* state (generator
        RNG position, counters, findings, oracle latches); the target
        world is rebuilt fresh and the next transmission is scheduled
        at its checkpointed absolute time.

        Three cases, in order: the run already completed (its saved
        result is returned, nothing is re-run); a checkpoint exists
        (the rebuilt campaign restores it and runs out the remainder);
        neither survived (the campaign starts from attempt zero --
        deterministic, so nothing is lost but wall time).

        A checkpoint that carries adversarial-channel state forces the
        from-zero path even when it loaded cleanly.  Mid-run restore
        cannot be bit-exact under noise: the rebuilt target world never
        saw the pre-checkpoint corruption, so its error counters and
        retransmission queues -- and with them the interleaving of
        channel RNG draws -- would diverge from the killed run's.
        Replaying from attempt zero keeps the determinism guarantee
        (same seeds, same config, same result) at the price of wall
        time; the journal still preserves findings across the crash.
        A UDS campaign's journal is refused (:func:`journal_of_kind`).
        """
        return resume_campaign(journal_of_kind(journal, "frame"), build,
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
        self._next_checkpoint = self.frames_sent + self.checkpoint_every

    def _execute(self, resume_state: dict | None) -> FuzzResult:
        journal = self.journal
        if resume_state is None:
            self._started_at = self.sim.now
            if journal is not None:
                journal.append({"type": "start", "name": self.name,
                                "started_at": self._started_at})
        else:
            self._restore(resume_state)
            if journal is not None:
                journal.append({"type": "resume",
                                "frames_sent": self.frames_sent,
                                "generation": journal.generation})
        for oracle in self.oracles:
            oracle.bind(self._on_finding)
            attach = getattr(oracle, "attach_campaign", None)
            if attach is not None:
                attach(self)
            oracle.start(self.sim)
        if resume_state is not None:
            for oracle in self.oracles:
                state = resume_state.get("oracles", {}).get(oracle.name)
                if state is not None:
                    oracle.load_state(state)
        self._running = True
        if resume_state is None:
            self._schedule_next(first=True)
        else:
            # The checkpoint recorded the *absolute* time of the next
            # scheduled transmission; resuming at that exact tick (and
            # with the restored RNG state) reproduces the frame stream
            # the killed run would have sent.
            self._tx_event = self.sim.call_at(
                resume_state["next_tx_time"], self._transmit,
                label=self._label_tx)
        deadline = self._deadline(self._started_at)
        self.sim.run_until(deadline)
        if self._running:
            self._finish("time limit reached")
        health = {}
        for oracle in self.oracles:
            exporter = getattr(oracle, "health_dict", None)
            if exporter is not None:
                health[oracle.name] = exporter()
        result = FuzzResult(
            name=self.name,
            seed_label=getattr(
                getattr(self.generator, "config", None), "seed_label",
                type(self.generator).__name__),
            started_at=self._started_at,
            ended_at=self.sim.now,
            frames_sent=self.frames_sent,
            findings=list(self._findings),
            write_errors=dict(self._write_errors),
            stop_reason=self._stop_reason,
            config_rows=self._config_rows(),
            frames_skipped=self.frames_skipped,
            health=health,
        )
        if journal is not None:
            journal.append({"type": "end",
                            "frames_sent": self.frames_sent,
                            "findings": len(self._findings),
                            "stop_reason": self._stop_reason})
            journal.save_result(result.to_dict())
        return result

    # ------------------------------------------------------------------
    # Durable checkpoints
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        """Campaign-side state for one durable checkpoint.

        Deliberately excludes the target world: live benches hold
        closures the journal cannot serialise, so resume rebuilds the
        target deterministically from its factory and only the
        campaign's counters, RNG positions, findings, and oracle
        latches travel through the checkpoint.
        """
        state = {
            "format": 1,
            "kind": "frame",
            "name": self.name,
            "started_at": self._started_at,
            "frames_sent": self.frames_sent,
            "frames_skipped": self.frames_skipped,
            "sim_now": self._clock._now,
            "next_tx_time": self._tx_event.time,
            "recent": [[time, frame_to_dict(frame)]
                       for time, frame in self._recent],
            "findings": [finding_to_dict(f) for f in self._findings],
            "write_errors": dict(self._write_errors),
            "oracles": {oracle.name: oracle.state_dict()
                        for oracle in self.oracles},
        }
        exporter = getattr(self.generator, "state_dict", None)
        if exporter is not None:
            state["generator"] = exporter()
        if self._rng is not None:
            state["jitter_rng"] = rng_state_to_json(self._rng.getstate())
        if self.channel is not None:
            state["channel"] = self.channel.state_dict()
        return state

    def _restore(self, state: dict) -> None:
        kind = state.get("kind", "frame")
        if kind != "frame":
            raise ValueError(
                f"checkpoint was written by a {kind!r} campaign; "
                f"rebuild with the matching campaign class")
        self._started_at = state["started_at"]
        self.frames_sent = state["frames_sent"]
        self._next_checkpoint = self.frames_sent + self.checkpoint_every
        self._recent = deque(
            ((time, frame_from_dict(payload))
             for time, payload in state.get("recent", [])),
            maxlen=self._recent.maxlen)
        self._findings = [finding_from_dict(item)
                          for item in state.get("findings", [])]
        self._write_errors = dict(state.get("write_errors", {}))
        generator_state = state.get("generator")
        if generator_state is not None:
            loader = getattr(self.generator, "load_state", None)
            if loader is None:
                raise ValueError(
                    "checkpoint carries generator state but this "
                    "generator cannot load it")
            loader(generator_state)
        self.frames_skipped = state.get("frames_skipped",
                                        self.frames_skipped)
        jitter = state.get("jitter_rng")
        if jitter is not None and self._rng is not None:
            self._rng.setstate(rng_state_from_json(jitter))
        channel_state = state.get("channel")
        if channel_state is not None and self.channel is not None:
            self.channel.load_state(channel_state)

    def _write_checkpoint(self) -> None:
        journal = self.journal
        self._next_checkpoint = self.frames_sent + self.checkpoint_every
        journal.save_checkpoint(self._state_dict())

    def _config_rows(self) -> list[tuple[str, str, str]]:
        config = getattr(self.generator, "config", None)
        if config is not None and hasattr(config, "describe"):
            return config.describe()
        return []

    def _deadline(self, started_at: int) -> int:
        candidates = []
        if self.limits.max_duration is not None:
            candidates.append(started_at + self.limits.max_duration)
        if self.limits.max_frames is not None:
            # Worst-case span of max_frames sends plus settle time for
            # in-flight responses and oracle sampling.
            span = self.limits.max_frames * (
                self.interval + self.interval_jitter)
            candidates.append(started_at + span + 100 * MS)
        return min(candidates)

    def _schedule_next(self, *, first: bool = False) -> None:
        delay = self.interval
        if self.interval_jitter > 0:
            delay += self._rng.randint(0, self.interval_jitter)
        if first:
            delay = 0
        self._tx_event = self.sim.call_after(
            delay, self._transmit, label=self._label_tx)

    def _transmit(self) -> None:
        if not self._running:
            return
        max_frames = self._max_frames
        if max_frames is not None and self.frames_sent >= max_frames:
            self._finish("frame limit reached")
            return
        try:
            frame = self.generator.next_frame()
        except StopIteration:
            self._finish("generator exhausted")
            return
        gate = self._tx_gate
        if gate is not None and not gate(frame):
            # Quarantined by the campaign supervisor: the frame is
            # consumed from the generator stream (so the RNG position
            # advances identically with or without a resume) but never
            # reaches the wire, is not counted as sent, and stays out
            # of the recent window findings attach.
            self.frames_skipped += 1
        else:
            status = self._write(frame)
            if status is _STATUS_OK:
                self.frames_sent += 1
                self._recent.append((self._clock._now, frame))
            else:
                key = status.value
                self._write_errors[key] = self._write_errors.get(key, 0) + 1
                if status is _STATUS_BUSOFF:
                    handler = self._busoff_handler
                    if handler is None or not handler():
                        self._finish("adapter bus-off")
                        return
        if not self._running:
            # An oracle finding fired synchronously inside the write
            # and _finish already ran; scheduling another transmission
            # would leave a stray tx event behind a finished campaign.
            return
        # _schedule_next inlined: this rescheduling runs once per fuzzed
        # frame, and the extra call shows up in campaign throughput.
        delay = self.interval
        if self.interval_jitter > 0:
            delay += self._rng.randint(0, self.interval_jitter)
        self._tx_event = self._push(self._clock._now + delay, self._transmit,
                                    _APP_PRIORITY, self._label_tx)
        # Checkpoint with the next transmission already scheduled, so
        # the saved state names the absolute time resume must fire at.
        if self.journal is not None and self.frames_sent >= self._next_checkpoint:
            self._write_checkpoint()

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def _on_finding(self, finding: Finding) -> None:
        recent = tuple(self._recent)
        enriched = Finding(
            time=finding.time,
            oracle=finding.oracle,
            description=finding.description,
            recent_frames=tuple(frame for _, frame in recent),
            recent_times=tuple(time for time, _ in recent),
        )
        self._findings.append(enriched)
        if self.journal is not None:
            # Write-ahead: the finding reaches the durable log the
            # moment it fires, not at the next checkpoint -- a crash in
            # between loses no findings.
            self.journal.append({"type": "finding",
                                 "frames_sent": self.frames_sent,
                                 "finding": finding_to_dict(enriched)})
        if self.limits.stop_on_finding:
            self._finish(f"finding from oracle {finding.oracle!r}")
        elif self._reset_target is not None:
            self._reset_target()

    @property
    def findings(self) -> list[Finding]:
        return list(self._findings)

    def _finish(self, reason: str) -> None:
        if not self._running:
            return
        self._running = False
        self._stop_reason = reason
        if self._tx_event is not None:
            self.sim.cancel(self._tx_event)
            self._tx_event = None
        for oracle in self.oracles:
            oracle.stop()
        self.sim.stop()


def resume_point(journal: CampaignJournal
                 ) -> tuple[FuzzResult | None, dict | None]:
    """Where a journalled campaign continues: ``(saved result, None)``
    when it already completed, else ``(None, checkpoint state)``.

    The one resume rule, in order: a saved result short-circuits, a
    loadable checkpoint is restored, otherwise (state ``None``) the
    campaign starts from attempt zero.  Checkpoints carrying
    adversarial-channel state force the from-zero path: mid-run restore
    cannot be bit-exact under injected noise (see
    :meth:`FuzzCampaign.resume`).
    """
    saved = journal.load_result()
    if saved is not None:
        return FuzzResult.from_dict(saved), None
    state = journal.load_checkpoint()
    if state is not None and state.get("channel") is not None:
        state = None
    return None, state


def journal_of_kind(journal: "CampaignJournal | str",
                    kind: str) -> CampaignJournal:
    """``journal``, opened, unless its first ``start`` record names
    another campaign kind (a frame campaign's names none): resuming it
    would report that run's result, or restore its checkpoint, as this
    kind's.  The refusal is a :class:`ValueError` naming both kinds."""
    if not isinstance(journal, CampaignJournal):
        journal = CampaignJournal(journal)
    for record in journal.records:
        if record.get("type") == "start":
            found = record.get("kind", "frame")
            if found != kind:
                raise ValueError(f"the journal holds a {found!r} "
                                 f"campaign, not a {kind!r} campaign")
            break
    return journal


def resume_campaign(journal: "CampaignJournal | str", build: Callable,
                    *, checkpoint_every: int | None = None) -> FuzzResult:
    """Continue any journalled campaign from its last durable state.

    The shared resume protocol behind :meth:`FuzzCampaign.resume` and
    :meth:`repro.fuzz.uds_campaign.UdsFuzzCampaign.resume`: ``build``
    deterministically reconstructs the campaign object (any class with
    ``attach_journal`` and ``_execute``), which continues from
    :func:`resume_point` through :func:`repro.fuzz.batch.run_world`,
    the same fast-path choice :meth:`FuzzCampaign.run` makes.
    """
    from repro.fuzz.batch import run_world

    if not isinstance(journal, CampaignJournal):
        journal = CampaignJournal(journal)
    saved, state = resume_point(journal)
    if saved is not None:
        return saved
    campaign = build()
    campaign.attach_journal(journal, checkpoint_every=checkpoint_every)
    return run_world(campaign, state)
