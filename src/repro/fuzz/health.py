"""Campaign self-healing: bus-DoS detection, backoff, quarantine.

The paper's §VI cautions that a fuzzer transmitting at full rate "could
cause the total failure of the vehicle electronics": the campaign's own
traffic saturates the bus, drives the target into bus-off, and from
then on the run finds nothing while still burning hours.  The
:class:`CampaignSupervisor` closes that loop.  It rides the existing
oracle plumbing (bind / start / checkpoint state) but never reports
findings; instead it watches for three bus-DoS signatures --

- **utilisation saturation**: the windowed busy fraction of the bus
  exceeds a threshold,
- **target silence**: no frame from any node but the fuzzer's own
  adaptor for longer than a timeout,
- **peer bus-off**: a target controller has latched bus-off,

-- and when one fires it records a :class:`BusDownEvent`, backs the
transmit rate off, quarantines the id region the recent window
implicates, and resumes full rate once the bus looks healthy again.
An adapter-side bus-off (the fuzzer's own channel dying) is survived
too: the supervisor waits out the CAN recovery window and re-inits the
channel instead of ending the campaign.

Noise makes liars of oracles, so findings collected under an
:class:`~repro.can.channel.AdversarialChannel` are *candidates* until
:func:`confirm_findings` replays each one against a clean-channel
target and keeps only the survivors -- the false-positive gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.can.bus import CanBus
from repro.can.errors import BUS_OFF_RECOVERY_BITS
from repro.can.frame import CanFrame, TimestampedFrame
from repro.fuzz.oracle import Finding, Oracle
from repro.fuzz.replay import ConfirmationReport, Replayer, TargetFactory
from repro.sim.clock import MS, SECOND
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess

#: Windowed busy fraction treated as saturation (CAN folklore puts
#: healthy buses under ~80%).
UTILISATION_THRESHOLD = 0.90
#: Multiplier applied to the campaign's transmit interval while
#: degraded.
BACKOFF_FACTOR = 4


@dataclass(frozen=True)
class BusDownEvent:
    """One detected bus-DoS episode."""

    time: int
    reason: str
    utilisation: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"time": self.time, "reason": self.reason,
                "utilisation": self.utilisation, "detail": self.detail}

    @classmethod
    def from_dict(cls, payload: dict) -> "BusDownEvent":
        return cls(time=payload["time"], reason=payload["reason"],
                   utilisation=payload.get("utilisation", 0.0),
                   detail=payload.get("detail", ""))


class CampaignSupervisor(Oracle):
    """Keeps a fuzz campaign productive while the bus degrades.

    Add it to the campaign's oracle list; the campaign hands itself
    over via ``attach_campaign`` before the run starts, which installs
    the transmit gate (quarantine) and the adapter bus-off handler.

    Args:
        bus: the target bus to watch.
        check_period: sampling interval for the health check.
        silence_timeout: ticks without any non-fuzzer frame before the
            target counts as silenced.
        quarantine_duration: ticks a quarantined id stays gated.
        max_recorded_events: :class:`BusDownEvent` records kept in
            detail (checkpoints and reports carry them verbatim, so a
            multi-hour chaos run must not grow them without bound);
            episodes past the cap still count in the counters.
    """

    def __init__(self, bus: CanBus, *, check_period: int = 50 * MS,
                 silence_timeout: int = 500 * MS,
                 quarantine_duration: int = 1 * SECOND,
                 max_recorded_events: int = 256,
                 name: str = "campaign-health") -> None:
        super().__init__(name)
        self._bus = bus
        self.check_period = check_period
        self.silence_timeout = silence_timeout
        self.quarantine_duration = quarantine_duration
        self.max_recorded_events = max_recorded_events
        self.events: list[BusDownEvent] = []
        self.events_total = 0
        self.resumes = 0
        self.ids_quarantined = 0
        self.frames_quarantined = 0
        self.adapter_busoffs = 0
        self.adapter_resets = 0
        self.peer_recoveries = 0
        self._peers_bus_off: set[str] = set()
        self._campaign = None
        self._own_sender = ""
        self._base_interval: int | None = None
        self._degraded = False
        self._quarantine: dict[int, int] = {}
        self._last_peer_frame: int | None = None
        self._last_busy = 0
        self._last_check = 0
        self._reset_pending = False
        self._sim: Simulator | None = None
        self._process: PeriodicProcess | None = None
        bus.add_tap(self._on_frame)

    # ------------------------------------------------------------------
    # Campaign wiring (called by FuzzCampaign._execute)
    # ------------------------------------------------------------------
    def attach_campaign(self, campaign) -> None:
        self._campaign = campaign
        self._own_sender = campaign.adapter.controller.name
        self._base_interval = campaign.interval
        campaign._tx_gate = self._gate
        campaign._busoff_handler = self._on_adapter_busoff

    def start(self, sim: Simulator) -> None:
        self._sim = sim
        self._last_busy = self._bus.stats.busy_ticks
        self._last_check = sim.now
        self._process = PeriodicProcess(
            sim, self.check_period, self._check,
            label=f"oracle:{self.name}")
        self._process.start()

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def _on_frame(self, stamped: TimestampedFrame) -> None:
        if stamped.sender != self._own_sender:
            self._last_peer_frame = stamped.time

    def _latched_peers(self) -> set[str]:
        return {node.name for node in self._bus.nodes
                if (node.name != self._own_sender
                    and node.counters.bus_off_latched)}

    def _check(self) -> None:
        sim = self._sim
        now = sim.now
        busy = self._bus.stats.busy_ticks
        window = now - self._last_check
        utilisation = (busy - self._last_busy) / window if window > 0 else 0.0
        self._last_busy = busy
        self._last_check = now
        reasons = []
        if utilisation >= UTILISATION_THRESHOLD:
            reasons.append(("utilisation saturation",
                            f"bus {utilisation:.0%} busy over the last "
                            f"{window / MS:.0f} ms"))
        latched = self._latched_peers()
        self.peer_recoveries += len(self._peers_bus_off - latched)
        self._peers_bus_off = latched
        if latched:
            names = ", ".join(sorted(latched))
            reasons.append(("peer bus-off", f"node(s) {names} bus-off"))
        last = self._last_peer_frame
        if last is not None and now - last > self.silence_timeout:
            reasons.append(("target silence",
                            f"no non-fuzzer frame for "
                            f"{(now - last) / MS:.0f} ms"))
        if reasons:
            if not self._degraded:
                self._enter_degraded(now, utilisation, reasons)
        elif self._degraded:
            self._leave_degraded()

    def _enter_degraded(self, now: int, utilisation: float,
                        reasons: list[tuple[str, str]]) -> None:
        self._degraded = True
        for reason, detail in reasons:
            self._record_event(BusDownEvent(
                time=now, reason=reason,
                utilisation=utilisation, detail=detail))
        campaign = self._campaign
        if campaign is None:
            return
        campaign.interval = self._base_interval * BACKOFF_FACTOR
        # Quarantine the id the recent transmit window implicates most:
        # under a DoS the dominant recently-sent id is the likeliest
        # culprit (a low arbitration id hogging the wire).
        counts: dict[int, int] = {}
        for _, frame in campaign._recent:
            counts[frame.can_id] = counts.get(frame.can_id, 0) + 1
        if counts:
            culprit = max(sorted(counts), key=lambda can_id: counts[can_id])
            self._quarantine[culprit] = now + self.quarantine_duration
            self.ids_quarantined += 1

    def _record_event(self, event: BusDownEvent) -> None:
        self.events_total += 1
        if len(self.events) < self.max_recorded_events:
            self.events.append(event)

    def _leave_degraded(self) -> None:
        self._degraded = False
        self.resumes += 1
        if self._campaign is not None:
            self._campaign.interval = self._base_interval

    # ------------------------------------------------------------------
    # Hooks installed on the campaign
    # ------------------------------------------------------------------
    def _gate(self, frame: CanFrame) -> bool:
        quarantine = self._quarantine
        if not quarantine:
            return True
        until = quarantine.get(frame.can_id)
        if until is None:
            return True
        if self._sim is not None and self._sim.now >= until:
            del quarantine[frame.can_id]
            return True
        self.frames_quarantined += 1
        return False

    def _on_adapter_busoff(self) -> bool:
        """The fuzzer's own channel went bus-off: survive it.

        Mirrors what the paper's operator would do at the bench --
        wait for the bus to calm down, re-initialise the PCAN channel,
        carry on.  The reset is scheduled one CAN recovery window out
        (128 x 11 bit times), deterministic and idempotent: further
        failing writes while the reset is pending change nothing.
        """
        self.adapter_busoffs += 1
        if self._reset_pending or self._campaign is None:
            return True
        self._reset_pending = True
        now = self._sim.now if self._sim is not None else 0
        self._record_event(BusDownEvent(
            time=now, reason="adapter bus-off", utilisation=0.0,
            detail="fuzzer channel re-init scheduled"))
        delay = self._bus.timing.bits_to_ticks(BUS_OFF_RECOVERY_BITS)
        self._sim.call_after(delay, self._reset_adapter,
                             label=f"oracle:{self.name}:adapter-reset")
        return True

    def _reset_adapter(self) -> None:
        self._reset_pending = False
        if self._campaign is not None:
            self._campaign.adapter.reset()
            self.adapter_resets += 1

    # ------------------------------------------------------------------
    # Checkpoint state and reporting
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update({
            "events": [event.to_dict() for event in self.events],
            "events_total": self.events_total,
            "resumes": self.resumes,
            "ids_quarantined": self.ids_quarantined,
            "frames_quarantined": self.frames_quarantined,
            "adapter_busoffs": self.adapter_busoffs,
            "adapter_resets": self.adapter_resets,
            "peer_recoveries": self.peer_recoveries,
            "peers_bus_off": sorted(self._peers_bus_off),
            "degraded": self._degraded,
            "quarantine": {str(can_id): until for can_id, until
                           in self._quarantine.items()},
            "last_peer_frame": self._last_peer_frame,
            "reset_pending": self._reset_pending,
        })
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.events = [BusDownEvent.from_dict(item)
                       for item in state.get("events", [])]
        self.events_total = state.get("events_total", len(self.events))
        self.resumes = state.get("resumes", self.resumes)
        self.ids_quarantined = state.get("ids_quarantined",
                                         self.ids_quarantined)
        self.frames_quarantined = state.get("frames_quarantined",
                                            self.frames_quarantined)
        self.adapter_busoffs = state.get("adapter_busoffs",
                                         self.adapter_busoffs)
        self.adapter_resets = state.get("adapter_resets",
                                        self.adapter_resets)
        self.peer_recoveries = state.get("peer_recoveries",
                                         self.peer_recoveries)
        self._peers_bus_off = set(state.get("peers_bus_off", ()))
        self._degraded = state.get("degraded", self._degraded)
        self._quarantine = {int(can_id): until for can_id, until
                            in state.get("quarantine", {}).items()}
        self._last_peer_frame = state.get("last_peer_frame",
                                          self._last_peer_frame)
        if self._degraded and self._campaign is not None:
            # Re-apply the backoff the killed run was operating under;
            # the rebuilt campaign came up at its base interval.
            self._campaign.interval = self._base_interval * BACKOFF_FACTOR
        if state.get("reset_pending") and self._campaign is not None:
            # The killed run was waiting out an adapter recovery window
            # whose timer died with its simulator; start a fresh one.
            self._reset_pending = True
            delay = self._bus.timing.bits_to_ticks(BUS_OFF_RECOVERY_BITS)
            self._sim.call_after(delay, self._reset_adapter,
                                 label=f"oracle:{self.name}:adapter-reset")

    def health_dict(self) -> dict:
        """JSON-ready telemetry for the campaign report and CI gates."""
        return {
            "bus_down_events": [event.to_dict() for event in self.events],
            "bus_down_events_total": self.events_total,
            "resumes": self.resumes,
            "ids_quarantined": self.ids_quarantined,
            "frames_quarantined": self.frames_quarantined,
            "adapter_busoffs": self.adapter_busoffs,
            "adapter_resets": self.adapter_resets,
            "peer_recoveries": self.peer_recoveries,
            "degraded": self._degraded,
        }

    @property
    def degraded(self) -> bool:
        return self._degraded


def confirm_findings(findings: list[Finding], factory: TargetFactory, *,
                     interval: int = 1 * MS,
                     settle: int = 50 * MS) -> ConfirmationReport:
    """Replay each finding against a clean-channel target.

    ``factory`` must build the target *without* an adversarial channel
    attached -- the whole point is deciding whether the finding was the
    target misbehaving or the wire lying.  A finding whose recorded
    window still trips the failure probe on the clean build is
    confirmed; the rest are noise artefacts, filtered and counted.
    """
    return Replayer(factory, interval=interval,
                    settle=settle).confirm(findings)
