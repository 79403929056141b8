"""Test-oracle framework: detecting that the fuzz did something.

The oracle problem -- "how to determine, or not, the correct responses
of a system" -- is the central CPS fuzzing challenge the paper
discusses (§II, §III).  The oracles here implement the monitoring
approaches catalogued from the related work, adapted to our simulated
substrate:

- :class:`AckMessageOracle` -- network communication monitoring: watch
  for a response frame (the bench's unlock acknowledgement message).
- :class:`PhysicalStateOracle` -- sampling a modelled physical output
  (LED, gauge, door actuator); the simulation-world equivalent of the
  paper's proposed OpenCV camera watching the device.

Each oracle reports :class:`Finding` objects to the campaign, which
attaches the recent transmit window ("the conditions that caused it
are recorded").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.can.bus import CanBus
from repro.can.frame import CanFrame, TimestampedFrame
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess


@dataclass(frozen=True)
class Finding:
    """One detection: the oracle fired at a point in the campaign."""

    time: int
    oracle: str
    description: str
    #: Frames the fuzzer transmitted shortly before the detection; the
    #: raw material for :func:`repro.fuzz.minimize.minimize_trace`.
    recent_frames: tuple[CanFrame, ...] = ()
    #: Simulation times (ticks) at which each of ``recent_frames`` was
    #: written, in the same order.  Lets a replay reproduce the
    #: original inter-frame gaps (jitter included) instead of assuming
    #: the fixed grid; empty for findings recorded before this field
    #: existed.
    recent_times: tuple[int, ...] = ()
    #: For protocol-level (UDS) findings: the request payloads leading
    #: up to the detection, typically a state-witness prefix plus the
    #: recent-request window.  Replayed at request granularity by
    #: :class:`repro.uds.replay.UdsReplayer`; empty for frame-level
    #: findings.
    recent_requests: tuple[bytes, ...] = ()


ReportSink = Callable[[Finding], None]


class Oracle:
    """Base oracle: owns a name and a report sink set by the campaign."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._sink: ReportSink | None = None
        self.findings_reported = 0

    def bind(self, sink: ReportSink) -> None:
        """Called by the campaign before the run starts."""
        self._sink = sink

    def start(self, sim: Simulator) -> None:
        """Hook: begin any periodic sampling."""

    def stop(self) -> None:
        """Hook: stop sampling."""

    def report(self, time: int, description: str) -> None:
        if self._sink is None:
            raise RuntimeError(
                f"oracle {self.name!r} reported before being bound to a "
                f"campaign")
        self.findings_reported += 1
        self._sink(Finding(time=time, oracle=self.name,
                           description=description))

    # -- durable checkpoint hooks --------------------------------------
    def state_dict(self) -> dict:
        """JSON-ready detection state for durable campaign checkpoints.

        Subclasses extend the payload with their latches (first-match
        times, counters) so a resumed campaign does not re-report a
        detection the killed run already made.
        """
        return {"findings_reported": self.findings_reported}

    def load_state(self, state: dict) -> None:
        """Restore state exported by :meth:`state_dict` (tolerant of
        missing keys, so pre-durability checkpoints still load)."""
        self.findings_reported = state.get("findings_reported",
                                           self.findings_reported)


class AckMessageOracle(Oracle):
    """Fires when a matching frame appears on the monitored bus.

    Args:
        bus: bus to watch.
        can_id: identifier of the response message.
        predicate: optional payload test; default any payload.
        once: report only the first match (the unlock experiment stops
            at the first acknowledgement).
        exclude_sender: controller name whose frames are ignored --
            normally the fuzzer's own adaptor.  A blind random fuzzer
            occasionally generates the response id itself; counting
            its own injection as a detection would be a false
            positive.
    """

    def __init__(self, bus: CanBus, can_id: int, *,
                 predicate: Callable[[CanFrame], bool] | None = None,
                 once: bool = True, exclude_sender: str = "",
                 name: str = "ack-message") -> None:
        super().__init__(name)
        self.can_id = can_id
        self.predicate = predicate
        self.once = once
        self.exclude_sender = exclude_sender
        self.first_match_time: int | None = None
        bus.add_tap(self._on_frame)

    def _on_frame(self, stamped: TimestampedFrame) -> None:
        if self.once and self.first_match_time is not None:
            return
        if self.exclude_sender and stamped.sender == self.exclude_sender:
            return
        frame = stamped.frame
        if frame.can_id != self.can_id:
            return
        if self.predicate is not None and not self.predicate(frame):
            return
        if self.first_match_time is None:
            self.first_match_time = stamped.time
        self.report(stamped.time,
                    f"response frame {frame.id_hex()} observed "
                    f"({frame.data_hex() or 'no data'})")

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["first_match_time"] = self.first_match_time
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.first_match_time = state.get("first_match_time",
                                          self.first_match_time)


class PhysicalStateOracle(Oracle):
    """Samples a physical output and fires on an unexpected state.

    The simulation-world stand-in for the paper's proposed camera
    ("use video processing software, for example OpenCV, to monitor
    the cyber-physical actions") and for "monitoring of the physical
    responses of the system with external sensors".

    Args:
        probe: reads the physical state (e.g. ``lambda: bcm.locked``).
        expected: the normal value; any other sample is a finding.
        period: sampling interval -- a camera frame period.
    """

    def __init__(self, probe: Callable[[], object], expected: object, *,
                 period: int = 20 * MS, once: bool = True,
                 name: str = "physical-state") -> None:
        super().__init__(name)
        self.probe = probe
        self.expected = expected
        self.period = period
        self.once = once
        self.first_deviation_time: int | None = None
        self._process: PeriodicProcess | None = None
        self._sim: Simulator | None = None

    def start(self, sim: Simulator) -> None:
        self._sim = sim
        self._process = PeriodicProcess(
            sim, self.period, self._sample, label=f"oracle:{self.name}")
        self._process.start()

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()

    def _sample(self) -> None:
        if self.once and self.first_deviation_time is not None:
            return
        observed = self.probe()
        if observed != self.expected:
            assert self._sim is not None
            if self.first_deviation_time is None:
                self.first_deviation_time = self._sim.now
            self.report(self._sim.now,
                        f"physical state changed: expected "
                        f"{self.expected!r}, observed {observed!r}")

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["first_deviation_time"] = self.first_deviation_time
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.first_deviation_time = state.get("first_deviation_time",
                                              self.first_deviation_time)
