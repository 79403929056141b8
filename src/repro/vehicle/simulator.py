"""Vehicle simulator front-end: signal tracing and the display panel.

This is the Vector-rig substitute for *observation*: it taps one or
more buses, decodes frames against the signal database and keeps time
series per signal.  Figs 6 and 7 are these traces under normal and
fuzzed traffic; Fig 8 is the rendered panel showing a physically
invalid value.

The simulator performs **no plausibility filtering**, matching the
paper's observation that "the vehicle simulation handles physically
invalid values in the same way as physically plausible ones".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.can.bus import CanBus
from repro.can.frame import TimestampedFrame
from repro.sim.clock import SECOND
from repro.vehicle.signals import SignalDatabase


@dataclass
class SignalTrace:
    """Time series of one decoded signal."""

    name: str
    unit: str = ""
    points: list[tuple[float, float]] = field(default_factory=list)

    def append(self, time_seconds: float, value: float) -> None:
        self.points.append((time_seconds, value))

    def values(self) -> list[float]:
        return [v for _, v in self.points]

    @property
    def last(self) -> float | None:
        return self.points[-1][1] if self.points else None

    def minimum(self) -> float:
        if not self.points:
            raise ValueError(f"trace {self.name!r} is empty")
        return min(self.values())

    def maximum(self) -> float:
        if not self.points:
            raise ValueError(f"trace {self.name!r} is empty")
        return max(self.values())

    def roughness(self) -> float:
        """Mean absolute successive difference.

        The quantitative form of "the simulator responds erratically":
        normal physical signals change slowly between samples, fuzzed
        ones jump across the whole range.  Fig 7's bench compares this
        metric between the normal and fuzzed runs.
        """
        values = self.values()
        if len(values) < 2:
            return 0.0
        total = sum(abs(b - a) for a, b in zip(values, values[1:]))
        return total / (len(values) - 1)

    def windowed(self, start: float, end: float) -> "SignalTrace":
        """The sub-trace with ``start <= t < end`` (seconds)."""
        return SignalTrace(self.name, self.unit, [
            (t, v) for t, v in self.points if start <= t < end])


class VehicleSimulator:
    """Signal tracing and display across one or more buses."""

    def __init__(self, database: SignalDatabase,
                 buses: list[CanBus]) -> None:
        self._database = database
        self._traces: dict[str, SignalTrace] = {}
        self._frames_seen = 0
        self._frames_unknown = 0
        for bus in buses:
            bus.add_tap(self._on_frame)

    # ------------------------------------------------------------------
    # Tap
    # ------------------------------------------------------------------
    def _on_frame(self, stamped: TimestampedFrame) -> None:
        self._frames_seen += 1
        values = self._database.decode_payload(
            stamped.frame.can_id, stamped.frame.data)
        if values is None:
            self._frames_unknown += 1
            return
        message = self._database.by_id(stamped.frame.can_id)
        seconds = stamped.time / SECOND
        for name, value in values.items():
            trace = self._traces.get(name)
            if trace is None:
                trace = SignalTrace(name, message.signal(name).unit)
                self._traces[name] = trace
            trace.append(seconds, value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def frames_seen(self) -> int:
        return self._frames_seen

    @property
    def frames_unknown(self) -> int:
        """Frames with ids absent from the database (fuzz frames mostly)."""
        return self._frames_unknown

    @property
    def signal_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._traces))

    def trace(self, name: str) -> SignalTrace:
        if name not in self._traces:
            raise KeyError(
                f"no trace for signal {name!r}; seen {self.signal_names}")
        return self._traces[name]

    def current_values(self) -> dict[str, float]:
        """Latest decoded value of every signal (the display state)."""
        return {name: trace.last for name, trace in self._traces.items()
                if trace.last is not None}

    def render_panel(self, names: tuple[str, ...] = (
            "EngineSpeed", "VehicleSpeed", "CoolantTemp",
            "FuelLevel")) -> str:
        """Text rendering of the dashboard (the Fig 8 screenshot).

        Values render exactly as decoded; a negative RPM prints as a
        negative RPM.
        """
        lines = ["+--------------- VEHICLE SIMULATOR ---------------+"]
        for name in names:
            trace = self._traces.get(name)
            if trace is None or trace.last is None:
                rendered = "---"
            else:
                rendered = f"{trace.last:10.1f} {trace.unit}"
            lines.append(f"| {name:<20} {rendered:>24} |")
        lines.append("+--------------------------------------------------+")
        return "\n".join(lines)
