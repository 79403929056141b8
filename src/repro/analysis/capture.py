"""Bus capture: the passive recording device.

Models the capture equipment (and the fuzzer's built-in "CAN bus
traffic monitor"): a tap on a bus that stores timestamped frames for
offline analysis, export and seeding mutational fuzzers.
"""

from __future__ import annotations

from collections import deque

from repro.can.bus import CanBus
from repro.can.frame import CanFrame, TimestampedFrame
from repro.can.log import TraceRecord, format_paper_table


class BusCapture:
    """Records every frame delivered on a bus.

    Args:
        bus: the bus to tap.
        limit: maximum retained frames; older frames are discarded
            (``None`` = unbounded, fine for the experiment scales here).
    """

    def __init__(self, bus: CanBus, *, limit: int | None = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("limit must be positive or None")
        self.bus = bus
        self.limit = limit
        self._frames: deque[TimestampedFrame] = deque(maxlen=limit)
        self._armed = True
        bus.add_tap(self._on_frame)

    def _on_frame(self, stamped: TimestampedFrame) -> None:
        if not self._armed:
            return
        self._frames.append(stamped)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def pause(self) -> None:
        self._armed = False

    def resume(self) -> None:
        self._armed = True

    def clear(self) -> None:
        self._frames.clear()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frames)

    @property
    def stamped(self) -> list[TimestampedFrame]:
        return list(self._frames)

    def frames(self) -> list[CanFrame]:
        """The bare frames (generator seeds, statistics input)."""
        return [s.frame for s in self._frames]

    def records(self) -> list[TraceRecord]:
        return [TraceRecord.from_stamped(s) for s in self._frames]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_paper_table(self, *, head: int | None = None) -> str:
        """Table II formatting of (the head of) the capture."""
        records = self.records()
        if head is not None:
            records = records[:head]
        return format_paper_table(records)
