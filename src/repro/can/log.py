"""Trace record formats.

Captures are written in three formats:

- the paper's Table II layout (``Time (ms) | Id | Length | Data``),
- Linux ``candump -l`` log lines (interoperable with can-utils),
- CSV for offline analysis.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from repro.can.frame import TimestampedFrame
from repro.sim.clock import MS, SECOND


@dataclass(frozen=True)
class TraceRecord:
    """One line of a capture: time plus frame fields, decoded for text IO."""

    time_ms: float
    can_id: int
    length: int
    data: bytes
    extended: bool = False
    channel: str = "can0"

    @classmethod
    def from_stamped(cls, stamped: TimestampedFrame) -> "TraceRecord":
        return cls(
            time_ms=stamped.time / MS,
            can_id=stamped.frame.can_id,
            length=stamped.frame.dlc,
            data=stamped.frame.data,
            extended=stamped.frame.extended,
            channel=stamped.channel or "can0",
        )


def format_paper_table(records: list[TraceRecord]) -> str:
    """Render records exactly as the paper's Table II / Table IV.

    Example output line::

        3031.094   000F  6       59 63 BA 5A 77 D5
    """
    lines = ["Time (ms)  Id    Length  Data"]
    for rec in records:
        id_hex = f"{rec.can_id:08X}" if rec.extended else f"{rec.can_id:04X}"
        data_hex = " ".join(f"{b:02X}" for b in rec.data)
        lines.append(f"{rec.time_ms:<10.3f} {id_hex:<5} {rec.length:<7} "
                     f"{data_hex}".rstrip())
    return "\n".join(lines)


def format_candump(records: list[TraceRecord]) -> str:
    """Render records as ``candump -l`` lines.

    Example line: ``(5.328009) can0 043A#1C21177117 71FFFF``.
    """
    lines = []
    for rec in records:
        seconds = rec.time_ms * MS / SECOND
        id_hex = f"{rec.can_id:08X}" if rec.extended else f"{rec.can_id:03X}"
        payload = rec.data.hex().upper()
        lines.append(f"({seconds:.6f}) {rec.channel} {id_hex}#{payload}")
    return "\n".join(lines)


def format_csv(records: list[TraceRecord]) -> str:
    """Render records as CSV with a header row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time_ms", "id_hex", "length", "data_hex", "channel"])
    for rec in records:
        writer.writerow([
            f"{rec.time_ms:.3f}",
            f"{rec.can_id:X}",
            rec.length,
            rec.data.hex().upper(),
            rec.channel,
        ])
    return buffer.getvalue()
