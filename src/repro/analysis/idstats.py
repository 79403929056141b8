"""Identifier statistics: which ids live on the bus.

The first step of the paper's targeted-fuzzing recommendation
("fuzzing around known message ids monitored on the CAN bus") is
exactly :func:`observed_ids`.
"""

from __future__ import annotations

from repro.can.frame import TimestampedFrame


def observed_ids(stamped: list[TimestampedFrame]) -> tuple[int, ...]:
    """Distinct identifiers in a capture, sorted."""
    return tuple(sorted({s.frame.can_id for s in stamped}))
