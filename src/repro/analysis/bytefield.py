"""Per-byte payload profiling for one identifier.

Classifies each byte position of a message as constant, counter-like
or variable -- the manual reverse-engineering step car hackers perform
on captures ("the value of fuzzing for car hacking, so far, has been
in helping to find how vehicle systems function", §II).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.can.frame import TimestampedFrame


@dataclass(frozen=True)
class BytePositionProfile:
    """Observed behaviour of one payload byte position."""

    position: int
    samples: int
    distinct_values: int
    minimum: int
    maximum: int
    classification: str  # "constant" | "counter" | "variable"


@dataclass(frozen=True)
class ByteFieldProfile:
    """Profile of every byte position of one identifier."""

    can_id: int
    frame_count: int
    length_values: tuple[int, ...]
    positions: tuple[BytePositionProfile, ...]


def _classify(values: list[int]) -> str:
    distinct = set(values)
    if len(distinct) == 1:
        return "constant"
    # Counter heuristic: successive deltas are mostly +1 (mod 256).
    increments = sum(
        1 for a, b in zip(values, values[1:]) if (b - a) % 256 == 1)
    if len(values) > 4 and increments >= 0.8 * (len(values) - 1):
        return "counter"
    return "variable"


def profile_id(stamped: list[TimestampedFrame],
               can_id: int) -> ByteFieldProfile:
    """Profile the payload bytes of ``can_id`` across a capture.

    Raises:
        ValueError: the capture contains no frames with that id; an
            empty profile would silently mislead the analyst.
    """
    payloads = [s.frame.data for s in stamped if s.frame.can_id == can_id]
    if not payloads:
        raise ValueError(f"no frames with id 0x{can_id:X} in capture")
    lengths = tuple(sorted({len(p) for p in payloads}))
    max_length = max(lengths)
    profiles = []
    for position in range(max_length):
        values = [p[position] for p in payloads if len(p) > position]
        profiles.append(BytePositionProfile(
            position=position,
            samples=len(values),
            distinct_values=len(set(values)),
            minimum=min(values),
            maximum=max(values),
            classification=_classify(values),
        ))
    return ByteFieldProfile(
        can_id=can_id,
        frame_count=len(payloads),
        length_values=lengths,
        positions=tuple(profiles),
    )
