"""Capture diffing: find the message a vehicle feature emits.

The workflow: capture the bus at rest (baseline), operate the feature
(lock the doors), capture again, and diff.  New identifiers and byte
positions whose value sets changed point at the feature's message --
how the paper's authors knew which id "affect[s] the instrument
cluster gauge needles".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.can.frame import TimestampedFrame


@dataclass(frozen=True)
class ByteChange:
    """A byte position whose observed value set changed."""

    position: int
    baseline_values: tuple[int, ...]
    observed_values: tuple[int, ...]


@dataclass(frozen=True)
class CaptureDiff:
    """Result of diffing two captures."""

    new_ids: tuple[int, ...]
    vanished_ids: tuple[int, ...]
    changed_bytes: dict[int, tuple[ByteChange, ...]] = field(
        default_factory=dict)


def _value_sets(stamped: list[TimestampedFrame]
                ) -> dict[int, list[set[int]]]:
    sets: dict[int, list[set[int]]] = {}
    for item in stamped:
        payload = item.frame.data
        per_id = sets.setdefault(item.frame.can_id, [])
        while len(per_id) < len(payload):
            per_id.append(set())
        for position, byte in enumerate(payload):
            per_id[position].add(byte)
    return sets


def diff_captures(baseline: list[TimestampedFrame],
                  observed: list[TimestampedFrame]) -> CaptureDiff:
    """Diff two captures of the same bus."""
    base_sets = _value_sets(baseline)
    obs_sets = _value_sets(observed)
    new_ids = tuple(sorted(set(obs_sets) - set(base_sets)))
    vanished = tuple(sorted(set(base_sets) - set(obs_sets)))
    changed: dict[int, tuple[ByteChange, ...]] = {}
    for can_id in set(base_sets) & set(obs_sets):
        base_positions = base_sets[can_id]
        obs_positions = obs_sets[can_id]
        changes = []
        for position in range(max(len(base_positions),
                                  len(obs_positions))):
            base_values = (base_positions[position]
                           if position < len(base_positions) else set())
            obs_values = (obs_positions[position]
                          if position < len(obs_positions) else set())
            if obs_values - base_values:
                changes.append(ByteChange(
                    position=position,
                    baseline_values=tuple(sorted(base_values)),
                    observed_values=tuple(sorted(obs_values))))
        if changes:
            changed[can_id] = tuple(changes)
    return CaptureDiff(new_ids=new_ids, vanished_ids=vanished,
                       changed_bytes=changed)
