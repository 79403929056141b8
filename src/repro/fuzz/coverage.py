"""Coverage accounting: §V's explosion arithmetic, plus protocol-state
coverage for stateful fuzzing.

The paper: "A standard CAN packet with a 11-bit id and a one byte
payload has half a million packet combinations (2^19).  At a 1 ms
transmission frequency ... it is over eight minutes to transmit all
combinations.  Add another data byte and all combinations transmit
over 1.5 days."  These functions reproduce those numbers and power
the coverage accounting in campaign reports.

:class:`ProtocolStateCoverage` is the stateful counterpart: instead of
counting raw byte combinations it tracks which
``(service, sub-function, NRC, session)`` tuples a diagnostic fuzzer
has exercised -- the paper's "cover all the states of an ECU" turned
into a feedback signal that schedules mutations.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.sim.clock import MS, SECOND


def combination_count(id_bits: int = 11, payload_bytes: int = 1) -> int:
    """Number of distinct (id, payload) combinations.

    >>> combination_count(11, 1)    # the paper's 2**19
    524288
    """
    if id_bits <= 0:
        raise ValueError("id_bits must be positive")
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    return (2 ** id_bits) * (256 ** payload_bytes)


def time_to_exhaust_seconds(combinations: int,
                            interval_ticks: int = 1 * MS) -> float:
    """Seconds to transmit every combination at a fixed interval.

    >>> round(time_to_exhaust_seconds(combination_count(11, 1)) / 60, 1)
    8.7
    """
    if combinations < 0:
        raise ValueError("combinations must be >= 0")
    if interval_ticks <= 0:
        raise ValueError("interval_ticks must be positive")
    return combinations * interval_ticks / SECOND


def expected_frames_to_hit(hit_probability: float) -> float:
    """Mean frames until the first success of a per-frame Bernoulli.

    The geometric-distribution mean behind our Table V analysis: with
    per-frame hit probability ``p`` the expected wait is ``1/p``.
    """
    if not 0.0 < hit_probability <= 1.0:
        raise ValueError("hit_probability must be in (0, 1]")
    return 1.0 / hit_probability


def unlock_hit_probability(*, id_count: int = 2048, dlc_count: int = 9,
                           byte_values: int = 256,
                           byte_position: int = 0,
                           require_exact_dlc: bool = False,
                           spec_dlc: int = 7,
                           value_bytes: int = 1) -> float:
    """Per-frame probability of triggering the bench unlock.

    Models the two Table V oracles (and the paper's hypothesised
    two-byte variant):

    - the id must match: ``1/id_count``;
    - without the DLC check, any generated length that *contains* the
      checked byte position(s) qualifies;
    - with the DLC check, exactly the specification length qualifies:
      ``1/dlc_count``;
    - each checked byte must match: ``(1/byte_values) ** value_bytes``.
    """
    if id_count <= 0 or dlc_count <= 0 or byte_values <= 0:
        raise ValueError("counts must be positive")
    if value_bytes < 1:
        raise ValueError("value_bytes must be >= 1")
    p_id = 1.0 / id_count
    min_len = byte_position + value_bytes
    if require_exact_dlc:
        if spec_dlc < min_len:
            raise ValueError(
                f"spec DLC {spec_dlc} cannot contain {value_bytes} "
                f"byte(s) at position {byte_position}")
        p_len = 1.0 / dlc_count
    else:
        qualifying = dlc_count - min_len  # lengths min_len..dlc_max
        if qualifying <= 0:
            return 0.0
        p_len = qualifying / dlc_count
    p_bytes = (1.0 / byte_values) ** value_bytes
    return p_id * p_len * p_bytes


def expected_unlock_seconds(*, require_exact_dlc: bool = False,
                            value_bytes: int = 1,
                            interval_ticks: int = 1 * MS) -> float:
    """Analytic mean time-to-unlock for the Table V experiment."""
    probability = unlock_hit_probability(
        require_exact_dlc=require_exact_dlc, value_bytes=value_bytes)
    frames = expected_frames_to_hit(probability)
    return frames * interval_ticks / SECOND


class ProtocolStateCoverage:
    """Coverage over ``(service, sub_function, nrc, session)`` tuples.

    Each observed request/response exchange is reduced to a small
    tuple: the service id, its sub-function (or -1 for services that
    have none), the outcome (0 for a positive response, the NRC byte
    for a negative one, -1 for a timeout), and the session the tester
    believed it was in.  A tuple seen for the first time is "new
    coverage" -- the generator keeps the request in its corpus and
    biases further mutations toward the states that produced it.

    The map is plain data: counts survive checkpoints via
    :meth:`state_dict`/:meth:`load_state`, and :meth:`state_digest`
    fingerprints it for bit-identical resume checks.
    """

    def __init__(self) -> None:
        self._counts: dict[tuple[int, int, int, int], int] = {}

    def record(self, service: int, sub_function: int, nrc: int,
               session: int) -> bool:
        """Count one exchange; True when the tuple is new coverage."""
        key = (int(service), int(sub_function), int(nrc), int(session))
        previous = self._counts.get(key, 0)
        self._counts[key] = previous + 1
        return previous == 0

    def record_batch(self, exchanges) -> list[bool]:
        """Count many exchanges at once; one new-coverage flag each.

        Semantically ``[self.record(*e) for e in exchanges]``, but the
        tuple accounting is vectorised: the four small fields are
        packed into one ``int64`` key per exchange (sub-function and
        NRC are shifted by one so their ``-1`` sentinels pack as
        unsigned digits) and deduplicated in a single ``np.unique``
        pass.  An exchange is new coverage iff its key is absent from
        the map *and* it is the first occurrence of that key within
        the batch -- exactly what the sequential loop reports; that
        loop is the parity oracle in ``tests/fuzz/reference.py``.
        """
        rows = np.asarray([[int(s), int(f), int(n), int(x)]
                           for s, f, n, x in exchanges], dtype=np.int64)
        if rows.size == 0:
            return []
        packed = ((((rows[:, 0] << 9) | (rows[:, 1] + 1)) << 9
                   | (rows[:, 2] + 1)) << 8) | rows[:, 3]
        values, first, inverse, counts = np.unique(
            packed, return_index=True, return_inverse=True,
            return_counts=True)
        known = np.fromiter(
            ((int(rows[i, 0]), int(rows[i, 1]), int(rows[i, 2]),
              int(rows[i, 3])) in self._counts for i in first),
            dtype=bool, count=values.size)
        flags = (np.arange(packed.size) == first[inverse]) \
            & ~known[inverse]
        for j, i in enumerate(first):
            key = (int(rows[i, 0]), int(rows[i, 1]), int(rows[i, 2]),
                   int(rows[i, 3]))
            self._counts[key] = self._counts.get(key, 0) + int(counts[j])
        return [bool(flag) for flag in flags]

    @property
    def tuples_seen(self) -> int:
        """Number of distinct tuples observed."""
        return len(self._counts)

    @property
    def exchanges_recorded(self) -> int:
        """Total exchanges fed into the map."""
        return sum(self._counts.values())

    def services_seen(self) -> set[int]:
        """Distinct service ids observed."""
        return {key[0] for key in self._counts}

    def count(self, service: int, sub_function: int, nrc: int,
              session: int) -> int:
        """How often one tuple has been observed."""
        return self._counts.get(
            (int(service), int(sub_function), int(nrc), int(session)), 0)

    def summary(self) -> dict:
        """Small report block for campaign health output."""
        return {
            "tuples": self.tuples_seen,
            "exchanges": self.exchanges_recorded,
            "services": sorted(f"0x{sid:02X}" for sid in
                               self.services_seen()),
        }

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {"counts": [[*key, count]
                           for key, count in sorted(self._counts.items())]}

    def load_state(self, state: dict) -> None:
        self._counts = {
            (int(row[0]), int(row[1]), int(row[2]), int(row[3])):
                int(row[4])
            for row in state.get("counts", ())}

    def state_digest(self) -> str:
        blob = json.dumps(self.state_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
