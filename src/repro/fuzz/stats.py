"""Byte-position statistics: the paper's data-integrity analysis.

"The fuzzer analyses CAN data to allow for data integrity checks.
Figure 4 shows the mean data byte value for each byte position,
calculated from 100,000 CAN packets captured from the target vehicle's
network ... In comparison Figure 5 shows the same calculation on
66144 CAN packets generated by the fuzzer.  The linear distribution,
with an overall mean value of 127 for all bytes in all messages,
provid[es] evidence that the fuzzer is correctly generating an even
spread of byte values."

:func:`byte_position_means` is that calculation; the uniformity helpers
turn the visual check into a statistical one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.can.frame import CanFrame

#: Mean of a uniform byte draw over 0-255.
UNIFORM_BYTE_MEAN = 127.5
#: Largest position-mean deviation :func:`is_uniform_spread` accepts.
UNIFORM_SPREAD_TOLERANCE = 3.0


@dataclass(frozen=True)
class ByteColumnStats:
    """Per-byte-position statistics over a set of frames.

    Positions only count frames long enough to contain them, so an
    8-position table over mixed-length traffic is well-defined.
    """

    means: tuple[float, ...]
    counts: tuple[int, ...]
    overall_mean: float
    frame_count: int

    def rows(self) -> list[tuple[int, int, float]]:
        """(position, sample count, mean value) rows for printing."""
        return [(position, count, mean)
                for position, (count, mean)
                in enumerate(zip(self.counts, self.means))]


def byte_position_means(frames: Iterable[CanFrame], *,
                        positions: int = 8) -> ByteColumnStats:
    """Mean byte value at each payload position (Fig 4 / Fig 5).

    Vectorised: all payloads are joined into one buffer, viewed as a
    ``uint8`` array with ``np.frombuffer``, and accumulated per position
    with ``np.bincount`` -- turning the per-byte Python loop into a
    handful of array operations over the whole capture.  Results are
    bit-identical to the per-byte loop the tests keep as its oracle:
    every intermediate sum is an integer far below 2**53, so float64
    accumulation is exact in both implementations regardless of order.

    Args:
        frames: the capture or generator output.
        positions: table width; classic CAN has at most 8.
    """
    if positions <= 0:
        raise ValueError("positions must be positive")
    payloads = [frame.data[:positions] for frame in frames]
    frame_count = len(payloads)
    values = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    if values.size:
        lengths = np.fromiter((len(p) for p in payloads), dtype=np.int64,
                              count=frame_count)
        # Byte index within its own frame: global index minus the
        # frame's start offset, broadcast with repeat.
        starts = np.cumsum(lengths) - lengths
        pos = np.arange(values.size, dtype=np.int64) - np.repeat(
            starts, lengths)
        sums = np.bincount(pos, weights=values, minlength=positions)
        counts = np.bincount(pos, minlength=positions).astype(np.int64)
    else:
        sums = np.zeros(positions, dtype=np.float64)
        counts = np.zeros(positions, dtype=np.int64)
    total_count = int(counts.sum())
    total_sum = float(sums.sum())
    means = tuple(
        float(sums[i] / counts[i]) if counts[i] else float("nan")
        for i in range(positions))
    overall = total_sum / total_count if total_count else float("nan")
    return ByteColumnStats(means=means, counts=tuple(int(c) for c in counts),
                           overall_mean=overall, frame_count=frame_count)


def uniformity_deviation(stats: ByteColumnStats) -> float:
    """Largest absolute deviation of any position mean from uniform.

    A uniform byte draw over 0-255 has mean :data:`UNIFORM_BYTE_MEAN`
    (the paper rounds to 127); captured vehicle traffic deviates wildly
    by position.
    """
    populated = [m for m, c in zip(stats.means, stats.counts) if c > 0]
    if not populated:
        raise ValueError("no populated byte positions")
    return max(abs(m - UNIFORM_BYTE_MEAN) for m in populated)


def is_uniform_spread(stats: ByteColumnStats) -> bool:
    """The paper's acceptance check, made explicit.

    True when every populated position mean sits within
    :data:`UNIFORM_SPREAD_TOLERANCE` of 127.5.  For ~66 k frames the
    standard error per position is roughly ``73.9 / sqrt(n_pos)`` (~0.9
    for 8k samples), so a 3.0 tolerance is a generous 3-sigma band.
    """
    return uniformity_deviation(stats) <= UNIFORM_SPREAD_TOLERANCE


def chi_square_byte_uniformity(frames: Iterable[CanFrame]) -> tuple[float, float]:
    """Chi-square statistic and degrees of freedom for byte uniformity.

    Pools every payload byte of every frame and tests against the
    uniform distribution over 0-255.  Returns ``(statistic, dof)``;
    with 255 degrees of freedom the 99th percentile is about 310, a
    threshold the tests use without needing scipy.

    Vectorised: the payloads are joined and histogrammed in one
    ``np.bincount`` over a ``np.frombuffer`` view.  The histogram is
    an exact integer count either way, so the statistic matches the
    per-byte loop the tests keep as its oracle bit for bit.
    """
    blob = b"".join(frame.data for frame in frames)
    if not blob:
        raise ValueError("no payload bytes to test")
    histogram = np.bincount(
        np.frombuffer(blob, dtype=np.uint8), minlength=256).astype(np.int64)
    total = len(blob)
    expected = total / 256.0
    statistic = float(((histogram - expected) ** 2 / expected).sum())
    return statistic, 255.0
