"""Reference-kernel twins for the fast-path parity tests.

``run()`` and ``resume_campaign`` take the fast path whenever the
prover admits a world, so a twin that checks them must call the
reference kernel, ``campaign._execute``, directly.  UDS replay takes
the analytic exchange whenever its track admits a world, so a replay
twin builds the same bench with a failure probe the track does not
admit.  The vectorised byte statistics are checked against the
per-byte loops they replaced.
"""

import numpy as np

from repro.fuzz.campaign import resume_point
from repro.fuzz.stats import ByteColumnStats


def reference_resume(journal, build, *, checkpoint_every=None):
    """:func:`~repro.fuzz.campaign.resume_campaign`'s protocol, run on
    the reference kernel."""
    saved, state = resume_point(journal)
    if saved is not None:
        return saved
    campaign = build()
    campaign.attach_journal(journal, checkpoint_every=checkpoint_every)
    return campaign._execute(state)


def reference_shards(factory, sharded):
    """Shard index -> result dict of every shard of a
    :class:`~repro.fuzz.parallel.ShardedCampaign`, each run on the
    reference kernel in this process."""
    return {spec.index: factory(spec)._execute(None).to_dict()
            for spec in sharded._specs}


def reference_uds_target(factory):
    """``factory``'s UDS replay target on the real client.

    The same bench, with its failure probe wrapped: the replay track
    admits only a bench's own ``failed``/``crashed``/``hung`` method,
    so every request of every probe crosses the simulated wire.
    """
    def build():
        sim, client, failed = factory()
        return sim, client, lambda: failed()
    return build


def reference_record_batch(coverage, exchanges) -> list[bool]:
    """:meth:`~repro.fuzz.coverage.ProtocolStateCoverage.record_batch`
    one exchange at a time through ``record``: the oracle for the
    vectorised batch."""
    return [coverage.record(service, sub_function, nrc, session)
            for service, sub_function, nrc, session in exchanges]


def byte_position_means_reference(frames, *,
                                  positions: int = 8) -> ByteColumnStats:
    """The per-byte loop :func:`~repro.fuzz.stats.byte_position_means`
    replaced: the oracle its results must equal bit for bit."""
    if positions <= 0:
        raise ValueError("positions must be positive")
    sums = np.zeros(positions, dtype=np.float64)
    counts = np.zeros(positions, dtype=np.int64)
    total_sum = 0.0
    total_count = 0
    frame_count = 0
    for frame in frames:
        frame_count += 1
        data = frame.data[:positions]
        for position, byte in enumerate(data):
            sums[position] += byte
            counts[position] += 1
        total_sum += sum(data)
        total_count += len(data)
    means = tuple(
        float(sums[i] / counts[i]) if counts[i] else float("nan")
        for i in range(positions))
    overall = total_sum / total_count if total_count else float("nan")
    return ByteColumnStats(means=means, counts=tuple(int(c) for c in counts),
                           overall_mean=overall, frame_count=frame_count)


def chi_square_byte_uniformity_reference(frames) -> tuple[float, float]:
    """The per-byte loop
    :func:`~repro.fuzz.stats.chi_square_byte_uniformity` replaced: the
    oracle its statistic must equal bit for bit."""
    histogram = np.zeros(256, dtype=np.int64)
    for frame in frames:
        for byte in frame.data:
            histogram[byte] += 1
    total = int(histogram.sum())
    if total == 0:
        raise ValueError("no payload bytes to test")
    expected = total / 256.0
    statistic = float(((histogram - expected) ** 2 / expected).sum())
    return statistic, 255.0
