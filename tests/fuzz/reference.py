"""Reference-kernel twins for the fast-path parity tests.

``run()`` and ``resume_campaign`` take the fast path whenever the
prover admits a world, so a twin that checks them must call the
reference kernel, ``campaign._execute``, directly.  UDS replay takes
the analytic exchange whenever its track admits a world, so a replay
twin builds the same bench with a failure probe the track does not
admit.
"""

from repro.fuzz.campaign import resume_point


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
