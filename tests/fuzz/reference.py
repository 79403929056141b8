"""Reference-kernel twins for the fast-path parity tests.

``run()`` and ``resume_campaign`` take the fast path whenever the
prover admits a world, so a twin that checks them must call the
reference kernel, ``campaign._execute``, directly.
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
