"""Reference-vs-fast-path parity for the analytic UDS exchange.

The contract is the same one :mod:`tests.fuzz.test_batch` pins for
frame-level worlds, lifted to request/response granularity: a
:class:`~repro.fuzz.uds_campaign.UdsFuzzCampaign` world must produce
bit-identical results, journal records, checkpoints and resume
behaviour whether it runs on the reference event kernel
(``campaign._execute``) or, through ``run()``, on the analytic
exchange -- and any world the admission prover cannot prove eligible
must run on the reference kernel with a recorded reason, never a
wrong result.
"""

import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.batch import (ScalarFallback, plan_frame_world,
                              plan_uds_world, run_shard_batch, run_world)
from repro.fuzz.campaign import CampaignLimits
from repro.fuzz.coverage import ProtocolStateCoverage
from repro.fuzz.durability import CampaignJournal, DirectoryStore, scan_records
from repro.fuzz.parallel import ShardSpec, ShardedCampaign, derive_shard_seed
from repro.testbench.factory import UdsBenchFactory, UnlockBenchFactory

from .reference import reference_resume, reference_shards

#: stop_on_finding=False: worlds hunt the full budget, which exercises
#: the recovery path (power cycle + settle) under the analytic exchange.
KEEP_GOING = UdsBenchFactory(stop_on_finding=False)
FIRST_FINDING = UdsBenchFactory()


def uds_spec(index, max_frames=250, master=3):
    return ShardSpec(index=index, shard_count=8, master_seed=master,
                     seed=derive_shard_seed(master, index),
                     limits=CampaignLimits(max_frames=max_frames))


def fingerprint(campaign, result):
    """Result plus end-of-run generator and server state: a world that
    drifted anywhere -- belief state, latches, DID stores -- shows up
    here even when the findings happen to agree."""
    return {
        "result": result.to_dict(),
        "generator": campaign.generator.state_digest(),
        "server": campaign.bench.server.state_digest(),
    }


def run_reference(factory, spec):
    campaign = factory(spec)
    result = campaign._execute(None)
    return fingerprint(campaign, result)


def run_fast(factory, spec):
    """The world through ``run()``: its fingerprint and fallback
    reasons."""
    campaign = factory(spec)
    result = campaign.run()
    return fingerprint(campaign, result), result.fallback_reasons


class TestFreshParity:
    def test_keep_going_worlds_bit_identical(self):
        for spec in [uds_spec(i, max_frames=300) for i in range(4)]:
            assert run_fast(KEEP_GOING, spec) == (
                run_reference(KEEP_GOING, spec), [])

    def test_stop_on_finding_worlds_bit_identical(self):
        for spec in [uds_spec(i, max_frames=250) for i in range(3)]:
            assert run_fast(FIRST_FINDING, spec) == (
                run_reference(FIRST_FINDING, spec), [])


class TestProver:
    def test_dispatcher_routes_by_campaign_layer(self):
        # Each layer's prover admits its own world and rejects the
        # other layer's by campaign type; run_world routes each to its
        # kernel, so neither records a reason.
        uds = FIRST_FINDING(uds_spec(0, max_frames=50))
        assert plan_uds_world(uds, uds.bench, None) is None
        with pytest.raises(ScalarFallback, match="not FuzzCampaign"):
            plan_frame_world(uds, uds.bench, None)
        frame = UnlockBenchFactory()(ShardSpec(
            index=0, shard_count=1, master_seed=0, seed=0,
            limits=CampaignLimits(max_frames=100)))
        assert plan_frame_world(frame, frame.bench, None) is not None
        with pytest.raises(ScalarFallback, match="not UdsFuzzCampaign"):
            plan_uds_world(frame, frame.bench, None)
        for campaign in (uds, frame):
            assert run_world(campaign).fallback_reasons == []

    @pytest.mark.parametrize("mutate, reason", [
        (lambda c: setattr(c, "_reset_target", lambda: None),
         "reset-target hook"),
        (lambda c: setattr(c.server.ecu, "watchdog", object()),
         "has a watchdog"),
        (lambda c: c.server.ecu._tasks.append(object()),
         "cyclic tasks"),
        (lambda c: setattr(c, "requests_sent", 1),
         "not pristine"),
        (lambda c: setattr(c.client.endpoint, "block_size", 4),
         "flow-control block size"),
    ])
    def test_violated_rules_name_the_violation(self, mutate, reason):
        campaign = FIRST_FINDING(uds_spec(0, max_frames=50))
        mutate(campaign)
        with pytest.raises(ScalarFallback, match=reason):
            plan_uds_world(campaign, campaign.bench, None)

    def test_fallback_world_still_matches_its_scalar_twin(self):
        # With stop_on_finding the recovery hook never fires, so the
        # hooked world behaves exactly like the reference baseline --
        # the prover must reject it (unmodelled hook) yet run() must
        # return the same bits via the reference kernel; the admitted
        # world beside it records no reason.
        def hooked(spec):
            campaign = FIRST_FINDING(spec)
            campaign._reset_target = lambda: None
            return campaign

        spec = uds_spec(0, max_frames=200)
        got, reasons = run_fast(hooked, spec)
        assert got == run_reference(hooked, spec)
        assert len(reasons) == 1 and "reset-target" in reasons[0]
        spec = uds_spec(1, max_frames=200)
        assert run_fast(FIRST_FINDING, spec) == (
            run_reference(FIRST_FINDING, spec), [])


def read_records(directory):
    records, warnings = scan_records(DirectoryStore(str(directory)))
    assert warnings == []
    return records


class TestJournalParity:
    def test_record_streams_checkpoints_and_results_identical(
            self, tmp_path):
        specs = [uds_spec(i, max_frames=300) for i in range(3)]
        for spec in specs:
            journal = CampaignJournal(DirectoryStore(
                str(tmp_path / f"scalar/shard-{spec.index:04d}")))
            reference_resume(journal, lambda spec=spec: KEEP_GOING(spec),
                             checkpoint_every=100)
        infos = [(None, str(tmp_path / f"batch/shard-{s.index:04d}"), 100)
                 for s in specs]
        run_shard_batch(KEEP_GOING, specs, journal_infos=infos)
        for spec in specs:
            scalar_dir = tmp_path / f"scalar/shard-{spec.index:04d}"
            batch_dir = tmp_path / f"batch/shard-{spec.index:04d}"
            assert read_records(scalar_dir) == read_records(batch_dir)
            scalar_store = DirectoryStore(str(scalar_dir))
            batch_store = DirectoryStore(str(batch_dir))
            assert (json.loads(scalar_store.read(CampaignJournal.RESULT))
                    == json.loads(batch_store.read(CampaignJournal.RESULT)))
            assert (json.loads(
                scalar_store.read(CampaignJournal.CHECKPOINT))
                == json.loads(
                    batch_store.read(CampaignJournal.CHECKPOINT)))

    def kill(self, directory):
        """Turn a completed journal into a mid-flight casualty."""
        DirectoryStore(str(directory)).remove(CampaignJournal.RESULT)

    def test_batch_killed_run_resumes_identically_on_both_engines(
            self, tmp_path):
        spec = uds_spec(0, max_frames=300)
        batch_dir = tmp_path / "bat"
        run_shard_batch(KEEP_GOING, [spec],
                        journal_infos=[(None, str(batch_dir), 100)])
        assert DirectoryStore(str(batch_dir)).exists(
            CampaignJournal.CHECKPOINT)
        shutil.copytree(batch_dir, tmp_path / "ctl")
        self.kill(batch_dir)
        self.kill(tmp_path / "ctl")
        control = reference_resume(
            CampaignJournal(DirectoryStore(str(tmp_path / "ctl"))),
            lambda: KEEP_GOING(spec), checkpoint_every=100)
        resumed = run_shard_batch(
            KEEP_GOING, [spec],
            journal_infos=[(None, str(batch_dir), 100)])
        assert resumed[0][0].to_dict() == control.to_dict()
        assert read_records(batch_dir) == read_records(tmp_path / "ctl")
        kinds = [record["type"] for record in read_records(batch_dir)]
        assert kinds.count("resume") == 1

    def test_scalar_killed_run_resumes_identically_on_both_engines(
            self, tmp_path):
        spec = uds_spec(1, max_frames=300)
        scalar_dir = tmp_path / "ctl"
        journal = CampaignJournal(DirectoryStore(str(scalar_dir)))
        reference_resume(journal, lambda: KEEP_GOING(spec),
                         checkpoint_every=100)
        assert DirectoryStore(str(scalar_dir)).exists(
            CampaignJournal.CHECKPOINT)
        shutil.copytree(scalar_dir, tmp_path / "bat")
        self.kill(scalar_dir)
        self.kill(tmp_path / "bat")
        control = reference_resume(
            CampaignJournal(DirectoryStore(str(scalar_dir))),
            lambda: KEEP_GOING(spec), checkpoint_every=100)
        resumed = run_shard_batch(
            KEEP_GOING, [spec],
            journal_infos=[(None, str(tmp_path / "bat"), 100)])
        assert resumed[0][0].to_dict() == control.to_dict()
        assert read_records(tmp_path / "bat") == read_records(scalar_dir)

    def test_completed_journal_short_circuits(self, tmp_path):
        spec = uds_spec(0, max_frames=200)
        info = [(None, str(tmp_path / "done"), 100)]
        first = run_shard_batch(KEEP_GOING, [spec], journal_infos=info)
        again = run_shard_batch(KEEP_GOING, [spec], journal_infos=info)
        assert again[0][0].to_dict() == first[0][0].to_dict()


class TestShardedBatching:
    LIMITS = CampaignLimits(max_frames=250)

    def test_batched_uds_run_fingerprints_like_serial(self):
        serial_run = ShardedCampaign(UdsBenchFactory(), shards=4,
                                     limits=self.LIMITS,
                                     master_seed=11, jobs=2)
        serial = serial_run.run_serial()
        reference = reference_shards(UdsBenchFactory(), serial_run)
        assert {o.index: o.result.to_dict()
                for o in serial.outcomes} == reference
        for batch_size in (1, 64):
            batched = ShardedCampaign(UdsBenchFactory(), shards=4,
                                      limits=self.LIMITS, master_seed=11,
                                      jobs=2, batch_size=batch_size).run()
            assert batched.ok
            assert batched.fingerprint() == serial.fingerprint()
            assert batched.fallback_reasons == {}


class TestCoverageVectorisation:
    """Satellite: the np-backed tuple accounting against its oracle."""

    EXCHANGE = st.tuples(
        st.integers(min_value=0, max_value=0xFF),
        st.integers(min_value=-1, max_value=0xFF),
        st.integers(min_value=-1, max_value=0xFF),
        st.integers(min_value=0, max_value=0x7F))

    @settings(max_examples=50, deadline=None)
    @given(batches=st.lists(st.lists(EXCHANGE, max_size=30), max_size=4))
    def test_record_batch_matches_reference(self, batches):
        fast = ProtocolStateCoverage()
        slow = ProtocolStateCoverage()
        for batch in batches:
            assert (fast.record_batch(batch)
                    == slow._reference_record_batch(batch))
        assert fast.state_digest() == slow.state_digest()
        assert fast.tuples_seen == slow.tuples_seen
        assert fast.exchanges_recorded == slow.exchanges_recorded

    def test_duplicates_within_one_batch_count_once(self):
        coverage = ProtocolStateCoverage()
        flags = coverage.record_batch(
            [(0x10, 1, 0, 1), (0x10, 1, 0, 1), (0x22, -1, 0x31, 1)])
        assert flags == [True, False, True]
        assert coverage.count(0x10, 1, 0, 1) == 2


class TestHypothesisParity:
    """Satellite: random seeds and limits through both kernels."""

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_random_uds_worlds_fingerprint_identically(self, data):
        indexes = data.draw(st.lists(
            st.integers(min_value=0, max_value=63),
            min_size=2, max_size=3, unique=True))
        max_frames = data.draw(st.integers(min_value=40, max_value=350))
        master = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        factory = data.draw(st.sampled_from([KEEP_GOING, FIRST_FINDING]))
        for index in indexes:
            spec = uds_spec(index, max_frames=max_frames, master=master)
            assert run_fast(factory, spec) == (
                run_reference(factory, spec), [])

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500),
           checkpoint_every=st.integers(min_value=40, max_value=200))
    def test_kill_resume_parity_both_directions(self, tmp_path_factory,
                                                seed, checkpoint_every):
        # One full fast-path journalled run, killed by dropping the
        # saved result, then resumed by BOTH kernels from identical
        # copies: the reference resume is the specification the
        # fast-path resume must reproduce byte-for-byte, records
        # included.
        tmp_path = tmp_path_factory.mktemp("uds-resume")
        spec = uds_spec(0, max_frames=300, master=seed)
        batch_dir = tmp_path / "bat"
        run_shard_batch(
            KEEP_GOING, [spec],
            journal_infos=[(None, str(batch_dir), checkpoint_every)])
        store = DirectoryStore(str(batch_dir))
        assert store.exists(CampaignJournal.CHECKPOINT)
        shutil.copytree(batch_dir, tmp_path / "ctl")
        store.remove(CampaignJournal.RESULT)
        DirectoryStore(str(tmp_path / "ctl")).remove(CampaignJournal.RESULT)
        control = reference_resume(
            CampaignJournal(DirectoryStore(str(tmp_path / "ctl"))),
            lambda: KEEP_GOING(spec), checkpoint_every=checkpoint_every)
        resumed = run_shard_batch(
            KEEP_GOING, [spec],
            journal_infos=[(None, str(batch_dir), checkpoint_every)])
        assert resumed[0][0].to_dict() == control.to_dict()
        assert read_records(batch_dir) == read_records(tmp_path / "ctl")
