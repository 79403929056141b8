"""The default entry points take the fast path, and its bail stays exact.

``FuzzCampaign.run``, ``UdsFuzzCampaign.run`` and ``resume_campaign``
ask the prover: an admitted world runs on its one-world kernel and
never enters the wire path, with the result and journal records of
the reference kernel (``campaign._execute``).  A campaign that pins no
bench runs on the reference kernel and records no reason.  A UDS world
whose request outgrows the analytic exchange's segmentation cap hands
that request and the rest of the run to the real client, and still
ends exactly where the reference kernel does.
"""

import random
import shutil

import pytest

from repro.fuzz import batch as batch_engine
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign, resume_campaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.durability import CampaignJournal, DirectoryStore, scan_records
from repro.fuzz.generator import RandomFrameGenerator
from repro.fuzz.parallel import ShardSpec, derive_shard_seed
from repro.testbench.bench import UnlockTestbench
from repro.testbench.factory import UdsBenchFactory, UnlockBenchFactory
from repro.uds.client import UdsClient

from .reference import reference_resume


def shard(index, max_frames, stop_on_finding=True):
    return ShardSpec(index=index, shard_count=4, master_seed=5,
                     seed=derive_shard_seed(5, index),
                     limits=CampaignLimits(max_frames=max_frames,
                                           stop_on_finding=stop_on_finding))


#: kind -> (factory, spec, checkpoint cadence).  The unlock world stops
#: at its first finding (the frame prover's mode); the UDS world hunts
#: its whole budget.  Both cadences leave the last checkpoint mid-run.
WORLDS = {
    "unlock": (UnlockBenchFactory(), shard(0, 3000), 1200),
    "uds": (UdsBenchFactory(stop_on_finding=False),
            shard(1, 300, stop_on_finding=False), 80),
}


@pytest.fixture
def frames_drawn(monkeypatch):
    """Counts ``RandomFrameGenerator.next_frame`` calls: the frame
    engine parses its frames from the RNG words and never calls it."""
    count = [0]
    next_frame = RandomFrameGenerator.next_frame

    def counting(self):
        count[0] += 1
        return next_frame(self)

    monkeypatch.setattr(RandomFrameGenerator, "next_frame", counting)
    return count


def delivered(campaign) -> int:
    return campaign.bench.bus.stats.frames_delivered


def journal_at(path) -> CampaignJournal:
    return CampaignJournal(DirectoryStore(str(path)))


def records(path) -> list:
    found, warnings = scan_records(DirectoryStore(str(path)))
    assert warnings == []
    return found


class TestDefaultPathReachesTheKernels:
    @pytest.mark.parametrize("kind", sorted(WORLDS))
    def test_fresh_run_equals_the_reference_without_the_wire(
            self, kind, tmp_path, frames_drawn):
        factory, spec, every = WORLDS[kind]
        twin = factory(spec)
        twin.attach_journal(journal_at(tmp_path / "ref"),
                            checkpoint_every=every)
        start = delivered(twin)
        want = twin._execute(None)
        assert delivered(twin) > start  # the reference crossed the wire

        campaign = factory(spec)
        campaign.attach_journal(journal_at(tmp_path / "fast"),
                                checkpoint_every=every)
        start, drawn = delivered(campaign), frames_drawn[0]
        got = campaign.run()
        assert got.fallback_reasons == []
        assert got.to_dict() == want.to_dict()
        assert records(tmp_path / "fast") == records(tmp_path / "ref")
        assert delivered(campaign) == start
        assert frames_drawn[0] == drawn

    @pytest.mark.parametrize("kind", sorted(WORLDS))
    def test_resume_equals_the_reference_without_the_wire(
            self, kind, tmp_path, frames_drawn):
        factory, spec, every = WORLDS[kind]
        source = tmp_path / "source"
        full = reference_resume(journal_at(source), lambda: factory(spec),
                                checkpoint_every=every)
        for name in ("ref", "fast"):
            shutil.copytree(source, tmp_path / name)
            DirectoryStore(str(tmp_path / name)).remove(
                CampaignJournal.RESULT)
        checkpoint = journal_at(tmp_path / "fast").load_checkpoint()
        sent = checkpoint.get("frames_sent", checkpoint.get("requests_sent"))
        assert 0 < sent < full.frames_sent

        want = reference_resume(journal_at(tmp_path / "ref"),
                                lambda: factory(spec),
                                checkpoint_every=every)
        built = {}

        def build():
            campaign = built["campaign"] = factory(spec)
            built["wire"] = (delivered(campaign), frames_drawn[0])
            return campaign

        got = resume_campaign(journal_at(tmp_path / "fast"), build,
                              checkpoint_every=every)
        assert got.fallback_reasons == []
        assert got.to_dict() == want.to_dict()
        assert records(tmp_path / "fast") == records(tmp_path / "ref")
        assert [record["type"] for record in records(tmp_path / "fast")
                ].count("resume") == 1
        campaign = built["campaign"]
        assert (delivered(campaign), frames_drawn[0]) == built["wire"]

    def test_hand_built_campaign_runs_the_reference_kernel(
            self, frames_drawn):
        def build():
            bench = UnlockTestbench(seed=3)
            bench.power_on(settle_seconds=0.5)
            return FuzzCampaign(
                bench.sim, bench.attacker_adapter(),
                RandomFrameGenerator(FuzzConfig(), random.Random(3)),
                limits=CampaignLimits(max_frames=500), name="hand-built")

        campaign = build()
        assert not hasattr(campaign, "bench")
        got = campaign.run()
        assert got.fallback_reasons == []
        assert frames_drawn[0] == 500
        assert got.to_dict() == build()._execute(None).to_dict()


class TestMidRunBail:
    @pytest.mark.parametrize("cap", [8, 20, 64])
    @pytest.mark.parametrize("stop_on_finding", [True, False])
    def test_bail_hands_the_rest_to_the_real_client_exactly(
            self, monkeypatch, cap, stop_on_finding):
        monkeypatch.setattr(batch_engine, "SAFE_UDS_REQUEST", cap)
        real = []
        request = UdsClient.request

        def recording(self, payload, timeout=None):
            real.append(len(payload))
            return request(self, payload, timeout)

        monkeypatch.setattr(UdsClient, "request", recording)
        factory = UdsBenchFactory(stop_on_finding=stop_on_finding)
        for index in range(3):
            spec = shard(index, 300, stop_on_finding)
            twin = factory(spec)
            want = twin._execute(None)
            campaign = factory(spec)
            real.clear()
            got = campaign.run()
            assert got.to_dict() == want.to_dict()
            assert (campaign.generator.state_digest()
                    == twin.generator.state_digest())
            # The analytic exchange answered every request up to the
            # first longer one, which the real client took over.
            assert real and real[0] > cap
            assert got.fallback_reasons == [
                f"request of {real[0]} bytes exceeds the analytic "
                f"segmentation cap of {cap} bytes"]
            assert "request" not in vars(campaign.client)
