"""Ablation B: targeted vs blind fuzzing (the paper's §VII advice).

The paper concludes the fuzz test's automotive usefulness "is likely
to be in fuzz testing in a specific message space, close to known
messages".  This ablation quantifies that: time-to-unlock when the id
pool is restricted to ids observed on the bench bus, versus the blind
full-range campaign.
"""

import statistics

from repro.analysis import observed_ids
from repro.fuzz import (
    AckMessageOracle,
    CampaignLimits,
    FuzzCampaign,
    FuzzConfig,
    RandomFrameGenerator,
    TargetedFrameGenerator,
)
from repro.sim.clock import SECOND
from repro.sim.random import RandomStreams
from repro.testbench import UNLOCK_ACK_ID, UnlockTestbench

TRIALS = 5


def time_to_unlock(trial: int, targeted: bool) -> float:
    bench = UnlockTestbench(seed=77, check_mode="byte")
    bench.power_on()
    adapter = bench.attacker_adapter()
    streams = RandomStreams(77).fork(f"{'t' if targeted else 'b'}{trial}")
    rng = streams.stream("fuzzer")
    if targeted:
        # Power-on traffic holds only the BCM's status id; watch the bus
        # while the owner locks the car once, as an attacker sniffing a
        # real vehicle would, so the command and its ack are "known".
        bench.app.press_lock()
        bench.run_seconds(0.5)
        known = observed_ids(bench.monitor.stamped)
        generator = TargetedFrameGenerator(known, FuzzConfig.full_range(),
                                           rng)
    else:
        generator = RandomFrameGenerator(FuzzConfig.full_range(), rng)
    oracle = AckMessageOracle(
        bench.bus, UNLOCK_ACK_ID,
        predicate=lambda f: f.data[:1] == b"\x01",
        exclude_sender=adapter.controller.name)
    campaign = FuzzCampaign(
        bench.sim, adapter, generator,
        limits=CampaignLimits(max_duration=7200 * SECOND),
        oracles=[oracle])
    result = campaign.run()
    return result.first_finding_seconds


def test_ablation_targeted_vs_blind(benchmark, record_artifact):
    def run_ablation():
        targeted = [time_to_unlock(t, targeted=True) for t in range(TRIALS)]
        blind = [time_to_unlock(t, targeted=False) for t in range(TRIALS)]
        return targeted, blind

    targeted, blind = benchmark.pedantic(run_ablation, rounds=1,
                                         iterations=1)
    mean_targeted = statistics.fmean(targeted)
    mean_blind = statistics.fmean(blind)

    lines = [
        "Ablation B -- targeted (observed-id) vs blind fuzzing, "
        f"{TRIALS} trials each",
        f"targeted times (s): "
        + ", ".join(f"{t:.1f}" for t in targeted),
        f"blind times (s):    "
        + ", ".join(f"{t:.0f}" for t in blind),
        f"means: targeted {mean_targeted:.1f} s, blind {mean_blind:.0f} s",
        f"speed-up from targeting: {mean_blind / mean_targeted:.0f}x",
        "(the bench carries few distinct ids, so restricting the pool "
        "multiplies the hit rate by ~2048/len(observed))",
    ]
    record_artifact("ablation_targeted", "\n".join(lines))

    benchmark.extra_info["speedup"] = round(mean_blind / mean_targeted, 1)

    assert all(t is not None for t in targeted + blind)
    # Shape: targeting beats blind fuzzing by a large factor.
    assert mean_targeted * 20 < mean_blind
