"""Batched multi-world throughput benchmark: frame engine vs scalar kernel.

Runs the ``bench_throughput`` random-fuzz workload (UnlockTestbench,
full-default :class:`FuzzConfig`, 1 ms interval) two ways and compares
aggregate frames per wall second:

- **scalar**: one world at a time through the ordinary event-kernel
  campaign loop -- the per-shard cost :class:`ShardedCampaign` pays
  today;
- **batched**: N seeded worlds run by
  :class:`repro.fuzz.batch.BatchCampaign`'s block-stepped frame
  engine.

The comparison is only meaningful because the batch engine's contract
is *bit identity*, so the benchmark also proves it: every batched
world's ``FuzzResult.to_dict()`` is compared against the scalar run of
the same seed and the verdicts are recorded world-by-world in the
output JSON.  A speedup bought by drifting off the scalar semantics
would show up here as a parity failure, not a win.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py \
        --frames 50000 --worlds 128 --output BENCH_batch.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

from repro.fuzz.batch import BatchCampaign
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generator import RandomFrameGenerator, TargetedFrameGenerator
from repro.sim.clock import MS
from repro.testbench.bench import UnlockTestbench

#: Id pool for the targeted-generator variant: the bus's known
#: identifiers, the narrowing a real campaign applies after listening.
TARGETED_IDS = (0x215, 0x3A5, 0x100)


def build_campaign(seed: int, frames: int,
                   targeted: bool = False) -> FuzzCampaign:
    """One seeded world of the bench_throughput workload."""
    bench = UnlockTestbench(seed=seed)
    bench.power_on(settle_seconds=0.5)
    adapter = bench.attacker_adapter()
    if targeted:
        generator = TargetedFrameGenerator(TARGETED_IDS, FuzzConfig(),
                                           random.Random(20180625 + seed))
    else:
        generator = RandomFrameGenerator(FuzzConfig(),
                                         random.Random(20180625 + seed))
    campaign = FuzzCampaign(bench.sim, adapter, generator,
                            limits=CampaignLimits(max_frames=frames),
                            interval=1 * MS, name=f"bench-{seed}")
    campaign.bench = bench
    return campaign


def run_scalar(seeds, frames, targeted=False):
    """Each world through the ordinary kernel; returns (dicts, f/s)."""
    results = []
    wall = 0.0
    for seed in seeds:
        campaign = build_campaign(seed, frames, targeted)
        start = time.perf_counter()
        result = campaign.run()
        wall += time.perf_counter() - start
        results.append(result.to_dict())
    total = sum(r["frames_sent"] for r in results)
    return results, total / wall, wall


def run_batched(seeds, frames, targeted=False):
    """All worlds in one batch; returns (dicts, f/s, reasons)."""
    batch = BatchCampaign([build_campaign(seed, frames, targeted)
                           for seed in seeds])
    start = time.perf_counter()
    results = batch.run()
    wall = time.perf_counter() - start
    dicts = [result.to_dict() for result in results]
    total = sum(r["frames_sent"] for r in dicts)
    return dicts, total / wall, wall, dict(batch.fallback_reasons)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=positive_int, default=50_000,
                        help="frame limit per world")
    parser.add_argument("--worlds", type=positive_int, default=128,
                        help="batch width (number of worlds)")
    parser.add_argument("--scalar-sample", type=positive_int, default=8,
                        help="worlds run through the scalar kernel to "
                             "price the baseline and check parity (the "
                             "full width would take minutes; the first "
                             "K seeds are representative because every "
                             "world runs the identical workload)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the report JSON here")
    args = parser.parse_args(argv)

    sample = min(args.scalar_sample, args.worlds)
    seeds = list(range(args.worlds))

    print(f"scalar baseline: {sample} worlds x {args.frames} frames ...")
    scalar_dicts, scalar_fps, scalar_wall = run_scalar(
        seeds[:sample], args.frames)
    print(f"  {scalar_fps:,.0f} frames/s ({scalar_wall:.2f} s wall)")

    print(f"batched: {args.worlds} worlds x {args.frames} frames ...")
    batch_dicts, batch_fps, batch_wall, fallbacks = run_batched(
        seeds, args.frames)
    print(f"  {batch_fps:,.0f} frames/s ({batch_wall:.2f} s wall)")

    parity = [batch_dicts[i] == scalar_dicts[i] for i in range(sample)]
    speedup = batch_fps / scalar_fps
    print(f"speedup: {speedup:.1f}x, parity {sum(parity)}/{sample}, "
          f"fallbacks: {fallbacks or 'none'}")

    # Targeted-generator variant: the admission prover must take these
    # worlds on the frame engine (zero fallbacks) with the same
    # bit-identity, at a fraction of the main run's size.
    targeted_worlds = min(16, args.worlds)
    targeted_frames = min(10_000, args.frames)
    targeted_sample = min(2, targeted_worlds)
    print(f"targeted generator: {targeted_worlds} worlds "
          f"x {targeted_frames} frames ...")
    targeted_scalar, _, _ = run_scalar(
        seeds[:targeted_sample], targeted_frames, targeted=True)
    targeted_batch, _, _, targeted_fallbacks = run_batched(
        seeds[:targeted_worlds], targeted_frames, targeted=True)
    targeted_parity = [targeted_batch[i] == targeted_scalar[i]
                      for i in range(targeted_sample)]
    print(f"  parity {sum(targeted_parity)}/{targeted_sample}, "
          f"fallbacks: {targeted_fallbacks or 'none'}")

    report = {
        "benchmark": "batched campaign (block-stepped frame engine) vs "
                     "scalar kernel",
        "workload": {
            "target": "UnlockTestbench",
            "frames_per_world": args.frames,
            "interval_us": 1000,
        },
        "worlds": args.worlds,
        "scalar": {
            "worlds_sampled": sample,
            "wall_seconds": scalar_wall,
            "frames_per_wall_second": scalar_fps,
        },
        "batched": {
            "worlds": args.worlds,
            "wall_seconds": batch_wall,
            "frames_per_wall_second": batch_fps,
            "fallback_reasons": fallbacks,
        },
        "speedup": speedup,
        "parity": {
            "worlds_checked": sample,
            "world_by_world_identical": parity,
            "all_identical": all(parity),
        },
        "targeted": {
            "generator": "TargetedFrameGenerator",
            "id_pool": list(TARGETED_IDS),
            "worlds": targeted_worlds,
            "frames_per_world": targeted_frames,
            "fallback_reasons": targeted_fallbacks,
            "worlds_checked": targeted_sample,
            "world_by_world_identical": targeted_parity,
            "all_identical": all(targeted_parity),
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    ok = (all(parity) and not fallbacks and speedup >= 10.0
          and all(targeted_parity) and not targeted_fallbacks)
    if not ok:
        print("FAILED: need >= 10x with full world-by-world parity and "
              "a fallback-free targeted variant", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
