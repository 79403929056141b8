"""Fast-path throughput benchmark: frame engine vs reference kernel.

Runs the ``bench_throughput`` random-fuzz workload (UnlockTestbench,
full-default :class:`FuzzConfig`, 1 ms interval, the bench pinned on
``campaign.bench``) two ways and compares aggregate frames per wall
second:

- **reference**: sampled worlds through ``campaign._execute(None)``,
  the ordinary event-kernel campaign loop;
- **fast path**: N seeded worlds, each through its default
  ``campaign.run()``, which the prover puts on the block-stepped frame
  engine (:mod:`repro.fuzz.batch`).

The comparison is only meaningful because the fast path's contract is
*bit identity*, so the benchmark also proves it: every sampled
world's ``FuzzResult.to_dict()`` is compared against the reference
run of the same seed and the verdicts are recorded world-by-world in
the output JSON.  A speedup bought by drifting off the reference
semantics would show up here as a parity failure, not a win.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py \
        --frames 50000 --worlds 256 --output BENCH_batch.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

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


def run_worlds(seeds, frames, targeted=False, *, reference=False):
    """Each world through ``run()`` (or the reference kernel), with
    construction untimed; returns (dicts, f/s, wall, fallback reasons
    by seed)."""
    results = []
    reasons = {}
    wall = 0.0
    for seed in seeds:
        campaign = build_campaign(seed, frames, targeted)
        start = time.perf_counter()
        result = campaign._execute(None) if reference else campaign.run()
        wall += time.perf_counter() - start
        results.append(result.to_dict())
        if result.fallback_reasons:
            reasons[seed] = result.fallback_reasons
    total = sum(r["frames_sent"] for r in results)
    return results, total / wall, wall, reasons


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
                        help="worlds run on the fast path")
    parser.add_argument("--scalar-sample", type=positive_int, default=8,
                        help="worlds run through the reference kernel to "
                             "price the baseline and check parity (the "
                             "full width would take minutes; the first "
                             "K seeds are representative because every "
                             "world runs the identical workload)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the report JSON here")
    args = parser.parse_args(argv)

    sample = min(args.scalar_sample, args.worlds)
    seeds = list(range(args.worlds))

    print(f"reference baseline: {sample} worlds x {args.frames} "
          f"frames ...")
    reference_dicts, reference_fps, reference_wall, _ = run_worlds(
        seeds[:sample], args.frames, reference=True)
    print(f"  {reference_fps:,.0f} frames/s ({reference_wall:.2f} s wall)")

    print(f"fast path: {args.worlds} worlds x {args.frames} frames ...")
    fast_dicts, fast_fps, fast_wall, fallbacks = run_worlds(
        seeds, args.frames)
    print(f"  {fast_fps:,.0f} frames/s ({fast_wall:.2f} s wall)")

    parity = [fast_dicts[i] == reference_dicts[i] for i in range(sample)]
    speedup = fast_fps / reference_fps
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
    targeted_reference, _, _, _ = run_worlds(
        seeds[:targeted_sample], targeted_frames, targeted=True,
        reference=True)
    targeted_fast, _, _, targeted_fallbacks = run_worlds(
        seeds[:targeted_worlds], targeted_frames, targeted=True)
    targeted_parity = [targeted_fast[i] == targeted_reference[i]
                      for i in range(targeted_sample)]
    print(f"  parity {sum(targeted_parity)}/{targeted_sample}, "
          f"fallbacks: {targeted_fallbacks or 'none'}")

    report = {
        "benchmark": "fast path (campaign.run on the block-stepped frame "
                     "engine) vs reference kernel (campaign._execute)",
        "workload": {
            "target": "UnlockTestbench",
            "frames_per_world": args.frames,
            "interval_us": 1000,
        },
        "worlds": args.worlds,
        "reference": {
            "worlds_sampled": sample,
            "wall_seconds": reference_wall,
            "frames_per_wall_second": reference_fps,
        },
        "fast_path": {
            "worlds": args.worlds,
            "wall_seconds": fast_wall,
            "frames_per_wall_second": fast_fps,
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
