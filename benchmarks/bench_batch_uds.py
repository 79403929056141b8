"""Fast-path UDS campaign benchmark: analytic exchange vs reference.

Runs the stateful diagnostic fuzzing workload (``UdsBenchFactory``:
DiagTestbench + coverage-guided :class:`UdsStateGenerator`) two ways
and compares aggregate requests per wall second:

- **reference**: sampled worlds through ``campaign._execute(None)``,
  the request loop on the event kernel, polling it in 1 ms slices;
- **fast path**: N seeded worlds, each through its default
  ``campaign.run()``, which the prover puts on the analytic exchange
  (:mod:`repro.fuzz.batch`): the same loop, with wire time replaced by
  memoised analytic durations.

The comparison is only meaningful because the fast path's contract is
*bit identity*, so the benchmark also proves it, on a sampled set of
worlds:

- campaign results (``FuzzResult.to_dict``), generator state digests
  and server state dicts against the reference run of the same seed;
- journal record streams, checkpoints and saved results of journalled
  runs, reference vs fast path (the sharded worker body,
  :func:`~repro.fuzz.batch.run_shard_batch`);
- kill-resume: a journal truncated after its last checkpoint (the
  crash artefact) resumed by *either* kernel must finish identically.

Any parity break fails the benchmark regardless of the speedup.

Wall-clock methodology: the reference baseline is measured in two
halves bracketing the fast-path run, and the aggregate rate uses the
summed wall time of both halves.  CPU frequency drift on a busy host
moves both rates together; bracketing keeps the recorded ratio from
crediting (or hiding) a frequency step between the two phases.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_uds.py \
        --requests 800 --worlds 256 --output BENCH_batch_uds.json
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.fuzz.batch import run_shard_batch
from repro.fuzz.campaign import CampaignLimits, resume_point
from repro.fuzz.durability import CampaignJournal, DirectoryStore, scan_records
from repro.fuzz.parallel import ShardSpec
from repro.fuzz.uds_campaign import UdsFuzzCampaign
from repro.testbench.factory import UdsBenchFactory

#: The acceptance bar: aggregate fast-path requests/s versus the
#: reference baseline.
REQUIRED_SPEEDUP = 6.0

FACTORY = UdsBenchFactory(stop_on_finding=False)


def spec_for(seed: int, requests: int) -> ShardSpec:
    return ShardSpec(index=seed, shard_count=1, master_seed=seed, seed=seed,
                     limits=CampaignLimits(max_frames=requests,
                                           stop_on_finding=False))


def build_campaign(seed: int, requests: int) -> UdsFuzzCampaign:
    """One seeded world of the stateful UDS workload."""
    return FACTORY(spec_for(seed, requests))


def fingerprint(campaign, result) -> dict:
    """Everything world-by-world parity compares."""
    return {
        "result": result.to_dict(),
        "generator_digest": campaign.generator.state_digest(),
        "server_state": campaign.bench.server.state_dict(),
    }


def run_worlds(seeds, requests, *, reference=False):
    """Each world through ``run()`` (or the reference kernel), with
    construction untimed; returns (fingerprints, wall, requests sent,
    fallback reasons by seed)."""
    prints, wall, sent, reasons = [], 0.0, 0, {}
    for seed in seeds:
        campaign = build_campaign(seed, requests)
        start = time.perf_counter()
        result = campaign._execute(None) if reference else campaign.run()
        wall += time.perf_counter() - start
        sent += result.frames_sent
        prints.append(fingerprint(campaign, result))
        if result.fallback_reasons:
            reasons[seed] = result.fallback_reasons
    return prints, wall, sent, reasons


def reference_resume(path: Path, spec: ShardSpec,
                     checkpoint_every: int) -> dict:
    """``resume_campaign``'s protocol on the reference kernel."""
    journal = CampaignJournal(DirectoryStore(str(path)))
    saved, state = resume_point(journal)
    if saved is not None:
        return saved.to_dict()
    campaign = FACTORY(spec)
    campaign.attach_journal(journal, checkpoint_every=checkpoint_every)
    return campaign._execute(state).to_dict()


# ----------------------------------------------------------------------
# Durability parity (journals, checkpoints, kill-resume)
# ----------------------------------------------------------------------
def _records(path: Path) -> list[dict]:
    records, warnings = scan_records(DirectoryStore(str(path)))
    if warnings:
        raise AssertionError(f"journal scan warnings in {path}: {warnings}")
    return records


def _load(path: Path, name: str) -> dict:
    return json.loads(DirectoryStore(str(path)).read(name))


def _killed_copy(src: Path, dst: Path) -> Path:
    """A journal directory as a crash would leave it: checkpoints and
    progress records intact, no end record, no saved result."""
    shutil.copytree(src, dst)
    store = DirectoryStore(str(dst))
    store.remove(CampaignJournal.RESULT)
    survivors = [r for r in _records(dst) if r["type"] != "end"]
    for name in list(store.list()):
        if name.startswith("records"):
            store.remove(name)
    journal = CampaignJournal(store)
    for record in survivors:
        journal.append(record)
    return dst


def durability_parity(seeds, requests, checkpoint_every, root: Path) -> dict:
    """Journal/checkpoint/kill-resume identity, reference vs fast path."""
    specs = [spec_for(seed, requests) for seed in seeds]
    for seed, spec in zip(seeds, specs):
        reference_resume(root / f"scalar/shard-{seed:04d}", spec,
                         checkpoint_every)
    infos = [(None, str(root / f"batch/shard-{seed:04d}"), checkpoint_every)
             for seed in seeds]
    pairs = run_shard_batch(FACTORY, specs, journal_infos=infos)
    journals_ok, checkpoints_ok = True, True
    for (result, warnings), seed in zip(pairs, seeds):
        if warnings:
            raise AssertionError(f"world {seed} fell back: {warnings}")
        scalar_dir = root / f"scalar/shard-{seed:04d}"
        batch_dir = root / f"batch/shard-{seed:04d}"
        journals_ok &= (_records(scalar_dir) == _records(batch_dir))
        journals_ok &= (_load(scalar_dir, CampaignJournal.RESULT)
                        == _load(batch_dir, CampaignJournal.RESULT))
        checkpoints_ok &= (_load(scalar_dir, CampaignJournal.CHECKPOINT)
                           == _load(batch_dir, CampaignJournal.CHECKPOINT))

    # Kill after the last checkpoint; resume with either kernel.
    resumed: dict[str, list] = {}
    for resumer in ("scalar", "batch"):
        dirs = [_killed_copy(root / f"scalar/shard-{seed:04d}",
                             root / f"kill-{resumer}/shard-{seed:04d}")
                for seed in seeds]
        if resumer == "scalar":
            outcomes = [reference_resume(path, spec, checkpoint_every)
                        for spec, path in zip(specs, dirs)]
        else:
            infos = [(None, str(path), checkpoint_every) for path in dirs]
            outcomes = []
            for result, warnings in run_shard_batch(FACTORY, specs,
                                                    journal_infos=infos):
                if warnings:
                    raise AssertionError(f"resume fell back: {warnings}")
                outcomes.append(result.to_dict())
        resumed[resumer] = [(outcome, _records(path))
                            for outcome, path in zip(outcomes, dirs)]
    # A resumed run legitimately differs from a straight one (it has a
    # resume record); the contract is that both KERNELS resume a killed
    # journal identically.
    resume_ok = resumed["scalar"] == resumed["batch"]
    return {"journals_identical": journals_ok,
            "checkpoints_identical": checkpoints_ok,
            "kill_resume_identical": resume_ok,
            "worlds_checked": len(seeds),
            "checkpoint_every": checkpoint_every}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=positive_int, default=800,
                        help="request limit per world")
    parser.add_argument("--worlds", type=positive_int, default=256,
                        help="worlds run on the fast path")
    parser.add_argument("--scalar-sample", type=positive_int, default=8,
                        help="worlds run through the reference kernel to "
                             "price the baseline and check parity (the "
                             "full width would take minutes; the first "
                             "K seeds are representative because every "
                             "world runs the identical workload)")
    parser.add_argument("--durability-sample", type=positive_int, default=3,
                        help="worlds additionally run journalled, both "
                             "ways, for journal/checkpoint/kill-resume "
                             "parity")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the report JSON here")
    args = parser.parse_args(argv)

    sample = min(args.scalar_sample, args.worlds)
    seeds = list(range(args.worlds))
    front = seeds[:sample - sample // 2]
    back = seeds[sample - sample // 2:sample]

    # Reference first half (brackets the fast-path run against CPU
    # drift).
    print(f"reference baseline (1/2): {len(front)} worlds "
          f"x {args.requests} requests ...")
    reference_prints, reference_wall, reference_sent, _ = run_worlds(
        front, args.requests, reference=True)

    print(f"fast path: {args.worlds} worlds x {args.requests} "
          f"requests ...")
    fast_prints, fast_wall, fast_sent, fallbacks = run_worlds(
        seeds, args.requests)
    fast_rps = fast_sent / fast_wall
    print(f"  {fast_rps:,.0f} requests/s ({fast_wall:.2f} s wall)")

    print(f"reference baseline (2/2): {len(back)} worlds "
          f"x {args.requests} requests ...")
    prints2, wall2, sent2, _ = run_worlds(back, args.requests,
                                          reference=True)
    reference_prints += prints2
    reference_wall += wall2
    reference_sent += sent2
    reference_rps = reference_sent / reference_wall
    print(f"  {reference_rps:,.0f} requests/s ({reference_wall:.2f} s "
          f"wall, both halves)")

    parity = [fast_prints[i] == reference_prints[i] for i in range(sample)]

    print(f"durability parity: {args.durability_sample} journalled "
          f"worlds ...")
    root = Path(tempfile.mkdtemp(prefix="bench-batch-uds-"))
    try:
        durability = durability_parity(
            list(range(args.durability_sample)),
            min(args.requests, 600), checkpoint_every=200, root=root)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    speedup = fast_rps / reference_rps
    durability_ok = (durability["journals_identical"]
                     and durability["checkpoints_identical"]
                     and durability["kill_resume_identical"])
    print(f"speedup: {speedup:.2f}x, parity {sum(parity)}/{sample}, "
          f"durability {'ok' if durability_ok else 'BROKEN'}, "
          f"fallbacks: {fallbacks or 'none'}")

    report = {
        "benchmark": "fast path (campaign.run on the analytic UDS "
                     "exchange) vs reference kernel (campaign._execute)",
        "workload": {
            "target": "DiagTestbench (UdsBenchFactory defaults)",
            "generator": "UdsStateGenerator",
            "requests_per_world": args.requests,
            "stop_on_finding": False,
        },
        "worlds": args.worlds,
        "reference": {
            "worlds_sampled": sample,
            "wall_seconds": reference_wall,
            "requests_sent": reference_sent,
            "requests_per_wall_second": reference_rps,
        },
        "fast_path": {
            "worlds": args.worlds,
            "wall_seconds": fast_wall,
            "requests_sent": fast_sent,
            "requests_per_wall_second": fast_rps,
            "fallback_reasons": fallbacks,
        },
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "parity": {
            "worlds_checked": sample,
            "compares": ["FuzzResult.to_dict", "generator state digest",
                         "server state dict"],
            "world_by_world_identical": parity,
            "all_identical": all(parity),
        },
        "durability_parity": durability,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    ok = (all(parity) and durability_ok and not fallbacks
          and speedup >= REQUIRED_SPEEDUP)
    if not ok:
        print(f"FAILED: need >= {REQUIRED_SPEEDUP:.0f}x with full "
              "world-by-world and durability parity", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
