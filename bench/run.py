"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload from the repository root::

    python3 bench/run.py --workload table5 --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``,
``peak_rss_mb``, ``ops_per_s``); ``--trace 1`` re-runs part of the
same work with every layer boundary wrapped and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON record of the machine, the disturbances seen
during the run and the workload's headline numbers.  Outputs are
checked before anything is printed: a mismatch exits 1 with no
result.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("table5", "triage", "sharded-batch", "service")
#: Fresh processes timed per run for ``setup_s`` (the median counts).
SETUP_PROBES = 3
READY = "ready"


def read_steal_seconds() -> float:
    """Host-wide CPU steal time so far (``/proc/stat``), in seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def involuntary_switches() -> int:
    return sum(resource.getrusage(who).ru_nivcsw for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def peak_rss_mb() -> float:
    """Peak RSS of this process and every child it reaped, in MB."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode("utf-8"))
        source.update(path.read_bytes())
    import numpy
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "source_sha256": source.hexdigest()}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process to its first timed
    operation, for ``SETUP_PROBES`` processes."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = probe.stdout.readline().strip()
        times.append(time.perf_counter() - started)
        probe.stdout.close()
        if probe.wait(timeout=120) != 0 or line != READY:
            raise RuntimeError(f"set-up probe failed ({line!r})")
    return times


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def check(workload, seed: int, out) -> None:
    """Fingerprints for recorded seeds, the repo's contracts otherwise."""
    recorded = load_expected().get(workload.name, {}).get(str(seed))
    unrecorded = [key for key in out.fingerprints
                  if recorded is None or key not in recorded]
    for key, value in out.fingerprints.items():
        if recorded is not None and key in recorded \
                and recorded[key] != value:
            out.errors.append(f"{key}: fingerprint {value} differs from "
                              f"the recorded {recorded[key]}")
    if unrecorded:
        workload.check_contracts(seed, out)


def record(workload, seed: int, rounds: int) -> None:
    """Store the fingerprints of ``rounds`` rounds for ``seed``."""
    if workload.name == "service":
        from workloads import (BACKLOG_JOBS, OPEN_LOOP_JOBS,
                               direct_fingerprint, job_spec)
        fingerprints = {}
        for index in range(OPEN_LOOP_JOBS + BACKLOG_JOBS):
            fields = job_spec(seed, index)
            fingerprints[fields["job_id"]] = direct_fingerprint(fields)
    else:
        workload.prepare(seed)
        fingerprints = workload.run(seed, 0.0,
                                    rounds=list(range(rounds))).fingerprints
    expected = load_expected()
    expected.setdefault(workload.name, {})[str(seed)] = fingerprints
    with open(HERE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run(args, workload, work: Path) -> int:
    steal, switches = read_steal_seconds(), involuntary_switches()
    setup = measure_setup(args.workload, args.seed) if not args.trace else []
    if args.workload != "service":
        workload.prepare(args.seed)
    out = workload.run(args.seed, args.seconds)
    check(workload, args.seed, out)
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        traced, untraced_s = workload.traced(
            args.seed, out, tracer,
            lambda: layers.install(tracer, time_kernel=workload.time_kernel))
        out.errors.extend(traced.errors)
        for key, value in traced.fingerprints.items():
            if out.fingerprints.get(key) != value:
                out.errors.append(f"traced {key}: fingerprint {value} "
                                  f"differs from the untraced run's")
        tracer.write(work.parent / f"trace-{args.workload}-{args.seed}.json")
        metrics = layers.per_layer(tracer, traced.layers, traced.seconds,
                                   untraced_s)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "ops_per_s": {"value": out.ops / out.seconds, "unit": "1/s"},
        }
    if out.errors:
        for error in out.errors:
            print(f"output check failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": out.seconds, "rounds": out.rounds,
        "setup_samples_s": setup, "details": out.details,
        "machine": machine(),
        "disturbance": {
            "steal_s": read_steal_seconds() - steal,
            "involuntary_switches": involuntary_switches() - switches},
    }, default=str))
    print(json.dumps({"correct": True, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", type=int, metavar="ROUNDS",
                        help="store the fingerprints of ROUNDS rounds of "
                             "--seed in bench/expected.json and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, work)
    try:
        if args.setup_probe:
            workload.prepare(args.seed)
            print(READY, flush=True)
            return 0
        if args.record is not None:
            record(workload, args.seed, args.record)
            return 0
        return run(args, workload, work)
    finally:
        workload.finish()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
