"""Steadiness evidence: repeat every workload and compare spreads with
the bounds in ``BENCHMARK.json``.

One set of runs (each run a fresh ``bench/run.py`` process with its
own seed, workloads interleaved so drift hits all of them alike)::

    python3 bench/steady.py --runs 10 --first-seed 100 \\
        --output bench/results/steady-1.json

Two sets compared against the current bounds (each spread within its
bound, ``setup_s`` exempt, and the second median no worse than the
first by more than the bound)::

    python3 bench/steady.py --compare bench/results/steady-1.json \\
        bench/results/steady-2.json

For every workload/metric pair a set reports the median, quartiles
(``statistics.quantiles(values, n=4)``), min and max, and the spread
(interquartile distance over the median) against the bound.  Besides
the end-to-end metrics it reports the workload's headline numbers
(hunt requests/s, repro seconds, job latency percentiles, ...), which
have no bound of their own; they are held to their workload's
``ops_per_s`` bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Headline numbers per workload: (name, better, detail reader).
HEADLINES = {
    "table5": [("frames_per_s", "higher", lambda d: d["frames_per_s"])],
    "triage": [("requests_per_s", "higher", lambda d: d["requests_per_s"]),
               ("repro_s", "lower",
                lambda d: statistics.fmean(d["repro_s"]))],
    "sharded-batch": [("frames_per_s", "higher",
                       lambda d: d["frames_per_s"]),
                      ("requests_per_s", "higher",
                       lambda d: d["requests_per_s"])],
    "service": [("job_p50_s", "lower", lambda d: d["job_p50_s"]),
                ("job_p90_s", "lower", lambda d: d["job_p90_s"]),
                ("jobs_per_s", "higher", lambda d: d["jobs_per_s"])],
}


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "spread": spread,
            "bound": bound, "within": spread <= bound}


def run_set(runs: int, first_seed: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = list(HEADLINES)
    samples = {w: {} for w in workloads}
    record = {"runs": runs, "run_seconds": spec["run_seconds"],
              "seeds": list(range(first_seed, first_seed + runs)),
              "failures": [], "disturbance": {}}
    for seed in record["seeds"]:
        for workload in workloads:
            command = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                record["failures"].append(
                    {"workload": workload, "seed": seed,
                     "code": done.returncode, "stderr": done.stderr[-2000:]})
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            record.setdefault("machine", detail["machine"])
            record["disturbance"].setdefault(workload, []).append(
                detail["disturbance"])
            per = samples[workload]
            for name, metric in result["metrics"].items():
                per.setdefault(name, []).append(metric["value"])
            for name, _, read in HEADLINES[workload]:
                per.setdefault(f"headline.{name}", []).append(
                    read(detail["details"]))
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in
                result["metrics"].items()), flush=True)
    record["workloads"] = {}
    for workload, per in samples.items():
        own = bounds["ops_per_s"]["bound"]
        record["workloads"][workload] = {
            name: summarise(values, bounds[name]["bound"] if name in bounds
                            else own)
            for name, values in per.items()}
    return record


def print_set(record: dict) -> None:
    print(f"{'workload/metric':<38}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'min':>12}{'max':>12}{'spread':>8}{'bound':>7}")
    for workload, metrics in record["workloads"].items():
        for name, s in metrics.items():
            print(f"{workload + '/' + name:<38}{s['median']:>12.5g}"
                  f"{s['q1']:>12.5g}{s['q3']:>12.5g}{s['min']:>12.5g}"
                  f"{s['max']:>12.5g}{s['spread']:>8.3f}{s['bound']:>7.2f}"
                  f"{'' if s['within'] else '  OUTSIDE'}")
    for failure in record["failures"]:
        print(f"FAILED {failure['workload']} seed {failure['seed']}: "
              f"exit {failure['code']}")


def compare(first: dict, second: dict) -> bool:
    """Both sets against the bounds in ``BENCHMARK.json``: each spread
    (``setup_s`` exempt) and the second median's change from the first."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload/metric':<38}{'first':>12}{'second':>12}"
          f"{'worse by':>10}{'spread 1':>10}{'spread 2':>10}{'bound':>7}")
    for workload, metrics in first["workloads"].items():
        directions = {f"headline.{name}": direction
                      for name, direction, _ in HEADLINES[workload]}
        for name, a in metrics.items():
            b = second["workloads"][workload][name]
            metric = bounds.get(name, bounds["ops_per_s"])
            better = directions.get(name, metric["better"])
            bound = metric["bound"]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if better == "lower" else -change
            inside = worse <= bound and (name == "setup_s" or max(
                a["spread"], b["spread"]) <= bound)
            if name in bounds:
                ok = ok and inside
            print(f"{workload + '/' + name:<38}{a['median']:>12.5g}"
                  f"{b['median']:>12.5g}{worse:>10.3f}{a['spread']:>10.3f}"
                  f"{b['spread']:>10.3f}{bound:>7.2f}"
                  f"{'' if inside else '  OUTSIDE'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--output", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    record = run_set(args.runs, args.first_seed)
    print_set(record)
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(record, indent=1) + "\n")
    ok = not record["failures"] and all(
        s["within"] for metrics in record["workloads"].values()
        for name, s in metrics.items()
        if name != "setup_s" and not name.startswith("headline."))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
