"""Table V: fuzzer run times to activate the unlock.

The paper's core quantitative result.  Twelve independent blind-fuzz
trials per BCM configuration at 1 frame/ms:

- "Single id and byte"                  paper mean:  431 s
- "Single id, byte plus data length"    paper mean: 1959 s

The analytic means of the sampling model are ~590 s and ~4720 s
(geometric distributions with sigma ~= mean, so the paper's 12-run
sample means sit within one sigma).  The *shape* claims checked here:

1. every trial eventually unlocks (blind fuzzing defeats the feature),
2. adding the DLC check slows the fuzzer down by a large factor
   (analytically 8x; the paper measured 4.5x on its small sample).

Trials run in simulated time on the batch frame engine: the full
12+12 (~97 M simulated frames with the recorded seeds) took 54 s of
wall time on one core of a 2-core Intel Xeon; set REPRO_TABLE5_TRIALS
to lower the sample size for smoke runs.
"""

import statistics

from conftest import table5_trials

from repro.fuzz.coverage import expected_unlock_seconds
from repro.testbench import UnlockExperiment


def run_row(check_mode: str, trials: int, seed: int):
    experiment = UnlockExperiment(check_mode=check_mode, seed=seed)
    return experiment.run_trials(trials)


def test_table5_unlock_times(benchmark, record_artifact):
    trials = table5_trials()

    def run_both_rows():
        loose = run_row("byte", trials, seed=431)
        strict = run_row("byte+dlc", trials, seed=1959)
        return loose, strict

    loose, strict = benchmark.pedantic(run_both_rows, rounds=1,
                                       iterations=1)

    analytic_loose = expected_unlock_seconds()
    analytic_strict = expected_unlock_seconds(require_exact_dlc=True)

    lines = [
        "Table V -- Fuzzer run times to activate unlock "
        f"({trials} trials per row, 1 frame/ms)",
        "",
        loose.format(),
        strict.format(),
        "",
        f"paper means:    431 s / 1959 s (ratio 4.5x, 12-run samples)",
        f"analytic means: {analytic_loose:.0f} s / {analytic_strict:.0f} s "
        f"(ratio {analytic_strict / analytic_loose:.1f}x)",
        f"measured ratio: "
        f"{strict.mean_seconds / loose.mean_seconds:.1f}x",
        f"timeouts: {loose.timeouts} / {strict.timeouts}",
    ]
    record_artifact("table5_unlock_times", "\n".join(lines))

    benchmark.extra_info["mean_loose_s"] = round(loose.mean_seconds, 1)
    benchmark.extra_info["mean_strict_s"] = round(strict.mean_seconds, 1)

    # Shape checks.
    assert len(loose.times_seconds) >= max(1, trials - 1)
    assert len(strict.times_seconds) >= max(1, trials - 1)
    # The headline effect: the DLC check slows the attack down a lot.
    assert strict.mean_seconds > 2.0 * loose.mean_seconds
    # Means are the right order of magnitude (geometric spread allowed:
    # the 12-trial sample mean has sigma ~= mean/sqrt(12) ~= 0.3 mean).
    assert 0.3 * analytic_loose < loose.mean_seconds < 3.0 * analytic_loose
    assert 0.3 * analytic_strict < strict.mean_seconds \
        < 3.0 * analytic_strict
