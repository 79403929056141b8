"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.fuzz.durability import CampaignJournal
from tests.journals import kill_after_last_checkpoint


def start_only_journal(path, **kind) -> str:
    """A journal directory as a run killed before its first checkpoint
    leaves it: one write-ahead ``start`` record, no checkpoint, no
    result.  A UDS campaign's start record carries ``kind="uds"``."""
    CampaignJournal(str(path)).append(
        {"type": "start", "name": "killed", "started_at": 0, **kind})
    return str(path)


class TestSurvey:
    def test_prints_chart(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Fuzz testing" in out


class TestCapture:
    def test_paper_format(self, capsys):
        assert main(["capture", "--seconds", "1", "--head", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Time (ms)")

    def test_candump_format(self, capsys):
        assert main(["capture", "--seconds", "1",
                     "--format", "candump"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "powertrain" in out

    def test_csv_format(self, capsys):
        assert main(["capture", "--seconds", "1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("time_ms,")

    def test_body_bus(self, capsys):
        assert main(["capture", "--seconds", "1", "--bus", "body",
                     "--format", "candump"]) == 0
        assert "body" in capsys.readouterr().out


class TestByteStats:
    def test_uniform_output(self, capsys):
        assert main(["byte-stats", "--frames", "5000"]) == 0
        out = capsys.readouterr().out
        assert "overall mean: 127" in out


class TestCoverage:
    def test_paper_numbers(self, capsys):
        assert main(["coverage"]) == 0
        out = capsys.readouterr().out
        assert "524,288" in out
        assert "8.7 minutes" in out

    def test_two_bytes_in_days(self, capsys):
        assert main(["coverage", "--payload-bytes", "2"]) == 0
        out = capsys.readouterr().out
        assert "days" in out


class TestFuzzBench:
    def test_unlocks_with_known_seed(self, capsys):
        assert main(["fuzz-bench", "--seed", "19"]) == 0
        out = capsys.readouterr().out
        assert "unlocked" in out

    def test_budget_exhaustion_returns_nonzero(self, capsys):
        # 2 simulated seconds is far too little to unlock blind.
        assert main(["fuzz-bench", "--seed", "1",
                     "--max-seconds", "2"]) == 1

    def test_sharded_run_reports_provenance(self, capsys):
        # Master seed 14: shard 1's derived stream hits the unlock
        # within ~8 simulated seconds (pinned by scan).
        assert main(["fuzz-bench", "--seed", "14", "--shards", "2",
                     "--jobs", "2", "--max-seconds", "20"]) == 0
        out = capsys.readouterr().out
        assert "2/2 shards ok" in out
        assert "[shard 1] unlock-ack" in out

    def test_sharded_budget_exhaustion_returns_nonzero(self, capsys):
        assert main(["fuzz-bench", "--seed", "1", "--shards", "2",
                     "--jobs", "2", "--max-seconds", "1"]) == 1
        assert "0 finding(s)" in capsys.readouterr().out

    @staticmethod
    def sharded_journal_run(journal):
        return ["fuzz-bench", "--seed", "5", "--shards", "2", "--jobs", "2",
                "--max-seconds", "2", "--journal", journal]

    def test_sharded_occupied_journal_without_resume_errors(self, capsys,
                                                            tmp_path):
        argv = self.sharded_journal_run(str(tmp_path / "journal"))
        assert main(argv) == 1
        capsys.readouterr()
        assert main(argv) == 2
        assert "pass --resume" in capsys.readouterr().err
        # The single-process mode refuses the sharded run's directory too,
        # and the sharded mode a single-process run's.
        assert main(["fuzz-bench", "--seed", "5", "--max-seconds", "2",
                     "--journal", str(tmp_path / "journal")]) == 2
        single = str(tmp_path / "single")
        assert main(["fuzz-bench", "--seed", "5", "--max-seconds", "1",
                     "--journal", single]) == 1
        capsys.readouterr()
        assert main(self.sharded_journal_run(single)) == 2
        assert "pass --resume" in capsys.readouterr().err

    def test_journal_killed_before_its_first_checkpoint_is_occupied(
            self, capsys, tmp_path):
        journal = start_only_journal(tmp_path / "journal")
        argv = ["fuzz-bench", "--seed", "1", "--max-seconds", "1",
                "--journal", journal]
        assert main(argv) == 2
        assert "pass --resume" in capsys.readouterr().err
        # 1 simulated second is too short to unlock; the run completes.
        assert main(argv + ["--resume"]) == 1
        assert CampaignJournal(journal).load_result() is not None

    def test_sharded_resume_loads_saved_results(self, capsys, tmp_path):
        argv = self.sharded_journal_run(str(tmp_path / "journal"))
        assert main(argv) == 1
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 1
        out = capsys.readouterr().out
        assert "2/2 shards ok" in out
        assert out.count("result loaded from journal") == 2


class TestNoiseFlags:
    def test_ack_loss_alone_builds_a_channel_without_bit_errors(
            self, capsys, tmp_path):
        import json

        report = tmp_path / "ack-loss.json"
        assert main(["fuzz-bench", "--seed", "1", "--max-seconds", "1",
                     "--ack-loss", "0.5", "--report", str(report)]) == 1
        payload = json.loads(report.read_text())
        rows = {name: value for _, name, value in payload["channel"]}
        assert rows["ack loss"] == "0.5"
        assert rows["bit error rate"] == "0"
        # The channel comes with its campaign supervisor.
        assert "campaign-health" in payload["result"]["health"]

    # (BER, burst BER, ack loss) each flag combination configures.
    @pytest.mark.parametrize("flags, expected", [
        ([], None),
        (["--channel-noise"], (1e-4, 0.0, 0.0)),
        (["--channel-noise", "--ack-loss", "0.2"], (1e-4, 0.0, 0.2)),
        (["--ber", "2e-3"], (2e-3, 0.0, 0.0)),
        (["--burst", "5e-2"], (0.0, 5e-2, 0.0)),
        (["--ber", "2e-3", "--burst", "5e-2", "--ack-loss", "0.1"],
         (2e-3, 5e-2, 0.1)),
        (["--ack-loss", "0.5"], (0.0, 0.0, 0.5)),
    ])
    def test_flags_build_the_channel_they_describe(self, flags, expected):
        from repro.cli import _channel_config, build_parser

        config = _channel_config(build_parser().parse_args(
            ["fuzz-bench", *flags]))
        got = (None if config is None
               else (config.ber, config.burst_ber, config.ack_loss))
        assert got == expected


class TestFuzzBenchMinimize:
    def make_finding(self):
        from repro.can.frame import CanFrame
        from repro.fuzz.oracle import Finding
        from repro.vehicle.database import BODY_COMMAND_ID, UNLOCK_COMMAND

        culprit = CanFrame(BODY_COMMAND_ID,
                           bytes((UNLOCK_COMMAND, 0x99, 0x01)))
        noise = [CanFrame(0x100 + i, bytes((i,))) for i in range(6)]
        return Finding(
            time=1_000_000, oracle="unlock-ack", description="unlock",
            recent_frames=tuple(noise[:3] + [culprit] + noise[3:]))

    def test_minimize_finding_record(self):
        from repro.cli import _minimize_finding

        record = _minimize_finding(self.make_finding(),
                                   check_mode="byte", seed=3)
        assert record["reproduced"]
        assert record["window_frames"] == 7
        assert len(record["minimized_frames"]) == 1
        assert record["minimized_frames"][0]["id"] == 0x215
        assert record["probes"] > 0
        assert record["replayer"]["replays"] >= record["probes"]

    def test_non_reproducing_window_is_reported_not_fatal(self):
        from repro.can.frame import CanFrame
        from repro.cli import _minimize_finding
        from repro.fuzz.oracle import Finding

        benign = Finding(time=1, oracle="ack", description="noise only",
                         recent_frames=(CanFrame(0x100, b"\x01"),))
        record = _minimize_finding(benign, check_mode="byte", seed=3)
        assert record == {"oracle": "ack", "time": 1,
                          "window_frames": 1, "reproduced": False}

    def test_end_to_end_minimize_and_report(self, capsys, tmp_path):
        report = tmp_path / "bench.json"
        assert main(["fuzz-bench", "--seed", "19", "--minimize",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "minimised" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["mode"] == "single"
        assert payload["minimized"][0]["reproduced"]
        assert payload["minimized"][0]["probes"] > 0
        assert payload["result"]["findings"]


class TestFuzzUds:
    def test_end_to_end_journalled_hunt(self, capsys, tmp_path):
        report = tmp_path / "uds.json"
        assert main(["fuzz-uds", "--seed", "0", "--requests", "1500",
                     "--journal", str(tmp_path / "journal"),
                     "--checkpoint-every", "100",
                     "--minimize", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "protocol-state coverage" in out
        assert "1 confirmed" in out
        assert "minimised" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["mode"] == "uds"
        assert payload["result"]["findings"]
        assert payload["confirmation"]["confirmed"] == 1
        # A scalar run never degraded from a batch, so the report's
        # fallback block is present but empty.
        assert payload["fallback_reasons"] == []
        record = payload["minimized"][0]
        assert record["reproduced"]
        # The hunt stops at its first finding: the NRC-path hang, a
        # single session-control request into the stalled sub-function.
        assert record["minimized_requests"] == ["1004"]

    def test_keep_going_surfaces_all_three_defects(self, capsys,
                                                   tmp_path):
        report = tmp_path / "uds-keep-going.json"
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--keep-going", "--minimize",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "3 confirmed" in out
        import json

        payload = json.loads(report.read_text())
        assert len(payload["result"]["findings"]) == 3
        assert payload["confirmation"]["confirmed"] == 3
        tails = [record["minimized_requests"][-1]
                 for record in payload["minimized"]]
        # One run, all three seeded defects: the NRC-path hang (one
        # request), the armed calibration-dump read that crashes the
        # ECU, and the bootloader-scratch overflow (each a session
        # walk, handshake, then the fatal request).
        assert tails[0] == "1004"
        assert tails[1] == "22f1a5"
        assert tails[2].startswith("2ef1a0")
        assert len(payload["minimized"][1]["minimized_requests"]) == 5
        assert len(payload["minimized"][2]["minimized_requests"]) == 5

    def test_resume_of_finished_run_returns_saved_result(self, capsys,
                                                         tmp_path):
        journal = str(tmp_path / "journal")
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--journal", journal, "--resume"]) == 0
        assert "uds-liveness" in capsys.readouterr().out

    def test_occupied_journal_without_resume_errors(self, capsys,
                                                    tmp_path):
        journal = str(tmp_path / "journal")
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--journal", journal]) == 0
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--journal", journal]) == 2

    def test_journal_killed_before_its_first_checkpoint_is_occupied(
            self, capsys, tmp_path):
        journal = start_only_journal(tmp_path / "journal", kind="uds")
        argv = ["fuzz-uds", "--seed", "0", "--requests", "300",
                "--journal", journal]
        assert main(argv) == 2
        assert "pass --resume" in capsys.readouterr().err
        assert main(argv + ["--resume"]) == 0
        assert CampaignJournal(journal).load_result() is not None

    def test_resume_requires_journal(self, capsys):
        assert main(["fuzz-uds", "--resume"]) == 2


class TestJournalOfTheOtherKind:
    """``--resume`` refuses a journal the other command wrote, whether
    that run completed or was killed after its last checkpoint."""

    UDS = ["fuzz-uds", "--seed", "3", "--requests", "400",
           "--checkpoint-every", "50"]
    BENCH = ["fuzz-bench", "--seed", "3", "--max-seconds", "2",
             "--checkpoint-every", "500"]

    def refused(self, capsys, tmp_path, write, code, resume, killed):
        journal = str(tmp_path / "journal")
        assert main(write + ["--journal", journal]) == code
        if killed:
            kill_after_last_checkpoint(journal)
        capsys.readouterr()
        assert main(resume + ["--journal", journal, "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("killed", [False, True],
                             ids=["completed", "killed"])
    def test_fuzz_bench_refuses_a_uds_journal(self, capsys, tmp_path,
                                              killed):
        err = self.refused(capsys, tmp_path, self.UDS, 0, self.BENCH,
                           killed)
        assert "'uds' campaign" in err and "'frame' campaign" in err

    @pytest.mark.parametrize("killed", [False, True],
                             ids=["completed", "killed"])
    def test_fuzz_uds_refuses_a_frame_journal(self, capsys, tmp_path,
                                              killed):
        err = self.refused(capsys, tmp_path, self.BENCH, 1, self.UDS,
                           killed)
        assert "'frame' campaign" in err and "'uds' campaign" in err


class TestOlderJournalFormat:
    """A journal directory with the older format's checkpoint or result
    file is refused with exit 2, in every mode."""

    @pytest.mark.parametrize("argv, name", [
        (["fuzz-bench", "--max-seconds", "1"], "checkpoint.json"),
        (["fuzz-bench", "--max-seconds", "1", "--shards", "2",
          "--jobs", "2"], "shard-0001/result.json"),
        (["fuzz-uds", "--requests", "50"], "result.json"),
    ], ids=["fuzz-bench", "fuzz-bench-sharded", "fuzz-uds"])
    def test_refused(self, capsys, tmp_path, argv, name):
        journal = tmp_path / "journal"
        (journal / name).parent.mkdir(parents=True)
        (journal / name).write_text("{}")
        assert main(argv + ["--journal", str(journal), "--resume"]) == 2
        err = capsys.readouterr().err
        assert name.split("/")[-1] in err and "fresh directory" in err


class TestTable5:
    def test_single_trial_row(self, capsys):
        assert main(["table5", "--trials", "1", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "mean:" in out


class TestObdScan:
    def test_scan_lists_pids(self, capsys):
        assert main(["obd-scan"]) == 0
        out = capsys.readouterr().out
        assert "ENGINE_RPM" in out
        assert "stored DTCs: 0" in out


class TestParser:
    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
