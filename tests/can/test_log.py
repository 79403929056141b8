"""Tests for trace formats: paper table, candump, CSV."""

from repro.can.frame import CanFrame, TimestampedFrame
from repro.can.log import (
    TraceRecord,
    format_candump,
    format_csv,
    format_paper_table,
)

import pytest


def record(time_ms=1.0, can_id=0x100, data=b"\x01\x02"):
    return TraceRecord(time_ms=time_ms, can_id=can_id, length=len(data),
                       data=data)


class TestTraceRecord:
    def test_from_stamped(self):
        stamped = TimestampedFrame(5_328_009, CanFrame(0x43A, b"\x1c"),
                                   channel="powertrain")
        rec = TraceRecord.from_stamped(stamped)
        assert rec.time_ms == pytest.approx(5328.009)
        assert rec.can_id == 0x43A
        assert rec.channel == "powertrain"


class TestPaperTable:
    def test_header_matches_paper(self):
        table = format_paper_table([])
        assert table.splitlines()[0].startswith("Time (ms)")

    def test_row_formatting(self):
        table = format_paper_table([record(3031.094, 0x00F,
                                           bytes.fromhex("5963BA5A77D5"))])
        row = table.splitlines()[1]
        assert "3031.094" in row
        assert "000F" in row
        assert "59 63 BA 5A 77 D5" in row

    def test_zero_length_row_has_no_data_column(self):
        table = format_paper_table([record(1.0, 0x68, b"")])
        row = table.splitlines()[1]
        assert row.rstrip().endswith("0")


class TestCandump:
    def test_format_shape(self):
        line = format_candump([record(5328.009, 0x43A, b"\x1c\x21")])
        assert line == "(5.328009) can0 43A#1C21"


class TestCsv:
    def test_header_present(self):
        assert format_csv([]).startswith("time_ms,id_hex,length,data_hex")
