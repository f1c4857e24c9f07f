import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest

from bipartite_ab import ingest
from bipartite_ab.cli import main
from bipartite_ab.ingest import (
    DEFAULT_EVENT_KINDS,
    EVENTS_HEADER,
    AssignmentTable,
    EventLog,
    EventParseReport,
    IngestError,
    ParseError,
    Variant,
    Vocabulary,
    parse_assignments,
    parse_events,
    parse_outcomes,
    write_assignments,
    write_events,
    write_outcomes,
)
from bipartite_ab.graph import GraphBuildConfig, build_graph, dump_graph

from conftest import (
    assignment_entries,
    assignment_table,
    dict_rows,
    event_rows,
    outcome_entries,
    outcome_table,
)

WINDOW = (0, 10_000)


def write_events_csv(path, rows, header="buyer_id,seller_id,event_kind,timestamp_ms"):
    path.write_text(header + "\n" + "\n".join(",".join(map(str, r)) for r in rows) + ("\n" if rows else "\n"))


def write_assignment_files(tmp_path, rows, variants):
    csv_path = tmp_path / "assignments.csv"
    csv_path.write_text(
        "buyer_id,variant\n" + "".join(f"{b},{v}\n" for b, v in rows)
    )
    design = tmp_path / "assignments.design.json"
    design.write_text(json.dumps({"variants": variants}))
    return csv_path


class TestParseEvents:
    def test_kind_filter(self, tmp_path):
        path = tmp_path / "events.csv"
        rows = [
            ("b1", "s1", "view", 1),
            ("b2", "s1", "favorite", 2),
            ("b1", "s2", "view", 3),
            ("b3", "s2", "favorite", 4),
            ("b3", "s3", "view", 5),
        ]
        write_events_csv(path, rows)
        events, report = parse_events(path, {"view"}, WINDOW)
        assert len(events) == 3
        assert all(kind == "view" for _, _, kind, _ in event_rows(events))
        assert report.dropped_kind == 2

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv(path, [])
        events, report = parse_events(path, {"view"}, WINDOW)
        assert len(events) == 0 and events.buyers == events.sellers == ()
        assert report.rows_dropped == 0

    def test_window_exclusion_matches_rescan(self, tmp_path):
        # oracle: line-by-line re-scan of the raw file with csv.reader
        path = tmp_path / "events.csv"
        rows = [(f"b{i}", f"s{i % 3}", "view", t) for i, t in enumerate([1, 5, 99999, 7, 10001])]
        write_events_csv(path, rows)
        events, report = parse_events(path, {"view"}, WINDOW)

        with open(path) as fh:
            reader = csv.reader(fh)
            next(reader)
            in_window = sum(
                1 for r in reader if WINDOW[0] <= int(r[3]) <= WINDOW[1]
            )
        assert len(events) == in_window == 3
        assert report.dropped_window == 2

    def test_window_endpoints_inclusive(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv(path, [("b1", "s1", "view", 0), ("b2", "s1", "view", 10_000)])
        events, _ = parse_events(path, {"view"}, WINDOW)
        assert len(events) == 2

    def test_unknown_kind_skipped_with_warning(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv(path, [("b1", "s1", "view", 1), ("b2", "s1", "teleport", 2)])
        with pytest.warns(UserWarning, match="teleport"):
            events, report = parse_events(path, {"view"}, WINDOW)
        assert len(events) == 1
        assert report.dropped_unknown_kind == 1

    def test_one_warning_per_unknown_kind(self, tmp_path):
        """Each unknown kind warns once, at its first line with its row
        count, in order of first appearance; blank lines count as lines."""
        path = tmp_path / "events.csv"
        path.write_text(
            "buyer_id,seller_id,event_kind,timestamp_ms\n"
            "b1,s1,zap,1\nb2,s1,view,2\n\nb3,s1,teleport,3\nb4,s2,zap,4\n"
            + "b5,s2,teleport,5\n" * 3
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            events, report = parse_events(path, {"view"}, WINDOW)
        assert [str(w.message) for w in caught] == [
            f"{path}:2: unknown event kind 'zap', 2 row(s) skipped",
            f"{path}:5: unknown event kind 'teleport', 4 row(s) skipped",
        ]
        assert len(events) == 1 and report.dropped_unknown_kind == 6

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("buyer_id,seller_id,event_kind,timestamp_ms\nb1,s1,view,notanumber\n")
        with pytest.raises(ParseError, match=":2:"):
            parse_events(path, {"view"}, WINDOW)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("b9,s1,view", "expected 4 columns, got 3"),
            (",s1,view,4", "empty buyer_id or seller_id"),
            ("b9,s1,view,4.5", "non-integer timestamp '4.5'"),
            ("b9,s1,view,9223372036854775808", "non-int64 timestamp '9223372036854775808'"),
        ],
    )
    def test_row_errors_name_their_line_after_blank_lines(
        self, tmp_path, bad_row, message
    ):
        path = tmp_path / "events.csv"
        path.write_text(
            "buyer_id,seller_id,event_kind,timestamp_ms\n"
            "b1,s1,view,1\n\n\nb2,s1,view,2\n\n" + bad_row + "\nb3,s1,view,3\n"
        )
        with pytest.raises(ParseError, match=f":7: {message}") as caught:
            parse_events(path, {"view"}, WINDOW)
        assert caught.value.line_no == 7

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize(
        "bad_row, byte",
        [(b"b\xff9,s1,view,4", "0xff"), (b"b9,s1,view,4\xe9", "0xe9")],
        ids=["id", "timestamp"],
    )
    def test_invalid_utf8_names_its_line(self, tmp_path, quoted, bad_row, byte):
        path = tmp_path / "events.csv"
        first = b'"b1",s1,teleport,1' if quoted else b"b1,s1,teleport,1"
        path.write_bytes(
            b"buyer_id,seller_id,event_kind,timestamp_ms\n"
            + first + b"\n\nb2,s1,view,2\n" + bad_row + b"\nb3,s1,view,x\n"
        )
        with pytest.warns(UserWarning, match=":2: unknown event kind 'teleport'"):
            with pytest.raises(ParseError, match=f":5: invalid UTF-8 byte {byte}$") as caught:
                parse_events(path, {"view"}, WINDOW)
        assert caught.value.line_no == 5

    def test_counters_add_up(self, tmp_path):
        path = tmp_path / "events.csv"
        rows = [
            ("b1", "s1", "view", 1),
            ("b2", "s1", "favorite", 2),
            ("b3", "s2", "view", 20_000),
            ("b4", "s2", "teleport", 3),
            ("b5", "s3", "view", -1),
            ("b1", "s3", "message", 4),
            ("b1", "s1", "view", 1),
        ]
        write_events_csv(path, rows)
        with pytest.warns(UserWarning, match="teleport"):
            events, report = parse_events(path, {"view"}, WINDOW)
        assert report.rows_read == 7 == report.rows_kept + report.rows_dropped
        assert (report.rows_kept, report.dropped_kind, report.dropped_window,
                report.dropped_unknown_kind) == (2, 2, 2, 1)
        assert event_rows(events) == [rows[0], rows[6]]
        assert events.buyers == ("b1",) and events.sellers == ("s1",)
        assert events.kinds == ("view",)

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "events.csv"
        rows = [("b3", "s1", "view", 9), ("b1", "s1", "view", 2), ("b2", "s2", "view", 5)]
        write_events_csv(path, rows)
        events, _ = parse_events(path, {"view"}, WINDOW)
        assert event_rows(events) == rows

    def test_disjoint_kind_union_is_concat(self, tmp_path):
        path = tmp_path / "events.csv"
        rows = [
            ("b1", "s1", "view", 1),
            ("b2", "s1", "favorite", 2),
            ("b1", "s2", "favorite", 3),
            ("b3", "s2", "view", 4),
        ]
        write_events_csv(path, rows)
        both, _ = parse_events(path, {"view", "favorite"}, WINDOW)
        views, _ = parse_events(path, {"view"}, WINDOW)
        favs, _ = parse_events(path, {"favorite"}, WINDOW)
        assert sorted(event_rows(both)) == sorted(event_rows(views) + event_rows(favs))


class TestParseAssignments:
    def test_two_variants(self, tmp_path):
        rows = [(f"b{i}", "Off" if i < 5 else "On") for i in range(10)]
        variants = [
            {"label": "Off", "probability": 0.5, "control": True},
            {"label": "On", "probability": 0.5},
        ]
        path = write_assignment_files(tmp_path, rows, variants)
        table = parse_assignments(path)
        assert len(table.buyers) == 10
        assert table.labels == ["Off", "On"]
        assert [v.label for v in table.variants if v.control] == ["Off"]

    def test_duplicate_buyer_is_error(self, tmp_path):
        rows = [("b1", "Off"), ("b1", "On")]
        variants = [
            {"label": "Off", "probability": 0.5, "control": True},
            {"label": "On", "probability": 0.5},
        ]
        path = write_assignment_files(tmp_path, rows, variants)
        with pytest.raises(ParseError, match="b1"):
            parse_assignments(path)

    def test_three_variant_design(self, tmp_path):
        third = 1.0 / 3.0
        rows = [("b1", "Off"), ("b2", "A"), ("b3", "B")]
        variants = [
            {"label": "Off", "probability": third, "control": True},
            {"label": "A", "probability": third},
            {"label": "B", "probability": third},
        ]
        path = write_assignment_files(tmp_path, rows, variants)
        table = parse_assignments(path)
        assert table.labels == ["Off", "A", "B"]

    def test_probabilities_must_sum_to_one(self, tmp_path):
        rows = [("b1", "Off")]
        variants = [
            {"label": "Off", "probability": 0.6, "control": True},
            {"label": "On", "probability": 0.5},
        ]
        path = write_assignment_files(tmp_path, rows, variants)
        with pytest.raises(IngestError, match="sum"):
            parse_assignments(path)

    @pytest.mark.parametrize(
        "design, message",
        [
            ({"variants": [{"probability": 0.5, "control": True}]}, "no label"),
            ({"variants": [{"label": "Off", "control": True}]}, "no probability"),
            ({"variants": [{"control": True}]}, "no label or probability"),
            ({"variants": ["Off", "On"]}, "not an object"),
            ({"variants": [["Off", 0.5]]}, "not an object"),
            ({"variants": "Off,On"}, "'variants' list"),
            ({"variants": {"label": "Off"}}, "'variants' list"),
            ({"variants": None}, "'variants' list"),
            (["Off", "On"], "'variants' list"),
            ({"variants": [{"label": "Off", "probability": "half"}]}, "non-numeric"),
            ({"variants": [{"label": "Off", "probability": None}]}, "non-numeric"),
            ({"variants": [{"label": "Off", "probability": [0.5]}]}, "non-numeric"),
            ({"variants": [{"label": "Off", "probability": "0.5"}]}, "variant 0 has non-numeric"),
            ({"variants": [{"label": "Off", "probability": True}]}, "variant 0 has non-numeric"),
            ({"variants": [{"label": "Off", "probability": 0.5, "control": True},
                           {"label": None, "probability": 0.5}]}, "variant 1 has non-string"),
            ({"variants": [{"label": 1, "probability": 0.5}]}, "variant 0 has non-string"),
            ({"variants": [{"label": ["On"], "probability": 0.5}]}, "non-string label"),
            # an integer beyond a float's range is inf, not an OverflowError
            ({"variants": [{"label": "Off", "probability": 10**400, "control": True}]},
             "sum to inf"),
            ({"variants": [{"label": "On", "probability": 0.5, "control": "false"}]},
             "non-boolean control"),
        ],
    )
    def test_malformed_design_is_ingest_error(self, tmp_path, design, message):
        path = write_assignment_files(tmp_path, [("b1", "Off")], [])
        (tmp_path / "assignments.design.json").write_text(json.dumps(design))
        with pytest.raises(IngestError, match=message):
            parse_assignments(path)

    @pytest.mark.parametrize("bad_line", [3, 2500])
    def test_invalid_utf8_names_its_line(self, tmp_path, bad_line):
        # line 2500 lies past the first read-ahead buffer of a text-mode file
        path = write_assignment_files(
            tmp_path,
            [],
            [
                {"label": "Off", "probability": 0.5, "control": True},
                {"label": "On", "probability": 0.5},
            ],
        )
        lines = [f"b{i},On".encode() for i in range(3000)]
        lines[bad_line - 2] = b"b\xfe9,On"
        path.write_bytes(b"buyer_id,variant\r\n" + b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(
            ParseError, match=f":{bad_line}: invalid UTF-8 byte 0xfe$"
        ) as caught:
            parse_assignments(path)
        assert caught.value.line_no == bad_line

    @pytest.mark.parametrize("gap", [1, 3000])
    def test_row_error_before_invalid_utf8_wins(self, tmp_path, gap):
        path = write_assignment_files(
            tmp_path,
            [],
            [
                {"label": "Off", "probability": 0.5, "control": True},
                {"label": "On", "probability": 0.5},
            ],
        )
        lines = [b"b1,On", b"b1,Off"] + [b"b%d,On" % i for i in range(2, gap + 2)]
        lines[gap + 1] = b"b\xfe,On"  # `gap` lines after the duplicate on line 3
        path.write_bytes(b"buyer_id,variant\n" + b"\n".join(lines) + b"\n")
        with pytest.raises(
            ParseError, match=":3: buyer 'b1' assigned more than once$"
        ) as caught:
            parse_assignments(path)
        assert caught.value.line_no == 3

    def test_exactly_one_control(self):
        with pytest.raises(IngestError, match="control"):
            AssignmentTable(["b1"], [0], [Variant("Off", 0.5), Variant("On", 0.5)])


class TestParseOutcomes:
    def test_without_pre(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        path.write_text("seller_id,y_in\ns1,1.5\ns2,0.25\ns3,-3\ns4,0\n")
        table = parse_outcomes(path)
        assert len(table.sellers) == 4
        assert not table.has_pre
        assert outcome_entries(table)["s2"] == (0.25, None)

    def test_nan_literal_is_error(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        path.write_text("seller_id,y_in\ns1,NaN\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_outcomes(path)

    @pytest.mark.parametrize("bad_line", [2, 2500])
    def test_invalid_utf8_names_its_line(self, tmp_path, bad_line):
        lines = [f"s{i},1.5,0.5".encode() for i in range(3000)]
        lines[bad_line - 2] = b"s9,1.5,0.5\xfe"
        path = tmp_path / "outcomes.csv"
        path.write_bytes(b"seller_id,y_in,y_pre\n" + b"\n".join(lines) + b"\n")
        with pytest.raises(
            ParseError, match=f":{bad_line}: invalid UTF-8 byte 0xfe$"
        ) as caught:
            parse_outcomes(path)
        assert caught.value.line_no == bad_line

    @pytest.mark.parametrize("gap", [1, 3000])
    def test_row_error_before_invalid_utf8_wins(self, tmp_path, gap):
        lines = [b"s1,1.5", b"s2,abc"] + [b"s%d,0.5" % i for i in range(3, gap + 3)]
        lines[gap + 1] = b"s\xfe,0.5"  # `gap` lines after the bad y_in on line 3
        path = tmp_path / "outcomes.csv"
        path.write_bytes(b"seller_id,y_in\n" + b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match=":3: non-numeric y_in 'abc'$") as caught:
            parse_outcomes(path)
        assert caught.value.line_no == 3

    def test_round_trip(self, tmp_path, rng):
        n = 5000
        entries = {
            f"s{i:05d}": (float(v), float(w))
            for i, (v, w) in enumerate(zip(rng.normal(size=n), rng.normal(size=n)))
        }
        table = outcome_table(entries, has_pre=True)
        path = tmp_path / "outcomes.csv"
        write_outcomes(path, table)
        parsed = parse_outcomes(path)
        assert parsed.has_pre
        assert outcome_entries(parsed) == entries


# --- outcome cells: float() on the decoded text ---


def float_cells(rng):
    """17-digit reprs across the whole exponent range, then signed zeros,
    subnormals, overflow and underflow, halfway and long mantissas, long
    cells, and forms float() takes or rejects that are not plain
    decimals."""
    scale = 10.0 ** rng.integers(-320, 309, 3000).astype(float)
    cells = [repr(float(x)) for x in rng.normal(size=3000) * scale]
    cells += [
        "0", "-0", "+0", "-0.0", "0e0", "-0e-5", "1e400", "-1e400", "1e-400",
        "4.9406564584124654e-324", "2.4703282292062328e-324",
        "2.4703282292062327e-324", "2.2250738585072011e-308",
        "2.2250738585072014e-308", "1.7976931348623157e308",
        "1.7976931348623159e308", "9007199254740993", "12345678901234567",
        "0.12345678901234567", "1.00000000000000011102230246251565404",
        "1" * 39, "1" * 40, "1" * 41, "0." + "9" * 38, "007", "1E5", "+1.5e+05",
        " 1.5", "2 ", "\t3", "1_000.5", ".5", "5.", "1.e5", "inf", "-Infinity",
        "nan", "NaN", "١٢", "１", "0x10", "1e", "e5", "+-1", "1.2.3", "1-2", "--1",
        "1e+", "1e5.5", "", "abc", "1__0",
    ]
    return cells


@pytest.mark.parametrize("block_bytes", [64, 1 << 20])
def test_outcome_values_are_bit_identical_to_float(rng, tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    cells = []
    for cell in float_cells(rng):
        try:
            finite = math.isfinite(float(cell))
        except ValueError:
            finite = False
        if finite:
            cells.append(cell)
    rows = [f"s{k:05d},{y},{cells[-1 - k]}" for k, y in enumerate(cells)]
    path = tmp_path / "outcomes.csv"
    path.write_text("seller_id,y_in,y_pre\n" + "\n".join(rows) + "\n")
    got = parse_outcomes(path).y
    want = np.array([(float(y), float(cells[-1 - k])) for k, y in enumerate(cells)])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# --- differential test: the byte tokenizer against the csv.reader loop ---


def oracle_check_header(path, header, expected, optional_tail=()):
    if header is None:
        raise ParseError(path, 1, "empty file, expected header")
    if header[: len(expected)] != expected:
        raise ParseError(path, 1, f"bad header {header!r}, expected {expected!r}")
    extra = header[len(expected):]
    if list(extra) not in ([list(t) for t in optional_tail] + [[]]):
        raise ParseError(path, 1, f"unexpected trailing columns {extra!r}")
    return len(extra) > 0


def oracle_parse_events(path, kind_filter, window, known_kinds=DEFAULT_EVENT_KINDS):
    """parse_events as one csv.reader loop over the text file, the way it
    was written before the byte tokenizer: the reference for any file the
    csv module reads."""
    kind_filter = set(kind_filter)
    known = set(known_kinds) | kind_filter
    t0, t1 = window
    buyer_ids, seller_ids, kind_ids = {}, {}, {}
    buyer, seller, kind, timestamp = (array("q") for _ in range(4))
    unknown = {}  # kind -> [first line, rows], in order of first appearance
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            oracle_check_header(path, header, EVENTS_HEADER)
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise ParseError(path, line_no, f"expected 4 columns, got {len(row)}")
                buyer_id, seller_id, kind_id, ts_raw = row
                if not buyer_id or not seller_id:
                    raise ParseError(path, line_no, "empty buyer_id or seller_id")
                try:
                    timestamp.append(int(ts_raw))
                except (ValueError, OverflowError) as exc:
                    what = "non-integer" if isinstance(exc, ValueError) else "non-int64"
                    raise ParseError(path, line_no, f"{what} timestamp {ts_raw!r}") from None
                if kind_id not in known:
                    unknown.setdefault(kind_id, [line_no, 0])[1] += 1
                buyer.append(buyer_ids.setdefault(buyer_id, len(buyer_ids)))
                seller.append(seller_ids.setdefault(seller_id, len(seller_ids)))
                kind.append(kind_ids.setdefault(kind_id, len(kind_ids)))
    finally:
        # one warning per unknown kind, for the rows read before any error
        for kind_id, (line_no, rows) in unknown.items():
            warnings.warn(
                f"{path}:{line_no}: unknown event kind {kind_id!r}, {rows} row(s) skipped",
                stacklevel=2,
            )
    buyer, seller, kind, timestamp = (
        np.frombuffer(c, dtype=np.int64) for c in (buyer, seller, kind, timestamp)
    )
    kinds = list(kind_ids)
    is_known = np.isin(kind, [c for c, k in enumerate(kinds) if k in known])
    selected = np.isin(kind, [c for c, k in enumerate(kinds) if k in kind_filter])
    in_window = (t0 <= timestamp) & (timestamp <= t1)
    keep = selected & in_window
    report = EventParseReport(
        rows_read=len(kind),
        rows_kept=int(keep.sum()),
        dropped_kind=int((is_known & ~selected).sum()),
        dropped_window=int((selected & ~in_window).sum()),
        dropped_unknown_kind=int((~is_known).sum()),
    )
    events = EventLog.from_codes(
        list(buyer_ids), list(seller_ids), kinds,
        buyer[keep], seller[keep], kind[keep], timestamp[keep],
    )
    return events, report


NUL_OK = sys.version_info >= (3, 11)  # older csv modules reject NUL bytes
INT64 = (-(1 << 63), (1 << 63) - 1)


def random_id(rng, prefix):
    roll = rng.random()
    if roll < 0.45:
        return f"{prefix}{rng.integers(0, 12)}"
    if roll < 0.55 and NUL_OK:
        return f"{prefix}{rng.integers(0, 3)}" + "\x00" * int(rng.integers(0, 3))
    if roll < 0.7:
        return rng.choice(["é", "é", "日本", "ü\x00", "Ω"]) + str(rng.integers(0, 4))
    if roll < 0.85:  # 9 to 40 bytes, some differing only at the end
        return prefix * 5 + "x" * int(rng.integers(4, 36)) + str(rng.integers(0, 3))
    return f"{prefix}{rng.integers(0, 100_000_000)}"  # 1 to 9 bytes


def random_timestamp(rng):
    roll = rng.random()
    if roll < 0.6:
        return str(int(rng.integers(-20, 20_000)))
    return str(rng.choice([
        " 5", "7 ", "+12", "1_000", "0007", "-0003", "-0", "00",
        "999999999999999999", "-999999999999999999", "1000000000000000000",
        str(INT64[0]), str(INT64[1]), "0" * 25 + "42", "١٢٣", "٣",
    ]))


def bad_row(rng):
    return rng.choice([
        "b1,s1,view", "b1,s1,view,4,5", "b1", ",s1,view,4", "b1,,view,4",
        ",,view,x", "b1,s1,view,4.5", "b1,s1,view,", "b1,s1,view,1e3",
        "b1,s1,view,--4", f"b1,s1,view,{INT64[1] + 1}", f"b1,s1,view,{INT64[0] - 1}",
        "b1,s1,view,\x00", "b1,s1,view,5,", "b1,s1,view,-",
    ])


def quote(field):
    return '"' + field.replace('"', '""') + '"'


def random_events_file(rng):
    """(bytes, quoted, invalid): a random events CSV; quoted files hold a
    quote or a CR that does not end a CRLF, invalid ones a byte sequence
    that is not UTF-8."""
    quoted = rng.random() < 0.25
    lines = [",".join(EVENTS_HEADER)]
    if rng.random() < 0.05:
        lines[0] = str(rng.choice([
            "", "buyer_id,seller_id,event_kind", ",".join(EVENTS_HEADER) + ",extra",
            "\ufeff" + ",".join(EVENTS_HEADER),
        ]))
    for _ in range(int(rng.integers(0, 40))):
        if rng.random() < 0.1:
            lines.append("")
            continue
        kind = rng.choice(["view", "view", "favorite", "message", "teleport", ""])
        fields = [random_id(rng, "b"), random_id(rng, "s"), kind, random_timestamp(rng)]
        if quoted and rng.random() < 0.3:
            k = int(rng.integers(0, 4))
            fields[k] = quote(rng.choice([fields[k], fields[k] + ',"x"', fields[k] + "\nz"]))
        lines.append(",".join(fields))
    if rng.random() < 0.4 and len(lines) > 1:
        lines[int(rng.integers(1, len(lines)))] = bad_row(rng)
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join(lines)
    if quoted and rng.random() < 0.3:
        text = text.replace(newline, "\r", 1)
    if rng.random() < 0.8:
        text += newline * int(rng.integers(1, 3))
    data = b"" if rng.random() < 0.01 else text.encode("utf-8")
    invalid = rng.random() < 0.15
    if invalid:
        at = int(rng.integers(0, len(data) + 1))
        bad = rng.choice([b"\xff", b"\xc3", b"\xe6\x97", b"\xed\xa0\x80", b"\x80"])
        data = data[:at] + bad + data[at:]
    return data, quoted, invalid


def outcome(parse, path, kinds):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(path, kinds, (0, 10_000))
        except ParseError as exc:
            result = (str(exc), exc.line_no)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("block_bytes", [1, 16, 200, 1 << 20])
def test_byte_tokenizer_matches_csv_loop(rng, tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    path = tmp_path / "events.csv"
    seen = {"error": 0, "parsed": 0, "quoted": 0, "warned": 0, "invalid": 0}
    for _ in range(150):
        data, quoted, invalid = random_events_file(rng)
        path.write_bytes(data)
        kinds = set(rng.choice(["view", "favorite", "message"], size=2).tolist())
        if invalid:  # the loop stops on a UnicodeDecodeError: use the csv path
            with monkeypatch.context() as patch:
                patch.setattr(ingest, "_tokenize_unquoted", lambda *args: None)
                want, want_warnings = outcome(parse_events, path, kinds)
        else:
            want, want_warnings = outcome(oracle_parse_events, path, kinds)
        got, got_warnings = outcome(parse_events, path, kinds)
        assert got_warnings == want_warnings, data
        if isinstance(want[0], str):
            assert got == want, data
            seen["error"] += 1
        else:
            (want_events, want_report), (got_events, got_report) = want, got
            assert got_report == want_report, data
            for name in ("buyers", "sellers", "kinds"):
                assert getattr(got_events, name) == getattr(want_events, name), data
            for name in ("buyer", "seller", "kind", "timestamp"):
                np.testing.assert_array_equal(
                    getattr(got_events, name), getattr(want_events, name)
                )
                assert getattr(got_events, name).dtype == np.int64
            seen["parsed"] += 1
        seen["quoted"] += quoted
        seen["warned"] += bool(want_warnings)
        seen["invalid"] += invalid
    assert min(seen.values()) >= 15, seen


# --- differential test: assignments and outcomes against the csv.reader loops ---


def oracle_records(path):
    """(line_no, row) per csv record of the file, the header being 1, from
    lines decoded one at a time, so that invalid UTF-8 is a ParseError in
    file order, naming its physical line."""
    def lines(fh):
        for line_no, raw in enumerate(fh.read().splitlines(keepends=True), start=1):
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    path, line_no, f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"
                ) from None

    with open(path, "rb") as fh:
        line_no = 0
        try:
            for line_no, row in enumerate(csv.reader(lines(fh)), start=1):
                yield line_no, row
        except csv.Error as exc:
            raise ParseError(path, line_no + 1, f"unreadable CSV record: {exc}") from None


def oracle_parse_assignments(path):
    """parse_assignments as one csv.reader loop into a dict, the way it was
    written before the byte tokenizer: ({buyer: label} in file order, the
    design's variants)."""
    variants = ingest.parse_design(ingest.default_design_path(path))
    entries = {}
    records = oracle_records(path)
    oracle_check_header(path, next(records, (1, None))[1], ["buyer_id", "variant"])
    for line_no, row in records:
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(path, line_no, f"expected 2 columns, got {len(row)}")
        buyer_id, variant = row
        if not buyer_id:
            raise ParseError(path, line_no, "empty buyer_id")
        if buyer_id in entries:
            raise ParseError(path, line_no, f"buyer {buyer_id!r} assigned more than once")
        entries[buyer_id] = variant
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        raise IngestError("duplicate variant labels in design")
    controls = [v.label for v in variants if v.control]
    if len(controls) != 1:
        raise IngestError(f"exactly one control variant required, found {controls!r}")
    total = math.fsum(v.probability for v in variants)
    if abs(total - 1.0) > ingest.PROB_SUM_TOL:
        raise IngestError(f"variant probabilities sum to {total!r}, expected 1")
    for v in variants:
        if not 0.0 < v.probability < 1.0:
            raise IngestError(
                f"variant {v.label!r} has probability {v.probability} outside (0,1)"
            )
    for buyer, variant in entries.items():
        if variant not in labels:
            raise IngestError(f"buyer {buyer!r} assigned to undeclared variant {variant!r}")
    return entries, variants


def oracle_parse_outcomes(path):
    """parse_outcomes as one csv.reader loop into a dict, the way it was
    written before the byte tokenizer: ({seller: (y_in, y_pre or None)} in
    file order, has_pre)."""
    entries = {}
    records = oracle_records(path)
    has_pre = oracle_check_header(
        path, next(records, (1, None))[1], ["seller_id", "y_in"], (("y_pre",),)
    )
    width = 3 if has_pre else 2
    for line_no, row in records:
        if not row:
            continue
        if len(row) != width:
            raise ParseError(path, line_no, f"expected {width} columns, got {len(row)}")
        seller_id = row[0]
        if not seller_id:
            raise ParseError(path, line_no, "empty seller_id")
        if seller_id in entries:
            raise ParseError(path, line_no, f"seller {seller_id!r} appears more than once")
        try:
            y_in = float(row[1])
        except ValueError:
            raise ParseError(path, line_no, f"non-numeric y_in {row[1]!r}") from None
        if not math.isfinite(y_in):
            raise ParseError(path, line_no, f"non-finite y_in {row[1]!r}")
        y_pre = None
        if has_pre and row[2] != "":
            try:
                y_pre = float(row[2])
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric y_pre {row[2]!r}") from None
            if not math.isfinite(y_pre):
                raise ParseError(path, line_no, f"non-finite y_pre {row[2]!r}")
        entries[seller_id] = (y_in, y_pre)
    return entries, has_pre


def table_id(rng, prefix, k, faults):
    """The id of row k: distinct per row, NUL-suffixed, non-ASCII or long
    at times; with `faults`, some are empty or repeated."""
    if faults and rng.random() < 0.08:
        return str(rng.choice(["", f"{prefix}1", "é1", f"{prefix}1" + "\x00" * NUL_OK]))
    roll = rng.random()
    if roll < 0.1 and NUL_OK:
        return f"{prefix}{k}" + "\x00" * int(rng.integers(1, 3))
    if roll < 0.2:
        return str(rng.choice(["é", "日本", "ü\x00", "Ω"])) + str(k)
    if roll < 0.3:  # 9 to 40 bytes
        return prefix * 5 + "x" * int(rng.integers(4, 36)) + str(k)
    return f"{prefix}{k}"


def random_float(rng, faults):
    roll = rng.random()
    if roll < 0.7:
        return repr(float(rng.normal(scale=10.0)))
    if roll < 0.95 or not faults:
        return str(rng.choice([
            " 1.5", "2 ", "1_000.5", "1e3", "-2.5E-3", "+7", "0", "-0.0", ".5",
            "5.", "1e-400", "١٢",
        ]))
    return str(rng.choice(
        ["inf", "-Infinity", "nan", "NaN", "abc", "", "1e999", "0x10", "1__0"]
    ))


def random_table_file(rng, kind, labels=()):
    """(bytes, flags): a random assignments CSV over the variant `labels`
    or a random outcomes CSV. The flags tell
    whether it may hold bad rows ("faults"), a quote or a lone CR
    ("quoted") and invalid UTF-8."""
    faults = rng.random() < 0.5
    quoted = rng.random() < 0.25
    if kind == "assignments":
        header = ["buyer_id", "variant"]
    else:
        header = ["seller_id", "y_in", "y_pre"][: int(rng.integers(2, 4))]
    lines = [",".join(header)]
    if faults and rng.random() < 0.1:
        lines[0] = str(rng.choice([
            "", ",".join(header[:1]), ",".join(header) + ",extra",
            "\ufeff" + ",".join(header), "seller_id,y_in,y_pre,y_pre", "buyer_id,Variant",
        ]))
    for k in range(int(rng.integers(0, 30))):
        if rng.random() < 0.08:
            lines.append("")
            continue
        if kind == "assignments":
            variant = str(rng.choice([*labels, *["", "Nope"] * faults]))
            fields = [table_id(rng, "b", k, faults), variant]
        else:
            fields = [table_id(rng, "s", k, faults)]
            fields += [random_float(rng, faults) for _ in header[1:]]
            if len(header) == 3 and rng.random() < 0.2:
                fields[2] = ""
            if faults and rng.random() < 0.04:
                fields[1] = ""
        if faults and rng.random() < 0.03:
            fields = fields[:-1] if rng.random() < 0.5 else fields + ["x"]
        if quoted and rng.random() < 0.3:
            k = int(rng.integers(0, len(fields)))
            fields[k] = quote(rng.choice([fields[k], fields[k] + ",x", fields[k] + "\nz"]))
        lines.append(",".join(fields))
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join(lines)
    if quoted and rng.random() < 0.3:
        text = text.replace(newline, "\r", 1)
    if rng.random() < 0.8:
        text += newline * int(rng.integers(1, 3))
    data = b"" if rng.random() < 0.01 else text.encode("utf-8")
    invalid = rng.random() < 0.15
    if invalid:
        at = int(rng.integers(0, len(data) + 1))
        bad = rng.choice([b"\xff", b"\xc3", b"\xe6\x97", b"\xed\xa0\x80", b"\x80"])
        data = data[:at] + bad + data[at:]
    return data, {"faults": faults, "quoted": quoted, "invalid": invalid}


def result_or_error(parse, *args):
    try:
        return parse(*args)
    except IngestError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_no", None)


DESIGNS = [
    [{"label": "Off", "probability": 0.5, "control": True},
     {"label": "On", "probability": 0.5}],
    [{"label": "Off", "probability": 0.4, "control": True},
     {"label": "On", "probability": 0.3}, {"label": "A", "probability": 0.3}],
    [{"label": "Off", "probability": 0.5}, {"label": "On", "probability": 0.5}],
    [{"label": "Off", "probability": 0.6, "control": True},
     {"label": "On", "probability": 0.6}],
]


@pytest.mark.parametrize("block_bytes", [1, 16, 200, 1 << 20])
def test_table_tokenizer_matches_csv_loops(rng, tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    seen = dict.fromkeys(
        ["assignments", "outcomes", "ParseError", "IngestError", "faults", "quoted",
         "invalid", "has_pre", "no_pre"], 0
    )
    for trial in range(300):
        kind = ("assignments", "outcomes")[trial % 2]
        design = DESIGNS[int(rng.choice(4, p=[0.6, 0.2, 0.1, 0.1]))]
        data, flags = random_table_file(rng, kind, [v["label"] for v in design])
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(data)
        if kind == "assignments":
            ingest.default_design_path(path).write_text(json.dumps({"variants": design}))
            want = result_or_error(oracle_parse_assignments, path)
            got = result_or_error(parse_assignments, path)
        else:
            want = result_or_error(oracle_parse_outcomes, path)
            got = result_or_error(parse_outcomes, path)
        seen[want[0] if isinstance(want[0], str) else kind] += 1
        if isinstance(want[0], str):
            assert got == want, data
        elif kind == "assignments":
            entries, variants = want
            assert got.buyers == tuple(sorted(entries)), data
            assert got.variants == variants
            assert got.variant.dtype == np.int64
            assert got.labels == [v.label for v in variants]
            assert [got.labels[v] for v in got.variant.tolist()] == [
                entries[b] for b in got.buyers
            ], data
        else:
            entries, has_pre = want
            assert got.sellers == tuple(sorted(entries)), data
            assert got.has_pre == has_pre
            assert got.y.dtype == np.float64 and got.y.shape == (len(entries), 2)
            assert [list(map(repr, row)) for row in got.y.tolist()] == [
                [repr(entries[s][0]), repr(math.nan if entries[s][1] is None else entries[s][1])]
                for s in got.sellers
            ], data
            seen["has_pre" if has_pre else "no_pre"] += 1
        for flag, value in flags.items():
            seen[flag] += value
    assert min(seen.values()) >= 15, seen


# --- differential test at scale: ids coded in sorted order by their bytes ---

# code point ranges by UTF-8 width, then every supplementary plane; U+E000 to
# U+FFFF sort before the planes above in code point (and UTF-8) order but
# after them in UTF-16 order
CODE_POINTS = [(0x20, 0x7F), (0x80, 0x800), (0x800, 0xD800), (0xE000, 0x10000)] + [
    (plane << 16, (plane + 1) << 16) for plane in range(1, 17)
]


def random_text(rng, size):
    """Text of exactly `size` UTF-8 bytes drawn from CODE_POINTS, with no
    comma, quote or line end."""
    text = ""
    while len(text.encode()) < size:
        lo, hi = CODE_POINTS[int(rng.integers(len(CODE_POINTS)))]
        char = chr(int(rng.integers(lo, hi)))
        if char in ',"\r\n' or len((text + char).encode()) > size:
            char = "x"
        text += char
    return text


def scale_ids(rng, count, prefix):
    """`count` distinct ids of 1 to 24 bytes (one to three words), in random
    order: random text, ids sharing 8- and 16-byte prefixes, and ids that
    differ from another only by trailing NULs, such as "b1" and "b1\\x00"."""
    shared = ["", random_text(rng, 8), random_text(rng, 16), prefix * 8]
    ids = {prefix + "1", prefix + "1" + "\x00" * NUL_OK}
    while len(ids) < count:
        base = shared[int(rng.integers(len(shared)))]
        base += random_text(rng, int(rng.integers(not base, 25 - len(base.encode()))))
        ids.add(base)
        if NUL_OK and len(base.encode()) < 24 and rng.random() < 0.3:
            ids.add(base + "\x00" * int(rng.integers(1, 25 - len(base.encode()))))
    ids = sorted(ids)
    return [ids[k] for k in rng.permutation(len(ids))]


def pick(rng, ids, size):
    # by index: a numpy string array would drop trailing NULs
    return [ids[k] for k in rng.integers(len(ids), size=size)]


def write_lines(path, header, rows):
    path.write_bytes("".join(",".join(map(str, r)) + "\n" for r in [header, *rows]).encode())


def write_scale_files(rng, tmp_path):
    """An events file of 8000 rows over 3000 buyers, 2000 sellers and 40
    kinds (one of them empty), and an assignments and an outcomes file of
    the same buyers and sellers. Returns the events file's kind filter and
    known kinds; the caller makes them parse_events' DEFAULT_EVENT_KINDS."""
    buyers, sellers = scale_ids(rng, 3000, "b"), scale_ids(rng, 2000, "s")
    kinds = ["", *scale_ids(rng, 39, "k")]
    write_lines(tmp_path / "events.csv", EVENTS_HEADER, zip(
        pick(rng, buyers, 8000), pick(rng, sellers, 8000), pick(rng, kinds, 8000),
        rng.integers(0, 2000, 8000).tolist(),
    ))
    labels = pick(rng, [v["label"] for v in DESIGNS[1]], len(buyers))
    write_lines(tmp_path / "assignments.csv", ["buyer_id", "variant"], zip(buyers, labels))
    ingest.default_design_path(tmp_path / "assignments.csv").write_text(
        json.dumps({"variants": DESIGNS[1]})
    )
    y = rng.normal(size=(len(sellers), 2)).tolist()
    write_lines(tmp_path / "outcomes.csv", ["seller_id", "y_in", "y_pre"], (
        (s, repr(y_in), repr(y_pre)) for s, (y_in, y_pre) in zip(sellers, y)
    ))
    return set(kinds[::2]), set(kinds)


@pytest.mark.parametrize("block_bytes", [300, 5000])
@pytest.mark.parametrize("tokenizer", ["unquoted", "quoted"])
def test_sorted_codes_at_scale_match_sorted(
    rng, tmp_path, monkeypatch, block_bytes, tokenizer
):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    if tokenizer == "quoted":
        monkeypatch.setattr(ingest, "_tokenize_unquoted", lambda *args: None)
    kind_filter, known = write_scale_files(rng, tmp_path)
    monkeypatch.setattr(ingest, "DEFAULT_EVENT_KINDS", frozenset(known))
    args = (tmp_path / "events.csv", kind_filter, (0, 1500))
    want, want_report = oracle_parse_events(*args, known)
    got, got_report = parse_events(*args)
    assert got_report == want_report
    assert 0 < got_report.rows_kept < got_report.rows_read
    for name in ("buyers", "sellers", "kinds"):
        assert getattr(got, name) == getattr(want, name)
    for name in ("buyer", "seller", "kind", "timestamp"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    entries, _ = oracle_parse_assignments(tmp_path / "assignments.csv")
    table = parse_assignments(tmp_path / "assignments.csv")
    assert table.buyers == tuple(sorted(entries))
    assert [table.labels[v] for v in table.variant.tolist()] == [
        entries[b] for b in table.buyers
    ]
    entries, _ = oracle_parse_outcomes(tmp_path / "outcomes.csv")
    outcomes = parse_outcomes(tmp_path / "outcomes.csv")
    assert outcomes.sellers == tuple(sorted(entries))
    assert outcomes.y.tolist() == [list(entries[s]) for s in outcomes.sellers]


def test_parsers_never_sort_ids_in_python(rng, tmp_path, monkeypatch):
    """The ids come out of the tokenizer in order, and EventLog.from_codes
    orders in-memory id lists with numpy: no Python sort is reached."""
    sorts = []

    def spy(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(ingest, "sorted", spy, raising=False)
    kind_filter, known = write_scale_files(rng, tmp_path)
    monkeypatch.setattr(ingest, "DEFAULT_EVENT_KINDS", frozenset(known))
    events, _ = parse_events(tmp_path / "events.csv", kind_filter, (0, 1500))
    parse_assignments(tmp_path / "assignments.csv")
    parse_outcomes(tmp_path / "outcomes.csv")
    assert len(events.buyers) > 1000 and sorts == []
    events = EventLog.from_codes(
        ["b2", "b1"], ["s1"], ["view"], [0, 1], [0, 0], [0, 0], [5, 6]
    )
    assert events.buyers == ("b1", "b2") and sorts == []


# --- packed vocabularies: order, joins and block boundaries ---


def test_from_codes_orders_ids_as_sorted_does(rng):
    """from_codes orders by bytes with numpy, as `sorted` orders `str`:
    non-ASCII text, "b1" beside "b1\\x00", "b999999" beside "b1000000",
    ids of more than 8 bytes, in any order and with unused ids."""
    fixed = ["b1", "b1\x00", "b999999", "b1000000", "é", "e\u0301", "中", "😀",
             "\x7f", "\x80", "b", "", "a" * 17, "a" * 16 + "\x00", "a" * 16]
    for _ in range(30):
        ids = list(dict.fromkeys(fixed + random_ids(rng, int(rng.integers(0, 40)), 11)))
        ids = [ids[k] for k in rng.permutation(len(ids))]
        codes = rng.integers(0, len(ids), size=int(rng.integers(1, 3 * len(ids))))
        events = EventLog.from_codes(ids, ["s"], ["view"], codes, np.zeros_like(codes),
                                     np.zeros_like(codes), np.arange(len(codes)))
        used = sorted({ids[c] for c in codes.tolist()})
        assert events.buyers == tuple(used)
        assert [events.buyers[b] for b in events.buyer.tolist()] == [
            ids[c] for c in codes.tolist()
        ]


def random_ids(rng, count, longest):
    """Up to `count` distinct ids of 1 to `longest` characters, NUL among
    them (which a numpy `str` array would drop at the end of an id)."""
    alphabet = "ab1\x00é中😀"
    return list(dict.fromkeys(
        "".join(alphabet[k] for k in rng.integers(0, 7, int(rng.integers(1, longest + 1))))
        for _ in range(count)
    ))


def test_packed_joins_match_the_dict_join(rng, tmp_path):
    """`rows` finds each id among a table's packed keys as a dict of the
    `str` ids did: for parsed and hand-made tables, against vocabularies of
    `str` ids and of coded bytes, with the two sides' longest ids of
    different lengths."""
    path = tmp_path / "outcomes.csv"
    for _ in range(40):
        longest = [int(rng.integers(1, 4)), int(rng.integers(4, 14))]
        rng.shuffle(longest)
        keys = random_ids(rng, int(rng.integers(1, 60)), longest[0])
        others = random_ids(rng, int(rng.integers(0, 60)), longest[1])
        ids = keys[::2] + others + [k + "\x00" for k in keys[:3]] + [""]
        ids = [ids[k] for k in rng.permutation(len(ids))]
        hand = outcome_table({k: (1.0, None) for k in keys[::-1]}, False)
        # no csv writer: an older one refuses NUL
        path.write_text("seller_id,y_in\n" + "".join(f"{k},1.0\n" for k in keys))
        parsed = parse_outcomes(path)
        assert parsed.sellers == tuple(sorted(keys))
        queries = [Vocabulary(ids),
                   EventLog.from_codes(ids, ["s"], ["v"], np.arange(len(ids)),
                                       *np.zeros((2, len(ids)), int), np.arange(len(ids))
                                       ).buyers]
        for table in (hand, parsed):
            for query in queries:
                np.testing.assert_array_equal(
                    table.rows(query), dict_rows(table.sellers.text, query)
                )


@pytest.mark.parametrize("last", ["a" * 8, "é" * 4, "b" * 9, "中" * 3, "ab\x00" * 3,
                                  "c" * 16, "😀" * 4])
def test_str_vocabulary_whose_last_id_ends_its_last_word(last):
    """A Vocabulary made of `str` ids whose last id has 8, 9 or 16 bytes, so
    that the last word read of it ends where its bytes end: the text
    decoded from its bytes, its order and the joins on it are those of the
    ids, `sorted` and the dict join."""
    # last + NULs ties with `last` past its end, so that the sort reads on
    ids = ["b1", "b1\x00", "é", "", "a" * 17, last + "\x00" * 9, "中", last]
    assert len(last.encode()) in (8, 9, 16)
    vocabulary = Vocabulary(ids)
    assert Vocabulary(packed=vocabulary.packed).text == tuple(ids)
    assert [ids[p] for p in vocabulary.order.tolist()] == sorted(ids)
    keyed = ingest.OutcomeTable(vocabulary, np.zeros((len(ids), 2)), False)
    table = outcome_table({k: (1.0, None) for k in ids}, False)
    queries = [*ids, last + "\x00", last[:-1], "a" * 16]
    np.testing.assert_array_equal(keyed.rows(Vocabulary(queries)), dict_rows(ids, queries))
    np.testing.assert_array_equal(table.rows(vocabulary), dict_rows(table.sellers.text, ids))
    codes = np.array([7, 1, 7, 5, 4])
    events = EventLog.from_codes(vocabulary, ["s"], ["v"], codes, *np.zeros((2, 5), int),
                                 np.arange(5))
    assert events.buyers == tuple(sorted({ids[c] for c in codes.tolist()}))


def test_trimmed_vocabulary_selects_over_the_coded_bytes(tmp_path):
    """A parsed vocabulary trimmed to the ids its kept rows use is a
    selection over the bytes its ids were coded into, which still hold the
    unused ids, NUL-ending and non-ASCII ones among them: its text, order
    and joins are those of `sorted` and the dict join, also when its ids
    are re-sorted from those bytes."""
    buyers = ["b1\x00", "b1", "é", "e", "a" * 16 + "\x00", "a" * 16, "中文", "😀" * 2,
              "z" * 9, "z" * 8, "x", "\x00"]
    path = tmp_path / "events.csv"
    # odd rows are favorites, which the parse drops
    path.write_text("buyer_id,seller_id,event_kind,timestamp_ms\n" + "".join(
        f"{b},s{k % 3},{('view', 'favorite')[k % 2]},{k}\n" for k, b in enumerate(buyers)
    ))
    kept = sorted(buyers[::2])
    events, _ = parse_events(path, {"view"}, WINDOW)
    assert events.buyers == tuple(kept) and events.buyers.ordered
    tokens = ingest._tokenize(path, ingest._EVENTS)
    coded = tokens.ids[0]
    assert sorted(coded) == sorted(buyers)
    trimmed, _ = ingest._trimmed(coded, tokens.codes[0][::2].copy())
    assert trimmed == tuple(kept) and trimmed.packed[0] is coded.packed[0]
    data, start, length = trimmed.packed
    backwards = Vocabulary(packed=(data, start[::-1], length[::-1]))
    assert backwards.text == tuple(kept[::-1])
    assert backwards.order.tolist() == list(range(len(kept)))[::-1]
    table = outcome_table({k: (1.0, None) for k in buyers[::3]}, False)
    for ids in (events.buyers, trimmed, backwards):
        np.testing.assert_array_equal(table.rows(ids), dict_rows(table.sellers.text, ids.text))
        keyed = ingest.OutcomeTable(ids, np.zeros((len(ids), 2)), False)
        np.testing.assert_array_equal(keyed.rows(Vocabulary(buyers)),
                                      dict_rows(ids.text, buyers))


def block_starts(data: bytes, block_bytes: int) -> set[int]:
    """Where `_tokenize_unquoted` starts its blocks: each block is
    `block_bytes` bytes, read on to the end of its last line."""
    at, starts = data.index(b"\n") + 1, set()
    while at < len(data):
        starts.add(at)
        at = data.find(b"\n", at + block_bytes - 1) + 1 or len(data)
    return starts


@pytest.mark.parametrize("block_bytes", [1, 16, 200])
def test_special_lines_on_block_boundaries(tmp_path, monkeypatch, block_bytes):
    """A blank line, a CRLF line and a line of the wrong width are read as
    the csv module reads them wherever they sit: each is moved through the
    file, so that it starts a block and ends one at every block size."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(ingest, "_tokenize_quoted", None)  # the numpy path only
    header = b"buyer_id,seller_id,event_kind,timestamp_ms\r\n"
    lines = [f"b{k},s{k % 7},view,{k}\n".encode() for k in range(30)]
    path = tmp_path / "events.csv"
    for special in (b"\n", b"\r\n", b"b99,s9,view,99\r\n", b"b99,s9,view\n"):
        placed = {"starts": 0, "ends": 0}
        for at in range(len(lines) + 1):
            data = header + b"".join(lines[:at] + [special] + lines[at:])
            path.write_bytes(data)
            offset = len(header) + sum(map(len, lines[:at]))
            starts = block_starts(data, block_bytes)
            placed["starts"] += offset in starts
            placed["ends"] += offset + len(special) in starts | {len(data)}
            want = outcome(oracle_parse_events, path, {"view"})
            got = outcome(parse_events, path, {"view"})
            if isinstance(want[0][0], str):
                assert got == want, data
                continue
            (want_events, want_report), (got_events, got_report) = want[0], got[0]
            assert got_report == want_report and got[1] == want[1], data
            assert event_rows(got_events) == event_rows(want_events), data
        assert min(placed.values()) >= 1, (special, placed)


# --- the id coder's hash table against a dict ---


def coded_block(coder, ids: list[bytes]) -> list[int]:
    """`coder.codes` on the ids laid out as in a tokenized block: a comma
    after each and eight zero bytes at the end."""
    data = b"".join(i + b"," for i in ids) + bytes(8)
    length = np.array([len(i) for i in ids], dtype=np.int64)
    end = np.cumsum(length + 1) - 1
    return coder.codes(ingest._words(data), end - length, end).tolist()


@pytest.mark.parametrize("collide", [False, True], ids=["hashed", "one-hash"])
def test_id_coder_splits_rows_as_a_dict(rng, monkeypatch, collide):
    """Block after block, the codes split the rows exactly as a dict of the
    ids does: ids of 1 to 17 bytes, NUL-ending and non-ASCII ones among
    them, in empty, all-new, all-seen and repeating blocks. New ids get the
    codes from the count before the block on, which the repeated-id check
    relies on, and the vocabulary holds each id's bytes at its code. With
    one hash for every id, each probe passes every id in the table."""
    if collide:
        monkeypatch.setattr(ingest, "_MIX", np.zeros(3, dtype=np.uint64))
    pool = [b"b1", b"b1\x00", b"a" * 8, b"a" * 8 + b"\x00", b"a" * 16, b"a" * 17,
            b"seller_000001", b"seller_000002", b"seller_000001\x00"]
    pool += [i.encode() for i in random_ids(rng, 500, 6)]
    pool = list(dict.fromkeys(i for i in pool if 1 <= len(i) <= 17))
    assert b"\x00" in {i[-1:] for i in pool} and max(map(len, pool)) == 17
    half = len(pool) // 2
    blocks = [
        [],
        pool[:half],
        [pool[k] for k in rng.integers(0, half, 300)],
        [pool[k] for k in rng.integers(0, len(pool), 400)],
        [],
        pool[half:] * 2,
    ]
    coder, oracle = ingest._IdCodes(), {}
    for block in blocks:
        count, codes = coder.count, coded_block(coder, block)
        assert len(codes) == len(block)
        assert [oracle[i] for i in block if i in oracle] == [
            c for i, c in zip(block, codes) if i in oracle
        ]
        pairs = {(i, c) for i, c in zip(block, codes) if i not in oracle}
        new = dict(pairs)
        assert len(new) == len(pairs)  # one code for each new id
        assert sorted(new.values()) == list(range(count, count + len(new)))
        assert coder.count == count + len(new)
        oracle.update(new)
    data, start, length = coder.vocabulary().packed
    raw = data.tobytes()
    assert [raw[s:s + n] for s, n in zip(start.tolist(), length.tolist())] == sorted(
        oracle, key=oracle.get
    )


def test_id_coder_rebuilds_its_table_only_as_it_doubles(monkeypatch):
    """2^17 distinct ids in blocks of 512: the table is rebuilt at most
    log2(2^17) + 2 times, each time at least twice as large, so that no
    block copies every id coded before it."""
    sizes = []
    rehash = ingest._IdCodes._rehash

    def spy(self, size, *args):
        sizes.append(size)
        rehash(self, size, *args)

    monkeypatch.setattr(ingest._IdCodes, "_rehash", spy)
    n, block = 1 << 17, 512
    data = b"".join(b"i%06d," % k for k in range(n)) + bytes(8)
    words, start = ingest._words(data), 8 * np.arange(n)
    coder = ingest._IdCodes()
    for lo in range(0, n, block):
        codes = coder.codes(words, start[lo:lo + block], start[lo:lo + block] + 7)
        assert sorted(codes.tolist()) == list(range(lo, lo + block))
    assert coder.count == n
    assert len(sizes) <= 17 + 2
    assert all(b >= 2 * a for a, b in zip(sizes, sizes[1:]))


def test_plain_timestamps_match_int(rng):
    """A cell that is an optional '-' and 1 to 18 ASCII digits reads as
    int() reads it, whatever its length and the bytes before it; every
    other cell, and only such a cell or one within 24 bytes of the data's
    start, is left to int()."""
    cells = ["0", "-0", "5", "-", "", "+5", " 5", "5 ", ":", "/", "1_0", "١٢٣",
             "9" * 18, "-" + "9" * 18, "1" + "0" * 18, "0" * 20 + "1", "99999999",
             "100000000", "-12345678", "1700000000004"]
    cells += [str(int(rng.integers(-10**18 + 1, 10**18))) for _ in range(2000)]
    cells += ["".join(rng.choice(list("0123456789-:/a"), int(rng.integers(0, 21))))
              for _ in range(2000)]
    for before in ("x", "y" * 30):
        order = rng.permutation(len(cells))
        text = "".join(f"{before},{cells[k]}\n" for k in order).encode()
        ends = np.cumsum([len(before) + len(cells[k].encode()) + 2 for k in order]) - 1
        length = np.array([len(cells[k].encode()) for k in order])
        a = np.frombuffer(text + bytes(8), dtype=np.uint8)
        values, other = ingest._plain_timestamps(a, ends - length, ends)
        for k, value, left, end in zip(order, values.tolist(), other.tolist(), ends.tolist()):
            cell = cells[k]
            plain = re.fullmatch(r"-?[0-9]{1,18}", cell) is not None
            assert left == (not plain or end < 24), cell
            if not left:
                assert value == int(cell), cell


# --- the id-coding worker thread ---


def is_worker(thread):
    return thread.name.startswith("ingest-ids")


def alive_workers():
    return [t for t in threading.enumerate() if is_worker(t)]


@pytest.fixture
def workers(monkeypatch):
    """The id-coding threads started during a test, in order."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        start(thread)
        if is_worker(thread):
            started.append(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.fixture
def fast_switching():
    """The interpreter switching threads every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def code_inline(monkeypatch):
    """Have `_Tokens.add` code every block's ids itself, as it codes a
    file's last block."""
    add = ingest._Tokens.add
    monkeypatch.setattr(ingest._Tokens, "add", lambda self, *args: add(self, *args[:6]))


def token_dump(path, spec):
    """The tokens of a file (codes, vocabularies, values, blank rows and the
    error that ended them), or the ParseError its header raises."""
    try:
        tokens = ingest._tokenize(path, spec)
    except ParseError as exc:
        return str(exc)
    return (
        [c.tolist() for c in tokens.codes], [tuple(ids) for ids in tokens.ids],
        tokens.values.tobytes(), tokens.blank_rows.tolist(),
        None if tokens.error is None else str(tokens.error),
    )


def parsed(parse, path, kinds):
    """parse_events' result as plain lists, or its error, and its warnings."""
    result, caught = outcome(parse, path, kinds)
    if not isinstance(result[0], str):
        events, report = result
        result = (
            [tuple(getattr(events, name)) for name in ("buyers", "sellers", "kinds")],
            [getattr(events, name).tolist()
             for name in ("buyer", "seller", "kind", "timestamp")],
            report,
        )
    return result, caught


def threaded_and_inline(path, monkeypatch, workers, kinds=frozenset({"view"})):
    """(tokens, parse_events' result) made with the worker thread, checked
    equal to the ones made coding every block inline, which starts none."""
    got = token_dump(path, ingest._EVENTS), parsed(parse_events, path, kinds)
    started = len(workers)
    with monkeypatch.context() as patch:
        code_inline(patch)
        want = token_dump(path, ingest._EVENTS), parsed(parse_events, path, kinds)
    assert got == want
    assert len(workers) == started and not alive_workers()
    return got


@pytest.mark.parametrize("block_bytes", [1, 200])
def test_worker_codes_as_inline_coding_and_the_csv_loop(
    rng, tmp_path, monkeypatch, workers, fast_switching, block_bytes
):
    """A file of several blocks has its ids coded by the worker thread:
    every code column, vocabulary, value, blank row and error is what
    coding each block inline gives, and parse_events' results, warnings
    and errors are the csv loop's. The threads are switched as often as
    the interpreter allows, so that they interleave finely."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    path = tmp_path / "events.csv"
    seen = {"threaded": 0, "error": 0, "warned": 0}
    for _ in range(80):
        data, _, invalid = random_events_file(rng)
        path.write_bytes(data)
        kinds = set(rng.choice(["view", "favorite", "message"], size=2).tolist())
        started = len(workers)
        _, (got, got_warnings) = threaded_and_inline(path, monkeypatch, workers, kinds)
        seen["threaded"] += len(workers) > started
        if not invalid:
            assert (got, got_warnings) == parsed(oracle_parse_events, path, kinds), data
        seen["error"] += isinstance(got[0], str)
        seen["warned"] += bool(got_warnings)
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("bad", [
    b"b99,s9,view\n",  # found by the tokenizer
    b",s9,view,99\n",  # by `add`, before the block is handed over
    b"b99,s9,view,nine\n",  # by the converter, with the block in flight
    b"b99,s9,vi\xffew,99\n",  # invalid UTF-8
])
def test_error_in_the_block_after_one_in_flight(tmp_path, monkeypatch, workers, bad):
    """A malformed line in a later block ends the parse as the csv path and
    inline coding end it, with the block before it still being coded."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 64)
    header = b"buyer_id,seller_id,event_kind,timestamp_ms\n"
    lines = [f"b{k},s{k % 7},view,{k}\n".encode() for k in range(40)]
    path = tmp_path / "events.csv"
    for at in range(8, 41, 4):  # past the first block
        path.write_bytes(header + b"".join(lines[:at] + [bad] + lines[at:]))
        started = len(workers)
        _, got = threaded_and_inline(path, monkeypatch, workers)
        assert len(workers) == started + 2  # one per parse
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_tokenize_unquoted", lambda *args: None)
            assert got == parsed(parse_events, path, {"view"})
        if bad.isascii():
            assert got == parsed(oracle_parse_events, path, {"view"})
        assert isinstance(got[0][0], str) and got[0][1] == at + 2


def test_late_quote_waits_for_then_drops_the_work_in_flight(tmp_path, monkeypatch, workers):
    """A quote first met after several blocks were handed over sends the
    file to the csv path only once the worker has coded the block in hand;
    what it coded is dropped, and the result is the csv loop's."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 64)
    log = []
    codes, quoted = ingest._IdCodes.codes, ingest._tokenize_quoted

    def slow_codes(self, *args):
        worker = is_worker(threading.current_thread())
        if worker:
            time.sleep(0.01)
        out = codes(self, *args)
        log.append("worker" if worker else "main")
        return out

    def csv_path(*args):
        log.append("csv")
        return quoted(*args)

    monkeypatch.setattr(ingest._IdCodes, "codes", slow_codes)
    monkeypatch.setattr(ingest, "_tokenize_quoted", csv_path)
    lines = [f"b{k},s{k % 7},view,{k}\n" for k in range(40)]
    lines[30] = 'b30,"s,30",view,30\n'
    path = tmp_path / "events.csv"
    path.write_text("buyer_id,seller_id,event_kind,timestamp_ms\n" + "".join(lines))
    got = parsed(parse_events, path, {"view"})
    assert got == parsed(oracle_parse_events, path, {"view"})
    assert "s,30" in got[0][0][1]
    assert log.count("csv") == 1 and log.count("worker") >= 3 * 4
    assert "worker" not in log[log.index("csv"):]
    assert len(workers) == 1 and not alive_workers()


@pytest.mark.parametrize("block_bytes", [16, 64])
def test_blank_and_crlf_lines_on_block_boundaries_with_the_worker(
    tmp_path, monkeypatch, workers, block_bytes
):
    """Blank lines and CRLF line ends give the same tokens with the worker
    as inline, and the csv loop's results, where they start or end a
    block."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(ingest, "_tokenize_quoted", None)  # the numpy path only
    header = b"buyer_id,seller_id,event_kind,timestamp_ms\r\n"
    lines = [f"b{k},s{k % 7},view,{k}\n".encode() for k in range(12)]
    path = tmp_path / "events.csv"
    for special in (b"\n", b"\r\n", b"\n\n", b"b99,s9,view,99\r\n"):
        placed = {"starts": 0, "ends": 0}
        for at in range(len(lines) + 1):
            data = header + b"".join(lines[:at] + [special] + lines[at:])
            path.write_bytes(data)
            offset = len(header) + sum(map(len, lines[:at]))
            starts = block_starts(data, block_bytes)
            placed["starts"] += offset in starts
            placed["ends"] += offset + len(special) in starts | {len(data)}
            _, got = threaded_and_inline(path, monkeypatch, workers)
            assert got == parsed(oracle_parse_events, path, {"view"}), data
        assert min(placed.values()) >= 1, (special, placed)
    assert workers


def test_memory_error_in_the_worker_is_one_error_line(tmp_path, monkeypatch, capsys, workers):
    """An allocation that fails on the worker thread ends `analyze` as one
    on the main thread does: one error line, exit 1, no output and no
    thread left running."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 256)
    codes = ingest._IdCodes.codes

    def out_of_memory(self, *args):
        if is_worker(threading.current_thread()):
            raise MemoryError
        return codes(self, *args)

    monkeypatch.setattr(ingest._IdCodes, "codes", out_of_memory)
    monkeypatch.chdir(Path(__file__).parent / "data" / "analyze3")
    threads = threading.active_count()
    out = tmp_path / "out"
    assert main([
        "analyze", "--events", "events.csv", "--assignments", "assignments.csv",
        "--outcomes", "outcomes.csv", "--treatment", "A", "--control", "Off",
        "--methods", "pairwise", "--allow-missing-outcomes", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert not out.exists()
    assert len(workers) == 1 and not alive_workers()
    assert threading.active_count() == threads


def test_one_block_files_and_tables_start_no_thread(monkeypatch, workers):
    """Nothing can overlap the coding of a file's only block, and the
    assignments and outcomes parsers need each block's codes before its
    values: neither starts a thread. A file of several blocks starts one."""
    data = Path(__file__).parent / "data" / "analyze3"
    window = (-2**63, 2**63 - 1)
    inline_events, _ = parse_events(data / "events.csv", {"view"}, window)
    assert workers == []
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 64)
    assert len(parse_assignments(data / "assignments.csv").buyers) > 0
    assert len(parse_outcomes(data / "outcomes.csv").sellers) > 0
    assert workers == []
    events, _ = parse_events(data / "events.csv", {"view"}, window)
    assert len(workers) == 1 and not alive_workers()
    assert event_rows(events) == event_rows(inline_events)


def test_import_leaves_the_thread_executor_unloaded():
    """A fresh `import bipartite_ab.cli` loads no concurrent.futures module:
    ingest imports it on first parse, as it loads logging, which would add
    milliseconds to every start-up."""
    code = (
        "import json, sys, bipartite_ab.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'concurrent.futures'"
        " or m.startswith('concurrent.futures.'))))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == []


def test_one_block_parses_leave_the_thread_executor_unloaded():
    """Parsing the fixture's three one-block files in a fresh process loads
    no concurrent.futures module: the executor is opened on the first block
    handed over. An events file of several blocks loads it."""
    code = "\n".join([
        "import json, sys",
        "from bipartite_ab import ingest",
        "def loaded():",
        "    return sorted(m for m in sys.modules",
        "                  if m == 'concurrent.futures' or m.startswith('concurrent.futures.'))",
        "window = (-2**63, 2**63 - 1)",
        "ingest.parse_assignments('assignments.csv')",
        "ingest.parse_outcomes('outcomes.csv')",
        "ingest.parse_events('events.csv', {'view'}, window)",
        "one_block = loaded()",
        "ingest.BLOCK_BYTES = 64",
        "ingest.parse_events('events.csv', {'view'}, window)",
        "print(json.dumps([one_block, 'concurrent.futures' in loaded()]))",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
        cwd=Path(__file__).parent / "data" / "analyze3",
    )
    assert json.loads(done.stdout) == [[], True]


@pytest.mark.parametrize("variants, message", [
    ([("Off", 0.5, True), ("Off", 0.5, False)], "duplicate variant labels in design"),
    ([("Off", 1.0, True), ("A", 0.0, False)], "variant 'Off' has probability 1.0 outside (0,1)"),
    ([("Off", 0.0, True), ("A", 1.0, False)], "variant 'Off' has probability 0.0 outside (0,1)"),
])
def test_design_checks_end_parse_and_analyze(tmp_path, monkeypatch, capsys, variants, message):
    """A design that repeats a label, or whose probabilities sum to 1 with
    one of exactly 0 or 1, is an IngestError from parse_assignments, and
    analyze prints it as its one error line and exits 1, writing nothing."""
    data = Path(__file__).parent / "data" / "analyze3"
    for name in ("events.csv", "assignments.csv", "outcomes.csv"):
        (tmp_path / name).write_bytes((data / name).read_bytes())
    (tmp_path / "assignments.design.json").write_text(json.dumps({"variants": [
        {"label": label, "probability": p, "control": control} for label, p, control in variants
    ]}))
    with pytest.raises(IngestError) as caught:
        parse_assignments(tmp_path / "assignments.csv")
    assert type(caught.value) is IngestError and str(caught.value) == message
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main([
        "analyze", "--events", "events.csv", "--assignments", "assignments.csv",
        "--outcomes", "outcomes.csv", "--treatment", "A", "--control", "Off",
        "--allow-missing-outcomes", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# --- the shared CSV writer against csv.writer row by row ---

# ids that csv.writer quotes, or leaves as they are though they look special
AWKWARD_IDS = ["a,b", 'q"uote', "cr\rid", "lf\nid", "crlf\r\nid", " lead", "trail ",
               "ünïcødé", "12345", "plain"]


def csv_writer_bytes(path, header, rows) -> bytes:
    """The file csv.writer writes for `header` and `rows`, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


@pytest.mark.parametrize("ids", [AWKWARD_IDS, ["b1", "b2", "b10"]], ids=["quoted", "plain"])
def test_writers_match_csv_writer_and_round_trip(tmp_path, ids):
    """write_events, write_assignments, write_outcomes and dump_graph write
    the bytes csv.writer writes for the same rows, and each file parses back
    to what was written: ids that need quotes (a comma, a quote, CR, LF,
    CRLF) and ids that do not (spaces, non-ASCII text, only digits), a
    variant label and an event kind that need quotes, and a NaN y_pre."""
    n, kinds = len(ids), ["view", 'fav,"orite"']
    k = np.arange(3 * n)
    timestamps = np.array([-5, 0, 10**15, 2**63 - 1] * n)[: 3 * n]
    events = EventLog.from_codes(ids, ids[::-1], kinds, k % n, (7 * k + 1) % n, k % 2, timestamps)
    path = tmp_path / "events.csv"
    write_events(path, events)
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "want", EVENTS_HEADER, event_rows(events))
    parsed, report = parse_events(path, kinds, (-(2**63), 2**63 - 1))
    assert report.rows_kept == len(events) and event_rows(parsed) == event_rows(events)

    variants = [Variant("Off", 0.5, control=True), Variant('On, "B"\r\n', 0.5)]
    labels = [v.label for v in variants]
    assignments = assignment_table({b: labels[j % 2] for j, b in enumerate(ids)}, variants)
    path = tmp_path / "assignments.csv"
    write_assignments(path, assignments)
    rows = assignment_entries(assignments).items()
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "want", ["buyer_id", "variant"], rows)
    parsed = parse_assignments(path)
    assert assignment_entries(parsed) == assignment_entries(assignments)
    assert parsed.variants == variants

    values = [1.5, -0.0, 0.0, 0.1, -2.5e17, 5e-324, 1e300]
    entries = {s: (values[j % 7], None if j == 1 else values[(j + 2) % 7])
               for j, s in enumerate(ids)}
    for has_pre in (True, False):
        table = outcome_table(entries, has_pre)
        path = tmp_path / "outcomes.csv"
        write_outcomes(path, table)
        header = ["seller_id", "y_in", "y_pre"][: 2 + has_pre]
        rows = [(s, repr(y_in), "" if y_pre is None else repr(y_pre))[: 2 + has_pre]
                for s, (y_in, y_pre) in outcome_entries(table).items()]
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "want", header, rows)
        parsed = parse_outcomes(path)
        assert parsed.has_pre == has_pre
        assert outcome_entries(parsed) == {
            s: (y_in, y_pre if has_pre else None) for s, (y_in, y_pre) in entries.items()
        }

    graph, _ = build_graph(events, assignments, GraphBuildConfig(kind_filter=frozenset(kinds)))
    path = tmp_path / "graph.csv"
    dump_graph(graph, path)
    rows = list(zip(np.repeat(graph.sellers, graph.seller_degrees()).tolist(),
                    [graph.buyers[j] for j in graph.buyer_idx.tolist()],
                    map(repr, graph.weights.tolist())))
    header = ["seller_id", "buyer_id", "weight"]
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "want", header, rows)
    with open(path, encoding="utf-8", newline="") as fh:
        assert [tuple(row) for row in csv.reader(fh)] == [tuple(header), *rows]
