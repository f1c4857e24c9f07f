import csv
import json
import math
import sys
import warnings
from array import array

import numpy as np
import pytest

from bipartite_ab import ingest
from bipartite_ab.ingest import (
    DEFAULT_EVENT_KINDS,
    EVENTS_HEADER,
    AssignmentTable,
    EventLog,
    EventParseReport,
    IngestError,
    ParseError,
    Variant,
    parse_assignments,
    parse_events,
    parse_outcomes,
    write_outcomes,
)

from conftest import event_rows, outcome_entries, outcome_table

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
                warnings.warn(
                    f"{path}:{line_no}: unknown event kind {kind_id!r}, skipped",
                    stacklevel=2,
                )
            buyer.append(buyer_ids.setdefault(buyer_id, len(buyer_ids)))
            seller.append(seller_ids.setdefault(seller_id, len(seller_ids)))
            kind.append(kind_ids.setdefault(kind_id, len(kind_ids)))
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
