import csv
import json

import pytest

from bipartite_ab.ingest import (
    AssignmentTable,
    IngestError,
    OutcomeTable,
    ParseError,
    Variant,
    parse_assignments,
    parse_events,
    parse_outcomes,
    write_outcomes,
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
        assert all(e.event_kind == "view" for e in events)
        assert report.dropped_kind == 2

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv(path, [])
        events, report = parse_events(path, {"view"}, WINDOW)
        assert events == []
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

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "events.csv"
        rows = [("b3", "s1", "view", 9), ("b1", "s1", "view", 2), ("b2", "s2", "view", 5)]
        write_events_csv(path, rows)
        events, _ = parse_events(path, {"view"}, WINDOW)
        assert [e.buyer_id for e in events] == ["b3", "b1", "b2"]

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
        assert sorted(map(repr, both)) == sorted(map(repr, views + favs))


class TestParseAssignments:
    def test_two_variants(self, tmp_path):
        rows = [(f"b{i}", "Off" if i < 5 else "On") for i in range(10)]
        variants = [
            {"label": "Off", "probability": 0.5, "control": True},
            {"label": "On", "probability": 0.5},
        ]
        path = write_assignment_files(tmp_path, rows, variants)
        table = parse_assignments(path)
        assert len(table) == 10
        assert table.labels == ["Off", "On"]
        assert table.control_label == "Off"

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

    def test_exactly_one_control(self):
        with pytest.raises(IngestError, match="control"):
            AssignmentTable({"b1": "Off"}, [Variant("Off", 0.5), Variant("On", 0.5)])


class TestParseOutcomes:
    def test_without_pre(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        path.write_text("seller_id,y_in\ns1,1.5\ns2,0.25\ns3,-3\ns4,0\n")
        table = parse_outcomes(path)
        assert len(table) == 4
        assert not table.has_pre
        assert table.y_in("s2") == 0.25
        assert table.y_pre("s2") is None

    def test_nan_literal_is_error(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        path.write_text("seller_id,y_in\ns1,NaN\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_outcomes(path)

    def test_round_trip(self, tmp_path, rng):
        n = 5000
        entries = {
            f"s{i:05d}": (float(v), float(w))
            for i, (v, w) in enumerate(zip(rng.normal(size=n), rng.normal(size=n)))
        }
        table = OutcomeTable(entries, has_pre=True)
        path = tmp_path / "outcomes.csv"
        write_outcomes(path, table)
        parsed = parse_outcomes(path)
        assert parsed.has_pre
        assert parsed.entries == table.entries
