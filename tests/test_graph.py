import csv

import numpy as np
import pytest

from bipartite_ab.graph import (
    EmptyGraphError,
    GraphBuildConfig,
    GraphError,
    build_graph,
    dump_graph,
    graph_stats,
    per_variant_subgraph,
)
from bipartite_ab.ingest import EVENTS_HEADER, Variant, parse_events

from conftest import (
    assignment_entries,
    assignment_table,
    edge_set,
    event_rows,
    make_events,
    oracle_build_graph,
    oracle_graph_stats,
    oracle_per_variant_subgraph,
    two_variant_assignments,
)

CFG_COUNT = GraphBuildConfig(weighting="count_proportional", kind_filter=frozenset({"view"}))
CFG_DEDUP = GraphBuildConfig(weighting="binary_dedup", kind_filter=frozenset({"view"}))


def three_variant_assignments():
    third = 1.0 / 3.0
    return assignment_table(
        {"a": "Off", "b": "A", "c": "B"},
        [Variant("Off", third, control=True), Variant("A", third), Variant("B", third)],
    )


def counts_rows():
    # seller s1 with interaction counts a:1, b:2, c:3
    rows = [("a", "s1", "view", 1)]
    rows += [("b", "s1", "view", t) for t in (2, 3)]
    rows += [("c", "s1", "view", t) for t in (4, 5, 6)]
    return rows


def counts_events():
    return make_events(counts_rows())


class TestBuildGraph:
    def test_count_proportional_shares(self):
        graph, _ = build_graph(counts_events(), three_variant_assignments(), CFG_COUNT)
        idx, w = graph.row(0)
        weights = {graph.buyers[j]: weight for j, weight in zip(idx, w)}
        assert weights["a"] == pytest.approx(1 / 6, abs=1e-12)
        assert weights["b"] == pytest.approx(2 / 6, abs=1e-12)
        assert weights["c"] == pytest.approx(3 / 6, abs=1e-12)

    def test_single_buyer_seller_weight_one(self):
        events = make_events([("a", "solo", "view", 1)])
        graph, _ = build_graph(events, three_variant_assignments(), CFG_COUNT)
        _, w = graph.row(graph.sellers.index("solo"))
        assert w.tolist() == [1.0]

    def test_binary_dedup(self):
        graph, _ = build_graph(counts_events(), three_variant_assignments(), CFG_DEDUP)
        _, w = graph.row(0)
        assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_unassigned_buyer_excluded_and_counted(self):
        events = make_events(counts_rows() + [("ghost", "s1", "view", 7)])
        graph, report = build_graph(events, three_variant_assignments(), CFG_COUNT)
        assert report.skipped_unassigned == 1
        assert "ghost" not in graph.buyers
        _, w = graph.row(0)
        assert np.isclose(w.sum(), 1.0, atol=1e-9)

    def test_empty_graph_error(self):
        events = make_events([("a", "s1", "favorite", 1)])
        with pytest.raises(EmptyGraphError):
            build_graph(events, three_variant_assignments(), CFG_COUNT)

    def test_permutation_invariance(self, rng):
        rows = counts_rows() + [("a", "s2", "view", 7), ("b", "s2", "view", 8)]
        base, _ = build_graph(make_events(rows), three_variant_assignments(), CFG_COUNT)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        other, _ = build_graph(
            make_events(shuffled), three_variant_assignments(), CFG_COUNT
        )
        assert edge_set(base) == edge_set(other)

    def test_row_normalization_on_random_builds(self, rng):
        assignments = two_variant_assignments(
            [f"b{i}" for i in range(0, 30, 2)], [f"b{i}" for i in range(1, 30, 2)]
        )
        rows = [
            (f"b{rng.integers(30)}", f"s{rng.integers(10)}", "view", int(t))
            for t in range(300)
        ]
        graph, _ = build_graph(make_events(rows), assignments, CFG_COUNT)
        assert np.all(np.abs(graph.row_sums() - 1.0) <= 1e-9)

    def test_new_buyer_decreases_existing_weights(self):
        assignments = three_variant_assignments()
        before, _ = build_graph(counts_events(), assignments, CFG_COUNT)
        assignments2 = assignment_table(
            assignment_entries(assignments) | {"d": "A"}, assignments.variants
        )
        after, _ = build_graph(
            make_events(counts_rows() + [("d", "s1", "view", 9)]), assignments2, CFG_COUNT
        )
        w_before = {before.buyers[j]: w for j, w in zip(*before.row(0))}
        w_after = {after.buyers[j]: w for j, w in zip(*after.row(0))}
        for buyer in ("a", "b", "c"):
            assert w_after[buyer] < w_before[buyer]


class TestPerVariantSubgraph:
    def test_restriction_renormalizes(self):
        graph, _ = build_graph(counts_events(), three_variant_assignments(), CFG_COUNT)
        sub = per_variant_subgraph(graph, three_variant_assignments(), "Off", "A")
        weights = {sub.buyers[j]: w for j, w in zip(*sub.row(0))}
        # oracle: recomputed shares from the raw counts a:1, b:2 by hand
        assert weights == pytest.approx({"a": 1 / 3, "b": 2 / 3}, abs=1e-12)
        assert "c" not in sub.buyers

    def test_seller_with_no_remaining_edges_dropped(self):
        events = make_events(counts_rows() + [("c", "only_b", "view", 9)])
        graph, _ = build_graph(events, three_variant_assignments(), CFG_COUNT)
        sub = per_variant_subgraph(graph, three_variant_assignments(), "Off", "A")
        assert "only_b" not in sub.sellers

    def test_identity_on_two_variant_graph(self):
        assignments = two_variant_assignments(["x"], ["y"])
        events = make_events([("x", "s1", "view", 1), ("y", "s1", "view", 2)])
        graph, _ = build_graph(events, assignments, CFG_COUNT)
        sub = per_variant_subgraph(graph, assignments, "Off", "On")
        assert edge_set(sub) == edge_set(graph)

    def test_same_variants_error(self):
        graph, _ = build_graph(counts_events(), three_variant_assignments(), CFG_COUNT)
        with pytest.raises(GraphError):
            per_variant_subgraph(graph, three_variant_assignments(), "A", "A")

    def test_unknown_variant_error(self):
        graph, _ = build_graph(counts_events(), three_variant_assignments(), CFG_COUNT)
        with pytest.raises(ValueError, match="unknown variant 'Nope'"):
            per_variant_subgraph(graph, three_variant_assignments(), "Off", "Nope")

    def test_commutes_with_event_prefiltering(self):
        assignments = three_variant_assignments()
        rows = counts_rows() + [
            ("a", "s2", "view", 7), ("c", "s2", "view", 8), ("b", "s3", "view", 9)
        ]
        graph, _ = build_graph(make_events(rows), assignments, CFG_COUNT)
        restricted = per_variant_subgraph(graph, assignments, "Off", "A")
        keep = {"a", "b"}  # Off and A buyers
        prefiltered, _ = build_graph(
            make_events(r for r in rows if r[0] in keep), assignments, CFG_COUNT
        )
        assert edge_set(restricted) == edge_set(prefiltered)


class TestGraphStats:
    def test_degree_histogram(self):
        assignments = two_variant_assignments(["x"], ["y"])
        events = make_events(
            [
                ("x", "s1", "view", 1),
                ("y", "s2", "view", 2),
                ("x", "s3", "view", 3),
                ("y", "s3", "view", 4),
            ]
        )
        graph, _ = build_graph(events, assignments, CFG_COUNT)
        stats = graph_stats(graph)
        assert stats.seller_degree_hist == {1: 2, 2: 1}
        assert stats.single_edge_sellers == 2

    def test_matches_brute_force_recount(self, rng):
        assignments = two_variant_assignments(
            [f"b{i}" for i in range(0, 20, 2)], [f"b{i}" for i in range(1, 20, 2)]
        )
        rows = [
            (f"b{rng.integers(20)}", f"s{rng.integers(8)}", "view", int(t))
            for t in range(100)
        ]
        graph, _ = build_graph(make_events(rows), assignments, CFG_COUNT)
        stats = graph_stats(graph)
        # independent recount from the edge set
        edges = edge_set(graph)
        assert stats.n_edges == len(edges)
        by_seller = {}
        for s, b, _ in edges:
            by_seller[s] = by_seller.get(s, 0) + 1
        hist = {}
        for d in by_seller.values():
            hist[d] = hist.get(d, 0) + 1
        assert stats.seller_degree_hist == hist


class TestDump:
    def test_deterministic_ordering(self, tmp_path):
        graph, _ = build_graph(counts_events(), three_variant_assignments(), CFG_COUNT)
        p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        dump_graph(graph, p1)
        dump_graph(graph, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "seller_id,buyer_id,weight"
        body = [tuple(l.split(",")[:2]) for l in lines[1:]]
        assert body == sorted(body)


# --- differential tests against the row-at-a-time oracles -------------------

VARIANTS3 = [Variant("Off", 0.4, control=True), Variant("A", 0.3), Variant("B", 0.3)]
KINDS = ("view", "favorite", "message")


def id_pool(prefix, k):
    """k plain ids plus ids that differ from them only by a trailing NUL,
    and ids with non-ASCII characters (precomposed and combining)."""
    ids = [f"{prefix}{i}" for i in range(k)]
    ids += [f"{prefix}{i}\x00" for i in range(0, k, 3)]
    ids += [f"{prefix}{i}\u00e9" for i in range(1, k, 4)]
    ids += [f"{prefix}{i}e\u0301" for i in range(1, k, 4)]
    return ids + [f"β{prefix}{k}", f"{prefix}\x00"]


def random_log(rng):
    """(rows, assignments): a random event log with repeated events, a few
    unassigned buyers and a three-variant design."""
    buyers = id_pool("b", int(rng.integers(2, 25)))
    sellers = id_pool("s", int(rng.integers(1, 12)))
    n = int(rng.integers(1, 160))
    rows = [
        (
            buyers[rng.integers(len(buyers))],
            sellers[rng.integers(len(sellers))],
            KINDS[rng.integers(len(KINDS))],
            int(rng.integers(0, 10**6)),
        )
        for _ in range(n)
    ]
    rows += rows[: int(rng.integers(0, n + 1))]  # exact repeats
    rng.shuffle(rows)
    labels = ["Off", "A", "B"]
    entries = {
        b: labels[rng.integers(3)] for b in buyers if rng.random() > 0.15
    }
    return rows, assignment_table(entries, VARIANTS3)


def assert_same_graph(got, want):
    assert got.buyers == want.buyers
    assert got.sellers == want.sellers
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.buyer_idx, want.buyer_idx)
    assert got.weights.tobytes() == want.weights.tobytes()


def test_columnar_graph_matches_row_oracles(rng, tmp_path):
    built = restricted = 0
    for k in range(60):
        rows, assignments = random_log(rng)
        kinds = frozenset(
            KINDS[j] for j in range(3) if rng.random() < 0.6
        ) or frozenset({"view"})
        # the same log through the CSV parser: NULs and non-ASCII survive
        path = tmp_path / f"events{k}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([EVENTS_HEADER] + rows)
        parsed, report = parse_events(path, set(KINDS), (0, 2**62))
        assert event_rows(parsed) == rows
        assert report.rows_read == report.rows_kept == len(rows)

        for weighting in ("count_proportional", "binary_dedup"):
            cfg = GraphBuildConfig(weighting=weighting, kind_filter=kinds)
            try:
                want, want_report = oracle_build_graph(rows, assignments, cfg)
            except EmptyGraphError:
                with pytest.raises(EmptyGraphError):
                    build_graph(parsed, assignments, cfg)
                continue
            got, got_report = build_graph(parsed, assignments, cfg)
            assert got_report == want_report
            assert_same_graph(got, want)
            assert graph_stats(got) == oracle_graph_stats(want)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            again, _ = build_graph(make_events(shuffled), assignments, cfg)
            assert_same_graph(again, want)
            built += 1
            for control, treatment in (("Off", "A"), ("A", "B")):
                try:
                    want_sub = oracle_per_variant_subgraph(
                        want, assignments, control, treatment
                    )
                except EmptyGraphError:
                    with pytest.raises(EmptyGraphError):
                        per_variant_subgraph(got, assignments, control, treatment)
                    continue
                got_sub = per_variant_subgraph(got, assignments, control, treatment)
                assert_same_graph(got_sub, want_sub)
                assert graph_stats(got_sub) == oracle_graph_stats(want_sub)
                restricted += 1
    assert built >= 100 and restricted >= 150

