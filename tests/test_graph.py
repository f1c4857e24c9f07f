import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from bipartite_ab.graph import (
    BipartiteGraph,
    EmptyGraphError,
    GraphBuildConfig,
    GraphBuildReport,
    GraphError,
    GraphStats,
    _row_normalized,
    build_graph,
    dump_graph,
    graph_stats,
    per_variant_subgraph,
)
from bipartite_ab.ingest import (
    EVENTS_HEADER,
    EventLog,
    Variant,
    parse_assignments,
    parse_events,
)
from bipartite_ab.simulator import FixedDegree, SimConfig, ZipfDegree, simulate_experiment

from conftest import (
    KINDS,
    VARIANTS3,
    assert_same_graph,
    assignment_entries,
    assignment_table,
    csr,
    edge_set,
    event_rows,
    graph_row,
    make_events,
    oracle_build_graph,
    oracle_graph_stats,
    oracle_per_variant_subgraph,
    random_log,
    random_sparse_graph,
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
        idx, w = graph_row(graph, 0)
        weights = {graph.buyers[j]: weight for j, weight in zip(idx, w)}
        assert weights["a"] == pytest.approx(1 / 6, abs=1e-12)
        assert weights["b"] == pytest.approx(2 / 6, abs=1e-12)
        assert weights["c"] == pytest.approx(3 / 6, abs=1e-12)

    def test_single_buyer_seller_weight_one(self):
        events = make_events([("a", "solo", "view", 1)])
        graph, _ = build_graph(events, three_variant_assignments(), CFG_COUNT)
        _, w = graph_row(graph, graph.sellers.index("solo"))
        assert w.tolist() == [1.0]

    def test_binary_dedup(self):
        graph, _ = build_graph(counts_events(), three_variant_assignments(), CFG_DEDUP)
        _, w = graph_row(graph, 0)
        assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_unassigned_buyer_excluded_and_counted(self):
        events = make_events(counts_rows() + [("ghost", "s1", "view", 7)])
        graph, report = build_graph(events, three_variant_assignments(), CFG_COUNT)
        assert report.skipped_unassigned == 1
        assert "ghost" not in graph.buyers
        _, w = graph_row(graph, 0)
        assert np.isclose(w.sum(), 1.0, atol=1e-9)

    def test_empty_graph_error(self):
        events = make_events([("a", "s1", "favorite", 1)])
        with pytest.raises(EmptyGraphError):
            build_graph(events, three_variant_assignments(), CFG_COUNT)

    def test_unknown_weighting_refused(self):
        with pytest.raises(GraphError, match="^unknown weighting 'wat'$"):
            GraphBuildConfig(weighting="wat")

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
        w_before = {before.buyers[j]: w for j, w in zip(*graph_row(before, 0))}
        w_after = {after.buyers[j]: w for j, w in zip(*graph_row(after, 0))}
        for buyer in ("a", "b", "c"):
            assert w_after[buyer] < w_before[buyer]

    def test_graphs_share_the_log_vocabularies(self):
        rows = counts_rows() + [("ghost", "s2", "view", 7), ("c", "s2", "view", 8)]
        events = make_events(rows)
        assignments = three_variant_assignments()
        graph, _ = build_graph(events, assignments, CFG_COUNT)
        sub = per_variant_subgraph(graph, assignments, "Off", "A")
        for g in (graph, sub):
            assert g.buyer_vocabulary is events.buyers
            assert g.seller_vocabulary is events.sellers
        assert graph.buyer_codes.tolist() == [0, 1, 2]  # "ghost" is unassigned
        assert (graph.buyers, graph.sellers) == (["a", "b", "c"], ["s1", "s2"])
        assert (sub.buyers, sub.sellers) == (["a", "b"], ["s1"])

    def test_hand_built_graph_codes_its_lists(self):
        graph = BipartiteGraph(["y", "x"], ["s"], [0, 2], [0, 1], [0.5, 0.5])
        assert graph.buyer_vocabulary == ("y", "x")
        assert graph.buyer_codes.tolist() == [0, 1]
        assert graph.buyers == ["y", "x"] and graph.sellers == ["s"]


class TestPerVariantSubgraph:
    def test_restriction_renormalizes(self):
        graph, _ = build_graph(counts_events(), three_variant_assignments(), CFG_COUNT)
        sub = per_variant_subgraph(graph, three_variant_assignments(), "Off", "A")
        weights = {sub.buyers[j]: w for j, w in zip(*graph_row(sub, 0))}
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
        assert graph_stats(graph) == GraphStats(
            n_buyers=2, n_sellers=3, n_edges=4, single_edge_sellers=2
        )

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
        assert stats.n_sellers == len(by_seller)
        assert stats.n_buyers == len({b for _, b, _ in edges})
        assert stats.single_edge_sellers == sum(d == 1 for d in by_seller.values())


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



# --- differential test against the COO -> CSR build it replaced -------------

def coo_build_graph(events, assignments, config):
    """The sparse-matrix build that sort-and-runs replaced, kept verbatim
    as the reference: scipy sums repeated (seller, buyer) pairs, and rows
    of equal degree are normalized together."""
    wanted = [k for k, kind in enumerate(events.kinds) if kind in config.kind_filter]
    selected = np.isin(events.kind, wanted)
    assigned = assignments.rows(events.buyers) >= 0
    used = selected & assigned[events.buyer]
    report = GraphBuildReport(
        events_used=int(used.sum()),
        skipped_unassigned=int((selected & ~used).sum()),
        skipped_kind=int((~selected).sum()),
    )
    if not report.events_used:
        raise EmptyGraphError("empty graph: no qualifying events")
    counts = sp.coo_matrix(
        (np.ones(report.events_used), (events.seller[used], events.buyer[used])),
        shape=(len(events.sellers), len(events.buyers)),
    ).tocsr()
    rows = np.flatnonzero(np.diff(counts.indptr))
    cols = np.flatnonzero(np.bincount(counts.indices, minlength=counts.shape[1]))
    counts = counts[rows][:, cols]
    if config.weighting == "binary_dedup":
        counts.data[:] = 1.0
    degree = np.diff(counts.indptr)
    sums = np.empty(len(degree))
    for d in np.unique(degree).tolist():
        at = np.flatnonzero(degree == d)
        sums[at] = counts.data[counts.indptr[at, None] + np.arange(d)].sum(axis=1)
    weights = counts.data / np.repeat(sums, degree)
    graph = BipartiteGraph(
        events.buyers, events.sellers, counts.indptr, counts.indices, weights,
        codes=(cols, rows),
    )
    return graph, report


def coded_log(rng, n_events, n_buyers, n_sellers):
    """An EventLog of random codes: most (seller, buyer) pairs repeat, and
    each kind leaves some buyers and sellers to the others alone."""
    kind = rng.integers(0, len(KINDS), n_events)
    buyer = rng.integers(0, n_buyers, n_events)
    seller = rng.integers(0, n_sellers, n_events)
    # the last buyer and seller ids appear only in message events
    buyer[kind == 2] = np.minimum(buyer[kind == 2] + 1, n_buyers)
    seller[kind == 2] = np.minimum(seller[kind == 2] + 1, n_sellers)
    return EventLog.from_codes(
        [f"b{i}" for i in range(n_buyers + 1)],
        [f"s{i}" for i in range(n_sellers + 1)],
        list(KINDS),
        buyer,
        seller,
        kind,
        rng.integers(0, 10**6, n_events),
    )


def differential_logs(rng):
    """(events, assignments) pairs: random CSV-style logs, code logs with
    heavy repeats and unassigned buyers, and a one-event log."""
    for _ in range(40):
        rows, assignments = random_log(rng)
        yield make_events(rows), assignments
    for n_events, n_buyers, n_sellers in ((50, 3, 2), (3000, 40, 25), (20000, 600, 300)):
        events = coded_log(rng, n_events, n_buyers, n_sellers)
        labels = ["Off", "A", "B"]
        entries = {
            b: labels[rng.integers(3)] for b in events.buyers if rng.random() > 0.2
        }
        yield events, assignment_table(entries, VARIANTS3)
    yield make_events([("b1", "s1", "view", 7)]), assignment_table(
        {"b1": "A"}, VARIANTS3
    )


def test_build_graph_matches_coo_build(rng):
    compared = 0
    for events, assignments in differential_logs(rng):
        for kinds in ({"view"}, {"view", "favorite"}, set(KINDS)):
            for weighting in ("count_proportional", "binary_dedup"):
                cfg = GraphBuildConfig(weighting=weighting, kind_filter=frozenset(kinds))
                try:
                    want, want_report = coo_build_graph(events, assignments, cfg)
                except EmptyGraphError:
                    with pytest.raises(EmptyGraphError):
                        build_graph(events, assignments, cfg)
                    continue
                got, got_report = build_graph(events, assignments, cfg)
                assert got_report == want_report
                assert got.indptr.tobytes() == want.indptr.tobytes()
                assert got.buyer_idx.tobytes() == want.buyer_idx.tobytes()
                assert got.weights.tobytes() == want.weights.tobytes()
                assert got.buyer_codes.tobytes() == want.buyer_codes.tobytes()
                assert got.seller_codes.tobytes() == want.seller_codes.tobytes()
                assert got.buyer_vocabulary is events.buyers
                assert got.seller_vocabulary is events.sellers
                compared += 1
    assert compared >= 200


# --- differential tests against the scipy products and slicing replaced -----

DATA = Path(__file__).parent / "data" / "analyze3"


def row_by_row_normalized(indptr, data):
    """Each CSR row of `data` divided by its own sum, one row at a time: the
    reference `_row_normalized` is bit-equal to."""
    return np.concatenate([data[s:e] / data[s:e].sum() for s, e in zip(indptr[:-1], indptr[1:])])


def scipy_per_variant_subgraph(graph, assignments, control, treatment):
    """The column slicing that index arithmetic replaced, kept as the
    reference: scipy drops the other variants' columns, a second index
    drops the rows left empty, and each row is divided by its own sum."""
    keep = np.isin(
        graph.buyer_variants(assignments),
        [assignments.code(control), assignments.code(treatment)],
    )
    sub = csr(graph)[:, keep]
    rows = np.flatnonzero(np.diff(sub.indptr))
    if not len(rows):
        raise EmptyGraphError("empty graph")
    sub = sub[rows]
    return BipartiteGraph(
        graph.buyer_vocabulary,
        graph.seller_vocabulary,
        sub.indptr,
        sub.indices,
        row_by_row_normalized(sub.indptr, sub.data),
        codes=(graph.buyer_codes[keep], graph.seller_codes[rows]),
    )


def fixture_graphs():
    """Every graph `analyze` builds from the tests/data fixture, under both
    weightings, and their Off-vs-A restrictions."""
    assignments = parse_assignments(DATA / "assignments.csv")
    events, _ = parse_events(DATA / "events.csv", frozenset(KINDS), (0, 2**62))
    for kinds in ({"view"}, {"view", "favorite"}):
        for weighting in ("count_proportional", "binary_dedup"):
            cfg = GraphBuildConfig(weighting=weighting, kind_filter=frozenset(kinds))
            graph, _ = build_graph(events, assignments, cfg)
            yield graph
            yield per_variant_subgraph(graph, assignments, "Off", "A")


def product_graphs(rng):
    """Simulated, random and fixture graphs, with single-edge rows and a
    one-edge graph among them."""
    yield from fixture_graphs()
    for config in (
        SimConfig(m=300, n=150, seed=5),
        SimConfig(m=2000, n=800, degree=ZipfDegree(1.3, 60), seed=6),
        SimConfig(m=50, n=40, degree=FixedDegree(1), seed=7),
    ):
        yield simulate_experiment(config).graph
    for m, n in ((30, 20), (400, 300)):
        yield random_sparse_graph(rng, m, n, min_deg=1, max_deg=8)
    yield BipartiteGraph(["b"], ["s"], [0, 1], [0], [1.0])


def test_products_match_scipy(rng):
    """W x, a block of W z_k and W'v over a row subset equal scipy's CSR
    products bit for bit. A bool block of draws, as REG's randomization
    passes, gives the products of its float64 copy, as a block and row by
    row."""
    compared = 0
    for graph in product_graphs(rng):
        W = csr(graph)
        x = rng.standard_normal(graph.n_buyers)
        assert graph.times(x).tobytes() == (W @ x).tobytes()
        Z = rng.random((7, graph.n_buyers)) < 0.4
        want = np.ascontiguousarray((W @ Z.T).T)
        assert graph.times(Z).tobytes() == want.tobytes()
        assert graph.times(Z.astype(np.float64)).tobytes() == want.tobytes()
        assert graph.times(Z[:1]).tobytes() == want[:1].tobytes()
        assert graph.times(Z[1]).tobytes() == want[1].tobytes()
        assert graph.times(Z[1].astype(np.float64)).tobytes() == want[1].tobytes()
        for rows in (
            np.arange(graph.n_sellers),
            np.flatnonzero(rng.random(graph.n_sellers) < 0.6),
            np.array([graph.n_sellers - 1]),
        ):
            v = rng.standard_normal(len(rows))
            full = np.zeros(graph.n_sellers)
            full[rows] = v
            want = W[rows].T @ v
            assert graph.transpose_times(full).tobytes() == want.tobytes()
        compared += 1
    assert compared == 14


def test_take_rows_matches_scipy_row_slicing(rng):
    """take_rows, which is not checked again, gives the arrays and dtypes of
    a checked graph built from scipy's row slicing, for all, some,
    reordered and single rows, and its products are bit-equal to the
    slice's."""
    names = ("indptr", "buyer_idx", "weights", "buyer_codes", "seller_codes")
    compared = 0
    for graph in product_graphs(rng):
        W = csr(graph)
        Z = rng.random((5, graph.n_buyers)) < 0.4
        for rows in (
            np.arange(graph.n_sellers),
            np.flatnonzero(rng.random(graph.n_sellers) < 0.6),
            rng.permutation(graph.n_sellers),
            np.array([graph.n_sellers - 1]),
        ):
            if not len(rows):
                continue
            got = graph.take_rows(rows)
            sub = W[rows]
            want = BipartiteGraph(
                graph.buyer_vocabulary, graph.seller_vocabulary, sub.indptr, sub.indices,
                sub.data, codes=(graph.buyer_codes, graph.seller_codes[rows]),
            )
            got._validate()
            for name in names:
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
            assert got.sellers == want.sellers and got.buyers == graph.buyers
            product = np.ascontiguousarray((sub @ Z.T).T)
            assert got.times(Z).tobytes() == product.tobytes()
            compared += 1
    assert compared >= 50


def test_per_variant_subgraph_matches_scipy_slicing(rng):
    """Index arithmetic gives the arrays the scipy slicing gave: on random
    and fixture graphs, with single-edge rows, rows that lose every edge
    and a restriction that keeps every buyer."""
    compared = 0
    for events, assignments in differential_logs(rng):
        for kinds in ({"view"}, set(KINDS)):
            cfg = GraphBuildConfig(kind_filter=frozenset(kinds))
            try:
                graph, _ = build_graph(events, assignments, cfg)
            except EmptyGraphError:
                continue
            for control, treatment in (("Off", "A"), ("A", "B"), ("Off", "B")):
                try:
                    want = scipy_per_variant_subgraph(
                        graph, assignments, control, treatment
                    )
                except EmptyGraphError:
                    with pytest.raises(EmptyGraphError):
                        per_variant_subgraph(graph, assignments, control, treatment)
                    continue
                got = per_variant_subgraph(graph, assignments, control, treatment)
                for name in ("indptr", "buyer_idx", "weights", "buyer_codes",
                             "seller_codes"):
                    g, w = getattr(got, name), getattr(want, name)
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                compared += 1
    # every buyer kept: the arrays come back unchanged
    exp = simulate_experiment(SimConfig(m=300, n=150, seed=8))
    sub = per_variant_subgraph(exp.graph, exp.assignments, "Off", "On")
    for name in ("indptr", "buyer_idx", "weights", "buyer_codes", "seller_codes"):
        assert getattr(sub, name).tobytes() == getattr(exp.graph, name).tobytes()
    # single-edge rows, a row that loses every edge and one that keeps all
    graph = BipartiteGraph(
        ["a", "b", "c", "d"], ["s1", "s2", "s3", "s4"],
        [0, 1, 3, 4, 7], [2, 0, 2, 1, 0, 2, 3], [1.0, 0.25, 0.75, 1.0, 0.5, 0.25, 0.25],
    )
    assignments = assignment_table(
        {"a": "Off", "b": "B", "c": "A", "d": "A"}, VARIANTS3
    )
    got = per_variant_subgraph(graph, assignments, "Off", "A")
    want = scipy_per_variant_subgraph(graph, assignments, "Off", "A")
    assert got.sellers == ["s1", "s2", "s4"]
    for name in ("indptr", "buyer_idx", "weights", "buyer_codes", "seller_codes"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert compared + 1 >= 60


def test_row_normalized_matches_row_by_row_division(rng):
    """Rows summed a degree group at a time divide bit-equal to rows summed
    one by one, on both sides of each bound of numpy's pairwise sum (a
    plain loop below 8 terms, 8 partial sums up to 128, halving above), with
    the rows of a degree scattered through the array and heavy-tailed
    weights whose sum depends on the order it runs in."""
    degrees = [1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 255, 256, 257, 1000, 3663]
    degree = rng.permutation(np.repeat(degrees, 5))
    indptr = np.concatenate(([0], np.cumsum(degree)))
    data = rng.lognormal(0.0, 4.0, indptr[-1])
    got = _row_normalized(indptr, data)
    want = row_by_row_normalized(indptr, data)
    assert got.tobytes() == want.tobytes()
    # the grouped sums differ from a plain left-to-right sum in some row
    plain = np.concatenate([data[s:e] / sum(data[s:e].tolist())
                            for s, e in zip(indptr[:-1], indptr[1:])])
    assert plain.tobytes() != want.tobytes()


def test_restricted_analyze_leaves_numpy_ma_unloaded(tmp_path):
    """An analyze run on the tests/data fixture that restricts its graph to
    two variants (per_variant_subgraph, so _row_normalized) loads no
    numpy.ma: a bare np.unique imports it on first use. Each restriction
    must add no numpy.ma module. numpy 2 loads numpy.ma only on demand, so
    there the whole run must leave it unloaded; numpy 1 imports it with
    numpy itself. The run asks for the pairwise and randomization
    intervals; the bootstrap is checked by the next test."""
    argv = [
        "analyze", "--events", "events.csv", "--assignments", "assignments.csv",
        "--outcomes", "outcomes.csv", "--treatment", "A", "--control", "Off",
        "--estimators", "erl", "--methods", "randomization,pairwise",
        "--allow-missing-outcomes", "--out", str(tmp_path / "out"),
    ]
    code = "\n".join([
        "import json, sys",
        "from bipartite_ab import graph",
        "from bipartite_ab.cli import main",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.'))",
        "restrict, added = graph.per_variant_subgraph, []",
        "def spy(*a):",
        "    before = set(loaded())",
        "    sub = restrict(*a)",
        "    added.append(sorted(set(loaded()) - before))",
        "    return sub",
        "graph.per_variant_subgraph = spy",
        f"assert main({argv!r}) == 0",
        "print(json.dumps({'added': added, 'loaded': loaded()}))",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, cwd=DATA,
    )
    modules = json.loads(done.stdout)
    assert modules["added"] and all(a == [] for a in modules["added"])
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert modules["loaded"] == []


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="numpy 1 imports numpy.ma with numpy itself",
)
def test_default_analyze_leaves_numpy_ma_unloaded(tmp_path):
    """An analyze run with the default method, the bootstrap, on the
    restricted tests/data fixture loads no numpy.ma: the percentiles come
    from np.partition, not np.quantile, which imports it on first use."""
    argv = [
        "analyze", "--events", "events.csv", "--assignments", "assignments.csv",
        "--outcomes", "outcomes.csv", "--treatment", "A", "--control", "Off",
        "--replications", "200", "--allow-missing-outcomes", "--out", str(tmp_path / "out"),
    ]
    code = "\n".join([
        "import json, sys",
        "from bipartite_ab.cli import main",
        f"assert main({argv!r}) == 0",
        "print(json.dumps(sorted(m for m in sys.modules",
        "                        if m == 'numpy.ma' or m.startswith('numpy.ma.'))))",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, cwd=DATA,
    )
    assert json.loads(done.stdout) == []
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {e["method"] for e in report["entries"]} == {"bootstrap"}


# a valid two-seller graph: s1 with buyers a and b, s2 with buyer c
VALID_CSR = {"sellers": ["s1", "s2"], "indptr": [0, 2, 3], "buyer_idx": [0, 1, 2],
             "weights": [0.5, 0.5, 1.0]}


@pytest.mark.parametrize("change, error, message", [
    ({"sellers": [], "indptr": [0], "buyer_idx": [], "weights": []},
     EmptyGraphError, "empty graph: no outcome units"),
    ({"indptr": [0, 3]}, GraphError, "indptr length mismatch"),
    ({"indptr": [1, 2, 3]}, GraphError, "indptr, buyer indices and weights disagree"),
    ({"indptr": [0, 2, 2]}, GraphError, "indptr, buyer indices and weights disagree"),
    ({"weights": [0.5, 0.5]}, GraphError, "indptr, buyer indices and weights disagree"),
    ({"weights": [1.5, -0.5, 1.0]}, GraphError, "all edge weights must be strictly positive"),
    ({"weights": [1.0, 0.0, 1.0]}, GraphError, "all edge weights must be strictly positive"),
    ({"buyer_idx": [0, 1, 3]}, GraphError, "buyer index out of range"),
    ({"buyer_idx": [-1, 1, 2]}, GraphError, "buyer index out of range"),
    ({"indptr": [0, 3, 3], "weights": [0.25, 0.25, 0.5]},
     GraphError, "outcome unit 's2' has no edges"),
    ({"buyer_idx": [1, 0, 2]}, GraphError, "duplicate or unsorted buyer indices in a row"),
    ({"buyer_idx": [1, 1, 2]}, GraphError, "duplicate or unsorted buyer indices in a row"),
    ({"weights": [0.5, 0.25, 1.0]}, GraphError, "row weights for 's1' sum to 0.75"),
    ({"weights": [0.5, 0.5, 1.0 + 1e-8]}, GraphError, "row weights for 's2' sum to 1.00000001"),
])
def test_invalid_csr_arrays_are_refused(change, error, message):
    """Each check of `BipartiteGraph._validate` names what is wrong with
    arrays that no build produces; the valid graph they alter passes."""
    BipartiteGraph(["a", "b", "c"], **VALID_CSR)
    with pytest.raises(error) as caught:
        BipartiteGraph(["a", "b", "c"], **{**VALID_CSR, **change})
    assert type(caught.value) is error and str(caught.value) == message
