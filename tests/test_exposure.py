import dataclasses

import numpy as np
import pytest

from bipartite_ab.exposure import (
    ExposureError,
    MissingOutcomeError,
    assemble_panel,
    design_moments,
    effective_treatment_prob,
    exposure_histogram,
    realized_exposure,
    write_exposure_histogram,
)
from bipartite_ab.graph import (
    BipartiteGraph,
    EmptyGraphError,
    GraphBuildConfig,
    build_graph,
    per_variant_subgraph,
)
from bipartite_ab import exposure
from bipartite_ab.ingest import AssignmentTable, IngestError, Variant

from conftest import (
    assert_same_graph,
    assert_same_panel,
    excluded_counts,
    assignment_table,
    assignment_probability,
    csr,
    enumerate_assignments,
    make_events,
    oracle_assemble_panel,
    oracle_build_graph,
    oracle_per_variant_subgraph,
    oracle_realized_exposure,
    outcome_table,
    random_log,
    random_sparse_graph,
    two_variant_assignments,
)

CFG = GraphBuildConfig(kind_filter=frozenset({"view"}))


def multi_variant_fixture():
    third = 1.0 / 3.0
    assignments = assignment_table(
        {"a": "Off", "b": "A", "c": "B"},
        [Variant("Off", third, control=True), Variant("A", third), Variant("B", third)],
    )
    rows = [("a", "s1", "view", 1)]
    rows += [("b", "s1", "view", t) for t in (2, 3)]
    rows += [("c", "s1", "view", t) for t in (4, 5, 6)]
    graph, _ = build_graph(make_events(rows), assignments, CFG)
    return graph, assignments


class TestRealizedExposure:
    def test_multi_variant_interaction_shares(self):
        # counts Off:1, A:2, B:3 under normalized multi-variant exposure
        graph, assignments = multi_variant_fixture()
        h_a = realized_exposure(graph, assignments, "A")
        h_b = realized_exposure(graph, assignments, "B")
        assert h_a[0] == pytest.approx(1 / 3, abs=1e-12)
        assert h_b[0] == pytest.approx(1 / 2, abs=1e-12)

    def test_multi_variant_exposures_sum_to_one(self):
        graph, assignments = multi_variant_fixture()
        total = sum(
            realized_exposure(graph, assignments, v)[0] for v in ("Off", "A", "B")
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_treated_buyer_gives_one(self):
        assignments = two_variant_assignments(["x"], ["y"])
        events = make_events([("x", "solo", "view", 1)])
        graph, _ = build_graph(events, assignments, CFG)
        assert realized_exposure(graph, assignments, "On")[0] == 1.0

    def test_all_control_gives_zero(self):
        assignments = two_variant_assignments([], ["x", "y"])
        events = make_events([("x", "s1", "view", 1), ("y", "s1", "view", 2)])
        graph, _ = build_graph(events, assignments, CFG)
        assert np.all(realized_exposure(graph, assignments, "On") == 0.0)

    def test_unknown_variant_errors(self):
        graph, assignments = multi_variant_fixture()
        with pytest.raises(IngestError):
            realized_exposure(graph, assignments, "Nope")

    def test_assignment_permutation_irrelevant(self):
        graph, assignments = multi_variant_fixture()
        reordered = AssignmentTable(
            assignments.buyers[::-1], assignments.variant[::-1], assignments.variants
        )
        assert np.array_equal(
            realized_exposure(graph, assignments, "A"),
            realized_exposure(graph, reordered, "A"),
        )


class TestDesignMoments:
    def test_single_edge_bernoulli(self):
        assignments = two_variant_assignments(["x"], ["y"])
        events = make_events([("x", "solo", "view", 1)])
        graph, _ = build_graph(events, assignments, CFG)
        e_h, var_h = design_moments(graph, assignments, "On")
        assert e_h[0] == pytest.approx(0.5, abs=1e-12)
        assert var_h[0] == pytest.approx(0.25, abs=1e-12)

    def test_weighted_row_variance_vs_enumeration(self):
        # weights (1/6, 2/6, 3/6), p = 0.5; oracle: all 2^3 assignments
        w = np.array([1 / 6, 2 / 6, 3 / 6])
        p = 0.5
        hs, probs = [], []
        for z in enumerate_assignments(3):
            hs.append(float(w @ z))
            probs.append(assignment_probability(z, p))
        hs, probs = np.array(hs), np.array(probs)
        mean = float(probs @ hs)
        var = float(probs @ (hs - mean) ** 2)
        assert var == pytest.approx(14 / 144, abs=1e-12)

        graph = BipartiteGraph(
            ["x", "y", "z"], ["s"], [0, 3], [0, 1, 2], w.tolist()
        )
        assignments = two_variant_assignments(["x"], ["y", "z"])
        e_h, var_h = design_moments(graph, assignments, "On")
        assert e_h[0] == pytest.approx(mean, abs=1e-12)
        assert var_h[0] == pytest.approx(var, abs=1e-12)

    def test_mean_is_p_for_any_row(self, rng):
        graph = random_sparse_graph(rng, 12, 8)
        assignments = two_variant_assignments(
            [f"b{i}" for i in range(0, 12, 3)],
            [f"b{i}" for i in range(12) if i % 3],
            p_on=0.25,
        )
        e_h, _ = design_moments(graph, assignments, "On")
        assert np.allclose(e_h, 0.25, atol=1e-9)

    def test_exact_enumeration_small_graph(self, rng):
        # exhaustive oracle on m <= 12 for several p values
        m, n = 8, 5
        graph = random_sparse_graph(rng, m, n)
        for p in (0.3, 0.5, 0.7):
            assignments = assignment_table(
                {f"b{i}": "On" for i in range(m)} | {"spare": "Off"},
                [Variant("Off", 1 - p, control=True), Variant("On", p)],
            )
            e_h, var_h = design_moments(graph, assignments, "On")
            W = csr(graph).toarray()
            mean = np.zeros(n)
            second = np.zeros(n)
            for z in enumerate_assignments(m):
                pr = assignment_probability(z, p)
                h = W @ z
                mean += pr * h
                second += pr * h**2
            assert np.max(np.abs(e_h - mean)) < 1e-10
            assert np.max(np.abs(var_h - (second - mean**2))) < 1e-10

    def test_monte_carlo_agreement(self, rng):
        graph = random_sparse_graph(rng, 40, 15)
        p = 0.4
        assignments = assignment_table(
            {f"b{i}": "On" for i in range(40)} | {"spare": "Off"},
            [Variant("Off", 1 - p, control=True), Variant("On", p)],
        )
        e_h, var_h = design_moments(graph, assignments, "On")
        W = csr(graph)
        R = 20_000
        Z = (rng.random((40, R)) < p).astype(float)
        H = W @ Z
        emp_mean = H.mean(axis=1)
        emp_var = H.var(axis=1, ddof=1)
        se_mean = np.sqrt(var_h / R)
        # SE of the sample variance of a bounded variable, conservative bound
        fourth = ((H - emp_mean[:, None]) ** 4).mean(axis=1)
        se_var = np.sqrt((fourth - emp_var**2) / R)
        assert np.all(np.abs(emp_mean - e_h) <= 4 * se_mean)
        assert np.all(np.abs(emp_var - var_h) <= 4 * se_var)

    def test_conditional_probability_for_subgraphs(self):
        third = 1.0 / 3.0
        assignments = assignment_table(
            {"a": "Off", "b": "A", "c": "B"},
            [
                Variant("Off", third, control=True),
                Variant("A", third),
                Variant("B", third),
            ],
        )
        p = effective_treatment_prob(assignments, "A", control="Off")
        assert p == pytest.approx(0.5, abs=1e-12)


class TestAssemblePanel:
    def make_fixture(self):
        assignments = two_variant_assignments(["x", "y"], ["u", "v"])
        rows = [
            ("x", "s1", "view", 1),
            ("u", "s1", "view", 2),
            ("y", "s2", "view", 3),
            ("v", "s3", "view", 4),
            ("x", "s4", "view", 5),
            ("y", "s5", "view", 6),
        ]
        graph, _ = build_graph(make_events(rows), assignments, CFG)
        return graph, assignments

    def test_missing_outcome_is_error_by_default(self):
        graph, assignments = self.make_fixture()
        outcomes = outcome_table(
            {s: (1.0, None) for s in graph.sellers[:-1]}, has_pre=False
        )
        with pytest.raises(MissingOutcomeError):
            assemble_panel(graph, assignments, outcomes, "On")

    def test_missing_outcome_dropped_when_allowed(self):
        graph, assignments = self.make_fixture()
        outcomes = outcome_table(
            {s: (1.0, None) for s in graph.sellers[:-1]}, has_pre=False
        )
        panel, report = assemble_panel(
            graph, assignments, outcomes, "On", allow_missing_outcomes=True
        )
        assert panel.n == graph.n_sellers - 1
        assert report.missing_outcome == 1

    def test_zero_variance_excluded(self, monkeypatch):
        graph, assignments = self.make_fixture()
        outcomes = outcome_table({s: (1.0, None) for s in graph.sellers}, has_pre=False)
        # EPS_VAR above every unit's variance forces exclusion of all units
        monkeypatch.setattr(exposure, "EPS_VAR", 1.0)
        with pytest.raises(ExposureError):
            assemble_panel(graph, assignments, outcomes, "On")

    def test_panel_aligns_with_graph_rows(self):
        graph, assignments = self.make_fixture()
        outcomes = outcome_table(
            {s: (float(i), None) for i, s in enumerate(graph.sellers)}, has_pre=False
        )
        panel, _ = assemble_panel(graph, assignments, outcomes, "On")
        h_full = realized_exposure(graph, assignments, "On")
        for k, row in enumerate(panel.graph_rows):
            assert panel.h[k] == h_full[row]
            assert panel.y_in[k] == float(row)

    def test_outcome_join_matches_per_seller_loop(self, rng, monkeypatch):
        def oracle(graph, entries, has_pre, var_h, eps_var):
            # the join as it was: one dict pass per output
            excluded, rows = [], []
            for i, seller in enumerate(graph.sellers):
                if seller not in entries:
                    excluded.append((seller, "no outcome row"))
                elif var_h[i] <= eps_var:
                    excluded.append((seller, "zero variance"))
                else:
                    rows.append(i)
            kept = [graph.sellers[i] for i in rows]
            y_in = np.array([entries[s][0] for s in kept])
            y_pre = None
            if has_pre:
                pre = [entries[s][1] for s in kept]
                y_pre = np.array([np.nan if v is None else v for v in pre])
            return excluded, rows, kept, y_in, y_pre

        buyers = [f"b{k}" for k in range(12)]
        assignments = two_variant_assignments(buyers[::2], buyers[1::2])
        compared = 0
        for _ in range(60):
            rows = [
                (str(rng.choice(buyers)), f"s{rng.integers(0, 20)}", "view", t)
                for t in range(int(rng.integers(3, 60)))
            ]
            graph, _ = build_graph(make_events(rows), assignments, CFG)
            has_pre = bool(rng.random() < 0.5)
            entries = {
                s: (float(rng.normal()),
                    float(rng.normal()) if has_pre and rng.random() < 0.7 else None)
                for s in graph.sellers
                if rng.random() < 0.8
            }
            outcomes = outcome_table(entries, has_pre)
            _, var_h = design_moments(graph, assignments, "On")
            eps_var = float(rng.choice([0.0, np.median(var_h), np.max(var_h)]))
            monkeypatch.setattr(exposure, "EPS_VAR", eps_var)
            excluded, kept_rows, kept, y_in, y_pre = oracle(
                graph, entries, has_pre, var_h, eps_var
            )
            if not kept_rows:
                with pytest.raises(ExposureError):
                    assemble_panel(graph, assignments, outcomes, "On",
                                   allow_missing_outcomes=True)
                continue
            panel, report = assemble_panel(
                graph, assignments, outcomes, "On", allow_missing_outcomes=True
            )
            assert report == excluded_counts(excluded)
            assert [graph.sellers[r] for r in panel.graph_rows] == kept
            np.testing.assert_array_equal(panel.graph_rows, kept_rows)
            np.testing.assert_array_equal(panel.y_in, y_in)
            if y_pre is None:
                assert panel.y_pre is None
            else:
                np.testing.assert_array_equal(panel.y_pre, y_pre)
            compared += 1
        assert compared >= 30


def test_coded_joins_match_string_oracles(rng):
    """Graphs index shared vocabularies by code and join each table once per
    vocabulary; the oracles join id strings through dicts. Random logs hold
    "b1" beside "b1\\x00" and unassigned buyers; outcome tables miss some
    sellers; each graph is also analyzed under a rerandomized copy of the
    table and as a hand-built graph over plain id lists."""
    cfg = GraphBuildConfig(kind_filter=frozenset({"view", "favorite"}))
    panels = 0
    for _ in range(40):
        rows, assignments = random_log(rng)
        try:
            want, _ = oracle_build_graph(rows, assignments, cfg)
        except EmptyGraphError:
            continue
        got, _ = build_graph(make_events(rows), assignments, cfg)
        assert_same_graph(got, want)
        rerandomized = dataclasses.replace(
            assignments, variant=rng.integers(0, 3, len(assignments.buyers))
        )
        has_pre = bool(rng.random() < 0.5)
        outcomes = outcome_table(
            {
                s: (float(rng.normal()), float(rng.normal()) if has_pre else None)
                for s in want.sellers + ["s0", "s1\x00", "s_extra"]
                if rng.random() < 0.8
            },
            has_pre,
        )
        hand = BipartiteGraph(
            want.buyers, want.sellers, want.indptr, want.buyer_idx, want.weights
        )
        # a hand-built graph whose buyers are partly unassigned
        loose = random_sparse_graph(rng, 30, 6)
        cases = []
        for table in (assignments, rerandomized, assignments):
            cases += [(g, w, table, None, t) for g, w in
                      ((got, want), (hand, want), (loose, loose)) for t in ("A", "B")]
            for control, treatment in (("Off", "A"), ("A", "B")):
                try:
                    want_sub = oracle_per_variant_subgraph(want, table, control, treatment)
                except EmptyGraphError:
                    with pytest.raises(EmptyGraphError):
                        per_variant_subgraph(got, table, control, treatment)
                    continue
                for g in (got, hand):
                    got_sub = per_variant_subgraph(g, table, control, treatment)
                    assert_same_graph(got_sub, want_sub)
                    cases.append((got_sub, want_sub, table, control, treatment))
        for g, w, table, control, treatment in cases:
            h = realized_exposure(g, table, treatment)
            assert h.tobytes() == oracle_realized_exposure(w, table, treatment).tobytes()
            missing = [s for s in w.sellers if s not in outcomes.sellers]
            if missing:
                with pytest.raises(MissingOutcomeError) as info:
                    assemble_panel(g, table, outcomes, treatment, control)
                assert info.value.sellers == missing
            try:
                want_panel, excluded = oracle_assemble_panel(
                    w, table, outcomes, treatment, control
                )
            except ExposureError:
                with pytest.raises(ExposureError):
                    assemble_panel(g, table, outcomes, treatment, control,
                                   allow_missing_outcomes=True)
                continue
            panel, report = assemble_panel(
                g, table, outcomes, treatment, control, allow_missing_outcomes=True
            )
            assert report == excluded_counts(excluded)
            assert_same_panel(panel, want_panel)
            panels += 1
    assert panels >= 500


class TestHistogram:
    def test_bin_edges_and_mass(self, tmp_path):
        h = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0]
        counts, edges = exposure_histogram(h, bins=50)
        assert counts.sum() == 6
        assert counts[0] == 2      # zeros
        assert counts[25] == 1     # 0.5
        assert counts[49] == 3     # ones, inclusive top bin
        path = tmp_path / "hist.csv"
        write_exposure_histogram(counts, edges, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lower,bin_upper,count"
        assert len(lines) == 51
        # every bound is a plain float, the bin edges written in order
        rows = [line.split(",") for line in lines[1:]]
        want = np.linspace(0, 1, 51)
        assert [float(lo) for lo, _, _ in rows] == want[:-1].tolist()
        assert [float(hi) for _, hi, _ in rows] == want[1:].tolist()
        assert [int(c) for _, _, c in rows] == counts.tolist()

    def test_rounding_outside_the_unit_interval_is_binned_at_its_end(self):
        # a fully treated seller's sum of weights can round to above 1
        h = np.array([14, 15, 17, 4]) / 50
        assert h.sum() > 1.0
        counts, _ = exposure_histogram([h.sum(), -1e-13, 0.5], bins=50)
        assert counts.tolist() == [1] + [0] * 24 + [1] + [0] * 23 + [1]


def tiny_control_assignments():
    """A design whose control probability vanishes beside the treatment's:
    p_t / (p_t + p_c) rounds to exactly 1."""
    return assignment_table({"a": "Off", "b": "A", "c": "B"}, [
        Variant("Off", 1e-17, control=True), Variant("A", 0.5), Variant("B", 0.5),
    ])


def two_unit_panel(**change):
    return exposure.ExposurePanel(**{
        "h": np.array([0.25, 0.75]), "e_h": np.full(2, 0.5), "var_h": np.full(2, 0.25),
        "y_in": np.ones(2), "y_pre": None, "p": 0.5, "graph_rows": np.arange(2), **change,
    })


@pytest.mark.parametrize("make, message", [
    (lambda: effective_treatment_prob(two_variant_assignments(["a"], ["b"]), "On", "On"),
     "control and treatment must differ"),
    (lambda: effective_treatment_prob(tiny_control_assignments(), "A", "Off"),
     "treatment probability 1.0 outside (0,1)"),
    (lambda: two_unit_panel(e_h=np.full(3, 0.5)), "panel vector e_h has wrong length"),
    (lambda: two_unit_panel(var_h=np.full(1, 0.25)), "panel vector var_h has wrong length"),
    (lambda: two_unit_panel(y_in=np.ones(3)), "panel vector y_in has wrong length"),
    (lambda: two_unit_panel(y_pre=np.ones(1)), "panel vector y_pre has wrong length"),
    (lambda: two_unit_panel(graph_rows=np.arange(1)),
     "panel vector graph_rows has wrong length"),
    (lambda: two_unit_panel(h=np.array([0.25, 1.0 + 1e-9])), "exposure outside [0,1]"),
    (lambda: two_unit_panel(h=np.array([-1e-9, 0.75])), "exposure outside [0,1]"),
])
def test_invalid_probabilities_and_panels_are_refused(make, message):
    """The checks of `effective_treatment_prob` and `ExposurePanel` that no
    assembled panel reaches raise ExposureError with their message; h may
    leave [0, 1] by rounding only, up to 1e-12."""
    two_unit_panel(h=np.array([-1e-13, 1.0 + 1e-13]))
    with pytest.raises(ExposureError) as caught:
        make()
    assert type(caught.value) is ExposureError and str(caught.value) == message
