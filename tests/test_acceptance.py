"""End-to-end acceptance suite.

Each test exercises one release gate and prints a single PASS/FAIL line
(visible with `pytest -s` or in captured output on failure). The heavier
simulation studies pin their seeds, so results are reproducible run to run.
"""

import json
import time

import numpy as np
import pytest

from bipartite_ab.cli import main
from bipartite_ab.estimators import erl_estimate, regression_estimate
from bipartite_ab.exposure import design_moments, realized_exposure
from bipartite_ab.graph import BipartiteGraph, GraphBuildConfig, build_graph
from bipartite_ab.inference import (
    PairwiseSizeError,
    bootstrap_ci,
    exposure_moment_table,
    pairwise_variance,
    randomization_ci,
)
from bipartite_ab.ingest import Variant
from bipartite_ab.simulator import (
    FixedDegree,
    SimConfig,
    experiment_panel,
    rerandomize,
    run_validation,
    sim_config_to_dict,
    simulate_experiment,
)

from conftest import (
    assignment_table,
    assignment_probability,
    csr,
    enumerate_assignments,
    make_events,
    random_sparse_graph,
    two_variant_assignments,
)
from test_estimators import make_panel


def check(num, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    print(line)
    assert ok, line


def test_01_design_moments_match_enumeration():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(4)
    for m, n in ((5, 4), (8, 6), (12, 7)):
        graph = random_sparse_graph(rng, m, n, min_deg=1, max_deg=min(m, 4))
        W = csr(graph).toarray()
        for p in (0.3, 0.5):
            assignments = two_variant_assignments(list(graph.buyers), [], p_on=p)
            e_h, var_h = design_moments(graph, assignments, "On")
            e_enum = np.zeros(n)
            m2_enum = np.zeros(n)
            for z in enumerate_assignments(m):
                prob = assignment_probability(z, p)
                h = W @ z
                e_enum += prob * h
                m2_enum += prob * h * h
            worst = max(
                worst,
                np.abs(e_h - e_enum).max(),
                np.abs(var_h - (m2_enum - e_enum**2)).max(),
            )
    elapsed = time.perf_counter() - start
    check(
        1,
        f"closed-form exposure moments vs full enumeration, m<=12 "
        f"(max abs err {worst:.2e}, {elapsed:.2f}s)",
        worst < 1e-10 and elapsed < 1.0,
    )


def test_02_three_variant_worked_example():
    # one seller; buyers in Off/A/B contribute 1, 2, 3 interactions
    buyers = ["u_off"] * 1 + ["u_a"] * 2 + ["u_b"] * 3
    events = make_events((b, "shop", "view", ts) for ts, b in enumerate(buyers))
    assignments = assignment_table(
        {"u_off": "Off", "u_a": "A", "u_b": "B"},
        [Variant("Off", 1 / 3, True), Variant("A", 1 / 3, False),
         Variant("B", 1 / 3, False)],
    )
    graph, _ = build_graph(
        events, assignments, GraphBuildConfig(kind_filter=frozenset({"view"}))
    )
    h_a = realized_exposure(graph, assignments, "A")[0]
    h_b = realized_exposure(graph, assignments, "B")[0]
    check(
        2,
        f"variant exposure shares Off:1/A:2/B:3 -> H_A={h_a:.12f}, H_B={h_b:.12f}",
        abs(h_a - 1 / 3) < 1e-12 and abs(h_b - 1 / 2) < 1e-12,
    )


def test_03_erl_unbiased_under_linear_model():
    start = time.perf_counter()
    config = SimConfig(
        m=500, n=300, degree=FixedDegree(3),
        beta_mean=1.0, beta_sd=0.25, noise_sd=1.0, seed=301,
    )
    base = simulate_experiment(config)
    taus = np.empty(2000)
    for r in range(2000):
        taus[r] = erl_estimate(experiment_panel(rerandomize(base, seed=r))).tau_hat
    mc_se = taus.std(ddof=1) / np.sqrt(taus.size)
    gap = abs(taus.mean() - base.truth.true_tau)
    elapsed = time.perf_counter() - start
    check(
        3,
        f"ERL unbiasedness over 2000 re-randomizations "
        f"(|bias|={gap:.5f} vs 3*MC-SE={3 * mc_se:.5f}, {elapsed:.0f}s)",
        gap <= 3 * mc_se and elapsed < 120,
    )


def test_04_pairwise_variance_exact_at_toy_scale():
    start = time.perf_counter()
    rng = np.random.default_rng(20240819)
    graph = random_sparse_graph(rng, 10, 6)
    alpha = rng.normal(0, 1, 6)
    beta = rng.normal(1, 0.5, 6)
    p = 0.5
    var_h = p * (1 - p) * graph.row_sumsq()
    moments = exposure_moment_table(graph, p, np.arange(6))
    W = csr(graph).toarray()
    taus, vhats = [], []
    for z in enumerate_assignments(10):
        h = W @ z
        panel = make_panel(h, alpha + beta * h, p=p, var_h=var_h)
        taus.append(erl_estimate(panel).tau_hat)
        vhats.append(pairwise_variance(panel, moments).value)
    taus, vhats = np.array(taus), np.array(vhats)
    gap = abs(vhats.mean() - taus.var())  # uniform design at p=0.5
    elapsed = time.perf_counter() - start
    check(
        4,
        f"pairwise variance estimator unbiased over all 1024 assignments "
        f"(|E[Vhat]-Var(tau)|={gap:.2e}, {elapsed:.1f}s)",
        gap < 1e-8 and elapsed < 10,
    )


COVERAGE_COMBOS = (
    ("erl", "bootstrap"),
    ("erl", "randomization"),
    ("reg", "bootstrap"),
    ("crerl", "randomization"),
)


def test_05_ci_coverage():
    start = time.perf_counter()
    reps = 1000
    hits = {combo: 0 for combo in COVERAGE_COMBOS}
    for r in range(reps):
        config = SimConfig(
            m=800, n=200, degree=FixedDegree(3),
            beta_mean=0.3, beta_sd=0.1, noise_sd=0.5, pre_corr=0.6,
            seed=400_000 + r,
        )
        exp = simulate_experiment(config)
        panel = experiment_panel(exp)
        for est, method in COVERAGE_COMBOS:
            if method == "bootstrap":
                ci = bootstrap_ci(panel, est, replications=500, seed=r)
            else:
                ci = randomization_ci(
                    panel, exp.graph, est, replications=300, seed=r,
                )
            hits[(est, method)] += ci.ci_low <= exp.truth.true_tau <= ci.ci_high
    elapsed = time.perf_counter() - start
    coverage = {c: hits[c] / reps for c in COVERAGE_COMBOS}
    ok = all(0.93 <= v <= 0.97 for v in coverage.values()) and elapsed < 1800
    detail = ", ".join(f"{e}+{m}={v:.3f}" for (e, m), v in coverage.items())
    check(5, f"95% CI coverage over {reps} experiments ({detail}, {elapsed:.0f}s)", ok)


def test_06_crerl_variance_reduction():
    config = SimConfig(
        m=500, n=200, degree=FixedDegree(3), alpha_sd=2.0,
        beta_mean=0.5, beta_sd=0.1, noise_sd=0.5, pre_corr=0.9, seed=601,
    )
    table = run_validation(
        config,
        estimator_ids=["erl", "crerl"],
        methods=["randomization"],
        sim_replications=200,
        ci_replications=300,
        seed=6,
    )
    rows = {r.estimator: r for r in table.rows}
    width_ratio = rows["crerl"].median_ci_width / rows["erl"].median_ci_width
    var_ratio = rows["crerl"].mc_sd ** 2 / rows["erl"].mc_sd ** 2
    check(
        6,
        f"CR-ERL vs ERL with pre_corr=0.9 over 200 experiments "
        f"(median width ratio {width_ratio:.3f}, MC variance ratio {var_ratio:.3f})",
        width_ratio < 1.0 and var_ratio <= 1.0,
    )


def test_07_regression_agrees_with_erl():
    diffs, erls = [], []
    for r in range(200):
        config = SimConfig(
            m=2400, n=400, degree=FixedDegree(3), alpha_sd=3.0,
            beta_mean=0.3, beta_sd=0.1, noise_sd=0.5, seed=70_000 + r,
        )
        panel = experiment_panel(simulate_experiment(config))
        t_erl = erl_estimate(panel).tau_hat
        t_reg = regression_estimate(panel).tau_hat
        erls.append(t_erl)
        diffs.append(abs(t_reg - t_erl))
    margin = 0.1 * np.std(erls, ddof=1)
    med = float(np.median(diffs))
    check(
        7,
        f"median |tau_reg - tau_erl| = {med:.5f} vs 0.1*sd(tau_erl) = {margin:.5f}",
        med <= margin,
    )


def test_08_identical_edge_pair_flagged():
    graph = BipartiteGraph(
        ["b0", "b1", "b2", "b3"],
        ["dup1", "dup2", "other"],
        [0, 2, 4, 6],
        [0, 1, 0, 1, 2, 3],
        [0.4, 0.6, 0.4, 0.6, 0.5, 0.5],
    )
    p = 0.5
    var_h = p * (1 - p) * graph.row_sumsq()
    rng = np.random.default_rng(8)
    h = csr(graph) @ rng.integers(0, 2, 4).astype(float)
    panel = make_panel(h, rng.normal(0, 1, 3), p=p, var_h=var_h)
    panel.seller_ids = list(graph.sellers)
    moments = exposure_moment_table(graph, p, np.arange(3))
    result = pairwise_variance(panel, moments)
    check(
        8,
        f"identically weighted edge pair flagged: {result.degenerate_pairs}",
        result.degenerate_pairs == [("dup1", "dup2")],
    )


def test_09_cli_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        sim_config_to_dict(SimConfig(m=200, n=120, degree=FixedDegree(3), seed=9))
    ))
    pairs = []
    for tag in ("a", "b"):
        sim_out = tmp_path / f"sim_{tag}"
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(sim_out)]) == 0
        an_out = tmp_path / f"an_{tag}"
        sim_in = tmp_path / "sim_a"  # identical inputs for both analyze runs
        assert main([
            "analyze",
            "--events", str(sim_in / "events.csv"),
            "--assignments", str(sim_in / "assignments.csv"),
            "--outcomes", str(sim_in / "outcomes.csv"),
            "--estimators", "erl,reg,crerl",
            "--methods", "bootstrap,randomization",
            "--replications", "300", "--seed", "17",
            "--out", str(an_out),
        ]) == 0
        va_out = tmp_path / f"va_{tag}"
        assert main([
            "validate", "--config", str(config_path),
            "--estimators", "erl", "--methods", "bootstrap",
            "--replications", "3", "--ci-replications", "200",
            "--out", str(va_out),
        ]) == 0
        pairs.append((sim_out, an_out, va_out))
    (sim_a, an_a, va_a), (sim_b, an_b, va_b) = pairs
    files = (
        [(sim_a / f, sim_b / f) for f in
         ("events.csv", "assignments.csv", "assignments.design.json",
          "outcomes.csv", "truth.json")]
        + [(an_a / f, an_b / f) for f in
           ("report.json", "forest.svg", "exposure_hist_view.csv",
            "exposure_hist_view.svg")]
        + [(va_a / "validation.csv", va_b / "validation.csv")]
    )
    mismatched = [a.name for a, b in files if a.read_bytes() != b.read_bytes()]
    check(
        9,
        f"byte-identical reruns for simulate/analyze/validate "
        f"({len(files)} files compared)",
        not mismatched,
    )


@pytest.mark.slow
def test_10_performance_smoke(tmp_path):
    config = SimConfig(
        m=100_000, n=50_000, degree=FixedDegree(20),
        beta_mean=0.5, beta_sd=0.1, noise_sd=1.0, seed=1001,
    )
    sim_dir = tmp_path / "big"
    exp = simulate_experiment(config, out_dir=sim_dir)
    assert len(exp.events) >= 1_000_000
    start = time.perf_counter()
    code = main([
        "analyze",
        "--events", str(sim_dir / "events.csv"),
        "--assignments", str(sim_dir / "assignments.csv"),
        "--outcomes", str(sim_dir / "outcomes.csv"),
        "--estimators", "erl", "--methods", "bootstrap",
        "--replications", "1000",
        "--out", str(tmp_path / "out"),
    ])
    elapsed = time.perf_counter() - start
    entry = json.loads((tmp_path / "out" / "report.json").read_text())["entries"][0]
    # the quadratic pairwise path must refuse to run at this scale by default
    panel = experiment_panel(exp)
    with pytest.raises(PairwiseSizeError):
        pairwise_variance(panel, None)
    check(
        10,
        f"1M-event analyze (ERL + 1000-rep bootstrap) in {elapsed:.0f}s, "
        f"quadratic path guarded",
        code == 0 and entry["status"] == "ok" and elapsed < 300,
    )
