import itertools
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.special import ndtri
from scipy.stats import norm

from bipartite_ab import inference
from bipartite_ab.estimators import (
    EPS_COVARIATE_VAR,
    CollinearDesignError,
    EstimationError,
    crerl_estimate,
    erl_estimate,
    exposure_weights,
    point_estimate,
)
from bipartite_ab.exposure import ExposurePanel, assemble_panel, effective_treatment_prob
from bipartite_ab.graph import (
    BipartiteGraph,
    GraphBuildConfig,
    build_graph,
    per_variant_subgraph,
)
from bipartite_ab.ingest import parse_assignments, parse_events, parse_outcomes
from bipartite_ab.inference import (
    BootstrapFailureError,
    InferenceError,
    PairwiseSizeError,
    bootstrap_ci,
    exposure_moment_table,
    pairwise_variance,
    pairwise_variance_ci,
    randomization_ci,
)
from bipartite_ab.simulator import (
    FixedDegree,
    SimConfig,
    ZipfDegree,
    experiment_panel,
    simulate_experiment,
)

from conftest import (
    outcome_table,
    assignment_probability,
    csr,
    diag_weighting,
    enumerate_assignments,
    graph_row,
    random_sparse_graph,
    raw_moments,
    two_variant_assignments,
    unit_variance_terms,
)
from test_estimators import make_panel, simulated_panel

FIXTURE = Path(__file__).parent / "data" / "analyze3"


class TestBootstrap:
    def test_constant_outcome_regression_ci_collapses(self):
        h = np.linspace(0.1, 0.9, 20)
        panel = make_panel(h, np.full(20, 3.0))
        ci = bootstrap_ci(panel, "reg", replications=300, seed=1)
        assert ci.ci_low == pytest.approx(0.0, abs=1e-10)
        assert ci.ci_high == pytest.approx(0.0, abs=1e-10)

    def test_seed_determinism(self, rng):
        exp = simulate_experiment(SimConfig(m=100, n=60, seed=5))
        panel = experiment_panel(exp)
        a = bootstrap_ci(panel, "erl", replications=1000, seed=99)
        b = bootstrap_ci(panel, "erl", replications=1000, seed=99)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
        c = bootstrap_ci(panel, "erl", replications=1000, seed=100)
        assert (a.ci_low, a.ci_high) != (c.ci_low, c.ci_high)

    def test_min_replications_enforced(self, rng):
        panel = make_panel(np.linspace(0, 1, 10), np.arange(10.0))
        with pytest.raises(InferenceError, match="200"):
            bootstrap_ci(panel, "erl", replications=100, seed=0)

    def test_quantiles_nest_with_level(self, rng):
        exp = simulate_experiment(SimConfig(m=100, n=60, seed=6))
        panel = experiment_panel(exp)
        ci95 = bootstrap_ci(panel, "erl", replications=500, seed=3, level=0.95)
        ci99 = bootstrap_ci(panel, "erl", replications=500, seed=3, level=0.99)
        assert ci99.width >= ci95.width

    def test_failure_tally(self):
        # n=3 panel: ~1/9 of replicates draw one row thrice (constant h)
        panel = make_panel(np.array([0.1, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(BootstrapFailureError, match="/300"):
            bootstrap_ci(panel, "reg", replications=300, seed=0)

    def test_coverage_on_simulated_experiments(self):
        # oracle: simulator ground truth; binomial band around 95% nominal
        covered = 0
        reps = 200
        for r in range(reps):
            exp = simulate_experiment(
                SimConfig(
                    m=600, n=150, degree=FixedDegree(3),
                    beta_mean=0.3, beta_sd=0.1, noise_sd=1.0, seed=1000 + r,
                )
            )
            panel = experiment_panel(exp)
            ci = bootstrap_ci(panel, "erl", replications=400, seed=r)
            covered += ci.ci_low <= exp.truth.true_tau <= ci.ci_high
        assert 0.90 <= covered / reps <= 0.99


class TestRandomization:
    def test_single_buyer_sellers_match_closed_form(self, rng):
        # every seller has one buyer: H is Bernoulli(p) per draw
        m = 40
        assignments = two_variant_assignments(
            [f"b{i}" for i in range(0, m, 2)], [f"b{i}" for i in range(1, m, 2)]
        )
        graph = BipartiteGraph(
            [f"b{i}" for i in range(m)],
            [f"s{i}" for i in range(m)],
            np.arange(m + 1),
            np.arange(m),
            np.ones(m),
        )
        outcomes = outcome_table(
            {f"s{i}": (1.0, None) for i in range(m)}, has_pre=False
        )
        panel, _ = assemble_panel(graph, assignments, outcomes, "On")
        ci = randomization_ci(panel, graph, "erl", replications=4000, seed=11)
        # tau draws are means of Y * (B - p)/(p(1-p)) with B ~ Bernoulli(1/2);
        # each term has sd 1/sqrt(p(1-p)) = 2, so sd(tau) = 2/sqrt(m)
        expected_sd = 2.0 / np.sqrt(m)
        from scipy.stats import norm

        observed_sd = ci.width / (2 * norm.ppf(0.975))
        se = expected_sd / np.sqrt(2 * 4000)  # sd-of-sd approximation
        assert abs(observed_sd - expected_sd) <= 4 * se

    def test_seed_determinism(self):
        exp = simulate_experiment(SimConfig(m=80, n=50, seed=2))
        panel = experiment_panel(exp)
        a = randomization_ci(panel, exp.graph, "erl", replications=300, seed=4)
        b = randomization_ci(panel, exp.graph, "erl", replications=300, seed=4)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_width_agreement_with_bootstrap(self):
        # the two resampling methods should produce similar interval widths
        ratios = []
        for r in range(100):
            exp = simulate_experiment(
                SimConfig(
                    m=600, n=150, degree=FixedDegree(3),
                    beta_mean=0.3, beta_sd=0.1, noise_sd=1.0, seed=4000 + r,
                )
            )
            panel = experiment_panel(exp)
            b = bootstrap_ci(panel, "erl", replications=400, seed=r)
            k = randomization_ci(panel, exp.graph, "erl", replications=400, seed=r)
            ratios.append(k.width / b.width)
        assert abs(np.median(ratios) - 1.0) <= 0.15

    def test_crerl_uses_fitted_lambda(self):
        exp = simulate_experiment(SimConfig(m=80, n=50, pre_corr=0.9, seed=3))
        ci = randomization_ci(
            experiment_panel(exp), exp.graph, "crerl", replications=300, seed=5
        )
        assert ci.point.lam is not None
        assert ci.point.estimator == "crerl"


class TestPairwiseVariance:
    def build_enumeration_fixture(self, rng, m=10, n=6, p=0.5):
        graph = random_sparse_graph(rng, m, n)
        alpha = rng.normal(0, 1, n)
        beta = rng.normal(1, 0.5, n)
        var_h = p * (1 - p) * graph.row_sumsq()
        moments = exposure_moment_table(graph, p, np.arange(n))
        return graph, alpha, beta, var_h, moments

    def enumerate_v(self, graph, alpha, beta, var_h, moments, p=0.5):
        W = csr(graph).toarray()
        n = graph.n_sellers
        taus, vhats, probs = [], [], []
        for z in enumerate_assignments(graph.n_buyers):
            h = W @ z
            y = alpha + beta * h
            panel = make_panel(h, y, p=p, var_h=var_h)
            taus.append(erl_estimate(panel).tau_hat)
            vhats.append(pairwise_variance(panel, moments).value)
            probs.append(assignment_probability(z, p))
        taus, vhats, probs = map(np.array, (taus, vhats, probs))
        mean = probs @ taus
        true_var = probs @ (taus - mean) ** 2
        return probs @ vhats, true_var

    def test_unbiased_on_enumerable_fixture(self, rng):
        graph, alpha, beta, var_h, moments = self.build_enumeration_fixture(rng)
        e_vhat, true_var = self.enumerate_v(graph, alpha, beta, var_h, moments)
        assert abs(e_vhat - true_var) < 1e-8

    def test_unbiased_at_p_not_half(self, rng):
        p = 0.3
        graph = random_sparse_graph(rng, 8, 5)
        alpha = rng.normal(0, 1, 5)
        beta = rng.normal(1, 0.5, 5)
        var_h = p * (1 - p) * graph.row_sumsq()
        moments = exposure_moment_table(graph, p, np.arange(5))
        e_vhat, true_var = self.enumerate_v(graph, alpha, beta, var_h, moments, p=p)
        assert abs(e_vhat - true_var) < 1e-8

    def test_disjoint_units_reduce_to_per_unit_terms(self, rng):
        # sellers with disjoint buyer sets: cross terms vanish identically
        m, n, p = 12, 4, 0.5
        indptr, bidx, wts = [0], [], []
        for i in range(n):
            cols = [3 * i, 3 * i + 1, 3 * i + 2]
            raw = rng.random(3) + 0.3
            raw /= raw.sum()
            bidx += cols
            wts += raw.tolist()
            indptr.append(len(bidx))
        graph = BipartiteGraph(
            [f"b{i}" for i in range(m)], [f"s{i}" for i in range(n)],
            indptr, bidx, wts,
        )
        var_h = p * (1 - p) * graph.row_sumsq()
        moments = exposure_moment_table(graph, p, np.arange(n))
        assert len(moments.pairs) == 0  # no overlapping neighborhoods
        h = csr(graph) @ (rng.random(m) < p).astype(float)
        y = rng.normal(0, 1, n)
        panel = make_panel(h, y, p=p, var_h=var_h)
        pv = pairwise_variance(panel, moments)
        per_unit = unit_variance_terms(panel, moments)
        assert pv.value == pytest.approx(per_unit.sum() / n**2, rel=1e-12)

    @staticmethod
    def merged_by_hand(graph, panel, p):
        """(sum of unit terms + 2 sd_1 sd_2) / n^2 for a panel over every
        seller of `graph` whose first two sellers form the one degenerate
        pair, from per-buyer moments and one unit at a time."""
        terms = np.empty(panel.n)
        for i in range(panel.n):
            (a, b, c), _ = diag_weighting(oracle_uni_moments(graph_row(graph, i)[1], p))
            h = panel.h[i]
            terms[i] = panel.y_in[i] ** 2 * (a * h * h + b * h + c)
        sd = np.sqrt(np.maximum(terms, 0.0))
        return (terms.sum() + 2.0 * sd[0] * sd[1]) / panel.n**2

    def test_identical_edges_flagged(self, rng):
        # two sellers with identically weighted edges -> det(Sigma) = 0
        w = [0.4, 0.6]
        graph = BipartiteGraph(
            ["b0", "b1", "b2"], ["dup1", "dup2", "other"],
            [0, 2, 4, 5], [0, 1, 0, 1, 2], w + w + [1.0],
        )
        p = 0.5
        var_h = p * (1 - p) * graph.row_sumsq()
        moments = exposure_moment_table(graph, p, np.arange(3))
        h = csr(graph) @ np.array([1.0, 0.0, 1.0])
        panel = make_panel(h, np.array([1.0, 2.0, 3.0]), p=p, var_h=var_h)
        pv = pairwise_variance(panel, moments)
        assert pv.degenerate_pairs.tolist() == [[0, 1]]  # dup1, dup2
        assert pv.degenerate_units.tolist() == [2]  # other
        assert pv.n_pairs_evaluated == 0
        assert pv.value == pytest.approx(self.merged_by_hand(graph, panel, p), rel=1e-12)

    def test_merge_policy_is_conservative(self, rng):
        # the degenerate pair adds exactly 2 sd_1 sd_2, a nonnegative bound
        w = [0.5, 0.5]
        graph = BipartiteGraph(
            ["b0", "b1"], ["dup1", "dup2"], [0, 2, 4], [0, 1, 0, 1], w + w
        )
        p = 0.5
        var_h = p * (1 - p) * graph.row_sumsq()
        moments = exposure_moment_table(graph, p, np.arange(2))
        h = csr(graph) @ np.array([1.0, 0.0])
        panel = make_panel(h, np.array([2.0, -1.0]), p=p, var_h=var_h)
        merged = pairwise_variance(panel, moments)
        assert merged.degenerate_pairs.tolist() == [[0, 1]]
        want = self.merged_by_hand(graph, panel, p)
        assert merged.value == pytest.approx(want, rel=1e-12)
        assert merged.value >= unit_variance_terms(panel, moments).sum() / panel.n**2

    def test_size_guard(self, rng, monkeypatch):
        n = 10
        graph = random_sparse_graph(rng, 30, n)
        p = 0.5
        var_h = p * (1 - p) * graph.row_sumsq()
        moments = exposure_moment_table(graph, p, np.arange(n))
        h = csr(graph) @ (rng.random(30) < p).astype(float)
        panel = make_panel(h, rng.normal(size=n), p=p, var_h=var_h)
        assert np.isfinite(pairwise_variance(panel, moments).value)
        monkeypatch.setattr(inference, "PAIRWISE_N_MAX", 5)
        with pytest.raises(PairwiseSizeError, match="bootstrap"):
            pairwise_variance(panel, moments)


# --- per-buyer and per-pair oracles for the closed-form moment table ------


def oracle_uni_moments(weights, p):
    """E[(sum_r w_r Z_r)^k], k = 0..4, by per-buyer accumulation."""
    mu = np.zeros(5)
    mu[0] = 1.0
    binom = [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1], [1, 4, 6, 4, 1]]
    for u in weights:
        upow = [1.0, u, u * u, u**3, u**4]
        new = np.zeros(5)
        for k in range(5):
            acc = mu[k]  # j = 0 term, E[Z^0] = 1
            for j in range(1, k + 1):
                acc += binom[k][j] * upow[j] * p * mu[k - j]
            new[k] = acc
        mu = new
    return mu


def oracle_pair_moments(u, v, p):
    """T[a, b] = E[H_i^a H_j^b], a, b <= 2, over shared Bernoulli draws."""
    T = np.zeros((3, 3))
    T[0, 0] = 1.0
    binom = [[1], [1, 1], [1, 2, 1]]
    for ur, vr in zip(u, v):
        upow = [1.0, ur, ur * ur]
        vpow = [1.0, vr, vr * vr]
        new = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                acc = 0.0
                for k in range(a + 1):
                    for l in range(b + 1):
                        ez = 1.0 if k + l == 0 else p
                        acc += (
                            binom[a][k] * binom[b][l] * upow[k] * vpow[l] * ez
                            * T[a - k, b - l]
                        )
                new[a, b] = acc
        T = new
    return T


def oracle_moment_table(graph, p, rows):
    """(uni, {(i, j): T}) over the buyer support of each unit and the union
    of supports of each overlapping pair, pairs in (i, j) order."""
    supports = []
    uni = np.empty((len(rows), 5))
    for k, i in enumerate(rows):
        idx, w = graph_row(graph, int(i))
        uni[k] = oracle_uni_moments(w, p)
        supports.append(dict(zip(idx.tolist(), w.tolist())))
    buyer_to_units = {}
    for k, sup in enumerate(supports):
        for b in sup:
            buyer_to_units.setdefault(b, []).append(k)
    overlapping = set()
    for units in buyer_to_units.values():
        for a, b in itertools.combinations(units, 2):
            overlapping.add((a, b) if a < b else (b, a))
    pairs = {}
    for i, j in sorted(overlapping):
        union = sorted(set(supports[i]) | set(supports[j]))
        u = np.array([supports[i].get(b, 0.0) for b in union])
        v = np.array([supports[j].get(b, 0.0) for b in union])
        pairs[(i, j)] = oracle_pair_moments(u, v, p)
    return uni, pairs


def oracle_pair_weighting(T, mi, mj, vi, vj):
    gs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    bs = [(1, 1), (1, 0), (0, 1), (0, 0)]
    M = np.array([[T[g[0] + b[0], g[1] + b[1]] for b in bs] for g in gs])
    denom = vi * vj
    cov_ww = (T[1, 1] - mi * mj) / denom
    cov_w_hw = (T[1, 2] - mj * T[1, 1] - mi * T[0, 2] + mi * mj * T[0, 1]) / denom
    cov_hw_w = (T[2, 1] - mi * T[1, 1] - mj * T[2, 0] + mi * mj * T[1, 0]) / denom
    cov_hw_hw = (T[2, 2] - mi * T[1, 2] - mj * T[2, 1] + mi * mj * T[1, 1]) / denom - 1.0
    rhs = np.array([cov_ww, cov_w_hw, cov_hw_w, cov_hw_hw])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol


def assert_same_positions(pv, pairs, units):
    """`pv`'s degenerate pairs, an int64 (k, 2) array, and degenerate units,
    an int64 array, hold the panel positions `pairs` and `units`, in order."""
    got_pairs, got_units = pv.degenerate_pairs, pv.degenerate_units
    assert (got_pairs.dtype, got_pairs.shape) == (np.int64, (len(pairs), 2))
    assert (got_units.dtype, got_units.ndim) == (np.int64, 1)
    assert got_pairs.tolist() == np.reshape(pairs, (-1, 2)).tolist()
    assert got_units.tolist() == np.asarray(units).tolist()


def oracle_pairwise_variance(panel, uni, pairs, eps_det=1e-12):
    """The unit-by-unit, pair-by-pair moment-matching loop, a degenerate
    pair adding 2 sd_i sd_j: (value, n_pairs_evaluated, degenerate_pairs,
    degenerate_units), the last two as lists of panel positions."""
    n = panel.n
    y, h = panel.y_in, panel.h
    diag_vals = np.empty(n)
    degenerate_units = []
    for i in range(n):
        (a, b, c), singular = diag_weighting(uni[i])
        if singular:
            degenerate_units.append(i)
        diag_vals[i] = y[i] * y[i] * (a * h[i] * h[i] + b * h[i] + c)
    total = float(np.sum(diag_vals))
    unit_sd = np.sqrt(np.maximum(diag_vals, 0.0))
    degenerate = []
    evaluated = 0
    for (i, j), T in pairs.items():
        mi, mj = uni[i, 1], uni[j, 1]
        vi = uni[i, 2] - mi * mi
        vj = uni[j, 2] - mj * mj
        cov = T[1, 1] - mi * mj
        det = vi * vj - cov * cov
        sol = oracle_pair_weighting(T, mi, mj, vi, vj) if det > eps_det else None
        if sol is None:
            degenerate.append((i, j))
            total += 2.0 * unit_sd[i] * unit_sd[j]
            continue
        a, b, c, d = sol
        total += 2.0 * y[i] * y[j] * (a * h[i] * h[j] + b * h[i] + c * h[j] + d)
        evaluated += 1
    return total / (n * n), evaluated, degenerate, degenerate_units


def random_degenerate_graph(rng, m, n):
    """Random row-normalized graph in which some sellers have one buyer
    (degenerate units) and some copy another seller's weighted edges
    (degenerate pairs)."""
    rows = []
    for _ in range(n):
        r = rng.random()
        if rows and r < 0.15:
            rows.append(rows[int(rng.integers(len(rows)))])
            continue
        d = 1 if r < 0.3 else int(rng.integers(2, 5))
        cols = np.sort(rng.choice(m, size=d, replace=False))
        raw = rng.random(d) + 0.2
        rows.append((cols, raw / raw.sum()))
    return graph_of_rows(rows, m)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_closed_form_table_and_variance_match_recursions(p):
    """The cumulant table and the closed-form weightings agree with the
    per-buyer recursions and the unit-by-unit, pair-by-pair solves on 40
    random graphs per p, with panels over a shuffled strict subset of the
    sellers."""
    seen_units = seen_pairs = 0
    for seed in range(40):
        rng = np.random.default_rng([int(p * 10), seed])
        m, n = int(rng.integers(6, 16)), int(rng.integers(5, 14))
        graph = random_degenerate_graph(rng, m, n)
        rows = rng.permutation(n)[: int(rng.integers(3, n))]
        table = exposure_moment_table(graph, p, rows)
        uni, pairs = oracle_moment_table(graph, p, rows)
        mu = uni.T
        cumulants = (
            mu[1],
            mu[2] - mu[1] ** 2,
            mu[3] - 3 * mu[2] * mu[1] + 2 * mu[1] ** 3,
            mu[4] - 4 * mu[3] * mu[1] - 3 * mu[2] ** 2 + 12 * mu[2] * mu[1] ** 2 - 6 * mu[1] ** 4,
        )
        for got, want in zip((table.mean, table.var, table.k3, table.k4), cumulants):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert list(zip(table.pair_i.tolist(), table.pair_j.tolist())) == list(pairs)
        np.testing.assert_allclose(
            table.pairs, np.array(list(pairs.values())).reshape(-1, 3, 3),
            rtol=0, atol=1e-10,
        )

        h = (csr(graph) @ (rng.random(m) < p).astype(float))[rows]
        var_h = p * (1 - p) * graph.row_sumsq()[rows]
        panel = make_panel(h, rng.normal(1.0, 2.0, len(rows)), p=p, var_h=var_h)
        pv = pairwise_variance(panel, table)
        value, evaluated, degenerate, degenerate_units = oracle_pairwise_variance(
            panel, uni, pairs
        )
        assert pv.value == pytest.approx(value, rel=1e-10, abs=1e-10)
        assert pv.n_pairs_evaluated == evaluated
        assert_same_positions(pv, degenerate, degenerate_units)
        seen_units += bool(degenerate_units)
        seen_pairs += bool(degenerate)
    # the generator must exercise both degeneracies
    assert seen_units >= 5 and seen_pairs >= 5


@pytest.mark.parametrize("treated", [0.0, 1.0])
def test_all_degenerate_star_matches_recursions(treated):
    """Every seller's only edge goes to the same buyer, so every unit and
    every pair is degenerate: the positions are the oracle's, and the value
    is the oracle's and, bit for bit, the one recorded when degenerate pairs
    were listed as id tuples."""
    n, p = 60, 0.5
    graph = graph_of_rows([(np.array([0]), np.array([1.0]))] * n, 1)
    rows = np.random.default_rng(5).permutation(n)
    table = exposure_moment_table(graph, p, rows)
    h = graph.times(np.array([treated]))[rows]
    y = np.random.default_rng(3000).normal(1.0, 2.0, n)
    panel = make_panel(h, y, p=p, var_h=p * (1 - p) * graph.row_sumsq()[rows])
    pv = pairwise_variance(panel, table)
    value, evaluated, degenerate, degenerate_units = oracle_pairwise_variance(
        panel, *oracle_moment_table(graph, p, rows)
    )
    assert pv.n_pairs_evaluated == evaluated == 0
    assert degenerate_units == list(range(n)) and len(degenerate) == n * (n - 1) // 2
    assert_same_positions(pv, degenerate, degenerate_units)
    assert pv.value == pytest.approx(value, rel=1e-10)
    assert pv.value.hex() == {0.0: "0x1.880a0e3d5103cp+3", 1.0: "0x1.d672777cc79e0p+2"}[treated]


# --- the numpy moment table against the scipy table it replaced -----------


def scipy_moment_table(graph, p, rows):
    """exposure_moment_table as it was built from scipy.sparse row sums and
    products W W', W2 W' and W2 W2', with every pair's 3x3 table T built
    at once, kept as the reference the numpy table must equal bit for bit:
    a namespace of the table's fields and `pairs`."""
    import scipy.sparse as sp

    k = inference._bernoulli_cumulants(p)
    W = csr(graph)[np.asarray(rows)]
    W2 = W.multiply(W).tocsr()
    c1, c2, c3, c4 = (
        k[r] * np.asarray(W.power(r).sum(axis=1)).ravel() for r in range(1, 5)
    )
    uni = np.column_stack([np.ones_like(c1), c1, c2 + c1**2])
    S11 = sp.triu(W @ W.T, k=1, format="csr")
    S11.sort_indices()
    i = np.repeat(np.arange(W.shape[0]), np.diff(S11.indptr))
    j = S11.indices.astype(np.int64)

    def shared(A, B):
        return np.asarray((A @ B.T)[i, j]).ravel()

    k11 = k[2] * S11.data
    k12 = k[3] * shared(W, W2)
    k21 = k[3] * shared(W2, W)
    k22 = k[4] * shared(W2, W2)
    x1, x2, y1, y2 = c1[i], c2[i], c1[j], c2[j]
    T = np.empty((len(i), 3, 3))
    T[:, :, 0] = uni[i]
    T[:, 0, :] = uni[j]
    T[:, 1, 1] = k11 + x1 * y1
    T[:, 2, 1] = k21 + 2 * k11 * x1 + x2 * y1 + x1**2 * y1
    T[:, 1, 2] = k12 + 2 * k11 * y1 + y2 * x1 + x1 * y1**2
    T[:, 2, 2] = (
        k22 + 2 * k21 * y1 + 2 * k12 * x1 + x2 * y2 + 2 * k11**2
        + x2 * y1**2 + y2 * x1**2 + 4 * k11 * x1 * y1 + x1**2 * y1**2
    )
    return SimpleNamespace(mean=c1, var=c2, k3=c3, k4=c4, pair_i=i, pair_j=j,
                           k11=k11, k12=k12, k21=k21, k22=k22, pairs=T)


def graph_of_rows(rows, m):
    """BipartiteGraph over buyers 0..m-1 with one seller per (buyer indices,
    weights) row."""
    return BipartiteGraph(
        [f"b{i}" for i in range(m)],
        [f"s{i}" for i in range(len(rows))],
        np.cumsum([0] + [len(c) for c, _ in rows]),
        np.concatenate([c for c, _ in rows]),
        np.concatenate([w for _, w in rows]),
    )


def random_dense_rows(rng, m, n, degrees):
    """n rows of random degree in `degrees` over m buyers, with raw weights
    in [0.1, 1.1) normalized; a small m makes every buyer shared by many."""
    rows = []
    for _ in range(n):
        cols = np.sort(rng.choice(m, size=int(rng.choice(degrees)), replace=False))
        raw = rng.random(len(cols)) + 0.1
        rows.append((cols, raw / raw.sum()))
    return rows


def moment_table_cases():
    """(name, graph, p, rows) for the numpy-against-scipy table test."""
    rng = np.random.default_rng(2024)
    for seed in range(6):
        # rows of degree 9..20 over 40 buyers: each buyer has ~40 sellers
        graph = graph_of_rows(random_dense_rows(rng, 40, 120, range(9, 21)), 40)
        yield f"dense{seed}", graph, (0.3, 0.5, 0.7)[seed % 3], np.arange(120)
        # a permuted strict subset of the rows as the panel
        rows = rng.permutation(120)[: int(rng.integers(20, 100))]
        yield f"subset{seed}", graph, 0.4, rows
    # single-edge rows, some sharing their buyer, beside wider rows
    single = [(np.array([b]), np.array([1.0])) for b in rng.integers(0, 6, 30)]
    graph = graph_of_rows(single + random_dense_rows(rng, 12, 20, range(1, 5)), 12)
    yield "single", graph, 0.5, rng.permutation(50)
    # a star: 1000 sellers share buyer 0 and each has two buyers of its own
    n = 1000
    star = [(np.array([0, 2 * i + 1, 2 * i + 2]), np.array([0.5, 0.25, 0.25]))
            for i in range(n)]
    yield "star", graph_of_rows(star, 2 * n + 1), 0.5, np.arange(n)
    for k, (panel, graph) in enumerate(fixture_panels(FIXTURE / "outcomes.csv")):
        yield f"analyze3-{k}", graph, panel.p, panel.graph_rows


def test_moment_table_matches_scipy_table():
    """The numpy table equals the scipy table bit for bit, in every field
    and dtype: dense rows whose buyers many sellers share, permuted subset
    panels, single-edge rows, a 1000-seller star and the fixture panels."""
    for name, graph, p, rows in moment_table_cases():
        got, want = exposure_moment_table(graph, p, rows), scipy_moment_table(graph, p, rows)
        for field in ("mean", "var", "k3", "k4", "pair_i", "pair_j", "k11", "k12", "k21", "k22",
                      "pairs"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.shape, a.dtype) == (b.shape, b.dtype), (name, field)
            assert a.tobytes() == b.tobytes(), (name, field)
        assert len(got.pairs) > 0, name


def test_pairwise_variance_does_not_depend_on_block_size(monkeypatch):
    """Blocks of one, two and three pairs give the PairwiseVariance of the
    default block: the same value bit for bit, the same number of pairs
    evaluated, and the same degenerate pairs and units, in order."""
    seen = 0
    for seed in range(12):
        rng = np.random.default_rng([7, seed])
        m, n, p = int(rng.integers(6, 16)), int(rng.integers(8, 16)), 0.5
        graph = random_degenerate_graph(rng, m, n)
        rows = rng.permutation(n)
        table = exposure_moment_table(graph, p, rows)
        h = graph.times((rng.random(m) < p).astype(float))[rows]
        var_h = p * (1 - p) * graph.row_sumsq()[rows]
        panel = make_panel(h, rng.normal(1.0, 2.0, n), p=p, var_h=var_h)
        want = pairwise_variance(panel, table)
        assert len(table.pairs) > 3
        for pairs in (1, 2, 3):
            monkeypatch.setattr(inference, "PAIR_BLOCK_BYTES", pairs * 8 * 16)
            got = pairwise_variance(panel, table)
            assert (got.value, got.n_pairs_evaluated) == (want.value, want.n_pairs_evaluated)
            assert_same_positions(got, want.degenerate_pairs, want.degenerate_units)
        monkeypatch.undo()
        seen += bool(len(want.degenerate_pairs))
    assert seen >= 3


# --- the closed-form weightings against the solves they replaced ---------


COND_MAX = 1e12


def _solve_where(M: np.ndarray, rhs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Solve M[t] x = rhs[t] for every t in `mask` as one batch; NaN for the
    others and for systems that are exactly singular."""
    sol = np.full(rhs.shape, np.nan)
    if not mask.any():
        return sol
    try:
        sol[mask] = np.linalg.solve(M[mask], rhs[mask][..., None])[..., 0]
    except np.linalg.LinAlgError:
        # a singular system fails the whole batch: redo it one at a time
        for t in np.flatnonzero(mask):
            try:
                sol[t] = np.linalg.solve(M[t], rhs[t])
            except np.linalg.LinAlgError:
                pass
    return sol


def _diag_system(uni: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per unit, the system for R(H) = a H^2 + b H + c with E[H^g R]
    matching the variance terms of Y W for g = 0, 1, 2."""
    m1 = uni[:, 1]
    v = uni[:, 2] - m1**2
    # row g is E[H^g (H^2, H, 1)]
    M = np.stack([uni[:, 2::-1], uni[:, 3:0:-1], uni[:, 4:1:-1]], axis=1)
    e_h_c2 = uni[:, 3] - 2 * m1 * uni[:, 2] + m1**2 * uni[:, 1]  # E[H (H-m)^2]
    e_h2_c2 = uni[:, 4] - 2 * m1 * uni[:, 3] + m1**2 * uni[:, 2]  # E[H^2 (H-m)^2]
    rhs = np.column_stack([1.0 / v, e_h_c2 / v**2, e_h2_c2 / v**2 - 1.0])
    return M, rhs


# R(H_i, H_j) = a H_i H_j + b H_i + c H_j + d is matched against
# g in (1, H_j, H_i, H_i H_j): entry (g, b) of the system is
# E[g basis_b] = T[g_i + b_i, g_j + b_j] with the exponent pairs below.
_PAIR_G = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
_PAIR_B = np.array([(1, 1), (1, 0), (0, 1), (0, 0)])


def _pair_system(T, mi, mj, vi, vj):
    """Per pair, the system whose solution matches the covariance terms of
    (Y_i W_i, Y_j W_j)."""
    M = T[
        :,
        _PAIR_G[:, None, 0] + _PAIR_B[None, :, 0],
        _PAIR_G[:, None, 1] + _PAIR_B[None, :, 1],
    ]
    denom = vi * vj
    rhs = np.column_stack(
        [
            (T[:, 1, 1] - mi * mj) / denom,
            (T[:, 1, 2] - mj * T[:, 1, 1] - mi * T[:, 0, 2] + mi * mj * T[:, 0, 1])
            / denom,
            (T[:, 2, 1] - mi * T[:, 1, 1] - mj * T[:, 2, 0] + mi * mj * T[:, 1, 0])
            / denom,
            (T[:, 2, 2] - mi * T[:, 1, 2] - mj * T[:, 2, 1] + mi * mj * T[:, 1, 1])
            / denom
            - 1.0,
        ]
    )
    return M, rhs


def solved_pairwise_variance(panel, table):
    """pairwise_variance as it was computed before the closed forms: one 3x3
    system per unit in the raw moments E[H^0..4], solved in one batch when
    its condition number is below COND_MAX and by least squares (listing
    the unit as degenerate) otherwise, and one 4x4 system per overlapping
    pair, built from its 3x3 table T and solved in one batch; (value,
    n_pairs_evaluated, degenerate_pairs, degenerate_units), the last two as
    arrays of panel positions."""
    uni, y, h = raw_moments(table), panel.y_in, panel.h
    M, rhs = _diag_system(uni)
    regular = np.linalg.cond(M) < COND_MAX
    coef = _solve_where(M, rhs, regular)
    regular &= np.isfinite(coef).all(axis=1)
    singular = np.flatnonzero(~regular)
    for t in singular:
        coef[t] = np.linalg.lstsq(M[t], rhs[t], rcond=None)[0]
    diag = y * y * (coef[:, 0] * h * h + coef[:, 1] * h + coef[:, 2])
    unit_sd = np.sqrt(np.maximum(diag, 0.0))

    i, j, T = table.pair_i, table.pair_j, table.pairs
    mi, mj = uni[i, 1], uni[j, 1]
    vi, vj = uni[i, 2] - mi * mi, uni[j, 2] - mj * mj
    cov = T[:, 1, 1] - mi * mj
    M, rhs = _pair_system(T, mi, mj, vi, vj)
    ok = vi * vj - cov * cov > inference.EPS_DET
    coef = _solve_where(M, rhs, ok)
    ok &= np.isfinite(coef).all(axis=1)
    hi, hj = h[i], h[j]
    matched = 2.0 * y[i] * y[j] * (
        coef[:, 0] * hi * hj + coef[:, 1] * hi + coef[:, 2] * hj + coef[:, 3]
    )
    terms = np.where(ok, matched, 2.0 * unit_sd[i] * unit_sd[j])
    n = panel.n
    return (float(diag.sum() + terms.sum()) / (n * n), int(ok.sum()),
            np.column_stack((i[~ok], j[~ok])), singular)


def closed_form_cases():
    """(name, panel, table): random degenerate graphs, the moment-table
    cases (dense, subset, single-edge, star and fixture panels) with random
    outcomes and assignments, and the acceptance toy and identical-edge
    graphs."""
    rng = np.random.default_rng(1807)
    graphs = []
    for seed in range(60):
        m, n = int(rng.integers(6, 20)), int(rng.integers(5, 30))
        graph = random_degenerate_graph(rng, m, n)
        graphs.append((f"degenerate{seed}", graph, (0.3, 0.5, 0.7)[seed % 3],
                       rng.permutation(n)[: int(rng.integers(3, n + 1))]))
    graphs += list(moment_table_cases())
    toy = random_sparse_graph(np.random.default_rng(20240819), 10, 6)
    graphs.append(("toy", toy, 0.5, np.arange(6)))
    dup = BipartiteGraph(["b0", "b1", "b2", "b3"], ["dup1", "dup2", "other"],
                         [0, 2, 4, 6], [0, 1, 0, 1, 2, 3], [0.4, 0.6, 0.4, 0.6, 0.5, 0.5])
    graphs.append(("identical-edges", dup, 0.5, np.arange(3)))
    for name, graph, p, rows in graphs:
        table = exposure_moment_table(graph, p, rows)
        for draw in range(3):
            h = graph.times((rng.random(graph.n_buyers) < p).astype(float))[rows]
            var_h = p * (1 - p) * graph.row_sumsq()[rows]
            y = rng.normal(1.0, 2.0, len(rows))
            if draw == 2:
                y[rng.random(len(rows)) < 0.3] = 0.0
            panel = make_panel(h, y, p=p, var_h=var_h)
            yield f"{name}/{draw}", panel, table


def test_closed_form_pair_weighting_matches_4x4_solves():
    """The closed-form unit and pair weightings give the variance of the
    batched 3x3 unit and 4x4 pair solves within 1e-10 relative, with the
    same degenerate pairs (in order), degenerate units and number of pairs
    evaluated."""
    seen_units = seen_pairs = 0
    for name, panel, table in closed_form_cases():
        got = pairwise_variance(panel, table)
        value, evaluated, degenerate, degenerate_units = solved_pairwise_variance(panel, table)
        assert got.value == pytest.approx(value, rel=1e-10, abs=1e-300), name
        assert_same_positions(got, degenerate, degenerate_units)
        assert got.n_pairs_evaluated == evaluated, name
        seen_units += bool(len(degenerate_units))
        seen_pairs += bool(len(degenerate))
    # the cases must exercise both degeneracies
    assert seen_units >= 20 and seen_pairs >= 20


def test_unit_weighting_is_exact_at_high_degree():
    """One seller with 10^5 equal-weight buyers: the variance is the closed
    form evaluated in exact rational arithmetic on the same float inputs,
    within 1e-12 relative, and the unit is not degenerate. A 3x3 solve in
    the raw moments E[H^k] loses about 1e-6 of it to cancellation."""
    m, p, y = 10**5, 0.3, 2.5
    graph = BipartiteGraph([f"b{r}" for r in range(m)], ["s0"], [0, m], np.arange(m),
                           np.full(m, 1.0 / m))
    h = graph.times((np.random.default_rng(3).random(m) < p).astype(float))
    panel = make_panel(h, [y], p=p, var_h=p * (1 - p) * graph.row_sumsq())
    pv = pairwise_variance(panel, exposure_moment_table(graph, p, np.arange(1)))
    assert len(pv.degenerate_units) == 0 and pv.n_pairs_evaluated == 0

    P, w = Fraction(p), Fraction(graph.weights[0])
    pq = P * (1 - P)
    v, k3, k4 = pq * m * w**2, pq * (1 - 2 * P) * m * w**3, pq * (1 - 6 * pq) * m * w**4
    u = Fraction(h[0]) - P * m * w
    rho = k4 + 2 * v * v - k3 * k3 / v
    want = Fraction(y) ** 2 * (u * u / (v * v) - (u * u - v - k3 / v * u) / rho)
    assert pv.value == pytest.approx(float(want), rel=1e-12)


def test_pairwise_variance_calls_no_linear_algebra(monkeypatch):
    """The pairwise interval on the fixture panels, and the variance on
    graphs with single-buyer sellers, call no np.linalg solver and raise no
    warning: the division by rho = 0 of a degenerate unit stays inside
    np.errstate."""
    fixtures = list(fixture_panels(FIXTURE / "outcomes.csv"))
    cases = []
    for seed in range(10):
        rng = np.random.default_rng([19, seed])
        m, n, p = int(rng.integers(6, 16)), int(rng.integers(5, 14)), 0.5
        graph = random_degenerate_graph(rng, m, n)
        h = graph.times((rng.random(m) < p).astype(float))
        panel = make_panel(h, rng.normal(1.0, 2.0, n), p=p, var_h=p * (1 - p) * graph.row_sumsq())
        cases.append((panel, exposure_moment_table(graph, p, np.arange(n))))

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg solver called")

    for name in ("solve", "lstsq", "cond"):
        monkeypatch.setattr(np.linalg, name, refuse)
    seen = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for panel, graph in fixtures:
            assert np.isfinite(pairwise_variance_ci(panel, graph).width)
        for panel, table in cases:
            pv = pairwise_variance(panel, table)
            assert np.isfinite(pv.value)
            seen += bool(len(pv.degenerate_units))
    assert seen >= 5


# --- per-replicate oracles for the batched bootstrap and randomization ----


def oracle_rngs(seed, replications):
    """One generator per interval, drawn one replicate at a time."""
    rng = np.random.default_rng(seed)
    return [rng] * replications


def oracle_bootstrap_ci(panel, estimator_id, replications, seed, level=0.95):
    """The copied-panel bootstrap: (ci_low, ci_high, failures)."""
    point_estimate(panel, estimator_id)
    n = panel.n
    taus = np.empty(replications)
    failures = 0
    for r, rng in enumerate(oracle_rngs(seed, replications)):
        idx = rng.integers(0, n, n)
        try:
            taus[r] = point_estimate(panel.subset(idx), estimator_id).tau_hat
        except (EstimationError, ValueError):
            taus[r] = np.nan
            failures += 1
    if failures > 0.01 * replications:
        raise BootstrapFailureError(
            f"estimator failed in {failures}/{replications} bootstrap replicates"
        )
    good = taus[~np.isnan(taus)]
    alpha = 1.0 - level
    lo, hi = np.quantile(good, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi), failures


def oracle_randomization_ci(graph, assignments, outcomes, estimator_id,
                            replications, seed, level=0.95):
    """The per-draw randomization loop: (ci_low, ci_high)."""
    treatment = "On"
    panel, _ = assemble_panel(graph, assignments, outcomes, treatment)
    point = point_estimate(panel, estimator_id)
    p = effective_treatment_prob(assignments, treatment)
    matrix = csr(graph)
    taus = np.empty(replications)
    for r, rng in enumerate(oracle_rngs(seed, replications)):
        z = (rng.random(graph.n_buyers) < p).astype(np.float64)
        draw = ExposurePanel(
            h=(matrix @ z)[panel.graph_rows],
            e_h=panel.e_h, var_h=panel.var_h, y_in=panel.y_in, y_pre=panel.y_pre,
            p=panel.p, graph_rows=panel.graph_rows,
        )
        if estimator_id == "crerl":
            taus[r] = crerl_estimate(draw, lam=point.lam).tau_hat
        else:
            taus[r] = point_estimate(draw, estimator_id).tau_hat
    sd = float(np.std(taus, ddof=1))
    z_crit = float(norm.ppf(0.5 + level / 2.0))
    return point.tau_hat - z_crit * sd, point.tau_hat + z_crit * sd


def outcome_or_error(fn, *args, **kwargs):
    """(fn's result, or the type and message of the EstimationError or
    InferenceError it raised; the CR-ERL lambda = 0 warnings it gave)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args, **kwargs)
        except (EstimationError, InferenceError) as exc:
            out = type(exc), str(exc)
    return out, [str(w.message) for w in caught if "lambda = 0" in str(w.message)]


def lambda0_replicates(messages):
    """Replicates that fell back to lambda = 0, from the interval's warning."""
    counts = re.findall(r"in (\d+)/\d+ bootstrap replicates", " ".join(messages))
    return sum(int(c) for c in counts)


def counting_point_estimate(monkeypatch):
    """Patch the point_estimate that inference calls to count the calls
    that raised; returns the counter."""
    failed = [0]

    def counted(panel, estimator_id):
        try:
            return point_estimate(panel, estimator_id)
        except (EstimationError, ValueError):
            failed[0] += 1
            raise

    monkeypatch.setattr(inference, "point_estimate", counted)
    return failed


def differential_panels():
    """52 seeded panels from 3 to 150 units: the n = 3 panel of
    test_failure_tally, a y_pre = 0 panel (CR-ERL falls back to lambda = 0,
    REG_PRE is collinear), a panel whose CR-ERL covariate variance sits at
    the lambda = 0 floor, a panel with tied exposures, and random panels,
    small ones drawing degenerate replicates."""
    yield 3, make_panel([0.1, 0.5, 0.9], [1.0, 2.0, 3.0], y_pre=[0.5, 0.1, 0.7]), 300
    rng = np.random.default_rng(2024)
    panel, *_ = simulated_panel(rng, m=60, n=40)
    panel.y_pre = np.zeros(40)
    yield 40, panel, 211
    panel, *_ = simulated_panel(rng, m=60, n=40)
    b = panel.y_pre * exposure_weights(panel)
    panel.y_pre = panel.y_pre * np.sqrt(1.5 * EPS_COVARIATE_VAR / np.var(b, ddof=1))
    yield 40, panel, 223
    h = np.repeat([0.2, 0.4, 0.6, 0.8], 5)
    yield 20, make_panel(h, rng.normal(size=20), y_pre=rng.normal(size=20)), 250
    for seed in range(48):
        rng = np.random.default_rng([7, seed])
        n = int(rng.choice([4, 5, 6, 8, 12, 30, 60, 90, 150]))
        panel, *_ = simulated_panel(rng, m=max(2 * n, 8), n=n)
        yield n, panel, 200 + 23 * (seed % 3)


@pytest.mark.parametrize("estimator_id", ["erl", "reg", "reg_pre", "crerl"])
def test_batched_bootstrap_matches_per_replicate_loop(estimator_id, monkeypatch):
    failed = counting_point_estimate(monkeypatch)
    partial_blocks = 0
    for k, (n, panel, reps) in enumerate(differential_panels()):
        block = inference.BLOCK_BYTES // (8 * n)
        partial_blocks += reps > block and reps % block != 0
        want, want_warned = outcome_or_error(
            oracle_bootstrap_ci, panel, estimator_id, reps, seed=k
        )
        failed[0] = 0
        got, got_warned = outcome_or_error(bootstrap_ci, panel, estimator_id, reps, seed=k)
        if isinstance(want[0], type):
            assert got == want, (k, n)
            continue
        assert isinstance(got, inference.IntervalEstimate), (k, n, got)
        assert got.ci_low == pytest.approx(want[0], rel=1e-10, abs=1e-10), (k, n)
        assert got.ci_high == pytest.approx(want[1], rel=1e-10, abs=1e-10), (k, n)
        assert failed[0] == want[2], (k, n)
        _, point_warned = outcome_or_error(point_estimate, panel, estimator_id)
        assert lambda0_replicates(got_warned) == len(want_warned) - len(point_warned)
    assert partial_blocks >= 5


def test_batched_bootstrap_failure_paths():
    # the tally and its message, and one CR-ERL warning per interval
    panel = make_panel(np.array([0.1, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
    want, _ = outcome_or_error(oracle_bootstrap_ci, panel, "reg", 300, seed=0)
    assert want[0] is BootstrapFailureError
    with pytest.raises(BootstrapFailureError) as got:
        bootstrap_ci(panel, "reg", replications=300, seed=0)
    assert str(got.value) == want[1]

    rng = np.random.default_rng(5)
    panel, *_ = simulated_panel(rng, m=60, n=40)
    panel.y_pre = np.zeros(40)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bootstrap_ci(panel, "crerl", replications=250, seed=1)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2  # the point estimate's, then the interval's
    assert "in 250/250 bootstrap replicates" in messages[1]


def differential_experiments():
    """52 small seeded experiments with fixed and Zipf degrees."""
    for seed in range(52):
        rng = np.random.default_rng([11, seed])
        m = int(rng.integers(30, 300))
        degree = (
            ZipfDegree(2.0, 8) if seed % 3 == 0 else FixedDegree(int(rng.integers(1, 5)))
        )
        config = SimConfig(
            m=m, n=int(rng.integers(10, 90)), degree=degree,
            pre_corr=float(rng.random()), seed=seed,
        )
        yield m, simulate_experiment(config), 200 + 13 * (seed % 4)


@pytest.mark.parametrize("estimator_id", ["reg", "reg_pre"])
def test_batched_randomization_matches_per_draw_loop(estimator_id):
    partial_blocks = 0
    for k, (m, exp, reps) in enumerate(differential_experiments()):
        block = inference.BLOCK_BYTES // (8 * m)
        partial_blocks += reps > block and reps % block != 0
        args = (exp.graph, exp.assignments, exp.outcomes, estimator_id, reps)
        want, _ = outcome_or_error(oracle_randomization_ci, *args, seed=k)
        got, _ = outcome_or_error(
            randomization_ci, experiment_panel(exp), exp.graph, estimator_id, reps,
            seed=k,
        )
        if isinstance(want[0], type):
            assert got == want, k
            continue
        assert isinstance(got, inference.IntervalEstimate), (k, got)
        assert got.ci_low == pytest.approx(want[0], rel=1e-10, abs=1e-10), k
        assert got.ci_high == pytest.approx(want[1], rel=1e-10, abs=1e-10), k
    assert partial_blocks >= 20


@pytest.mark.parametrize("estimator_id", ["reg", "reg_pre"])
def test_batched_randomization_raises_on_collinear_draw(estimator_id):
    # four single-buyer sellers: one draw in eight gives constant h
    buyers, sellers = ["b0", "b1", "b2", "b3"], ["s0", "s1", "s2", "s3"]
    graph = BipartiteGraph(buyers, sellers, [0, 1, 2, 3, 4], [0, 1, 2, 3], [1.0] * 4)
    assignments = two_variant_assignments(["b0", "b1"], ["b2", "b3"])
    outcomes = outcome_table(
        {s: (float(i), 0.3 * i * i) for i, s in enumerate(sellers)}, has_pre=True
    )
    want = outcome_or_error(
        oracle_randomization_ci, graph, assignments, outcomes, estimator_id, 200, seed=0
    )
    assert want[0][0] is CollinearDesignError
    panel, _ = assemble_panel(graph, assignments, outcomes, "On")
    got = outcome_or_error(randomization_ci, panel, graph, estimator_id, 200, seed=0)
    assert got == want


@pytest.mark.parametrize("estimator_id", ["erl", "reg", "reg_pre", "crerl"])
def test_intervals_do_not_depend_on_block_size(estimator_id, monkeypatch):
    """One replicate per block, blocks that leave a partial one, and the
    default size all give bit-identical bounds."""
    exp = simulate_experiment(SimConfig(m=120, n=50, pre_corr=0.6, seed=17))
    panel = experiment_panel(exp)
    reps = 250
    bounds = []
    for block_bytes in (1, 8 * 7 * exp.graph.n_buyers, inference.BLOCK_BYTES):
        for width in (panel.n, exp.graph.n_buyers):
            size = max(1, block_bytes // (8 * width))
            assert size == 1 or reps % size != 0
        monkeypatch.setattr(inference, "BLOCK_BYTES", block_bytes)
        boot = bootstrap_ci(panel, estimator_id, reps, seed=3)
        rand = randomization_ci(panel, exp.graph, estimator_id, reps, seed=3)
        bounds.append((boot.ci_low, boot.ci_high, rand.ci_low, rand.ci_high))
    assert bounds[0] == bounds[1] == bounds[2]


def scipy_randomization_bounds(panel, graph, estimator_id, replications, seed):
    """randomization_ci's 95% bounds computed with the scipy sparse products
    and scipy.special.ndtri it used before, kept as the reference."""
    point = point_estimate(panel, estimator_id)
    W = csr(graph)[panel.graph_rows]
    if estimator_id in ("erl", "crerl"):
        g = panel.y_in if point.lam is None else panel.y_in - point.lam * panel.y_pre
        a = W.T @ (g / (panel.n * panel.var_h))
        sd = float(np.sqrt(panel.p * (1.0 - panel.p)) * np.linalg.norm(a))
    else:
        taus = np.empty(replications)
        blocks = inference._replicate_blocks(seed, replications, graph.n_buyers)
        for start, count, rng in blocks:
            Z = rng.random((count, graph.n_buyers)) < panel.p
            H = np.ascontiguousarray((W @ Z.T).T)
            tau, exact, _ = inference._replicate_taus(
                panel, estimator_id, np.ones((1, panel.n)), H
            )
            for k in np.flatnonzero(exact):
                tau[k] = point_estimate(replace(panel, h=H[k]), estimator_id).tau_hat
            taus[start : start + count] = tau
        sd = float(np.std(taus, ddof=1))
    z_crit = float(ndtri(0.975))
    return point.tau_hat - z_crit * sd, point.tau_hat + z_crit * sd


def randomization_panels(tmp_path):
    """(panel, graph) pairs: simulated experiments, and the tests/data
    fixture's graphs, whose panels leave out sellers without an outcome."""
    for config in (
        SimConfig(m=120, n=50, pre_corr=0.6, seed=17),
        SimConfig(m=900, n=300, degree=ZipfDegree(1.5, 30), pre_corr=0.4, seed=18),
    ):
        exp = simulate_experiment(config)
        yield experiment_panel(exp), exp.graph
    text = (FIXTURE / "outcomes.csv").read_text(encoding="utf-8")
    (tmp_path / "outcomes.csv").write_text(text.replace(",\n", ",0\n"))
    for panel, graph in fixture_panels(tmp_path / "outcomes.csv"):
        assert panel.n < graph.n_sellers
        yield panel, graph


def fixture_panels(outcomes_path):
    """The tests/data fixture's A-vs-Off panels, on the restricted subgraph
    and on the full view graph, with outcomes read from `outcomes_path`."""
    outcomes = parse_outcomes(outcomes_path)
    assignments = parse_assignments(FIXTURE / "assignments.csv")
    events, _ = parse_events(FIXTURE / "events.csv", frozenset({"view"}), (0, 2**62))
    full, _ = build_graph(events, assignments, GraphBuildConfig())
    sub = per_variant_subgraph(full, assignments, "Off", "A")
    for graph, control in ((sub, "Off"), (full, None)):
        panel, _ = assemble_panel(
            graph, assignments, outcomes, "A", control, allow_missing_outcomes=True
        )
        yield panel, graph


@pytest.mark.parametrize("estimator_id", ["erl", "reg", "reg_pre", "crerl"])
def test_randomization_matches_scipy_products(estimator_id, tmp_path, monkeypatch):
    """The bincount products give the bounds the scipy products gave, bit
    for bit, for one replicate per block and for the default blocks."""
    for panel, graph in randomization_panels(tmp_path):
        want = scipy_randomization_bounds(panel, graph, estimator_id, 300, 5)
        for block_bytes in (1, inference.BLOCK_BYTES):
            monkeypatch.setattr(inference, "BLOCK_BYTES", block_bytes)
            ci = randomization_ci(panel, graph, estimator_id, 300, seed=5)
            assert (ci.ci_low, ci.ci_high) == want


def linear_coefficients(panel, lam):
    """g with tau(h) = g h - c for ERL (lam None) or CR-ERL with lambda
    held at `lam`, read off the estimator at h = 0 and at each unit vector."""
    def tau(h):
        draw = replace(panel, h=h)
        if lam is None:
            return erl_estimate(draw).tau_hat
        return crerl_estimate(draw, lam=lam).tau_hat

    base = tau(np.zeros(panel.n))
    return np.array([tau(e) - base for e in np.eye(panel.n)])


@pytest.mark.parametrize("estimator_id", ["erl", "crerl"])
def test_linear_randomization_sd_matches_closed_form(estimator_id):
    """With lambda held fixed, tau(Z) = Z a - c with a = W'g over
    independent Bernoulli(p) buyers, so sd(tau) = sqrt(p (1 - p)) |a|. The
    sd of a sample sd over R draws is about sd / sqrt(2 (R - 1))."""
    reps = 2000
    z_scores = []
    for seed in range(30):
        rng = np.random.default_rng([31, seed])
        exp = simulate_experiment(
            SimConfig(
                m=int(rng.integers(200, 600)), n=int(rng.integers(40, 150)),
                degree=FixedDegree(int(rng.integers(2, 5))),
                pre_corr=float(rng.random()), seed=seed,
            )
        )
        panel = experiment_panel(exp)
        ci = randomization_ci(panel, exp.graph, estimator_id, reps, seed=seed)
        g = linear_coefficients(panel, ci.point.lam)
        a = csr(exp.graph)[panel.graph_rows].T @ g
        want = np.sqrt(panel.p * (1 - panel.p)) * np.linalg.norm(a)
        got = ci.width / (2 * norm.ppf(0.975))
        z_scores.append((got - want) / (want / np.sqrt(2 * (reps - 1))))
    z_scores = np.array(z_scores)
    assert np.abs(z_scores).max() <= 4.0, z_scores
    assert abs(z_scores.mean()) <= 4.0 / np.sqrt(len(z_scores)), z_scores


@pytest.mark.parametrize("estimator_id", ["erl", "crerl"])
def test_linear_randomization_interval_matches_enumeration(estimator_id):
    """ERL and CR-ERL with lambda held at the point estimate: the interval's
    sd is the exact sd of tau(Z) over all 2^m assignments of the graph's
    buyers, weighted by the Bernoulli(p) design, and no draw is made."""
    z_crit = float(norm.ppf(0.975))
    for seed in range(16):
        rng = np.random.default_rng([53, seed])
        m = int(rng.integers(3, 13))
        n = int(rng.integers(3, 9))
        graph = random_sparse_graph(rng, m, n, min_deg=1, max_deg=min(4, m))
        p_on = float(rng.uniform(0.2, 0.8))
        on = rng.random(m) < p_on
        assignments = two_variant_assignments(
            [f"b{r}" for r in np.flatnonzero(on)],
            [f"b{r}" for r in np.flatnonzero(~on)],
            p_on=p_on,
        )
        outcomes = outcome_table(
            {f"s{i}": (float(rng.normal(1, 1)), float(rng.normal())) for i in range(n)},
            has_pre=True,
        )
        panel, _ = assemble_panel(graph, assignments, outcomes, "On")
        ci = randomization_ci(panel, graph, estimator_id, 200, seed=seed)
        lam = ci.point.lam
        matrix = csr(graph)
        taus, weights = [], []
        for z in enumerate_assignments(m):
            draw = replace(panel, h=(matrix @ z)[panel.graph_rows])
            est = erl_estimate(draw) if lam is None else crerl_estimate(draw, lam=lam)
            taus.append(est.tau_hat)
            weights.append(assignment_probability(z, panel.p))
        taus, weights = np.array(taus), np.array(weights)
        mean = weights @ taus
        sd = np.sqrt(weights @ (taus - mean) ** 2)
        tau_hat = ci.point.tau_hat
        assert ci.ci_low == pytest.approx(tau_hat - z_crit * sd, rel=1e-10, abs=1e-10)
        assert ci.ci_high == pytest.approx(tau_hat + z_crit * sd, rel=1e-10, abs=1e-10)
        assert (ci.replications, ci.seed) == (0, 0)


def test_ndtri_matches_scipy_bit_for_bit(rng):
    """The Cephes port equals scipy.special.ndtri bit for bit: a dense grid
    and random points on [0, 1], both tails down to 1e-300, the branch
    points and values outside [0, 1]."""
    tiny = 10.0 ** -rng.uniform(0, 300, 150_000)
    points = np.concatenate([
        np.linspace(0.0, 1.0, 400_001),
        rng.random(300_000),
        tiny,
        1.0 - tiny[:50_000],
        1.0 - 10.0 ** -rng.uniform(0, 16, 100_000),
        np.nextafter(np.exp(-2.0), [0.0, 1.0]),
        np.nextafter(1.0 - np.exp(-2.0), [0.0, 1.0]),
        [0.0, -0.0, 1.0, 0.5, 5e-324, np.nextafter(1.0, 0.0), np.exp(-32.0)],
        [-1e-300, -1.0, 1.0 + 1e-16, 2.0, np.inf, -np.inf, np.nan],
    ])
    assert len(points) >= 1_000_000
    want = ndtri(points)
    got = np.array([inference._ndtri(float(q)) for q in points])
    # NaN outside [0, 1], whatever its sign bit; every other value bit-equal
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert nan.sum() == 6
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_ndtri_critical_value_matches_norm_ppf():
    """The intervals take z from the Cephes port, not scipy.stats: the two
    quantiles must agree bit for bit at every level."""
    for level in [*(np.arange(1, 1000) / 1000).tolist(), 0.95, 0.9, 0.99]:
        q = 0.5 + level / 2.0
        assert inference._ndtri(q) == float(norm.ppf(q)), level


def test_percentiles_match_np_quantile_bit_for_bit(rng):
    """The bootstrap's percentiles equal np.quantile's bit for bit, with the
    same RuntimeWarnings, and leave their input as it was: every size from
    1 to 1000 at several levels and at the bounds 0 and 1, on samples with
    ties (signed zeros among them) and with infinities of both signs, whose
    differences are NaN."""
    samples = [
        lambda n: rng.normal(size=n),
        lambda n: rng.integers(-2, 3, n).astype(np.float64),
        lambda n: rng.choice([0.0, -0.0, 1.0, -1.0], n),
        lambda n: np.where(rng.random(n) < 0.3, np.inf, rng.normal(size=n))
        * rng.choice([1.0, -1.0], n),
        lambda n: rng.choice([np.inf, -np.inf, 0.0, 5.0], n),
    ]
    qs = [[(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0]
          for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)] + [[0.0, 1.0]]
    for n in range(1, 1001):
        x = samples[n % len(samples)](n)
        before = x.tobytes()
        for q in qs:
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                got = inference._percentiles(x, q)
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                want = np.quantile(x, q)
            assert got.tobytes() == want.tobytes(), (n, q, x)
            assert [str(w.message) for w in got_warnings] == [
                str(w.message) for w in want_warnings
            ]
        assert x.tobytes() == before


def _loaded_scipy(code, cwd=None):
    """The scipy modules a fresh interpreter has loaded after `code`."""
    src = Path(__file__).resolve().parents[1] / "src"
    code += "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, cwd=cwd,
    )
    return set(done.stdout.split())


def test_package_import_loads_no_scipy_stats():
    """Importing the package and its console script loads numpy only, not
    scipy.stats nor any other scipy module: every CLI run would otherwise
    pay for scipy's import."""
    assert _loaded_scipy("import bipartite_ab, bipartite_ab.cli") == set()


@pytest.mark.parametrize(
    "estimator,method,loads,skips",
    [
        ("erl", "bootstrap", set(), {"scipy"}),
        ("crerl", "randomization", set(), {"scipy"}),
        ("erl,crerl", "bootstrap,randomization", set(), {"scipy"}),
        ("reg", "bootstrap", {"scipy.linalg"}, {"scipy.sparse", "scipy.stats"}),
        ("reg_pre", "randomization", {"scipy.linalg"}, {"scipy.sparse", "scipy.stats"}),
        ("erl", "pairwise", set(), {"scipy"}),
    ],
)
def test_analyze_loads_scipy_only_where_needed(estimator, method, loads, skips, tmp_path):
    """An analyze run on the tests/data fixture imports the scipy
    subpackages its estimators and methods need, and no others: ERL and
    CR-ERL need none with any method, REG needs scipy.linalg's pivoted
    QR."""
    fixture = Path(__file__).parent / "data" / "analyze3"
    # CR-ERL and REG_PRE need a pre-period outcome for every seller
    outcomes = (fixture / "outcomes.csv").read_text(encoding="utf-8")
    (tmp_path / "outcomes.csv").write_text(outcomes.replace(",\n", ",0\n"))
    argv = [
        "analyze", "--events", "events.csv", "--assignments", "assignments.csv",
        "--outcomes", str(tmp_path / "outcomes.csv"), "--treatment", "A",
        "--control", "Off", "--kinds", "view", "--estimators", estimator,
        "--methods", method, "--replications", "200", "--allow-missing-outcomes",
        "--out", str(tmp_path / "out"),
    ]
    loaded = _loaded_scipy(
        f"from bipartite_ab.cli import main\nassert main({argv!r}) == 0", cwd=fixture
    )
    assert loads <= loaded
    assert not [m for m in loaded for s in skips if m == s or m.startswith(s + ".")]


def single_buyer_panel():
    """(panel, graph) of four sellers with one buyer each: h is 0 or 1, so
    one bootstrap replicate or assignment draw in eight leaves h constant
    and REG and REG_PRE collinear."""
    buyers, sellers = ["b0", "b1", "b2", "b3"], ["s0", "s1", "s2", "s3"]
    graph = BipartiteGraph(buyers, sellers, [0, 1, 2, 3, 4], [0, 1, 2, 3], [1.0] * 4)
    assignments = two_variant_assignments(["b0", "b1"], ["b2", "b3"])
    outcomes = outcome_table(
        {s: (float(i), 0.3 * i * i) for i, s in enumerate(sellers)}, has_pre=True
    )
    panel, _ = assemble_panel(graph, assignments, outcomes, "On")
    return panel, graph


def request_panels():
    """(panel, graph): two simulated experiments, the second without y_pre,
    the first again with y_pre = 0 (every CR-ERL bootstrap replicate falls
    back to lambda = 0, REG_PRE is collinear), four single-buyer sellers
    (REG fails in more than 1% of bootstrap replicates and on a randomization
    draw, while ERL succeeds), and the tests/data fixture's two panels, whose
    missing pre-period cells make CR-ERL and REG_PRE fail."""
    for config, keep_pre in (
        (SimConfig(m=120, n=50, pre_corr=0.6, seed=17), True),
        (SimConfig(m=300, n=150, degree=ZipfDegree(1.5, 30), seed=18), False),
    ):
        exp = simulate_experiment(config)
        panel = experiment_panel(exp)
        yield panel if keep_pre else replace(panel, y_pre=None), exp.graph
    yield replace(panel, y_pre=np.zeros(panel.n)), exp.graph
    yield single_buyer_panel()
    yield from fixture_panels(FIXTURE / "outcomes.csv")


def interval_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def test_intervals_match_direct_calls():
    """Every estimator x method pair `intervals` yields, estimators outer, is
    the interval the direct call returns, bit for bit, or an error of the
    same type and message, though the estimators share each bootstrap draw
    and the methods share each point estimate; the pairwise interval is the one the moment table,
    pairwise_variance and ERL give."""
    request = (inference.ESTIMATOR_IDS, inference.METHOD_IDS, 200, 7, 0.9)
    failed = set()
    mixed_bootstraps = lambda0_bootstraps = 0
    for panel, graph in request_panels():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = list(inference.intervals(panel, graph, *request))
        got_warned = [str(w.message) for w in caught if "bootstrap replicates" in str(w.message)]
        lambda0_bootstraps += lambda0_replicates(got_warned) > 0
        assert [(e, m) for e, m, _ in got] == list(
            itertools.product(inference.ESTIMATOR_IDS, inference.METHOD_IDS)
        )
        outcome, want_warned = {}, []
        for est, method, ci in got:
            if method == "bootstrap":
                want, warned = outcome_or_error(interval_or_error, bootstrap_ci, panel, est,
                                                200, 7, 0.9)
                want_warned += [m for m in warned if "bootstrap replicates" in m]
            elif method == "randomization":
                want, _ = outcome_or_error(interval_or_error, randomization_ci, panel, graph,
                                           est, 200, 7, 0.9)
            elif est == "erl":
                want = interval_or_error(pairwise_variance_ci, panel, graph, 0.9)
                table = exposure_moment_table(graph, panel.p, panel.graph_rows)
                sd = np.sqrt(max(pairwise_variance(panel, table).value, 0.0))
                point = erl_estimate(panel)
                z = ndtri(0.95)
                assert (want.ci_low, want.ci_high) == (
                    point.tau_hat - z * sd, point.tau_hat + z * sd
                )
            else:
                want = InferenceError("pairwise variance applies to the erl estimator only")
            if isinstance(want, Exception):
                failed.add((est, method))
                assert (type(ci), str(ci)) == (type(want), str(want)), (est, method)
            else:
                assert isinstance(ci, inference.IntervalEstimate), (est, method, ci)
                assert ci == want, (est, method)
            outcome[est, method] = type(ci)
        # the lambda = 0 replicate warnings, one per estimator, in request order
        assert got_warned == want_warned
        mixed_bootstraps += (outcome["reg", "bootstrap"], outcome["erl", "bootstrap"]) == (
            BootstrapFailureError, inference.IntervalEstimate
        )
    # the failing pairs are exercised: REG and friends under pairwise, REG
    # under a collinear draw, and REG_PRE and CR-ERL without a pre-period
    # outcome; so are ERL beside REG over the bootstrap failure limit, and
    # CR-ERL lambda = 0 replicates
    assert {("reg", "pairwise"), ("reg_pre", "bootstrap"), ("crerl", "randomization"),
            ("reg", "randomization")} <= failed
    assert mixed_bootstraps >= 1 and lambda0_bootstraps >= 1


def test_intervals_call_through_module_names(monkeypatch):
    """`intervals` looks each method's kernel up on the module, so a wrapper
    set there (a tracer's, say) sees every interval computation."""
    calls = []
    for name in ("_bootstrap_cis", "_randomization_ci", "pairwise_variance_ci"):
        real = getattr(inference, name)

        def spy(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(inference, name, spy)
    panel, graph = next(request_panels())
    got = list(inference.intervals(
        panel, graph, ["erl"], inference.METHOD_IDS, 200, 0, 0.95
    ))
    assert all(isinstance(ci, inference.IntervalEstimate) for _, _, ci in got)
    assert calls == ["_bootstrap_cis", "_randomization_ci", "pairwise_variance_ci"]


def test_intervals_draw_each_block_once(monkeypatch):
    """A three-estimator request draws each bootstrap block once, not once
    per estimator, and computes each point estimate once per panel; a
    pairwise request computes none for the estimators it refuses."""
    panel, graph = next(request_panels())
    real_rng = np.random.default_rng
    draws = []

    class CountingRng:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def integers(self, *args):
            draws.append(args)
            return self.rng.integers(*args)

        def random(self, *args):
            return self.rng.random(*args)

    points = []

    def counted_point_estimate(p, estimator_id):
        points.append((p is panel, estimator_id))
        return point_estimate(p, estimator_id)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    monkeypatch.setattr(inference, "point_estimate", counted_point_estimate)
    reps = 1000
    got = list(inference.intervals(
        panel, graph, ["erl", "reg", "crerl"], ["bootstrap", "randomization"], reps, 3, 0.95
    ))
    assert all(isinstance(ci, inference.IntervalEstimate) for _, _, ci in got)
    size = inference.BLOCK_BYTES // (8 * panel.n)
    assert 1 < len(draws) == -(-reps // size)
    assert sorted(est for own, est in points if own) == ["crerl", "erl", "reg"]
    points.clear()
    got = list(inference.intervals(panel, graph, ["erl", "reg"], ["pairwise"], 0, 3, 0.95))
    assert isinstance(got[1][2], InferenceError)
    assert points == [(True, "erl")]


def test_lambda0_warning_points_at_the_caller():
    """The bootstrap's lambda = 0 warning names the line that called
    bootstrap_ci or iterated intervals."""
    exp = simulate_experiment(SimConfig(m=120, n=50, pre_corr=0.6, seed=17))
    panel, graph = replace(experiment_panel(exp), y_pre=np.zeros(50)), exp.graph
    for call in (
        lambda: bootstrap_ci(panel, "crerl", 250, seed=1),
        lambda: list(inference.intervals(panel, graph, ["erl", "crerl"], ["bootstrap"],
                                         250, 1, 0.95)),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        replicates = [w for w in caught if "bootstrap replicates" in str(w.message)]
        assert [str(w.message) for w in replicates] == [
            "covariate term has (near) zero variance in 250/250 bootstrap replicates; "
            "those use lambda = 0 (plain ERL)"
        ]
        assert replicates[0].filename == __file__


@pytest.mark.parametrize("args, message", [
    (([], ["bootstrap"], 200, 0.95, 0), "estimator list must be non-empty"),
    ((["erl"], [], 200, 0.95, 0), "method list must be non-empty"),
    ((["erl", "foo"], ["bootstrap"], 200, 0.95, 0), "unknown estimator 'foo'"),
    ((["erl"], ["pairwise", "wat"], 200, 0.95, 0), "unknown method 'wat'"),
    ((["erl"], ["pairwise"], 200, 1.0, 0), "level 1.0 outside (0,1)"),
    ((["erl"], ["pairwise"], 200, float("nan"), 0), "level nan outside (0,1)"),
    ((["erl"], ["pairwise"], 200, 0.95, -1), "seed must be >= 0, got -1"),
    ((["erl"], ["randomization"], 199, 0.95, 0), "replications must be >= 200, got 199"),
])
def test_check_request_messages(args, message):
    with pytest.raises(InferenceError) as got:
        inference.check_request(*args)
    assert str(got.value) == message


def test_check_request_needs_replications_only_for_resampling():
    inference.check_request(["erl"], ["pairwise"], 0, 0.95, 0)
    with pytest.raises(InferenceError, match="replications must be >= 200, got 0"):
        inference.check_request(["erl"], ["pairwise", "bootstrap"], 0, 0.95, 0)


@pytest.mark.parametrize("call", [
    lambda panel, graph: bootstrap_ci(panel, "erl", 200, -1),
    lambda panel, graph: randomization_ci(panel, graph, "erl", 200, 0, 1.5),
    lambda panel, graph: pairwise_variance_ci(panel, graph, level=0.0),
    lambda panel, graph: randomization_ci(panel, graph, "reg", 200, -1),
    lambda panel, graph: randomization_ci(panel, graph, "erl", 200, -1),
])
def test_interval_functions_check_their_request(call):
    panel, graph = next(request_panels())
    with pytest.raises(InferenceError, match=r"^(seed must be >= 0|level .* outside)"):
        call(panel, graph)


# --- the replicate kernel against the formulas it replaced ------------------


def oracle_replicate_taus(panel, estimator_id, c, h):
    """The replicate kernel as it was before unit weights, shared sums and
    the max/min rank bound, kept as the reference: every weight multiplied
    in, each mean recomputed where it is read, and the rank bound from
    sorted, stacked column norms."""
    n = panel.n
    y, f = panel.y_in, panel.y_pre
    rows = np.broadcast_shapes(c.shape, h.shape)[0]
    exact = np.zeros(rows, dtype=bool)
    lam0 = np.zeros(rows, dtype=bool)

    def mean(x):
        return (c * x).sum(axis=-1) / n

    def centred(x):
        d = x - mean(x)[:, None]
        return d, c * d

    with np.errstate(divide="ignore", invalid="ignore"):
        if estimator_id in ("erl", "crerl"):
            w = (h - panel.e_h) / panel.var_h
            a = y * w
            tau = mean(a)
            if estimator_id == "erl":
                return tau, exact, lam0
            b = f * w
            da = a - tau[:, None]
            db, cdb = centred(b)
            s_bb = (cdb * db).sum(axis=-1)
            var_b = s_bb / (n - 1) if n > 1 else np.zeros(rows)
            lam0 = var_b < EPS_COVARIATE_VAR
            lam = np.where(lam0, 0.0, (cdb * da).sum(axis=-1) / s_bb)
            slack = 0.5 * EPS_COVARIATE_VAR + 64 * inference.EPS_MACH * np.abs(b).max() * (
                np.sqrt(var_b) + np.sqrt(EPS_COVARIATE_VAR)
            )
            exact = np.abs(var_b - EPS_COVARIATE_VAR) <= slack
            return tau - lam * mean(b), exact, lam0
        dh, cdh = centred(h)
        s_hh = (cdh * dh).sum(axis=-1)
        s_hy = (cdh * y).sum(axis=-1)
        norms = [np.full(rows, float(n)), n * mean(h) ** 2 + s_hh]
        if estimator_id == "reg":
            tau = s_hy / s_hh
            det = s_hh
            accurate = True
        else:
            df, cdf = centred(f)
            s_ff = (cdf * df).sum(axis=-1)
            s_hf = (cdh * df).sum(axis=-1)
            det = s_hh * s_ff - s_hf**2
            tau = (s_ff * s_hy - s_hf * (cdf * y).sum(axis=-1)) / det
            norms.append(n * mean(f) ** 2 + s_ff)
            accurate = det > inference.GRAM_REL * s_hh * s_ff
        exact = ~(accurate & (n * det > oracle_rank_bound(n, norms)))
        return tau, exact, lam0


def oracle_rank_bound(n, norms):
    """The pivoted-QR rank bound from the sorted, stacked column norms."""
    q = np.sort(np.vstack(np.broadcast_arrays(*norms)), axis=0)[::-1]
    return (inference.QR_MARGIN * n * inference.EPS_MACH) ** 2 * q[0] * np.prod(q[:-1], axis=0)


def assert_same_replicates(got, want, context):
    for name, g, w in zip(("tau", "exact", "lam0"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, (context, name)
        assert g.tobytes() == w.tobytes(), (context, name)


def kernel_cases():
    """(panel, c, h) on which the kernel runs: bootstrap count blocks over
    the differential panels, and unit-weight blocks of exposure draws, real
    ones (H = W Z) on the request panels with a pre-period outcome and
    synthetic ones, among them constant and tied exposures, that put REG on
    its rank test and CR-ERL on its variance floor."""
    for k, (n, panel, _) in enumerate(differential_panels()):
        rng = np.random.default_rng([29, k])
        idx = rng.integers(0, n, (7, n))
        counts = np.bincount((idx + n * np.arange(7)[:, None]).ravel(), minlength=idx.size)
        yield panel, counts.reshape(idx.shape).astype(np.float64), panel.h
        H = np.clip(panel.h + rng.normal(0.0, 0.2, (6, n)), 0.0, 1.0)
        H[0], H[1], H[2] = 0.5, panel.h, np.round(panel.h, 1)
        yield panel, None, H
    for panel, graph in request_panels():
        if panel.y_pre is None:
            continue
        rng = np.random.default_rng(panel.n)
        Z = rng.random((11, graph.n_buyers)) < panel.p
        yield panel, None, np.ascontiguousarray((csr(graph)[panel.graph_rows] @ Z.T).T)


@pytest.mark.parametrize("estimator_id", ["erl", "reg", "reg_pre", "crerl"])
def test_unit_weights_match_the_ones_matrix(estimator_id):
    """c = None, which sums each term unmultiplied, gives the tau, exact and
    lam0 that the 1 x n matrix of ones gave, byte for byte, and so does the
    ones matrix itself; count weights give what they gave."""
    compared = 0
    for k, (panel, c, h) in enumerate(kernel_cases()):
        ones = np.ones((1, panel.n))
        if c is None:
            want = oracle_replicate_taus(panel, estimator_id, ones, h)
            assert_same_replicates(
                inference._replicate_taus(panel, estimator_id, None, h), want, k
            )
            assert_same_replicates(
                inference._replicate_taus(panel, estimator_id, ones, h), want, k
            )
        else:
            want = oracle_replicate_taus(panel, estimator_id, c, h)
            assert_same_replicates(inference._replicate_taus(panel, estimator_id, c, h), want, k)
        compared += 1
    assert compared >= 100


def test_kernel_cases_reach_the_decision_boundaries():
    """The cases above exercise REG's rank test, CR-ERL's variance floor and
    its lambda = 0 fallback, with unit and with count weights."""
    hit = set()
    for panel, c, h in kernel_cases():
        weights = "unit" if c is None else "counts"
        c = np.ones((1, panel.n)) if c is None else c
        for est in ("reg", "reg_pre", "crerl"):
            _, exact, lam0 = oracle_replicate_taus(panel, est, c, h)
            hit |= {(est, weights, "exact")} if exact.any() else set()
            hit |= {(est, weights, "lam0")} if lam0.any() else set()
    for weights in ("unit", "counts"):
        assert {("reg", weights, "exact"), ("reg_pre", weights, "exact"),
                ("crerl", weights, "lam0")} <= hit, weights


@pytest.mark.parametrize("order", [
    ("erl", "crerl", "reg", "reg_pre"),
    ("crerl", "erl", "reg_pre", "reg"),
    ("reg_pre", "crerl", "reg", "erl"),
])
def test_shared_sums_match_separate_calls(order):
    """Estimators that share one block's sums, in any order, each get what
    they get alone, and what they got before the sums were shared."""
    for k, (panel, c, h) in enumerate(kernel_cases()):
        shared = {}
        for est in order:
            got = inference._replicate_taus(panel, est, c, h, shared)
            want = oracle_replicate_taus(panel, est, np.ones((1, panel.n)) if c is None else c, h)
            assert_same_replicates(got, want, (k, est))
        assert set(shared) == {"erl"}


def test_rank_bound_matches_sorted_product(rng):
    """The max/min bound equals the sorted, stacked product byte for byte,
    for two and three norms, with ties, zeros, infinities, NaN and
    products that overflow or underflow, and for a scalar third norm (the
    unit-weight y_pre norm)."""
    for n in (1, 2, 5, 37, 1000):
        pool = np.array([0.0, 1e-300, 0.5, 1.0, float(n), float(n), 3e5, 1e300,
                         np.inf, np.nan])
        for _ in range(40):
            size = int(rng.integers(1, 60))
            q_h, q_f = (np.where(rng.random(size) < 0.5, rng.choice(pool, size),
                                 rng.random(size) * 2 * n) for _ in range(2))
            full = np.full(size, float(n))
            for norms in ((q_h,), (q_h, q_f), (q_h, rng.choice(pool))):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = inference._rank_bound(n, *norms)
                    want = oracle_rank_bound(n, [full, *norms])
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (n, norms)


def test_shared_bootstrap_matches_single_estimator_calls():
    """The bootstrap over all four estimators at once, which shares each
    block's sums, gives each estimator the interval, failure or warning
    count its single-estimator bootstrap_ci gives."""
    for k, (n, panel, reps) in enumerate(differential_panels()):
        if k % 4:
            continue
        points = {}
        for est in ("crerl", "reg_pre", "erl", "reg"):
            try:
                points[est] = point_estimate(panel, est)
            except ValueError:
                pass
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            shared = inference._bootstrap_cis(panel, points, reps, k, 0.95)
        for est in points:
            want, _ = outcome_or_error(interval_or_error, bootstrap_ci, panel, est, reps, k)
            got = shared[est]
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want)), (k, est)
            else:
                assert got == want, (k, est)
