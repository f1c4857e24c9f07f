import itertools
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

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
from bipartite_ab.graph import BipartiteGraph
from bipartite_ab.inference import (
    BootstrapFailureError,
    DegeneratePairError,
    InferenceError,
    PairwiseSizeError,
    bootstrap_ci,
    exposure_moment_table,
    pairwise_variance,
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
    diag_weighting,
    enumerate_assignments,
    random_sparse_graph,
    two_variant_assignments,
    unit_variance_terms,
)
from test_estimators import make_panel, simulated_panel


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
        W = graph.matrix().toarray()
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
        h = graph.matrix() @ (rng.random(m) < p).astype(float)
        y = rng.normal(0, 1, n)
        panel = make_panel(h, y, p=p, var_h=var_h)
        pv = pairwise_variance(panel, moments)
        per_unit = unit_variance_terms(panel, moments)
        assert pv.value == pytest.approx(per_unit.sum() / n**2, rel=1e-12)

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
        h = graph.matrix() @ np.array([1.0, 0.0, 1.0])
        panel = make_panel(h, np.array([1.0, 2.0, 3.0]), p=p, var_h=var_h)
        panel.seller_ids = list(graph.sellers)
        pv = pairwise_variance(panel, moments)
        assert pv.degenerate_pairs == [("dup1", "dup2")]
        with pytest.raises(DegeneratePairError):
            pairwise_variance(panel, moments, policy="strict")
        with pytest.warns(UserWarning, match="dropped"):
            dropped = pairwise_variance(panel, moments, policy="drop")
        assert dropped.value <= pv.value  # merge adds a nonnegative bound

    def test_merge_policy_is_conservative(self, rng):
        # merged upper bound never reduces the estimate vs dropping the pair
        w = [0.5, 0.5]
        graph = BipartiteGraph(
            ["b0", "b1"], ["dup1", "dup2"], [0, 2, 4], [0, 1, 0, 1], w + w
        )
        p = 0.5
        var_h = p * (1 - p) * graph.row_sumsq()
        moments = exposure_moment_table(graph, p, np.arange(2))
        h = graph.matrix() @ np.array([1.0, 0.0])
        panel = make_panel(h, np.array([2.0, -1.0]), p=p, var_h=var_h)
        merged = pairwise_variance(panel, moments, policy="merge")
        with pytest.warns(UserWarning):
            dropped = pairwise_variance(panel, moments, policy="drop")
        assert merged.value >= dropped.value

    def test_size_guard(self, rng, monkeypatch):
        n = 10
        graph = random_sparse_graph(rng, 30, n)
        p = 0.5
        var_h = p * (1 - p) * graph.row_sumsq()
        moments = exposure_moment_table(graph, p, np.arange(n))
        h = graph.matrix() @ (rng.random(30) < p).astype(float)
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
        idx, w = graph.row(int(i))
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


def oracle_pairwise_variance(panel, uni, pairs, policy, eps_det=1e-12):
    """The unit-by-unit, pair-by-pair moment-matching loop: (value,
    n_pairs_evaluated, degenerate_pairs, degenerate_units)."""
    n = panel.n
    y, h = panel.y_in, panel.h
    diag_vals = np.empty(n)
    degenerate_units = []
    for i in range(n):
        (a, b, c), singular = diag_weighting(uni[i])
        if singular:
            degenerate_units.append(panel.seller_ids[i])
            if policy == "strict":
                raise DegeneratePairError(f"unit {panel.seller_ids[i]!r}")
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
            pair_ids = (panel.seller_ids[i], panel.seller_ids[j])
            degenerate.append(pair_ids)
            if policy == "strict":
                raise DegeneratePairError(f"degenerate exposure pair {pair_ids!r}")
            if policy == "merge":
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
    indptr = np.cumsum([0] + [len(c) for c, _ in rows])
    return BipartiteGraph(
        [f"b{i}" for i in range(m)],
        [f"s{i}" for i in range(n)],
        indptr,
        np.concatenate([c for c, _ in rows]),
        np.concatenate([w for _, w in rows]),
    )


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_closed_form_table_and_variance_match_recursions(p):
    """The cumulant table and the batched solve agree with the per-buyer
    recursions and the pair-by-pair loop on 40 random graphs per p, with
    panels over a shuffled strict subset of the sellers."""
    seen_units = seen_pairs = 0
    for seed in range(40):
        rng = np.random.default_rng([int(p * 10), seed])
        m, n = int(rng.integers(6, 16)), int(rng.integers(5, 14))
        graph = random_degenerate_graph(rng, m, n)
        rows = rng.permutation(n)[: int(rng.integers(3, n))]
        table = exposure_moment_table(graph, p, rows)
        uni, pairs = oracle_moment_table(graph, p, rows)
        np.testing.assert_allclose(table.uni, uni, rtol=0, atol=1e-10)
        assert list(zip(table.pair_i.tolist(), table.pair_j.tolist())) == list(pairs)
        np.testing.assert_allclose(
            table.pairs, np.array(list(pairs.values())).reshape(-1, 3, 3),
            rtol=0, atol=1e-10,
        )

        h = (graph.matrix() @ (rng.random(m) < p).astype(float))[rows]
        var_h = p * (1 - p) * graph.row_sumsq()[rows]
        panel = make_panel(h, rng.normal(1.0, 2.0, len(rows)), p=p, var_h=var_h)
        panel.seller_ids = [graph.sellers[r] for r in rows]
        for policy in ("merge", "drop", "strict"):
            try:
                want = oracle_pairwise_variance(panel, uni, pairs, policy)
            except DegeneratePairError as exc:
                with pytest.raises(DegeneratePairError) as got:
                    pairwise_variance(panel, table, policy=policy)
                assert str(got.value).startswith(str(exc))
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                pv = pairwise_variance(panel, table, policy=policy)
            value, evaluated, degenerate, degenerate_units = want
            assert pv.value == pytest.approx(value, rel=1e-10, abs=1e-10)
            assert pv.n_pairs_evaluated == evaluated
            assert pv.degenerate_pairs == degenerate
            assert pv.degenerate_units == degenerate_units
        seen_units += bool(degenerate_units)
        seen_pairs += bool(degenerate)
    # the generator must exercise both degeneracies
    assert seen_units >= 5 and seen_pairs >= 5


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
    matrix = graph.matrix()
    taus = np.empty(replications)
    for r, rng in enumerate(oracle_rngs(seed, replications)):
        z = (rng.random(graph.n_buyers) < p).astype(np.float64)
        draw = ExposurePanel(
            seller_ids=panel.seller_ids, h=(matrix @ z)[panel.graph_rows],
            e_h=panel.e_h, var_h=panel.var_h, y_in=panel.y_in, y_pre=panel.y_pre,
            p=panel.p, graph_rows=panel.graph_rows, treatment=panel.treatment,
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


@pytest.mark.parametrize("estimator_id", ["erl", "reg", "reg_pre", "crerl"])
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
        a = exp.graph.matrix()[panel.graph_rows].T @ g
        want = np.sqrt(panel.p * (1 - panel.p)) * np.linalg.norm(a)
        got = ci.width / (2 * norm.ppf(0.975))
        z_scores.append((got - want) / (want / np.sqrt(2 * (reps - 1))))
    z_scores = np.array(z_scores)
    assert np.abs(z_scores).max() <= 4.0, z_scores
    assert abs(z_scores.mean()) <= 4.0 / np.sqrt(len(z_scores)), z_scores
