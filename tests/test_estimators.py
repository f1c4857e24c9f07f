import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartite_ab.estimators import (
    COMPENSATED_SUM_THRESHOLD,
    CollinearDesignError,
    EstimationError,
    crerl_estimate,
    erl_estimate,
    exposure_weights,
    point_estimate,
    regression_estimate,
)
from bipartite_ab.exposure import ExposurePanel

from conftest import csr, random_sparse_graph


def make_panel(h, y, y_pre=None, p=0.5, var_h=None):
    h = np.asarray(h, dtype=float)
    n = len(h)
    if var_h is None:
        var_h = np.full(n, p * (1 - p))
    return ExposurePanel(
        h=h,
        e_h=np.full(n, p),
        var_h=np.asarray(var_h, dtype=float),
        y_in=np.asarray(y, dtype=float),
        y_pre=None if y_pre is None else np.asarray(y_pre, dtype=float),
        p=p,
        graph_rows=np.arange(n),
    )


def simulated_panel(rng, m=300, n=150, beta=None, alpha=None, noise=0.5, p=0.5):
    graph = random_sparse_graph(rng, m, n)
    if alpha is None:
        alpha = rng.normal(0, 1, n)
    if beta is None:
        beta = rng.normal(1, 0.3, n)
    z = (rng.random(m) < p).astype(float)
    h = csr(graph) @ z
    y = alpha + beta * h + rng.normal(0, noise, n)
    y_pre = alpha + rng.normal(0, 0.3, n)
    var_h = p * (1 - p) * graph.row_sumsq()
    return make_panel(h, y, y_pre=y_pre, p=p, var_h=var_h), graph, alpha, beta


class TestErl:
    def test_zero_outcome_gives_zero(self):
        panel = make_panel([0.3], [0.0])
        assert erl_estimate(panel).tau_hat == 0.0

    def test_centered_exposure_gives_zero(self):
        panel = make_panel([0.5, 0.5, 0.5], [3.0, -1.0, 7.0])
        assert erl_estimate(panel).tau_hat == 0.0

    def test_matches_formula(self, rng):
        panel, *_ = simulated_panel(rng)
        expected = np.mean(panel.y_in * (panel.h - panel.e_h) / panel.var_h)
        assert erl_estimate(panel).tau_hat == pytest.approx(expected, abs=1e-12)

    def test_unbiased_under_linear_response(self, rng):
        # oracle: ground truth tau = mean(beta) under the linear model
        m, n, p = 120, 80, 0.5
        graph = random_sparse_graph(rng, m, n)
        alpha = rng.normal(0, 1, n)
        beta = rng.normal(1, 0.3, n)
        W = csr(graph)
        var_h = p * (1 - p) * graph.row_sumsq()
        reps = 2000
        taus = np.empty(reps)
        for r in range(reps):
            z = (rng.random(m) < p).astype(float)
            h = W @ z
            y = alpha + beta * h
            taus[r] = np.mean(y * (h - p) / var_h)
        mc_se = taus.std(ddof=1) / np.sqrt(reps)
        assert abs(taus.mean() - beta.mean()) <= 3 * mc_se

    def test_empty_panel_error(self):
        with pytest.raises(EstimationError, match="empty"):
            erl_estimate(make_panel([], []))

    def test_large_panel_sums_its_terms_exactly(self, rng):
        # from COMPENSATED_SUM_THRESHOLD units on, tau_hat is the correctly
        # rounded mean of the terms, in any row order
        n = COMPENSATED_SUM_THRESHOLD
        # terms of order 1 plus pairs of order 1e16 that cancel exactly
        terms = rng.normal(size=n)
        big = rng.normal(size=n // 4) * 1e16
        terms[: n // 2] = np.concatenate([big, -big])
        terms = rng.permutation(terms)
        h = rng.integers(0, 2, n).astype(float)
        # each weight is +-2, so y = terms / weight is exact
        panel = make_panel(h, terms / ((h - 0.5) / 0.25))
        assert (panel.y_in * exposure_weights(panel) == terms).all()
        want = math.fsum(terms) / n
        # terms a plain np.sum rounds differently, in either order
        perm = rng.permutation(n)
        assert float(np.sum(terms)) / n != want != float(np.sum(terms[perm])) / n
        assert erl_estimate(panel).tau_hat == want
        assert erl_estimate(panel.subset(perm)).tau_hat == want

    def test_affine_shift_identity(self, rng):
        panel, *_ = simulated_panel(rng)
        c = 2.5
        shifted = make_panel(
            panel.h, panel.y_in + c, p=panel.p, var_h=panel.var_h
        )
        w_mean = np.mean(exposure_weights(panel))
        delta = erl_estimate(shifted).tau_hat - erl_estimate(panel).tau_hat
        assert delta == pytest.approx(c * w_mean, abs=1e-9)

    def test_scale_equivariance(self, rng):
        panel, *_ = simulated_panel(rng)
        scaled = make_panel(panel.h, 3.0 * panel.y_in, p=panel.p, var_h=panel.var_h)
        assert erl_estimate(scaled).tau_hat == pytest.approx(
            3.0 * erl_estimate(panel).tau_hat, rel=1e-12
        )


class TestRegression:
    def test_exact_linear_fit(self):
        h = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        y = 2.0 + 3.0 * h
        est = regression_estimate(make_panel(h, y))
        assert est.tau_hat == pytest.approx(3.0, abs=1e-9)
        assert est.diagnostics["alpha"] == pytest.approx(2.0, abs=1e-9)

    def test_exact_fit_with_pre(self):
        h = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.1])
        y_pre = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.7])
        y = 2.0 + 3.0 * h + 1.0 * y_pre
        est = regression_estimate(make_panel(h, y, y_pre=y_pre), use_pre=True)
        assert est.tau_hat == pytest.approx(3.0, abs=1e-9)
        assert est.diagnostics["psi"] == pytest.approx(1.0, abs=1e-9)
        assert est.estimator == "reg_pre"

    def test_matches_normal_equations_oracle(self, rng):
        panel, *_ = simulated_panel(rng)
        X = np.column_stack([np.ones(panel.n), panel.h, panel.y_pre])
        coef = np.linalg.solve(X.T @ X, X.T @ panel.y_in)
        est = regression_estimate(panel, use_pre=True)
        assert est.tau_hat == pytest.approx(coef[1], abs=1e-8)

    def test_constant_exposure_errors(self):
        panel = make_panel([0.5] * 5, [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(CollinearDesignError, match="no exposure variation"):
            regression_estimate(panel)

    def test_outcome_shift_invariance(self, rng):
        panel, *_ = simulated_panel(rng)
        shifted = make_panel(panel.h, panel.y_in + 10.0, p=panel.p, var_h=panel.var_h)
        assert regression_estimate(shifted).tau_hat == pytest.approx(
            regression_estimate(panel).tau_hat, abs=1e-9
        )

    def test_heteroskedasticity_diagnostic_present(self, rng):
        panel, *_ = simulated_panel(rng)
        est = regression_estimate(panel)
        assert "breusch_pagan" in est.diagnostics
        assert est.diagnostics["breusch_pagan"] >= 0.0
        assert 0.0 <= est.diagnostics["r_squared"] <= 1.0


class TestCrErl:
    def test_lambda_zero_equals_erl(self, rng):
        panel, *_ = simulated_panel(rng)
        assert crerl_estimate(panel, lam=0.0).tau_hat == erl_estimate(panel).tau_hat

    def test_zero_covariate_any_lambda(self, rng):
        panel, *_ = simulated_panel(rng)
        dead = make_panel(
            panel.h, panel.y_in, y_pre=np.zeros(panel.n), p=panel.p, var_h=panel.var_h
        )
        for lam in (-2.0, 0.0, 5.0):
            assert crerl_estimate(dead, lam=lam).tau_hat == pytest.approx(
                erl_estimate(panel).tau_hat, abs=1e-15
            )

    def test_degenerate_covariate_falls_back_to_erl(self, rng):
        panel, *_ = simulated_panel(rng)
        dead = make_panel(
            panel.h, panel.y_in, y_pre=np.zeros(panel.n), p=panel.p, var_h=panel.var_h
        )
        with pytest.warns(UserWarning, match="lambda = 0"):
            est = crerl_estimate(dead)
        assert est.lam == 0.0
        assert est.tau_hat == erl_estimate(panel).tau_hat

    def test_affine_in_lambda(self, rng):
        panel, *_ = simulated_panel(rng)
        w = exposure_weights(panel)
        mean_b = np.mean(panel.y_pre * w)
        tau0 = crerl_estimate(panel, lam=0.0).tau_hat
        for lam in (0.5, 1.0, -1.7):
            assert crerl_estimate(panel, lam=lam).tau_hat == pytest.approx(
                tau0 - lam * mean_b, abs=1e-10
            )

    def test_optimal_lambda_is_ratio_of_moments(self, rng):
        panel, *_ = simulated_panel(rng)
        w = exposure_weights(panel)
        a, b = panel.y_in * w, panel.y_pre * w
        lam_expected = np.cov(a, b, ddof=1)[0, 1] / np.var(b, ddof=1)
        assert crerl_estimate(panel).lam == pytest.approx(lam_expected, rel=1e-12)

    def test_variance_reduction_with_predictive_covariate(self, rng):
        # oracle: randomization distribution over 2000 fresh assignments
        m, n, p = 150, 100, 0.5
        graph = random_sparse_graph(rng, m, n)
        alpha = rng.normal(0, 2.0, n)
        beta = rng.normal(1, 0.2, n)
        y_pre = alpha + rng.normal(0, 0.5, n)  # corr(alpha, y_pre) > 0.9
        W = csr(graph)
        var_h = p * (1 - p) * graph.row_sumsq()
        erl_taus, cr_taus = [], []
        for _ in range(2000):
            z = (rng.random(m) < p).astype(float)
            h = W @ z
            y = alpha + beta * h + rng.normal(0, 0.3, n)
            panel = make_panel(h, y, y_pre=y_pre, p=p, var_h=var_h)
            erl_taus.append(erl_estimate(panel).tau_hat)
            cr_taus.append(crerl_estimate(panel).tau_hat)
        assert np.var(cr_taus) < np.var(erl_taus)

    def test_requires_pre(self, rng):
        panel, *_ = simulated_panel(rng)
        bare = make_panel(panel.h, panel.y_in, p=panel.p, var_h=panel.var_h)
        with pytest.raises(EstimationError):
            crerl_estimate(bare)


class TestMonteCarloRecovery:
    @pytest.mark.parametrize("estimator_id", ["erl", "reg", "reg_pre", "crerl"])
    def test_all_estimators_recover_mean_slope(self, rng, estimator_id):
        m, n, p = 150, 100, 0.5
        graph = random_sparse_graph(rng, m, n)
        alpha = rng.normal(0, 1, n)
        beta = rng.normal(1, 0.25, n)
        y_pre = 0.8 * alpha + rng.normal(0, 0.6, n)
        W = csr(graph)
        var_h = p * (1 - p) * graph.row_sumsq()
        reps = 2000
        taus = np.empty(reps)
        for r in range(reps):
            z = (rng.random(m) < p).astype(float)
            h = W @ z
            y = alpha + beta * h + rng.normal(0, 0.3, n)
            panel = make_panel(h, y, y_pre=y_pre, p=p, var_h=var_h)
            taus[r] = point_estimate(panel, estimator_id).tau_hat
        mc_se = taus.std(ddof=1) / np.sqrt(reps)
        assert abs(taus.mean() - beta.mean()) <= 3 * mc_se


@settings(max_examples=50, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=50.0),
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=-10, max_value=10),
        ),
        min_size=3,
        max_size=40,
    ),
)
def test_erl_scale_equivariance_property(scale, data):
    h = np.array([d[0] for d in data])
    y = np.array([d[1] for d in data])
    base = erl_estimate(make_panel(h, y)).tau_hat
    scaled = erl_estimate(make_panel(h, scale * y)).tau_hat
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-9)
