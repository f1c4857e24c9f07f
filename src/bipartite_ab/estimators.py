"""Point estimators for the seller-side average treatment effect.

All three estimators consume an ExposurePanel:

* ERL:    tau = (1/n) sum_i Y_i (h_i - E[H_i]) / Var[H_i]
* REG:    OLS of y_in on [1, h] (optionally + y_pre); tau = slope on h
* CR-ERL: tau(lambda) = (1/n) sum_i (Y_i - lambda * y_pre_i) W_i
          with W_i = (h_i - E[H_i]) / Var[H_i]; lambda chosen to minimize
          the empirical variance of the per-unit terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exposure import ExposurePanel

EPS_COVARIATE_VAR = 1e-12

# Above this size a compensated (exact) sum is used for the final
# reduction so results are permutation-stable at marketplace scale.
COMPENSATED_SUM_THRESHOLD = 1_000_000


class EstimationError(ValueError):
    pass


class CollinearDesignError(EstimationError):
    pass


@dataclass
class PointEstimate:
    estimator: str
    tau_hat: float
    n_units: int
    lam: float | None = None
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_units < 1:
            raise EstimationError("estimate over an empty panel")
        if (self.lam is not None) != (self.estimator == "crerl"):
            raise EstimationError("lambda is set iff the estimator is crerl")


def stable_mean(x: np.ndarray) -> float:
    """Mean with a compensated reduction for very large vectors."""
    n = len(x)
    if n == 0:
        raise EstimationError("mean of empty vector")
    if n >= COMPENSATED_SUM_THRESHOLD:
        return math.fsum(x) / n
    return float(np.sum(x)) / n


def _check_panel(panel: ExposurePanel, need_pre: bool = False):
    if panel.n == 0:
        raise EstimationError("empty panel")
    if np.any(panel.var_h <= 0):
        raise EstimationError("panel contains units with non-positive Var[H]")
    if need_pre:
        if panel.y_pre is None:
            raise EstimationError("pre-period outcomes required but absent")
        if np.any(~np.isfinite(panel.y_pre)):
            raise EstimationError("pre-period outcomes contain missing values")


def exposure_weights(panel: ExposurePanel) -> np.ndarray:
    """Per-unit ERL weights W_i = (h_i - E[H_i]) / Var[H_i]."""
    return (panel.h - panel.e_h) / panel.var_h


def erl_estimate(panel: ExposurePanel) -> PointEstimate:
    """Exposure-reweighted linear estimator of the ATE."""
    _check_panel(panel)
    w = exposure_weights(panel)
    terms = panel.y_in * w
    tau = stable_mean(terms)
    return PointEstimate(
        estimator="erl",
        tau_hat=tau,
        n_units=panel.n,
        diagnostics={
            "mean_weight": stable_mean(w),
            "term_sd": float(np.std(terms, ddof=1)) if panel.n > 1 else 0.0,
        },
    )


def _solve_ols(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """OLS via pivoted QR; rank deficiency is a hard error (a silent
    pseudo-inverse would hide a degenerate design such as constant h)."""
    import scipy.linalg  # here, so that runs without REG never import scipy

    n, k = X.shape
    if n <= k:
        raise EstimationError(f"need more than {k} units, got {n}")
    q, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(n, k) * np.finfo(float).eps
    if np.any(diag <= tol):
        raise CollinearDesignError("no exposure variation (collinear design matrix)")
    coef_piv = scipy.linalg.solve_triangular(r, q.T @ y)
    coef = np.empty(k)
    coef[piv] = coef_piv
    resid = y - X @ coef
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / tss if tss > 0 else 1.0
    return coef, resid, r2


def _breusch_pagan(X: np.ndarray, resid: np.ndarray) -> float:
    """Score statistic n*R^2 from regressing squared residuals on X."""
    u2 = resid**2
    if float(np.sum((u2 - u2.mean()) ** 2)) <= 0:
        return 0.0
    # cannot raise CollinearDesignError: the rank test reads only X, which the fit passed
    return len(resid) * _solve_ols(X, u2)[2]


def regression_estimate(panel: ExposurePanel, use_pre: bool = False) -> PointEstimate:
    """OLS of y_in on intercept + exposure (+ y_pre); tau = exposure slope."""
    _check_panel(panel, need_pre=use_pre)
    cols = [np.ones(panel.n), panel.h]
    if use_pre:
        cols.append(panel.y_pre)
    X = np.column_stack(cols)
    coef, resid, r2 = _solve_ols(X, panel.y_in)
    diagnostics = {
        "alpha": float(coef[0]),
        "r_squared": r2,
        "breusch_pagan": _breusch_pagan(X, resid),
    }
    if use_pre:
        diagnostics["psi"] = float(coef[2])
    return PointEstimate(
        estimator="reg_pre" if use_pre else "reg",
        tau_hat=float(coef[1]),
        n_units=panel.n,
        diagnostics=diagnostics,
    )


def crerl_estimate(panel: ExposurePanel, lam: float | None = None) -> PointEstimate:
    """Covariate-adjusted ERL with pre-period outcome as the covariate.

    With lam=None the variance-minimizing coefficient
    lambda* = Cov(Y_i W_i, f_i W_i) / Var(f_i W_i) is used; a (near)
    constant adjusted term falls back to lambda = 0, i.e. plain ERL.
    """
    _check_panel(panel, need_pre=True)
    w = exposure_weights(panel)
    a = panel.y_in * w
    b = panel.y_pre * w
    diagnostics: dict[str, float] = {}
    if lam is None:
        var_b = float(np.var(b, ddof=1)) if panel.n > 1 else 0.0
        if var_b < EPS_COVARIATE_VAR:
            warnings.warn(
                "covariate term has (near) zero variance; "
                "falling back to lambda = 0 (plain ERL)",
                stacklevel=2,
            )
            lam = 0.0
        else:
            cov_ab = float(np.cov(a, b, ddof=1)[0, 1])
            lam = cov_ab / var_b
            diagnostics["cov_ab"] = cov_ab
            diagnostics["var_b"] = var_b
    tau = stable_mean(a) - lam * stable_mean(b)
    diagnostics["mean_adjustment"] = lam * stable_mean(b)
    return PointEstimate(
        estimator="crerl",
        tau_hat=tau,
        n_units=panel.n,
        lam=float(lam),
        diagnostics=diagnostics,
    )


ESTIMATOR_IDS = ("erl", "reg", "reg_pre", "crerl")


def point_estimate(panel: ExposurePanel, estimator_id: str) -> PointEstimate:
    """Dispatch on an estimator id from ESTIMATOR_IDS."""
    if estimator_id == "erl":
        return erl_estimate(panel)
    if estimator_id == "reg":
        return regression_estimate(panel, use_pre=False)
    if estimator_id == "reg_pre":
        return regression_estimate(panel, use_pre=True)
    if estimator_id == "crerl":
        return crerl_estimate(panel)
    raise EstimationError(f"unknown estimator {estimator_id!r}")
