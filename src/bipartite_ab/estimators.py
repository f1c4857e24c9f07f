"""Point estimators for the seller-side average treatment effect.

All three estimators consume an ExposurePanel:

* ERL:    tau = (1/n) sum_i Y_i (h_i - E[H_i]) / Var[H_i]
* REG:    OLS of y_in on [1, h] (optionally + y_pre = f); tau = slope on h
* CR-ERL: tau(lambda) = (1/n) sum_i (Y_i - lambda * y_pre_i) W_i
          with W_i = (h_i - E[H_i]) / Var[H_i]; lambda chosen to minimize
          the empirical variance of the per-unit terms.

REG solves centred sums S_xz = sum_i (x_i - mean x)(z_i - mean z): tau =
S_hy / S_hh, or (tau, psi) = [[S_hh, S_hf], [S_hf, S_ff]]^-1 (S_hy, S_fy);
alpha = mean(y - tau h - psi f), r^2 = 1 - RSS / S_yy, and Breusch-Pagan
(1979) is n times the r^2 of the squared residuals on the same design. A
design is collinear, as in pivoted Householder QR (Businger & Golub 1965)
under scipy's rule, when some |r_jj| <= max |r_jj| max(n, k) eps. The sums'
sufficient test (_rank_bound, GRAM_REL) settles most designs; a numpy QR,
which then gives the slopes, settles the rest. No scipy is imported.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exposure import ExposurePanel

EPS_COVARIATE_VAR = 1e-12
EPS_MACH = float(np.finfo(float).eps)
# REG's design is factorized when the centred sums put it within this
# factor of the pivoted-QR rank tolerance ...
QR_MARGIN = 1e6
# ... or when h and y_pre are so nearly collinear within it that the 2x2
# centred solve would lose more than ~eps / GRAM_REL of its precision.
GRAM_REL = 1e-4

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


def weighted_mean(x: np.ndarray, c) -> np.ndarray:
    """Mean along x's last axis, weighted by the rows of c (None: unit weights)."""
    # 1.0 * x == x, so unit weights need no multiply
    return (x if c is None else c * x).sum(axis=-1) / x.shape[-1]


def centred(x: np.ndarray, c):
    """(weighted mean, x less it, that times c) along x's last axis."""
    m = weighted_mean(x, c)
    d = x - m[..., None]
    return m, d, d if c is None else c * d


def ols_design(h: np.ndarray, f, c):
    """(exact, slopes) of the design [1, h (, f)] weighted by each row of c or
    h: `slopes(y)` solves the centred sums for y's slopes on h (and f), and
    `exact` marks the rows whose rank they cannot settle."""
    n = h.shape[-1]
    m_h, dh, cdh = centred(h, c)
    s_hh = (cdh * dh).sum(axis=-1)
    q_h = n * m_h**2 + s_hh  # the squared column norms are n, q_h (and q_f)
    if f is None:
        det, accurate, q_f = s_hh, True, None
    else:
        m_f, df, cdf = centred(f, c)
        s_ff = (cdf * df).sum(axis=-1)
        s_hf = (cdh * df).sum(axis=-1)
        det = s_hh * s_ff - s_hf**2
        accurate = det > GRAM_REL * s_hh * s_ff
        q_f = n * m_f**2 + s_ff

    def slopes(y):
        s_hy = (cdh * y).sum(axis=-1)
        if f is None:
            return (s_hy / s_hh,)
        s_fy = (cdf * y).sum(axis=-1)
        return (s_ff * s_hy - s_hf * s_fy) / det, (s_hh * s_fy - s_hf * s_hy) / det

    return ~(accurate & (n * det > _rank_bound(n, q_h, q_f))), slopes


# Pivoted QR takes |r_11| = the largest column norm, its |r_jj| do not
# increase, and prod r_jj^2 = det(X'X) = n * det. With q_1 >= q_2 >= ... the
# squared column norms, the last |r_kk|^2 is at least
# n * det / (q_1 ... q_{k-1}); the rank test fails at |r_kk| <= sqrt(q_1) * n * eps.
def _rank_bound(n, q_h, q_f=None):
    """(QR_MARGIN n eps)^2 q_1 (q_1 ... q_{k-1}) of the squared column norms n, q_h (, q_f)."""
    q_1 = q_prod = np.maximum(n, q_h)
    if q_f is not None:
        q_1, q_2 = np.maximum(q_1, q_f), np.maximum(np.minimum(n, q_h), np.minimum(q_1, q_f))
        q_prod = q_1 * q_2
    return (QR_MARGIN * n * EPS_MACH) ** 2 * q_1 * q_prod


# a column norm that overflows makes tol infinite: the design is refused, as
# scipy refuses a column so much larger than the intercept's
@np.errstate(over="ignore", invalid="ignore")
def _qr_slopes(X: np.ndarray, y: np.ndarray) -> tuple:
    """The slopes of y on X (n x k, the intercept first) by pivoted Householder QR
    of [X, y]: step j reflects the remaining column of largest norm onto r_jj e_j,
    and |r_jj| <= max |r_jj| max(n, k) eps, the max being |r_11|, is collinear."""
    n, k = X.shape
    A, piv = np.column_stack((X, y)), np.arange(k)
    tol = math.sqrt(np.einsum("ij,ij->j", X, X).max()) * max(n, k) * EPS_MACH
    for j in range(k):
        p = j + int(np.argmax(np.einsum("ij,ij->j", A[j:, j:k], A[j:, j:k])))
        A[:, [j, p]], piv[[j, p]] = A[:, [p, j]], piv[[p, j]]
        v = A[j:, j].copy()
        r_jj = -math.copysign(float(np.linalg.norm(v)), v[0])
        if abs(r_jj) <= tol:
            raise CollinearDesignError("no exposure variation (collinear design matrix)")
        v[0] -= r_jj
        v /= np.linalg.norm(v)
        A[j:, j:] -= np.outer(2.0 * v, v @ A[j:, j:])
    coef = np.empty(k)
    coef[piv] = np.linalg.solve(np.triu(A[:k, :k]), A[:k, k])
    return tuple(coef[1:])


def regression_estimate(panel: ExposurePanel, use_pre: bool = False) -> PointEstimate:
    """OLS of y_in on intercept + exposure (+ y_pre); tau = exposure slope."""
    _check_panel(panel, need_pre=use_pre)
    f, n = panel.y_pre if use_pre else None, panel.n
    cols = (panel.h,) if f is None else (panel.h, f)
    if n <= len(cols) + 1:
        raise EstimationError(f"need more than {len(cols) + 1} units, got {n}")
    # sums that overflow settle nothing: the QR decides
    with np.errstate(over="ignore", invalid="ignore"):
        exact, slopes = ols_design(panel.h, f, None)
    if exact:
        slopes = functools.partial(_qr_slopes, np.column_stack((np.ones(n), *cols)))

    # (slopes, intercept, residuals, r^2) of the OLS of y; r^2 is `constant`
    # for a constant y
    def fit(y, constant):
        d = y - y.sum() / n
        b = slopes(d)
        e = y - sum(x * b_x for x, b_x in zip(cols, b))
        alpha = e.sum() / n
        resid, tss = e - alpha, float((d * d).sum())
        return b, alpha, resid, (1.0 - float((resid * resid).sum()) / tss if tss > 0 else constant)

    b, alpha, resid, r2 = fit(panel.y_in, 1.0)
    diagnostics = {"alpha": float(alpha), "r_squared": r2,
                   "breusch_pagan": n * fit(resid**2, 0.0)[3]}
    if use_pre:
        diagnostics["psi"] = float(b[1])
    return PointEstimate(
        estimator="reg_pre" if use_pre else "reg",
        tau_hat=float(b[0]),
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
