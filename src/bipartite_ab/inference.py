"""Resampling inference and the exact pairwise variance estimator.

Three methods:

* bootstrap_ci: percentile bootstrap over outcome units (panel rows).
* randomization_ci: Monte Carlo re-draws of the assignment vector; the
  estimator is recomputed per draw with realized outcomes held fixed and
  the interval is point +/- z * sd(draws).
* pairwise_variance: the design-based variance estimator
  V = (1/n^2) sum_ij Y_i Y_j R_ij(H_i, H_j), where each R_ij is the
  affine-in-(H_i H_j, H_i, H_j, 1) weighting whose design expectation
  matches Cov(tau_i, tau_j) under the linear response model. The exposure
  moments come from closed-form Bernoulli cumulants and sparse products
  over the O(n + overlapping pairs) structure, and the weightings are
  solved as batched 3x3 and 4x4 systems. An n_max limit guards the
  quadratic worst case, in which every pair of units overlaps.

All methods are pure functions of (inputs, seed, replications): each
replicate derives its generator from (seed, replicate index).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.stats import norm

from .estimators import (
    ESTIMATOR_IDS,
    EstimationError,
    PointEstimate,
    crerl_estimate,
    point_estimate,
)
from .exposure import ExposurePanel, assemble_panel, effective_treatment_prob
from .graph import BipartiteGraph
from .ingest import AssignmentTable, OutcomeTable

MIN_REPLICATIONS = 200
DEFAULT_REPLICATIONS = 1000
PAIRWISE_N_MAX = 5000
EPS_DET = 1e-12
COND_MAX = 1e12


class InferenceError(ValueError):
    pass


class BootstrapFailureError(InferenceError):
    pass


class PairwiseSizeError(InferenceError):
    pass


class DegeneratePairError(InferenceError):
    pass


@dataclass
class IntervalEstimate:
    point: PointEstimate
    ci_low: float
    ci_high: float
    level: float
    method: str
    replications: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise InferenceError(f"level {self.level} outside (0,1)")
        if self.ci_low > self.ci_high:
            raise InferenceError("ci_low exceeds ci_high")

    @property
    def width(self) -> float:
        return self.ci_high - self.ci_low


def _replicate_rngs(seed: int, replications: int):
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(replications)
    ]


def _validate_common(estimator_id: str, replications: int, level: float):
    if estimator_id not in ESTIMATOR_IDS:
        raise InferenceError(f"unknown estimator {estimator_id!r}")
    if replications < MIN_REPLICATIONS:
        raise InferenceError(
            f"replications must be >= {MIN_REPLICATIONS}, got {replications}"
        )
    if not 0.0 < level < 1.0:
        raise InferenceError(f"level {level} outside (0,1)")


def bootstrap_ci(
    panel: ExposurePanel,
    estimator_id: str,
    replications: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    level: float = 0.95,
) -> IntervalEstimate:
    """Percentile bootstrap resampling outcome units with replacement.

    Each replicate redraws n panel rows and recomputes the estimator;
    estimator failures in more than 1% of replicates abort the interval.
    """
    _validate_common(estimator_id, replications, level)
    point = point_estimate(panel, estimator_id)
    n = panel.n
    taus = np.empty(replications)
    failures = 0
    for r, rng in enumerate(_replicate_rngs(seed, replications)):
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
    return IntervalEstimate(
        point=point,
        ci_low=float(lo),
        ci_high=float(hi),
        level=level,
        method="bootstrap",
        replications=replications,
        seed=seed,
    )


def randomization_ci(
    graph: BipartiteGraph,
    assignments: AssignmentTable,
    outcomes: OutcomeTable,
    estimator_id: str,
    replications: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    level: float = 0.95,
    treatment: str | None = None,
    control: str | None = None,
    allow_missing_outcomes: bool = False,
) -> IntervalEstimate:
    """Monte Carlo randomization interval.

    Fresh assignment vectors are drawn from the declared design, the
    exposures recomputed per draw, and the estimator re-evaluated with the
    realized outcomes held fixed; the sd of these draws yields a symmetric
    normal-quantile interval around the point estimate.
    """
    _validate_common(estimator_id, replications, level)
    if treatment is None:
        non_control = [v for v in assignments.labels if v != assignments.control_label]
        if len(non_control) != 1:
            raise InferenceError("treatment label required for multi-variant designs")
        treatment = non_control[0]
    panel, _ = assemble_panel(
        graph,
        assignments,
        outcomes,
        treatment,
        control=control,
        allow_missing_outcomes=allow_missing_outcomes,
    )
    point = point_estimate(panel, estimator_id)
    p = effective_treatment_prob(assignments, treatment, control)
    matrix = graph.matrix()
    m = graph.n_buyers
    rows = panel.graph_rows
    taus = np.empty(replications)
    lam = point.lam
    for r, rng in enumerate(_replicate_rngs(seed, replications)):
        z = (rng.random(m) < p).astype(np.float64)
        h = (matrix @ z)[rows]
        draw = ExposurePanel(
            seller_ids=panel.seller_ids,
            h=h,
            e_h=panel.e_h,
            var_h=panel.var_h,
            y_in=panel.y_in,
            y_pre=panel.y_pre,
            p=panel.p,
            graph_rows=rows,
            treatment=panel.treatment,
            control=panel.control,
        )
        if estimator_id == "crerl":
            taus[r] = crerl_estimate(draw, lam=lam).tau_hat
        else:
            taus[r] = point_estimate(draw, estimator_id).tau_hat
    sd = float(np.std(taus, ddof=1))
    z_crit = float(norm.ppf(0.5 + level / 2.0))
    return IntervalEstimate(
        point=point,
        ci_low=point.tau_hat - z_crit * sd,
        ci_high=point.tau_hat + z_crit * sd,
        level=level,
        method="randomization",
        replications=replications,
        seed=seed,
    )


# --- pairwise design-based variance estimator -----------------------------


@dataclass
class JointMomentTable:
    """Exact exposure moments under independent Bernoulli(p) assignment.

    `uni[i, k]` holds E[H_i^k] for k = 0..4 (panel-indexed). The pairs of
    units with overlapping buyer neighborhoods are (pair_i[t], pair_j[t]),
    i < j, in (i, j) order, and `pairs[t]` is their 3x3 table
    T[a, b] = E[H_i^a H_j^b]. Disjoint pairs are not stored: their matched
    weighting is identically zero.
    """

    p: float
    uni: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    pairs: np.ndarray


def _bernoulli_cumulants(p: float) -> np.ndarray:
    """k_1..k_4 of a Bernoulli(p) draw (index 0 unused)."""
    q = 1.0 - p
    return np.array([0.0, p, p * q, p * q * (1 - 2 * p), p * q * (1 - 6 * p * q)])


def exposure_moment_table(
    graph: BipartiteGraph, p: float, rows: np.ndarray
) -> JointMomentTable:
    """Univariate moments for every panel unit plus joint moments for every
    pair of units sharing at least one buyer.

    `rows` maps panel index -> graph row, as in ExposurePanel.graph_rows.
    H_i = sum_r w_ir Z_r sums independent draws, so cumulants add up:
    kappa_j(H_i) = k_j sum_r w_ir^j, and the joint cumulant of a copies of
    H_i with b copies of H_j is k_{a+b} S_ab, where S_ab = sum_r w_ir^a w_jr^b
    runs over the shared buyers. The moments follow from the
    moment-cumulant identities, and every S_ab is a sparse product.
    """
    k = _bernoulli_cumulants(p)
    W = graph.matrix()[np.asarray(rows)]
    W2 = W.multiply(W).tocsr()
    c1, c2, c3, c4 = (
        k[r] * np.asarray(W.power(r).sum(axis=1)).ravel() for r in range(1, 5)
    )
    uni = np.column_stack(
        [
            np.ones_like(c1),
            c1,
            c2 + c1**2,
            c3 + 3 * c2 * c1 + c1**3,
            c4 + 4 * c3 * c1 + 3 * c2**2 + 6 * c2 * c1**2 + c1**4,
        ]
    )

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
    T[:, :, 0] = uni[i, :3]
    T[:, 0, :] = uni[j, :3]
    T[:, 1, 1] = k11 + x1 * y1
    T[:, 2, 1] = k21 + 2 * k11 * x1 + x2 * y1 + x1**2 * y1
    T[:, 1, 2] = k12 + 2 * k11 * y1 + y2 * x1 + x1 * y1**2
    T[:, 2, 2] = (
        k22 + 2 * k21 * y1 + 2 * k12 * x1 + x2 * y2 + 2 * k11**2
        + x2 * y1**2 + y2 * x1**2 + 4 * k11 * x1 * y1 + x1**2 * y1**2
    )
    return JointMomentTable(p=p, uni=uni, pair_i=i, pair_j=j, pairs=T)


def _solve_where(M: np.ndarray, rhs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Solve M[t] x = rhs[t] for every t in `mask` as one batch; NaN for the
    others and for systems that are exactly singular."""
    sol = np.full(rhs.shape, np.nan)
    if not mask.any():
        return sol
    # a full mask selects by slice, which views the systems instead of copying
    sel = slice(None) if mask.all() else mask
    try:
        sol[sel] = np.linalg.solve(M[sel], rhs[sel][..., None])[..., 0]
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


def _pair_system(T, mi, mj, vi, vj) -> tuple[np.ndarray, np.ndarray]:
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


@dataclass
class PairwiseVariance:
    value: float
    n_units: int
    n_pairs_evaluated: int
    degenerate_pairs: list[tuple[str, str]]
    policy: str
    degenerate_units: list[str] = field(default_factory=list)


def pairwise_variance(
    panel: ExposurePanel,
    joint_moments: JointMomentTable,
    policy: str = "merge",
    eps_det: float = EPS_DET,
    n_max: int = PAIRWISE_N_MAX,
    force: bool = False,
) -> PairwiseVariance:
    """Design-based variance estimate via pair-level moment matching.

    Units whose exposure takes fewer than three values (e.g. single-buyer
    sellers) get the minimum-norm least-squares weighting and are listed
    as degenerate. Pairs whose exposure covariance matrix is (near)
    singular — e.g. two sellers with identically weighted edges — are
    flagged and handled per `policy`: 'merge' adds a conservative
    product-of-sds upper bound, 'drop' zeroes them with a warning, 'strict'
    raises. The quadratic worst case is guarded by `n_max` (use the
    bootstrap beyond it).
    """
    if policy not in ("merge", "drop", "strict"):
        raise InferenceError(f"unknown degeneracy policy {policy!r}")
    n = panel.n
    if n > n_max and not force:
        raise PairwiseSizeError(
            f"n={n} exceeds n_max={n_max}; the pairwise estimator is O(n^2), "
            "use bootstrap_ci instead (or pass force=True)"
        )
    uni = joint_moments.uni
    if uni.shape[0] != n:
        raise InferenceError("moment table does not match panel size")
    ids = panel.seller_ids
    y = panel.y_in
    h = panel.h

    M, rhs = _diag_system(uni)
    regular = np.linalg.cond(M) < COND_MAX
    coef = _solve_where(M, rhs, regular)
    regular &= np.isfinite(coef).all(axis=1)
    singular = np.flatnonzero(~regular)
    degenerate_units = [ids[t] for t in singular.tolist()]
    if degenerate_units and policy == "strict":
        raise DegeneratePairError(
            f"unit {degenerate_units[0]!r} has a degenerate exposure "
            "distribution (fewer than three support points)"
        )
    for t in singular:
        coef[t] = np.linalg.lstsq(M[t], rhs[t], rcond=None)[0]
    diag = y * y * (coef[:, 0] * h * h + coef[:, 1] * h + coef[:, 2])
    unit_sd = np.sqrt(np.maximum(diag, 0.0))

    i, j, T = joint_moments.pair_i, joint_moments.pair_j, joint_moments.pairs
    mi, mj = uni[i, 1], uni[j, 1]
    vi = uni[i, 2] - mi * mi
    vj = uni[j, 2] - mj * mj
    cov = T[:, 1, 1] - mi * mj
    M, rhs = _pair_system(T, mi, mj, vi, vj)
    ok = vi * vj - cov * cov > eps_det
    coef = _solve_where(M, rhs, ok)
    ok &= np.isfinite(coef).all(axis=1)
    bad = np.flatnonzero(~ok)
    degenerate = [(ids[a], ids[b]) for a, b in zip(i[bad].tolist(), j[bad].tolist())]
    if degenerate and policy == "strict":
        raise DegeneratePairError(
            f"degenerate exposure pair {degenerate[0]!r}: det(Sigma) <= {eps_det}"
        )
    hi, hj = h[i], h[j]
    matched = 2.0 * y[i] * y[j] * (
        coef[:, 0] * hi * hj + coef[:, 1] * hi + coef[:, 2] * hj + coef[:, 3]
    )
    fallback = 2.0 * unit_sd[i] * unit_sd[j] if policy == "merge" else 0.0
    total = float(diag.sum() + np.where(ok, matched, fallback).sum())
    if degenerate and policy == "drop":
        warnings.warn(
            f"{len(degenerate)} degenerate exposure pairs dropped from the "
            "variance estimate",
            stacklevel=2,
        )
    return PairwiseVariance(
        value=total / (n * n),
        n_units=n,
        n_pairs_evaluated=int(ok.sum()),
        degenerate_pairs=degenerate,
        policy=policy,
        degenerate_units=degenerate_units,
    )


def pairwise_variance_ci(
    panel: ExposurePanel,
    joint_moments: JointMomentTable,
    level: float = 0.95,
    **kwargs,
) -> IntervalEstimate:
    """Normal-quantile interval for the ERL estimate using the pairwise
    variance estimate (clipped at zero)."""
    from .estimators import erl_estimate

    point = erl_estimate(panel)
    pv = pairwise_variance(panel, joint_moments, **kwargs)
    sd = float(np.sqrt(max(pv.value, 0.0)))
    z_crit = float(norm.ppf(0.5 + level / 2.0))
    return IntervalEstimate(
        point=point,
        ci_low=point.tau_hat - z_crit * sd,
        ci_high=point.tau_hat + z_crit * sd,
        level=level,
        method="pairwise",
        replications=0,
        seed=0,
    )
