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
  solved as batched 3x3 and 4x4 systems. A PAIRWISE_N_MAX limit guards the
  quadratic worst case, in which every pair of units overlaps.

The resampling methods evaluate a memory-bounded block of replicates at
once: a bootstrap block as a count matrix over the panel's units, a
randomization block as a stack of assignment draws. A replicate near one
of an estimator's decision boundaries is recomputed by the estimator
itself, so failures count and raise as they would replicate by replicate.
All methods are pure functions of (inputs, seed, replications): an
interval draws its replicates in order from one generator,
default_rng(seed), and every per-replicate sum runs along one row, so
the block size does not change the interval.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.stats import norm

# crerl_estimate and assemble_panel are not called here; perfbench's tracer
# wraps them under this module's name, so they stay importable from inference.
from .estimators import (
    EPS_COVARIATE_VAR,
    ESTIMATOR_IDS,
    EstimationError,
    PointEstimate,
    crerl_estimate,  # noqa: F401
    point_estimate,
)
from .exposure import ExposurePanel, assemble_panel  # noqa: F401
from .graph import BipartiteGraph

MIN_REPLICATIONS = 200
DEFAULT_REPLICATIONS = 1000
PAIRWISE_N_MAX = 5000
EPS_DET = 1e-12
COND_MAX = 1e12
EPS_MACH = float(np.finfo(float).eps)
# A block of resampling replicates holds as many as fit this many bytes of
# float64 rows, one per replicate and as wide as the panel (bootstrap) or
# the buyer set (randomization); the kernels keep a few such arrays alive.
BLOCK_BYTES = 1 << 17
# A least-squares replicate is handed to the estimator itself when its
# design is within this factor of the pivoted-QR rank tolerance ...
QR_MARGIN = 1e6
# ... or when h and y_pre are so nearly collinear within it that the 2x2
# centred solve would lose more than ~eps / GRAM_REL of its precision.
GRAM_REL = 1e-4


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


def _replicate_blocks(seed: int, replications: int, width: int):
    """(start, count, rng) for consecutive blocks of replicates, all drawn in
    order from the one generator default_rng(seed); a block holds as many
    replicates as fit BLOCK_BYTES of float64 rows of `width`."""
    rng = np.random.default_rng(seed)
    size = max(1, BLOCK_BYTES // (8 * width))
    for start in range(0, replications, size):
        yield start, min(size, replications - start), rng


def _validate_common(estimator_id: str, replications: int, level: float):
    if estimator_id not in ESTIMATOR_IDS:
        raise InferenceError(f"unknown estimator {estimator_id!r}")
    if replications < MIN_REPLICATIONS:
        raise InferenceError(
            f"replications must be >= {MIN_REPLICATIONS}, got {replications}"
        )
    if not 0.0 < level < 1.0:
        raise InferenceError(f"level {level} outside (0,1)")


def _replicate_taus(panel, estimator_id, c, h):
    """The estimator on many replicates at once, as weighted sufficient
    statistics of the panel's units.

    Row k of `c` (replicates x units, or 1 x units for unit weights)
    weights the units of replicate k, whose exposures are `h` (units, or
    replicates x units); every row of weights sums to n, and each sum runs
    along one row. CR-ERL fits lambda per replicate. Returns (tau, exact,
    lam0): `exact` marks the replicates too close to one of the
    estimator's decision boundaries (the pivoted-QR rank test, the CR-ERL
    variance floor) to be settled from these sums, and `lam0` those where
    CR-ERL falls back to lambda = 0.
    """
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
            # near the floor, rounding could put np.var on the other side
            slack = 0.5 * EPS_COVARIATE_VAR + 64 * EPS_MACH * np.abs(b).max() * (
                np.sqrt(var_b) + np.sqrt(EPS_COVARIATE_VAR)
            )
            exact = np.abs(var_b - EPS_COVARIATE_VAR) <= slack
            return tau - lam * mean(b), exact, lam0

        # OLS of y on [1, h (, y_pre)], centred: the exposure slope solves the
        # 1x1 or 2x2 system of centred cross products
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
            # h and y_pre all but collinear: the 2x2 solve would lose digits
            accurate = det > GRAM_REL * s_hh * s_ff
        # Pivoted QR takes |r_11| = the largest column norm, its |r_jj| do
        # not increase, and prod r_jj^2 = det(X'X) = n * det. With q_j the
        # sorted squared column norms the last |r_kk|^2 is at least
        # n * det / (q_1 ... q_{k-1}); the rank test fails at
        # |r_kk| <= sqrt(q_1) * n * eps.
        q = np.sort(np.vstack(np.broadcast_arrays(*norms)), axis=0)[::-1]
        bound = (QR_MARGIN * n * EPS_MACH) ** 2 * q[0] * np.prod(q[:-1], axis=0)
        exact = ~(accurate & (n * det > bound))
        return tau, exact, lam0


def bootstrap_ci(
    panel: ExposurePanel,
    estimator_id: str,
    replications: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    level: float = 0.95,
) -> IntervalEstimate:
    """Percentile bootstrap resampling outcome units with replacement.

    Each replicate redraws n panel rows; a block of replicates becomes a
    count matrix and the estimator is evaluated on its rows as weights.
    Estimator failures in more than 1% of replicates abort the interval.
    """
    _validate_common(estimator_id, replications, level)
    point = point_estimate(panel, estimator_id)
    n = panel.n
    taus = np.empty(replications)
    failures = lam0_count = 0
    for start, count, rng in _replicate_blocks(seed, replications, n):
        idx = rng.integers(0, n, (count, n))
        offsets = n * np.arange(count)[:, None]
        counts = np.bincount((idx + offsets).ravel(), minlength=idx.size)
        tau, exact, lam0 = _replicate_taus(
            panel, estimator_id, counts.reshape(idx.shape).astype(np.float64), panel.h
        )
        for k in np.flatnonzero(exact):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    tau[k] = point_estimate(panel.subset(idx[k]), estimator_id).tau_hat
                except (EstimationError, ValueError):
                    tau[k] = np.nan
                    failures += 1
            lam0[k] = estimator_id == "crerl" and bool(caught)
        taus[start : start + count] = tau
        lam0_count += int(lam0.sum())
    if failures > 0.01 * replications:
        raise BootstrapFailureError(
            f"estimator failed in {failures}/{replications} bootstrap replicates"
        )
    if lam0_count:
        warnings.warn(
            f"covariate term has (near) zero variance in {lam0_count}/"
            f"{replications} bootstrap replicates; those use lambda = 0 "
            "(plain ERL)",
            stacklevel=2,
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
    panel: ExposurePanel,
    graph: BipartiteGraph,
    estimator_id: str,
    replications: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    level: float = 0.95,
) -> IntervalEstimate:
    """Monte Carlo randomization interval for a panel assembled from `graph`.

    Fresh assignment vectors Z are drawn from the declared design (each of
    the graph's buyers treated with probability `panel.p`) and the
    estimator is re-evaluated on a block of draws at once, with the
    realized outcomes (and CR-ERL's fitted lambda) held fixed; the sd of
    these draws yields a symmetric normal-quantile interval around the
    point estimate. ERL and CR-ERL are linear in Z, tau(Z) = Z a - c with
    g = (y - lambda y_pre) / (n Var H), a = W'g and c = g E[H]; REG and
    REG_PRE are evaluated on the exposures H = W Z.
    """
    _validate_common(estimator_id, replications, level)
    point = point_estimate(panel, estimator_id)
    W = graph.matrix()[panel.graph_rows]
    m = graph.n_buyers
    linear = estimator_id in ("erl", "crerl")
    if linear:
        g = panel.y_in if point.lam is None else panel.y_in - point.lam * panel.y_pre
        g = g / (panel.n * panel.var_h)
        a, c = W.T @ g, g @ panel.e_h
    taus = np.empty(replications)
    for start, count, rng in _replicate_blocks(seed, replications, m):
        Z = rng.random((count, m)) < panel.p
        if linear:
            taus[start : start + count] = (Z * a).sum(axis=1) - c
            continue
        # C order, so that each replicate's sums run along its own row
        H = np.ascontiguousarray((W @ Z.T).T)
        tau, exact, _ = _replicate_taus(panel, estimator_id, np.ones((1, panel.n)), H)
        for k in np.flatnonzero(exact):
            tau[k] = point_estimate(replace(panel, h=H[k]), estimator_id).tau_hat
        taus[start : start + count] = tau
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


def check_pairwise_size(n: int):
    """Refuse a pairwise variance over more than PAIRWISE_N_MAX units; call
    it before building the moment table, whose size is quadratic in the
    worst case."""
    if n > PAIRWISE_N_MAX:
        raise PairwiseSizeError(
            f"n={n} exceeds n_max={PAIRWISE_N_MAX}; the pairwise estimator is "
            "O(n^2), use bootstrap_ci instead"
        )


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
) -> PairwiseVariance:
    """Design-based variance estimate via pair-level moment matching.

    Units whose exposure takes fewer than three values (e.g. single-buyer
    sellers) get the minimum-norm least-squares weighting and are listed
    as degenerate. Pairs whose exposure covariance matrix is (near)
    singular — e.g. two sellers with identically weighted edges — are
    flagged and handled per `policy`: 'merge' adds a conservative
    product-of-sds upper bound, 'drop' zeroes them with a warning, 'strict'
    raises. The quadratic worst case is guarded by PAIRWISE_N_MAX (use the
    bootstrap beyond it).
    """
    if policy not in ("merge", "drop", "strict"):
        raise InferenceError(f"unknown degeneracy policy {policy!r}")
    n = panel.n
    check_pairwise_size(n)
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
    ok = vi * vj - cov * cov > EPS_DET
    coef = _solve_where(M, rhs, ok)
    ok &= np.isfinite(coef).all(axis=1)
    bad = np.flatnonzero(~ok)
    degenerate = [(ids[a], ids[b]) for a, b in zip(i[bad].tolist(), j[bad].tolist())]
    if degenerate and policy == "strict":
        raise DegeneratePairError(
            f"degenerate exposure pair {degenerate[0]!r}: det(Sigma) <= {EPS_DET}"
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
