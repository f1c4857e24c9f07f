"""Interval estimates: two resampling methods and the exact pairwise
variance. `check_request` is the one check of an analysis request
(estimator and method ids, replications, level, seed), and `intervals`
yields every estimator x method interval of a panel, or the error it
raised; the analyze and validate commands both go through it.

* bootstrap_ci: percentile bootstrap over outcome units (panel rows).
* randomization_ci: point +/- z * sd of the estimator over re-draws of
  the assignment vector, with realized outcomes held fixed. ERL and
  CR-ERL (lambda fixed) are linear in the assignment, so their sd is the
  exact p(1 - p) |W'g|^2 under the declared Bernoulli design; REG and
  REG_PRE are recomputed on Monte Carlo draws.
* pairwise_variance_ci: ERL +/- z * sqrt(V), V the design-based variance
  estimator (1/n^2) sum_ij Y_i Y_j R_ij(H_i, H_j), where each R_ij is the
  affine-in-(H_i H_j, H_i, H_j, 1) weighting whose design expectation
  matches Cov(tau_i, tau_j) under the linear response model. The exposure
  moment table, built from the panel's graph inside the call, comes from
  Bernoulli cumulants summed over the (pair, shared buyer) incidences.
  Each unit's weighting has a closed form in its cumulants, and each
  pair's in its joint cumulants (a 2x2 solve by Cramer's rule), evaluated
  a block of pairs at a time; no linear algebra routine is called. A unit
  whose exposure takes only two values (a single-buyer seller) gets the
  weighting that splits its two conflicting conditions equally.
  PAIRWISE_N_MAX, checked before the table is built, guards the quadratic
  worst case in which every pair overlaps.

The resampling methods evaluate a memory-bounded block of replicates at
once: a bootstrap block as a count matrix over the panel's units, whose
sums read by more than one estimator are computed once, a randomization
block as a stack of assignment draws, whose units weigh 1 and are summed
with no weight multiply. A replicate near one of an estimator's decision
boundaries is recomputed by the estimator itself, so failures count and
raise as they would replicate by replicate. All methods are pure functions
of (inputs, seed, replications): a resampled interval draws its replicates
in order from one generator, default_rng(seed), and every per-replicate
sum runs along one row, so the block size does not change the interval.
The bootstrap's draws do not depend on the estimator, so `intervals` draws
each block once for all estimators and computes each point estimate once:
every interval is the one a single-estimator call returns.

The package loads no scipy, for any estimator or method: REG shares its
centred sums with the resampling kernel and settles what they leave open
with a numpy pivoted QR (see estimators). The graph products of the
randomization interval and the sums of the pairwise moment table are
bit-equal to scipy's sparse products, and `_ndtri`, the normal quantile, is
a port of Cephes ndtri bit-equal to scipy.special.ndtri.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

# crerl_estimate and assemble_panel are not called here; perfbench's tracer
# wraps them under this module's name, so they stay importable from inference.
from .estimators import (
    EPS_COVARIATE_VAR,
    EPS_MACH,
    ESTIMATOR_IDS,
    PointEstimate,
    centred,
    crerl_estimate,  # noqa: F401
    ols_design,
    point_estimate,
    weighted_mean,
)
from .exposure import ExposurePanel, assemble_panel  # noqa: F401
from .graph import BipartiteGraph

METHOD_IDS = ("bootstrap", "randomization", "pairwise")
MIN_REPLICATIONS = 200
DEFAULT_REPLICATIONS = 1000
PAIRWISE_N_MAX = 5000
EPS_DET = 1e-12
# A block of resampling replicates holds as many as fit this many bytes of
# float64 rows, one per replicate and as wide as the panel (bootstrap) or
# the buyer set (randomization); the kernels keep a few such arrays alive,
# and REG's randomization block also its edge products, one per buyer edge.
BLOCK_BYTES = 1 << 17
# glibc maps fresh pages for a request at or above its mmap threshold
# (128 KiB at start-up, BLOCK_BYTES exactly) and unmaps them on free, and
# trims the heap top beyond twice the threshold, so blocks would page-fault
# anew each time. Freeing a mapped request raises the threshold to its size,
# so this untouched 8 * BLOCK_BYTES lifts it above the blocks. Other
# allocators just allocate and free it.
np.empty(BLOCK_BYTES)
# The pairwise variance evaluates its pair terms in blocks of as many pairs
# as fit this many bytes at 16 float64 temporaries per pair.
PAIR_BLOCK_BYTES = 1 << 22


class InferenceError(ValueError):
    pass


class BootstrapFailureError(InferenceError):
    pass


class PairwiseSizeError(InferenceError):
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


def check_request(estimators, methods, replications: int, level: float, seed: int,
                  replications_name: str = "replications"):
    """Refuse an analysis request no interval can serve: empty lists, unknown
    or repeated estimator or method ids, a level outside (0, 1), a negative
    seed, or fewer than MIN_REPLICATIONS when a resampling method is asked
    for; the message calls `replications` by `replications_name`."""
    for kind, ids, known in (("estimator", estimators, ESTIMATOR_IDS),
                             ("method", methods, METHOD_IDS)):
        if not ids:
            raise InferenceError(f"{kind} list must be non-empty")
        for k, x in enumerate(ids):
            if x not in known:
                raise InferenceError(f"unknown {kind} {x!r}")
            if x in ids[:k]:
                raise InferenceError(f"{kind} {x!r} listed more than once")
    if not 0.0 < level < 1.0:
        raise InferenceError(f"level {level} outside (0,1)")
    if seed < 0:
        raise InferenceError(f"seed must be >= 0, got {seed}")
    # pairwise takes no replications
    if {"bootstrap", "randomization"} & set(methods) and replications < MIN_REPLICATIONS:
        raise InferenceError(
            f"{replications_name} must be >= {MIN_REPLICATIONS}, got {replications}"
        )


def intervals(panel, graph, estimators, methods, replications, seed, level):
    """(estimator, method, interval) for every pair, estimators outer, on a
    panel assembled from `graph`; a pair that fails yields the ValueError
    it raised in place of its IntervalEstimate. Each point estimate is
    computed once, and each bootstrap block drawn once for all estimators."""
    # the request check is the same for both resampling methods
    points = {est: _caught(check_request, (est,), ("bootstrap",), replications, level, seed)
              or _caught(point_estimate, panel, est)
              for est in estimators if {"bootstrap", "randomization"} & set(methods)}
    live = {est: pt for est, pt in points.items() if not isinstance(pt, ValueError)}
    cis = dict(points)  # a failed point estimate is its estimator's error
    # with none live, the seed may be one no generator takes
    if live and "bootstrap" in methods:
        cis.update(_bootstrap_cis(panel, live, replications, seed, level))
    for est in estimators:
        for method in methods:
            if method == "bootstrap" or (method == "randomization" and est not in live):
                ci = cis[est]
            elif method == "randomization":
                ci = _caught(_randomization_ci, panel, graph, est, live[est], replications,
                             seed, level)
            elif est != "erl":
                ci = InferenceError("pairwise variance applies to the erl estimator only")
            else:
                ci = _caught(pairwise_variance_ci, panel, graph, level)
            yield est, method, ci


def _caught(fn, *args):
    """fn(*args), or the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def _replicate_taus(panel, estimator_id, c, h, shared=None):
    """The estimator on many replicates at once, as weighted sufficient
    statistics of the panel's units. Row k of `c` (replicates x units, or
    1 x units; None for unit weights) weights the units of replicate k,
    whose exposures are `h` (units, or replicates x units); every row of
    weights sums to n, and each sum runs along one row. `shared`, a dict
    kept for one block, hands ERL's weights and tau to CR-ERL, which fits
    lambda per replicate. Returns (tau, exact, lam0): `exact` marks the
    replicates too close to one of the estimator's decision boundaries
    (the pivoted-QR rank test, the CR-ERL variance floor) to be settled
    from these sums, and `lam0` those where CR-ERL falls back to lambda = 0.
    """
    y, f = panel.y_in, panel.y_pre
    shared = {} if shared is None else shared
    with np.errstate(divide="ignore", invalid="ignore"):
        if estimator_id in ("erl", "crerl"):
            if "erl" not in shared:
                w = (h - panel.e_h) / panel.var_h
                a = y * w
                shared["erl"] = w, a, weighted_mean(a, c)
            w, a, tau = shared["erl"]
            if estimator_id == "erl":
                # a copy: the exact-replicate fallback writes to what is returned
                return tau.copy(), np.zeros(len(tau), bool), np.zeros(len(tau), bool)
            b = f * w
            da = a - tau[:, None]
            m_b, db, cdb = centred(b, c)
            s_bb = (cdb * db).sum(axis=-1)
            var_b = s_bb / (panel.n - 1) if panel.n > 1 else np.zeros(len(s_bb))
            lam0 = var_b < EPS_COVARIATE_VAR
            lam = np.where(lam0, 0.0, (cdb * da).sum(axis=-1) / s_bb)
            # near the floor, rounding could put np.var on the other side
            slack = 0.5 * EPS_COVARIATE_VAR + 64 * EPS_MACH * np.abs(b).max() * (
                np.sqrt(var_b) + np.sqrt(EPS_COVARIATE_VAR)
            )
            exact = np.abs(var_b - EPS_COVARIATE_VAR) <= slack
            return tau - lam * m_b, exact, lam0
        # the OLS of y on [1, h (, y_pre)]: the exposure slope of the centred sums
        exact, slopes = ols_design(h, f if estimator_id == "reg_pre" else None, c)
        tau = slopes(y)[0]
        return tau, exact, np.zeros(len(tau), bool)


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
    check_request((estimator_id,), ("bootstrap",), replications, level, seed)
    points = {estimator_id: point_estimate(panel, estimator_id)}
    ci = _bootstrap_cis(panel, points, replications, seed, level)[estimator_id]
    if isinstance(ci, ValueError):
        raise ci
    return ci


def _percentiles(x, q) -> np.ndarray:
    """np.quantile(x, q) bit for bit, for a 1-D float array `x` without NaN
    and `q` in [0, 1]: numpy's linear method, which imports numpy.ma on
    first use under numpy 2. The order statistics come from the partition
    np.quantile makes, so that of tied values (0.0 and -0.0) the same one is
    taken, and they are interpolated by numpy's `_lerp` rule."""
    n = len(x)
    at = (n - 1) * np.asarray(q, dtype=np.float64)  # the virtual indexes
    lo = np.floor(at)
    hi = lo + 1
    lo[at >= n - 1] = hi[at >= n - 1] = -1  # the largest value
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    x = np.partition(x, sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    a, b, t = x[lo], x[hi], at - lo
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def _bootstrap_cis(panel, live, replications, seed, level) -> dict:
    """{estimator: bootstrap interval or error} for the point estimates in
    `live`; each block's count matrix is drawn once for all of them."""
    out, n = {}, panel.n
    taus = {est: np.empty(replications) for est in live}
    failures, lam0_count = dict.fromkeys(live, 0), dict.fromkeys(live, 0)
    for start, count, rng in _replicate_blocks(seed, replications, n):
        idx = rng.integers(0, n, (count, n))
        counts = np.bincount((idx + n * np.arange(count)[:, None]).ravel(), minlength=idx.size)
        counts = counts.reshape(idx.shape).astype(np.float64)
        shared = {}
        for est in live:
            tau, exact, lam0 = _replicate_taus(panel, est, counts, panel.h, shared)
            for k in np.flatnonzero(exact):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        tau[k] = point_estimate(panel.subset(idx[k]), est).tau_hat
                    except ValueError:  # an EstimationError among them
                        tau[k] = np.nan
                        failures[est] += 1
                lam0[k] = est == "crerl" and bool(caught)
            taus[est][start : start + count] = tau
            lam0_count[est] += int(lam0.sum())
    alpha = 1.0 - level
    for est, tau in taus.items():
        good = tau[~np.isnan(tau)]
        if failures[est] > 0.01 * replications:
            out[est] = BootstrapFailureError(
                f"estimator failed in {failures[est]}/{replications} bootstrap replicates"
            )
            continue
        if lam0_count[est]:
            # stacklevel 3: the caller of bootstrap_ci, or the code iterating intervals
            warnings.warn(
                f"covariate term has (near) zero variance in {lam0_count[est]}/"
                f"{replications} bootstrap replicates; those use lambda = 0 "
                "(plain ERL)",
                stacklevel=3,
            )
        if not np.isfinite(good).any():
            out[est] = BootstrapFailureError(f"none of {replications} bootstrap replicates is finite")
            continue
        lo, hi = _percentiles(good, [alpha / 2.0, 1.0 - alpha / 2.0])
        out[est] = IntervalEstimate(live[est], float(lo), float(hi), level, "bootstrap",
                                    replications, seed)
    return out


def randomization_ci(
    panel: ExposurePanel,
    graph: BipartiteGraph,
    estimator_id: str,
    replications: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    level: float = 0.95,
) -> IntervalEstimate:
    """Randomization interval for a panel assembled from `graph`: the point
    estimate +/- z times the sd of the estimator over fresh assignments Z
    from the declared design (each of the graph's buyers treated with
    probability `panel.p`), with the realized outcomes held fixed.

    ERL and CR-ERL (lambda held at the point estimate) are linear in Z,
    tau(Z) = Z a - c with a = W'g and g = (y - lambda y_pre) / (n Var H), so
    their sd is exactly sqrt(p (1 - p)) |a|: nothing is drawn, and the
    interval reports replications = seed = 0. REG and REG_PRE are evaluated
    on blocks of draws, on the exposures H = W Z.
    """
    check_request((estimator_id,), ("randomization",), replications, level, seed)
    point = point_estimate(panel, estimator_id)
    return _randomization_ci(panel, graph, estimator_id, point, replications, seed, level)


def _randomization_ci(panel, graph, estimator_id, point, replications, seed, level):
    """randomization_ci on a checked request whose point estimate is `point`."""
    if estimator_id in ("erl", "crerl"):
        g = panel.y_in if point.lam is None else panel.y_in - point.lam * panel.y_pre
        # W'g over the panel's rows: g scattered to the graph's rows, whose
        # others, at 0, add +0.0 to each sum, which leaves it bit-equal
        g = np.bincount(panel.graph_rows, g / (panel.n * panel.var_h), graph.n_sellers)
        a = graph.transpose_times(g)
        sd = float(np.sqrt(panel.p * (1.0 - panel.p)) * np.linalg.norm(a))
        replications = seed = 0
    else:
        taus = np.empty(replications)
        # the panel's rows of the graph, taken once: a block's products are
        # then its exposures, in C order, so each replicate's sums run along
        # its own row
        rows = graph.take_rows(panel.graph_rows)
        for start, count, rng in _replicate_blocks(seed, replications, graph.n_buyers):
            Z = rng.random((count, graph.n_buyers)) < panel.p
            H = rows.times(Z)
            tau, exact, _ = _replicate_taus(panel, estimator_id, None, H)
            for k in np.flatnonzero(exact):
                tau[k] = point_estimate(replace(panel, h=H[k]), estimator_id).tau_hat
            taus[start : start + count] = tau
        sd = float(np.std(taus, ddof=1))
    return _normal_interval(point, sd, level, "randomization", replications, seed)


# Cephes ndtri, the normal quantile scipy.special.ndtri computes, in the
# same operations and order, so that its results are bit-equal: a rational
# approximation in y - 1/2 on the centre, and in 1/x with x = sqrt(-2 log y)
# in either tail (x below or above 8). Coefficients run from the highest
# power; each denominator's leading 1 makes Horner's rule give Cephes' p1evl.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coef: tuple) -> float:
    # from 0: 0 x + c_0 is c_0 exactly, where Cephes starts
    return functools.reduce(lambda ans, c: ans * x + c, coef, 0.0)


def _ndtri(y0: float) -> float:
    """The standard normal quantile: -inf at 0, inf at 1, NaN outside [0, 1]."""
    if not 0.0 < y0 < 1.0:
        return {0.0: -math.inf, 1.0: math.inf}.get(y0, math.nan)
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        # times sqrt(2 pi)
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * 2.50662827463100050242
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    P, Q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _horner(z, P) / _horner(z, Q)
    return x if upper else -x


def _normal_interval(point, sd, level, method, replications=0, seed=0) -> IntervalEstimate:
    """point +/- z sd, with z the standard normal quantile at 1/2 + level/2."""
    z = _ndtri(0.5 + level / 2.0)
    return IntervalEstimate(
        point, point.tau_hat - z * sd, point.tau_hat + z * sd, level, method, replications, seed
    )


# --- pairwise design-based variance estimator -----------------------------


@dataclass
class JointMomentTable:
    """Exact exposure cumulants under independent Bernoulli(p) assignment.

    `mean[i]`, `var[i]`, `k3[i]` and `k4[i]` are the first four cumulants
    of H_i (panel-indexed). The pairs of units with overlapping buyer
    neighborhoods are (pair_i[t], pair_j[t]), i < j, in (i, j) order,
    `kab[t]` their joint cumulant of a copies of H_i with b of H_j, and
    `pairs[t]`, built on first access, their 3x3 table T[a, b] =
    E[H_i^a H_j^b]. Disjoint pairs are not stored: their matched weighting
    is identically zero.
    """

    mean: np.ndarray
    var: np.ndarray
    k3: np.ndarray
    k4: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    k11: np.ndarray
    k12: np.ndarray
    k21: np.ndarray
    k22: np.ndarray

    @functools.cached_property
    def pairs(self) -> np.ndarray:
        i, j, k11, k12, k21 = self.pair_i, self.pair_j, self.k11, self.k12, self.k21
        x1, x2, y1, y2 = self.mean[i], self.var[i], self.mean[j], self.var[j]
        T = np.empty((len(i), 3, 3))
        T[:, 0, 0] = 1.0
        T[:, 1, 0], T[:, 2, 0] = x1, x2 + x1**2
        T[:, 0, 1], T[:, 0, 2] = y1, y2 + y1**2
        T[:, 1, 1] = k11 + x1 * y1
        T[:, 2, 1] = k21 + 2 * k11 * x1 + x2 * y1 + x1**2 * y1
        T[:, 1, 2] = k12 + 2 * k11 * y1 + y2 * x1 + x1 * y1**2
        T[:, 2, 2] = (
            self.k22 + 2 * k21 * y1 + 2 * k12 * x1 + x2 * y2 + 2 * k11**2
            + x2 * y1**2 + y2 * x1**2 + 4 * k11 * x1 * y1 + x1**2 * y1**2
        )
        return T


def _bernoulli_cumulants(p: float) -> np.ndarray:
    """k_1..k_4 of a Bernoulli(p) draw (index 0 unused)."""
    q = 1.0 - p
    return np.array([0.0, p, p * q, p * q * (1 - 2 * p), p * q * (1 - 6 * p * q)])


def exposure_moment_table(
    graph: BipartiteGraph, p: float, rows: np.ndarray
) -> JointMomentTable:
    """Cumulants for every panel unit plus joint cumulants for every pair of
    units sharing at least one buyer.

    `rows` maps panel index -> graph row, as in ExposurePanel.graph_rows.
    H_i = sum_r w_ir Z_r sums independent draws, so cumulants add up:
    kappa_j(H_i) = k_j sum_r w_ir^j, and the joint cumulant of a copies of
    H_i with b copies of H_j is k_{a+b} S_ab, where S_ab = sum_r w_ir^a w_jr^b
    runs over the shared buyers. Each buyer adds its terms to the pairs of
    its units, and every sum runs from 0 in edge or buyer order, as scipy's
    sparse row sums and product W W' do, bit-equal to them.
    """
    k = _bernoulli_cumulants(p)
    n = len(rows)
    # the panel rows' edges, unit after unit, each in its graph row's order
    sub = graph.take_rows(rows)
    c1, c2, c3, c4 = (k[r] * np.add.reduceat(sub.weights**r, sub.indptr[:-1]) for r in range(1, 5))

    # the edges buyer-major, units ascending within a buyer: edge q pairs
    # with the `later` edges after it in its buyer's run, its t-th pair
    # being (q, q + 1 + t)
    order = np.argsort(sub.buyer_idx, kind="stable")
    w, unit = sub.weights[order], np.repeat(np.arange(n), sub.seller_degrees())[order]
    run_end = np.flatnonzero(np.diff(sub.buyer_idx[order], append=-1)) + 1
    q = np.arange(len(order))
    later = np.repeat(run_end, np.diff(run_end, prepend=0)) - q - 1
    first = np.repeat(q, later)
    second = np.arange(len(first)) + np.repeat(q + 1 - np.cumsum(later) + later, later)
    # bincount adds each pair's terms from 0 in this, buyer, order
    key, pair = np.unique(unit[first] * n + unit[second], return_inverse=True)
    i, j = np.divmod(key, n)
    wi, wj = w[first], w[second]
    # free the per-incidence arrays before the sums
    del first, second, key
    k11, k12, k21, k22 = (
        k[a] * np.bincount(pair, x * y, len(i))
        for a, x, y in ((2, wi, wj), (3, wi, wj * wj), (3, wi * wi, wj), (4, wi * wi, wj * wj))
    )
    return JointMomentTable(c1, c2, c3, c4, i, j, k11, k12, k21, k22)


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
    """`degenerate_pairs`, int64 (k, 2), and `degenerate_units`, int64, hold
    panel positions: position k's id is `graph.sellers[panel.graph_rows[k]]`."""

    value: float
    n_pairs_evaluated: int
    degenerate_pairs: np.ndarray
    degenerate_units: np.ndarray


def pairwise_variance(
    panel: ExposurePanel, joint_moments: JointMomentTable
) -> PairwiseVariance:
    """Design-based variance estimate via pair-level moment matching.

    Each unit's weighting is a closed form in its cumulants. A unit whose
    exposure takes only two values (a single-buyer seller) cannot match all
    three of its conditions; it gets the weighting that misses its two
    conflicting ones by equal halves, and its position is a degenerate unit.
    Each pair's weighting is a closed form in its joint cumulants. Pairs
    whose exposure covariance matrix is (near) singular, e.g. two sellers
    with identically weighted edges, or whose weighting is not finite, add
    the conservative bound 2 sd_i sd_j in place of their matched term; their
    positions (i, j), in the table's order, are the degenerate pairs. The
    quadratic worst case is guarded by PAIRWISE_N_MAX.
    """
    n = panel.n
    check_pairwise_size(n)
    m, var, k3 = joint_moments.mean, joint_moments.var, joint_moments.k3
    if len(m) != n:
        raise InferenceError("moment table does not match panel size")
    y = panel.y_in
    h = panel.h

    # A unit's weighting R in span{1, H, H^2} matches E[g R] = E[g phi] -
    # [g = H^2] for every g in the span, where phi = u^2 / v^2, u = H - m
    # and v = Var H. phi lies in the span, so R is phi less the dual element
    # of H^2, the residual of u^2 on (1, u) over its squared norm
    # rho = E[u^4] - v^2 - k3^2 / v = k4 + 2 v^2 - k3^2 / v. When H takes two
    # values, H^2 is affine in H and rho = 0; the conditions at g = H and
    # g = H^2 then ask E[H R] for values 1 apart, and R = phi - u / (2 v)
    # misses each by 1/2.
    u = h - m
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = u * u / (var * var)
        rho = joint_moments.k4 + 2 * var * var - k3 * k3 / var
        R = phi - (u * u - var - k3 / var * u) / rho
        singular = np.flatnonzero((rho <= EPS_DET * var * var) | ~np.isfinite(R))
        R[singular] = phi[singular] - u[singular] / (2 * var[singular])
    diag = y * y * R
    unit_sd = np.sqrt(np.maximum(diag, 0.0))

    # A pair's weighting R in span{1, H_i, H_j, H_i H_j} matches
    # E[g R] = E[g phi] - [g = H_i H_j] for every g in the span, where
    # phi = u v / (v_i v_j), u = H_i - m_i and v = H_j - m_j. phi lies in the
    # span, so R is phi less the dual element of H_i H_j, the residual of
    # u v on (1, u, v) over its squared norm rho. With c, a, b the joint
    # cumulants k11, k21, k12, (alpha, beta) solves
    # [[v_i, c], [c, v_j]] (alpha, beta) = (a, b), and
    # rho = E[u^2 v^2] - c^2 - alpha a - beta b = k22 + v_i v_j + c^2 - alpha a - beta b.
    # The terms are evaluated a block of pairs at a time, each written to its
    # slot, and summed once: the value does not depend on the block size.
    terms = np.empty(len(joint_moments.pair_i))
    ok = np.empty(len(terms), dtype=bool)
    size = max(1, PAIR_BLOCK_BYTES // (8 * 16))
    for start in range(0, len(terms), size):
        block = slice(start, start + size)
        i, j = joint_moments.pair_i[block], joint_moments.pair_j[block]
        c, a, b = joint_moments.k11[block], joint_moments.k21[block], joint_moments.k12[block]
        vi, vj = var[i], var[j]
        u, v = h[i] - m[i], h[j] - m[j]
        det = vi * vj - c * c
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            alpha = (a * vj - b * c) / det
            beta = (b * vi - a * c) / det
            rho = joint_moments.k22[block] + vi * vj + c * c - alpha * a - beta * b
            uv = u * v
            R = uv / (vi * vj) - (uv - c - alpha * u - beta * v) / rho
        ok[block] = (det > EPS_DET) & np.isfinite(R)
        terms[block] = np.where(ok[block], 2.0 * y[i] * y[j] * R, 2.0 * unit_sd[i] * unit_sd[j])
    bad = np.flatnonzero(~ok)
    return PairwiseVariance(
        value=float(diag.sum() + terms.sum()) / (n * n),
        n_pairs_evaluated=len(terms) - len(bad),
        degenerate_pairs=np.stack((joint_moments.pair_i[bad], joint_moments.pair_j[bad]), axis=1),
        degenerate_units=singular,
    )


def pairwise_variance_ci(
    panel: ExposurePanel, graph: BipartiteGraph, level: float = 0.95
) -> IntervalEstimate:
    """Normal-quantile interval for the ERL estimate of a panel assembled
    from `graph`, using the pairwise variance estimate (clipped at zero).
    The panel size is checked before the moment table is built."""
    check_request(("erl",), ("pairwise",), 0, level, 0)
    check_pairwise_size(panel.n)
    moments = exposure_moment_table(graph, panel.p, panel.graph_rows)
    point = point_estimate(panel, "erl")
    pv = pairwise_variance(panel, moments)
    sd = float(np.sqrt(max(pv.value, 0.0)))
    return _normal_interval(point, sd, level, "pairwise")
