"""Independent reference answers for the benchmark's output checks.

Everything here is computed from the generator's raw arrays with scipy
sparse algebra, sharing no code with the package: graph counts, dropped
rows, the ERL point estimate and the exact pairwise variance (through
closed-form Bernoulli cumulants rather than per-buyer recursions).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from inputs import KIND_NAMES, AnalyzeInputs

EPS_VAR = 1e-12
EPS_DET = 1e-12
COND_MAX = 1e12


def seller_buyer_matrix(inp: AnalyzeInputs, kinds, keep_labels=None):
    """Row-normalized count-proportional weights over the sellers and
    buyers that have at least one selected event, in id order.

    Returns (W, seller numbers, buyer numbers). With `keep_labels`, only
    buyers assigned to those variants count (the restricted subgraph).
    """
    codes = [KIND_NAMES.index(k) for k in kinds]
    sel = np.isin(inp.kind, codes)
    if keep_labels is not None:
        keep_codes = [inp.labels.index(label) for label in keep_labels]
        sel &= np.isin(inp.variant[inp.buyer], keep_codes)
    counts = sp.coo_matrix(
        (np.ones(int(sel.sum())), (inp.seller[sel], inp.buyer[sel])),
        shape=(inp.n, inp.m),
    ).tocsr()
    counts.sum_duplicates()
    sellers = np.flatnonzero(np.diff(counts.indptr) > 0)
    buyers = np.flatnonzero(np.bincount(counts.indices, minlength=inp.m) > 0)
    W = counts[sellers][:, buyers].tocsr()
    W = sp.diags(1.0 / np.asarray(W.sum(axis=1)).ravel()) @ W
    W = W.tocsr()
    W.sort_indices()
    return W, sellers, buyers


def graph_counts(W) -> dict:
    degree = np.diff(W.indptr)
    return {
        "n_buyers": W.shape[1],
        "n_sellers": W.shape[0],
        "n_edges": int(W.nnz),
        "single_edge_sellers": int((degree == 1).sum()),
    }


def dropped_rows(inp: AnalyzeInputs, kind_groups) -> int:
    """Rows parse_events drops: every kind outside the union of the groups
    (the default window keeps every timestamp)."""
    kept = [KIND_NAMES.index(k) for g in kind_groups for k in g]
    return int((~np.isin(inp.kind, kept)).sum())


def erl_parts(inp: AnalyzeInputs, W, sellers, buyers, treatment, p):
    """Per-unit pieces of the ERL estimate on graph W: returns (y, h, e_h,
    var_h) over the sellers with Var[H] > EPS_VAR."""
    z = (inp.variant[buyers] == inp.labels.index(treatment)).astype(np.float64)
    h = W @ z
    e_h = p * np.asarray(W.sum(axis=1)).ravel()
    var_h = p * (1.0 - p) * np.asarray(W.multiply(W).sum(axis=1)).ravel()
    keep = var_h > EPS_VAR
    return inp.y_in[sellers][keep], h[keep], e_h[keep], var_h[keep]


def erl(y, h, e_h, var_h) -> tuple[float, float]:
    """(tau_hat, scale): the ERL estimate and the mean |term|, the scale
    against which a relative tolerance is meaningful when tau_hat is near 0."""
    terms = y * (h - e_h) / var_h
    return float(terms.mean()), float(np.abs(terms).mean())


def analyze_targets(inp: AnalyzeInputs, kind_groups, treatment, control):
    """Reference for every graph target `bipartite-ab analyze` builds.

    Returns {label: {"graph_stats": ..., "tau_hat": ..., "scale": ...,
    "parts": (y, h, e_h, var_h), "W": W}} using the CLI's labels.
    """
    p_of = dict(zip(inp.labels, inp.probabilities))
    multi = len(inp.labels) > 2
    out = {}
    for group in kind_groups:
        group_label = "+".join(sorted(group))
        if multi:
            p_t, p_c = p_of[treatment], p_of[control]
            schemes = [
                ("separate_graph", (control, treatment), p_t / (p_t + p_c)),
                ("normalized", None, p_t),
            ]
        else:
            schemes = [(None, None, p_of[treatment])]
        for scheme, keep, p in schemes:
            label = f"{group_label}/{scheme}" if multi else group_label
            W, sellers, buyers = seller_buyer_matrix(inp, group, keep)
            parts = erl_parts(inp, W, sellers, buyers, treatment, p)
            tau, scale = erl(*parts)
            out[label] = {
                "graph_stats": graph_counts(W),
                "tau_hat": tau,
                "scale": scale,
                "parts": parts,
                "p": p,
                "W": W,
            }
    return out


def _bernoulli_cumulants(p: float) -> np.ndarray:
    """k_1..k_4 of a Bernoulli(p) variable (index 0 unused)."""
    q = 1.0 - p
    return np.array([0.0, p, p * q, p * q * (1 - 2 * p), p * q * (1 - 6 * p * q)])


def overlapping_pairs(W):
    """Upper-triangle (i, j) index arrays of units sharing at least one buyer,
    sorted by (i, j), plus the shared-buyer power sums S_ab = sum_r u^a v^b
    for a, b in {1, 2}."""
    W2 = W.multiply(W).tocsr()
    sums = {}
    structure = None
    for a, A in ((1, W), (2, W2)):
        for b, B in ((1, W), (2, W2)):
            S = sp.triu(A @ B.T, k=1).tocsr()
            S.sort_indices()
            rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
            if structure is None:
                structure = (rows, S.indices.copy())
            elif not (np.array_equal(rows, structure[0])
                      and np.array_equal(S.indices, structure[1])):
                raise AssertionError("shared-buyer products differ in structure")
            sums[(a, b)] = S.data
    return structure[0], structure[1], sums


def unit_moments(W, p: float) -> np.ndarray:
    """E[H_i^k] for k = 0..4 from additive cumulants kappa_j = k_j * sum_r w^j."""
    k = _bernoulli_cumulants(p)
    c = [None] + [k[j] * np.asarray(W.power(j).sum(axis=1)).ravel() for j in range(1, 5)]
    mu = np.empty((W.shape[0], 5))
    mu[:, 0] = 1.0
    mu[:, 1] = c[1]
    mu[:, 2] = c[2] + c[1] ** 2
    mu[:, 3] = c[3] + 3 * c[2] * c[1] + c[1] ** 3
    mu[:, 4] = c[4] + 4 * c[3] * c[1] + 3 * c[2] ** 2 + 6 * c[2] * c[1] ** 2 + c[1] ** 4
    return mu


def pair_moments(W, p, i, j, shared) -> np.ndarray:
    """T[:, a, b] = E[H_i^a H_j^b], a, b <= 2, from joint cumulants: the
    marginal ones of each unit and k_{a+b} * S_ab over shared buyers."""
    k = _bernoulli_cumulants(p)
    s1 = np.asarray(W.sum(axis=1)).ravel()
    s2 = np.asarray(W.multiply(W).sum(axis=1)).ravel()
    x1, x2 = k[1] * s1[i], k[2] * s2[i]
    y1, y2 = k[1] * s1[j], k[2] * s2[j]
    c11 = k[2] * shared[(1, 1)]
    c21 = k[3] * shared[(2, 1)]
    c12 = k[3] * shared[(1, 2)]
    c22 = k[4] * shared[(2, 2)]
    T = np.empty((len(i), 3, 3))
    T[:, 0, 0] = 1.0
    T[:, 1, 0] = x1
    T[:, 0, 1] = y1
    T[:, 2, 0] = x2 + x1**2
    T[:, 0, 2] = y2 + y1**2
    T[:, 1, 1] = c11 + x1 * y1
    T[:, 2, 1] = c21 + 2 * c11 * x1 + x2 * y1 + x1**2 * y1
    T[:, 1, 2] = c12 + 2 * c11 * y1 + y2 * x1 + x1 * y1**2
    T[:, 2, 2] = (
        c22 + 2 * c21 * y1 + 2 * c12 * x1 + x2 * y2 + 2 * c11**2
        + x2 * y1**2 + y2 * x1**2 + 4 * c11 * x1 * y1 + x1**2 * y1**2
    )
    return T


def _solve_batched(M, rhs):
    """Solve each system; a singular batch falls back to one at a time, with
    NaN for the systems that are singular."""
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for t in range(len(M)):
            try:
                out[t] = np.linalg.solve(M[t], rhs[t])
            except np.linalg.LinAlgError:
                pass
        return out


def pairwise_variance(W, p, y, h) -> dict:
    """Exact design-based variance of the ERL estimate under the 'merge'
    policy, matching the package's moment-matching definition.

    Returns {"value", "scale", "overlap_pairs", "degenerate_pairs",
    "degenerate_units"}; `scale` is the sum of absolute contributions over
    n^2, the magnitude a relative tolerance is measured against.
    """
    n = W.shape[0]
    mu = unit_moments(W, p)
    m1, v = mu[:, 1], mu[:, 2] - mu[:, 1] ** 2
    M = np.stack([
        np.stack([mu[:, 2], mu[:, 1], mu[:, 0]], axis=1),
        np.stack([mu[:, 3], mu[:, 2], mu[:, 1]], axis=1),
        np.stack([mu[:, 4], mu[:, 3], mu[:, 2]], axis=1),
    ], axis=1)
    e_h_c2 = mu[:, 3] - 2 * m1 * mu[:, 2] + m1**2 * mu[:, 1]
    e_h2_c2 = mu[:, 4] - 2 * m1 * mu[:, 3] + m1**2 * mu[:, 2]
    rhs = np.stack([1.0 / v, e_h_c2 / v**2, e_h2_c2 / v**2 - 1.0], axis=1)
    sol = np.full((n, 3), np.nan)
    regular = np.linalg.cond(M) < COND_MAX
    if regular.any():
        sol[regular] = _solve_batched(M[regular], rhs[regular])
    regular &= np.all(np.isfinite(sol), axis=1)
    for t in np.flatnonzero(~regular):
        sol[t] = np.linalg.lstsq(M[t], rhs[t], rcond=None)[0]
    diag = y * y * (sol[:, 0] * h * h + sol[:, 1] * h + sol[:, 2])
    unit_sd = np.sqrt(np.maximum(diag, 0.0))

    i, j, shared = overlapping_pairs(W)
    T = pair_moments(W, p, i, j, shared)
    mi, mj, vi, vj = m1[i], m1[j], v[i], v[j]
    det = vi * vj - (T[:, 1, 1] - mi * mj) ** 2
    denom = vi * vj
    gs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    bs = [(1, 1), (1, 0), (0, 1), (0, 0)]
    PM = np.stack(
        [np.stack([T[:, g[0] + b[0], g[1] + b[1]] for b in bs], axis=1) for g in gs],
        axis=1,
    )
    prhs = np.stack([
        (T[:, 1, 1] - mi * mj) / denom,
        (T[:, 1, 2] - mj * T[:, 1, 1] - mi * T[:, 0, 2] + mi * mj * T[:, 0, 1]) / denom,
        (T[:, 2, 1] - mi * T[:, 1, 1] - mj * T[:, 2, 0] + mi * mj * T[:, 1, 0]) / denom,
        (T[:, 2, 2] - mi * T[:, 1, 2] - mj * T[:, 2, 1] + mi * mj * T[:, 1, 1]) / denom
        - 1.0,
    ], axis=1)
    psol = np.full((len(i), 4), np.nan)
    ok = det > EPS_DET
    if ok.any():
        psol[ok] = _solve_batched(PM[ok], prhs[ok])
    ok &= np.all(np.isfinite(psol), axis=1)
    hi, hj = h[i], h[j]
    pair = 2.0 * y[i] * y[j] * (
        psol[:, 0] * hi * hj + psol[:, 1] * hi + psol[:, 2] * hj + psol[:, 3]
    )
    pair = np.where(ok, pair, 2.0 * unit_sd[i] * unit_sd[j])
    total = diag.sum() + pair.sum()
    return {
        "value": float(total / (n * n)),
        "scale": float((np.abs(diag).sum() + np.abs(pair).sum()) / (n * n)),
        "overlap_pairs": int(len(i)),
        "degenerate_pairs": int((~ok).sum()),
        "degenerate_units": int((~regular).sum()),
    }
