import itertools
import math

import numpy as np
import pytest

from bipartite_ab import exposure
from bipartite_ab.estimators import CollinearDesignError, EstimationError, PointEstimate
from bipartite_ab.exposure import (
    DegenerateReport,
    ExposureError,
    ExposurePanel,
    design_moments,
    effective_treatment_prob,
)
from bipartite_ab.graph import (
    BipartiteGraph,
    EmptyGraphError,
    GraphBuildReport,
    GraphError,
    GraphStats,
)
from bipartite_ab.ingest import AssignmentTable, EventLog, OutcomeTable, Variant


def make_events(rows):
    """EventLog of rows (buyer, seller, kind, ts), in the given order."""
    rows = list(rows)
    vocabularies = ({}, {}, {})
    codes = [
        [vocab.setdefault(row[c], len(vocab)) for row in rows]
        for c, vocab in enumerate(vocabularies)
    ]
    return EventLog.from_codes(
        *(list(vocab) for vocab in vocabularies),
        *(np.array(col, dtype=np.int64) for col in codes),
        np.array([row[3] for row in rows], dtype=np.int64),
    )


def dict_rows(keys, ids):
    """The row of each of `ids` among `keys`, -1 where absent: the join as it
    was before `_Keyed.rows` searched packed keys, one dict per table."""
    index = dict(zip(keys, range(len(keys))))
    return np.fromiter(map(index.get, ids, itertools.repeat(-1)), np.int64, len(ids))


def event_rows(events):
    """The (buyer, seller, kind, ts) rows of an EventLog, in log order."""
    return [
        (events.buyers[b], events.sellers[s], events.kinds[k], t)
        for b, s, k, t in zip(
            events.buyer.tolist(),
            events.seller.tolist(),
            events.kind.tolist(),
            events.timestamp.tolist(),
        )
    ]


def assignment_table(entries, variants):
    """AssignmentTable of a {buyer: variant label} dict."""
    labels = [v.label for v in variants]
    buyers = sorted(entries)
    return AssignmentTable(buyers, [labels.index(entries[b]) for b in buyers], variants)


def assignment_entries(table):
    """The {buyer: variant label} dict of an AssignmentTable."""
    return {b: table.labels[v] for b, v in zip(table.buyers, table.variant.tolist())}


def outcome_table(entries, has_pre):
    """OutcomeTable of a {seller: (y_in, y_pre or None)} dict."""
    sellers = sorted(entries)
    rows = [entries[s] for s in sellers]
    y = [(y_in, math.nan if y_pre is None else y_pre) for y_in, y_pre in rows]
    return OutcomeTable(sellers, np.array(y, dtype=float).reshape(-1, 2), has_pre)


def outcome_entries(table):
    """The {seller: (y_in, y_pre or None)} dict of an OutcomeTable."""
    return {
        s: (y_in, None if math.isnan(y_pre) else y_pre)
        for s, (y_in, y_pre) in zip(table.sellers, table.y.tolist())
    }


def two_variant_assignments(on_buyers, off_buyers, p_on=0.5):
    entries = {b: "On" for b in on_buyers}
    entries.update({b: "Off" for b in off_buyers})
    return assignment_table(
        entries,
        [Variant("Off", 1 - p_on, control=True), Variant("On", p_on)],
    )


def random_sparse_graph(rng, m, n, min_deg=2, max_deg=4):
    """Random row-normalized graph with distinct per-seller buyer sets."""
    indptr, bidx, wts = [0], [], []
    for _ in range(n):
        d = int(rng.integers(min_deg, max_deg + 1))
        cols = sorted(rng.choice(m, size=d, replace=False).tolist())
        raw = rng.random(d) + 0.2
        raw = raw / raw.sum()
        bidx += cols
        wts += raw.tolist()
        indptr.append(len(bidx))
    return BipartiteGraph(
        [f"b{i}" for i in range(m)],
        [f"s{i}" for i in range(n)],
        indptr,
        bidx,
        wts,
    )


def csr(graph):
    """The graph's weights as a `scipy.sparse.csr_matrix`: the oracle for the
    numpy products, restrictions and moment sums of the package."""
    import scipy.sparse as sp

    return sp.csr_matrix(
        (graph.weights, graph.buyer_idx, graph.indptr),
        shape=(graph.n_sellers, graph.n_buyers),
    )


def graph_row(graph, i):
    """(buyer indices, weights) of the graph's seller row i."""
    lo, hi = graph.indptr[i], graph.indptr[i + 1]
    return graph.buyer_idx[lo:hi], graph.weights[lo:hi]


# --- row-at-a-time graph code, kept as oracles for the columnar versions ---


def oracle_build_graph(rows, assignments, config):
    """build_graph over (buyer, seller, kind, ts) rows with a dict of dicts."""
    report = GraphBuildReport()
    assigned = assignment_entries(assignments)
    counts: dict[str, dict[str, int]] = {}
    for buyer, seller, kind, _ in rows:
        if kind not in config.kind_filter:
            report.skipped_kind += 1
            continue
        if buyer not in assigned:
            report.skipped_unassigned += 1
            continue
        counts.setdefault(seller, {}).setdefault(buyer, 0)
        counts[seller][buyer] += 1
        report.events_used += 1
    if not counts:
        raise EmptyGraphError("empty graph: no qualifying events")
    sellers = sorted(counts)
    buyers = sorted({b for row in counts.values() for b in row})
    buyer_index = {b: i for i, b in enumerate(buyers)}
    indptr, buyer_idx, weights = [0], [], []
    dedup = config.weighting == "binary_dedup"
    for seller in sellers:
        row = counts[seller]
        total = len(row) if dedup else sum(row.values())
        for b in sorted(row, key=buyer_index.__getitem__):
            buyer_idx.append(buyer_index[b])
            weights.append((1.0 if dedup else row[b]) / total)
        indptr.append(len(buyer_idx))
    return BipartiteGraph(buyers, sellers, indptr, buyer_idx, weights), report


def oracle_per_variant_subgraph(graph, assignments, control, treatment):
    """per_variant_subgraph one seller row at a time."""
    if control == treatment:
        raise GraphError("control and treatment variants must differ")
    keep_labels = {control, treatment}
    assigned = assignment_entries(assignments)
    kept_buyers = [b for b in graph.buyers if assigned.get(b) in keep_labels]
    keep_old = np.array(
        [assigned.get(b) in keep_labels for b in graph.buyers], dtype=bool
    )
    remap = np.full(graph.n_buyers, -1, dtype=np.int64)
    remap[keep_old] = np.arange(len(kept_buyers))
    sellers, indptr, buyer_idx, weights = [], [0], [], []
    for i, seller in enumerate(graph.sellers):
        idx, w = graph_row(graph, i)
        mask = keep_old[idx]
        if not mask.any():
            continue
        kept_w = w[mask]
        kept_w = kept_w / kept_w.sum()
        sellers.append(seller)
        buyer_idx.extend(remap[idx[mask]].tolist())
        weights.extend(kept_w.tolist())
        indptr.append(len(buyer_idx))
    if not sellers:
        raise EmptyGraphError("empty graph")
    return BipartiteGraph(kept_buyers, sellers, indptr, buyer_idx, weights)


def oracle_graph_stats(graph):
    """graph_stats counting the single-edge sellers one row at a time."""
    indptr = graph.indptr.tolist()
    return GraphStats(
        n_buyers=len(graph.buyers),
        n_sellers=len(graph.sellers),
        n_edges=len(graph.weights),
        single_edge_sellers=sum(hi - lo == 1 for lo, hi in zip(indptr, indptr[1:])),
    )


def oracle_realized_exposure(graph, assignments, treatment):
    """realized_exposure joining the graph's buyer ids to a dict."""
    assignments.code(treatment)  # an unknown label is an error
    assigned = assignment_entries(assignments)
    treated = [assigned.get(b) == treatment for b in graph.buyers]
    return csr(graph) @ np.array(treated, dtype=np.float64)


def oracle_assemble_panel(graph, assignments, outcomes, treatment, control=None):
    """assemble_panel with allow_missing_outcomes=True, joining the graph's
    seller ids to a dict of outcome rows one seller at a time."""
    entries = outcome_entries(outcomes)
    h = oracle_realized_exposure(graph, assignments, treatment)
    p = effective_treatment_prob(assignments, treatment, control)
    e_h, var_h = design_moments(graph, assignments, treatment, control)
    excluded, rows = [], []
    for i, seller in enumerate(graph.sellers):
        if seller not in entries:
            excluded.append((seller, "no outcome row"))
        elif var_h[i] <= exposure.EPS_VAR:
            excluded.append((seller, "zero variance"))
        else:
            rows.append(i)
    if not rows:
        raise ExposureError("no usable outcome units after exclusions")
    kept = [graph.sellers[i] for i in rows]
    pre = [entries[s][1] for s in kept]
    panel = ExposurePanel(
        h=h[rows],
        e_h=e_h[rows],
        var_h=var_h[rows],
        y_in=np.array([entries[s][0] for s in kept]),
        y_pre=np.array([np.nan if v is None else v for v in pre])
        if outcomes.has_pre
        else None,
        p=p,
        graph_rows=np.array(rows, dtype=np.int64),
    )
    return panel, excluded


def excluded_counts(excluded):
    """The DegenerateReport of an oracle's (seller, reason) exclusion list."""
    reasons = [reason for _, reason in excluded]
    return DegenerateReport(
        missing_outcome=reasons.count("no outcome row"),
        zero_variance=reasons.count("zero variance"),
    )


def assert_same_panel(got, want):
    for name in ("h", "e_h", "var_h", "y_in", "y_pre", "graph_rows"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.p == want.p


VARIANTS3 = [Variant("Off", 0.4, control=True), Variant("A", 0.3), Variant("B", 0.3)]
KINDS = ("view", "favorite", "message")


def id_pool(prefix, k):
    """k plain ids plus ids that differ from them only by a trailing NUL,
    and ids with non-ASCII characters (precomposed and combining)."""
    ids = [f"{prefix}{i}" for i in range(k)]
    ids += [f"{prefix}{i}\x00" for i in range(0, k, 3)]
    ids += [f"{prefix}{i}\u00e9" for i in range(1, k, 4)]
    ids += [f"{prefix}{i}e\u0301" for i in range(1, k, 4)]
    return ids + [f"β{prefix}{k}", f"{prefix}\x00"]


def random_log(rng):
    """(rows, assignments): a random event log with repeated events, a few
    unassigned buyers and a three-variant design."""
    buyers = id_pool("b", int(rng.integers(2, 25)))
    sellers = id_pool("s", int(rng.integers(1, 12)))
    n = int(rng.integers(1, 160))
    rows = [
        (
            buyers[rng.integers(len(buyers))],
            sellers[rng.integers(len(sellers))],
            KINDS[rng.integers(len(KINDS))],
            int(rng.integers(0, 10**6)),
        )
        for _ in range(n)
    ]
    rows += rows[: int(rng.integers(0, n + 1))]  # exact repeats
    rng.shuffle(rows)
    labels = ["Off", "A", "B"]
    entries = {
        b: labels[rng.integers(3)] for b in buyers if rng.random() > 0.15
    }
    return rows, assignment_table(entries, VARIANTS3)


def assert_same_graph(got, want):
    assert got.buyers == want.buyers
    assert got.sellers == want.sellers
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.buyer_idx, want.buyer_idx)
    assert got.weights.tobytes() == want.weights.tobytes()


def enumerate_assignments(m):
    """All 2^m treatment vectors as float arrays."""
    for bits in itertools.product([0.0, 1.0], repeat=m):
        yield np.array(bits)


def assignment_probability(z, p):
    k = int(z.sum())
    return p**k * (1 - p) ** (len(z) - k)


def edge_set(graph):
    """(seller, buyer, weight) triples of a graph, for order-free comparison."""
    out = set()
    for i, seller in enumerate(graph.sellers):
        idx, w = graph_row(graph, i)
        for j, weight in zip(idx, w):
            out.add((seller, graph.buyers[j], float(weight)))
    return out


def diag_weighting(mu):
    """Coefficients (a, b, c) of R(H) = a H^2 + b H + c with
    E[H^g R] matching the variance terms of Y W for g = 0, 1, 2, one unit
    at a time from its moments mu = E[H^0..4].

    When the exposure distribution spans fewer than three points (e.g. a
    single-buyer seller with Bernoulli exposure) the system is singular;
    the minimum-norm least-squares fit is returned with a degeneracy flag.
    """
    m1, v = mu[1], mu[2] - mu[1] ** 2
    M = np.array(
        [
            [mu[2], mu[1], mu[0]],
            [mu[3], mu[2], mu[1]],
            [mu[4], mu[3], mu[2]],
        ]
    )
    e_h_c2 = mu[3] - 2 * m1 * mu[2] + m1**2 * mu[1]  # E[H (H-m)^2]
    e_h2_c2 = mu[4] - 2 * m1 * mu[3] + m1**2 * mu[2]  # E[H^2 (H-m)^2]
    rhs = np.array([1.0 / v, e_h_c2 / v**2, e_h2_c2 / v**2 - 1.0])
    try:
        sol = np.linalg.solve(M, rhs)
        if np.all(np.isfinite(sol)) and np.linalg.cond(M) < 1e12:
            return sol, False
    except np.linalg.LinAlgError:
        pass
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return sol, True


def raw_moments(table):
    """E[H^k], k = 0..4, per unit (rows) from the moment table's cumulants,
    by the moment-cumulant identities."""
    c1, c2, c3, c4 = table.mean, table.var, table.k3, table.k4
    return np.column_stack(
        [
            np.ones_like(c1),
            c1,
            c2 + c1**2,
            c3 + 3 * c2 * c1 + c1**3,
            c4 + 4 * c3 * c1 + 3 * c2**2 + 6 * c2 * c1**2 + c1**4,
        ]
    )


def unit_variance_terms(panel, joint_moments):
    """Per-unit variance estimates Y_i^2 R_i(H_i); pairwise_variance reduces
    to (1/n^2) times their sum when buyer neighborhoods are disjoint."""
    out = np.empty(panel.n)
    uni = raw_moments(joint_moments)
    for i in range(panel.n):
        (a, b, c), _ = diag_weighting(uni[i])
        h = panel.h[i]
        out[i] = panel.y_in[i] ** 2 * (a * h * h + b * h + c)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240819)


# --- scipy's pivoted QR, kept as the oracle for REG -------------------------


def scipy_ols(X, y):
    """(coef, resid, r^2) of the OLS of y on X by scipy's pivoted QR, the
    way REG computed it before its centred sums: a design with some
    |r_jj| <= max |r_jj| max(n, k) eps is a CollinearDesignError."""
    import scipy.linalg

    n, k = X.shape
    if n <= k:
        raise EstimationError(f"need more than {k} units, got {n}")
    q, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(n, k) * np.finfo(float).eps
    if np.any(diag <= tol):
        raise CollinearDesignError("no exposure variation (collinear design matrix)")
    coef = np.empty(k)
    coef[piv] = scipy.linalg.solve_triangular(r, q.T @ y)
    resid = y - X @ coef
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / tss if tss > 0 else 1.0
    return coef, resid, r2


def scipy_regression_estimate(panel, use_pre=False):
    """regression_estimate by scipy's pivoted QR: one QR for the fit and a
    second for the Breusch-Pagan regression of the squared residuals."""
    cols = [np.ones(panel.n), panel.h] + ([panel.y_pre] if use_pre else [])
    X = np.column_stack(cols)
    coef, resid, r2 = scipy_ols(X, panel.y_in)
    u2 = resid**2
    bp = len(resid) * scipy_ols(X, u2)[2] if float(np.sum((u2 - u2.mean()) ** 2)) > 0 else 0.0
    diagnostics = {"alpha": float(coef[0]), "r_squared": r2, "breusch_pagan": bp}
    if use_pre:
        diagnostics["psi"] = float(coef[2])
    return PointEstimate("reg_pre" if use_pre else "reg", float(coef[1]), panel.n,
                         diagnostics=diagnostics)
