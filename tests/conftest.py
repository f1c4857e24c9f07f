import itertools

import numpy as np
import pytest

from bipartite_ab.graph import BipartiteGraph
from bipartite_ab.ingest import AssignmentTable, InteractionEvent, Variant


def make_events(rows):
    """rows: iterable of (buyer, seller, kind, ts)."""
    return [InteractionEvent(b, s, k, t) for b, s, k, t in rows]


def two_variant_assignments(on_buyers, off_buyers, p_on=0.5):
    entries = {b: "On" for b in on_buyers}
    entries.update({b: "Off" for b in off_buyers})
    return AssignmentTable(
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
        idx, w = graph.row(i)
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


def unit_variance_terms(panel, joint_moments):
    """Per-unit variance estimates Y_i^2 R_i(H_i); pairwise_variance reduces
    to (1/n^2) times their sum when buyer neighborhoods are disjoint."""
    out = np.empty(panel.n)
    for i in range(panel.n):
        (a, b, c), _ = diag_weighting(joint_moments.uni[i])
        h = panel.h[i]
        out[i] = panel.y_in[i] ** 2 * (a * h * h + b * h + c)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240819)
