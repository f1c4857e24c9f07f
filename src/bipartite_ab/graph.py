"""Bipartite buyer->seller graph construction from interaction events.

Each seller (outcome unit) carries edges to the buyers (diversion units)
that interacted with it; edge weights are row-normalized to sum to one.
Two weighting schemes are supported:

* ``count_proportional``: w = (events from buyer r to seller i) / (events to i)
* ``binary_dedup``:       w = 1 / (distinct buyers interacting with i)
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .ingest import AssignmentTable, EventLog

ROW_SUM_TOL = 1e-9

WEIGHTINGS = ("count_proportional", "binary_dedup")


class GraphError(ValueError):
    pass


class EmptyGraphError(GraphError):
    pass


@dataclass(frozen=True)
class GraphBuildConfig:
    weighting: str = "count_proportional"
    kind_filter: frozenset = frozenset({"view"})

    def __post_init__(self):
        if self.weighting not in WEIGHTINGS:
            raise GraphError(f"unknown weighting {self.weighting!r}")
        if not self.kind_filter:
            raise GraphError("kind_filter must be non-empty")


class BipartiteGraph:
    """Sparse seller-by-buyer weight matrix with fixed unit orderings.

    `buyers` and `sellers` are sorted lexicographically at build time so
    all downstream vectors index consistently. Edges are stored CSR-style
    over sellers, buyer indices ascending within each row.
    """

    def __init__(self, buyers, sellers, indptr, buyer_idx, weights):
        self.buyers = list(buyers)
        self.sellers = list(sellers)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.buyer_idx = np.asarray(buyer_idx, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self._matrix = None
        self._validate()

    def _validate(self):
        n, m = len(self.sellers), len(self.buyers)
        if n == 0:
            raise EmptyGraphError("empty graph: no outcome units")
        if len(self.indptr) != n + 1:
            raise GraphError("indptr length mismatch")
        nnz = len(self.buyer_idx)
        if self.indptr[0] != 0 or self.indptr[-1] != nnz or len(self.weights) != nnz:
            raise GraphError("indptr, buyer indices and weights disagree")
        if np.any(self.weights <= 0):
            raise GraphError("all edge weights must be strictly positive")
        if m and (self.buyer_idx.min() < 0 or self.buyer_idx.max() >= m):
            raise GraphError("buyer index out of range")
        empty = np.flatnonzero(np.diff(self.indptr) <= 0)
        if len(empty):
            raise GraphError(f"outcome unit {self.sellers[empty[0]]!r} has no edges")
        # buyer indices ascend strictly within a row; a row's first index
        # may be anything
        steps = np.diff(self.buyer_idx)
        steps[self.indptr[1:-1] - 1] = 1
        if np.any(steps <= 0):
            raise GraphError("duplicate or unsorted buyer indices in a row")
        sums = self.row_sums()
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise GraphError(
                f"row weights for {self.sellers[bad]!r} sum to {sums[bad]!r}"
            )

    @property
    def n_sellers(self) -> int:
        return len(self.sellers)

    @property
    def n_buyers(self) -> int:
        return len(self.buyers)

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = sp.csr_matrix(
                (self.weights, self.buyer_idx, self.indptr),
                shape=(self.n_sellers, self.n_buyers),
            )
        return self._matrix

    def row_sums(self) -> np.ndarray:
        return np.add.reduceat(self.weights, self.indptr[:-1])

    def row_sumsq(self) -> np.ndarray:
        return np.add.reduceat(self.weights**2, self.indptr[:-1])

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.buyer_idx[lo:hi], self.weights[lo:hi]

    def seller_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


@dataclass
class GraphBuildReport:
    events_used: int = 0
    skipped_unassigned: int = 0
    skipped_kind: int = 0


def _row_normalized(m: sp.csr_matrix) -> np.ndarray:
    """The stored entries of `m` divided by their row's sum.

    Rows of equal length are summed together as the rows of one dense
    array, which numpy sums exactly as it sums each row on its own, so
    the weights are bit-equal to dividing row by row.
    """
    degree = np.diff(m.indptr)
    sums = np.empty(len(degree))
    for d in np.unique(degree).tolist():
        rows = np.flatnonzero(degree == d)
        sums[rows] = m.data[m.indptr[rows, None] + np.arange(d)].sum(axis=1)
    return m.data / np.repeat(sums, degree)


def build_graph(
    events: EventLog,
    assignments: AssignmentTable,
    config: GraphBuildConfig = GraphBuildConfig(),
) -> tuple[BipartiteGraph, GraphBuildReport]:
    """Aggregate events into a row-normalized bipartite graph.

    Events from buyers absent from the assignment table are excluded and
    counted (an unassigned buyer has no treatment indicator and cannot
    contribute exposure). Zero qualifying events is an error.
    """
    wanted = [k for k, kind in enumerate(events.kinds) if kind in config.kind_filter]
    selected = np.isin(events.kind, wanted)
    assigned = assignments.rows(events.buyers) >= 0
    used = selected & assigned[events.buyer]
    report = GraphBuildReport(
        events_used=int(used.sum()),
        skipped_unassigned=int((selected & ~used).sum()),
        skipped_kind=int((~selected).sum()),
    )
    if not report.events_used:
        raise EmptyGraphError("empty graph: no qualifying events")

    # seller x buyer event counts; tocsr sums repeats and sorts each row
    counts = sp.coo_matrix(
        (np.ones(report.events_used), (events.seller[used], events.buyer[used])),
        shape=(len(events.sellers), len(events.buyers)),
    ).tocsr()
    rows = np.flatnonzero(np.diff(counts.indptr))
    cols = np.flatnonzero(np.bincount(counts.indices, minlength=counts.shape[1]))
    counts = counts[rows][:, cols]
    if config.weighting == "binary_dedup":
        counts.data[:] = 1.0
    graph = BipartiteGraph(
        [events.buyers[j] for j in cols],
        [events.sellers[i] for i in rows],
        counts.indptr,
        counts.indices,
        _row_normalized(counts),
    )
    return graph, report


def per_variant_subgraph(
    graph: BipartiteGraph,
    assignments: AssignmentTable,
    control: str,
    treatment: str,
) -> BipartiteGraph:
    """Restrict the graph to buyers in {control, treatment}, re-normalizing
    per-seller weights; sellers losing all edges are dropped."""
    if control == treatment:
        raise GraphError("control and treatment variants must differ")
    keep = np.isin(
        assignments.variant_codes(graph.buyers),
        [assignments.code(control), assignments.code(treatment)],
    )
    sub = graph.matrix()[:, keep]
    rows = np.flatnonzero(np.diff(sub.indptr))
    if not len(rows):
        raise EmptyGraphError(
            f"empty graph: no sellers touched by {control!r} or {treatment!r} buyers"
        )
    sub = sub[rows]
    return BipartiteGraph(
        [b for b, k in zip(graph.buyers, keep) if k],
        [graph.sellers[i] for i in rows],
        sub.indptr,
        sub.indices,
        _row_normalized(sub),
    )


@dataclass
class GraphStats:
    n_buyers: int
    n_sellers: int
    n_edges: int
    seller_degree_hist: dict[int, int] = field(default_factory=dict)

    @property
    def single_edge_sellers(self) -> int:
        return self.seller_degree_hist.get(1, 0)


def graph_stats(graph: BipartiteGraph) -> GraphStats:
    degrees, counts = np.unique(graph.seller_degrees(), return_counts=True)
    return GraphStats(
        n_buyers=graph.n_buyers,
        n_sellers=graph.n_sellers,
        n_edges=graph.n_edges,
        seller_degree_hist=dict(zip(degrees.tolist(), counts.tolist())),
    )


def dump_graph(graph: BipartiteGraph, path):
    """Audit dump: `seller_id,buyer_id,weight`, one line per edge in the
    graph's order, which is seller then buyer lexicographic for a built or
    restricted graph (ids sorted, buyer indices ascending within a row)."""
    sellers = np.repeat(np.array(graph.sellers, dtype=object), graph.seller_degrees())
    buyers = np.array(graph.buyers, dtype=object)[graph.buyer_idx]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seller_id", "buyer_id", "weight"])
        writer.writerows(
            zip(sellers.tolist(), buyers.tolist(), map(repr, graph.weights.tolist()))
        )
