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
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .ingest import AssignmentTable, InteractionEvent

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
        self.buyer_index = {b: i for i, b in enumerate(self.buyers)}
        self.seller_index = {s: i for i, s in enumerate(self.sellers)}
        self._matrix = None
        self._validate()

    def _validate(self):
        n, m = len(self.sellers), len(self.buyers)
        if n == 0:
            raise EmptyGraphError("empty graph: no outcome units")
        if len(self.indptr) != n + 1:
            raise GraphError("indptr length mismatch")
        if np.any(self.weights <= 0):
            raise GraphError("all edge weights must be strictly positive")
        if m and (self.buyer_idx.min() < 0 or self.buyer_idx.max() >= m):
            raise GraphError("buyer index out of range")
        for i in range(n):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            if hi <= lo:
                raise GraphError(f"outcome unit {self.sellers[i]!r} has no edges")
            row = self.buyer_idx[lo:hi]
            if np.any(np.diff(row) <= 0):
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


def build_graph(
    events: Iterable[InteractionEvent],
    assignments: AssignmentTable,
    config: GraphBuildConfig = GraphBuildConfig(),
) -> tuple[BipartiteGraph, GraphBuildReport]:
    """Aggregate events into a row-normalized bipartite graph.

    Events from buyers absent from the assignment table are excluded and
    counted (an unassigned buyer has no treatment indicator and cannot
    contribute exposure). Zero qualifying events is an error.
    """
    report = GraphBuildReport()
    counts: dict[str, dict[str, int]] = {}
    for ev in events:
        if ev.event_kind not in config.kind_filter:
            report.skipped_kind += 1
            continue
        if ev.buyer_id not in assignments.entries:
            report.skipped_unassigned += 1
            continue
        counts.setdefault(ev.seller_id, {}).setdefault(ev.buyer_id, 0)
        counts[ev.seller_id][ev.buyer_id] += 1
        report.events_used += 1
    if not counts:
        raise EmptyGraphError("empty graph: no qualifying events")

    sellers = sorted(counts)
    buyers = sorted({b for row in counts.values() for b in row})
    buyer_index = {b: i for i, b in enumerate(buyers)}

    indptr = [0]
    buyer_idx: list[int] = []
    weights: list[float] = []
    dedup = config.weighting == "binary_dedup"
    for seller in sellers:
        row = counts[seller]
        total = len(row) if dedup else sum(row.values())
        for b in sorted(row, key=buyer_index.__getitem__):
            buyer_idx.append(buyer_index[b])
            weights.append((1.0 if dedup else row[b]) / total)
        indptr.append(len(buyer_idx))
    graph = BipartiteGraph(buyers, sellers, indptr, buyer_idx, weights)
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
    for label in (control, treatment):
        if label not in assignments.labels:
            raise GraphError(f"unknown variant {label!r}")
    keep_labels = {control, treatment}
    kept_buyers = [
        b for b in graph.buyers if assignments.variant_of(b) in keep_labels
    ]
    new_index = {b: i for i, b in enumerate(kept_buyers)}
    keep_old = np.array(
        [assignments.variant_of(b) in keep_labels for b in graph.buyers], dtype=bool
    )
    remap = np.full(graph.n_buyers, -1, dtype=np.int64)
    for b, i in new_index.items():
        remap[graph.buyer_index[b]] = i

    sellers: list[str] = []
    indptr = [0]
    buyer_idx: list[int] = []
    weights: list[float] = []
    for i, seller in enumerate(graph.sellers):
        idx, w = graph.row(i)
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
        raise EmptyGraphError(
            f"empty graph: no sellers touched by {control!r} or {treatment!r} buyers"
        )
    return BipartiteGraph(kept_buyers, sellers, indptr, buyer_idx, weights)


@dataclass
class GraphStats:
    n_buyers: int
    n_sellers: int
    n_edges: int
    seller_degree_hist: dict[int, int] = field(default_factory=dict)
    buyer_degree_hist: dict[int, int] = field(default_factory=dict)
    isolated_buyers: int = 0

    @property
    def single_edge_sellers(self) -> int:
        return self.seller_degree_hist.get(1, 0)


def graph_stats(graph: BipartiteGraph) -> GraphStats:
    seller_deg = graph.seller_degrees()
    buyer_deg = np.zeros(graph.n_buyers, dtype=np.int64)
    np.add.at(buyer_deg, graph.buyer_idx, 1)
    s_hist: dict[int, int] = {}
    for d in seller_deg.tolist():
        s_hist[d] = s_hist.get(d, 0) + 1
    b_hist: dict[int, int] = {}
    for d in buyer_deg.tolist():
        if d > 0:
            b_hist[d] = b_hist.get(d, 0) + 1
    return GraphStats(
        n_buyers=graph.n_buyers,
        n_sellers=graph.n_sellers,
        n_edges=graph.n_edges,
        seller_degree_hist=s_hist,
        buyer_degree_hist=b_hist,
        isolated_buyers=int((buyer_deg == 0).sum()),
    )


def dump_graph(graph: BipartiteGraph, path):
    """Audit dump: `seller_id,buyer_id,weight`, seller then buyer lexicographic."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seller_id", "buyer_id", "weight"])
        for i, seller in enumerate(graph.sellers):
            idx, w = graph.row(i)
            rows = sorted(
                (graph.buyers[j], float(weight)) for j, weight in zip(idx, w)
            )
            for buyer, weight in rows:
                writer.writerow([seller, buyer, repr(weight)])
