"""Bipartite buyer->seller graph construction from interaction events.

Each seller (outcome unit) carries edges to the buyers (diversion units)
that interacted with it; edge weights are row-normalized to sum to one.
Two weighting schemes are supported:

* ``count_proportional``: w = (events from buyer r to seller i) / (events to i)
* ``binary_dedup``:       w = 1 / (distinct buyers interacting with i)

A graph is CSR-style numpy arrays: building, restricting and multiplying
by it and the pairwise moment table need no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ingest import AssignmentTable, EventLog, Vocabulary, write_csv

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

    Buyer column j is `buyer_vocabulary[buyer_codes[j]]`, seller row i
    `seller_vocabulary[seller_codes[i]]`: a built or restricted graph shares
    its event log's sorted vocabularies, with ascending codes; without
    `codes`, `buyers` and `sellers` are the vocabularies (as Vocabulary
    objects). Edges are stored CSR-style over sellers, buyer indices
    ascending within each row.
    """

    # the edge bins of the largest block of products so far (`_edge_bins`)
    _bins = np.empty(0, dtype=np.int64)

    def __init__(self, buyers, sellers, indptr, buyer_idx, weights, codes=None):
        vocabularies = Vocabulary.of(buyers), Vocabulary.of(sellers)
        self.buyer_vocabulary, self.seller_vocabulary = vocabularies
        codes = codes or [range(len(v)) for v in vocabularies]
        self.buyer_codes, self.seller_codes = (np.asarray(c, np.int64) for c in codes)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.buyer_idx = np.asarray(buyer_idx, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self._validate()

    # the ids of the columns and rows, built on first use
    buyers = cached_property(lambda g: g.buyer_vocabulary.ids_at(g.buyer_codes))
    sellers = cached_property(lambda g: g.seller_vocabulary.ids_at(g.seller_codes))

    def buyer_variants(self, assignments: AssignmentTable) -> np.ndarray:
        """The variant code of each buyer column, -1 for an unassigned one."""
        rows = assignments.rows(self.buyer_vocabulary)[self.buyer_codes]
        return np.append(assignments.variant, -1)[rows]

    def _validate(self):
        n, m = self.n_sellers, self.n_buyers
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
                f"row weights for {self.sellers[bad]!r} sum to {float(sums[bad])!r}"
            )

    @property
    def n_sellers(self) -> int:
        return len(self.seller_codes)

    @property
    def n_buyers(self) -> int:
        return len(self.buyer_codes)

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    def times(self, x: np.ndarray) -> np.ndarray:
        """W x, or W x_k for each row x_k of a 2-D `x`: each sum runs from 0
        along the row's edges in order, bit-equal to a scipy CSR product."""
        k = len(x) if x.ndim == 2 else 1
        # the edges' columns are gathered first, so a bool block is never
        # made float64 whole
        product = np.asarray(x).take(self.buyer_idx, axis=-1) * self.weights
        sums = np.bincount(self._edge_bins(k), product.ravel(), k * self.n_sellers)
        return sums.reshape(*x.shape[:-1], -1)

    def take_rows(self, rows: np.ndarray) -> BipartiteGraph:
        """The graph of sellers `rows`, in that order, over the same buyers."""
        # each row keeps its edges in order, so its products are bit-equal
        indptr = np.concatenate(([0], np.cumsum(self.seller_degrees()[rows])))
        edges = np.arange(indptr[-1]) + np.repeat(self.indptr[rows] - indptr[:-1], np.diff(indptr))
        return self._derived(slice(None), rows, indptr, self.buyer_idx[edges], self.weights[edges])

    def _derived(self, columns, rows, indptr, buyer_idx, weights):
        """The graph on these buyer columns and seller rows whose int64 and
        float64 edge arrays are taken from this valid graph's, each row's in
        order: it is valid as made, so it is not checked again."""
        graph = object.__new__(BipartiteGraph)
        graph.buyer_vocabulary = self.buyer_vocabulary
        graph.seller_vocabulary = self.seller_vocabulary
        graph.buyer_codes, graph.seller_codes = self.buyer_codes[columns], self.seller_codes[rows]
        graph.indptr, graph.buyer_idx, graph.weights = indptr, buyer_idx, weights
        return graph

    def transpose_times(self, v: np.ndarray) -> np.ndarray:
        """W' v, bit-equal to a scipy CSR `W.T @ v`: each buyer's sum runs
        from 0 over its edges in row order."""
        return np.bincount(self.buyer_idx, self.weights * v[self._edge_bins(1)], self.n_buyers)

    def _edge_bins(self, k: int) -> np.ndarray:
        """Each edge's row, plus j n in copy j < k: the bins of a block of k
        products. Kept, as a smaller k's bins are a prefix of them."""
        if len(self._bins) < k * self.n_edges:
            bins = np.repeat(np.arange(self.n_sellers), self.seller_degrees())
            if k > 1:
                bins = np.add.outer(self.n_sellers * np.arange(k), bins).ravel()
            self._bins = bins
        return self._bins[: k * self.n_edges]

    def row_sums(self) -> np.ndarray:
        return np.add.reduceat(self.weights, self.indptr[:-1])

    def row_sumsq(self) -> np.ndarray:
        return np.add.reduceat(self.weights**2, self.indptr[:-1])

    def seller_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edges(self) -> list:
        """Each edge's seller, buyer and weight, in order, as `ingest.csv_rows` columns."""
        sellers = np.repeat(self.seller_codes, self.seller_degrees())
        buyers = self.buyer_codes[self.buyer_idx]
        return [(self.seller_vocabulary, sellers), (self.buyer_vocabulary, buyers), self.weights]


@dataclass
class GraphBuildReport:
    events_used: int = 0
    skipped_unassigned: int = 0
    skipped_kind: int = 0


def _row_normalized(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """`data` divided by the sum of its CSR row. Only
    `per_variant_subgraph` needs it: its rows hold float weights, where
    `build_graph` divides integer counts by integer totals.

    Rows of equal length are summed together as the rows of one dense
    array, which numpy sums exactly as it sums each row on its own, so
    the weights are bit-equal to dividing row by row.
    """
    degree = np.diff(indptr)
    count = np.bincount(degree)
    # one stable sort groups the rows by length, each group in row order
    end, by_degree = np.cumsum(count), np.argsort(degree, kind="stable")
    sums = np.empty(len(degree))
    for d in np.flatnonzero(count).tolist():
        rows = by_degree[end[d] - count[d] : end[d]]
        sums[rows] = data[indptr[rows, None] + np.arange(d)].sum(axis=1)
    return data / np.repeat(sums, degree)


def build_graph(
    events: EventLog,
    assignments: AssignmentTable,
    config: GraphBuildConfig = GraphBuildConfig(),
) -> tuple[BipartiteGraph, GraphBuildReport]:
    """Aggregate events into a row-normalized bipartite graph.

    Events from buyers absent from the assignment table are excluded and
    counted (an unassigned buyer has no treatment indicator and cannot
    contribute exposure). Zero qualifying events is an error.

    One sort of the keys `seller * m + buyer` builds it: a run of equal keys
    is an edge, and its length is the edge's event count. Row totals are
    integer counts (degrees under `binary_dedup`), exact in any summation
    order, so each weight is bit-equal to dividing by the row's float sum.
    """
    wanted = np.array([kind in config.kind_filter for kind in events.kinds], dtype=bool)
    selected = wanted[events.kind]
    assigned = assignments.rows(events.buyers) >= 0
    used = selected & assigned[events.buyer]
    report = GraphBuildReport(
        events_used=int(used.sum()),
        skipped_unassigned=int((selected & ~used).sum()),
        skipped_kind=int((~selected).sum()),
    )
    if not report.events_used:
        raise EmptyGraphError("empty graph: no qualifying events")

    # the key cannot overflow int64: a parsed log's vocabularies hold only
    # ids some event uses, so seller * m + buyer < len(events) ** 2, and a
    # simulated log's at most simulator.SIZE_MAX ids each. Names are reused
    # so that each full-size array is freed as soon as it is replaced.
    m = len(events.buyers)
    key = events.seller * m
    key += events.buyer
    key = key[used]
    key.sort()
    # each run of equal keys is one edge; `bounds` marks the run starts and
    # the end, and the weights start as the runs' lengths, the event counts
    bounds = np.concatenate(([True], key[1:] != key[:-1], [True]))
    weights = np.diff(np.flatnonzero(bounds))
    if config.weighting == "binary_dedup":
        weights[:] = 1
    key = key[bounds[:-1]]  # seller-major, buyers ascending within a seller
    degree = np.bincount(key // m)
    key %= m  # the edges' buyers
    rows = np.flatnonzero(degree)
    indptr = np.concatenate(([0], np.cumsum(degree[rows])))
    weights = weights / np.repeat(np.add.reduceat(weights, indptr[:-1]), degree[rows])
    present = np.bincount(key, minlength=m) > 0
    graph = BipartiteGraph(
        events.buyers,
        events.sellers,
        indptr,
        (np.cumsum(present) - 1)[key],
        weights,
        codes=(np.flatnonzero(present), rows),
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
        graph.buyer_variants(assignments),
        [assignments.code(control), assignments.code(treatment)],
    )
    # the kept edges keep their order within each row
    kept = keep[graph.buyer_idx]
    degree = np.add.reduceat(kept, graph.indptr[:-1], dtype=np.int64)
    kept = np.flatnonzero(kept)
    rows = np.flatnonzero(degree)
    if not len(rows):
        raise EmptyGraphError(
            f"empty graph: no sellers touched by {control!r} or {treatment!r} buyers"
        )
    indptr = np.concatenate(([0], np.cumsum(degree[rows])))
    buyer_idx = (np.cumsum(keep, dtype=np.int64) - 1)[graph.buyer_idx[kept]]
    # renormalized rows of positive weights sum to 1 within rounding
    return graph._derived(keep, rows, indptr, buyer_idx, _row_normalized(indptr, graph.weights[kept]))


@dataclass
class GraphStats:
    """A graph's size and its sellers with one edge, as report.json records them."""

    n_buyers: int
    n_sellers: int
    n_edges: int
    single_edge_sellers: int


def graph_stats(graph: BipartiteGraph) -> GraphStats:
    return GraphStats(graph.n_buyers, graph.n_sellers, graph.n_edges,
                      int((graph.seller_degrees() == 1).sum()))


def dump_graph(graph: BipartiteGraph, path):
    """Audit dump: `seller_id,buyer_id,weight`, one line per edge in the
    graph's order, which is seller then buyer lexicographic for a built or
    restricted graph (ids sorted, buyer indices ascending within a row)."""
    write_csv(path, ["seller_id", "buyer_id", "weight"], graph.edges())
