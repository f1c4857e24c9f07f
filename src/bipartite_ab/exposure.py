"""Exposure scores and their design moments under Bernoulli randomization.

For seller i with row-normalized weights w_ir, the realized exposure is
h_i = sum_r w_ir * 1[variant(r) = treatment]. With each buyer treated
independently with probability p, the design moments are

    E[H_i]   = p * sum_r w_ir = p
    Var[H_i] = p (1 - p) * sum_r w_ir^2

On a two-variant subgraph drawn from a multi-variant experiment the same
formulas apply with the conditional probability p = p_t / (p_t + p_c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import BipartiteGraph
from .ingest import AssignmentTable, OutcomeTable

EPS_VAR = 1e-12


class ExposureError(ValueError):
    pass


class MissingOutcomeError(ExposureError):
    def __init__(self, sellers):
        preview = ", ".join(sellers[:5])
        suffix = "" if len(sellers) <= 5 else f" (+{len(sellers) - 5} more)"
        super().__init__(
            f"{len(sellers)} graph sellers have no outcome row: {preview}{suffix}; "
            "pass allow_missing_outcomes=True to drop them"
        )
        self.sellers = sellers


def effective_treatment_prob(
    assignments: AssignmentTable, treatment: str, control: str | None = None
) -> float:
    """Marginal treatment probability, or the conditional probability
    p_t/(p_t+p_c) when analyzing a control-vs-treatment subgraph."""
    p_t = assignments.probability(treatment)
    if control is None:
        p = p_t
    else:
        if control == treatment:
            raise ExposureError("control and treatment must differ")
        p_c = assignments.probability(control)
        p = p_t / (p_t + p_c)
    if not 0.0 < p < 1.0:
        raise ExposureError(f"treatment probability {p} outside (0,1)")
    return p


def realized_exposure(
    graph: BipartiteGraph, assignments: AssignmentTable, treatment: str
) -> np.ndarray:
    """h_i = weighted share of seller i's interactions from treated buyers."""
    treated = graph.buyer_variants(assignments) == assignments.code(treatment)
    return graph.times(treated.astype(np.float64))


def design_moments(
    graph: BipartiteGraph,
    assignments: AssignmentTable,
    treatment: str,
    control: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (E[H], Var[H]) per seller under independent Bernoulli
    assignment with the design's treatment probability."""
    p = effective_treatment_prob(assignments, treatment, control)
    e_h = p * graph.row_sums()
    var_h = p * (1.0 - p) * graph.row_sumsq()
    return e_h, var_h


@dataclass
class ExposurePanel:
    """Per-seller vectors, index-aligned with `graph_rows` into the source graph."""

    seller_ids: list[str]
    h: np.ndarray
    e_h: np.ndarray
    var_h: np.ndarray
    y_in: np.ndarray
    y_pre: np.ndarray | None
    p: float
    graph_rows: np.ndarray

    def __post_init__(self):
        n = len(self.seller_ids)
        for name in ("h", "e_h", "var_h", "y_in", "graph_rows"):
            if len(getattr(self, name)) != n:
                raise ExposureError(f"panel vector {name} has wrong length")
        if self.y_pre is not None and len(self.y_pre) != n:
            raise ExposureError("panel vector y_pre has wrong length")
        if np.any(self.h < -1e-12) or np.any(self.h > 1.0 + 1e-12):
            raise ExposureError("exposure outside [0,1]")

    @property
    def n(self) -> int:
        return len(self.seller_ids)

    def subset(self, idx: np.ndarray) -> "ExposurePanel":
        return ExposurePanel(
            seller_ids=[self.seller_ids[i] for i in idx],
            h=self.h[idx],
            e_h=self.e_h[idx],
            var_h=self.var_h[idx],
            y_in=self.y_in[idx],
            y_pre=None if self.y_pre is None else self.y_pre[idx],
            p=self.p,
            graph_rows=self.graph_rows[idx],
        )


@dataclass
class DegenerateReport:
    """The number of sellers left out of the panel for each reason, as
    report.json records them; a seller with no outcome row counts there
    whatever its variance."""

    missing_outcome: int
    zero_variance: int


def assemble_panel(
    graph: BipartiteGraph,
    assignments: AssignmentTable,
    outcomes: OutcomeTable,
    treatment: str,
    control: str | None = None,
    allow_missing_outcomes: bool = False,
) -> tuple[ExposurePanel, DegenerateReport]:
    """Join exposures with outcomes, excluding degenerate units.

    Units with Var[H] <= EPS_VAR carry no identifying variation and are
    left out and counted in the report; sellers without an outcome row are a hard
    error unless `allow_missing_outcomes` drops them (imputing 0 would
    bias the estimators).
    """
    h = realized_exposure(graph, assignments, treatment)
    p = effective_treatment_prob(assignments, treatment, control)
    e_h, var_h = design_moments(graph, assignments, treatment, control)
    rows = outcomes.rows(graph.seller_vocabulary)[graph.seller_codes]
    missing = rows < 0
    if missing.any() and not allow_missing_outcomes:
        raise MissingOutcomeError([graph.sellers[i] for i in np.flatnonzero(missing)])
    zero_variance = ~missing & (var_h <= EPS_VAR)
    rows_arr = np.flatnonzero(~(missing | zero_variance))
    if not len(rows_arr):
        raise ExposureError("no usable outcome units after exclusions")
    y_in, y_pre = outcomes.y[rows[rows_arr]].T.copy()
    panel = ExposurePanel(
        # from the codes: graph.sellers would list every seller of the graph
        seller_ids=graph.seller_vocabulary.ids_at(graph.seller_codes[rows_arr]),
        h=h[rows_arr],
        e_h=e_h[rows_arr],
        var_h=var_h[rows_arr],
        y_in=y_in,
        y_pre=y_pre if outcomes.has_pre else None,
        p=p,
        graph_rows=rows_arr,
    )
    return panel, DegenerateReport(int(missing.sum()), int(zero_variance.sum()))


def exposure_histogram(
    h: Sequence[float], bins: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Counts over `bins` uniform bins on [0,1]; h == 1 lands in the last bin."""
    return np.histogram(np.asarray(h), bins=bins, range=(0.0, 1.0))


def write_exposure_histogram(counts: np.ndarray, edges: np.ndarray, path):
    """The CSV of an `exposure_histogram` result: one line per bin."""
    edges = edges.tolist()  # Python floats: a numpy float's repr is np.float64(...)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bin_lower,bin_upper,count\n")
        for lo, hi, c in zip(edges, edges[1:], counts.tolist()):
            fh.write(f"{lo!r},{hi!r},{c}\n")
