"""Seller-side treatment effect estimation for buyer-side marketplace experiments.

Buyers are randomized (diversion units), sellers are measured (outcome
units), and the two sides are linked by a weighted bipartite graph built
from in-experiment interaction events.  The package covers the full
pipeline: log ingestion, graph construction, exposure scores and their
design moments, point estimators (exposure-reweighted linear, regression,
covariate-adjusted ERL), resampling inference, and a synthetic-experiment
simulator for bias/coverage validation.
"""

from .ingest import (
    AssignmentTable,
    EventLog,
    OutcomeTable,
    parse_assignments,
    parse_events,
    parse_outcomes,
)
from .graph import (
    BipartiteGraph,
    GraphBuildConfig,
    build_graph,
    dump_graph,
    graph_stats,
    per_variant_subgraph,
)
from .exposure import (
    ExposurePanel,
    assemble_panel,
    design_moments,
    realized_exposure,
)
from .estimators import (
    PointEstimate,
    crerl_estimate,
    erl_estimate,
    point_estimate,
    regression_estimate,
)
from .inference import (
    IntervalEstimate,
    bootstrap_ci,
    exposure_moment_table,
    pairwise_variance,
    randomization_ci,
)
from .simulator import SimConfig, SimTruth, run_validation, simulate_experiment

__all__ = [
    "AssignmentTable",
    "BipartiteGraph",
    "EventLog",
    "ExposurePanel",
    "GraphBuildConfig",
    "IntervalEstimate",
    "OutcomeTable",
    "PointEstimate",
    "SimConfig",
    "SimTruth",
    "assemble_panel",
    "bootstrap_ci",
    "build_graph",
    "crerl_estimate",
    "design_moments",
    "dump_graph",
    "erl_estimate",
    "exposure_moment_table",
    "graph_stats",
    "pairwise_variance",
    "parse_assignments",
    "parse_events",
    "parse_outcomes",
    "per_variant_subgraph",
    "point_estimate",
    "randomization_ci",
    "realized_exposure",
    "regression_estimate",
    "run_validation",
    "simulate_experiment",
]

__version__ = "0.1.0"
